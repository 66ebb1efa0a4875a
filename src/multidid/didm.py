"""Heterogeneity-robust static estimator for a treatment among several.

The estimator isolates one treatment by comparing consecutive-period outcome
evolutions between "switchers" (cells whose target treatment changes while
every other treatment stays put) and "stayers" (groups whose treatments all
stay put). A cell's origin key is its period and its treatment vector one
period earlier: the other treatments' values (the "baseline") and the
target's previous value. A stratum is an origin key plus the target's new
value. It contributes one difference-in-differences between its switchers
and the stayers with the same origin key, divided by the size of the
target's change, and the strata are averaged with weights proportional to
switcher size.

Both directions are used: cells gaining the treatment are compared to
untreated stayers, cells losing it to treated stayers. Switching cells with
no matching stayer, or whose other treatments move at the same time, are
dropped and reported. The estimate is zero by convention when no switcher
survives. Pass ``binary_only=True`` to refuse non-binary (ordered) targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonBinaryTreatment
from .panel import PanelDataset


@dataclass(frozen=True)
class SwitcherCell:
    group: object
    period: object
    direction: str  # "up" or "down"
    baseline: tuple[float, ...]  # other treatments, previous period
    target_from: float
    target_to: float
    n: float


@dataclass(frozen=True)
class DroppedSwitcher:
    group: object
    period: object
    reason: str  # "other_treatment_changed" or "no_matching_stayer"


@dataclass(frozen=True)
class SwitcherSet:
    cells: tuple[SwitcherCell, ...]
    n_s: float
    dropped: tuple[DroppedSwitcher, ...]


@dataclass(frozen=True)
class DidmComponent:
    period: object
    baseline: tuple[float, ...]
    direction: str
    target_from: float
    target_to: float
    n_switchers: float
    n_stayers: float
    value: float
    weight: float


@dataclass(frozen=True)
class DidmResult:
    estimate: float
    n_s: float
    components: tuple[DidmComponent, ...]
    dropped: tuple[DroppedSwitcher, ...]
    standard_error: float | None = None

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "n_switchers": self.n_s,
            "components": [
                {
                    "t": c.period,
                    "baseline": list(c.baseline),
                    "direction": c.direction,
                    "target_from": c.target_from,
                    "target_to": c.target_to,
                    "did": c.value,
                    "weight": c.weight,
                }
                for c in self.components
            ],
            "dropped": [
                {"g": d.group, "t": d.period, "reason": d.reason}
                for d in self.dropped
            ],
            "standard_error": self.standard_error,
        }


@dataclass(frozen=True)
class _Strata:
    """Usable switching cells, as indices (t - 1) * G + g in (period, group)
    order, with each one's ``stratum`` row of ``key``: the strata, sorted by
    (period index, baseline..., target_from, target_to)."""
    kept: np.ndarray
    stratum: np.ndarray
    dropped: tuple[DroppedSwitcher, ...]
    n_s: float
    key: np.ndarray
    n_switchers: np.ndarray
    n_stayers: np.ndarray
    value: np.ndarray


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right sum from 0.0, the fixed order results are reproducible in."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def _strata(panel: PanelDataset, target: int) -> _Strata:
    K, G, T = panel.d.shape
    others = [j for j in range(K) if j != target]
    before = panel.d[:, :, :-1].transpose(0, 2, 1).reshape(K, -1)
    after = panel.d[:, :, 1:].transpose(0, 2, 1).reshape(K, -1)
    n = panel.n[:, 1:].T.ravel()
    ndy = (panel.n[:, 1:] * (panel.y[:, 1:] - panel.y[:, :-1])).T.ravel()
    switching = after[target] != before[target]
    other_moved = (after[others] != before[others]).any(axis=0)
    # stayers, whose origin key is their key at both dates, and the switchers
    # that may match them are the cells whose other treatments stay put
    still = np.flatnonzero(~other_moved)
    origins, origin = np.unique(
        np.column_stack([still // G + 1, before[others][:, still].T, before[target, still]]),
        axis=0, return_inverse=True)
    stayer = ~switching[still]
    stay_n = np.bincount(origin[stayer], n[still[stayer]], len(origins))
    stay_ndy = np.bincount(origin[stayer], ndy[still[stayer]], len(origins))
    matched = ~stayer & (stay_n[origin] > 0)
    kept = still[matched]
    lost = np.setdiff1d(np.flatnonzero(switching), kept)
    dropped = tuple(
        DroppedSwitcher(panel.group_labels[i % G], panel.period_labels[i // G + 1],
                        "other_treatment_changed" if moved else "no_matching_stayer")
        for i, moved in zip(lost.tolist(), other_moved[lost].tolist()))

    strata, stratum = np.unique(np.column_stack([origin[matched], after[target, kept]]),
                                axis=0, return_inverse=True)
    home = strata[:, 0].astype(np.intp)
    key = np.column_stack([origins[home], strata[:, 1]])
    sw_n = np.bincount(stratum, n[kept], len(strata))
    sw_dy = np.bincount(stratum, ndy[kept], len(strata)) / sw_n
    st_dy = stay_ndy[home] / stay_n[home]
    return _Strata(kept=kept, stratum=stratum, dropped=dropped,
                   n_s=_running_sum(n[kept]), key=key, n_switchers=sw_n,
                   n_stayers=stay_n[home],
                   value=(sw_dy - st_dy) / (key[:, -1] - key[:, -2]))


def find_switchers(panel: PanelDataset, target: int) -> SwitcherSet:
    """Cells whose target treatment changes between consecutive periods and
    that have a matching stayer; unusable switching cells are reported."""
    strata = _strata(panel, target)
    G = panel.n_groups
    cells = tuple(
        SwitcherCell(group=panel.group_labels[i % G],
                     period=panel.period_labels[i // G + 1],
                     direction="up" if k[-1] > k[-2] else "down",
                     baseline=tuple(k[1:-2]), target_from=k[-2], target_to=k[-1],
                     n=float(panel.n[i % G, i // G + 1]))
        for i, k in zip(strata.kept.tolist(), strata.key[strata.stratum].tolist()))
    return SwitcherSet(cells=cells, n_s=strata.n_s, dropped=strata.dropped)


def didm(panel: PanelDataset, target: int, binary_only: bool = False) -> DidmResult:
    """Switcher-versus-stayer estimate of the target treatment's effect.

    Strata are aggregated in a fixed order (ascending period, then baseline,
    then the target transition) so the reduction is bit-reproducible.
    """
    if binary_only and not np.isin(panel.d[target], (0.0, 1.0)).all():
        raise NonBinaryTreatment("target treatment is not binary and binary_only "
                                 "was requested")
    strata = _strata(panel, target)
    weight = strata.n_switchers / strata.n_s
    components = tuple(
        DidmComponent(period=panel.period_labels[int(k[0])], baseline=tuple(k[1:-2]),
                      direction="up" if k[-1] > k[-2] else "down",
                      target_from=k[-2], target_to=k[-1], n_switchers=sw_n,
                      n_stayers=st_n, value=value, weight=w)
        for k, sw_n, st_n, value, w in zip(
            strata.key.tolist(), strata.n_switchers.tolist(),
            strata.n_stayers.tolist(), strata.value.tolist(), weight.tolist()))
    return DidmResult(estimate=_running_sum(weight * strata.value), n_s=strata.n_s,
                      components=components, dropped=strata.dropped)


def delta_s_oracle(synthetic, target: int) -> float:
    """True switcher-average effect, read off stored potential outcomes.

    Evaluates, over the switcher set of the synthetic panel, the size-weighted
    mean effect of moving the target treatment between its observed endpoint
    values while holding the other treatments at their observed values; zero
    when the set is empty.
    """
    panel = synthetic.panel
    switchers = find_switchers(panel, target)
    if switchers.n_s == 0:
        return 0.0
    total = 0.0
    for cell in switchers.cells:
        gi = panel.group_index(cell.group)
        ti = panel.period_index(cell.period)
        d_obs = panel.d[:, gi, ti].copy()
        d_hi = d_obs.copy()
        d_hi[target] = cell.target_to
        d_lo = d_obs.copy()
        d_lo[target] = cell.target_from
        effect = synthetic.potential_outcome(gi, ti, d_hi) \
            - synthetic.potential_outcome(gi, ti, d_lo)
        total += cell.n * effect / (cell.target_to - cell.target_from)
    return float(total / switchers.n_s)
