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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import starmap

import numpy as np

from .errors import NonBinaryTreatment, NonFiniteValue
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


_REASONS = ("no_matching_stayer", "other_treatment_changed")


@dataclass(frozen=True, eq=False)
class LostCells:
    """Switching cells that no stratum can use, kept as arrays: their indices
    (t - 1) * G + g in (period, group) order, and whether another treatment
    moved there. ``records`` builds the :class:`DroppedSwitcher` records on
    first read; equality compares them."""
    cells: np.ndarray
    moved: np.ndarray
    group_labels: tuple
    period_labels: tuple

    def __len__(self) -> int:
        return len(self.cells)

    def rows(self) -> list[tuple]:
        """``(group, period, reason)`` per cell, without building records."""
        G = len(self.group_labels)
        return list(zip(map(self.group_labels.__getitem__, (self.cells % G).tolist()),
                        map(self.period_labels.__getitem__, (self.cells // G + 1).tolist()),
                        map(_REASONS.__getitem__, self.moved.tolist())))

    @cached_property
    def records(self) -> tuple[DroppedSwitcher, ...]:
        return tuple(starmap(DroppedSwitcher, self.rows()))

    def __eq__(self, other) -> bool:
        return isinstance(other, LostCells) and self.records == other.records

    def __hash__(self) -> int:
        return hash(self.records)


@dataclass(frozen=True)
class SwitcherSet:
    cells: tuple[SwitcherCell, ...]
    n_s: float
    lost: LostCells = field(repr=False)

    @property
    def dropped(self) -> tuple[DroppedSwitcher, ...]:
        return self.lost.records


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
    lost: LostCells = field(repr=False)
    standard_error: float | None = None

    @property
    def dropped(self) -> tuple[DroppedSwitcher, ...]:
        return self.lost.records

    @property
    def n_dropped(self) -> int:
        return len(self.lost)

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
            "dropped": [{"g": g, "t": t, "reason": reason}
                        for g, t, reason in self.lost.rows()],
            "standard_error": self.standard_error,
        }


@dataclass(frozen=True, eq=False)
class _Strata:
    """The cell keys of one panel and target, which no cell size changes.

    ``cells`` holds the usable switching cells, as indices (t - 1) * G + g in
    (period, group) order, then the stayer cells whose origin key is some
    stratum's, in the same order. ``bins`` puts a switching cell in its
    stratum s < S, a row of ``key`` (the strata, sorted by period index,
    baseline..., target_from, target_to), and a stayer in S + h, h its origin
    among the strata's distinct origins; ``home[s]`` is the h of stratum s.
    ``n`` and ``ndy`` are n and n * Δy per cell.
    """
    panel: PanelDataset
    cells: np.ndarray
    n_kept: int
    bins: np.ndarray
    n: np.ndarray
    ndy: np.ndarray
    key: np.ndarray
    home: np.ndarray
    n_bins: int
    step: np.ndarray
    lost: LostCells


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right sum from 0.0, the fixed order results are reproducible in."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def _cell(panel: PanelDataset, i: int) -> str:
    """Name of the cell at index ``i = (t - 1) * G + g`` of the consecutive pairs."""
    G = panel.n_groups
    return panel._cell_name(i % G, i // G + 1)


def _pack(key: np.ndarray, radix: int, columns) -> np.ndarray:
    """Extend the int64 ``key``, whose values are below ``radix``, by the
    ``np.unique`` code of each column in mixed radix, so that packed keys sort
    as the rows do; the key is first coded densely whenever the radix would
    pass 2**62."""
    for column in columns:
        _, code = np.unique(column, return_inverse=True)
        m = int(code.max()) + 1 if code.size else 1
        if radix * m > 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            radix = int(key.max()) + 1
        key = key * m + code
        radix *= m
    return key


def _strata(panel: PanelDataset, target: int) -> _Strata:
    K, G, T = panel.d.shape
    others = [j for j in range(K) if j != target]
    before = panel.d[:, :, :-1].transpose(0, 2, 1).reshape(K, -1)
    after = panel.d[:, :, 1:].transpose(0, 2, 1).reshape(K, -1)
    n = panel.n[:, 1:].T.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        ndy = (panel.n[:, 1:] * (panel.y[:, 1:] - panel.y[:, :-1])).T.ravel()
    if (bad := np.flatnonzero(~np.isfinite(ndy))).size:
        raise NonFiniteValue(f"n * (y - previous y) overflows at {_cell(panel, bad[0])}")
    switching = after[target] != before[target]
    other_moved = (after[others] != before[others]).any(axis=0)
    # stayers, whose origin key is their key at both dates, and the switchers
    # that may match them are the cells whose other treatments stay put
    still = np.flatnonzero(~other_moved)
    columns = [*before[others][:, still], before[target, still]]
    _, first, origin = np.unique(_pack(still // G, T - 1, columns),
                                 return_index=True, return_inverse=True)
    stayer = ~switching[still]
    matched = ~stayer & (np.bincount(origin[stayer], minlength=first.size) > 0)[origin]
    kept = still[matched]
    lost = np.setdiff1d(np.flatnonzero(switching), kept)

    to = after[target, kept]
    _, head, stratum = np.unique(_pack(origin[matched], first.size, [to]),
                                 return_index=True, return_inverse=True)
    origins, home = np.unique(origin[matched][head], return_inverse=True)
    h = np.full(first.size, -1)  # h of each origin, -1 where no stratum has it
    h[origins] = np.arange(origins.size)
    h = h[origin[stayer]]
    at = first[origins[home]]  # a cell of each stratum's origin, as a place in ``still``
    key = np.column_stack([still[at] // G + 1, *(c[at] for c in columns), to[head]])
    cells = np.concatenate([kept, still[stayer][h >= 0]])
    with np.errstate(over="ignore", invalid="ignore"):
        step = key[:, -1] - key[:, -2]
    return _Strata(panel=panel, cells=cells, n_kept=kept.size,
                   bins=np.concatenate([stratum, head.size + h[h >= 0]]),
                   n=n[cells], ndy=ndy[cells], key=key, home=home,
                   n_bins=head.size + origins.size, step=step,
                   lost=LostCells(lost, other_moved[lost], panel.group_labels,
                                  panel.period_labels))


def _reduce(strata: _Strata, counts: np.ndarray | None = None):
    """DID_M over the strata with cell sizes ``counts[g] * n``, ``counts``
    the copies of each group in a bootstrap draw (None: one of each).

    A stratum counts while its switchers and its origin's stayers both have
    positive size, which at one copy of each group every stratum has.
    Returns the estimate and n_s, then, per counted stratum, its weight,
    switcher size, stayer size and value.
    """
    n, ndy, S = strata.n, strata.ndy, len(strata.key)
    if counts is not None:
        copies = counts[strata.cells % strata.panel.n_groups]
        with np.errstate(over="ignore", invalid="ignore"):
            n, ndy = n * copies, ndy * copies
    size = np.bincount(strata.bins, n, strata.n_bins)
    total = np.bincount(strata.bins, ndy, strata.n_bins)
    sw_n, st_n = size[:S], size[S:][strata.home]
    live = (sw_n > 0) & (st_n > 0)
    with np.errstate(over="ignore", invalid="ignore"):
        value = (total[:S] / sw_n - total[S:][strata.home] / st_n) / strata.step
    bad = np.flatnonzero(live & (~np.isfinite(value) | ~np.isfinite(strata.step)))
    if bad.size:
        first = strata.cells[np.flatnonzero(strata.bins == bad[0])[0]]
        raise NonFiniteValue(f"the switcher-stayer contrast overflows in the stratum "
                             f"of {_cell(strata.panel, first)}")
    n_s = _running_sum(n[:strata.n_kept][live[strata.bins[:strata.n_kept]]])
    sw_n, st_n, value = sw_n[live], st_n[live], value[live]
    weight = sw_n / n_s
    return _running_sum(weight * value), n_s, weight, sw_n, st_n, value


def _didm_reducer(panel: PanelDataset, target: int):
    """The DID_M estimate as a function of per-group draw counts (see
    :func:`_reduce`); None when no switcher is left."""
    strata = _strata(panel, target)

    def estimate(counts: np.ndarray | None) -> float | None:
        value, n_s = _reduce(strata, counts)[:2]
        return value if n_s else None
    return estimate


def find_switchers(panel: PanelDataset, target: int) -> SwitcherSet:
    """Cells whose target treatment changes between consecutive periods and
    that have a matching stayer; unusable switching cells are reported."""
    strata = _strata(panel, target)
    n_s = _reduce(strata)[1]
    G = panel.n_groups
    kept = strata.cells[:strata.n_kept]
    cells = tuple(
        SwitcherCell(group=panel.group_labels[i % G],
                     period=panel.period_labels[i // G + 1],
                     direction="up" if k[-1] > k[-2] else "down",
                     baseline=tuple(k[1:-2]), target_from=k[-2], target_to=k[-1],
                     n=float(panel.n[i % G, i // G + 1]))
        for i, k in zip(kept.tolist(), strata.key[strata.bins[:kept.size]].tolist()))
    return SwitcherSet(cells=cells, n_s=n_s, lost=strata.lost)


def didm(panel: PanelDataset, target: int, binary_only: bool = False) -> DidmResult:
    """Switcher-versus-stayer estimate of the target treatment's effect.

    Strata are aggregated in a fixed order (ascending period, then baseline,
    then the target transition) so the reduction is bit-reproducible.
    """
    if binary_only and not np.isin(panel.d[target], (0.0, 1.0)).all():
        raise NonBinaryTreatment("target treatment is not binary and binary_only "
                                 "was requested")
    strata = _strata(panel, target)
    estimate, n_s, weight, sw_n, st_n, value = _reduce(strata)
    components = tuple(
        DidmComponent(period=panel.period_labels[int(k[0])], baseline=tuple(k[1:-2]),
                      direction="up" if k[-1] > k[-2] else "down",
                      target_from=k[-2], target_to=k[-1], n_switchers=sw,
                      n_stayers=st, value=v, weight=w)
        for k, sw, st, v, w in zip(strata.key.tolist(), sw_n.tolist(), st_n.tolist(),
                                   value.tolist(), weight.tolist()))
    return DidmResult(estimate=estimate, n_s=n_s, components=components,
                      lost=strata.lost)


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
