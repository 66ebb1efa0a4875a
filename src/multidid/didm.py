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

from .errors import NonFiniteValue
from .panel import PanelDataset, _running_sum, _Table


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
    """Switching cells that no stratum can use, kept as arrays in (period,
    group) order: their group and period indices, and whether another
    treatment moved there. ``records`` builds the :class:`DroppedSwitcher`
    records on first read; equality compares them."""
    gi: np.ndarray
    ti: np.ndarray
    moved: np.ndarray
    group_labels: tuple
    period_labels: tuple

    def __len__(self) -> int:
        return len(self.gi)

    def table(self) -> _Table:
        """The group, period and reason of each cell."""
        return _Table(("g", "t", "reason"), (self.group_labels, self.gi),
                      (self.period_labels, self.ti), (_REASONS, self.moved.view(np.int8)))

    @cached_property
    def records(self) -> tuple[DroppedSwitcher, ...]:
        return tuple(starmap(DroppedSwitcher, self.table().rows()))

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


@dataclass(frozen=True, eq=False)
class DidmResult:
    """DID_M and its strata, kept as arrays: per stratum its ``key`` (period
    index, baseline..., target_from, target_to), switcher and stayer sizes,
    value and weight; ``lost`` holds the panel's labels. ``components``
    builds the :class:`DidmComponent` records on first read; equality
    compares them."""
    estimate: float
    n_s: float
    key: np.ndarray = field(repr=False)
    n_switchers: np.ndarray = field(repr=False)
    n_stayers: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    lost: LostCells = field(repr=False)
    standard_error: float | None = None

    def table(self) -> _Table:
        """The strata, a :class:`DidmComponent` per row, keyed as in :meth:`to_dict`."""
        key = self.key
        return _Table(("t", "baseline", "direction", "target_from", "target_to", None, None,
                       "did", "weight"),
                      (self.lost.period_labels, key[:, 0].astype(np.intp)), key[:, 1:-2],
                      _direction(key), key[:, -2], key[:, -1], self.n_switchers,
                      self.n_stayers, self.value, self.weight)

    @cached_property
    def components(self) -> tuple[DidmComponent, ...]:
        return tuple(starmap(DidmComponent, self.table().rows()))

    def _fields(self) -> tuple:
        return self.estimate, self.n_s, self.components, self.lost, self.standard_error

    def __eq__(self, other) -> bool:
        return isinstance(other, DidmResult) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    @property
    def dropped(self) -> tuple[DroppedSwitcher, ...]:
        return self.lost.records

    def _report(self, write) -> dict:
        return {"estimate": self.estimate, "n_switchers": self.n_s,
                "components": write(self.table()), "dropped": write(self.lost.table()),
                "standard_error": self.standard_error}

    def to_dict(self) -> dict:
        return self._report(_Table.dicts)

    def report_json(self) -> dict:
        """:meth:`to_dict` with the component and drop tables as rows of JSON
        text, written straight from the strata arrays and the lost cells."""
        return self._report(_Table.json)

    def csv_rows(self) -> list[tuple]:
        """``(t, baseline, direction, did, weight)`` per stratum, the baseline
        joined by ``|``: the lossy tabular projection, building no component."""
        return [(t, "|".join(map(repr, baseline)), direction, v, w)
                for t, baseline, direction, *_, v, w in self.table().rows()]


def _direction(key: np.ndarray) -> tuple:
    """Each strata key's "up" or "down" as a ``(labels, codes)`` column."""
    return ("down", "up"), (key[:, -1] > key[:, -2]).view(np.int8)


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


def _cell(panel: PanelDataset, i: int) -> str:
    """Name of the cell at index ``i = (t - 1) * G + g`` of the consecutive pairs."""
    G = panel.n_groups
    return panel._cell_name(i % G, i // G + 1)


def _pack(key: np.ndarray, radix: int, columns, binary: bool = False) -> np.ndarray:
    """Extend the int64 ``key``, whose values are below ``radix``, by the
    ``np.unique`` code of each column in mixed radix, so that packed keys sort
    as the rows do; the key is first coded densely whenever the radix would
    pass 2**62. ``binary`` columns hold only 0 and 1, their own codes."""
    for column in columns:
        code = column.astype(np.int64) if binary else np.unique(column, return_inverse=True)[1]
        m = 2 if binary else int(code.max()) + 1 if code.size else 1
        if radix * m > 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            radix = int(key.max()) + 1
        key = key * m + code
        radix *= m
    return key


def _strata(panel: PanelDataset, target: int) -> _Strata:
    panel.check_treatment(target)
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
    binary = panel.binary_treatments
    _, first, origin = np.unique(_pack(still // G, T - 1, columns, binary),
                                 return_index=True, return_inverse=True)
    stayer = ~switching[still]
    matched = ~stayer & (np.bincount(origin[stayer], minlength=first.size) > 0)[origin]
    kept = still[matched]
    switching[kept] = False  # leaves the switchers no stayer matches
    lost = np.flatnonzero(switching)

    to = after[target, kept]
    _, head, stratum = np.unique(_pack(origin[matched], first.size, [to], binary),
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
                   lost=LostCells(lost % G, lost // G + 1, other_moved[lost],
                                  panel.group_labels, panel.period_labels))


def _reduce(strata: _Strata, counts: np.ndarray):
    """DID_M over the strata with cell sizes ``counts[g] * n``, ``counts``
    the copies of each group in a bootstrap draw; the estimate itself is the
    draw of one copy of each group, ``np.ones(G)``.

    A stratum counts while its switchers and its origin's stayers both have
    positive size, which at one copy of each group every stratum has.
    Returns the estimate and n_s, then, per counted stratum, its weight,
    switcher size, stayer size and value.
    """
    S, copies = len(strata.key), counts[strata.cells % strata.panel.n_groups]
    with np.errstate(over="ignore", invalid="ignore"):
        n, ndy = strata.n * copies, strata.ndy * copies
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

    def estimate(counts: np.ndarray) -> float | None:
        value, n_s = _reduce(strata, counts)[:2]
        return value if n_s else None
    return estimate


def find_switchers(panel: PanelDataset, target: int) -> SwitcherSet:
    """Cells whose target treatment changes between consecutive periods and
    that have a matching stayer; unusable switching cells are reported."""
    strata = _strata(panel, target)
    n_s = _reduce(strata, np.ones(panel.n_groups))[1]
    kept = strata.cells[:strata.n_kept]
    g, t = kept % panel.n_groups, kept // panel.n_groups + 1
    key = strata.key[strata.bins[:kept.size]]
    cells = _Table((None,) * 7, (panel.group_labels, g), (panel.period_labels, t),
                   _direction(key), key[:, 1:-2], key[:, -2], key[:, -1], panel.n[g, t]).rows()
    return SwitcherSet(cells=tuple(starmap(SwitcherCell, cells)), n_s=n_s, lost=strata.lost)


def didm(panel: PanelDataset, target: int, binary_only: bool = False) -> DidmResult:
    """Switcher-versus-stayer estimate of the target treatment's effect.

    Strata are aggregated in a fixed order (ascending period, then baseline,
    then the target transition) so the reduction is bit-reproducible.
    """
    if binary_only:
        panel.require_binary((target,))
    strata = _strata(panel, target)
    estimate, n_s, weight, sw_n, st_n, value = _reduce(strata, np.ones(panel.n_groups))
    return DidmResult(estimate=estimate, n_s=n_s, key=strata.key, n_switchers=sw_n,
                      n_stayers=st_n, value=value, weight=weight, lost=strata.lost)


def delta_s_oracle(synthetic, target: int) -> float:
    """True switcher-average effect, read off stored potential outcomes.

    Selects the switchers by the defining rule, with no code shared with the
    estimator: over the consecutive pairs in (period, group) order, a cell is
    a switcher when its target changes, no other treatment changes, and its
    origin key (the period and the full treatment vector one period earlier)
    is the key of some stayer, a cell whose treatments all stay put. Returns
    the size-weighted mean over the switchers of the effect of moving the
    target between its two observed values, holding the other treatments at
    their observed values, per unit of the move; zero when there is no
    switcher.
    """
    panel = synthetic.panel
    panel.check_treatment(target)
    K, G, T = panel.d.shape
    before = panel.d[:, :, :-1].transpose(0, 2, 1).reshape(K, -1)
    after = panel.d[:, :, 1:].transpose(0, 2, 1).reshape(K, -1)
    moved = after != before
    period = np.arange(before.shape[1]) // G

    def keys(cells):
        return zip(period[cells].tolist(), *before[:, cells].tolist())
    stayers = set(keys(np.flatnonzero(~moved.any(axis=0))))
    candidates = np.flatnonzero(moved[target] & (moved.sum(axis=0) == 1))
    cells = candidates[np.fromiter(map(stayers.__contains__, keys(candidates)), bool,
                                   candidates.size)]
    if not cells.size:
        return 0.0
    g, t = cells % G, cells // G + 1
    frm, to = before[target, cells], after[target, cells]
    # each switcher's outcomes with the target at its two values, stacked
    on, n = list(synthetic._observed), panel.n[g, t]
    on[target] = np.zeros((2, G, T), bool)
    on[target][:, g, t] = np.stack([to, frm]) > 0.5
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats would
        hi, lo = synthetic._outcome(on)[:, g, t]
        return _running_sum(n * (hi - lo) / (to - frm)) / _running_sum(n)
