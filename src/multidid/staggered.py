"""Dynamic-effect estimators for two consecutive staggered binary treatments.

Setting: both treatments turn on and never off, and no group receives the
second treatment before the first. Groups are bucketed into cohorts by the
date they adopt the first treatment. Within a cohort, groups that adopt the
second treatment are compared, horizon by horizon, to cohort mates that have
not adopted it yet; because both arms have carried the first treatment for
the same length of time, its (possibly dynamic) effect differences out as
long as its path over time is common across groups.

Every event study here is built from one contrast, the not-yet-treated
comparison of Callaway & Sant'Anna (2021), over per-group adoption dates a,
cohort dates c and caps k. At horizon l and date t, the adopters are the
groups with a = t - l > c and t <= k, and the controls are their cohort mates
with a > t. The contrast is the difference of the two arms' mean long
differences Y_t - Y_{t-l-1}, each weighted by cell size at t, wherever both
arms are non-empty; contrasts are averaged with weights proportional to
adopter size. Placebos shift both arms to the window (t-l-2) -> (t-l-1),
need a >= c + 2, and have expectation zero exactly when the first
treatment's effect path is common. The second treatment's study uses
(a, c, k) = (F2, F1, none); the first treatment's, on the second-free
sample, (F1, 1, F2 - 1); the bundled treatment's (min(F1, F2), 1, none).
One kernel call gives every horizon of a study its contrasts.

A first-adoption cohort is eligible for the second-treatment study when its
groups have at least two distinct second-adoption dates strictly after the
cohort date, "never" counting as one; only eligible cohorts hold contrasts.

Also provided: a per-group linear-trend extrapolation fallback for the
second treatment, and the group partition by adoption order used to split
mixed-order applications.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HorizonOutOfRange,
    InsufficientPrePeriods,
    NoControls,
    NonFiniteValue,
    NotStaggered,
    PathologicalDesign,
    WrongOrder,
)
from .panel import PanelDataset, _integer, _Rows, _running_sum, _Table, encode_json


@dataclass(frozen=True, eq=False)
class CohortStructure:
    """Adoption dates of the two staggered treatments and the horizon range.

    Dates are 1-based dense period indices, with T + 1 meaning "never", and
    ``l_nt`` is the largest horizon estimable inside some eligible cohort.
    Structures with equal dates and ``l_nt`` are equal; they are unhashable.
    """

    f1: np.ndarray
    f2: np.ndarray
    l_nt: int
    # per panel, the linear-trend fit that every horizon reads (_trend_fit)
    _trend_fits: dict = field(default_factory=dict, init=False, repr=False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CohortStructure) and self.l_nt == other.l_nt
                and np.array_equal(self.f1, other.f1) and np.array_equal(self.f2, other.f2))


@dataclass(frozen=True)
class HorizonComponent:
    cohort: object  # first-adoption period label
    period: object
    value: float
    n_treated: float
    n_control: float
    weight: float


def _spans(h: np.ndarray) -> list[tuple[int, int, int]]:
    """``(ell, i, k)`` for each run ``h[i:k] == ell`` of the sorted horizons ``h``."""
    starts = np.flatnonzero(np.diff(h, prepend=-1)).tolist()
    return list(zip(h[starts].tolist(), starts, starts[1:] + [h.size]))


@dataclass(frozen=True, eq=False, repr=False)
class DynamicEffectResult:
    """Per-horizon estimates with their cohort-by-date components, kept as
    the table of :func:`_horizons`, whose codes index ``labels``; the
    ``components`` records are built on first read, and == and repr read them."""

    estimates: dict[int, float]
    table: tuple
    labels: tuple
    placebos: dict[int, float]
    standard_errors: dict[int, float] | None = None

    @functools.cached_property
    def components(self) -> dict[int, tuple[HorizonComponent, ...]]:
        records = [HorizonComponent(*row[1:]) for row in self.csv_rows()]
        return {ell: tuple(records[i:k]) for ell, i, k in _spans(self.table[0])}

    def _fields(self) -> dict:
        return {"estimates": self.estimates, "components": self.components,
                "placebos": self.placebos, "standard_errors": self.standard_errors}

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._fields() == other._fields()

    def __repr__(self) -> str:
        return f"DynamicEffectResult({', '.join(f'{k}={v!r}' for k, v in self._fields().items())})"

    def component_table(self) -> _Table:
        """The components, each led by its horizon, which :meth:`csv_rows` alone gives."""
        ell, cohort, period, *numbers = self.table
        return _Table((None, "f", "t", "did", "n_treated", "n_control", "weight"), ell,
                      (self.labels, cohort), (self.labels, period), *numbers)

    def _report(self, horizons) -> dict:
        def by_ell(values, key):
            return [{"ell": ell, key: v} for ell, v in sorted(values.items())]

        return {
            "horizons": horizons,
            "placebos": by_ell(self.placebos, "estimate"),
            "standard_errors": (None if self.standard_errors is None
                                else by_ell(self.standard_errors, "se")),
        }

    def to_dict(self) -> dict:
        rows = self.component_table().dicts()
        return self._report([{"ell": ell, "estimate": self.estimates[ell], "components": rows[i:k]}
                             for ell, i, k in _spans(self.table[0])])

    def report_json(self) -> dict:
        """:meth:`to_dict` with the horizons as rows of JSON text, written
        from the table's arrays."""
        rows = self.component_table().json()
        return self._report(_Rows(
            f'{{"ell": {ell}, "estimate": {encode_json(self.estimates[ell])}, '
            f'"components": [{", ".join(rows[i:k])}]}}' for ell, i, k in _spans(self.table[0])))

    def csv_rows(self) -> list[tuple]:
        """``(ell, f, t, did, n_treated, n_control, weight)`` per component,
        the lossy tabular projection, in :meth:`to_dict`'s order."""
        return self.component_table().rows()


def adoption_dates(panel: PanelDataset, k: int) -> np.ndarray:
    """First 1-based period with treatment ``k`` on per group, T + 1 if never.

    Raises NotStaggered if the treatment ever switches off, and ValueError
    if ``k`` is not a treatment index.
    """
    panel.check_treatment(k)
    d = panel.d[k]
    if np.any(d[:, 1:] < d[:, :-1]):
        gi, ti = np.argwhere(d[:, 1:] < d[:, :-1])[0]
        raise NotStaggered(
            f"treatment {panel.treatment_names[k]} switches off for group "
            f"{panel.group_labels[gi]!r} at period {panel.period_labels[ti + 1]!r}"
        )
    on = d > 0.5
    return np.where(on.any(axis=1), on.argmax(axis=1) + 1, panel.n_periods + 1)


def _adoption_pair(panel: PanelDataset, first: int, second: int, ordered: bool = True):
    """Adoption dates ``f1, f2`` of two distinct binary treatments; if
    ``ordered``, a group that adopts the second before the first is refused."""
    if first == second:  # 0 == 0.0: each is checked
        panel.check_treatment(first)
        panel.check_treatment(second)
        raise ValueError(f"the first and second treatments are both "
                         f"{panel.treatment_names[first]}")
    panel.require_binary()
    f1, f2 = adoption_dates(panel, first), adoption_dates(panel, second)
    if ordered and (bad := np.flatnonzero(f2 < f1)).size:
        raise WrongOrder(
            f"group {panel.group_labels[bad[0]]!r} adopts the second treatment "
            f"before the first"
        )
    return f1, f2


def build_cohorts(panel: PanelDataset, first: int, second: int) -> CohortStructure:
    """Validate the consecutive staggered design and compute its cohort
    structure; raises PathologicalDesign when no cohort is eligible."""
    f1, f2 = _adoption_pair(panel, first, second)
    # per cohort date: the last and first second-adoption dates after it
    later = f2 > f1
    last = np.zeros(panel.n_periods + 2, dtype=f2.dtype)
    first_later = np.full_like(last, panel.n_periods + 2)
    np.maximum.at(last, f1[later], f2[later])
    np.minimum.at(first_later, f1[later], f2[later])
    l_nt = int((last - first_later).max()) - 1
    if l_nt < 0:
        raise PathologicalDesign(
            "no cohort has two distinct second-treatment adoption dates after "
            "its first-treatment adoption date"
        )
    return CohortStructure(f1=f1, f2=f2, l_nt=l_nt)


def _check_horizon(l_nt: int, ell: int) -> None:
    if not 0 <= _integer(ell, "horizon") <= l_nt:
        raise HorizonOutOfRange(f"horizon {ell} outside the estimable range 0..{l_nt}")


def _cells(panel: PanelDataset, adopt: np.ndarray, cohort: np.ndarray, cap: np.ndarray | int,
           placebo: bool, ell: int | None):
    """A cohort study's cells, flat g * T + date - 1 in index order: the adopter
    cells (at ``ell`` alone if given), keyed by their (cohort, adoption date)'s
    rank among the pairs present * T + date - 1, which keeps keys within the
    panel's size; those pairs, cohort * (T + 2) + adoption date; and the control
    cells with their (cohort, date) codes cohort * T + date - 1."""
    T = panel.n_periods
    dates = np.arange(1, T + 1)
    treated = ((adopt > cohort + placebo)[:, None] & (dates >= adopt[:, None])
               & (dates <= np.reshape(cap, (-1, 1))))
    at = np.flatnonzero(treated if ell is None else treated & (dates == adopt[:, None] + ell))
    g, t = np.divmod(at, T)
    pair = cohort[g] * (T + 2) + adopt[g]
    present = np.bincount(pair, minlength=(T + 2) ** 2) > 0
    control = np.flatnonzero(adopt[:, None] > dates)
    return (at, (np.cumsum(present) - 1)[pair] * T + t, np.flatnonzero(present),
            control, cohort[control // T] * T + control % T)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite estimate is refused below
def _horizons(panel: PanelDataset, adopt: np.ndarray, cohort: np.ndarray | None,
              cap: np.ndarray | int, placebo: bool, n: np.ndarray, ell: int | None = None):
    """Estimates (placebo means if ``placebo``) by horizon of a cohort event
    study with cell sizes ``n``, at each horizon with a contrast or at ``ell``
    alone, weighted by adopter size and summed left to right in (cohort, date)
    order, and the component table: horizon, cohort and date codes, value,
    both arms' sizes and weight. ``cohort=None`` makes all groups one cohort
    dated period 1, with components coded by adoption date. The contrasts are
    the (horizon, cohort, date) triples where both arms have positive size. One
    ``np.bincount`` sums the adopter arm; the control sizes are summed once per
    (cohort, date), and their changes once per horizon, over the control cells
    of its contrasts, groups in index order."""
    one_cohort = cohort is None
    cohort = np.ones_like(adopt) if one_cohort else cohort
    T = panel.n_periods
    y, size = panel.y.ravel(), n.ravel()

    def change(at, h):  # n * (y_hi - y_lo) at flat cells g * T + date - 1, horizons h
        hi, lo = (at - h - 1, at - h - 2) if placebo else (at, at - h - 1)
        return size[at] * (y[hi] - y[lo])

    at, key, pairs, control, at_co = _cells(panel, adopt, cohort, cap, placebo, ell)
    g, t = np.divmod(at, T)
    n_tr, s_tr = np.bincount(key, size[at]), np.bincount(key, change(at, t + 1 - adopt[g]))
    n_co = np.bincount(at_co, size[control], (T + 2) * T)
    bins = np.flatnonzero(n_tr > 0)
    f, a = np.divmod(pairs[bins // T], T + 2)
    t = bins % T
    keep = np.flatnonzero(n_co[f * T + t] > 0)
    keep = keep[np.lexsort((t[keep], f[keep], (t - a)[keep]))]  # (horizon, cohort, date)
    hit, h, f, a, t = bins[keep], (t - a + 1)[keep], f[keep], a[keep], t[keep]
    ft = f * T + t
    spans = _spans(h)
    s_co = np.empty(h.size)
    for ell, i, k in spans:  # each horizon: its contrasts' control cells
        want = np.zeros((T + 2) * T, bool)
        want[ft[i:k]] = True
        cells = np.flatnonzero(want[at_co])
        s_co[i:k] = np.bincount(at_co[cells], change(control[cells], ell), (T + 2) * T)[ft[i:k]]
    # a row per horizon, its contrasts after a 0.0, so that the cumulative sums
    # along a row are the horizon's left-to-right totals
    ells, starts, ends = np.array(spans, dtype=np.intp).reshape(-1, 3).T
    row = np.repeat(np.arange(ells.size), ends - starts)
    col = np.arange(h.size) - starts[row] + 1
    grid = np.zeros((ells.size, col.max(initial=0) + 1))

    def total(values):
        grid[row, col] = values
        return np.cumsum(grid, axis=1)[:, -1]

    n_treated, n_control = n_tr[hit], n_co[ft]
    value = s_tr[hit] / n_treated - s_co / n_control
    n_ell = total(n_treated)
    weight = n_treated / n_ell[row]
    sums = total(n_treated * value) / n_ell if placebo else total(weight * value)
    if not (finite := np.isfinite(sums)).all():
        raise NonFiniteValue(f"n * (y - earlier y) overflows in the "
                             f"{'placebo' if placebo else 'estimate'} at horizon "
                             f"{ells[~finite][0]}")
    return (dict(zip(ells.tolist(), sums.tolist())),
            (h, (a if one_cohort else f) - 1, t, value, n_treated, n_control, weight))


def did_ell(panel: PanelDataset, structure: CohortStructure,
            ell: int) -> tuple[float, tuple[HorizonComponent, ...]]:
    """Effect of the second treatment at horizon ``ell`` (periods since adoption)."""
    _check_horizon(structure.l_nt, ell)
    # every horizon in 0..l_nt has a contrast
    estimates, table = _horizons(panel, structure.f2, structure.f1, panel.n_periods,
                                 False, panel.n, ell)
    return estimates[ell], DynamicEffectResult(estimates, table, panel.period_labels,
                                               {}).components[ell]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite estimate is refused below
def _did_ell_reducer(panel: PanelDataset, first: int, second: int, ell: int):
    """:func:`did_ell` as a function of per-group draw counts, a draw being the
    panel with cell sizes ``counts[g] * n``: None where the draw has no
    contrast at ``ell``, which is where ``ell`` exceeds its groups' ``l_nt``.
    The table is built once: the adopter cells at ``ell``, binned by their
    (cohort, adoption date), and the control cells of each bin's (cohort,
    date), with their sizes and changes at lag ``ell + 1``. A draw makes the
    sums of :func:`_horizons` in its order, so each keeps its bits."""
    structure = build_cohorts(panel, first, second)
    _check_horizon(structure.l_nt, ell)
    T = panel.n_periods
    at, key, pairs, control, at_co = _cells(panel, structure.f2, structure.f1, T, False, ell)
    f, a = np.divmod(pairs, T + 2)
    nb, slot = pairs.size, np.full((T + 2) * T, -1)  # the bin of each (cohort, date) with one
    slot[f * T + a + ell - 1] = np.arange(nb)
    bin_tr, bin_co = key // T, slot[at_co]
    control, bin_co = control[bin_co >= 0], bin_co[bin_co >= 0]
    n, y = panel.n.ravel(), panel.y.ravel()
    g_tr, n_tr, dy_tr = at // T, n[at], y[at] - y[at - ell - 1]
    g_co, n_co, dy_co = control // T, n[control], y[control] - y[control - ell - 1]

    @np.errstate(over="ignore", invalid="ignore")
    def estimate(counts: np.ndarray) -> float | None:
        tr, co = counts[g_tr] * n_tr, counts[g_co] * n_co
        size_tr, size_co = np.bincount(bin_tr, tr, nb), np.bincount(bin_co, co, nb)
        keep = np.flatnonzero((size_tr > 0) & (size_co > 0))
        if not keep.size:
            return None
        n_treated = size_tr[keep]
        value = (np.bincount(bin_tr, tr * dy_tr, nb)[keep] / n_treated
                 - np.bincount(bin_co, co * dy_co, nb)[keep] / size_co[keep])
        total = _running_sum(n_treated / _running_sum(n_treated) * value)
        if not math.isfinite(total):
            raise NonFiniteValue(f"n * (y - earlier y) overflows in the estimate at horizon {ell}")
        return total
    return estimate


def placebo_ell(panel: PanelDataset, structure: CohortStructure, ell: int) -> float:
    """Pre-adoption analogue of :func:`did_ell`; expectation zero under the
    common-evolution assumption on the first treatment's effect."""
    _check_horizon(structure.l_nt, ell)
    study = (panel, structure.f2, structure.f1, panel.n_periods, True, panel.n)
    if ell not in (placebos := _horizons(*study, ell)[0]):
        # a placebo needs an estimate, so none is past l_nt
        raise InsufficientPrePeriods(f"no pre-adoption window for horizon {ell}",
                                     feasible_horizons=tuple(_horizons(*study)[0]))
    return placebos[ell]


def _event_study(panel: PanelDataset, adopt: np.ndarray, cohort: np.ndarray | None,
                 cap: np.ndarray | int, placebos: bool) -> DynamicEffectResult:
    """Cohort event study: every horizon with a contrast, and its placebo where
    it has one (a placebo's adopters are some of the estimate's adopters)."""
    estimates, table = _horizons(panel, adopt, cohort, cap, False, panel.n)
    if not estimates:
        raise NoControls("no adoption date has a not-yet-treated comparison group")
    return DynamicEffectResult(
        estimates, table, panel.period_labels,
        placebos=_horizons(panel, adopt, cohort, cap, True, panel.n)[0] if placebos else {})


def second_treatment_effects(panel: PanelDataset, first: int, second: int,
                             placebos: bool = True) -> DynamicEffectResult:
    """All estimable horizons of the second treatment, with placebos."""
    structure = build_cohorts(panel, first, second)
    return _event_study(panel, structure.f2, structure.f1, panel.n_periods,
                        placebos)


def first_treatment_effects(panel: PanelDataset, first: int,
                            second: int, placebos: bool = True) -> DynamicEffectResult:
    """Event study of the first treatment on the second-treatment-free sample.

    Cells under the second treatment are unusable, so each group's horizon is
    truncated at the period before its second adoption; comparison groups are
    those that have not adopted the first treatment yet.
    """
    f1, f2 = _adoption_pair(panel, first, second)
    return _event_study(panel, f1, None, f2 - 1, placebos)


def combined_effects(panel: PanelDataset, first: int, second: int,
                     placebos: bool = True) -> DynamicEffectResult:
    """Event study of the bundled treatment (sum of the two indicators).

    Horizons count from the first adoption of anything; estimates mix the
    first treatment's effect with the arrival of the second, and the two
    cannot be separated for groups adopting both at once.
    """
    f1, f2 = _adoption_pair(panel, first, second, ordered=False)
    return _event_study(panel, np.minimum(f1, f2), None, panel.n_periods,
                        placebos)


def _trend_tables(labels: tuple, fitted, value, weight, short) -> tuple[_Table, _Table]:
    """The contributions and drops tables of one horizon's ``arrays`` or of several joined."""
    reason = ("fewer_than_two_pre_periods",), np.zeros_like(short)
    return (_Table(("g", "value", "weight"), (labels, fitted), value, weight),
            _Table(("g", "reason"), (labels, short), reason))


@dataclass(frozen=True)
class LinearTrendsResult:
    estimate: float
    contributions: tuple[tuple[object, float, float], ...]  # (group, value, weight)
    dropped: tuple[tuple[object, str], ...]
    # the contributing groups' indices, values and weights, the dropped groups' indices
    arrays: tuple = field(repr=False, compare=False)
    labels: tuple = field(repr=False, compare=False)  # the panel's group labels

    def to_dict(self) -> dict:
        contributions, dropped = _trend_tables(self.labels, *self.arrays)
        return {"estimate": self.estimate, "contributions": contributions.dicts(),
                "dropped": dropped.dicts()}


def _linear_report(horizons: dict[int, LinearTrendsResult], labels: tuple) -> _Rows:
    """``{"ell": ell, **to_dict()}`` per horizon, in order, as rows of JSON
    text; one table of each kind over every horizon's arrays spells each
    group it names once."""
    ells = sorted(horizons)
    fitted, value, weight, short = zip(*(horizons[ell].arrays for ell in ells))

    def split(table, codes):  # the text inside each horizon's array
        rows, ends = table.json(), np.cumsum([c.size for c in codes]).tolist()
        return [", ".join(rows[i:k]) for i, k in zip([0, *ends], ends)]

    contributions, dropped = _trend_tables(labels, *map(np.concatenate,
                                                        (fitted, value, weight, short)))
    return _Rows(
        f'{{"ell": {ell}, "estimate": {encode_json(horizons[ell].estimate)}, '
        f'"contributions": [{c}], "dropped": [{d}]}}' for ell, c, d in zip(
            ells, split(contributions, fitted), split(dropped, short)))


def _trend_fit(panel: PanelDataset, structure: CohortStructure):
    """The fitted groups (two fit points, second adoption inside the panel),
    x and y centred on each group's weighted means, which keeps the
    extrapolation accurate when y is far from 0, and the slopes; computed on
    the first call for a panel and structure, and kept in the structure."""
    if panel not in structure._trend_fits:
        f1, f2 = structure.f1, structure.f2
        fit = np.flatnonzero((f2 - f1 >= 2) & (f2 <= panel.n_periods))
        # weights are the cell sizes inside a group's window and 0 outside
        x = np.arange(1.0, panel.n_periods + 1)
        w = np.where((x >= f1[fit, None]) & (x < f2[fit, None]), panel.n[fit], 0.0)
        sw = w.sum(axis=1)
        y = panel.y[fit]
        with np.errstate(all="ignore"):  # a horizon's estimate is refused where not finite
            xc = x - (w @ x / sw)[:, None]
            yc = y - ((w * y).sum(axis=1) / sw)[:, None]
            slope = (w * xc * yc).sum(axis=1) / (w * xc * xc).sum(axis=1)
        structure._trend_fits[panel] = fit, xc, yc, slope
    return structure._trend_fits[panel]


def did_ell_linear_trends(panel: PanelDataset, structure: CohortStructure,
                          ell: int) -> LinearTrendsResult:
    """Second-treatment effect at horizon ``ell`` via per-group linear trends.

    For each adopting group, a linear trend is fit (size-weighted least
    squares) on its outcomes from first adoption F1 to F2 - 1, the period
    before second adoption, and extrapolated to the horizon date F2 + ell;
    the counterfactual needs no in-cohort control, at the cost of assuming
    the pre-adoption evolution really is linear. Each group is fit once per
    panel and structure, for every horizon. Groups with fewer than two fit
    points are dropped and reported. Negative horizons would put the target
    date inside the fit window and raise HorizonOutOfRange.
    """
    if _integer(ell, "horizon") < 0:
        raise HorizonOutOfRange(f"horizon {ell} is negative; linear trends "
                                f"estimate horizons 0 and up")
    f1, f2, T = structure.f1, structure.f2, panel.n_periods
    short = np.flatnonzero((f1 < f2) & (f2 + ell <= T) & (f2 - f1 < 2))
    fit, xc, yc, slope = _trend_fit(panel, structure)
    rows = np.flatnonzero(f2[fit] + ell <= T)  # the fitted groups that reach F2 + ell
    fit, cols = fit[rows], f2[fit[rows]] + ell - 1  # cols: the date F2 + ell
    size = panel.n[fit, cols]
    total = size.sum()
    with np.errstate(all="ignore"):  # refused below
        value = yc[rows, cols] - slope[rows] * xc[rows, cols]
        estimate = float(size @ value / total)
    arrays = (fit, value, size / total, short)
    contributions, dropped = (tuple(t.rows()) for t in _trend_tables(panel.group_labels, *arrays))
    if not rows.size:
        raise InsufficientPrePeriods(
            f"no group has both a two-point pre-adoption window and an "
            f"observation at horizon {ell}",
            dropped=dropped,
        )
    if not math.isfinite(estimate):
        raise NonFiniteValue(f"the size-weighted linear-trend fit overflows at "
                             f"horizon {ell}")
    return LinearTrendsResult(estimate, contributions, dropped, arrays, panel.group_labels)


@dataclass(frozen=True)
class OrderPartition:
    """Groups split by adoption order, plus the three analysis subsamples.

    Each subsample keeps the never-treated groups so it remains usable as a
    comparison pool.
    """

    first_before_second: tuple
    second_before_first: tuple
    simultaneous: tuple
    never_treated: tuple

    @property
    def first_subsample(self) -> tuple:
        return self.first_before_second + self.never_treated

    @property
    def second_subsample(self) -> tuple:
        return self.second_before_first + self.never_treated

    @property
    def simultaneous_subsample(self) -> tuple:
        return self.simultaneous + self.never_treated

    def to_dict(self) -> dict:
        return {
            "first_before_second": list(self.first_before_second),
            "second_before_first": list(self.second_before_first),
            "simultaneous": list(self.simultaneous),
            "never_treated": list(self.never_treated),
            "subsamples": {
                "first": list(self.first_subsample),
                "second": list(self.second_subsample),
                "simultaneous": list(self.simultaneous_subsample),
            },
        }


def split_by_order(panel: PanelDataset, first: int, second: int) -> OrderPartition:
    """Partition groups by which treatment arrives first (no order required)."""
    f1, f2 = _adoption_pair(panel, first, second, ordered=False)

    def groups(mask):
        return tuple(g for g, keep in zip(panel.group_labels, mask) if keep)

    both = f1 == f2
    return OrderPartition(first_before_second=groups(f1 < f2),
                          second_before_first=groups(f2 < f1),
                          simultaneous=groups(both & (f1 <= panel.n_periods)),
                          never_treated=groups(both & (f1 > panel.n_periods)))
