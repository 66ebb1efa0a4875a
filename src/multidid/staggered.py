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

import math
from dataclasses import dataclass

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
from .panel import PanelDataset, _integer, _running_sum


@dataclass(frozen=True)
class CohortStructure:
    """Adoption dates of the two staggered treatments and the horizon range.

    Dates are 1-based dense period indices, with T + 1 meaning "never", and
    ``l_nt`` is the largest horizon estimable inside some eligible cohort.
    """

    f1: np.ndarray
    f2: np.ndarray
    l_nt: int


@dataclass(frozen=True)
class HorizonComponent:
    cohort: object  # first-adoption period label
    period: object
    value: float
    n_treated: float
    n_control: float
    weight: float


@dataclass(frozen=True)
class DynamicEffectResult:
    """Per-horizon estimates with their cohort-by-date components."""

    estimates: dict[int, float]
    components: dict[int, tuple[HorizonComponent, ...]]
    placebos: dict[int, float]
    standard_errors: dict[int, float] | None = None

    def to_dict(self) -> dict:
        def by_ell(values, key):
            return [{"ell": ell, key: v} for ell, v in sorted(values.items())]

        return {
            "horizons": [
                {"ell": ell, "estimate": est, "components": [
                    {"f": c.cohort, "t": c.period, "did": c.value,
                     "n_treated": c.n_treated, "n_control": c.n_control,
                     "weight": c.weight}
                    for c in self.components.get(ell, ())]}
                for ell, est in sorted(self.estimates.items())],
            "placebos": by_ell(self.placebos, "estimate"),
            "standard_errors": (None if self.standard_errors is None
                                else by_ell(self.standard_errors, "se")),
        }

    def csv_rows(self) -> list[tuple]:
        """``(ell, f, t, did, n_treated, n_control, weight)`` per component,
        the lossy tabular projection, in :meth:`to_dict`'s order."""
        return [(ell, c.cohort, c.period, c.value, c.n_treated, c.n_control, c.weight)
                for ell in sorted(self.estimates) for c in self.components.get(ell, ())]


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


def _horizons(panel: PanelDataset, adopt: np.ndarray, cohort: np.ndarray | None,
              cap: np.ndarray | int, placebo: bool, n: np.ndarray, ell: int | None = None,
              labelled: bool = False):
    """Estimates (placebo means if ``placebo``) by horizon of a cohort event
    study with cell sizes ``n``, at each horizon with a contrast or at ``ell``
    alone, weighted by adopter size and summed left to right in (cohort, date)
    order; if ``labelled``, also each horizon's components. ``cohort=None``
    makes all groups one cohort dated period 1, with components labelled by
    adoption date. The contrasts are the (horizon, cohort, date) triples where
    both arms have positive size. One ``np.bincount`` sums the adopter arm; the
    control sizes are summed once per (cohort, date), and their changes once
    per horizon, over the control cells of its contrasts, groups in index order."""
    one_cohort = cohort is None
    cohort = np.ones_like(adopt) if one_cohort else cohort
    T = panel.n_periods
    y, size = panel.y.ravel(), n.ravel()
    dates = np.arange(1, T + 1)

    def change(at, h):  # n * (y_hi - y_lo) at flat cells g * T + date - 1, horizons h
        hi, lo = (at - h - 1, at - h - 2) if placebo else (at, at - h - 1)
        with np.errstate(over="ignore", invalid="ignore"):  # the estimate is refused below
            return size[at] * (y[hi] - y[lo])

    treated = ((adopt > cohort + placebo)[:, None] & (dates >= adopt[:, None])
               & (dates <= np.reshape(cap, (-1, 1))))
    at = np.flatnonzero(treated if ell is None else treated & (dates == adopt[:, None] + ell))
    g, t = np.divmod(at, T)
    # adopter cells keyed by date and by their group's (cohort, adoption date)
    # ranked among those present, which keeps the table within the panel's size
    pair = cohort[g] * (T + 2) + adopt[g]
    present = np.bincount(pair, minlength=(T + 2) ** 2) > 0
    key = (np.cumsum(present) - 1)[pair] * T + t
    n_tr, s_tr = np.bincount(key, size[at]), np.bincount(key, change(at, t + 1 - adopt[g]))
    control = np.flatnonzero(adopt[:, None] > dates)
    at_co = cohort[control // T] * T + control % T  # the (cohort, date) of each control cell
    n_co = np.bincount(at_co, size[control], (T + 2) * T)
    bins = np.flatnonzero(n_tr > 0)
    f, a = np.divmod(np.flatnonzero(present)[bins // T], T + 2)
    t = bins % T
    keep = np.flatnonzero(n_co[f * T + t] > 0)
    keep = keep[np.lexsort((t[keep], f[keep], (t - a)[keep]))]  # (horizon, cohort, date)
    hit, h, f, a, t = bins[keep], (t - a + 1)[keep], f[keep], a[keep], t[keep]
    ft = f * T + t
    label = panel.period_labels.__getitem__
    estimates, components = {}, {}
    bounds = [*np.flatnonzero(np.diff(h, prepend=-1)).tolist(), h.size]
    for i, k in zip(bounds, bounds[1:]):  # each horizon: its contrasts' control cells
        ell = int(h[i])
        want = np.zeros((T + 2) * T, bool)
        want[ft[i:k]] = True
        cells = np.flatnonzero(want[at_co])
        s_co = np.bincount(at_co[cells], change(control[cells], ell), (T + 2) * T)[ft[i:k]]
        n_treated, n_control = n_tr[hit[i:k]], n_co[ft[i:k]]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            value = s_tr[hit[i:k]] / n_treated - s_co / n_control
            n_ell = _running_sum(n_treated)
            weight = n_treated / n_ell
            estimates[ell] = (_running_sum(n_treated * value) / n_ell if placebo
                              else _running_sum(weight * value))
        if not math.isfinite(estimates[ell]):
            raise NonFiniteValue(f"n * (y - earlier y) overflows in the "
                                 f"{'placebo' if placebo else 'estimate'} at horizon {ell}")
        if labelled:
            cohorts = (a if one_cohort else f)[i:k] - 1
            components[ell] = tuple(map(
                HorizonComponent, map(label, cohorts.tolist()), map(label, t[i:k].tolist()),
                value.tolist(), n_treated.tolist(), n_control.tolist(), weight.tolist()))
    return estimates, components


def did_ell(panel: PanelDataset, structure: CohortStructure,
            ell: int) -> tuple[float, tuple[HorizonComponent, ...]]:
    """Effect of the second treatment at horizon ``ell`` (periods since adoption)."""
    _check_horizon(structure.l_nt, ell)
    # every horizon in 0..l_nt has a contrast
    estimates, components = _horizons(panel, structure.f2, structure.f1, panel.n_periods,
                                      False, panel.n, ell, labelled=True)
    return estimates[ell], components[ell]


def _did_ell_reducer(panel: PanelDataset, first: int, second: int, ell: int):
    """:func:`did_ell` as a function of per-group draw counts, a draw being the
    panel with cell sizes ``counts[g] * n``: None where the draw has no
    contrast at ``ell``, which is where ``ell`` exceeds its groups' ``l_nt``."""
    structure = build_cohorts(panel, first, second)
    _check_horizon(structure.l_nt, ell)

    def estimate(counts: np.ndarray) -> float | None:
        return _horizons(panel, structure.f2, structure.f1, panel.n_periods, False,
                         counts[:, None] * panel.n, ell)[0].get(ell)
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
    estimates, components = _horizons(panel, adopt, cohort, cap, False, panel.n, labelled=True)
    if not estimates:
        raise NoControls("no adoption date has a not-yet-treated comparison group")
    return DynamicEffectResult(
        estimates=estimates, components=components,
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


@dataclass(frozen=True)
class LinearTrendsResult:
    estimate: float
    contributions: tuple[tuple[object, float, float], ...]  # (group, value, weight)
    dropped: tuple[tuple[object, str], ...]

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "contributions": [
                {"g": g, "value": v, "weight": w} for g, v, w in self.contributions
            ],
            "dropped": [{"g": g, "reason": r} for g, r in self.dropped],
        }


def did_ell_linear_trends(panel: PanelDataset, structure: CohortStructure,
                          ell: int) -> LinearTrendsResult:
    """Second-treatment effect at horizon ``ell`` via per-group linear trends.

    For each adopting group, a linear trend is fit (size-weighted least
    squares) on its outcomes from first adoption F1 to F2 - 1, the period
    before second adoption, and extrapolated to the horizon date F2 + ell;
    the counterfactual needs no in-cohort control, at the cost of assuming
    the pre-adoption evolution really is linear. Groups with fewer than two
    fit points are dropped and reported. Negative horizons would put the
    target date inside the fit window and raise HorizonOutOfRange.
    """
    if _integer(ell, "horizon") < 0:
        raise HorizonOutOfRange(f"horizon {ell} is negative; linear trends "
                                f"estimate horizons 0 and up")
    f1, f2 = structure.f1, structure.f2
    reach = (f1 < f2) & (f2 + ell <= panel.n_periods)
    short = reach & (f2 - f1 < 2)
    dropped = tuple((panel.group_labels[g], "fewer_than_two_pre_periods")
                    for g in np.flatnonzero(short))
    fit = np.flatnonzero(reach & ~short)
    if not fit.size:
        raise InsufficientPrePeriods(
            f"no group has both a two-point pre-adoption window and an "
            f"observation at horizon {ell}",
            dropped=dropped,
        )
    # every group's fit at once: weights are the cell sizes inside its
    # window and 0 outside, and x and y are centred on the group's weighted
    # means, which keeps the extrapolation accurate when y is far from 0
    x = np.arange(1.0, panel.n_periods + 1)
    w = np.where((x >= f1[fit, None]) & (x < f2[fit, None]), panel.n[fit], 0.0)
    sw = w.sum(axis=1)
    y = panel.y[fit]
    rows, cols = np.arange(fit.size), f2[fit] + ell - 1  # cols: the date F2 + ell
    size = panel.n[fit, cols]
    total = size.sum()
    with np.errstate(all="ignore"):  # refused below
        xc = x - (w @ x / sw)[:, None]
        yc = y - ((w * y).sum(axis=1) / sw)[:, None]
        slope = (w * xc * yc).sum(axis=1) / (w * xc * xc).sum(axis=1)
        value = yc[rows, cols] - slope * xc[rows, cols]
        estimate = float(size @ value / total)
    if not math.isfinite(estimate):
        raise NonFiniteValue(f"the size-weighted linear-trend fit overflows at "
                             f"horizon {ell}")
    groups = [panel.group_labels[g] for g in fit]
    return LinearTrendsResult(
        estimate=estimate,
        contributions=tuple(zip(groups, value.tolist(), (size / total).tolist())),
        dropped=dropped)


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
