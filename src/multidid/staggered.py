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

A first-adoption cohort is eligible for the second-treatment study when its
groups have at least two distinct second-adoption dates strictly after the
cohort date, "never" counting as one; only eligible cohorts hold contrasts.

Also provided: a per-group linear-trend extrapolation fallback for the
second treatment, and the group partition by adoption order used to split
mixed-order applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    HorizonOutOfRange,
    InsufficientPrePeriods,
    NoControls,
    NotStaggered,
    PathologicalDesign,
    WrongOrder,
)
from .panel import PanelDataset


@dataclass(frozen=True)
class CohortStructure:
    """Adoption dates and cohort bookkeeping for the two staggered treatments.

    Dates are 1-based dense period indices, with T + 1 meaning "never".
    ``eligible`` lists the cohorts whose groups have at least two distinct
    second-adoption dates strictly after the cohort date, T + 1 counting as
    one; ``nt[f]`` is the last date at which some cohort-f group is still
    unadopted, ``l_nt_f[f] >= 0`` the largest horizon estimable inside
    cohort f, and ``n_ell[l]`` the total adopter size reaching horizon l
    with a valid in-cohort comparison.
    """

    first: int
    second: int
    f1: np.ndarray
    f2: np.ndarray
    cohorts: dict[int, tuple[int, ...]]
    eligible: tuple[int, ...]
    nt: dict[int, int]
    l_nt_f: dict[int, int]
    l_nt: int
    n_ell: dict[int, float]


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


def adoption_dates(panel: PanelDataset, k: int) -> np.ndarray:
    """First 1-based period with treatment ``k`` on per group, T + 1 if never.

    Raises NotStaggered if the treatment ever switches off.
    """
    d = panel.d[k]
    if np.any(d[:, 1:] < d[:, :-1]):
        gi, ti = np.argwhere(d[:, 1:] < d[:, :-1])[0]
        raise NotStaggered(
            f"treatment {k} switches off for group "
            f"{panel.group_labels[gi]!r} at period {panel.period_labels[ti + 1]!r}"
        )
    on = d > 0.5
    return np.where(on.any(axis=1), on.argmax(axis=1) + 1, panel.n_periods + 1)


def _binary_adoption_dates(panel: PanelDataset, first: int, second: int):
    panel.require_binary("staggered-design estimation")
    return adoption_dates(panel, first), adoption_dates(panel, second)


def _validate_consecutive(panel: PanelDataset, first: int, second: int):
    f1, f2 = _binary_adoption_dates(panel, first, second)
    bad = np.nonzero(f2 < f1)[0]
    if bad.size:
        raise WrongOrder(
            f"group {panel.group_labels[bad[0]]!r} adopts the second treatment "
            f"before the first"
        )
    return f1, f2


def _contrasts(panel: PanelDataset, adopt: np.ndarray, cohort: np.ndarray,
               cap: np.ndarray | int, ell: int, placebo: bool,
               n: np.ndarray | None = None) -> list[tuple]:
    """Adopter-versus-not-yet contrasts at horizon ``ell``, as the module defines.

    Each arm is summed per (cohort, date) with ``np.bincount`` over groups in
    index order, with cell sizes ``n`` (default: the panel's). Returns
    ``(cohort, date, value, n_treated, n_control)`` for the pairs where both
    arms have positive size, in (cohort, date) order.
    """
    T = panel.n_periods
    t = np.arange(ell + 2 + placebo, T + 1)
    hi, lo = (t - ell - 2, t - ell - 3) if placebo else (t - 1, t - ell - 2)
    n_t = (panel.n if n is None else n)[:, t - 1]
    dy = n_t * (panel.y[:, hi] - panel.y[:, lo])
    adopter = (adopt > cohort + placebo) & (adopt + ell <= cap)
    treated = adopter[:, None] & (adopt[:, None] == t - ell)
    keys = cohort[:, None] * (T + 1) + t
    size = (T + 2) * (T + 1)

    def arm(mask):
        return (np.bincount(keys[mask], n_t[mask], size),
                np.bincount(keys[mask], dy[mask], size))

    n_tr, s_tr = arm(treated)
    n_co, s_co = arm(adopt[:, None] > t)
    hit = np.flatnonzero((n_tr > 0) & (n_co > 0))
    value = s_tr[hit] / n_tr[hit] - s_co[hit] / n_co[hit]
    f, date = np.divmod(hit, T + 1)
    return list(zip(f.tolist(), date.tolist(), value.tolist(),
                    n_tr[hit].tolist(), n_co[hit].tolist()))


def _reach(f1: np.ndarray, f2: np.ndarray) -> tuple[dict[int, int], dict[int, int]]:
    """``nt`` and ``l_nt_f`` of :class:`CohortStructure` for the eligible
    cohorts; raises PathologicalDesign when there is none."""
    nt: dict[int, int] = {}
    l_nt_f: dict[int, int] = {}
    for f in np.unique(f1).tolist():
        later = np.unique(f2[(f1 == f) & (f2 > f)])
        if later.size >= 2:
            nt[f] = int(later[-1]) - 1
            l_nt_f[f] = nt[f] - int(later[0])
    if not nt:
        raise PathologicalDesign(
            "no cohort has two distinct second-treatment adoption dates after "
            "its first-treatment adoption date"
        )
    return nt, l_nt_f


def build_cohorts(panel: PanelDataset, first: int, second: int) -> CohortStructure:
    """Validate the consecutive staggered design and compute its cohort structure."""
    f1, f2 = _validate_consecutive(panel, first, second)
    cohorts = {int(f): tuple(np.flatnonzero(f1 == f).tolist()) for f in np.unique(f1)}
    nt, l_nt_f = _reach(f1, f2)
    l_nt = max(l_nt_f.values())
    n_ell = {ell: sum(n_tr for _, _, _, n_tr, _ in
                      _contrasts(panel, f2, f1, panel.n_periods, ell, placebo=False))
             for ell in range(l_nt + 1)}
    return CohortStructure(first=first, second=second, f1=f1, f2=f2,
                           cohorts=cohorts, eligible=tuple(nt), nt=nt,
                           l_nt_f=l_nt_f, l_nt=l_nt, n_ell=n_ell)


def _check_horizon(l_nt: int, ell: int) -> None:
    if not 0 <= ell <= l_nt:
        raise HorizonOutOfRange(f"horizon {ell} outside the estimable range 0..{l_nt}")


def _horizon(panel: PanelDataset, adopt: np.ndarray, cohort: np.ndarray | None,
             cap: np.ndarray | int, ell: int, placebo: bool,
             n: np.ndarray | None = None):
    """Horizon ``ell`` of a cohort event study, None where no contrast exists.

    Calls :func:`_contrasts` once, with cell sizes ``n`` (default: the
    panel's); returns the placebo mean if ``placebo``, else the estimate and
    its components, weighted by adopter size.
    ``cohort=None`` puts all groups in one cohort dated period 1, so any
    group adopting from period 2 on is an adopter; components are then
    labelled by adoption date instead of cohort date.
    """
    one_cohort = cohort is None
    raw = _contrasts(panel, adopt, np.ones_like(adopt) if one_cohort else cohort,
                     cap, ell, placebo, n)
    if not raw:
        return None
    n_ell = sum(n_tr for _, _, _, n_tr, _ in raw)
    if placebo:
        return float(sum(n_tr * value for _, _, value, n_tr, _ in raw) / n_ell)
    labels = panel.period_labels
    components = tuple(
        HorizonComponent(cohort=labels[(t - ell if one_cohort else f) - 1],
                         period=labels[t - 1], value=value, n_treated=n_tr,
                         n_control=n_co, weight=n_tr / n_ell)
        for f, t, value, n_tr, n_co in raw)
    estimate = 0.0
    for c in components:
        estimate += c.weight * c.value
    return float(estimate), components


def did_ell(panel: PanelDataset, structure: CohortStructure,
            ell: int) -> tuple[float, tuple[HorizonComponent, ...]]:
    """Effect of the second treatment at horizon ``ell`` (periods since adoption)."""
    _check_horizon(structure.l_nt, ell)
    # every horizon in 0..l_nt has a contrast, so this is never None
    return _horizon(panel, structure.f2, structure.f1, panel.n_periods, ell,
                    placebo=False)


def _did_ell_reducer(panel: PanelDataset, first: int, second: int, ell: int):
    """:func:`did_ell` as a function of per-group draw counts: a bootstrap
    draw is the panel with cell sizes ``counts[g] * n`` (None: one copy of
    each group), and only the drawn groups decide which cohorts are eligible."""
    f1, f2 = _validate_consecutive(panel, first, second)

    def estimate(counts: np.ndarray | None) -> float:
        drawn = slice(None) if counts is None else counts > 0
        _check_horizon(max(_reach(f1[drawn], f2[drawn])[1].values()), ell)
        n = None if counts is None else counts[:, None] * panel.n
        return _horizon(panel, f2, f1, panel.n_periods, ell, placebo=False, n=n)[0]
    return estimate


def placebo_ell(panel: PanelDataset, structure: CohortStructure, ell: int) -> float:
    """Pre-adoption analogue of :func:`did_ell`; expectation zero under the
    common-evolution assumption on the first treatment's effect."""
    _check_horizon(structure.l_nt, ell)

    def pre(l):
        return _horizon(panel, structure.f2, structure.f1, panel.n_periods, l,
                        placebo=True)

    if (value := pre(ell)) is None:
        raise InsufficientPrePeriods(
            f"no pre-adoption window for horizon {ell}",
            feasible_horizons=tuple(l for l in range(structure.l_nt + 1)
                                    if pre(l) is not None))
    return value


def _event_study(panel: PanelDataset, adopt: np.ndarray, cohort: np.ndarray | None,
                 cap: np.ndarray | int, placebos: bool) -> DynamicEffectResult:
    """Cohort event study: :func:`_horizon` at every horizon that has a contrast."""
    estimates: dict[int, float] = {}
    components: dict[int, tuple[HorizonComponent, ...]] = {}
    placebo_map: dict[int, float] = {}
    for ell in range(panel.n_periods - 1):
        effect = _horizon(panel, adopt, cohort, cap, ell, placebo=False)
        if effect is None:
            continue
        estimates[ell], components[ell] = effect
        pre = _horizon(panel, adopt, cohort, cap, ell, placebo=True) if placebos else None
        if pre is not None:
            placebo_map[ell] = pre
    if not estimates:
        raise NoControls("no adoption date has a not-yet-treated comparison group")
    return DynamicEffectResult(estimates=estimates, components=components,
                               placebos=placebo_map)


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
    f1, f2 = _validate_consecutive(panel, first, second)
    return _event_study(panel, f1, None, f2 - 1, placebos)


def combined_effects(panel: PanelDataset, first: int, second: int,
                     placebos: bool = True) -> DynamicEffectResult:
    """Event study of the bundled treatment (sum of the two indicators).

    Horizons count from the first adoption of anything; estimates mix the
    first treatment's effect with the arrival of the second, and the two
    cannot be separated for groups adopting both at once.
    """
    f1, f2 = _binary_adoption_dates(panel, first, second)
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
    if ell < 0:
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
    xc = x - (w @ x / sw)[:, None]
    yc = y - ((w * y).sum(axis=1) / sw)[:, None]
    slope = (w * xc * yc).sum(axis=1) / (w * xc * xc).sum(axis=1)
    rows, cols = np.arange(fit.size), f2[fit] + ell - 1  # cols: the date F2 + ell
    value = yc[rows, cols] - slope * xc[rows, cols]
    size = panel.n[fit, cols]
    total = size.sum()
    groups = [panel.group_labels[g] for g in fit]
    return LinearTrendsResult(
        estimate=float(size @ value / total),
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
    f1, f2 = _binary_adoption_dates(panel, first, second)

    def groups(mask):
        return tuple(g for g, keep in zip(panel.group_labels, mask) if keep)

    both = f1 == f2
    return OrderPartition(first_before_second=groups(f1 < f2),
                          second_before_first=groups(f2 < f1),
                          simultaneous=groups(both & (f1 <= panel.n_periods)),
                          never_treated=groups(both & (f1 > panel.n_periods)))
