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
        return {
            "horizons": [
                {
                    "ell": ell,
                    "estimate": est,
                    "components": [
                        {
                            "f": c.cohort,
                            "t": c.period,
                            "did": c.value,
                            "n_treated": c.n_treated,
                            "n_control": c.n_control,
                            "weight": c.weight,
                        }
                        for c in self.components.get(ell, ())
                    ],
                }
                for ell, est in sorted(self.estimates.items())
            ],
            "placebos": [
                {"ell": ell, "estimate": est}
                for ell, est in sorted(self.placebos.items())
            ],
            "standard_errors": (
                None if self.standard_errors is None
                else [{"ell": ell, "se": se}
                      for ell, se in sorted(self.standard_errors.items())]
            ),
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
               cap: np.ndarray | int, ell: int, placebo: bool) -> list[tuple]:
    """Adopter-versus-not-yet contrasts at horizon ``ell``, as the module defines.

    Each arm is summed per (cohort, date) with ``np.bincount`` over groups in
    index order. Returns ``(cohort, date, value, n_treated, n_control)`` for
    the pairs where both arms are non-empty, in (cohort, date) order.
    """
    T = panel.n_periods
    t = np.arange(ell + 2 + placebo, T + 1)
    hi, lo = (t - ell - 2, t - ell - 3) if placebo else (t - 1, t - ell - 2)
    n_t = panel.n[:, t - 1]
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


def build_cohorts(panel: PanelDataset, first: int, second: int) -> CohortStructure:
    """Validate the consecutive staggered design and compute its cohort structure."""
    f1, f2 = _validate_consecutive(panel, first, second)
    cohorts = {int(f): tuple(np.flatnonzero(f1 == f).tolist()) for f in np.unique(f1)}
    nt: dict[int, int] = {}
    l_nt_f: dict[int, int] = {}
    for f in cohorts:
        later = np.unique(f2[(f1 == f) & (f2 > f)])
        if later.size >= 2:
            nt[f] = int(later[-1]) - 1
            l_nt_f[f] = nt[f] - int(later[0])
    if not nt:
        raise PathologicalDesign(
            "no cohort has two distinct second-treatment adoption dates after "
            "its first-treatment adoption date"
        )
    l_nt = max(l_nt_f.values())
    n_ell = {ell: _adopter_size(_contrasts(panel, f2, f1, panel.n_periods, ell,
                                           placebo=False))
             for ell in range(l_nt + 1)}
    return CohortStructure(first=first, second=second, f1=f1, f2=f2,
                           cohorts=cohorts, eligible=tuple(nt), nt=nt,
                           l_nt_f=l_nt_f, l_nt=l_nt, n_ell=n_ell)


def _check_horizon(structure: CohortStructure, ell: int) -> None:
    if not 0 <= ell <= structure.l_nt:
        raise HorizonOutOfRange(
            f"horizon {ell} outside the estimable range 0..{structure.l_nt}"
        )


def _weighted(panel: PanelDataset, raw: list[tuple],
              n_ell: float) -> tuple[float, tuple[HorizonComponent, ...]]:
    components = []
    estimate = 0.0
    for f, t, value, n_tr, n_co in raw:
        weight = n_tr / n_ell
        estimate += weight * value
        components.append(HorizonComponent(
            cohort=panel.period_labels[f - 1], period=panel.period_labels[t - 1],
            value=value, n_treated=n_tr, n_control=n_co, weight=weight,
        ))
    return float(estimate), tuple(components)


def _adopter_size(raw: list[tuple]) -> float:
    return sum(n_tr for _, _, _, n_tr, _ in raw)


def _placebo_mean(raw: list[tuple]) -> float:
    return float(sum(n_tr * value for _, _, value, n_tr, _ in raw)
                 / _adopter_size(raw))


def did_ell(panel: PanelDataset, structure: CohortStructure,
            ell: int) -> tuple[float, tuple[HorizonComponent, ...]]:
    """Effect of the second treatment at horizon ``ell`` (periods since adoption)."""
    _check_horizon(structure, ell)
    raw = _contrasts(panel, structure.f2, structure.f1, panel.n_periods, ell,
                     placebo=False)
    return _weighted(panel, raw, structure.n_ell[ell])


def placebo_ell(panel: PanelDataset, structure: CohortStructure, ell: int) -> float:
    """Pre-adoption analogue of :func:`did_ell`; expectation zero under the
    common-evolution assumption on the first treatment's effect."""
    _check_horizon(structure, ell)

    def raw(l):
        return _contrasts(panel, structure.f2, structure.f1, panel.n_periods, l,
                          placebo=True)

    pre = raw(ell)
    if not pre:
        raise InsufficientPrePeriods(
            f"no pre-adoption window for horizon {ell}",
            feasible_horizons=tuple(l for l in range(structure.l_nt + 1) if raw(l)),
        )
    return _placebo_mean(pre)


def _event_study(panel: PanelDataset, adopt: np.ndarray, cohort: np.ndarray | None,
                 cap: np.ndarray | int, placebos: bool) -> DynamicEffectResult:
    """Cohort event study: :func:`_contrasts` at every horizon that has one.

    ``cohort=None`` puts all groups in one cohort dated period 1, so any
    group adopting from period 2 on is an adopter; components are then
    labelled by adoption date instead of cohort date.
    """
    one_cohort = cohort is None
    if one_cohort:
        cohort = np.ones_like(adopt)
    estimates: dict[int, float] = {}
    components: dict[int, tuple[HorizonComponent, ...]] = {}
    placebo_map: dict[int, float] = {}
    for ell in range(panel.n_periods - 1):
        raw = _contrasts(panel, adopt, cohort, cap, ell, placebo=False)
        if not raw:
            continue
        if one_cohort:
            raw = [(t - ell, t, *rest) for _, t, *rest in raw]
        estimates[ell], components[ell] = _weighted(panel, raw, _adopter_size(raw))
        if placebos:
            pre = _contrasts(panel, adopt, cohort, cap, ell, placebo=True)
            if pre:
                placebo_map[ell] = _placebo_mean(pre)
    if not estimates:
        raise NoControls(
            "no adoption date has a not-yet-treated comparison group"
        )
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

    For each adopting group, a linear trend is fit (size-weighted) on its
    outcomes between first and second adoption and extrapolated to the
    horizon date; the counterfactual needs no in-cohort control, at the cost
    of assuming the pre-adoption evolution really is linear. Groups with
    fewer than two fit points are dropped and reported.
    """
    f1, f2 = structure.f1, structure.f2
    T = panel.n_periods
    contributions = []
    dropped = []
    for g in range(panel.n_groups):
        if not f1[g] < f2[g] <= T:
            continue
        t_target = int(f2[g]) + ell
        if t_target > T:
            continue
        lo, hi = int(f1[g]), int(f2[g]) - 1
        periods = np.arange(lo, hi + 1, dtype=float)
        if periods.size < 2:
            dropped.append((panel.group_labels[g], "fewer_than_two_pre_periods"))
            continue
        yv = panel.y[g, lo - 1:hi]
        wv = panel.n[g, lo - 1:hi]
        slope, intercept = np.polyfit(periods, yv, 1, w=np.sqrt(wv))
        predicted = intercept + slope * t_target
        contributions.append(
            (panel.group_labels[g],
             float(panel.y[g, t_target - 1] - predicted),
             float(panel.n[g, t_target - 1]))
        )
    if not contributions:
        raise InsufficientPrePeriods(
            f"no group has both a two-point pre-adoption window and an "
            f"observation at horizon {ell}",
            dropped=tuple(dropped),
        )
    total = sum(w for _, _, w in contributions)
    estimate = sum(w * v for _, v, w in contributions) / total
    out = tuple((g, v, w / total) for g, v, w in contributions)
    return LinearTrendsResult(estimate=float(estimate), contributions=out,
                              dropped=tuple(dropped))


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
