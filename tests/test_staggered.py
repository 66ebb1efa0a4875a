import itertools
import re

import numpy as np
import pytest

import multidid as m
from multidid import staggered
from multidid.errors import (
    HorizonOutOfRange,
    InsufficientPrePeriods,
    NoControls,
    NonFiniteValue,
    NotStaggered,
    PathologicalDesign,
    WrongOrder,
)
from multidid.staggered import adoption_dates

from .conftest import overflowing_staggered_panel, random_staggered_spec
from .examples import three_cohort_example
from .oracles import brute_force_event_study


def test_cohort_structure_fixture(abc_staggered):
    panel = abc_staggered.panel
    st = m.build_cohorts(panel, 0, 1)
    assert st.l_nt == 1
    assert list(st.f1) == [2, 2, 2]
    assert list(st.f2) == [3, 5, 4]
    # cohort 2 holds every contrast, the last at date 4, the last date with
    # an unadopted group; adopter sizes are 2 at horizon 0 and 1 at horizon 1
    for ell, dates, size in [(0, [3, 4], 2.0), (1, [4], 1.0)]:
        comps = m.did_ell(panel, st, ell)[1]
        assert [(c.cohort, c.period) for c in comps] == [(2, t) for t in dates]
        assert sum(c.n_treated for c in comps) == size


def test_cohort_structures_compare_by_their_dates(abc_staggered):
    """Two builds on one panel are equal, a linear-trend fit kept in one of
    them included; moving one adoption date makes them unequal. A structure
    holds arrays and is unhashable."""
    panel = abc_staggered.panel
    built = m.build_cohorts(panel, 0, 1)
    m.did_ell_linear_trends(panel, built, 0)
    assert built == m.build_cohorts(panel, 0, 1) and not built != m.build_cohorts(panel, 0, 1)
    d = panel.d.copy()
    d[1, 2, 3] = 0.0  # group c adopts the second treatment never, not at 4
    moved = m.PanelDataset(panel.group_labels, panel.period_labels, panel.y, panel.n, d)
    assert m.build_cohorts(moved, 0, 1) != built
    assert built != (built.f1, built.f2, built.l_nt)
    with pytest.raises(TypeError, match="unhashable"):
        hash(built)
    spec = m.DgpSpec(kind="consecutive-staggered", n_groups=600, n_periods=20, seed=1)
    large = m.generate(spec).panel
    assert m.build_cohorts(large, 0, 1) == m.build_cohorts(large, 0, 1)


def test_same_second_date_pathological():
    # the second design has a simultaneous adopter plus one later date, so
    # only one second-adoption date falls after the cohort's
    for n_periods, f1, f2 in [(4, (2, 2, 2), (3, 3, 3)), (5, (3, 3, 6), (3, 5, 6))]:
        spec = m.DgpSpec(kind="consecutive-staggered", n_groups=3,
                         n_periods=n_periods, seed=0, f1=f1, f2=f2)
        with pytest.raises(PathologicalDesign):
            m.build_cohorts(m.generate(spec).panel, 0, 1)


def test_first_and_second_must_differ(abc_staggered):
    """One column as both treatments is refused as an argument error, not
    reported as a design violation."""
    panel = abc_staggered.panel
    for call in (m.build_cohorts, m.second_treatment_effects, m.first_treatment_effects,
                 m.combined_effects, m.split_by_order):
        with pytest.raises(ValueError, match="^the first and second treatments are both d2$"):
            call(panel, 1, 1)
    with pytest.raises(ValueError, match="both d1$"):
        m.bootstrap_se(panel, "did_ell", 4, 0, first=0, second=0)


def test_treatment_index_must_exist(abc_staggered):
    """An index past the treatments (or negative) is refused, as first_stage
    refuses one; before, a one-treatment panel ended in an IndexError and -1
    silently read the last treatment."""
    panel = abc_staggered.panel
    one = m.PanelDataset(panel.group_labels, panel.period_labels, panel.y, panel.n,
                         panel.d[:1])
    for k in (2, -1):
        with pytest.raises(ValueError, match=f"^treatment must be in 0..1, got {k}$"):
            adoption_dates(panel, k)
    for call in (lambda: m.build_cohorts(panel, 0, 2), lambda: m.build_cohorts(panel, -1, 0),
                 lambda: m.build_cohorts(one, 0, 1),
                 lambda: m.bootstrap_se(one, "did_ell", 4, 0)):
        with pytest.raises(ValueError, match="^treatment must be in 0"):
            call()


def test_second_before_first_wrong_order():
    d = np.zeros((2, 3, 4))
    d[0, 0, 2:] = 1.0
    d[1, 0, 1:] = 1.0  # second arrives before first
    d[0, 1, 1:] = 1.0
    panel = m.PanelDataset(range(3), range(4), np.zeros((3, 4)),
                           np.ones((3, 4)), d)
    for call in (m.build_cohorts, m.second_treatment_effects, m.first_treatment_effects):
        with pytest.raises(WrongOrder, match="^group 0 adopts the second treatment "
                                             "before the first$"):
            call(panel, 0, 1)


def test_switching_off_not_staggered():
    d = np.zeros((2, 3, 4))
    d[0, 0, 1] = 1.0  # on then off
    panel = m.PanelDataset(range(3), range(4), np.zeros((3, 4)),
                           np.ones((3, 4)), d, treatment_names=("law", "tax"))
    with pytest.raises(NotStaggered, match="^treatment law switches off for group 0 "
                                           "at period 2$"):
        m.build_cohorts(panel, 0, 1)


def test_did_ell_fixture_values(abc_staggered):
    panel = abc_staggered.panel
    st = m.build_cohorts(panel, 0, 1)
    est0, comp0 = m.did_ell(panel, st, 0)
    est1, comp1 = m.did_ell(panel, st, 1)
    assert est0 == pytest.approx(8.5, abs=1e-12)
    assert est1 == pytest.approx(12.0, abs=1e-12)
    assert [c.value for c in comp0] == [pytest.approx(10.0), pytest.approx(7.0)]
    assert sum(c.weight for c in comp0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(HorizonOutOfRange):
        m.did_ell(panel, st, 2)
    # a horizon that is not an int or a numpy integer, a bool included, is
    # refused before it indexes anything; 0.5 and 1.0 were raw IndexErrors
    for ell in (0.5, 1.0, True, np.float64(0.0)):
        for call in (lambda: m.did_ell(panel, st, ell), lambda: m.placebo_ell(panel, st, ell),
                     lambda: m.did_ell_linear_trends(panel, st, ell),
                     lambda: m.bootstrap_se(panel, "did_ell", 4, 0, ell=ell)):
            message = f"horizon must be an integer, got {ell!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
    assert m.did_ell(panel, st, np.int64(1))[0] == est1


def test_oracle_identity_random_noiseless():
    rng = np.random.default_rng(202)
    for _ in range(20):
        spec = random_staggered_spec(rng)
        synthetic = m.generate(spec)
        st = m.build_cohorts(synthetic.panel, 0, 1)
        for ell in range(st.l_nt + 1):
            est, _ = m.did_ell(synthetic.panel, st, ell)
            assert est == pytest.approx(
                m.delta_ell_oracle(synthetic, st, ell), abs=1e-10)


def test_placebos_zero_under_common_evolution():
    rng = np.random.default_rng(203)
    seen = 0
    while seen < 15:
        spec = random_staggered_spec(rng)
        synthetic = m.generate(spec)
        st = m.build_cohorts(synthetic.panel, 0, 1)
        for ell in range(st.l_nt + 1):
            try:
                value = m.placebo_ell(synthetic.panel, st, ell)
            except InsufficientPrePeriods:
                continue
            seen += 1
            assert value == pytest.approx(0.0, abs=1e-10)


def test_placebo_nonzero_when_evolution_differs():
    # same adoption pattern as the reference fixture, but group-specific
    # growth of the first treatment's effect
    spec = m.DgpSpec(kind="consecutive-staggered", n_groups=3, n_periods=4,
                     seed=7, group_sd=0.0, f1=(2, 2, 2), f2=(3, 5, 4),
                     first_level=(1.0, 2.0, 0.0), first_growth=0.5,
                     break_common_evolution=3.0,
                     second_effects=((10.0, 12.0), (0.0,), (7.0,)))
    synthetic = m.generate(spec)
    st = m.build_cohorts(synthetic.panel, 0, 1)
    assert abs(m.placebo_ell(synthetic.panel, st, 0)) > 0.1


def test_placebo_detects_specific_growth_gap():
    # effect of the first treatment grows +0.5 per period in groups A and C
    # but +1.0 in group B: the adopter/not-yet contrast picks up the gap
    T = 4
    periods = np.arange(1.0, T + 1)
    growth = {"A": 0.5, "B": 1.0, "C": 0.5}
    level = {"A": 1.0, "B": 2.0, "C": 0.0}
    f2 = {"A": 3, "B": 5, "C": 4}
    y = np.zeros((3, T))
    d = np.zeros((2, 3, T))
    for gi, g in enumerate(("A", "B", "C")):
        for ti, t in enumerate(periods):
            y[gi, ti] = t
            if t >= 2:
                d[0, gi, ti] = 1.0
                y[gi, ti] += level[g] + growth[g] * (t - 2)
            if t >= f2[g]:
                d[1, gi, ti] = 1.0
                y[gi, ti] += 10.0
    panel = m.PanelDataset(("A", "B", "C"), range(1, T + 1), y,
                           np.ones((3, T)), d)
    st = m.build_cohorts(panel, 0, 1)
    assert abs(m.placebo_ell(panel, st, 0)) > 0.1


def test_placebo_insufficient_pre_periods(abc_staggered):
    panel = abc_staggered.panel
    st = m.build_cohorts(panel, 0, 1)
    assert m.placebo_ell(panel, st, 0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InsufficientPrePeriods) as err:
        m.placebo_ell(panel, st, 1)
    assert err.value.feasible_horizons == (0,)


def test_first_treatment_effects_fixture():
    synthetic = three_cohort_example(extra_never_treated=True)
    result = m.first_treatment_effects(synthetic.panel, 0, 1)
    assert result.estimates[0] == pytest.approx(1.0, abs=1e-12)
    assert result.estimates[1] == pytest.approx(1.5, abs=1e-12)
    assert result.estimates[2] == pytest.approx(3.0, abs=1e-12)
    for ell, comps in result.components.items():
        assert sum(c.weight for c in comps) == pytest.approx(1.0, abs=1e-15)


def test_first_treatment_effects_no_controls(abc_staggered):
    with pytest.raises(NoControls):
        m.first_treatment_effects(abc_staggered.panel, 0, 1)


def test_first_treatment_effects_null():
    spec = m.DgpSpec(kind="consecutive-staggered", n_groups=4, n_periods=5,
                     seed=3, f1=(2, 2, 3, 6), f2=(4, 6, 5, 6),
                     first_level=(0.0, 0.0, 0.0, 0.0), first_growth=0.0,
                     second_effects=((0.0,), (0.0,), (0.0,), (0.0,)))
    synthetic = m.generate(spec)
    result = m.first_treatment_effects(synthetic.panel, 0, 1)
    for ell, est in result.estimates.items():
        assert est == pytest.approx(0.0, abs=1e-10)
    for ell, pl in result.placebos.items():
        assert pl == pytest.approx(0.0, abs=1e-10)


def test_combined_matches_first_when_second_absent():
    spec = m.DgpSpec(kind="consecutive-staggered", n_groups=4, n_periods=5,
                     seed=11, f1=(2, 3, 4, 6), f2=(6, 6, 6, 6),
                     first_level=(1.0, -0.5, 2.0, 0.0), first_growth=0.3,
                     second_effects=((0.0,), (0.0,), (0.0,), (0.0,)))
    synthetic = m.generate(spec)
    first = m.first_treatment_effects(synthetic.panel, 0, 1)
    combined = m.combined_effects(synthetic.panel, 0, 1)
    assert first.estimates.keys() == combined.estimates.keys()
    for ell in first.estimates:
        assert combined.estimates[ell] == pytest.approx(first.estimates[ell],
                                                        abs=1e-12)


def test_combined_on_fixture_matches_first_at_zero():
    synthetic = three_cohort_example(extra_never_treated=True)
    first = m.first_treatment_effects(synthetic.panel, 0, 1)
    combined = m.combined_effects(synthetic.panel, 0, 1)
    assert combined.estimates[0] == pytest.approx(first.estimates[0], abs=1e-12)


def test_combined_simultaneous_adoption_bundle():
    spec = m.DgpSpec(kind="consecutive-staggered", n_groups=3, n_periods=4,
                     seed=5, f1=(2, 3, 5), f2=(2, 3, 5),
                     first_level=(1.0, 1.0, 0.0), first_growth=0.0,
                     second_effects=((2.0, 2.0), (2.0, 2.0), (0.0,)))
    synthetic = m.generate(spec)
    combined = m.combined_effects(synthetic.panel, 0, 1)
    # bundled effect = first level + instantaneous second effect
    assert combined.estimates[0] == pytest.approx(3.0, abs=1e-12)


def test_linear_trends_fixture():
    # pre-adoption outcomes 3, 3.5, 4 at periods 2..4, adoption at 5 with 14.5
    y = np.array([
        [2.5, 3.0, 3.5, 4.0, 14.5],
        [1.0, 1.5, 2.0, 2.5, 3.0],
    ])
    d = np.zeros((2, 2, 5))
    d[0, 0, 1:] = 1.0
    d[0, 1, 1:] = 1.0
    d[1, 0, 4] = 1.0
    panel = m.PanelDataset(range(1, 3), range(1, 6), y, np.ones((2, 5)), d)
    st = m.build_cohorts(panel, 0, 1)
    result = m.did_ell_linear_trends(panel, st, 0)
    assert result.estimate == pytest.approx(10.0, abs=1e-10)
    ((group, value, weight),) = result.contributions
    assert group == 1 and value == pytest.approx(10.0, abs=1e-10)


def test_linear_trends_biased_under_curvature():
    # quadratic baseline: linear extrapolation misses the true null effect
    t = np.arange(1.0, 6.0)
    y = np.vstack([t ** 2, t ** 2])
    d = np.zeros((2, 2, 5))
    d[0, :, 1:] = 1.0
    d[1, 0, 4] = 1.0
    panel = m.PanelDataset(range(2), range(5), y, np.ones((2, 5)), d)
    st = m.build_cohorts(panel, 0, 1)
    result = m.did_ell_linear_trends(panel, st, 0)
    assert abs(result.estimate) > 0.5


def test_linear_trends_single_pre_period_dropped():
    y = np.zeros((2, 4))
    d = np.zeros((2, 2, 4))
    d[0, :, 1:] = 1.0
    d[1, 0, 2:] = 1.0  # first at 2, second at 3: one pre-period only
    panel = m.PanelDataset(range(2), range(4), y, np.ones((2, 4)), d)
    st = m.build_cohorts(panel, 0, 1)
    with pytest.raises(InsufficientPrePeriods) as err:
        m.did_ell_linear_trends(panel, st, 0)
    assert err.value.dropped == ((0, "fewer_than_two_pre_periods"),)


def test_linear_trends_refuse_negative_horizons():
    # ell < 0 would put the target date F2 + ell inside the fit window F1..F2 - 1
    synthetic = m.generate(m.DgpSpec(kind="consecutive-staggered", n_groups=60,
                                     n_periods=8, seed=1, cell_sizes="random"))
    st = m.build_cohorts(synthetic.panel, 0, 1)
    for ell in (-1, -3):
        with pytest.raises(HorizonOutOfRange, match=f"horizon {ell} is negative"):
            m.did_ell_linear_trends(synthetic.panel, st, ell)
    assert len(m.did_ell_linear_trends(synthetic.panel, st, 0).contributions) == 29


def test_linear_trends_past_the_in_cohort_range():
    # F1 = 2 for both groups, F2 = 4 and 5, so l_nt = 0; linear trends need
    # no in-cohort control and still reach horizon 2 of group 0
    t = np.arange(1.0, 7.0)
    y = np.vstack([t + 5.0 * (t >= 4), t])
    d = np.zeros((2, 2, 6))
    d[0, :, 1:] = 1.0
    d[1, 0, 3:] = 1.0
    d[1, 1, 4:] = 1.0
    panel = m.PanelDataset(range(2), range(1, 7), y, np.ones((2, 6)), d)
    st = m.build_cohorts(panel, 0, 1)
    assert st.l_nt == 0
    result = m.did_ell_linear_trends(panel, st, 2)
    assert result.estimate == pytest.approx(5.0, abs=1e-12)
    assert [g for g, _, _ in result.contributions] == [0]


def test_split_by_order_partition():
    # (F1, F2) = (2, 3), (3, 2), (2, 2), (5, 5) over T = 4
    d = np.zeros((2, 4, 4))
    d[0, 0, 1:] = 1.0
    d[1, 0, 2:] = 1.0
    d[0, 1, 2:] = 1.0
    d[1, 1, 1:] = 1.0
    d[0, 2, 1:] = 1.0
    d[1, 2, 1:] = 1.0
    panel = m.PanelDataset(["a", "b", "c", "e"], range(4), np.zeros((4, 4)),
                           np.ones((4, 4)), d)
    part = m.split_by_order(panel, 0, 1)
    assert part.first_before_second == ("a",)
    assert part.second_before_first == ("b",)
    assert part.simultaneous == ("c",)
    assert part.never_treated == ("e",)
    assert part.first_subsample == ("a", "e")
    assert set(part.simultaneous_subsample) == {"c", "e"}


def test_unordered_callers_accept_either_order():
    """combined_effects and split_by_order take the treatments in either
    order: with the two columns swapped, groups that adopted the first
    treatment first adopt the second first, and both calls give the mirror of
    their result on the ordered panel."""
    rng = np.random.default_rng(207)
    reversed_groups = 0
    for _ in range(10):
        panel, f1, f2 = _random_staggered_panel(rng)
        swapped = m.PanelDataset(panel.group_labels, panel.period_labels, panel.y, panel.n,
                                 panel.d[::-1])
        reversed_groups += int(np.sum(f1 < f2))
        part, mirror = m.split_by_order(panel, 0, 1), m.split_by_order(swapped, 0, 1)
        assert (mirror.first_before_second, mirror.second_before_first,
                mirror.simultaneous, mirror.never_treated) == (
            part.second_before_first, part.first_before_second,
            part.simultaneous, part.never_treated)
        try:
            expected = m.combined_effects(panel, 0, 1)
        except NoControls:
            with pytest.raises(NoControls):
                m.combined_effects(swapped, 0, 1)
            continue
        assert m.combined_effects(swapped, 0, 1) == expected
    assert reversed_groups


def test_split_all_first_before_second(abc_staggered):
    part = m.split_by_order(abc_staggered.panel, 0, 1)
    assert len(part.first_before_second) == 3
    assert part.second_before_first == ()
    assert part.simultaneous == ()


def test_weight_closure_counts_exact():
    rng = np.random.default_rng(204)
    for _ in range(10):
        spec = random_staggered_spec(rng)
        synthetic = m.generate(spec)
        st = m.build_cohorts(synthetic.panel, 0, 1)
        _, oracle, _ = brute_force_event_study(
            synthetic.panel, st.f2, st.f1, np.full_like(st.f2, spec.n_periods))
        for ell in range(st.l_nt + 1):
            _, comps = m.did_ell(synthetic.panel, st, ell)
            n_ell = sum(c.n_treated for c in comps)
            assert n_ell > 0
            assert [(c.n_treated, c.weight) for c in comps] == [
                (n_tr, w) for _, _, _, n_tr, _, w in oracle[ell]]


def test_structural_control_validity():
    rng = np.random.default_rng(205)
    for _ in range(10):
        spec = random_staggered_spec(rng)
        synthetic = m.generate(spec)
        panel = synthetic.panel
        st = m.build_cohorts(panel, 0, 1)
        for ell in range(st.l_nt + 1):
            for c in m.did_ell(panel, st, ell)[1]:
                f = panel.period_index(c.cohort) + 1
                t = panel.period_index(c.period) + 1
                # never compares across cohorts, never uses an adopted
                # control: both arms are the cohort-f groups alone
                adopters = np.flatnonzero((st.f1 == f) & (st.f2 == t - ell))
                controls = np.flatnonzero((st.f1 == f) & (st.f2 > t))
                assert c.n_treated == sum(panel.n[g, t - 1] for g in adopters)
                assert c.n_control == sum(panel.n[g, t - 1] for g in controls)


def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_horizon_totals_run_left_to_right():
    """Adopter sizes 1e16, 1, 1 total 1e16 left to right, but 1e16 + 2 right
    to left or compensated, as the built-in ``sum`` of floats is from Python
    3.12 on. Weights, estimate and placebo follow the left-to-right total on
    every Python version."""
    G, T = 4, 5
    periods = np.arange(1, T + 1)
    f2 = np.array([3, 4, 5, T + 1])  # the first treatment is on throughout
    d = np.stack([np.ones((G, T)), periods >= f2[:, None]]).astype(float)
    n = np.ones((G, T))
    n[0, 2] = 1e16  # the first adopter's size at its adoption date
    y = np.array([[0.0, 0.25, 3.0, 4.0, 6.0], [0.5, 0.0, 1.0, 5.0, 2.0],
                  [1.0, 2.0, 2.5, 2.0, 7.0], [0.0, 0.5, 1.0, 1.5, 2.25]])
    panel = m.PanelDataset(range(G), periods, y, n, d)
    structure = m.build_cohorts(panel, 0, 1)
    estimate, components = m.did_ell(panel, structure, 0)
    sizes = [c.n_treated for c in components]
    assert sizes == [1e16, 1.0, 1.0]
    total = _left_to_right(sizes)
    assert total == 1e16 != _left_to_right(sizes[::-1])
    assert [c.weight for c in components] == [s / total for s in sizes]
    assert estimate == _left_to_right(c.weight * c.value for c in components)
    # the placebo's adopters are the same cells, with the oracle's values
    placebos = brute_force_event_study(panel, f2, np.ones(G, int), np.full(G, T))[2]
    assert m.placebo_ell(panel, structure, 0) == placebos[0]


def test_overflowing_contrasts_are_refused():
    panel = overflowing_staggered_panel()
    structure = m.build_cohorts(panel, 0, 1)  # dates alone: nothing overflows
    assert structure.l_nt == 1
    for call, what in [(lambda: m.did_ell(panel, structure, 0), "estimate"),
                       (lambda: m.placebo_ell(panel, structure, 0), "placebo"),
                       (lambda: m.second_treatment_effects(panel, 0, 1), "estimate")]:
        with pytest.raises(NonFiniteValue, match=rf"^n \* \(y - earlier y\) overflows "
                                                 rf"in the {what} at horizon 0$"):
            call()


@pytest.mark.parametrize("extra_never_treated", [False, True])
def test_overflowing_draws_raise_what_the_event_study_raises(extra_never_treated):
    """At every draw of up to two copies per group, the did_ell bootstrap's
    table and the event-study kernel at sizes counts * n give the same
    estimate, or the same None, or the same NonFiniteValue text."""
    panel = overflowing_staggered_panel(extra_never_treated)
    structure = m.build_cohorts(panel, 0, 1)

    def outcome(call):
        try:
            return call()
        except NonFiniteValue as err:
            return str(err)
    raised = 0
    for ell in range(structure.l_nt + 1):
        reducer = staggered._did_ell_reducer(panel, 0, 1, ell)
        for copies in itertools.product(range(3), repeat=panel.n_groups):
            counts = np.array(copies, dtype=float)
            table = outcome(lambda: staggered._horizons(
                panel, structure.f2, structure.f1, panel.n_periods, False,
                counts[:, None] * panel.n, ell)[0].get(ell))
            assert outcome(lambda: reducer(counts)) == table
            raised += table == (f"n * (y - earlier y) overflows in the estimate at "
                                f"horizon {ell}")
    assert raised > 0


def test_overflowing_linear_trends_are_refused():
    panel = overflowing_staggered_panel()
    structure = m.build_cohorts(panel, 0, 1)
    with pytest.raises(NonFiniteValue, match=r"^the size-weighted linear-trend fit "
                                             r"overflows at horizon 0$"):
        m.did_ell_linear_trends(panel, structure, 0)


def test_second_treatment_effects_wrapper(abc_staggered):
    result = m.second_treatment_effects(abc_staggered.panel, 0, 1)
    assert result.estimates == {0: pytest.approx(8.5), 1: pytest.approx(12.0)}
    assert result.placebos == {0: pytest.approx(0.0, abs=1e-12)}
    payload = result.to_dict()
    assert payload["horizons"][0]["ell"] == 0
    assert payload["horizons"][0]["components"][0]["f"] == 2


def _random_staggered_panel(rng):
    """Consecutive staggered design with non-integer sizes, never-treated
    groups and simultaneous adopters of both treatments."""
    G, T = int(rng.integers(4, 13)), int(rng.integers(3, 9))
    f1 = rng.choice(rng.integers(1, T + 2, size=3), size=G)
    f1[rng.random(G) < 0.2] = T + 1
    f2 = np.array([T + 1 if f > T or rng.random() < 0.2
                   else f if rng.random() < 0.2
                   else int(rng.integers(f, T + 2)) for f in f1])
    periods = np.arange(1, T + 1)
    d = np.stack([periods >= f1[:, None], periods >= f2[:, None]]).astype(float)
    panel = m.PanelDataset(range(G), [1990 + 3 * t for t in periods],
                           rng.standard_normal((G, T)),
                           rng.uniform(0.5, 3.0, size=(G, T)), d)
    return panel, f1, f2


def test_event_studies_match_brute_force_oracle():
    rng = np.random.default_rng(206)
    estimated = 0
    for _ in range(30):
        panel, f1, f2 = _random_staggered_panel(rng)
        T = panel.n_periods
        one, never = np.ones_like(f1), np.full_like(f1, T)
        for estimator, adopt, cohort, cap in (
                (m.second_treatment_effects, f2, f1, never),
                (m.first_treatment_effects, f1, one, f2 - 1),
                (m.combined_effects, np.minimum(f1, f2), one, never)):
            estimates, components, placebos = brute_force_event_study(
                panel, adopt, cohort, cap)
            try:
                result = estimator(panel, 0, 1)
            except (PathologicalDesign, NoControls):
                assert not estimates
                continue
            estimated += 1
            assert result.estimates.keys() == estimates.keys()
            assert result.placebos.keys() == placebos.keys()
            for ell, pl in placebos.items():
                assert result.placebos[ell] == pytest.approx(pl, abs=1e-12)
            for ell, est in estimates.items():
                assert result.estimates[ell] == pytest.approx(est, abs=1e-12)
                assert len(result.components[ell]) == len(components[ell])
                for got, (c, t, value, n_tr, n_co, weight) in zip(
                        result.components[ell], components[ell]):
                    # one-cohort studies label components by adoption date
                    label = c if estimator is m.second_treatment_effects else t - ell
                    assert got.cohort == panel.period_labels[label - 1]
                    assert got.period == panel.period_labels[t - 1]
                    assert got.value == pytest.approx(value, abs=1e-12)
                    assert got.n_treated == pytest.approx(n_tr, abs=1e-12)
                    assert got.n_control == pytest.approx(n_co, abs=1e-12)
                    assert got.weight == pytest.approx(weight, abs=1e-12)
            if estimator is m.second_treatment_effects:
                st = m.build_cohorts(panel, 0, 1)
                for ell, est in estimates.items():
                    assert m.did_ell(panel, st, ell)[0] == pytest.approx(est, abs=1e-12)
                    if ell in placebos:
                        assert m.placebo_ell(panel, st, ell) == pytest.approx(
                            placebos[ell], abs=1e-12)
                    else:
                        with pytest.raises(InsufficientPrePeriods):
                            m.placebo_ell(panel, st, ell)
    assert estimated >= 45
