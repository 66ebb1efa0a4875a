import numpy as np
import pytest

import multidid as m
from multidid.errors import (
    HorizonOutOfRange,
    InsufficientPrePeriods,
    NoControls,
    NotStaggered,
    PathologicalDesign,
    WrongOrder,
)

from .conftest import random_staggered_spec
from .oracles import brute_force_event_study


def test_cohort_structure_fixture(abc_staggered):
    st = m.build_cohorts(abc_staggered.panel, 0, 1)
    assert st.eligible == (2,)
    assert st.nt == {2: 4}
    assert st.l_nt_f == {2: 1}
    assert st.l_nt == 1
    assert st.n_ell == {0: 2.0, 1: 1.0}
    assert st.cohorts[2] == (0, 1, 2)
    assert list(st.f1) == [2, 2, 2]
    assert list(st.f2) == [3, 5, 4]


def test_same_second_date_pathological():
    # the second design has a simultaneous adopter plus one later date, so
    # only one second-adoption date falls after the cohort's
    for n_periods, f1, f2 in [(4, (2, 2, 2), (3, 3, 3)), (5, (3, 3, 6), (3, 5, 6))]:
        spec = m.DgpSpec(kind="consecutive-staggered", n_groups=3,
                         n_periods=n_periods, seed=0, f1=f1, f2=f2)
        with pytest.raises(PathologicalDesign):
            m.build_cohorts(m.generate(spec).panel, 0, 1)


def test_second_before_first_wrong_order():
    d = np.zeros((2, 3, 4))
    d[0, 0, 2:] = 1.0
    d[1, 0, 1:] = 1.0  # second arrives before first
    d[0, 1, 1:] = 1.0
    panel = m.PanelDataset(range(3), range(4), np.zeros((3, 4)),
                           np.ones((3, 4)), d)
    with pytest.raises(WrongOrder):
        m.build_cohorts(panel, 0, 1)


def test_switching_off_not_staggered():
    d = np.zeros((2, 3, 4))
    d[0, 0, 1] = 1.0  # on then off
    panel = m.PanelDataset(range(3), range(4), np.zeros((3, 4)),
                           np.ones((3, 4)), d)
    with pytest.raises(NotStaggered):
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
    synthetic = m.three_cohort_example(extra_never_treated=True)
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
    synthetic = m.three_cohort_example(extra_never_treated=True)
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
        for ell in range(st.l_nt + 1):
            _, comps = m.did_ell(synthetic.panel, st, ell)
            assert float(sum(c.n_treated for c in comps)) == st.n_ell[ell]
            assert st.n_ell[ell] > 0


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
                adopters = [g for g in st.cohorts[f] if st.f2[g] == t - ell]
                controls = [g for g in st.cohorts[f] if st.f2[g] > t]
                # never compares across cohorts, never uses an adopted control
                for g in adopters + controls:
                    assert st.f1[g] == f
                for g in controls:
                    assert st.f2[g] > t


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
