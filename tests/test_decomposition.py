import numpy as np
import pytest

import multidid as m
from multidid.errors import CollinearTreatments, DegenerateDenominator, NonBinaryTreatment

from .conftest import degenerate_denominator_panel, make_random_panel
from .oracles import dense_dummy_fit


def test_first_stage_residuals_four_group(four_group):
    stage = m.first_stage(four_group.panel, 0)
    expected = 0.25 * np.array([[1, -1], [-1, 1], [1, -1], [-1, 1]], dtype=float)
    assert np.allclose(stage.residuals, expected, atol=1e-12)
    assert stage.coef_other[1] == pytest.approx(0.0, abs=1e-12)


def test_four_group_weights_and_coefficient(four_group):
    decomp = m.decompose(four_group.panel, 0)
    assert decomp.beta_fe == pytest.approx(1.5, abs=1e-10)
    assert decomp.own == pytest.approx({(2, 2): 0.5, (4, 2): 0.5}, abs=1e-10)
    assert decomp.contamination == pytest.approx({(3, 2): -0.5, (4, 2): 0.5},
                                                 abs=1e-10)
    assert sum(decomp.own.values()) == pytest.approx(1.0, abs=1e-12)
    assert sum(decomp.contamination.values()) == pytest.approx(0.0, abs=1e-12)


def test_standard_did_closed_form_unit_sizes():
    spec = m.DgpSpec(kind="standard-did", n_groups=3, n_periods=3,
                     thresholds=(2, 2, 3, 3), seed=1, group_sd=0.0)
    synthetic = m.generate(spec)
    stage = m.first_stage(synthetic.panel, 0)
    eps_cf, zeta_cf = m.standard_did_residual_closed_form(
        synthetic.panel.n, 2, 2, 3, 3)
    assert zeta_cf == pytest.approx(0.25, abs=1e-14)
    assert stage.coef_other[1] == pytest.approx(0.25, abs=1e-12)
    assert stage.residuals[1, 1] == pytest.approx(1 / 12, abs=1e-12)
    assert np.allclose(stage.residuals, eps_cf, atol=1e-12)


def test_standard_did_product_sizes_negative_rectangle():
    # more weight on second-treated cells than on the control block, so the
    # within-rectangle weights must turn strictly negative
    n = np.outer([1.0, 1.0, 8.0], [1.0, 1.0, 8.0])
    d = np.zeros((2, 3, 3))
    for g in range(3):
        for t in range(3):
            d[0, g, t] = float(g + 1 >= 2 and t + 1 >= 2)
            d[1, g, t] = float(g + 1 >= 3 and t + 1 >= 3)
    panel = m.PanelDataset(range(1, 4), range(1, 4), np.zeros((3, 3)), n, d)
    stage = m.first_stage(panel, 0)
    eps_cf, _ = m.standard_did_residual_closed_form(n, 2, 2, 3, 3)
    assert np.allclose(stage.residuals, eps_cf, atol=1e-10)

    assert np.sum(n * d[1]) > np.sum(n[:2, :2])  # sanity: condition holds
    decomp = m.decompose(panel, 0)
    for cell, w in decomp.contamination.items():
        assert abs(w) <= 1e-10
    assert decomp.own[(2, 2)] < 0
    for cell, w in decomp.own.items():
        if cell != (2, 2):
            assert w >= -1e-10


def test_constant_effects_recovered_exactly():
    spec = m.DgpSpec(kind="random-binary", n_groups=8, n_periods=5,
                     n_treatments=2, seed=3, base_effects=(2.0, -1.0))
    synthetic = m.generate(spec)
    assert m.twfe_coefficient(synthetic.panel, 0) == pytest.approx(2.0, abs=1e-10)
    assert m.twfe_coefficient(synthetic.panel, 1) == pytest.approx(-1.0, abs=1e-10)


def test_zero_outcome_zero_coefficient(four_group):
    panel = four_group.panel
    zeroed = m.PanelDataset(panel.group_labels, panel.period_labels,
                            np.zeros_like(panel.y), panel.n, panel.d)
    assert m.twfe_coefficient(zeroed, 0) == 0.0


def test_constant_treatment_collinear():
    d = np.zeros((1, 3, 3))
    d[0] = 1.0
    panel = m.PanelDataset(range(3), range(3), np.zeros((3, 3)), np.ones((3, 3)), d)
    with pytest.raises(CollinearTreatments):
        m.first_stage(panel, 0)


def test_other_treatment_collinear_with_fixed_effects():
    # second treatment varies only across groups, absorbed by the group effects
    d = np.zeros((2, 4, 3))
    d[0, 2:, 1:] = 1.0
    d[1, 1, :] = 1.0
    panel = m.PanelDataset(range(4), range(3), np.zeros((4, 3)), np.ones((4, 3)), d)
    with pytest.raises(CollinearTreatments):
        m.first_stage(panel, 0)


def test_degenerate_denominator():
    panel = degenerate_denominator_panel()
    m.first_stage(panel, 0)  # not collinear: the residual norm clears the rank threshold
    with pytest.raises(DegenerateDenominator):
        m.twfe_coefficient(panel, 0)
    with pytest.raises(DegenerateDenominator):
        m.decompose(panel, 0)


def test_orthogonality_invariants_random_panels():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 30:
        panel = make_random_panel(rng)
        try:
            stage = m.first_stage(panel, 0)
        except CollinearTreatments:
            continue
        checked += 1
        eps = stage.residuals
        scale = max(1.0, float(np.sum(panel.n * np.abs(eps))))
        assert np.all(np.abs((panel.n * eps).sum(axis=1)) <= 1e-8 * scale)
        assert np.all(np.abs((panel.n * eps).sum(axis=0)) <= 1e-8 * scale)
        for j in range(1, panel.n_treatments):
            assert abs(np.sum(panel.n * eps * panel.d[j])) <= 1e-8 * scale


def test_orthogonality_with_cell_sizes_over_twelve_decades():
    rng = np.random.default_rng(49)
    checked = 0
    while checked < 50:
        G, T = int(rng.integers(4, 30)), int(rng.integers(3, 12))
        d = (rng.random((3, G, T)) < 0.5).astype(float)
        n = 10.0 ** rng.uniform(-6, 6, size=(G, T))
        panel = m.PanelDataset(range(G), range(T), rng.standard_normal((G, T)), n, d)
        try:
            eps = m.first_stage(panel, 0).residuals
        except CollinearTreatments:
            continue
        checked += 1
        ne = panel.n * eps
        scale = float(np.sum(np.abs(ne)))
        assert np.max(np.abs(ne.sum(axis=1))) <= 1e-13 * scale
        assert np.max(np.abs(ne.sum(axis=0))) <= 1e-13 * scale
        for j in (1, 2):
            assert abs(float(np.sum(ne * panel.d[j]))) <= 1e-13 * scale


@pytest.mark.parametrize("sizes", ["unit", "decades"])
def test_near_collinear_treatments_refused(sizes):
    # d4 is the mean of d2 and d3 except 1e-11 off at one cell: far enough
    # from them not to be made canonical, far below the rank threshold
    rng = np.random.default_rng(50)
    for _ in range(20):
        G, T = int(rng.integers(5, 20)), int(rng.integers(3, 8))
        d = (rng.random((4, G, T)) < 0.5).astype(float)
        d[3] = 0.5 * (d[1] + d[2])
        d[3, int(rng.integers(G)), int(rng.integers(T))] += 1e-11
        n = (np.ones((G, T)) if sizes == "unit"
             else 10.0 ** rng.uniform(-6, 6, size=(G, T)))
        panel = m.PanelDataset(range(G), range(T), rng.standard_normal((G, T)), n, d)
        assert not np.array_equal(panel.d[3], 0.5 * (panel.d[1] + panel.d[2]))
        with pytest.raises(CollinearTreatments):
            m.twfe_coefficient(panel, 0)


def test_weight_sums_random_panels():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 30:
        panel = make_random_panel(rng)
        try:
            decomp = m.decompose(panel, 0)
        except CollinearTreatments:
            continue
        checked += 1
        assert abs(sum(decomp.own.values()) - 1.0) <= 1e-8
        for j, s in decomp.per_other_treatment_sums.items():
            assert abs(s) <= 1e-8
        summary = m.summarize(decomp, panel)
        if panel.n_treatments == 2 or summary.others_mutually_exclusive:
            assert abs(sum(decomp.contamination.values())) <= 1e-8
        assert summary.own_positive_sum + summary.own_negative_sum == \
            pytest.approx(1.0, abs=1e-8)


def test_frisch_waugh_equivalence_random_panels():
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 50:
        panel = make_random_panel(rng, integer_sizes=False)
        try:
            beta = m.twfe_coefficient(panel, 0)
        except CollinearTreatments:
            continue
        checked += 1
        beta_dense, eps_dense, _ = dense_dummy_fit(panel, 0)
        assert beta == pytest.approx(beta_dense, rel=1e-8, abs=1e-10)
        stage = m.first_stage(panel, 0)
        assert np.allclose(stage.residuals, eps_dense, atol=1e-8)


def test_decomposition_identity_noiseless():
    rng = np.random.default_rng(45)
    for trial in range(10):
        spec = m.DgpSpec(
            kind="random-binary",
            n_groups=int(rng.integers(4, 12)), n_periods=int(rng.integers(3, 7)),
            n_treatments=int(rng.integers(2, 4)), seed=int(rng.integers(0, 2 ** 31)),
            base_effects=None, effect_group_sd=1.0, effect_time_sd=1.0,
            interactions=((0, 1, float(rng.normal())),),
        )
        synthetic = m.generate(spec)
        try:
            decomp = m.decompose(synthetic.panel, 0)
        except CollinearTreatments:
            continue
        rhs = m.decomposition_rhs(synthetic, decomp)
        assert decomp.beta_fe == pytest.approx(rhs, abs=1e-8)


def test_scale_equivariance():
    rng = np.random.default_rng(46)
    panel = make_random_panel(rng)
    decomp = m.decompose(panel, 0)
    scaled = m.PanelDataset(panel.group_labels, panel.period_labels,
                            panel.y * 7.5, panel.n, panel.d)
    decomp_scaled = m.decompose(scaled, 0)
    # weights never touch the outcome: identical bit for bit
    assert decomp_scaled.own == decomp.own
    assert decomp_scaled.contamination == decomp.contamination
    assert np.array_equal(m.first_stage(scaled, 0).residuals,
                          m.first_stage(panel, 0).residuals)
    assert decomp_scaled.beta_fe == pytest.approx(7.5 * decomp.beta_fe, rel=1e-12)


def test_group_permutation_invariance():
    rng = np.random.default_rng(47)
    panel = make_random_panel(rng)
    decomp = m.decompose(panel, 0)
    perm = rng.permutation(panel.n_groups)
    relabeled = m.PanelDataset(
        [panel.group_labels[i] for i in perm], panel.period_labels,
        panel.y[perm], panel.n[perm], panel.d[:, perm])
    decomp_p = m.decompose(relabeled, 0)
    assert decomp_p.beta_fe == pytest.approx(decomp.beta_fe, abs=1e-10)
    for cell, w in decomp.own.items():
        assert decomp_p.own[cell] == pytest.approx(w, abs=1e-10)


def test_single_treatment_single_treated_cell():
    d = np.zeros((1, 2, 2))
    d[0, 1, 1] = 1.0
    panel = m.PanelDataset(range(1, 3), range(1, 3),
                           np.array([[0.0, 1.0], [0.0, 3.0]]), np.ones((2, 2)), d)
    decomp = m.decompose(panel, 0)
    assert decomp.own == pytest.approx({(2, 2): 1.0}, abs=1e-12)
    assert decomp.contamination == {}
    summary = m.summarize(decomp, panel)
    assert summary.others == ()


def test_summary_four_group(four_group):
    decomp = m.decompose(four_group.panel, 0)
    summary = m.summarize(decomp, four_group.panel)
    assert summary.own_positive_count == 2
    assert summary.own_positive_sum == pytest.approx(1.0, abs=1e-12)
    assert summary.own_negative_count == 0
    (other,) = summary.others
    assert other.treatment == 1
    assert other.positive_count == 1
    assert other.positive_sum == pytest.approx(0.5, abs=1e-12)
    assert other.negative_count == 1
    assert other.negative_sum == pytest.approx(-0.5, abs=1e-12)
    assert summary.others_mutually_exclusive


def test_decompose_refuses_non_binary():
    d = np.zeros((2, 3, 3))
    d[0, 1:, 1:] = 1.0
    d[1, 2, 2] = 2.0
    panel = m.PanelDataset(range(3), range(3), np.ones((3, 3)), np.ones((3, 3)), d)
    with pytest.raises(NonBinaryTreatment):
        m.decompose(panel, 0)
    # the plain coefficient is still defined for non-binary treatments
    assert isinstance(m.twfe_coefficient(panel, 0), float)


def test_interaction_column_is_just_another_treatment():
    # a user-supplied product column is treated literally
    rng = np.random.default_rng(48)
    d1 = (rng.random((6, 4)) < 0.5).astype(float)
    d2 = (rng.random((6, 4)) < 0.5).astype(float)
    d = np.stack([d1, d2, d1 * d2])
    y = rng.standard_normal((6, 4))
    panel = m.PanelDataset(range(6), range(4), y, np.ones((6, 4)), d)
    beta, _, _ = dense_dummy_fit(panel, 0)
    assert m.twfe_coefficient(panel, 0) == pytest.approx(beta, rel=1e-8)


def test_report_shapes(four_group):
    decomp = m.decompose(four_group.panel, 0)
    summary = m.summarize(decomp, four_group.panel)
    report = m.decomposition_report(decomp, summary)
    assert report["beta_fe"] == pytest.approx(1.5)
    assert {e["g"] for e in report["own"]} == {2, 4}
    assert report["summary"]["own"]["positive_count"] == 2
