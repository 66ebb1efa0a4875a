import importlib
import re

import numpy as np
import pytest

import multidid as m
from multidid.didm import DroppedSwitcher, _pack
from multidid.errors import NonBinaryTreatment, NonFiniteValue

from .conftest import make_random_panel
from .examples import three_cohort_example
from .oracles import brute_force_didm, brute_force_single_didm


def _matched_switcher_panel():
    """Three groups, two periods: one matched up-switcher, one unmatched."""
    d1 = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    d2 = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    y = np.array([[0.0, 3.0], [0.0, 1.0], [0.0, 5.0]])
    return m.PanelDataset(range(1, 4), range(1, 3), y, np.ones((3, 2)),
                          np.stack([d1, d2]))


def test_find_switchers_matching_rules():
    panel = _matched_switcher_panel()
    switchers = m.find_switchers(panel, 0)
    assert [(c.group, c.period, c.direction, c.baseline)
            for c in switchers.cells] == [(1, 2, "up", (1.0,))]
    assert switchers.n_s == 1.0
    assert [(d.group, d.period, d.reason) for d in switchers.dropped] == \
        [(3, 2, "no_matching_stayer")]


def test_didm_hand_value():
    result = m.didm(_matched_switcher_panel(), 0)
    assert result.estimate == pytest.approx(2.0, abs=1e-12)
    assert result.n_s == 1.0
    (component,) = result.components
    assert component.direction == "up"
    assert component.weight == 1.0


def test_no_switchers_zero_by_convention():
    d = np.zeros((2, 3, 3))
    d[0, 1, :] = 1.0
    d[1, 2, :] = 1.0
    panel = m.PanelDataset(range(3), range(3), np.ones((3, 3)), np.ones((3, 3)), d)
    result = m.didm(panel, 0)
    assert result.estimate == 0.0
    assert result.n_s == 0.0
    assert result.components == ()


def test_simultaneous_change_dropped(four_group):
    switchers = m.find_switchers(four_group.panel, 0)
    assert [(d.group, d.reason) for d in switchers.dropped] == \
        [(4, "other_treatment_changed")]


def test_brute_force_equivalence_random_panels():
    rng = np.random.default_rng(101)
    for _ in range(100):
        panel = make_random_panel(rng, g_max=8, t_max=5, k_max=3)
        result = m.didm(panel, 0)
        assert result.estimate == pytest.approx(brute_force_didm(panel, 0),
                                                abs=1e-12)


def test_weights_sum_to_one_when_nonempty():
    rng = np.random.default_rng(102)
    seen = 0
    while seen < 20:
        panel = make_random_panel(rng, g_max=8, t_max=5, k_max=2)
        result = m.didm(panel, 0)
        if result.n_s == 0:
            continue
        seen += 1
        assert sum(c.weight for c in result.components) == pytest.approx(1.0,
                                                                         abs=1e-12)
        assert result.estimate == pytest.approx(
            sum(c.weight * c.value for c in result.components), abs=1e-12)


def test_unbiasedness_identity_noiseless():
    rng = np.random.default_rng(103)
    seen = 0
    while seen < 25:
        spec = m.DgpSpec(
            kind="random-binary",
            n_groups=int(rng.integers(4, 10)), n_periods=int(rng.integers(2, 6)),
            n_treatments=int(rng.integers(1, 4)), seed=int(rng.integers(0, 2 ** 31)),
            effect_group_sd=1.5, effect_time_sd=1.0,
        )
        synthetic = m.generate(spec)
        result = m.didm(synthetic.panel, 0)
        if result.n_s == 0:
            continue
        seen += 1
        assert result.estimate == pytest.approx(m.delta_s_oracle(synthetic, 0),
                                                abs=1e-10)


def test_single_treatment_reduction():
    rng = np.random.default_rng(104)
    for _ in range(40):
        panel = make_random_panel(rng, g_max=8, t_max=5, k_max=1)
        assert panel.n_treatments == 1
        assert m.didm(panel, 0).estimate == pytest.approx(
            brute_force_single_didm(panel), abs=1e-12)


def test_time_reversal_symmetry_constant_effects():
    # one up-switcher, one down-switcher, both stayer types; constant effect
    # and parallel trends make the estimate invariant to reversing time
    tau, trend = 2.5, 0.7
    d1 = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    theta = np.array([0.3, -0.2, 0.9, 0.0])
    y = theta[:, None] + trend * np.array([0.0, 1.0])[None, :] + tau * d1
    panel = m.PanelDataset(range(4), range(2), y, np.ones((4, 2)), d1[None])
    forward = m.didm(panel, 0)
    reversed_panel = m.PanelDataset(range(4), range(2), y[:, ::-1],
                                    np.ones((4, 2)), d1[None, :, ::-1])
    backward = m.didm(reversed_panel, 0)
    assert forward.estimate == pytest.approx(tau, abs=1e-12)
    assert backward.estimate == pytest.approx(forward.estimate, abs=1e-12)
    directions = {c.direction for c in forward.components}
    assert directions == {"up", "down"}


def test_delta_s_empty_set_zero():
    spec = m.DgpSpec(kind="random-binary", n_groups=3, n_periods=2,
                     n_treatments=1, seed=0, treat_prob=0.0)
    synthetic = m.generate(spec)
    assert m.delta_s_oracle(synthetic, 0) == 0.0


def test_delta_s_homogeneous_effect():
    spec = m.DgpSpec(kind="random-binary", n_groups=10, n_periods=4,
                     n_treatments=2, seed=9, base_effects=(3.25, -1.0))
    synthetic = m.generate(spec)
    assert m.find_switchers(synthetic.panel, 0).n_s > 0
    assert m.delta_s_oracle(synthetic, 0) == pytest.approx(3.25, abs=1e-12)


def test_truth_oracles_call_no_estimator_kernel(monkeypatch):
    """Every truth value is the same with the DID_M and event-study kernels
    made to raise: no oracle takes its cells from the estimators."""
    static = m.generate(m.DgpSpec(kind="random-binary", n_groups=30, n_periods=5,
                                  n_treatments=3, seed=0, cell_sizes="random",
                                  base_effects=(1.0, 2.0, -1.0), effect_group_sd=1.0,
                                  effect_time_sd=0.5))
    staggered = three_cohort_example(extra_never_treated=True)
    structure = m.build_cohorts(staggered.panel, 0, 1)
    decomp = m.decompose(static.panel, 0)

    def truths():
        return ([m.delta_s_oracle(static, k) for k in range(3)],
                [m.delta_ell_oracle(staggered, structure, ell)
                 for ell in range(structure.l_nt + 1)],
                m.decomposition_rhs(static, decomp))
    expected = truths()
    assert all(expected[0])

    def kernel(*args, **kwargs):
        raise AssertionError("a truth oracle called an estimator kernel")
    for name in ("_strata", "_reduce", "_pack", "find_switchers"):
        monkeypatch.setattr(importlib.import_module("multidid.didm"), name, kernel)
    monkeypatch.setattr(m.staggered, "_horizons", kernel)
    assert truths() == expected


def test_binary_only_flag():
    d = np.array([[[0.0, 2.0], [0.0, 0.0], [2.0, 2.0]]])
    y = np.array([[0.0, 5.0], [0.0, 1.0], [0.0, 1.0]])
    panel = m.PanelDataset(range(3), range(2), y, np.ones((3, 2)), d)
    with pytest.raises(NonBinaryTreatment):
        m.didm(panel, 0, binary_only=True)


def test_discrete_target_scaled_by_change():
    # jump of two units with effect 1.5 per unit; stayers pin the trend
    d = np.array([[[0.0, 2.0], [0.0, 0.0], [2.0, 2.0]]])
    trend = 0.4
    y = np.array([[0.0, trend + 3.0], [0.0, trend], [1.0, 1.0 + trend]])
    panel = m.PanelDataset(range(3), range(2), y, np.ones((3, 2)), d)
    result = m.didm(panel, 0)
    assert result.estimate == pytest.approx(1.5, abs=1e-12)
    (component,) = result.components
    assert component.target_from == 0.0 and component.target_to == 2.0


def test_group_switching_at_multiple_periods_enters_each_time():
    # one group switches on then off; both cells are separate switchers
    d = np.array([[[0.0, 1.0, 0.0],
                   [0.0, 0.0, 0.0],
                   [1.0, 1.0, 1.0]]])
    y = np.array([[0.0, 2.0, 1.0],
                  [0.0, 0.0, 0.0],
                  [5.0, 5.0, 5.0]])
    panel = m.PanelDataset(range(3), range(3), y, np.ones((3, 3)), d)
    switchers = m.find_switchers(panel, 0)
    assert [(c.group, c.period, c.direction) for c in switchers.cells] == \
        [(0, 1, "up"), (0, 2, "down")]
    result = m.didm(panel, 0)
    # up: (2-0) - 0 = 2; down: 0 - (1-2) = 1; equal weights
    assert result.estimate == pytest.approx(1.5, abs=1e-12)


def test_result_serialization(four_group):
    result = m.didm(four_group.panel, 0)
    data = result.to_dict()
    assert data["estimate"] == pytest.approx(result.estimate)
    assert data["n_switchers"] == result.n_s
    assert data["dropped"] == [{"g": 4, "t": 2, "reason": "other_treatment_changed"}]


@pytest.mark.parametrize("rows, message", [
    # n * (y - previous y) overflows; only a later period holds another
    # overflowing cell, so (period, group) order names group 2
    ([(1, 1, 0.0, 1e300, 0.0), (1, 2, 0.0, 1e300, 1.0), (1, 3, 1e300, 1e300, 1.0),
      (2, 1, -1e300, 1e300, 0.0), (2, 2, 1e300, 1e300, 0.0), (2, 3, 0.0, 1.0, 0.0)],
     "n * (y - previous y) overflows at group=2, period=2"),
    ([(1, 1, -1e300, 1e300, 0.0), (1, 2, 1e300, 1e300, 1.0), (2, 1, 0.0, 1.0, 0.0),
      (2, 2, 0.0, 1.0, 0.0)],
     "n * (y - previous y) overflows at group=1, period=2"),
    # each switcher's n * (y - previous y) is finite, their sum is not
    ([(1, 1, 0.0, 1.0, 0.0), (1, 2, 1e308, 1.0, 1.0), (2, 1, 0.0, 1.0, 0.0),
      (2, 2, 1e308, 1.0, 1.0), (3, 1, 0.0, 1.0, 0.0), (3, 2, 0.0, 1.0, 0.0)],
     "the switcher-stayer contrast overflows in the stratum of group=1, period=2"),
    # the target's change itself overflows
    ([(1, 1, 0.0, 1.0, -1e308), (1, 2, 1.0, 1.0, 1e308), (2, 1, 0.0, 1.0, -1e308),
      (2, 2, 0.0, 1.0, -1e308)],
     "the switcher-stayer contrast overflows in the stratum of group=1, period=2"),
])
def test_overflow_is_refused_with_the_cell(rows, message):
    panel = m.load_panel(rows, 1)
    for estimator in (m.didm, m.find_switchers):
        with pytest.raises(NonFiniteValue, match=f"^{re.escape(message)}$"):
            estimator(panel, 0)


def test_packed_keys_sort_and_group_as_the_rows():
    # six columns of 2000 distinct values pass 2**62 in mixed radix, so the
    # packing has to re-code the key densely on the way
    rng = np.random.default_rng(105)
    rows = np.column_stack([rng.integers(0, 9, 4000)]
                           + [rng.choice(rng.standard_normal(2000), 4000) for _ in range(6)])
    rows[1::2] = rows[::2]  # every row twice
    packed = _pack(rows[:, 0].astype(np.intp), 9, rows[:, 1:].T)
    _, want = np.unique(rows, axis=0, return_inverse=True)
    _, got = np.unique(packed, return_inverse=True)
    assert np.array_equal(got, want)


def test_dropped_records_are_built_when_read():
    result = m.didm(_matched_switcher_panel(), 0)
    assert "records" not in vars(result.lost)
    assert len(result.lost) == 1
    assert "records" not in vars(result.lost)
    assert result.dropped == (DroppedSwitcher(3, 2, "no_matching_stayer"),)
    assert result.dropped is result.lost.records
