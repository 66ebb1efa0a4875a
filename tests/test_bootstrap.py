import numpy as np
import pytest

import multidid as m
from multidid.bootstrap import _DEGENERATE, _evaluate, _reducer
from multidid.errors import AllReplicationsDegenerate

from .conftest import make_random_panel, random_staggered_spec


def _noisy_panel(seed=50):
    spec = m.DgpSpec(kind="random-binary", n_groups=12, n_periods=4,
                     n_treatments=2, seed=seed, noise_sd=0.5,
                     base_effects=(1.0, -0.5))
    return m.generate(spec).panel


def test_bit_identical_across_parallelism():
    panel = _noisy_panel()
    for estimator in ("didm", "twfe"):
        serial = m.bootstrap_se(panel, estimator, 60, 123, target=0,
                                parallelism=1, keep_replicates=True)
        threaded = m.bootstrap_se(panel, estimator, 60, 123, target=0,
                                  parallelism=8, keep_replicates=True)
        assert serial == threaded
        assert serial.replicates == threaded.replicates


def test_single_replication_zero_se():
    result = m.bootstrap_se(_noisy_panel(), "twfe", 1, 0, target=0)
    assert result.standard_error == 0.0
    assert result.degenerate_inference


def test_noiseless_constant_effect_zero_se():
    spec = m.DgpSpec(kind="random-binary", n_groups=10, n_periods=4,
                     n_treatments=2, seed=31, base_effects=(2.0, 1.0))
    panel = m.generate(spec).panel
    result = m.bootstrap_se(panel, "twfe", 30, 7, target=0)
    assert result.estimate == pytest.approx(2.0, abs=1e-10)
    assert result.standard_error == pytest.approx(0.0, abs=1e-9)


def test_didm_empty_switchers_excluded():
    # two groups: one switcher, one stayer; resamples drawing a single group
    # type are degenerate and must be excluded, not averaged as zeros
    d = np.array([[[0.0, 1.0], [0.0, 0.0]]])
    y = np.array([[0.0, 2.0], [0.0, 0.0]])
    panel = m.PanelDataset(range(2), range(2), y, np.ones((2, 2)), d)
    result = m.bootstrap_se(panel, "didm", 64, 5, target=0, keep_replicates=True)
    assert result.n_degenerate > 0
    assert result.n_retained + result.n_degenerate == 64
    assert all(v == pytest.approx(2.0) for v in result.replicates)


def test_all_replications_degenerate():
    d = np.array([[[0.0, 1.0], [0.0, 0.0]]])
    y = np.array([[0.0, 2.0], [0.0, 0.0]])
    panel = m.PanelDataset(range(2), range(2), y, np.ones((2, 2)), d)
    # find a seed whose single draw resamples one group twice
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(
            seed=np.random.SeedSequence((seed, 0))))
        if len(set(rng.integers(0, 2, size=2).tolist())) == 1:
            with pytest.raises(AllReplicationsDegenerate):
                m.bootstrap_se(panel, "didm", 1, seed, target=0)
            return
    raise AssertionError("no degenerate seed found")


def test_did_ell_route(abc_staggered):
    # with three groups some resamples lose the cohort structure; the rest
    # reproduce a deterministic estimate
    result = m.bootstrap_se(abc_staggered.panel, "did_ell", 40, 9,
                            first=0, second=1, ell=0, keep_replicates=True)
    assert result.estimate == pytest.approx(8.5, abs=1e-12)
    assert result.n_retained + result.n_degenerate == 40


def test_undefined_point_estimate_raises():
    d = np.zeros((1, 3, 3))  # never any switcher and collinear target
    panel = m.PanelDataset(range(3), range(3), np.ones((3, 3)),
                           np.ones((3, 3)), d)
    with pytest.raises(AllReplicationsDegenerate):
        m.bootstrap_se(panel, "didm", 5, 0, target=0)


def test_replicates_hidden_by_default():
    result = m.bootstrap_se(_noisy_panel(), "twfe", 5, 1, target=0)
    assert result.replicates is None
    assert result.to_dict()["replicates"] is None


def _defined(f, *args):
    try:
        return f(*args)
    except _DEGENERATE:
        return None


def _replicates_match_the_copy_path(panel, estimator, rng, **kwargs):
    """Compare count-weighted replicates with the estimator on copied panels,
    for random draws and draws of one or two groups; returns the largest
    relative difference and the number of degenerate draws."""
    args = (kwargs.get("target", 0), kwargs.get("first", 0), kwargs.get("second", 1),
            kwargs.get("ell", 0))
    G = panel.n_groups
    estimate = _reducer(panel, estimator, *args)
    point = _defined(estimate, None)
    assert point == _defined(_evaluate, panel, estimator, *args)  # bit for bit
    draws = [rng.integers(0, G, size=G) for _ in range(12)]
    draws += [np.zeros(G, int), np.full(G, G - 1), np.arange(G) % 2]
    worst, degenerate = 0.0, 0
    for draw in draws:
        copied = _defined(_evaluate, panel.with_groups(draw.tolist(), range(G)),
                          estimator, *args)
        counted = _defined(estimate, np.bincount(draw, minlength=G).astype(float))
        assert (copied is None) == (counted is None)
        if copied is None:
            degenerate += 1
            continue
        worst = max(worst, abs(copied - counted) / max(1.0, abs(copied), abs(counted)))
    assert worst <= 1e-12
    return degenerate


@pytest.mark.parametrize("estimator", ["twfe", "didm"])
def test_count_weighted_replicates_match_the_copy_path(estimator):
    rng = np.random.default_rng(808)
    degenerate = 0
    for i in range(40):
        panel = make_random_panel(rng, g_max=9, t_max=6, k_max=3,
                                  integer_sizes=i % 2 == 0)
        if i % 4 == 3:  # ordered treatment values
            panel = m.PanelDataset(panel.group_labels, panel.period_labels, panel.y,
                                   panel.n, np.minimum(panel.d * 2 + panel.d[:1], 2.0))
        target = int(rng.integers(0, panel.n_treatments))
        degenerate += _replicates_match_the_copy_path(panel, estimator, rng,
                                                      target=target)
    assert degenerate > 0


def test_count_weighted_did_ell_replicates_match_the_copy_path():
    rng = np.random.default_rng(809)
    degenerate = 0
    for _ in range(25):
        panel = m.generate(random_staggered_spec(rng)).panel
        structure = m.build_cohorts(panel, 0, 1)
        for ell in range(structure.l_nt + 1):
            degenerate += _replicates_match_the_copy_path(panel, "did_ell", rng, ell=ell)
    assert degenerate > 0


@pytest.mark.parametrize("estimator", ["didm", "twfe"])
def test_replicates_whose_sizes_overflow_are_degenerate(estimator):
    # the sizes sum to 1.59e308; a draw with group 0 twice passes the float range
    d = np.array([[[0, 1, 1], [0, 0, 0], [0, 0, 1], [0, 0, 0]]], dtype=float)
    y = np.array([[0, 1, 2], [0, 0.5, 0.2], [1, 0, 2], [0, 1, 1]], dtype=float)
    n = np.full((4, 3), 1e306)
    n[0] = 5e307
    panel = m.PanelDataset(range(4), range(3), y, n, d)
    result = m.bootstrap_se(panel, estimator, 20, 0, target=0, keep_replicates=True)
    assert result.n_degenerate > 0
    assert result.n_retained + result.n_degenerate == 20
    assert all(np.isfinite(result.replicates))
