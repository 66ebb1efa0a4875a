import re
import threading

import numpy as np
import pytest

import multidid as m
from multidid.bootstrap import _DEGENERATE, _reducer
from multidid.errors import (
    AllReplicationsDegenerate,
    HorizonOutOfRange,
    NonFiniteValue,
    NumericallySingular,
    PathologicalDesign,
)

from .conftest import (
    light_first_period_panel,
    make_random_panel,
    overflowing_replicates_panel,
    random_staggered_spec,
)
from .examples import three_cohort_example
from .oracles import copy_path_estimate


def _noisy_panel(seed=50):
    spec = m.DgpSpec(kind="random-binary", n_groups=12, n_periods=4,
                     n_treatments=2, seed=seed, noise_sd=0.5,
                     base_effects=(1.0, -0.5))
    return m.generate(spec).panel


def test_replications_start_no_thread(monkeypatch, abc_staggered):
    """Replications run in order on the calling thread."""
    def refuse(self):
        raise AssertionError("bootstrap_se started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for estimator in ("twfe", "didm"):
        m.bootstrap_se(_noisy_panel(), estimator, 6, 1)
    m.bootstrap_se(abc_staggered.panel, "did_ell", 6, 1)


@pytest.mark.parametrize("estimator, b, message", [
    ("ols", 5, "unknown estimator 'ols', expected one of ('twfe', 'didm', 'did_ell')"),
    ("twfe", 0, "b must be >= 1"),
    ("twfe", 2.5, "b must be an integer, got 2.5"),
    ("didm", 3.0, "b must be an integer, got 3.0"),
    ("twfe", True, "b must be an integer, got True"),
])
def test_bad_arguments_are_refused(estimator, b, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        m.bootstrap_se(_noisy_panel(), estimator, b, 0)


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
    # the copy path rebuilds the cohort structure from the drawn groups alone,
    # so a draw without a contrast at the horizon raises there
    try:
        return f(*args)
    except (*_DEGENERATE, PathologicalDesign, HorizonOutOfRange):
        return None


def _replicates_match_the_copy_path(panel, estimator, rng, **kwargs):
    """Compare count-weighted replicates with the estimator on copied panels,
    for random draws and draws of one or two groups; returns the largest
    relative difference and the number of degenerate draws."""
    args = (kwargs.get("target", 0), kwargs.get("first", 0), kwargs.get("second", 1),
            kwargs.get("ell", 0))
    G = panel.n_groups
    estimate = _reducer(panel, estimator, *args)
    point = _defined(estimate, np.ones(G))
    assert point == _defined(copy_path_estimate, panel, estimator, *args)  # bit for bit
    draws = [rng.integers(0, G, size=G) for _ in range(12)]
    draws += [np.zeros(G, int), np.full(G, G - 1), np.arange(G) % 2]
    worst, degenerate = 0.0, 0
    for draw in draws:
        copied = _defined(copy_path_estimate, panel.with_groups(draw.tolist(), range(G)),
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


@pytest.mark.parametrize("estimator", ["twfe", "did_ell"])
def test_replicates_whose_products_overflow_are_degenerate(estimator):
    # sizes near 1e300 leave the point estimate finite, but some draws put
    # sum(n * eps * y) or n * (y - earlier y) past the float range
    if estimator == "twfe":
        d = np.array([[[0, 1, 1], [0, 0, 0], [0, 0, 1], [0, 0, 0]]], dtype=float)
        y = np.array([[0, 1, 2], [0, 0.5, 0.2], [1, 0, 2], [0, 1, 1]]) * 1.4e8
        panels = [m.PanelDataset(range(4), range(3), y, np.full((4, 3), n), d)
                  for n in (1.0, 1e300)]
    else:
        p = three_cohort_example().panel
        panels = [m.PanelDataset(p.group_labels, p.period_labels, p.y * 1e7, p.n * n, p.d)
                  for n in (1.0, 1e300)]
    plain, huge = (m.bootstrap_se(panel, estimator, 20, 0, keep_replicates=True)
                   for panel in panels)
    assert huge.estimate == pytest.approx(plain.estimate, rel=1e-12)
    assert huge.n_degenerate > plain.n_degenerate
    assert huge.n_retained + huge.n_degenerate == 20
    assert all(np.isfinite(huge.replicates))


def test_replicates_whose_fixed_effects_are_singular_are_degenerate():
    # group 0 holds almost all of period 1's weight; in a draw without it the
    # nine copies' sizes again give the Schur complement [[9, -9], [-9, 9]]
    panel = light_first_period_panel(heavy_group=True)
    estimate = _reducer(panel, "twfe", 0, 0, 1, 0)
    draws = [np.random.Generator(np.random.Philox(np.random.SeedSequence((3, rep))))
             .integers(0, 9, size=9) for rep in range(30)]
    missing = [np.bincount(draw, minlength=9) * 1.0 for draw in draws if 0 not in draw]
    for counts in missing:
        with pytest.raises(NumericallySingular):
            estimate(counts)
    result = m.bootstrap_se(panel, "twfe", 30, 3)
    assert 0 < len(missing) <= result.n_degenerate < 30


@pytest.mark.parametrize("estimator", ["twfe", "didm"])
def test_replicates_whose_squares_overflow_are_refused(estimator):
    # every replicate is finite, near 1e300, but their squared deviations are not
    with pytest.raises(NonFiniteValue, match="^the squared deviations of the bootstrap "
                                             "replicates pass the float range$"):
        m.bootstrap_se(overflowing_replicates_panel(), estimator, 20, 0)
