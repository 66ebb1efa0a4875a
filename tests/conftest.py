import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import multidid as m

from .examples import four_group_example, three_cohort_example

# derandomized so every run draws the same examples; few of them, so the
# property suite adds seconds, not minutes
settings.register_profile("multidid", derandomize=True, deadline=None,
                          max_examples=30)
settings.load_profile("multidid")


@pytest.fixture(autouse=True)
def panel_cache(tmp_path_factory, monkeypatch):
    """The parsed-panel cache directory of this test alone, outside its
    ``tmp_path``: no test reads or fills the user's cache, sees another
    test's entries, or finds an entry among its own files."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
    return Path(os.environ["XDG_CACHE_HOME"], "multidid")


@pytest.fixture
def four_group():
    """Four groups, two periods, both treatments arriving in period 2."""
    return four_group_example()


@pytest.fixture
def abc_staggered():
    """Three groups adopting the first treatment together, the second at 3/never/4."""
    return three_cohort_example()


def make_random_panel(rng, g_max=20, t_max=10, k_max=3, noise=1.0,
                      integer_sizes=True):
    """Random binary-treatment panel with normal outcomes, no stored truths."""
    G = int(rng.integers(4, g_max + 1))
    T = int(rng.integers(2, t_max + 1))
    K = int(rng.integers(1, k_max + 1))
    d = (rng.random((K, G, T)) < 0.5).astype(float)
    y = rng.standard_normal((G, T)) * noise
    if integer_sizes:
        n = rng.integers(1, 6, size=(G, T)).astype(float)
    else:
        n = rng.uniform(0.5, 3.0, size=(G, T))
    return m.PanelDataset(range(G), range(T), y, n, d)


def overflowing_twfe_panel():
    """Finite input whose TWFE numerator sum(n * eps * y) passes the float range."""
    return m.load_panel([(1, 1, 0.0, 1e10, 0.0), (1, 2, 1e300, 1e10, 1.0),
                         (2, 1, 0.0, 1e10, 0.0), (2, 2, -1e300, 1e10, 0.0),
                         (3, 1, 0.0, 1e10, 0.0), (3, 2, 0.0, 1e10, 1.0)], 1)


def overflowing_first_stage_panel(n=1e10):
    """Finite input whose first stage passes the float range: d1 is 1e300 on
    groups 3-4, periods 2-3. At cell size 1e10 its n-weighted grid overflows
    in the fixed-effect fit; at size 10 its weighted column norm does."""
    d1 = np.zeros((4, 3))
    d1[2:, 1:] = 1e300
    d2 = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    y = np.array([[0, 1, 2], [0, 0.5, 0.2], [1, 0, 2], [0, 1, 1]])
    return m.PanelDataset(range(1, 5), range(1, 4), y, np.full((4, 3), n), [d1, d2])


def overflowing_staggered_panel(extra_never_treated=False):
    """The three-cohort example with outcomes times 1e299 and sizes times 1e10:
    every adopter-versus-not-yet contrast overflows. The never-treated fourth
    group makes every estimator defined on it."""
    p = three_cohort_example(extra_never_treated).panel
    return m.PanelDataset(p.group_labels, p.period_labels, p.y * 1e299, p.n * 1e10, p.d)


def overflowing_replicates_panel():
    """Finite input with unit sizes and outcomes near 1e300: every bootstrap
    replicate is finite, but their squared deviations pass the float range."""
    d = np.array([[[0, 1, 1], [0, 0, 0], [0, 0, 1], [0, 0, 0]]], dtype=float)
    y = np.array([[0, 1, 2], [0, 0.5, 0.2], [1, 0, 2], [0, 1, 1]]) * 1e300
    return m.PanelDataset(range(4), range(3), y, np.ones((4, 3)), d)


def degenerate_denominator_panel():
    """d1 equals d2 except at one cell whose size is 1e-14: d1 partialled on
    the fixed effects and d2 lives on that cell only, so its weighted
    covariance with d1 is about 1e-14 while d2 itself is not collinear."""
    d2 = np.array([[0, 0, 1], [0, 1, 1], [0, 0, 0], [0, 0, 1]], dtype=float)
    d1 = d2.copy()
    d1[2, 1] = 1.0
    n = np.ones((4, 3))
    n[2, 1] = 1e-14
    return m.PanelDataset(range(1, 5), range(1, 4), np.arange(12.0).reshape(4, 3), n,
                          np.stack([d1, d2]))


def light_first_period_panel(heavy_group=False):
    """Nine groups over three periods, sizes 1e-30, 2, 2, the first five
    treated in period 3; ``heavy_group`` gives group 0 size 1 in period 1.
    Without it each group's total rounds to 4, so the Schur complement of
    periods 2 and 3 is exactly [[9, -9], [-9, 9]] on any BLAS, and its
    Cholesky factor meets an exactly zero pivot."""
    n = np.tile([1e-30, 2.0, 2.0], (9, 1))
    n[0, 0] = 1.0 if heavy_group else 1e-30
    d = np.zeros((1, 9, 3))
    d[0, :5, 2] = 1.0
    return m.PanelDataset(range(9), range(3), np.arange(27.0).reshape(9, 3) % 5, n, d)


def random_staggered_spec(rng, g_max=8, t_max=8):
    """Spec for a noiseless consecutive-staggered DGP with a usable cohort."""
    for _ in range(200):
        G = int(rng.integers(4, g_max + 1))
        T = int(rng.integers(4, t_max + 1))
        cohort_dates = [int(v) for v in rng.integers(2, max(3, T - 2), size=2)]
        f1, f2 = [], []
        for g in range(G):
            f = int(rng.choice(cohort_dates)) if rng.random() < 0.8 else T + 1
            f1.append(f)
            if f > T:
                f2.append(T + 1)
            elif rng.random() < 0.3:
                f2.append(T + 1)
            else:
                f2.append(int(rng.integers(f + 1, T + 2)))
        spec = m.DgpSpec(
            kind="consecutive-staggered", n_groups=G, n_periods=T,
            seed=int(rng.integers(0, 2 ** 31)),
            group_sd=1.0, time_slope=float(rng.normal()), time_sd=1.0,
            f1=tuple(f1), f2=tuple(f2),
            first_level_sd=2.0,
            first_growth=float(rng.normal()),
            first_path_sd=1.0,
            second_base=float(rng.normal()), second_growth=float(rng.normal()),
            second_sd=1.5,
        )
        try:
            synthetic = m.generate(spec)
            m.build_cohorts(synthetic.panel, 0, 1)
        except m.MultiDidError:
            continue
        return spec
    raise RuntimeError("could not draw a usable staggered design")
