import numpy as np
import pytest
from hypothesis import settings

import multidid as m

# derandomized so every run draws the same examples; few of them, so the
# property suite adds seconds, not minutes
settings.register_profile("multidid", derandomize=True, deadline=None,
                          max_examples=30)
settings.load_profile("multidid")


@pytest.fixture
def four_group():
    """Four groups, two periods, both treatments arriving in period 2."""
    return m.four_group_example()


@pytest.fixture
def abc_staggered():
    """Three groups adopting the first treatment together, the second at 3/never/4."""
    return m.three_cohort_example()


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
