"""Worked examples and a closed form that the tests check the estimators against."""

from __future__ import annotations

import numpy as np

import multidid as m

from .oracles import stored


def four_group_example() -> m.SyntheticPanel:
    """Four groups, two periods, two treatments arriving in period 2.

    Groups 2 and 4 receive the first treatment, groups 3 and 4 the second.
    Effects are chosen so the period-2 outcome gains are (0, 1, 0, 2): the
    fixed-effects coefficient on the first treatment is then 1.5, the
    half-half average of a clean comparison (group 2 vs 1) and a comparison
    contaminated by the second treatment (group 4 vs 3).
    """
    G, T, K = 4, 2, 2
    d = np.zeros((K, G, T))
    d[0, 1, 1] = d[0, 3, 1] = 1.0
    d[1, 2, 1] = d[1, 3, 1] = 1.0
    po = np.zeros((G, T, 1 << K))
    # masks: 1 = first only, 2 = second only, 3 = both
    po[1, 1, 1] = 1.0   # group 2: first treatment raises outcome by 1
    po[1, 1, 3] = 1.0
    po[3, 1, 2] = 0.5   # group 4: second treatment alone raises by 0.5
    po[3, 1, 1] = 1.2
    po[3, 1, 3] = 2.0   # group 4: both treatments raise by 2
    po[2, 1, 2] = 0.0   # group 3: second treatment has no effect
    po[2, 1, 3] = 0.7
    po[2, 1, 1] = 0.7
    y = po[np.arange(G)[:, None], np.arange(T), (d[0] + 2 * d[1]).astype(int)]
    panel = m.PanelDataset(range(1, G + 1), range(1, T + 1), y, np.ones((G, T)), d)
    return m.SyntheticPanel(panel, "random-binary", outcomes=stored(po))


def three_cohort_example(extra_never_treated: bool = False) -> m.SyntheticPanel:
    """Three groups adopting the first treatment together in period 2 of four,
    then the second treatment at dates 3, never, and 4.

    First-treatment effects start at (1, 2, 0) and all grow by 0.5 per period;
    second-treatment effects are +10 then +12 for the early adopter and +7 for
    the late one. With the optional fourth never-treated group the first
    treatment's own event study becomes estimable as well.
    """
    G = 4 if extra_never_treated else 3
    return m.generate(m.DgpSpec(
        kind="consecutive-staggered", n_groups=G, n_periods=4, seed=0, group_sd=0.0,
        f1=(2, 2, 2, 5)[:G], f2=(3, 5, 4, 5)[:G], first_level=(1.0, 2.0, 0.0, 0.0)[:G],
        first_growth=0.5, second_effects=((10.0, 12.0), (0.0,), (7.0,), (0.0,))[:G]))


def standard_did_residual_closed_form(n: np.ndarray, g1: int, t1: int,
                                      g2: int, t2: int) -> tuple[np.ndarray, float]:
    """Closed-form partialling residuals for the two-threshold design.

    Valid when cell sizes factor as a group share times a period share.
    Returns the residual grid and the coefficient of the second treatment in
    the partialling regression.
    """
    G, T = n.shape
    A = n.sum()
    a = n.sum(axis=1) / A
    b = n.sum(axis=0) / A
    i1 = (np.arange(1, G + 1) >= g1).astype(float)
    j1 = (np.arange(1, T + 1) >= t1).astype(float)
    i2 = (np.arange(1, G + 1) >= g2).astype(float)
    j2 = (np.arange(1, T + 1) >= t2).astype(float)
    p1g, p1t, p2g, p2t = a @ i1, b @ j1, a @ i2, b @ j2
    zeta = (1 - p1g) * (1 - p1t) / ((1 - p2g) * (1 - p2t))
    eps = np.outer(i1 - p1g, j1 - p1t) - zeta * np.outer(i2 - p2g, j2 - p2t)
    return eps, float(zeta)
