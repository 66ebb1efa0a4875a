"""Independent oracle implementations used only by the tests.

Each oracle recomputes a target quantity from first principles over a code
path disjoint from the library's: the regression coefficient comes from one
dense weighted least-squares solve on the explicit dummy design, and the
switcher and event-study estimates from literal transcriptions of their
defining sums, and the linear-trend fallback from one ``np.polyfit`` per
group.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def dense_dummy_fit(panel, target):
    """(beta, eps, zeta) from dense dummy-design least squares.

    ``beta`` is the coefficient on the target treatment in the full outcome
    regression; ``eps`` the residual grid of the target treatment regressed
    on fixed effects and the other treatments; ``zeta`` the coefficients on
    the other treatments in that partialling regression, in original index
    order.
    """
    G, T, K = panel.n_groups, panel.n_periods, panel.n_treatments
    gi = np.repeat(np.arange(G), T)
    ti = np.tile(np.arange(T), G)
    fe_cols = [np.ones(G * T)]
    for g in range(1, G):
        fe_cols.append((gi == g).astype(float))
    for t in range(1, T):
        fe_cols.append((ti == t).astype(float))
    w = np.sqrt(panel.n.ravel())
    others = [j for j in range(K) if j != target]

    X1 = np.column_stack(fe_cols + [panel.d[j].ravel() for j in others])
    r1 = panel.d[target].ravel()
    coef1, *_ = np.linalg.lstsq(X1 * w[:, None], r1 * w, rcond=None)
    eps = (r1 - X1 @ coef1).reshape(G, T)
    zeta = coef1[G + T - 1:]

    X2 = np.column_stack(fe_cols + [panel.d[j].ravel() for j in range(K)])
    coef2, *_ = np.linalg.lstsq(X2 * w[:, None], panel.y.ravel() * w, rcond=None)
    beta = float(coef2[G + T - 1 + target])
    return beta, eps, zeta


def brute_force_didm(panel, target):
    """Literal evaluation of the switcher estimator over ordered values.

    Loops over every period, every combination of observed other-treatment
    values and every ordered pair (a, b) of distinct observed target values.
    The cells moving from a to b are compared with the cells staying at a,
    among the cells whose other treatments hold that combination at both
    dates; each contrast with both arms non-empty is divided by b - a, and
    the contrasts are averaged with weights proportional to switcher size.
    """
    G, T, K = panel.n_groups, panel.n_periods, panel.n_treatments
    n, y, d = panel.n, panel.y, panel.d
    others = [j for j in range(K) if j != target]
    values = sorted(set(d[target].ravel().tolist()))
    other_values = [sorted(set(d[j].ravel().tolist())) for j in others]

    def is_val(g, t, k, v):
        return abs(d[k, g, t] - v) <= 1e-12

    def others_match(g, t, dm):
        return all(is_val(g, t, j, dm[pos]) and is_val(g, t - 1, j, dm[pos])
                   for pos, j in enumerate(others))

    def arm(groups, t, a, b):
        cells = [g for g in groups
                 if is_val(g, t - 1, target, a) and is_val(g, t, target, b)]
        size = sum(n[g, t] for g in cells)
        if size == 0:
            return 0.0, 0.0
        return size, sum(n[g, t] / size * (y[g, t] - y[g, t - 1]) for g in cells)

    n_s = 0.0
    terms = []
    for t in range(1, T):
        for dm in product(*other_values):
            groups = [g for g in range(G) if others_match(g, t, dm)]
            for a in values:
                n_stay, dy_stay = arm(groups, t, a, a)
                for b in values:
                    if b == a:
                        continue
                    n_move, dy_move = arm(groups, t, a, b)
                    if n_move > 0 and n_stay > 0:
                        n_s += n_move
                        terms.append((n_move, (dy_move - dy_stay) / (b - a)))
    if n_s == 0:
        return 0.0
    return float(sum(nn * v for nn, v in terms) / n_s)


def brute_force_single_didm(panel):
    """The one-treatment special case, coded on its own (K must be 1)."""
    assert panel.n_treatments == 1
    G, T = panel.n_groups, panel.n_periods
    n, y, d = panel.n, panel.y, panel.d[0]
    n_s = 0.0
    total = 0.0
    for t in range(1, T):
        up = [g for g in range(G) if d[g, t] > 0.5 and d[g, t - 1] < 0.5]
        down = [g for g in range(G) if d[g, t] < 0.5 and d[g, t - 1] > 0.5]
        stay0 = [g for g in range(G) if d[g, t] < 0.5 and d[g, t - 1] < 0.5]
        stay1 = [g for g in range(G) if d[g, t] > 0.5 and d[g, t - 1] > 0.5]

        def wmean(groups):
            tot = sum(n[g, t] for g in groups)
            return sum(n[g, t] * (y[g, t] - y[g, t - 1]) for g in groups) / tot

        if up and stay0:
            n_up = sum(n[g, t] for g in up)
            n_s += n_up
            total += n_up * (wmean(up) - wmean(stay0))
        if down and stay1:
            n_dn = sum(n[g, t] for g in down)
            n_s += n_dn
            total += n_dn * (wmean(stay1) - wmean(down))
    return 0.0 if n_s == 0 else float(total / n_s)


def brute_force_event_study(panel, adopt, cohort, cap):
    """Literal evaluation of the adopter-versus-not-yet event study.

    ``adopt``, ``cohort`` and ``cap`` hold 1-based dates per group. At horizon
    l and date t the adopters are the groups with adopt = t - l > cohort and
    t <= cap, the controls their cohort mates with adopt > t; a contrast
    exists where both are non-empty and compares the size-weighted (sizes at
    t) mean change of outcome from t - l - 1 to t. The placebo takes the
    change from t - l - 2 to t - l - 1 and needs adopt >= cohort + 2.
    Returns ``(estimates, components, placebos)`` keyed by horizon, with
    components as ``(cohort, t, value, n_treated, n_control, weight)``.
    """
    G, T = panel.n_groups, panel.n_periods
    n, y = panel.n, panel.y

    def contrast(c, t, ell, placebo):
        adopters = [g for g in range(G)
                    if cohort[g] == c and adopt[g] == t - ell
                    and adopt[g] >= c + (2 if placebo else 1) and t <= cap[g]]
        controls = [g for g in range(G) if cohort[g] == c and adopt[g] > t]
        if not adopters or not controls:
            return None
        hi, lo = (t - ell - 1, t - ell - 2) if placebo else (t, t - ell - 1)

        def arm(groups):
            size = sum(n[g, t - 1] for g in groups)
            change = sum(n[g, t - 1] * (y[g, hi - 1] - y[g, lo - 1])
                         for g in groups) / size
            return size, change

        (n_tr, dy_tr), (n_co, dy_co) = arm(adopters), arm(controls)
        return n_tr, n_co, dy_tr - dy_co

    estimates, components, placebos = {}, {}, {}
    for ell in range(T):
        effects, pre = [], []
        for c in sorted(set(int(v) for v in cohort)):
            for t in range(1, T + 1):
                r = contrast(c, t, ell, placebo=False)
                if r is not None:
                    effects.append((c, t) + r)
                r = contrast(c, t, ell, placebo=True)
                if r is not None:
                    pre.append(r)
        if effects:
            n_ell = sum(e[2] for e in effects)
            estimates[ell] = sum(e[2] / n_ell * e[4] for e in effects)
            components[ell] = [(c, t, v, n_tr, n_co, n_tr / n_ell)
                               for c, t, n_tr, n_co, v in effects]
        if pre:
            placebos[ell] = (sum(n_tr * v for n_tr, _, v in pre)
                             / sum(n_tr for n_tr, _, _ in pre))
    return estimates, components, placebos


def polyfit_linear_trends(panel, structure, ell):
    """Per-group linear-trend extrapolation, one ``np.polyfit`` per group.

    Every group adopting both treatments, the second at a date F2 with
    F2 + ell <= T, is fit on its outcomes at F1..F2 - 1 with the cell sizes as
    least-squares weights, or dropped if that window has fewer than two
    periods. A fitted group contributes its outcome at F2 + ell minus the
    fitted line there, weighted by its size at that date. Returns
    ``(estimate, contributions, dropped)``, with ``estimate`` None when no
    group is fitted and contributions as ``(group, value, weight)``.
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
        # polyfit weights multiply the residuals, so sqrt(n) minimises
        # the size-weighted sum of squares
        slope, intercept = np.polyfit(periods, panel.y[g, lo - 1:hi], 1,
                                      w=np.sqrt(panel.n[g, lo - 1:hi]))
        predicted = intercept + slope * t_target
        contributions.append((panel.group_labels[g],
                              float(panel.y[g, t_target - 1] - predicted),
                              float(panel.n[g, t_target - 1])))
    if not contributions:
        return None, (), tuple(dropped)
    total = sum(w for _, _, w in contributions)
    estimate = sum(w * v for _, v, w in contributions) / total
    return (float(estimate), tuple((g, v, w / total) for g, v, w in contributions),
            tuple(dropped))
