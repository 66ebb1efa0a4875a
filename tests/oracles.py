"""Independent oracle implementations used only by the tests.

Each oracle recomputes a target quantity from first principles over a code
path disjoint from the library's: the regression coefficient comes from one
dense weighted least-squares solve on the explicit dummy design, and the
switcher and event-study estimates from literal transcriptions of their
defining sums, the linear-trend fallback from one ``np.polyfit`` per group,
and the staggered horizon range from a loop over cohorts. The switcher-average
truth is the library's former per-switcher loop over ``find_switchers``, kept
as the reference that the array oracle must equal bit for bit. The bootstrap's
copy path runs the library's public estimators on a panel that holds each
drawn group's copies as groups of their own. The scipy first stage is the
library's former first stage, which called scipy's checked wrappers for one
target at a time, kept as the reference that the direct LAPACK calls must
equal bit for bit. The potential-outcome grid is the library's former
``generate`` arithmetic on normals that numpy draws stream by stream, kept as
the reference that the effect surfaces and the grid built from them must
equal bit for bit.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import scipy.linalg

from multidid import simulate
from multidid.decomposition import twfe_coefficient
from multidid.didm import didm, find_switchers
from multidid.errors import CollinearTreatments, MissingPotentialOutcomes
from multidid.staggered import build_cohorts, did_ell
from multidid.tolerances import RANK_RTOL


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


def cohort_reach(f1, f2):
    """Largest second-treatment horizon estimable inside some cohort, None
    when no cohort is eligible.

    A cohort f is eligible when its groups have at least two distinct
    second-adoption dates after f, T + 1 ("never") counting as one; at its
    first such date a and last b, its adopters reach horizons 0..b - 1 - a.
    """
    reach = []
    for f in np.unique(f1).tolist():
        later = np.unique(f2[(f1 == f) & (f2 > f)])
        if later.size >= 2:
            reach.append(int(later[-1]) - 1 - int(later[0]))
    return max(reach) if reach else None


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


def numpy_stream(seed, stream, *coords):
    """The keyed stream (seed, stream, *coords) as numpy itself builds it."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream, *coords))))


def grid_reference(spec):
    """The (G, T, 2**K) potential-outcome grid ``po[g, t, mask]`` of a static
    spec as ``generate`` stored it before it kept effect surfaces instead:
    every normal drawn by numpy's own ``Generator``, one stream at a time,
    then each mask's surface summed from the baseline treatment by treatment
    in k order, then the interactions in list order."""
    G, T, K = spec.n_groups, spec.n_periods, spec.n_treatments

    def normals(stream, *shape, seed=spec.seed):
        return np.array([numpy_stream(seed, stream, *cell).standard_normal()
                         for cell in product(*map(range, shape))]).reshape(shape)
    periods = np.arange(1, T + 1, dtype=float)
    eta = spec.time_slope * periods + spec.time_curvature * periods ** 2
    if spec.time_sd:
        eta = eta + spec.time_sd * normals(simulate.STREAM_TIME_FE, T)
    base = spec.group_sd * normals(simulate.STREAM_GROUP_FE, G)[:, None] + eta[None, :]
    if spec.noise_sd > 0:
        seed = spec.seed if spec.noise_seed is None else spec.noise_seed
        base = base + spec.noise_sd * normals(simulate.STREAM_NOISE, G, T, seed=seed)
    tau = np.array(spec.base_effects or (0.0,) * K, dtype=float)[:, None, None] \
        + spec.effect_group_sd * normals(simulate.STREAM_EFFECT_GROUP, K, G)[:, :, None] \
        + spec.effect_time_sd * normals(simulate.STREAM_EFFECT_TIME, K, T)[:, None, :]
    po = np.empty((G, T, 1 << K))
    for mask in range(1 << K):
        surf = base.copy()
        for k in range(K):
            if mask >> k & 1:
                surf += tau[k]
        for k, j, coef in spec.interactions:
            if mask >> k & 1 and mask >> j & 1:
                surf += coef
        po[:, :, mask] = surf
    return po


def grid_effects(synthetic, target):
    """``target_effect_grid`` and ``others_effect_grid`` read off ``po``:
    each cell's outcome with the target on and off, the other treatments as
    observed, and with none on."""
    d = synthetic.panel.d
    masks = sum((d[k] > 0.5).astype(np.int64) << k for k in range(len(d)))

    def at(m):
        return np.take_along_axis(synthetic.po, m[:, :, None], axis=2)[:, :, 0]
    on, off = masks | 1 << target, masks & ~(1 << target)
    return at(on) - at(off), at(off) - synthetic.po[:, :, 0]


def potential_outcome(synthetic, gi, ti, d):
    """Outcome of cell (gi, ti) of a static synthetic panel under the binary
    treatment vector ``d``: ``po[gi, ti, mask]``, bit k of mask set when d_k is
    on; MissingPotentialOutcomes without stored outcomes, as the library's
    oracles raise."""
    if synthetic.po is None:
        raise MissingPotentialOutcomes("static potential outcomes are not stored for this panel")
    mask = sum(1 << k for k, v in enumerate(d) if v > 0.5)
    return float(synthetic.po[gi, ti, mask])


def delta_s_reference(synthetic, target):
    """True switcher-average effect, one ``potential_outcome`` pair per switcher.

    The switchers are ``find_switchers``' cells, in (period, group) order;
    each adds n times its effect of moving the target between its observed
    endpoint values, other treatments at their observed values, per unit of
    the move, summed left to right from 0.0 and divided by n_s. Zero when the
    set is empty.
    """
    panel = synthetic.panel
    switchers = find_switchers(panel, target)
    if switchers.n_s == 0:
        return 0.0
    total = 0.0
    for cell in switchers.cells:
        gi = panel.group_index(cell.group)
        ti = panel.period_index(cell.period)
        d_obs = panel.d[:, gi, ti].copy()
        d_hi = d_obs.copy()
        d_hi[target] = cell.target_to
        d_lo = d_obs.copy()
        d_lo[target] = cell.target_from
        effect = potential_outcome(synthetic, gi, ti, d_hi) \
            - potential_outcome(synthetic, gi, ti, d_lo)
        total += cell.n * effect / (cell.target_to - cell.target_from)
    return float(total / switchers.n_s)


def copy_path_estimate(panel, estimator, target, first, second, ell):
    """The bootstrap estimator through its public function, None where it is
    undefined: on ``panel.with_groups(draw, labels)`` it gives what the
    count-weighted replication of ``draw`` gives, up to summation order."""
    if estimator == "twfe":
        return twfe_coefficient(panel, target)
    if estimator == "didm":
        result = didm(panel, target)
        return result.estimate if result.n_s else None
    estimate, _ = did_ell(panel, build_cohorts(panel, first, second), ell)
    return estimate


def scipy_first_stage(panel, target):
    """``(eps, coef_other)`` of ``first_stage(panel, target)`` through
    ``scipy.linalg``'s cho_factor, cho_solve and solve_triangular, each
    target residualizing every treatment anew."""
    n, d = panel.n, panel.d
    m, rows = n[:, 1:], n.sum(axis=1)
    h = m / rows[:, None]
    cho = scipy.linalg.cho_factor(np.diag(n.sum(axis=0)[1:]) - m.T @ h)

    def fit(z):
        nz = n * z
        a = nz.sum(axis=1) / rows
        b = scipy.linalg.cho_solve(cho, nz.sum(axis=0)[1:] - m.T @ a)
        return (a - h @ b)[:, None] + np.concatenate([[0.0], b])

    def residualize(z):
        r = z - fit(z)
        return r - fit(r)

    others = [j for j in range(panel.n_treatments) if j != target]
    rt, ro = residualize(d[target]), [residualize(d[j]) for j in others]
    sqrtn = np.sqrt(n).ravel()
    tol = RANK_RTOL * max([np.sqrt(panel.total_n)]
                          + [float(np.linalg.norm(sqrtn * dj.ravel())) for dj in d])
    coef_other, eps = {}, rt
    if others:
        A = np.column_stack([sqrtn * r.ravel() for r in ro])
        q, r_mat, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
        if int(np.sum(np.abs(np.diag(r_mat)) > tol)) < len(others):
            raise CollinearTreatments("other treatments are collinear")
        zeta = np.empty(len(others))
        zeta[piv] = scipy.linalg.solve_triangular(r_mat, q.T @ (sqrtn * rt.ravel()))
        coef_other = {j: float(z) for j, z in zip(others, zeta)}
        eps = rt - sum(z * r for z, r in zip(zeta, ro))
    if float(np.linalg.norm(sqrtn * eps.ravel())) <= tol:
        raise CollinearTreatments("target is collinear")
    return eps, coef_other
