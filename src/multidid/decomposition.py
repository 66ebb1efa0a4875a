"""Weight diagnostics for two-way fixed-effects regressions with several treatments.

The coefficient on one treatment in a weighted regression of cell outcomes on
group effects, period effects, and K treatments equals a weighted sum of that
treatment's own cell-level effects plus a weighted sum of the other
treatments' effects. The own-effect weights sum to one but may be negative;
the cross-treatment ("contamination") weights sum to zero treatment by
treatment, yet distort the coefficient whenever the other treatments' effects
are heterogeneous. Both sets of weights are functions of the data alone and
are computed here exactly.

Computations run through the Frisch-Waugh route: the target treatment is
residualized on the two-way fixed effects and the other treatments, and the
coefficient is the ratio ``sum(n * eps * y) / sum(n * eps * d_target)``. The
fixed effects are absorbed through the Schur complement of the period block:
the group block of the normal equations is diagonal, so only a (T - 1) x
(T - 1) system is factored, the group effects follow in closed form, and one
iterative-refinement pass follows; the cost is O(G T^2 + T^3). The remaining
treatment block goes through a column-pivoted QR with rank threshold 1e-10
times the largest weighted column norm of the design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CollinearTreatments, DegenerateDenominator
from .panel import PanelDataset

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class FirstStageResult:
    """Residuals of the target treatment on fixed effects and other treatments.

    ``residuals`` has shape (G, T). ``coef_other[j]`` is the coefficient on
    treatment ``j`` (original index) in the partialling regression.
    """

    target: int
    residuals: np.ndarray
    coef_other: dict[int, float]


@dataclass(frozen=True, eq=False)
class WeightDecomposition:
    """Per-cell weights attached to the coefficient on one treatment.

    ``weights`` is the read-only (G, T) grid ``n * eps / sum(n * eps *
    d_target)``. On ``own_support`` (target on) it holds the own weights,
    which sum to one. On ``contamination_support`` (any other treatment
    nonzero) it holds the weights multiplying those treatments' effects;
    summed over the cells with treatment j on, they cancel exactly for every
    j. A cell can be in both supports. ``own`` and ``contamination`` give the
    same weights as ``{(g, t): w}`` mappings in panel order (groups outer,
    periods inner).
    """

    target: int
    beta_fe: float
    weights: np.ndarray
    own_support: np.ndarray
    contamination_support: np.ndarray
    per_other_treatment_sums: dict[int, float]
    group_labels: tuple
    period_labels: tuple

    @property
    def own(self) -> dict[tuple, float]:
        return {(g, t): w for g, t, w in self._cells(self.own_support)}

    @property
    def contamination(self) -> dict[tuple, float]:
        return {(g, t): w for g, t, w in self._cells(self.contamination_support)}

    def _cells(self, mask: np.ndarray) -> list[tuple]:
        """``(g, t, weight)`` for the cells in ``mask``, in panel order."""
        gi, ti = np.nonzero(mask)
        g, t = self.group_labels, self.period_labels
        return [(g[i], t[j], w) for i, j, w in
                zip(gi.tolist(), ti.tolist(), self.weights[mask].tolist())]


@dataclass(frozen=True)
class OtherTreatmentSummary:
    treatment: int
    positive_count: int
    positive_sum: float
    negative_count: int
    negative_sum: float


@dataclass(frozen=True)
class DecompositionSummary:
    """Counts and sums of positive/negative weights, the headline diagnostic.

    Per-treatment contamination splits attribute each contamination cell to
    every other treatment that is on there. When those treatments overlap on
    some cell the attributed splits double count (they are exact only under
    additive effects); ``others_mutually_exclusive`` flags this.
    """

    target: int
    beta_fe: float
    own_positive_count: int
    own_positive_sum: float
    own_negative_count: int
    own_negative_sum: float
    others: tuple[OtherTreatmentSummary, ...]
    others_mutually_exclusive: bool

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "beta_fe": self.beta_fe,
            "own": {
                "positive_count": self.own_positive_count,
                "positive_sum": self.own_positive_sum,
                "negative_count": self.own_negative_count,
                "negative_sum": self.own_negative_sum,
            },
            "others_mutually_exclusive": self.others_mutually_exclusive,
            "contamination_by_treatment": [
                {
                    "treatment": o.treatment,
                    "positive_count": o.positive_count,
                    "positive_sum": o.positive_sum,
                    "negative_count": o.negative_count,
                    "negative_sum": o.negative_sum,
                }
                for o in self.others
            ],
        }


def _two_way_residualize(n: np.ndarray, grids: list[np.ndarray]) -> list[np.ndarray]:
    """Residuals of each grid on the weighted two-way fixed-effect space.

    With the first period's effect fixed at zero, the group block of the
    normal equations is the diagonal of group sizes, so eliminating it leaves
    the (T - 1) x (T - 1) Schur complement ``diag(period sizes) - m' H`` of
    the period block, with ``m`` the sizes of periods 1.. and ``H`` those
    sizes over their group's size. It is factored once (Cholesky); the group
    effects are the group means of ``z`` minus ``H`` times the period effects.
    One refinement pass pushes the weighted orthogonality of the residuals to
    machine precision.
    """
    m = n[:, 1:]
    rows = n.sum(axis=1)
    h = m / rows[:, None]
    cho = scipy.linalg.cho_factor(np.diag(n.sum(axis=0)[1:]) - m.T @ h)

    def fit(z):
        nz = n * z
        a = nz.sum(axis=1) / rows
        b = scipy.linalg.cho_solve(cho, nz.sum(axis=0)[1:] - m.T @ a)
        return (a - h @ b)[:, None] + np.concatenate([[0.0], b])

    out = []
    for z in grids:
        r = z - fit(z)
        r -= fit(r)
        out.append(r)
    return out


def _partial(n: np.ndarray, d: np.ndarray, total_n: float,
             target: int) -> tuple[np.ndarray, dict[int, float]]:
    """:func:`first_stage` on the arrays of a panel: residuals of ``d[target]``
    and the coefficients on the other treatments."""
    K = d.shape[0]
    others = [j for j in range(K) if j != target]
    resid = _two_way_residualize(n, [d[target]] + [d[j] for j in others])
    rt, ro = resid[0], resid[1:]

    sqrtn = np.sqrt(n).ravel()
    # rank threshold is relative to the largest weighted column norm of the
    # full design (the intercept column always attains it for binary data)
    col_norms = [np.sqrt(total_n)]
    col_norms += [float(np.linalg.norm(sqrtn * d[j].ravel())) for j in range(K)]
    tol = RANK_RTOL * max(col_norms)

    coef_other: dict[int, float] = {}
    eps = rt
    if others:
        A = np.column_stack([sqrtn * r.ravel() for r in ro])
        b = sqrtn * rt.ravel()
        q, r_mat, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r_mat))
        rank = int(np.sum(diag > tol))
        if rank < len(others):
            raise CollinearTreatments(
                "other treatments are collinear with the fixed effects or each other"
            )
        zeta_p = scipy.linalg.solve_triangular(r_mat, q.T @ b)
        zeta = np.empty(len(others))
        zeta[piv] = zeta_p
        coef_other = {j: float(z) for j, z in zip(others, zeta)}
        eps = rt - sum(z * r for z, r in zip(zeta, ro))

    if float(np.linalg.norm(sqrtn * eps.ravel())) <= tol:
        raise CollinearTreatments(
            f"treatment {target} is collinear with the other regressors"
        )
    return eps, coef_other


def _coefficient(n: np.ndarray, y: np.ndarray, d_target: np.ndarray,
                 eps: np.ndarray, total_n: float) -> float:
    """``sum(n * eps * y) / sum(n * eps * d_target)``, refusing a numerically
    zero denominator."""
    denom = float(np.sum(n * eps * d_target))
    if abs(denom) < 1e-12 * total_n:
        raise DegenerateDenominator(
            "partialled treatment has numerically zero weighted variance"
        )
    return float(np.sum(n * eps * y)) / denom


def first_stage(panel: PanelDataset, target: int) -> FirstStageResult:
    """Residualize treatment ``target`` on fixed effects and the other treatments.

    The residuals are weighted-least-squares residuals, so their n-weighted
    sums vanish within every group, within every period, and against every
    other treatment included in the regression.
    """
    K = panel.n_treatments
    if not 0 <= target < K:
        raise ValueError(f"target must be in 0..{K - 1}, got {target}")
    eps, coef_other = _partial(panel.n, panel.d, panel.total_n, target)
    return FirstStageResult(target=target, residuals=eps, coef_other=coef_other)


def twfe_coefficient(panel: PanelDataset, target: int,
                     stage: FirstStageResult | None = None) -> float:
    """Coefficient on ``target`` in the weighted two-way fixed-effects regression.

    Computed as ``sum(n * eps * y) / sum(n * eps * d_target)``, identical to
    the coefficient from the full dummy-variable regression.
    """
    if stage is None:
        stage = first_stage(panel, target)
    return _coefficient(panel.n, panel.y, panel.d[target], stage.residuals,
                        panel.total_n)


def _twfe_reducer(panel: PanelDataset, target: int):
    """The TWFE coefficient as a function of per-group draw counts: copies of
    a group get identical fixed effects, so a bootstrap draw is the drawn
    groups with cell sizes ``counts[g] * n`` (None: the panel itself)."""
    def estimate(counts: np.ndarray | None) -> float:
        if counts is None:
            return twfe_coefficient(panel, target)
        drawn = np.flatnonzero(counts)
        n, d = counts[drawn, None] * panel.n[drawn], panel.d[:, drawn]
        total_n = float(np.cumsum(n.ravel())[-1])  # PanelDataset's order
        eps, _ = _partial(n, d, total_n, target)
        return _coefficient(n, panel.y[drawn], d[target], eps, total_n)
    return estimate


def decompose(panel: PanelDataset, target: int) -> WeightDecomposition:
    """Exact per-cell weight decomposition of the coefficient on ``target``.

    Requires binary treatments. The coefficient equals the own-weighted sum
    of the target's effects (at the observed values of the other treatments)
    plus the contamination-weighted sum of the other treatments' effects.
    """
    panel.require_binary("the weight decomposition")
    stage = first_stage(panel, target)
    beta = twfe_coefficient(panel, target, stage)
    ne = panel.n * stage.residuals
    W = ne / float(np.sum(ne * panel.d[target]))
    others = [j for j in range(panel.n_treatments) if j != target]
    own = panel.d[target] > 0.5
    contamination = (panel.d[others] != 0).any(axis=0)
    for a in (W, own, contamination):
        a.setflags(write=False)
    sums = {j: float(np.sum(W * (panel.d[j] > 0.5))) for j in others}
    return WeightDecomposition(target, beta, W, own, contamination, sums,
                               panel.group_labels, panel.period_labels)


def _signed(values: np.ndarray) -> tuple[int, float, int, float]:
    """Count and sum of the positive, then of the negative ``values``."""
    pos, neg = values[values > 0], values[values < 0]
    return pos.size, float(pos.sum()), neg.size, float(neg.sum())


def summarize(decomp: WeightDecomposition, panel: PanelDataset) -> DecompositionSummary:
    """Tabulate positive and negative weights, overall and per other treatment."""
    W, on = decomp.weights, decomp.contamination_support
    others = [j for j in range(panel.n_treatments) if j != decomp.target]
    rows = tuple(OtherTreatmentSummary(j, *_signed(W[on & (panel.d[j] > 0.5)]))
                 for j in others)
    exclusive = bool(np.all((panel.d[others] != 0).sum(axis=0) <= 1))
    return DecompositionSummary(decomp.target, decomp.beta_fe,
                                *_signed(W[decomp.own_support]), rows, exclusive)


def decomposition_report(decomp: WeightDecomposition,
                         summary: DecompositionSummary) -> dict:
    """JSON-ready report: coefficient, per-cell weights, and the summary table.

    Cells are listed in panel order (groups outer, periods inner).
    """
    return {
        "target": decomp.target,
        "beta_fe": decomp.beta_fe,
        "own": [{"g": g, "t": t, "weight": w}
                for g, t, w in decomp._cells(decomp.own_support)],
        "contamination": [{"g": g, "t": t, "weight": w}
                          for g, t, w in decomp._cells(decomp.contamination_support)],
        "summary": summary.to_dict(),
    }


def decomposition_csv_rows(decomp: WeightDecomposition) -> list[tuple]:
    """Flat ``(g, t, role, weight)`` rows, the lossy tabular projection."""
    rows = [(g, t, "own", w) for g, t, w in decomp._cells(decomp.own_support)]
    rows += [(g, t, "contamination", w)
             for g, t, w in decomp._cells(decomp.contamination_support)]
    return rows
