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
fixed-effect projection is solved from its (G + T - 1) normal equations with
one iterative-refinement pass, and the remaining treatment block goes through
a column-pivoted QR with rank threshold 1e-10 times the largest weighted
column norm of the design.
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


@dataclass(frozen=True)
class WeightDecomposition:
    """Per-cell weights attached to the coefficient on one treatment.

    ``own`` maps treated cells (target on) to their normalized weight; these
    sum to one. ``contamination`` maps cells where any other treatment is
    nonzero to the weight multiplying those treatments' effects; summed over
    the cells with treatment j on, they cancel exactly for every j. A cell
    can appear in both mappings.
    """

    target: int
    beta_fe: float
    own: dict[tuple, float]
    contamination: dict[tuple, float]
    per_other_treatment_sums: dict[int, float]


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


def _fit_two_way(n: np.ndarray, z: np.ndarray, cho) -> np.ndarray:
    """Weighted projection of grid ``z`` onto group + period effects."""
    G, T = z.shape
    rhs = np.concatenate([(n * z).sum(axis=1), (n * z).sum(axis=0)[1:]])
    coef = scipy.linalg.cho_solve(cho, rhs)
    gamma = coef[:G]
    nu = np.concatenate([[0.0], coef[G:]])
    return gamma[:, None] + nu[None, :]


def _two_way_residualize(n: np.ndarray, grids: list[np.ndarray]) -> list[np.ndarray]:
    """Residuals of each grid on the weighted two-way fixed-effect space.

    Solves the normal equations of the (G + T - 1)-parameter dummy design
    once (Cholesky) and applies one refinement pass, which pushes the
    weighted orthogonality of the residuals to machine precision.
    """
    G, T = n.shape
    M = np.zeros((G + T - 1, G + T - 1))
    M[:G, :G] = np.diag(n.sum(axis=1))
    M[G:, G:] = np.diag(n.sum(axis=0)[1:])
    M[:G, G:] = n[:, 1:]
    M[G:, :G] = n[:, 1:].T
    cho = scipy.linalg.cho_factor(M)
    out = []
    for z in grids:
        r = z - _fit_two_way(n, z, cho)
        r -= _fit_two_way(n, r, cho)
        out.append(r)
    return out


def first_stage(panel: PanelDataset, target: int) -> FirstStageResult:
    """Residualize treatment ``target`` on fixed effects and the other treatments.

    The residuals are weighted-least-squares residuals, so their n-weighted
    sums vanish within every group, within every period, and against every
    other treatment included in the regression.
    """
    K = panel.n_treatments
    if not 0 <= target < K:
        raise ValueError(f"target must be in 0..{K - 1}, got {target}")
    n = panel.n
    others = [j for j in range(K) if j != target]
    grids = [panel.d[target]] + [panel.d[j] for j in others]
    resid = _two_way_residualize(n, grids)
    rt, ro = resid[0], resid[1:]

    sqrtn = np.sqrt(n).ravel()
    # rank threshold is relative to the largest weighted column norm of the
    # full design (the intercept column always attains it for binary data)
    col_norms = [np.sqrt(panel.total_n)]
    col_norms += [float(np.linalg.norm(sqrtn * panel.d[j].ravel())) for j in range(K)]
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
    return FirstStageResult(target=target, residuals=eps, coef_other=coef_other)


def twfe_coefficient(panel: PanelDataset, target: int,
                     stage: FirstStageResult | None = None) -> float:
    """Coefficient on ``target`` in the weighted two-way fixed-effects regression.

    Computed as ``sum(n * eps * y) / sum(n * eps * d_target)``, identical to
    the coefficient from the full dummy-variable regression.
    """
    if stage is None:
        stage = first_stage(panel, target)
    eps = stage.residuals
    denom = float(np.sum(panel.n * eps * panel.d[target]))
    if abs(denom) < 1e-12 * panel.total_n:
        raise DegenerateDenominator(
            "partialled treatment has numerically zero weighted variance"
        )
    return float(np.sum(panel.n * eps * panel.y)) / denom


def decompose(panel: PanelDataset, target: int) -> WeightDecomposition:
    """Exact per-cell weight decomposition of the coefficient on ``target``.

    Requires binary treatments. The coefficient equals the own-weighted sum
    of the target's effects (at the observed values of the other treatments)
    plus the contamination-weighted sum of the other treatments' effects.
    """
    panel.require_binary("the weight decomposition")
    stage = first_stage(panel, target)
    eps = stage.residuals
    n = panel.n
    n_k = panel.treated_count(target)
    treated = panel.d[target] > 0.5
    denom_avg = float(np.sum((n / n_k) * eps * treated))
    if abs(denom_avg) < 1e-12:
        raise DegenerateDenominator(
            "average residual over treated cells is numerically zero"
        )
    w = eps / denom_avg
    W = (n / n_k) * w
    beta = twfe_coefficient(panel, target, stage)

    others = [j for j in range(panel.n_treatments) if j != target]
    any_other = (panel.d[others] != 0).any(axis=0)

    own: dict[tuple, float] = {}
    contamination: dict[tuple, float] = {}
    for gi, g in enumerate(panel.group_labels):
        for ti, t in enumerate(panel.period_labels):
            if treated[gi, ti]:
                own[(g, t)] = float(W[gi, ti])
            if any_other[gi, ti]:
                contamination[(g, t)] = float(W[gi, ti])

    sums = {j: float(np.sum(W * (panel.d[j] > 0.5))) for j in others}
    return WeightDecomposition(target=target, beta_fe=beta, own=own,
                               contamination=contamination,
                               per_other_treatment_sums=sums)


def summarize(decomp: WeightDecomposition, panel: PanelDataset) -> DecompositionSummary:
    """Tabulate positive and negative weights, overall and per other treatment."""
    own_vals = np.array(list(decomp.own.values())) if decomp.own else np.empty(0)
    pos = own_vals > 0
    neg = own_vals < 0
    others = [j for j in range(panel.n_treatments) if j != decomp.target]

    rows = []
    for j in others:
        vals = [wv for (g, t), wv in decomp.contamination.items()
                if panel.d[j, panel.group_index(g), panel.period_index(t)] > 0.5]
        arr = np.array(vals) if vals else np.empty(0)
        rows.append(OtherTreatmentSummary(
            treatment=j,
            positive_count=int(np.sum(arr > 0)),
            positive_sum=float(arr[arr > 0].sum()) if arr.size else 0.0,
            negative_count=int(np.sum(arr < 0)),
            negative_sum=float(arr[arr < 0].sum()) if arr.size else 0.0,
        ))

    exclusive = bool(np.all((panel.d[others] != 0).sum(axis=0) <= 1))

    return DecompositionSummary(
        target=decomp.target,
        beta_fe=decomp.beta_fe,
        own_positive_count=int(np.sum(pos)),
        own_positive_sum=float(own_vals[pos].sum()) if own_vals.size else 0.0,
        own_negative_count=int(np.sum(neg)),
        own_negative_sum=float(own_vals[neg].sum()) if own_vals.size else 0.0,
        others=tuple(rows),
        others_mutually_exclusive=exclusive,
    )


def decomposition_report(decomp: WeightDecomposition,
                         summary: DecompositionSummary) -> dict:
    """JSON-ready report: coefficient, per-cell weights, and the summary table.

    Cells are listed in panel order (groups outer, periods inner), the order
    the mappings were built in.
    """
    return {
        "target": decomp.target,
        "beta_fe": decomp.beta_fe,
        "own": [{"g": g, "t": t, "weight": wv} for (g, t), wv in decomp.own.items()],
        "contamination": [{"g": g, "t": t, "weight": wv}
                          for (g, t), wv in decomp.contamination.items()],
        "summary": summary.to_dict(),
    }


def decomposition_csv_rows(decomp: WeightDecomposition) -> list[tuple]:
    """Flat ``(g, t, role, weight)`` rows, the lossy tabular projection."""
    rows = [(g, t, "own", wv) for (g, t), wv in decomp.own.items()]
    rows += [(g, t, "contamination", wv) for (g, t), wv in decomp.contamination.items()]
    return rows
