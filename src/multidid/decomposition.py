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
treatment block goes through a column-pivoted QR with rank threshold
``RANK_RTOL`` times the largest weighted column norm of the design. Both
steps call the LAPACK routines of scipy's compiled ``scipy.linalg._flapack``
as scipy's wrappers call them, so results keep scipy's bits. The first fit
loads that one module, not the ``scipy.linalg`` package (0.3 s and 28 MB on
a 2-core machine); a process that never fits fixed effects loads no scipy.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from itertools import compress, repeat

import numpy as np

from .errors import CollinearTreatments, DegenerateDenominator, NonFiniteValue, NumericallySingular
from .panel import PanelDataset, _running_sum
from .tolerances import DENOM_RTOL, RANK_RTOL

# no indent keeps json on its C encoder; the separators are json.dumps' own
_ENCODER = json.JSONEncoder(default=str, allow_nan=False)


def encode_json(value) -> str:
    """``json.dumps(value, default=str)``, refusing NaN and infinity: the one
    encoder of every JSON report."""
    try:
        return _ENCODER.encode(value)
    except ValueError as exc:  # on a tree, json raises it only for allow_nan
        raise NonFiniteValue(f"report holds a non-finite number ({exc})") from None


def _json_rows(*columns) -> list[str]:
    """Rows of JSON text, joined from one piece per column: a str column's
    text; for a ``(template, labels, codes)`` column, ``template % text`` of
    the :func:`encode_json` text of ``labels[codes[i]]``, each label encoded
    once and the pieces gathered through a numpy object array; a float
    array's ``float.__repr__``, json's spelling of a finite float, after one
    ``np.isfinite`` check."""
    pieces = []
    for column in columns:
        if isinstance(column, str):
            pieces.append(repeat(column))
        elif isinstance(column, tuple):
            template, labels, codes = column
            texts = np.array([template % encode_json(v) for v in labels], dtype=object)
            pieces.append(texts[codes])  # zipped as is: a list copy raised peak RSS
        elif not (finite := np.isfinite(column)).all():
            bad = float(column[~finite][0])
            raise NonFiniteValue(f"report holds a non-finite number ({bad!r})")
        else:
            pieces.append(map(float.__repr__, column.tolist()))
    return list(map("".join, zip(*pieces)))


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
            "contamination_by_treatment": list(map(asdict, self.others)),
        }


@cache
def _flapack():
    """scipy's compiled LAPACK module, loaded once per process: the one that
    ``scipy.linalg`` bound if it is imported, else the module loaded from its
    file after the top-level ``scipy`` package has set up scipy's libraries."""
    name = "scipy.linalg._flapack"
    if "scipy.linalg" in sys.modules:
        return sys.modules[name]
    import scipy
    spec = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                      (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # loading registers it; left there, a later ``import scipy.linalg`` would not
    # bind it, while that import's fresh load of the file shares these routines
    sys.modules.pop(name, None)
    return module


def _lapack(routine, *args, **kwargs):
    """A LAPACK routine's outputs before ``info``, a lone one unwrapped; its
    failure raises NumericallySingular."""
    *out, info = routine(*args, **kwargs)
    if info:
        raise NumericallySingular(f"LAPACK reported failure {info}: the weighted "
                                  "design is numerically singular")
    return out[0] if len(out) == 1 else out


def _queried(routine, *args, **kwargs):
    """:func:`_lapack` with ``lwork`` taken from a workspace query's
    ``work[0]``, as scipy's ``safecall`` takes it."""
    lwork = routine(*args, lwork=-1, **kwargs)[-2][0]
    return _lapack(routine, *args, lwork=int(lwork), **kwargs)


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``scipy.linalg.qr(a, mode="economic", pivoting=True)``: Q, R and the
    0-based column pivots, from the LAPACK calls it makes with its arguments."""
    lapack, a = _flapack(), np.asarray_chkfinite(a)
    k = min(a.shape)
    qr, jpvt, tau, _ = _queried(lapack.dgeqp3, a, overwrite_a=0)
    r = np.triu(qr[:k])  # before dorgqr overwrites qr with Q
    q, _ = _queried(lapack.dorgqr, qr[:, :k], tau, overwrite_a=1)
    return q, r, jpvt - 1


def _two_way_residualize(n: np.ndarray, d: np.ndarray, total_n: float,
                         names: tuple) -> tuple[list[np.ndarray], float]:
    """The first stage's part that no target changes: each treatment grid's
    read-only residuals on the weighted two-way fixed-effect space, and the
    rank threshold.

    With the first period's effect fixed at zero, the group block of the
    normal equations is the diagonal of group sizes, so eliminating it leaves
    the (T - 1) x (T - 1) Schur complement ``diag(period sizes) - m' H`` of
    the period block, with ``m`` the sizes of periods 1.. and ``H`` those
    sizes over their group's size. It is factored once (Cholesky); the group
    effects are the group means of ``z`` minus ``H`` times the period effects.
    One refinement pass pushes the weighted orthogonality of the residuals to
    machine precision. The threshold scales the largest weighted column norm
    of the design (the intercept's, for binary data). A grid or norm past the
    float range raises NonFiniteValue naming its treatment in ``names``.
    """
    lapack = _flapack()
    m = n[:, 1:]
    rows = n.sum(axis=1)
    h = m / rows[:, None]
    # the arguments that scipy's cho_factor and cho_solve pass
    cho = _lapack(lapack.dpotrf, np.diag(n.sum(axis=0)[1:]) - m.T @ h, clean=0)

    def fit(z):
        nz = n * z
        a = nz.sum(axis=1) / rows
        b = _lapack(lapack.dpotrs, cho, nz.sum(axis=0)[1:] - m.T @ a)
        return (a - h @ b)[:, None] + np.concatenate([[0.0], b])

    sqrtn, out, norms = np.sqrt(n).ravel(), [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for name, z in zip(names, d):
            r = z - fit(z)
            r -= fit(r)
            norms.append(float(np.linalg.norm(sqrtn * z.ravel())))
            if not (np.isfinite(norms[-1]) and np.isfinite(r).all()):
                raise NonFiniteValue(f"the fixed-effect fit of treatment {name} overflows")
            r.setflags(write=False)
            out.append(r)
    return out, RANK_RTOL * max(np.sqrt(total_n), *norms)


def _partial(n: np.ndarray, resid: list[np.ndarray], tol: float, target: int,
             names: tuple) -> tuple[np.ndarray, dict[int, float]]:
    """Residuals of treatment ``target`` on the two-way fixed effects and the
    other treatments, and the coefficients on those, from ``resid, tol`` of
    :func:`_two_way_residualize`."""
    others = [j for j in range(len(resid)) if j != target]
    rt = resid[target]
    sqrtn = np.sqrt(n).ravel()
    coef_other: dict[int, float] = {}
    eps = rt
    if others:
        A = np.column_stack([sqrtn * resid[j].ravel() for j in others])
        b = sqrtn * rt.ravel()
        q, r_mat, piv = _pivoted_qr(A)
        diag = np.abs(np.diag(r_mat))
        rank = int(np.sum(diag > tol))
        if rank < len(others):
            raise CollinearTreatments(
                "other treatments are collinear with the fixed effects or each other"
            )
        # as solve_triangular passes the C-ordered R that qr returns
        zeta_p = _lapack(_flapack().dtrtrs, r_mat.T, q.T @ b, lower=1, trans=1)
        zeta = np.empty(len(others))
        zeta[piv] = zeta_p
        coef_other = {j: float(z) for j, z in zip(others, zeta)}
        eps = rt - sum(z * resid[j] for z, j in zip(zeta, others))

    if float(np.linalg.norm(sqrtn * eps.ravel())) <= tol:
        raise CollinearTreatments(
            f"treatment {names[target]} is collinear with the other regressors"
        )
    return eps, coef_other


def _coefficient(n: np.ndarray, y: np.ndarray, d_target: np.ndarray,
                 eps: np.ndarray, total_n: float) -> float:
    """``sum(n * eps * y) / sum(n * eps * d_target)``, refusing a numerically
    zero denominator and sums past the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        ne = n * eps
        denom = float(np.sum(ne * d_target))
        numer = float(np.sum(ne * y))
    if abs(denom) < DENOM_RTOL * total_n:
        raise DegenerateDenominator(
            "partialled treatment has numerically zero weighted variance"
        )
    if not (np.isfinite(denom) and np.isfinite(numer)):
        raise NonFiniteValue(f"sum(n * eps * {'y' if np.isfinite(denom) else 'd'}) overflows")
    return numer / denom


def first_stage(panel: PanelDataset, target: int) -> FirstStageResult:
    """Residualize treatment ``target`` on fixed effects and the other treatments.

    The residuals are weighted-least-squares residuals, so their n-weighted
    sums vanish within every group, within every period, and against every
    other treatment included in the regression.
    """
    panel.check_treatment(target)
    if panel._first_stage is None:  # no target changes it; see PanelDataset
        panel._first_stage = _two_way_residualize(panel.n, panel.d, panel.total_n,
                                                  panel.treatment_names)
    eps, coef_other = _partial(panel.n, *panel._first_stage, target, panel.treatment_names)
    return FirstStageResult(target=target, residuals=eps, coef_other=coef_other)


def twfe_coefficient(panel: PanelDataset, target: int) -> float:
    """Coefficient on ``target`` in the weighted two-way fixed-effects regression.

    Computed as ``sum(n * eps * y) / sum(n * eps * d_target)``, identical to
    the coefficient from the full dummy-variable regression: the bootstrap's
    reducer at one copy of each group, as its replicates are.
    """
    return _twfe_reducer(panel, target)(np.ones(panel.n_groups))


def _twfe_reducer(panel: PanelDataset, target: int):
    """The TWFE coefficient as a function of per-group draw counts: copies of
    a group get identical fixed effects, so a bootstrap draw is the drawn
    groups with cell sizes ``counts[g] * n``."""
    panel.check_treatment(target)

    def estimate(counts: np.ndarray) -> float:
        drawn = np.flatnonzero(counts)
        n, d = counts[drawn, None] * panel.n[drawn], panel.d[:, drawn]
        total_n = _running_sum(n.ravel())
        shared = _two_way_residualize(n, d, total_n, panel.treatment_names)
        eps, _ = _partial(n, *shared, target, panel.treatment_names)
        return _coefficient(n, panel.y[drawn], d[target], eps, total_n)
    return estimate


def decompose(panel: PanelDataset, target: int) -> WeightDecomposition:
    """Exact per-cell weight decomposition of the coefficient on ``target``.

    Requires binary treatments. The coefficient equals the own-weighted sum
    of the target's effects (at the observed values of the other treatments)
    plus the contamination-weighted sum of the other treatments' effects.
    """
    panel.require_binary()
    stage = first_stage(panel, target)
    beta = _coefficient(panel.n, panel.y, panel.d[target], stage.residuals, panel.total_n)
    ne = panel.n * stage.residuals
    W = ne / float(np.sum(ne * panel.d[target]))
    others = [j for j in range(panel.n_treatments) if j != target]
    own = panel.d[target] > 0.5
    contamination = (panel.d[others] != 0).any(axis=0)
    for a in (W, own, contamination):
        a.setflags(write=False)
    return WeightDecomposition(target, beta, W, own, contamination,
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


def decomposition_report_json(decomp: WeightDecomposition,
                              summary: DecompositionSummary) -> dict[str, str]:
    """:func:`decomposition_report` with each value as its :func:`encode_json`
    text, the cell tables written straight from the weight grid; the command
    line writes the texts a field at a time.

    The rows ``{"g": <g>, "t": <t>, "weight": <w>}`` of the cells in either
    support come from :func:`_json_rows`, each table takes its rows by mask.
    """
    cells = decomp.own_support | decomp.contamination_support
    gi, ti = np.nonzero(cells)
    rows = _json_rows(('{"g": %s, "t": ', decomp.group_labels, gi),
                      ('%s, "weight": ', decomp.period_labels, ti), decomp.weights[cells], "}")
    own, contamination = ("[" + ", ".join(compress(rows, mask[cells].tolist())) + "]"
                          for mask in (decomp.own_support, decomp.contamination_support))
    return {"target": encode_json(decomp.target), "beta_fe": encode_json(decomp.beta_fe),
            "own": own, "contamination": contamination,
            "summary": encode_json(summary.to_dict())}


def decomposition_csv_rows(decomp: WeightDecomposition) -> list[tuple]:
    """Flat ``(g, t, role, weight)`` rows, the lossy tabular projection."""
    return [(g, t, role, w) for role, mask in (("own", decomp.own_support),
                                               ("contamination", decomp.contamination_support))
            for g, t, w in decomp._cells(mask)]
