"""Group-level block bootstrap standard errors.

Groups are resampled with replacement. A replication never copies the panel:
every estimator here is size-weighted and gives copies of a group identical
fixed effects, so a draw is the original panel with each group's cell sizes
multiplied by its number of copies, and undrawn groups at size 0. Each
estimator is one reducer over the original panel's cell keys, evaluated
with one copy of each group for the point estimate and with the draw's
counts for a replication.

Replications where the estimator is undefined (no switcher survives,
collinear treatments, the resampled design loses its cohort structure, the
resampled sizes or sums pass the float range) are excluded from the
standard error and counted; on the original panel the same errors
propagate, so a flawed design reports its own error class and exit code.
Replication r draws from a Philox stream keyed by (seed, r), so the result
is bit-identical whatever the parallelism degree or execution order.

No asymptotic theory backs these standard errors for the switcher and
cohort estimators; they are a pragmatic stand-in and reports label them as
such.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .decomposition import _twfe_reducer, twfe_coefficient
from .didm import _didm_reducer, didm
from .errors import (
    AllReplicationsDegenerate,
    CollinearTreatments,
    DegenerateDenominator,
    HorizonOutOfRange,
    NonFiniteValue,
    PathologicalDesign,
)
from .panel import PanelDataset
from .staggered import _did_ell_reducer, build_cohorts, did_ell

ESTIMATORS = ("twfe", "didm", "did_ell")

# the errors that make a replication degenerate
_DEGENERATE = (CollinearTreatments, DegenerateDenominator, PathologicalDesign,
               HorizonOutOfRange, NonFiniteValue)


@dataclass(frozen=True)
class BootstrapResult:
    estimate: float
    standard_error: float
    n_replications: int
    n_retained: int
    n_degenerate: int
    degenerate_inference: bool  # fewer than two usable replications
    replicates: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "standard_error": self.standard_error,
            "n_replications": self.n_replications,
            "n_retained": self.n_retained,
            "n_degenerate": self.n_degenerate,
            "degenerate_inference": self.degenerate_inference,
            "inference_note": "group block bootstrap, heuristic",
            "replicates": None if self.replicates is None else list(self.replicates),
        }


def _evaluate(panel: PanelDataset, estimator: str, target: int,
              first: int, second: int, ell: int) -> float | None:
    """The estimator through its public function, None where it is undefined.

    This is the copy path: on ``panel.with_groups(draw, labels)`` it gives
    what the count-weighted replication of ``draw`` gives, up to summation
    order.
    """
    if estimator == "twfe":
        return twfe_coefficient(panel, target)
    if estimator == "didm":
        result = didm(panel, target)
        if result.n_s == 0:
            return None
        return result.estimate
    if estimator == "did_ell":
        structure = build_cohorts(panel, first, second)
        est, _ = did_ell(panel, structure, ell)
        return est
    raise ValueError(f"unknown estimator {estimator!r}, expected one of {ESTIMATORS}")


def _reducer(panel: PanelDataset, estimator: str, target: int, first: int,
             second: int, ell: int):
    """The estimator as a function of per-group draw counts (None: the point
    estimate); it returns None where the estimate is undefined."""
    if estimator == "twfe":
        return _twfe_reducer(panel, target)
    if estimator == "didm":
        return _didm_reducer(panel, target)
    return _did_ell_reducer(panel, first, second, ell)


def bootstrap_se(panel: PanelDataset, estimator: str, b: int, seed: int, *,
                 target: int = 0, first: int = 0, second: int = 1, ell: int = 0,
                 parallelism: int = 1, keep_replicates: bool = False) -> BootstrapResult:
    """Point estimate plus block-bootstrap standard error over ``b`` replications."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}, expected one of {ESTIMATORS}")
    if b < 1:
        raise ValueError("b must be >= 1")
    estimate = _reducer(panel, estimator, target, first, second, ell)
    point = estimate(None)
    if point is None:
        raise AllReplicationsDegenerate(
            "the estimator is undefined on the original panel"
        )

    G = panel.n_groups
    group_n = panel.n.sum(axis=1)

    def one(rep: int) -> float | None:
        rng = np.random.Generator(
            np.random.Philox(seed=np.random.SeedSequence((seed, rep)))
        )
        counts = np.bincount(rng.integers(0, G, size=G), minlength=G).astype(float)
        with np.errstate(over="ignore"):
            if not np.isfinite(counts @ group_n):  # a panel PanelDataset refuses
                return None
        try:
            return estimate(counts)
        except _DEGENERATE:
            return None

    if parallelism > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            values = list(pool.map(one, range(b)))
    else:
        values = [one(rep) for rep in range(b)]

    retained = [v for v in values if v is not None]
    if not retained:
        raise AllReplicationsDegenerate(
            f"all {b} replications produced an undefined estimate"
        )
    degenerate = len(retained) < 2
    se = 0.0 if degenerate else float(np.std(retained, ddof=1))
    return BootstrapResult(
        estimate=float(point), standard_error=se, n_replications=b,
        n_retained=len(retained), n_degenerate=b - len(retained),
        degenerate_inference=degenerate,
        replicates=tuple(retained) if keep_replicates else None,
    )
