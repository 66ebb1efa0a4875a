"""Diagnostics and heterogeneity-robust estimators for panel regressions
with several treatments.

The package covers three jobs. First, it decomposes the coefficient each
treatment gets in a two-way fixed-effects regression into exact per-cell
weights, separating own-effect weights (which sum to one but can be negative)
from contamination weights on the other treatments' effects (which sum to
zero treatment by treatment). Second, it computes a switcher-versus-stayer
estimator that is robust to heterogeneous effects and immune to that
contamination. Third, for two staggered treatments adopted consecutively, it
estimates dynamic effects of each treatment with cohort-matched event studies
and placebo checks.
"""

from .bootstrap import BootstrapResult, bootstrap_se
from .decomposition import (
    DecompositionSummary,
    FirstStageResult,
    WeightDecomposition,
    decompose,
    decomposition_report,
    first_stage,
    summarize,
    twfe_coefficient,
)
from .didm import DidmResult, SwitcherSet, delta_s_oracle, didm, find_switchers
from .errors import InvalidEncoding, MultiDidError
from .panel import (
    PanelDataset,
    aggregate_micro,
    load_panel,
    read_panel_csv,
    write_panel_csv,
)
from .simulate import (
    DgpSpec,
    SyntheticPanel,
    decomposition_rhs,
    delta_ell_oracle,
    generate,
)
from .staggered import (
    CohortStructure,
    DynamicEffectResult,
    OrderPartition,
    build_cohorts,
    combined_effects,
    did_ell,
    did_ell_linear_trends,
    first_treatment_effects,
    placebo_ell,
    second_treatment_effects,
    split_by_order,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapResult",
    "CohortStructure",
    "DecompositionSummary",
    "DgpSpec",
    "DidmResult",
    "DynamicEffectResult",
    "FirstStageResult",
    "InvalidEncoding",
    "MultiDidError",
    "OrderPartition",
    "PanelDataset",
    "SwitcherSet",
    "SyntheticPanel",
    "WeightDecomposition",
    "aggregate_micro",
    "bootstrap_se",
    "build_cohorts",
    "combined_effects",
    "decompose",
    "decomposition_report",
    "decomposition_rhs",
    "delta_ell_oracle",
    "delta_s_oracle",
    "did_ell",
    "did_ell_linear_trends",
    "didm",
    "find_switchers",
    "first_stage",
    "first_treatment_effects",
    "generate",
    "load_panel",
    "placebo_ell",
    "read_panel_csv",
    "second_treatment_effects",
    "split_by_order",
    "summarize",
    "twfe_coefficient",
    "write_panel_csv",
]
