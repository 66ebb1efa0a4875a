"""Mutation checks of the estimator kernels.

Each mutant rewrites one function of ``multidid`` by one edit of its
source and puts it, for the test's duration, wherever the package binds that
function. The named fast tests then run in this process, and at least one of
them must fail: a mutant they all survive marks a kernel whose behaviour no
fast test pins. Each edit must match its function's source exactly once, so
a kernel that is rewritten fails here until its mutant is rewritten too.
"""

import __future__
import importlib
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

# by import path: the package's name ``didm`` is the estimator function
bootstrap, decomposition, didm, panel, staggered = (
    importlib.import_module(f"multidid.{name}")
    for name in ("bootstrap", "decomposition", "didm", "panel", "staggered"))

HERE = Path(__file__).resolve().parent

# name: (module, function, source text, its mutation, tests that must catch it)
MUTANTS = {
    "running sum adds right to left": (
        panel, "_running_sum", "values)))", "values[::-1])))",
        ["test_staggered.py::test_horizon_totals_run_left_to_right",
         "test_panel.py::test_total_n_matches_fixed_order_sum"]),
    "didm ignores the draw counts": (
        didm, "_reduce", "counts[strata.cells % strata.panel.n_groups]",
        "np.ones(strata.cells.size)",
        ["test_bootstrap.py::test_didm_empty_switchers_excluded",
         "test_bootstrap.py::test_count_weighted_replicates_match_the_copy_path"]),
    "an adopter on its adoption date is a control": (
        staggered, "_cells", "adopt[:, None] > dates", "adopt[:, None] >= dates",
        ["test_staggered.py::test_did_ell_fixture_values",
         "test_staggered.py::test_event_studies_match_brute_force_oracle"]),
    "did_ell draws take the control sizes without the counts": (
        staggered, "_did_ell_reducer", "counts[g_co] * n_co", "n_co",
        ["test_bootstrap.py::test_count_weighted_did_ell_replicates_match_the_copy_path",
         "test_properties.py::test_did_ell_reducer_is_the_event_study_table"]),
    "did_ell draws take the control change at lag ell": (
        staggered, "_did_ell_reducer", "control - ell - 1", "control - ell",
        ["test_bootstrap.py::test_count_weighted_did_ell_replicates_match_the_copy_path",
         "test_properties.py::test_did_ell_reducer_is_the_event_study_table"]),
    "a group adopting the second treatment first is accepted": (
        staggered, "_adoption_pair", "if ordered and", "if False and",
        ["test_staggered.py::test_second_before_first_wrong_order"]),
    "the unordered studies refuse the second treatment first": (
        staggered, "_adoption_pair", "if ordered and", "if True and",
        ["test_staggered.py::test_unordered_callers_accept_either_order",
         "test_staggered.py::test_split_by_order_partition"]),
    "fixed effects without the refinement pass": (
        decomposition, "_two_way_residualize", "r -= fit(r)", "pass",
        ["test_decomposition.py::test_orthogonality_invariants_random_panels",
         "test_decomposition.py::test_orthogonality_with_cell_sizes_over_twelve_decades"]),
    "twfe draws build the Schur complement without the counts": (
        decomposition, "_draw", "(counts / sizes)", "(1 / sizes)",
        ["test_bootstrap.py::test_count_weighted_replicates_match_the_copy_path",
         "test_report_digests.py::test_bootstrap_twfe_replicates_stay_within_1e_12"]),
    "twfe draws without the cancellation margin": (
        decomposition, "_draw", "CANCEL_RTOL * np.diag(p)", "0 * np.diag(p)",
        ["test_twfe_draws.py::test_draws_near_a_threshold_are_refitted"]),
    "stayers matched on the target's previous value alone": (
        didm, "_strata", "columns = [*before[others][:, still], before[target, still]]",
        "columns = [before[target, still]]",
        ["test_didm.py::test_didm_hand_value",
         "test_didm.py::test_brute_force_equivalence_random_panels"]),
    "the coefficient ignores the cell sizes": (
        decomposition, "_coefficient", "ne = n * eps", "ne = eps",
        ["test_decomposition.py::test_frisch_waugh_equivalence_random_panels",
         "test_decomposition.py::test_decomposition_identity_noiseless"]),
    "the first stage takes another target's residuals": (
        decomposition, "_partial", "rt = resid[target]", "rt = resid[target - 1]",
        ["test_decomposition.py::test_first_stage_residuals_four_group",
         "test_decomposition.py::test_fixed_effects_are_fit_once_per_panel"]),
    "the horizon range one past its last cohort contrast": (
        staggered, "build_cohorts", ".max()) - 1", ".max())",
        ["test_staggered.py::test_cohort_structure_fixture",
         "test_staggered.py::test_oracle_identity_random_noiseless"]),
    "numpy's labels parsed as floats and truncated to int64": (
        panel, "_read_plain", "rows = table(np.int64)",
        "rows = table(float).astype([(str(j), np.int64 if j in fields[:2] else float)"
        " for j in used])",
        ["test_panel.py::test_equal_labels_keep_the_first_spelling",
         "test_panel.py::test_csv_round_trip_exact"]),
    "components sliced from the wrong horizon": (
        staggered, "DynamicEffectResult", "tuple(records[i:k])", "tuple(records[k:2 * k - i])",
        ["test_staggered.py::test_event_studies_match_brute_force_oracle",
         "test_properties.py::test_event_study_reports_are_encoded_to_dicts"]),
    "a linear-trend horizon that keeps a group outside its reach": (
        staggered, "did_ell_linear_trends", "f2[fit] + ell <= T", "f2[fit] <= T",
        ["test_staggered.py::test_linear_trends_past_the_in_cohort_range",
         "test_properties.py::test_linear_trends_match_the_polyfit_oracle"]),
    "every replication draws replication 0's stream": (
        bootstrap, "bootstrap_se", "SeedSequence((seed, rep))", "SeedSequence((seed, 0))",
        ["test_bootstrap.py::test_didm_empty_switchers_excluded",
         "test_report_digests.py"]),
}


def _mutate(monkeypatch, module, name: str, old: str, new: str) -> None:
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"{module.__name__}.{name} no longer holds {old!r}"
    namespace = dict(vars(module))
    # a file name of its own keeps a line trace of the package off the mutant
    exec(compile(source.replace(old, new), f"<mutant of {module.__name__}.{name}>", "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    for bound in list(sys.modules.values()):
        if (getattr(bound, "__name__", "").startswith("multidid")
                and getattr(bound, name, None) is original):
            monkeypatch.setattr(bound, name, namespace[name])


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(monkeypatch, mutant):
    module, name, old, new, tests = MUTANTS[mutant]
    _mutate(monkeypatch, module, name, old, new)
    code = pytest.main([*(str(HERE / t) for t in tests), "-q", "-x", "-p", "no:cacheprovider"])
    assert code == pytest.ExitCode.TESTS_FAILED, f"no named test caught: {mutant}"
