"""Which ``multidid`` functions the traced run wraps, and the per-layer
metrics computed from their spans.

Each target is wrapped under the name the calling module looks it up by, so
``multidid.cli.decompose`` and ``multidid.decomposition.decompose`` are
separate targets feeding one span name. A span name belongs to exactly one
layer metric through ``SELF_TIME``; the self times of all spans therefore
add up, with the parallel overlap of bootstrap workers taken out, to the
traced pass time not spent in benchmark glue.
"""

from __future__ import annotations

import importlib
import statistics

from spans import Tracer, self_times

MODULES = {m: importlib.import_module(f"multidid.{m}") for m in (
    "cli", "panel", "decomposition", "didm", "staggered", "simulate", "bootstrap")}


def _rows(args, kwargs, result):
    return {"rows": result.n_groups * result.n_periods}


def _cells(args, kwargs, result):
    return {"cells": result.panel.n_groups * result.panel.n_periods}


def _switching(args, kwargs, result):
    return {"kept": len(result.cells), "switching": len(result.cells) + len(result.dropped)}


def _replications(args, kwargs, result):
    return {"replications": result.n_replications, "retained": result.n_retained}


# (module, attribute, span name, counter); "PanelDataset.with_groups" is a
# method on the panel class
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "read_panel_csv", "panel.read_panel_csv", _rows),
    ("cli", "decompose", "decomposition.decompose", None),
    ("cli", "summarize", "decomposition.summarize", None),
    ("cli", "decomposition_report", "decomposition.decomposition_report", None),
    ("cli", "didm", "didm.didm", None),
    ("cli", "second_treatment_effects", "staggered.event_study", None),
    ("cli", "first_treatment_effects", "staggered.event_study", None),
    ("cli", "combined_effects", "staggered.event_study", None),
    ("cli", "build_cohorts", "staggered.build_cohorts", None),
    ("cli", "did_ell_linear_trends", "staggered.did_ell_linear_trends", None),
    ("cli", "split_by_order", "staggered.split_by_order", None),
    ("cli", "bootstrap_se", "bootstrap.bootstrap_se", _replications),
    ("panel", "PanelDataset.with_groups", "panel.with_groups", None),
    ("decomposition", "first_stage", "decomposition.first_stage", None),
    ("decomposition", "decompose", "decomposition.decompose", None),
    ("decomposition", "summarize", "decomposition.summarize", None),
    ("didm", "didm", "didm.didm", None),
    ("didm", "find_switchers", "didm.find_switchers", _switching),
    ("didm", "delta_s_oracle", "simulate.oracle", None),
    ("staggered", "build_cohorts", "staggered.build_cohorts", None),
    ("staggered", "did_ell", "staggered.did_ell", None),
    ("staggered", "placebo_ell", "staggered.event_study", None),
    ("simulate", "generate", "simulate.generate", _cells),
    ("simulate", "decomposition_rhs", "simulate.oracle", None),
    ("simulate", "delta_ell_oracle", "simulate.oracle", None),
    ("bootstrap", "twfe_coefficient", "decomposition.decompose", None),
    ("bootstrap", "didm", "didm.didm", None),
    ("bootstrap", "build_cohorts", "staggered.build_cohorts", None),
    ("bootstrap", "did_ell", "staggered.did_ell", None),
]

# layer self-time metric -> span names whose self time it sums
SELF_TIME = {
    "panel.read_csv_s": ("panel.read_panel_csv",),
    "panel.with_groups_s": ("panel.with_groups",),
    "decomposition.first_stage_s": ("decomposition.first_stage",),
    "decomposition.decompose_self_s": ("decomposition.decompose",),
    "decomposition.summarize_s": ("decomposition.summarize",),
    "decomposition.report_s": ("decomposition.decomposition_report",),
    "didm.didm_self_s": ("didm.didm",),
    "didm.find_switchers_s": ("didm.find_switchers",),
    "staggered.build_cohorts_s": ("staggered.build_cohorts",),
    "staggered.event_study_s": ("staggered.event_study", "staggered.did_ell"),
    "staggered.linear_trends_s": ("staggered.did_ell_linear_trends",),
    "staggered.split_s": ("staggered.split_by_order",),
    "simulate.generate_s": ("simulate.generate",),
    "simulate.oracle_s": ("simulate.oracle",),
    "bootstrap.self_s": ("bootstrap.bootstrap_se",),
    "cli.self_s": ("cli.main",),
}

def install(tracer: Tracer) -> None:
    targets = []
    for module, attr, name, count in TARGETS:
        owner = MODULES[module]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        targets.append((owner, attr, name, count))
    tracer.install(targets)


def pass_metrics(tracer: Tracer, first: int, last: int, wall: float,
                 report_bytes: int) -> dict[str, float]:
    """Per-layer totals of the traced pass whose spans are ``first:last``."""
    spans = tracer.spans
    idx = list(range(first, last))
    own = self_times(spans, idx)
    out = {name: 0.0 for name in SELF_TIME}
    by_span = {s: m for m, names in SELF_TIME.items() for s in names}
    for i in idx:
        out[by_span[spans[i].name]] += own[i]

    def calls(name):
        return float(sum(1 for i in idx if spans[i].name == name))

    def total(name, key):
        return float(sum(spans[i].counts.get(key, 0) for i in idx if spans[i].name == name))

    def inclusive(name):
        return sum(spans[i].end - spans[i].start for i in idx if spans[i].name == name)

    top = sum(spans[i].end - spans[i].start for i in idx if spans[i].parent is None)
    out.update({
        "panel.rows_read": total("panel.read_panel_csv", "rows"),
        "panel.with_groups_calls": calls("panel.with_groups"),
        "decomposition.first_stage_calls": calls("decomposition.first_stage"),
        "didm.find_switchers_calls": calls("didm.find_switchers"),
        "didm.switching_cells": total("didm.find_switchers", "switching"),
        "didm.kept": total("didm.find_switchers", "kept"),
        "staggered.did_ell_calls": calls("staggered.did_ell"),
        "simulate.cells_generated": total("simulate.generate", "cells"),
        "bootstrap.bootstrap_se_s": inclusive("bootstrap.bootstrap_se"),
        "bootstrap.replications": total("bootstrap.bootstrap_se", "replications"),
        "bootstrap.retained": total("bootstrap.bootstrap_se", "retained"),
        "cli.calls": calls("cli.main"),
        "cli.report_bytes": float(report_bytes),
        "trace.overlap_s": sum(own.values()) - top,
        "trace.unspanned_s": wall - top,
    })
    return out


def summarize_passes(per_pass: list[dict[str, float]], traced_walls: list[float],
                     untraced_walls: list[float]) -> dict[str, float]:
    """Mean per traced pass of every layer metric, ratios from totals."""
    n = len(per_pass)
    keys = per_pass[0].keys()
    mean = {k: sum(p[k] for p in per_pass) / n for k in keys}

    def ratio(num, den):
        # 0 when the layer never ran on this workload
        return mean[num] / mean[den] if mean[den] else 0.0

    mean["didm.kept_ratio"] = ratio("didm.kept", "didm.switching_cells")
    mean["bootstrap.retained_ratio"] = ratio("bootstrap.retained", "bootstrap.replications")
    del mean["didm.kept"], mean["bootstrap.retained"]
    mean["trace.overhead_s"] = (statistics.median(traced_walls)
                                - statistics.median(untraced_walls))
    return mean
