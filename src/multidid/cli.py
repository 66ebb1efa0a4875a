"""Command-line interface.

Subcommands: ``decompose`` (per-cell weight diagnostics of a fixed-effects
coefficient), ``didm`` (switcher-versus-stayer estimate), ``dynamic``
(staggered-design event studies), ``simulate`` (synthetic panel generation),
and ``bootstrap`` (group block-bootstrap standard errors). JSON is the
canonical output; ``--output csv`` emits the lossy tabular projection
(weights and components only). Warnings go to standard error and never change
the exit code. Every JSON report embeds the tool version, the effective
configuration, and a digest of the input file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import warnings

from . import __version__
from .bootstrap import ESTIMATORS, bootstrap_se
from .decomposition import (
    decompose,
    decomposition_csv_rows,
    decomposition_report,
    summarize,
)
from .didm import didm
from .errors import (
    AllReplicationsDegenerate,
    CollinearTreatments,
    DegenerateDenominator,
    DuplicateCell,
    HorizonOutOfRange,
    InsufficientPrePeriods,
    InsufficientVariation,
    InvalidSpec,
    MissingColumn,
    MultiDidError,
    NoControls,
    NonBinaryTreatment,
    NonFiniteValue,
    NonPositiveWeight,
    NonSharpDesign,
    NotStaggered,
    PathologicalDesign,
    UnbalancedPanel,
    WrongOrder,
)
from .panel import read_panel_csv, write_panel_csv
from .simulate import DgpSpec, generate
from .staggered import (
    build_cohorts,
    combined_effects,
    did_ell_linear_trends,
    first_treatment_effects,
    second_treatment_effects,
    split_by_order,
)

PARALLELISM_ENV = "MULTIDID_PARALLELISM"

# exit-code map; documented in --help and stable across releases
EXIT_CODES = {
    UnbalancedPanel: 3,
    DuplicateCell: 3,
    NonBinaryTreatment: 3,
    NonFiniteValue: 3,
    NonPositiveWeight: 3,
    InsufficientVariation: 3,
    NonSharpDesign: 3,
    MissingColumn: 3,
    InvalidSpec: 3,
    CollinearTreatments: 4,
    DegenerateDenominator: 4,
    NotStaggered: 5,
    WrongOrder: 5,
    PathologicalDesign: 5,
    NoControls: 6,
    InsufficientPrePeriods: 6,
    HorizonOutOfRange: 6,
    AllReplicationsDegenerate: 7,
}

_EXIT_DOC = """\
exit codes:
  0  success
  2  bad command line
  3  input validation failed (unbalanced/duplicate cells, non-binary,
     non-positive or non-finite values or labels, missing columns,
     bad simulation spec)
  4  coefficient undefined (collinear treatments, degenerate denominator)
  5  design violated (treatment switches off, wrong adoption order,
     no usable cohort)
  6  nothing estimable at the requested horizon (no controls, not enough
     pre-periods, horizon out of range)
  7  all bootstrap replications degenerate
  1  unexpected error
"""


def _exit_code(exc: MultiDidError) -> int:
    for cls, code in EXIT_CODES.items():
        if isinstance(exc, cls):
            return code
    return 1


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(args, payload: dict, out_path: str | None) -> None:
    """Write ``payload`` as a JSON report with the tool version, the effective
    configuration and the input digest."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("func",) and not k.startswith("_")}
    report = {
        "tool": {"name": "multidid", "version": __version__},
        "config": config,
    }
    if getattr(args, "input", None):
        report["input_sha256"] = _sha256(args.input)
    report.update(payload)
    # no indent: that keeps json on its C encoder, several times faster
    _emit(json.dumps(report, default=str), out_path)


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _load(args, binary_required: bool = False):
    treatments = args.treatments.split(",") if args.treatments else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        panel = read_panel_csv(args.input, treatment_cols=treatments,
                               binary_required=binary_required)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    names = ([c.strip().lower() for c in treatments] if treatments
             else [f"d{k + 1}" for k in range(panel.n_treatments)])
    return panel, names


def _column_index(names: list[str], name: str, what: str) -> int:
    key = name.strip().lower()
    if key not in names:
        raise MissingColumn(f"{what} {name!r} is not among the treatments {names}")
    return names.index(key)


def _cmd_decompose(args) -> int:
    panel, names = _load(args, binary_required=True)
    target = _column_index(names, args.target, "target treatment")
    decomp = decompose(panel, target)
    summary = summarize(decomp, panel)
    if args.output == "csv":
        _emit(_csv_text(["g", "t", "role", "weight"],
                        decomposition_csv_rows(decomp)), args.out)
    else:
        _emit_json(args, decomposition_report(decomp, summary), args.out)
    return 0


def _cmd_didm(args) -> int:
    panel, names = _load(args)
    target = _column_index(names, args.target, "target treatment")
    result = didm(panel, target, binary_only=args.binary_only)
    report = result.to_dict()
    warned = [] if result.n_s else ["no usable switcher, estimate is 0 by convention"]
    warned += [f"dropped switching cell g={drop['g']!r} t={drop['t']!r} ({drop['reason']})"
               for drop in report["dropped"]]
    if warned:  # one write, however many cells were dropped
        sys.stderr.write("".join(f"warning: {w}\n" for w in warned))
    if args.output == "csv":
        rows = [(c.period, "|".join(repr(v) for v in c.baseline), c.direction,
                 c.value, c.weight) for c in result.components]
        _emit(_csv_text(["t", "baseline", "direction", "did", "weight"], rows),
              args.out)
    else:
        _emit_json(args, report, args.out)
    return 0


def _cmd_dynamic(args) -> int:
    panel, names = _load(args)
    first = _column_index(names, args.first, "first treatment")
    second = _column_index(names, args.second, "second treatment")
    # built per call so that the names resolve to the module's current attributes
    studies = {"second": second_treatment_effects, "first": first_treatment_effects,
               "combined": combined_effects}
    if args.strategy in studies:
        result = studies[args.strategy](panel, first, second,
                                        placebos=not args.no_placebos)
        payload = result.to_dict()
    elif args.strategy == "linear":
        structure = build_cohorts(panel, first, second)
        horizons = {}
        for ell in range(structure.l_nt + 1):
            try:
                horizons[ell] = did_ell_linear_trends(panel, structure, ell)
            except InsufficientPrePeriods as exc:
                print(f"warning: horizon {ell}: {exc}", file=sys.stderr)
        if not horizons:
            raise InsufficientPrePeriods("no horizon is estimable with linear trends")
        for ell, res in horizons.items():
            for g, reason in res.dropped:
                print(f"warning: horizon {ell}: group {g!r} dropped ({reason})",
                      file=sys.stderr)
        payload = {"horizons": [
            {"ell": ell, **res.to_dict()} for ell, res in sorted(horizons.items())
        ]}
    else:  # split
        payload = split_by_order(panel, first, second).to_dict()

    if args.output == "csv" and args.strategy in studies:
        rows = [(h["ell"], c["f"], c["t"], c["did"], c["n_treated"],
                 c["n_control"], c["weight"])
                for h in payload["horizons"] for c in h["components"]]
        _emit(_csv_text(["ell", "f", "t", "did", "n_treated", "n_control", "weight"],
                        rows), args.out)
    else:
        _emit_json(args, payload, args.out)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = DgpSpec.from_json(fh.read())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    synthetic = generate(spec)
    write_panel_csv(synthetic.panel, args.out_csv)
    payload = {
        "written": args.out_csv,
        "kind": spec.kind,
        "n_groups": synthetic.panel.n_groups,
        "n_periods": synthetic.panel.n_periods,
        "n_treatments": synthetic.panel.n_treatments,
        "seed": spec.seed,
    }
    _emit_json(args, payload, None)
    return 0


def _cmd_bootstrap(args) -> int:
    panel, names = _load(args)
    target = _column_index(names, args.target, "target treatment") \
        if args.target else 0
    first = _column_index(names, args.first, "first treatment") if args.first else 0
    second = _column_index(names, args.second, "second treatment") if args.second else 1
    result = bootstrap_se(panel, args.estimator, args.replications, args.seed,
                          target=target, first=first, second=second, ell=args.ell,
                          parallelism=args.parallelism,
                          keep_replicates=args.dump_replicates)
    if result.degenerate_inference:
        print("warning: fewer than two usable replications, standard error is 0 "
              "by convention", file=sys.stderr)
    if result.n_degenerate:
        print(f"warning: {result.n_degenerate} replication(s) degenerate and "
              f"excluded", file=sys.stderr)
    _emit_json(args, result.to_dict(), args.out)
    return 0


def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _default_parallelism() -> int:
    raw = os.environ.get(PARALLELISM_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multidid",
        description="Diagnostics and heterogeneity-robust estimators for panel "
                    "regressions with several treatments.",
        epilog=_EXIT_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p, needs_target=True):
        p.add_argument("--input", required=True, help="long-format CSV panel")
        p.add_argument("--treatments", default=None,
                       help="comma-separated treatment column names "
                            "(default: d1, d2, ...)")
        if needs_target:
            p.add_argument("--target", required=True,
                           help="treatment column to analyze")
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report here "
                       "instead of standard output")

    p = sub.add_parser("decompose",
                       help="per-cell weights behind a fixed-effects coefficient")
    add_io(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("didm", help="switcher-versus-stayer estimate")
    add_io(p)
    p.add_argument("--binary-only", action="store_true",
                   help="refuse non-binary target treatments")
    p.set_defaults(func=_cmd_didm)

    p = sub.add_parser("dynamic",
                       help="event studies for two consecutive staggered treatments")
    add_io(p, needs_target=False)
    p.add_argument("--first", required=True, help="first treatment column")
    p.add_argument("--second", required=True, help="second treatment column")
    p.add_argument("--strategy", default="second",
                   choices=("second", "first", "combined", "linear", "split"))
    p.add_argument("--no-placebos", action="store_true")
    p.set_defaults(func=_cmd_dynamic)

    p = sub.add_parser("simulate", help="generate a synthetic panel CSV")
    p.add_argument("--spec", required=True, help="JSON simulation spec")
    p.add_argument("--out", dest="out_csv", required=True,
                   help="output CSV panel path")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bootstrap", help="group block-bootstrap standard error")
    add_io(p, needs_target=False)
    p.add_argument("--estimator", required=True, choices=ESTIMATORS)
    p.add_argument("--target", default=None, help="target treatment column "
                   "(twfe, didm)")
    p.add_argument("--first", default=None, help="first treatment column (did_ell)")
    p.add_argument("--second", default=None, help="second treatment column (did_ell)")
    p.add_argument("--ell", type=int, default=0, help="horizon (did_ell)")
    p.add_argument("-B", "--replications", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallelism", type=_positive_int, default=_default_parallelism(),
                   help=f"worker count (default: ${PARALLELISM_ENV} or 1)")
    p.add_argument("--dump-replicates", action="store_true")
    p.set_defaults(func=_cmd_bootstrap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MultiDidError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except (OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
