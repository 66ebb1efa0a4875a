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
import sys
import warnings

from . import __version__
from .bootstrap import ESTIMATORS, bootstrap_se
from .decomposition import (
    decompose,
    decomposition_csv_rows,
    decomposition_report,  # noqa: F401  the benchmark's trace wraps this name (ROADMAP item 2)
    decomposition_report_json,
    encode_json,
    summarize,
)
from .didm import didm
from .errors import InsufficientPrePeriods, MissingColumn, MultiDidError
from .panel import _repeated, read_panel_csv, write_panel_csv
from .simulate import DgpSpec, generate
from .staggered import (
    build_cohorts,
    combined_effects,
    did_ell_linear_trends,
    first_treatment_effects,
    second_treatment_effects,
    split_by_order,
)

# lists the exit_code that each class in .errors carries
_EXIT_DOC = """\
exit codes:
  0  success
  2  bad command line
  3  input validation failed (unbalanced/duplicate cells, non-binary,
     non-positive or non-finite values or labels, missing columns,
     bad simulation spec)
  4  coefficient undefined (collinear treatments, degenerate denominator,
     numerically singular fixed effects)
  5  design violated (treatment switches off, wrong adoption order,
     no usable cohort)
  6  nothing estimable at the requested horizon (no controls, not enough
     pre-periods, horizon out of range)
  7  all bootstrap replications degenerate
  1  unexpected error
"""


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text``, ending in a newline, to ``out_path`` or standard output."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict, out_path: str | None) -> None:
    """Write ``payload`` as a JSON report with the tool version, the effective
    configuration and the input digest."""
    _emit_report(args, {key: encode_json(value) for key, value in payload.items()},
                 out_path)


def _emit_report(args, fields: dict[str, str], out_path: str | None) -> None:
    """Write the JSON report whose top-level values are the JSON texts
    ``fields``, after the tool version, the effective configuration and the
    input digest (a field of the same name takes their place)."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("func",) and not k.startswith("_")}
    head = {
        "tool": {"name": "multidid", "version": __version__},
        "config": config,
    }
    if getattr(args, "input", None):
        head["input_sha256"] = args._input_sha256
    fields = {key: encode_json(value) for key, value in head.items()} | fields
    # json.dumps of a dict is exactly this join, so a value may arrive encoded
    _emit("{" + ", ".join(f"{encode_json(key)}: {text}" for key, text in fields.items())
          + "}", out_path)


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class _UsageError(Exception):
    """A command line whose column names contradict each other (exit 2)."""


def _load(args):
    """The panel of ``--input`` and its treatment names; the bytes are read
    once: they are hashed into ``args._input_sha256`` for the report and
    decoded for the reader."""
    treatments = args.treatments.split(",") if args.treatments else None
    if treatments and (twice := _repeated([c.strip().lower() for c in treatments])):
        raise _UsageError(f"--treatments names the column {twice!r} twice")
    with open(args.input, "rb") as fh:
        data = fh.read()
    args._input_sha256 = hashlib.sha256(data).hexdigest()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        panel = read_panel_csv(io.BytesIO(data), treatment_cols=treatments)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return panel, list(panel.treatment_names)


def _column_index(names: list[str], name: str, what: str) -> int:
    key = name.strip().lower()
    if key not in names:
        raise MissingColumn(f"{what} {name!r} is not among the treatments {names}")
    return names.index(key)


def _distinct(args, names: list[str], first: int, second: int) -> None:
    """Refuse ``--first`` and ``--second`` naming one column, either by default."""
    if first == second:
        def named(option, value):
            return f"{option} {value!r}" if value else f"{option} (default {names[first]!r})"
        raise _UsageError(f"{named('--first', args.first)} and "
                          f"{named('--second', args.second)} name the same treatment column")


def _cmd_decompose(args) -> int:
    panel, names = _load(args)
    target = _column_index(names, args.target, "target treatment")
    decomp = decompose(panel, target)
    summary = summarize(decomp, panel)
    if args.output == "csv":
        _emit(_csv_text(["g", "t", "role", "weight"],
                        decomposition_csv_rows(decomp)), args.out)
    else:
        _emit_report(args, decomposition_report_json(decomp, summary), args.out)
    return 0


def _cmd_didm(args) -> int:
    panel, names = _load(args)
    target = _column_index(names, args.target, "target treatment")
    result = didm(panel, target, binary_only=args.binary_only)
    report = result.to_dict()
    warned = [] if result.n_s else ["no usable switcher, estimate is 0 by convention"]
    for reason in dict.fromkeys(d["reason"] for d in report["dropped"]):
        drops = [d for d in report["dropped"] if d["reason"] == reason]  # the report lists all
        cells = ", ".join(f"g={d['g']!r} t={d['t']!r}" for d in drops[:5])
        more = f" and {len(drops) - 5} more" if len(drops) > 5 else ""
        warned.append(f"dropped {len(drops)} switching cell(s) ({reason}): {cells}{more}")
    if warned:
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
    _distinct(args, names, first, second)
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
    if args.estimator == "did_ell":
        if len(names) < 2:
            raise MissingColumn(f"did_ell needs a second treatment column, the "
                                f"treatments are {names}")
        _distinct(args, names, first, second)
    result = bootstrap_se(panel, args.estimator, args.replications, args.seed,
                          target=target, first=first, second=second, ell=args.ell,
                          keep_replicates=args.dump_replicates)
    if result.degenerate_inference:
        print("warning: fewer than two usable replications, standard error is 0 "
              "by convention", file=sys.stderr)
    if result.n_degenerate:
        print(f"warning: {result.n_degenerate} replication(s) degenerate and "
              f"excluded", file=sys.stderr)
    _emit_json(args, result.to_dict(), args.out)
    return 0


def _int_from(low: int, kind: str):
    """An argparse type taking integers of at least ``low``."""
    def parse(text: str) -> int:
        try:
            if (value := int(text)) >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return parse


_positive_int = _int_from(1, "positive")
_non_negative_int = _int_from(0, "non-negative")


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
                            "(default: the dN columns, in numeric order)")
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
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--parallelism", type=_positive_int, default=1,
                   help="accepted and ignored: replications run in order on one "
                        "thread (default: 1)")
    p.add_argument("--dump-replicates", action="store_true")
    p.set_defaults(func=_cmd_bootstrap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(f"{args.subcommand}: {exc}")
    except MultiDidError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
