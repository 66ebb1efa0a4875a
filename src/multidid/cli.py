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
import dataclasses
import functools
import hashlib
import io
import os
import sys
import warnings
from itertools import chain, repeat

import numpy as np

from . import __version__
from .bootstrap import ESTIMATORS, bootstrap_se
from .decomposition import (
    _json_rows,
    decompose,
    decomposition_csv_rows,
    decomposition_report,  # noqa: F401  the benchmark's trace wraps this name (ROADMAP item 2)
    decomposition_report_json,
    encode_json,
    summarize,
)
from .didm import _REASONS, didm
from .errors import InsufficientPrePeriods, MissingColumn, MultiDidError
from .panel import _destination, _repeated, _write_csv, read_panel_csv, write_panel_csv
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
  141  standard output closed by its reader (128 + SIGPIPE)
  1  unexpected error
"""


def _emit_json(args, payload: dict, out_path: str | None) -> None:
    """Write ``payload`` as a JSON report with the tool version, the effective
    configuration and the input digest."""
    _emit_report(args, {key: encode_json(value) for key, value in payload.items()},
                 out_path)


def _emit_report(args, fields: dict[str, str], out_path: str | None) -> None:
    """Write the JSON report whose top-level values are the JSON texts
    ``fields``, after the tool version, the effective configuration and the
    input digest (a field of the same name takes their place), a field at a
    time to ``out_path`` or standard output; all are encoded first, so a
    refused report writes nothing."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("func",) and not k.startswith("_")}
    head = {"tool": {"name": "multidid", "version": __version__}, "config": config}
    if getattr(args, "input", None):
        head["input_sha256"] = args._input_sha256
    fields = {key: encode_json(value) for key, value in head.items()} | fields
    # json.dumps of a dict writes exactly these pieces, so a value may arrive encoded
    with _destination(out_path) as fh:
        for sep, (key, text) in zip(chain("{", repeat(", ")), fields.items()):
            fh.write(f"{sep}{encode_json(key)}: ")
            fh.write(text)
        fh.write("}\n")


class _UsageError(Exception):
    """A command line whose options contradict each other (exit 2)."""


def _dropped_lines(what: str, codes: np.ndarray, reasons, name) -> list[str]:
    """One warning per reason, in order of first appearance, for dropped items
    i of reason ``reasons[codes[i]]``: the count of ``what`` dropped and the
    first 5 items, item i spelled by ``name(i)``; the report lists them all."""
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    lines = []
    for i, count in sorted(zip(first.tolist(), counts.tolist())):
        items = np.flatnonzero(codes == codes[i])[:5].tolist()
        more = f" and {count - 5} more" if count > 5 else ""
        lines.append(f"dropped {count} {what} ({reasons[codes[i]]}): "
                     f"{', '.join(map(name, items))}{more}")
    return lines


def _load(args):
    """The panel of ``--input`` and its treatment names; the bytes are read
    once: they are hashed into ``args._input_sha256`` for the report and
    handed to the reader."""
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
        _write_csv(args.out, ["g", "t", "role", "weight"], decomposition_csv_rows(decomp))
    else:
        _emit_report(args, decomposition_report_json(decomp, summary), args.out)
    return 0


def _didm_report_json(result) -> dict[str, str]:
    """``result.to_dict()`` with each value as its :func:`encode_json` text,
    the component and drop tables written by :func:`_json_rows` straight from
    the strata arrays and the lost cells."""
    key, lost = result.key, result.lost
    G, baseline = len(lost.group_labels), key[:, 1:-2].T
    sep = [", "] * (len(baseline) - 1) + [""]  # after each of the baseline's values
    components = _json_rows(
        ('{"t": %s, "baseline": [', lost.period_labels, key[:, 0].astype(np.intp)),
        *chain.from_iterable(zip(baseline, sep)),
        ('], "direction": %s, "target_from": ', ("down", "up"),
         (key[:, -1] > key[:, -2]).view(np.int8)),
        key[:, -2], ', "target_to": ', key[:, -1], ', "did": ', result.value,
        ', "weight": ', result.weight, "}")
    dropped = _json_rows(('{"g": %s, "t": ', lost.group_labels, lost.cells % G),
                         ('%s, "reason": ', lost.period_labels, lost.cells // G + 1),
                         ("%s}", _REASONS, lost.moved.view(np.int8)))
    return {"estimate": encode_json(result.estimate), "n_switchers": encode_json(result.n_s),
            "components": f"[{', '.join(components)}]", "dropped": f"[{', '.join(dropped)}]",
            "standard_error": encode_json(result.standard_error)}


def _cmd_didm(args) -> int:
    panel, names = _load(args)
    target = _column_index(names, args.target, "target treatment")
    result = didm(panel, target, binary_only=args.binary_only)
    lost, G = result.lost, panel.n_groups
    warned = [] if result.n_s else ["no usable switcher, estimate is 0 by convention"]
    warned += _dropped_lines(
        "switching cell(s)", lost.moved.view(np.int8), _REASONS,
        lambda i: f"g={panel.group_labels[lost.cells[i] % G]!r} "
                  f"t={panel.period_labels[lost.cells[i] // G + 1]!r}")
    if warned:
        sys.stderr.write("".join(f"warning: {w}\n" for w in warned))
    if args.output == "csv":
        rows = [(c.period, "|".join(repr(v) for v in c.baseline), c.direction,
                 c.value, c.weight) for c in result.components]
        _write_csv(args.out, ["t", "baseline", "direction", "did", "weight"], rows)
    else:
        _emit_report(args, _didm_report_json(result), args.out)
    return 0


def _cmd_dynamic(args) -> int:
    if args.output == "csv" and args.strategy in ("linear", "split"):
        raise _UsageError(f"--output csv has no table for --strategy {args.strategy}")
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
        drops = [(ell, g, reason) for ell, res in horizons.items() for g, reason in res.dropped]
        reasons, codes = np.unique([r for *_, r in drops], return_inverse=True)
        for line in _dropped_lines("group-horizon pair(s)", codes, reasons,
                                   lambda i: f"ell={drops[i][0]} g={drops[i][1]!r}"):
            print(f"warning: {line}", file=sys.stderr)
        payload = {"horizons": [
            {"ell": ell, **res.to_dict()} for ell, res in sorted(horizons.items())
        ]}
    else:  # split
        payload = split_by_order(panel, first, second).to_dict()

    if args.output == "csv":
        # a component's keys are f, t, did, n_treated, n_control and weight
        _write_csv(args.out, ["ell", "f", "t", "did", "n_treated", "n_control", "weight"],
                   ((h["ell"], *c.values()) for h in payload["horizons"]
                    for c in h["components"]))
    else:
        _emit_json(args, payload, args.out)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = DgpSpec.from_json(fh.read())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    panel = generate(spec).panel
    write_panel_csv(panel, args.out_csv)
    _emit_json(args, {"written": args.out_csv, "kind": spec.kind, "n_groups": panel.n_groups,
                      "n_periods": panel.n_periods, "n_treatments": panel.n_treatments,
                      "seed": spec.seed}, None)
    return 0


def _cmd_bootstrap(args) -> int:
    if args.output == "csv":
        raise _UsageError("--output csv has no table for bootstrap")
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


_parser = functools.cache(build_parser)  # main's parser, built once per process


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe fails here, not at exit
        return code
    except _UsageError as exc:
        parser.error(f"{args.subcommand}: {exc}")
    except MultiDidError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:  # Python's SIGPIPE recipe: the flush at exit goes to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
