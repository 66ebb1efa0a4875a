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
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from itertools import chain, repeat

import numpy as np

from . import __version__
from .bootstrap import ESTIMATORS, bootstrap_se
from .decomposition import (
    decompose,
    decomposition_report,  # noqa: F401  the benchmark's trace wraps this name (ROADMAP item 2)
    decomposition_report_json,
    summarize,
)
from .didm import _REASONS, didm
from .errors import InsufficientPrePeriods, MissingColumn, MultiDidError
from .panel import (
    _ROLES,
    PanelDataset,
    _destination,
    _repeated,
    _Rows,
    _write_csv,
    encode_json,
    read_panel_csv,
    write_panel_csv,
)
from .simulate import DgpSpec, generate
from .staggered import (
    _linear_report,
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
     a file that is not UTF-8, a value that is not a number, a short
     row, labels of mixed types, a column named twice in the header,
     a field past the csv module's size limit, bad simulation spec)
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


def _emit_report(args, payload: dict, out_path: str | None) -> None:
    """The one JSON writer: ``payload`` after the tool version, the effective
    configuration and the input digest (a field of the same name takes their
    place), a field at a time to ``out_path`` or standard output. A
    :class:`~multidid.panel._Rows` value is written as the array of its row
    texts, any other as its :func:`encode_json` text; all are encoded first,
    so a refused report writes nothing."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("func",) and not k.startswith("_")}
    head = {"tool": {"name": "multidid", "version": __version__}, "config": config}
    if getattr(args, "input", None):
        head["input_sha256"] = args._input_sha256
    fields = {key: value if isinstance(value, _Rows) else encode_json(value)
              for key, value in (head | payload).items()}
    # json.dumps of a dict writes exactly these pieces
    with _destination(out_path) as fh:
        for sep, (key, text) in zip(chain("{", repeat(", ")), fields.items()):
            fh.write(f"{sep}{encode_json(key)}: ")
            fh.write(f"[{', '.join(text)}]" if isinstance(text, _Rows) else text)
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


# -- the parsed-panel cache ------------------------------------------------

_CACHE_FORMAT = 1
_CACHE_BOUND = 1 << 30  # bytes, all entries together


def _sha256(*parts) -> str:
    """The sha256 hex digest of the buffers ``parts``, in order."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


@functools.cache
def _source_digests() -> tuple[str, ...]:
    """The sha256 of each module whose code decides what a read returns, read
    at the first load, not at import: a change to the reader, to its errors
    or to ``VALUE_TOL`` misses every entry written before it."""
    digests = []
    for name in ("panel.py", "errors.py", "tolerances.py"):
        with open(os.path.join(os.path.dirname(__file__), name), "rb") as fh:
            digests.append(_sha256(fh.read()))
    return tuple(digests)


def _cache_entry(input_sha256: str, tcols: list[str] | None) -> str | None:
    """The cache file of the bytes whose sha256 is ``input_sha256``, read with
    the treatment columns ``tcols``, in ``$XDG_CACHE_HOME/multidid``, or
    ``~/.cache/multidid`` when that variable is unset or relative. Its name is
    one sha256 over ``input_sha256``, ``tcols``, ``csv.field_size_limit()``,
    numpy's and Python's versions, the entry format and the sources' digests.
    None when no absolute directory is known or the sources cannot be read."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no home either
        return None
    try:
        sources = _source_digests()
    except OSError:
        return None
    key = json.dumps([input_sha256, tcols, csv.field_size_limit(), np.__version__,
                      sys.version, _CACHE_FORMAT, sources])
    return os.path.join(base, "multidid", _sha256(key.encode()))


def _store_entry(entry: str, panel: PanelDataset, warned: list[str]) -> None:
    """Write ``panel`` and the texts of the warnings its read gave to the file
    ``entry``: a JSON header line (the format, G, T, K, the labels, which JSON
    keeps as int, float or str, the treatment names, the warnings, and a
    sha256 over the other fields' JSON and the payload), then the payload:
    y, n and d as little-endian float64 in C order.
    The file is written under a temporary name and renamed, so a reader finds
    a whole entry or none; then the least recently used entries go until all
    fit in ``_CACHE_BOUND``. An entry larger than the bound, or in a directory
    that is not :func:`_private`, is not written."""
    arrays = [np.ascontiguousarray(a, "<f8") for a in (panel.y, panel.n, panel.d)]
    fields = {"format": _CACHE_FORMAT, "G": panel.n_groups, "T": panel.n_periods,
              "K": panel.n_treatments, "groups": panel.group_labels,
              "periods": panel.period_labels, "treatment_names": panel.treatment_names,
              "warnings": warned}
    fields["sha256"] = _sha256(json.dumps(fields).encode(), *arrays)
    header = json.dumps(fields).encode() + b"\n"
    if len(header) + sum(a.nbytes for a in arrays) > _CACHE_BOUND:
        return
    directory = os.path.dirname(entry)
    os.makedirs(directory, mode=0o700, exist_ok=True)
    if not _private(directory):
        return
    fd, temporary = tempfile.mkstemp(dir=directory)
    try:
        with open(fd, "wb") as fh:
            fh.write(header)
            for a in arrays:
                fh.write(a)
        os.replace(temporary, entry)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise
    _evict(directory)


def _private(directory: str) -> bool:
    """Whether ``directory`` belongs to this process's user and no other user
    may write in it. An entry's digest checks that it is whole, not who wrote
    it, and its name follows from public inputs, so entries are read and
    written only there: ``makedirs`` sets the mode of a directory it makes,
    not of one that was there before."""
    info = os.stat(directory)
    return info.st_uid == os.getuid() and not info.st_mode & 0o022


def _evict(directory: str) -> None:
    """Remove the files of ``directory`` least recently used first (a hit
    touches its entry) until the rest fit in ``_CACHE_BOUND``."""
    files = []
    with os.scandir(directory) as listing:
        for item in listing:
            with contextlib.suppress(FileNotFoundError):  # removed meanwhile
                info = item.stat()
                files.append((info.st_mtime_ns, info.st_size, item.path))
    excess = sum(size for _, size, _ in files) - _CACHE_BOUND
    for _, size, path in sorted(files):
        if excess <= 0:
            break
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        excess -= size


def _load_entry(entry: str) -> tuple[PanelDataset, list[str]] | None:
    """The panel and warning texts stored in the file ``entry``, or None when it
    is missing or does not check out: a header that is not the expected JSON,
    a payload of another size, a digest that does not match, or a panel that
    :class:`PanelDataset` refuses; or when its directory is not
    :func:`_private`. A hit touches the file."""
    try:
        if not _private(os.path.dirname(entry)):
            return None
        with open(entry, "rb") as fh:
            fields = dict(json.loads(fh.readline()))
            payload = fh.read()
        G, T, K = fields["G"], fields["T"], fields["K"]
        if (fields.pop("sha256") != _sha256(json.dumps(fields).encode(), payload)
                or fields["format"] != _CACHE_FORMAT or len(payload) != 8 * G * T * (K + 2)):
            return None
        y, n, d = np.split(np.frombuffer(payload, "<f8"), [G * T, 2 * G * T])
        panel = PanelDataset(fields["groups"], fields["periods"], y.reshape(G, T),
                             n.reshape(G, T), d.reshape(K, G, T), fields["treatment_names"])
    except (OSError, ValueError, KeyError, TypeError, MultiDidError):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return panel, fields["warnings"]


def _load(args):
    """The panel of ``--input`` and its treatment names. The bytes are read
    and hashed once, for the report's ``args._input_sha256`` and the
    parsed-panel cache key (:func:`_cache_entry`). A hit rebuilds the panel
    from its entry, every check run again; a miss, or a cache that cannot be
    used, parses the bytes and stores the panel with the text of every
    warning the read gave. Either way those texts go to standard error."""
    names = [c.strip().lower() for c in args.treatments.split(",")] if args.treatments else []
    if twice := _repeated(names):
        raise _UsageError(f"--treatments names the column {twice!r} twice")
    if role := next((c for c in names if c in _ROLES), None):
        raise _UsageError(f"--treatments names the {_ROLES[role]} column {role!r}")
    with open(args.input, "rb") as fh:
        data = fh.read()
    args._input_sha256 = _sha256(data)
    entry = _cache_entry(args._input_sha256, names or None)
    if entry and (hit := _load_entry(entry)):
        panel, warned = hit
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            panel = read_panel_csv(io.BytesIO(data), names or None)
        warned = [str(w.message) for w in caught]
        if entry:
            with contextlib.suppress(OSError):
                _store_entry(entry, panel, warned)
    for text in warned:
        print(f"warning: {text}", file=sys.stderr)
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
        _write_csv(args.out, ["g", "t", "role", "weight"], decomp.csv_rows())
    else:
        _emit_report(args, decomposition_report_json(decomp, summary), args.out)
    return 0


def _cmd_didm(args) -> int:
    panel, names = _load(args)
    target = _column_index(names, args.target, "target treatment")
    result = didm(panel, target, binary_only=args.binary_only)
    lost = result.lost
    warned = [] if result.n_s else ["no usable switcher, estimate is 0 by convention"]
    warned += _dropped_lines(
        "switching cell(s)", lost.moved.view(np.int8), _REASONS,
        lambda i: f"g={panel.group_labels[lost.gi[i]]!r} t={panel.period_labels[lost.ti[i]]!r}")
    if warned:
        sys.stderr.write("".join(f"warning: {w}\n" for w in warned))
    if args.output == "csv":
        _write_csv(args.out, ["t", "baseline", "direction", "did", "weight"],
                   result.csv_rows())
    else:
        _emit_report(args, result.report_json(), args.out)
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
        if args.output == "csv":
            _write_csv(args.out, ["ell", "f", "t", "did", "n_treated", "n_control", "weight"],
                       result.csv_rows())
            return 0
        payload = result.report_json()
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
        payload = {"horizons": _linear_report(horizons, panel.group_labels)}
    else:  # split
        payload = split_by_order(panel, first, second).to_dict()
    _emit_report(args, payload, args.out)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = DgpSpec.from_json(fh.read())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    panel = generate(spec).panel
    write_panel_csv(panel, args.out_csv)
    _emit_report(args, {"written": args.out_csv, "kind": spec.kind, "n_groups": panel.n_groups,
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
    _emit_report(args, result.to_dict(), args.out)
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
