"""Balanced group-by-period panel data model, ingestion, and validation.

A panel is a complete G x T grid of cells. Each cell carries the outcome
mean of its observations, a positive cell size used as a regression weight,
and K treatment values shared by every observation in the cell (treatments
are group-level variables, e.g. state laws).

Labels must be finite and orderable; each distinct spelling is parsed once,
and equal labels (``1``, ``1.0``) are one label, spelled as the first. Period
labels may be arbitrary ordered numbers (1987, 1992, 1997, ...); they are
densely reindexed so that "the previous period" always means the previous
observed period. Cell sizes are positive reals rather than integer counts so
externally weighted panels can be analyzed; finite-sample statements in the
literature are phrased for integer counts, which is worth keeping in mind
when supplying non-integer weights.

Outcomes, sizes and treatment values must be finite, and so must the sum of
the sizes. Of several defects, the first in this order is named: record
length, group labels, period labels, duplicate cells, missing cells, values
(column by column), the sum of the sizes. Treatment values are made canonical
once, at construction, so every later comparison of them is exact: sorted
distinct values no more than ``VALUE_TOL`` apart chain into one cluster, whose
members all take one representative: the integer within ``VALUE_TOL`` of some
member if there is one, else the smallest member. Values already pairwise
further apart, with none within ``VALUE_TOL`` of an integer it differs from,
are kept bit for bit.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import functools
import io
import json
import re
import sys
import warnings
from itertools import chain, product, repeat
from operator import itemgetter, length_hint
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateCell,
    InsufficientVariation,
    InvalidEncoding,
    MalformedInput,
    MissingColumn,
    MultiDidError,
    NonBinaryTreatment,
    NonFiniteValue,
    NonPositiveWeight,
    NonSharpDesign,
    UnbalancedPanel,
)
from .tolerances import VALUE_TOL


def _integer(value, what: str):
    """``value`` if it is an int or a numpy integer, not a bool, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right sum from 0.0, the one order every reproducible total is
    summed in, on every Python version."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def _canonical(values: np.ndarray) -> np.ndarray:
    """Canonical treatment values (rule in the module docstring); ``values``
    itself when nothing moves."""
    distinct = np.unique(values)
    with np.errstate(over="ignore"):  # a gap past the float range is a gap all the same
        starts = np.diff(distinct, prepend=-np.inf) > VALUE_TOL
    cluster = np.cumsum(starts) - 1
    rep = distinct[starts]
    whole = np.rint(distinct)
    near = np.abs(distinct - whole) <= VALUE_TOL
    rep[cluster[near]] = whole[near] + 0.0  # + 0.0 turns -0.0 into 0.0
    snapped = rep[cluster]
    if np.array_equal(snapped, distinct):
        return values
    return snapped[np.searchsorted(distinct, values)]


class PanelDataset:
    """Immutable balanced panel of G groups over T periods with K treatments.

    Internally the panel is stored as dense arrays indexed by sorted group
    and period labels: ``y`` and ``n`` with shape (G, T) and ``d`` with shape
    (K, G, T). The arrays are write-protected; concurrent reads are safe.
    ``treatment_names`` name the K treatments (default ``d1..dK``); the CSV
    reader sets them to the columns it read, and the writer writes them.
    A private slot, empty in a derived panel, keeps the decomposition's first
    stage once computed; concurrent first uses fill it alike, so reads stay safe.
    """

    __slots__ = ("group_labels", "period_labels", "y", "n", "d", "n_treatments",
                 "treatment_names", "binary_treatments", "total_n", "_group_index",
                 "_period_index", "_first_stage")

    def __init__(self, group_labels, period_labels, y, n, d,
                 treatment_names: Sequence[str] | None = None):
        self.group_labels = tuple(group_labels)
        self.period_labels = tuple(period_labels)
        self.y = np.asarray(y, dtype=float)
        self.n = np.asarray(n, dtype=float)
        self.d = np.asarray(d, dtype=float)
        g, t = self.y.shape
        if self.n.shape != (g, t) or self.d.shape[1:] != (g, t):
            raise ValueError("inconsistent array shapes for panel construction")
        self.n_treatments = int(self.d.shape[0])
        if treatment_names is None:
            treatment_names = [f"d{k + 1}" for k in range(self.n_treatments)]
        self.treatment_names = tuple(treatment_names)
        if len(self.treatment_names) != self.n_treatments:
            raise ValueError("one name per treatment required")
        if g < 2 or t < 2:
            raise InsufficientVariation(
                f"panel needs at least 2 groups and 2 periods, got G={g}, T={t}"
            )
        for name, values in zip(("y", "n", *self.treatment_names),
                                (self.y, self.n, *self.d)):
            if not np.isfinite(values).all():
                bad = tuple(np.argwhere(~np.isfinite(values))[0])
                raise NonFiniteValue(f"{name} is {float(values[bad])!r} at "
                                     f"{self._cell_name(*bad)}")
        if np.any(self.n <= 0):
            gi, ti = np.argwhere(self.n <= 0)[0]
            raise NonPositiveWeight(f"cell size must be positive, got "
                                    f"{float(self.n[gi, ti])} at {self._cell_name(gi, ti)}")
        binary = np.isin(self.d, (0.0, 1.0)).all()  # then canonical already: no sort
        self.d = self.d if binary else _canonical(self.d)
        self.binary_treatments = bool(binary or np.isin(self.d, (0.0, 1.0)).all())
        with np.errstate(over="ignore"):  # groups outer, periods inner
            self.total_n = _running_sum(self.n.ravel())
        if self.total_n == np.inf:
            raise NonFiniteValue("cell sizes n sum past the float range")
        self._group_index = {lab: i for i, lab in enumerate(self.group_labels)}
        self._period_index = {lab: i for i, lab in enumerate(self.period_labels)}
        for a in (self.y, self.n, self.d):
            a.setflags(write=False)
        self._first_stage = None

    def _cell_name(self, gi: int, ti: int) -> str:
        return f"group={self.group_labels[gi]!r}, period={self.period_labels[ti]!r}"

    # -- shape and lookups -------------------------------------------------

    @property
    def n_groups(self) -> int:
        return len(self.group_labels)

    @property
    def n_periods(self) -> int:
        return len(self.period_labels)

    def group_index(self, label) -> int:
        return self._group_index[label]

    def period_index(self, label) -> int:
        return self._period_index[label]

    def check_treatment(self, k: int) -> None:
        """Raise ValueError unless ``k`` is a treatment index, an integer in 0..K-1."""
        if not 0 <= _integer(k, "treatment") < self.n_treatments:
            raise ValueError(f"treatment must be in 0..{self.n_treatments - 1}, got {k}")

    def require_binary(self, treatments: Iterable[int] | None = None) -> None:
        """Raise NonBinaryTreatment naming the first value outside {0, 1} of the
        ``treatments`` (default: all), in their order, then groups, then periods."""
        for k in range(self.n_treatments) if treatments is None else treatments:
            self.check_treatment(k)
            bad = () if self.binary_treatments else np.argwhere(~np.isin(self.d[k], (0, 1)))
            if len(bad):
                (gi, ti), name = bad[0], self.treatment_names[k]
                raise NonBinaryTreatment(f"treatment {name} is {float(self.d[k, gi, ti])!r} "
                                         f"at {self._cell_name(gi, ti)}")

    # -- derived panels ----------------------------------------------------

    def with_groups(self, indices: Sequence[int], labels: Sequence) -> "PanelDataset":
        """Panel built from rows of this one, allowing repeated groups (bootstrap)."""
        idx = list(indices)
        return PanelDataset(labels, self.period_labels, self.y[idx], self.n[idx],
                            self.d[:, idx], self.treatment_names)


def _sorted_labels(column, what: str, parse, where) -> tuple[list, np.ndarray]:
    """Sorted distinct labels of ``column`` and every row's index into them.
    An int64 array is coded by numpy, its labels made Python ints; in a list of
    spellings a dict keeps the first of equal keys, so 1 and 1.0 are one label,
    the first."""
    if isinstance(column, np.ndarray):
        labels, codes = np.unique(column, return_inverse=True)
        return labels.tolist(), codes
    spelled = {s: parse(s) for s in dict.fromkeys(column)}
    if bad := [s for s, v in spelled.items() if v != v or v in (np.inf, -np.inf)]:
        i = min(map(column.index, bad))
        raise NonFiniteValue(f"{where(i)}: non-finite label {str(column[i]).strip()!r}")
    try:
        labels = sorted(set(spelled.values()))
    except TypeError:  # its text follows the set's hash order; name the types sorted
        kinds = sorted({type(v).__name__ for v in spelled.values()})
        raise MalformedInput(f"{what} labels must be mutually orderable, got labels "
                             f"of type {', '.join(kinds)}") from None
    index = {label: i for i, label in enumerate(labels)}
    code = {s: index[v] for s, v in spelled.items()}
    return labels, np.fromiter(map(code.__getitem__, column), np.intp)


def load_panel(rows: Sequence[Sequence], n_treatments: int) -> PanelDataset:
    """Build a validated panel from long-format rows.

    Each row is ``(group, period, y, d_1, ..., d_K)`` or
    ``(group, period, y, n, d_1, ..., d_K)``; the cell size ``n`` defaults
    to 1 when absent. Rows must already be aggregated to one per cell (see
    :func:`aggregate_micro` for observation-level data).
    """
    rows = list(rows)
    k = int(_integer(n_treatments, "n_treatments"))
    if k < 1:
        raise ValueError("n_treatments must be >= 1")
    width = len(rows[0]) if rows else 3 + k  # no rows: _ingest refuses them
    if width not in (3 + k, 4 + k):
        raise ValueError(f"rows must have {3 + k} or {4 + k} fields for K={k}, "
                         f"got {width}")
    if set(map(len, rows)) - {width}:
        raise ValueError("rows have inconsistent lengths")
    fields = (0, 1, 2, 3 if width == 4 + k else None, *range(width - k, width))
    where = "rows[{}]".format
    return _ingest(*_columns(rows, fields, where), where, lambda s: s)


def _columns(records, fields, where) -> tuple[list, Iterable]:
    """The label columns of ``records`` and a lazy float column per value field:
    ``fields`` are the positions of g, t, y, n (None: sizes of 1), d_1..d_K in a
    record; ``where(i)`` names record i."""
    labels = [list(map(itemgetter(j), records)) for j in fields[:2]]
    return labels, (None if j is None else _floats(records, j, where) for j in fields[2:])


def _floats(records, j: int, where) -> np.ndarray:
    rest = iter(records)
    try:
        return np.fromiter(map(float, map(itemgetter(j), rest)), float)
    except ValueError as exc:  # float failed on the record just before ``rest``
        i = len(records) - length_hint(rest) - 1
        raise MalformedInput(f"{where(i)}: cannot parse row: {exc}") from None


def _ingest(labels, values, where, parse, treatment_names=None) -> PanelDataset:
    """The one ingestion step of every reader: ``labels`` are the group and
    period columns, lists of spellings or int64 arrays; ``values`` yields the
    float columns of y, n (None: sizes of 1) and d_1..d_K, taken one by one
    after the label and cell checks; ``where(i)`` names row i, and
    ``treatment_names`` the treatments (None: d1..dK)."""
    if len(labels[0]) == 0:
        raise InsufficientVariation("no rows supplied")
    (groups, gi), (periods, ti) = (_sorted_labels(column, what, parse, where)
                                   for column, what in zip(labels, ("group", "period")))
    G, T = len(groups), len(periods)
    flat = gi * T + ti
    counts = np.bincount(flat, minlength=G * T)
    if counts.max() > 1:  # name the first row that repeats an earlier cell
        first = np.unique(flat, return_index=True)[1]
        i = int(np.setdiff1d(np.arange(flat.size), first)[0])
        g, t = (parse(column[i]) for column in labels)
        raise DuplicateCell(f"duplicate cell for group={g!r}, period={t!r}")
    if (missing := np.flatnonzero(counts == 0)).size:
        gi, ti = divmod(int(missing[0]), T)
        raise UnbalancedPanel(f"{missing.size} missing cell(s), first: "
                              f"group={groups[gi]!r}, period={periods[ti]!r}")
    grid = []
    for column in values:
        cells = np.ones(G * T)
        if column is not None:
            cells[flat] = column
        grid.append(cells.reshape(G, T))
    return PanelDataset(groups, periods, grid[0], grid[1], grid[2:], treatment_names)


def aggregate_micro(micro_rows: Iterable[Sequence]) -> list[tuple]:
    """Collapse observation-level rows ``(group, period, y_i, d_1..d_K)`` to cells.

    All observations within a cell must agree on every treatment value (the
    design is sharp); the emitted rows carry the outcome mean and the
    observation count as the cell size.
    """
    first: dict[tuple, tuple] = {}  # cell -> its code and its first row's treatments
    codes, y = [], []
    k = None
    for row in micro_rows:
        g, t, yv = row[0], row[1], float(row[2])
        dv = tuple(float(v) for v in row[3:])
        if k is None:
            k = len(dv)
        elif len(dv) != k:
            raise ValueError("rows have inconsistent treatment counts")
        code, ref = first.setdefault((g, t), (len(first), dv))
        if any(abs(a - b) > VALUE_TOL for a, b in zip(dv, ref)):
            raise NonSharpDesign(
                f"observations disagree on treatments at group={g!r}, period={t!r}"
            )
        codes.append(code)
        y.append(yv)
    if k is None:
        raise InsufficientVariation("no rows supplied")
    # bincount adds each cell's outcomes left to right from 0.0
    totals, counts = np.bincount(codes, y).tolist(), np.bincount(codes).tolist()
    return [(g, t, total / count, float(count)) + dv
            for ((g, t), (_, dv)), total, count in zip(first.items(), totals, counts)]


# -- CSV long format -------------------------------------------------------

_TREATMENT_PATTERN = re.compile(r"^d(\d+)$")
_ROLES = {"g": "group", "t": "period", "y": "outcome", "n": "cell size"}  # never a treatment


def read_panel_csv(path, treatment_cols: Sequence[str] | None = None) -> PanelDataset:
    """Read a long-format CSV panel: columns ``g,t,y[,n],d1,...,dK``.

    Column names are matched case-insensitively; ``n`` is optional. When
    ``treatment_cols`` is None, columns named ``d1, d2, ...`` are used in
    numeric order; an empty ``treatment_cols`` is refused with a ValueError.
    Extra columns are ignored with a warning listing them. The panel's
    ``treatment_names`` are the treatment columns used, in that order,
    trimmed and lower-cased; ``g``, ``t``, ``y`` and ``n`` are none.

    ``path`` is a file name, or a binary file object read from where it
    stands. Its bytes are read once and no decoded copy of the whole text is
    made: the quote, line and ASCII tests look at the bytes, and one stream
    decodes them a chunk at a time for the tokenizer, a leading UTF-8
    byte-order mark dropped. A text with no ``"`` has its body tokenized by
    numpy's C reader; quoted text, and any body numpy refuses (a byte that is
    not UTF-8 among them) or whose panel would be refused, goes through the
    ``csv`` module's records, which alone name defects. A byte that is not
    UTF-8 is refused, after any defect of the header, with
    :class:`~multidid.errors.InvalidEncoding` naming its physical line and its
    offset in the bytes read. Both tokenizers accept the same files with the
    same labels and value bits: numpy parses a field only if Python's
    ``float`` gives that very value; in an ASCII text it first asks for the
    labels as int64, which any label that is not an int64 integer refuses,
    and then labels stay plain ``str`` until each distinct spelling is
    parsed. A field longer than ``csv.field_size_limit()`` is refused with
    :class:`~multidid.errors.MalformedInput` naming its line.

    The read writes nothing; the ``multidid`` command keeps the parsed-panel
    cache (:func:`multidid.cli._load`).
    """
    if hasattr(path, "read"):
        data = path.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as lines:
            return _read_records(lines, treatment_cols, plain=_plain(data),
                                 ascii_text=data.removeprefix(codecs.BOM_UTF8).isascii())
    except UnicodeDecodeError:  # its offset is in the decoder's chunk, not in the file
        raise _not_utf8(data) from None


def _not_utf8(data: bytes) -> InvalidEncoding:
    """The error naming the first byte of ``data`` that is not UTF-8: its
    physical line (ended by LF, CR LF or a lone CR) and its offset in ``data``."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        ends = data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at)
        return InvalidEncoding(f"line {ends + 1}: not UTF-8 at byte offset {at} ({exc.reason})")


def _treatment_cols(treatment_cols: Sequence[str]) -> list[str]:
    """``treatment_cols`` trimmed and lower-cased; an empty list, which would
    read no treatment, is refused."""
    tcols = [c.strip().lower() for c in treatment_cols]
    if not tcols:
        raise ValueError("treatment_cols is empty; None reads the d1, d2, ... columns")
    return tcols


def _repeated(names: Sequence[str]) -> str | None:
    """The first name that occurs twice in ``names``, None if none does."""
    return next((name for i, name in enumerate(names) if name in names[:i]), None)


def _plain(data: bytes) -> bool:
    """Whether numpy may tokenize the UTF-8 bytes ``data``: no quotes (where two
    tokenizers can disagree), a line after the header (else numpy warns of no
    data), and no field that may pass ``csv.field_size_limit()``, which the
    records name. Such a field, of at least as many bytes as characters, fills a
    whole block of half the limit with no separator."""
    block = max(1, (csv.field_size_limit() + 1) // 2)
    return (b'"' not in data and re.search(b"[\r\n][^\r\n]", data) is not None
            and all(any(data.find(sep, i, i + block) >= 0 for sep in b",\r\n")
                    for i in range(0, len(data) - block + 1, block)))


def _csv_records(lines):
    """``(line, record)`` pairs, ``line`` the physical line the record starts on."""
    reader = csv.reader(iter(lines.readline, ""))  # not next(lines): tell() stays on
    start = 1
    try:
        for record in reader:
            yield start, record
            start = reader.line_num + 1
    except csv.Error as exc:  # a field past csv.field_size_limit()
        raise MalformedInput(f"line {reader.line_num}: {exc}") from None


def _read_records(lines, treatment_cols, plain: bool = False,
                  ascii_text: bool = False) -> PanelDataset:
    """The header, then the body: numpy's when ``plain`` (int64 labels tried
    first in an ``ascii_text``), else, or when numpy refuses it or its panel,
    the ``csv`` module's records of ``lines``, a seekable text stream. An
    empty ``treatment_cols`` is refused before a byte is decoded."""
    tcols = None if treatment_cols is None else _treatment_cols(treatment_cols)
    records = _csv_records(lines)
    _, header = next(records, (1, None))
    if header is None:
        raise MissingColumn("empty file, header row required")
    lower = [h.strip().lower() for h in header]
    pos = {name: i for i, name in enumerate(lower)}
    for required in ("g", "t", "y"):
        if required not in pos:
            raise MissingColumn(f"required column {required!r} not found")
    if tcols is None:
        found = [(int(m.group(1)), name) for name in lower
                 if (m := _TREATMENT_PATTERN.match(name))]
        if not found:
            raise MissingColumn("no treatment columns (d1, d2, ...) found")
        tcols = [name for _, name in sorted(found)]
    else:
        for c in tcols:
            if c in _ROLES:
                raise ValueError(f"treatment column {c!r} is the {_ROLES[c]} column")
            if c not in pos:
                raise MissingColumn(f"treatment column {c!r} not found")
    used = {"g", "t", "y", "n", *tcols}
    if (twice := _repeated([name for name in lower if name in used])):
        raise MalformedInput(f"column {twice!r} repeats in the header")
    if (twice := _repeated(tcols)):
        raise ValueError(f"treatment column {twice!r} is listed twice")
    extra = [header[i] for i, name in enumerate(lower) if name not in used]
    if extra:
        warnings.warn(f"ignoring extra column(s): {', '.join(extra)}", stacklevel=3)
    fields = (pos["g"], pos["t"], pos["y"], pos.get("n"), *map(pos.get, tcols))
    parse = functools.cache(_parse_label)
    if plain:
        try:
            return _read_plain(lines, fields, parse, ascii_text, tcols)
        except (ValueError, MultiDidError):  # the records name the defect, read again
            lines.seek(0)  # the records start again at the header
            records = _csv_records(lines)
            next(records)
    last = max(j for j in fields if j is not None)
    kept, linenos = [], []
    for lineno, rec in records:
        if any(map(str.strip, rec)):
            if len(rec) <= last:
                raise MalformedInput(f"line {lineno}: cannot parse row: "
                                     "list index out of range")
            kept.append(rec)
            linenos.append(lineno)

    def where(i):
        return f"line {linenos[i]}"
    return _ingest(*_columns(kept, fields, where), where, parse, tcols)


def _read_plain(lines, fields, parse, ascii_text: bool, tcols) -> PanelDataset:
    """The body in one pass of numpy's C tokenizer, y, n and d as floats. In
    an ASCII text the labels are asked for as int64, which numpy sorts and
    codes with no Python object per row; only there, as numpy's integer parser
    misreads some other digits (it can read U+0968 as 2360). If numpy refuses
    a label, or the text is not ASCII, the labels are read as ``str`` objects,
    each spelling parsed once; a fixed-width string array would hold the
    longest label's width for every row."""
    used = sorted({j for j in fields if j is not None})

    def table(label_type):
        return np.loadtxt(lines, dtype=[(str(j), label_type if j in fields[:2] else float)
                                        for j in used],
                          delimiter=",", comments=None, usecols=used, ndmin=1)
    rows = None
    if ascii_text:
        body = lines.tell()
        try:
            with warnings.catch_warnings():
                # older numpy reads "1.5" as the int 1, with only this warning
                warnings.simplefilter("error", DeprecationWarning)
                rows = table(np.int64)
        except (ValueError, OverflowError, DeprecationWarning):
            lines.seek(body)
    if rows is None:
        rows = table(object)
        labels = [rows[str(j)].tolist() for j in fields[:2]]
    else:  # int names a repeated cell's labels
        labels, parse = [rows[str(j)] for j in fields[:2]], int
    values = [None if j is None else np.asarray(rows[str(j)], float) for j in fields[2:]]
    return _ingest(labels, values, str, parse, tcols)


def _parse_label(text: str):
    text = text.strip()
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _destination(path):
    """The stream, as a context manager, of every file and report written: the
    file ``path``, UTF-8 with ``newline=""`` as ``csv`` requires, or stdout if None."""
    return (contextlib.nullcontext(sys.stdout) if path is None
            else open(path, "w", encoding="utf-8", newline=""))


def _write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """The one CSV writer: ``header``, then ``rows`` one at a time, to
    :func:`_destination` ``(path)``."""
    with _destination(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# no indent keeps json on its C encoder; the separators are json.dumps' own
_ENCODER = json.JSONEncoder(default=str, allow_nan=False)


def encode_json(value) -> str:
    """``json.dumps(value, default=str)``, refusing NaN and infinity: the one
    encoder of every JSON report."""
    try:
        return _ENCODER.encode(value)
    except ValueError as exc:  # on a tree, json raises it only for allow_nan
        raise NonFiniteValue(f"report holds a non-finite number ({exc})") from None


class _Rows(list):
    """The JSON texts of an array's elements, which a report writes as the
    array ``[row, row, ...]``."""


class _Table:
    """A result's table, laid out once for its records and ``csv_rows``
    (:meth:`rows`), ``to_dict`` (:meth:`dicts`) and report (:meth:`json`).
    Column i, keyed ``keys[i]`` or, if only :meth:`rows` gives it, None, is
    ``(labels, codes)`` for the values ``labels[codes]``, or an array of
    numbers; a 2-D array's row is a tuple in :meth:`rows`, a list elsewhere."""

    # json's spellings of int and str, without encode_json's per-call C encoder
    _SPELLERS = {int: int.__repr__, str: json.encoder.encode_basestring_ascii}
    _PIECES: dict[tuple, list[str]] = {}  # per layout, the text of a JSON row around its values

    def __init__(self, keys: tuple, *columns):
        self.columns, self.keys = columns, tuple(key for key in keys if key is not None)
        self.keyed = [c for key, c in zip(keys, columns) if key is not None]

    @staticmethod
    def _values(c, listed: bool = False) -> Iterable:
        if isinstance(c, tuple):  # indexing, not map(labels.__getitem__): 35% faster
            labels, codes = c
            return [labels[i] for i in codes.tolist()]
        return c.tolist() if listed or c.ndim == 1 else map(tuple, c.tolist())

    @classmethod
    def _spelled(cls, c) -> Iterable[str]:
        """A column's JSON texts: each label that a code names (one
        ``np.bincount`` finds them) spelled once and gathered by index; finite
        floats, and rows of them, spelled by ``repr`` as json spells them."""
        if isinstance(c, tuple):
            labels, codes = c
            spelled = np.empty(len(labels), dtype=object)
            used = np.flatnonzero(np.bincount(codes, minlength=len(labels))).tolist()
            spelled[used] = [cls._SPELLERS.get(type(v), encode_json)(v)
                             for v in map(labels.__getitem__, used)]
            return spelled[codes]  # zipped as is: a list copy raised peak RSS
        if not (finite := np.isfinite(c)).all():
            raise NonFiniteValue(f"report holds a non-finite number ({float(c[~finite][0])!r})")
        return map(float.__repr__ if c.ndim == 1 else list.__repr__, c.tolist())

    def rows(self) -> list[tuple]:
        return list(zip(*map(self._values, self.columns)))

    def dicts(self) -> list[dict]:
        keyed = (self._values(c, True) for c in self.keyed)
        return [dict(zip(self.keys, row)) for row in zip(*keyed)]

    def json(self) -> _Rows:
        """The JSON text of each of :meth:`dicts`, joined from the spelled
        columns and the layout's pieces (``%`` on each row took 20% longer)."""
        if (pieces := self._PIECES.get(self.keys)) is None:  # split where values go
            fields = ", ".join(f"{encode_json(key)}: \0" for key in self.keys)
            pieces = self._PIECES[self.keys] = ("{" + fields + "}").split("\0")
        parts = chain.from_iterable(zip(map(self._spelled, self.keyed), map(repeat, pieces[1:])))
        return _Rows(map("".join, zip(repeat(pieces[0]), *parts)))


def write_panel_csv(panel: PanelDataset, path) -> None:
    """Write the panel in the long CSV format accepted by :func:`read_panel_csv`,
    its treatment columns headed by ``panel.treatment_names``, about 2^14 rows
    at a time through the package's one CSV writer (UTF-8, lines ending in CR LF).

    Floats are written with shortest round-trip representation, so reading
    the file back reproduces every cell value exactly.
    """
    def rows():  # each block's value lists made after the file opens
        step = max(1, (1 << 14) // panel.n_periods)  # 2^14 rows' worth of whole groups
        for i in range(0, panel.n_groups, step):
            g, t = zip(*product(panel.group_labels[i:i + step], panel.period_labels))
            yield from zip(g, t, *(map(repr, a[i:i + step].ravel().tolist())
                                   for a in (panel.y, panel.n, *panel.d)))
    _write_csv(path, ["g", "t", "y", "n", *panel.treatment_names], rows())
