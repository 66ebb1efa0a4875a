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

import csv
import functools
import re
import warnings
from dataclasses import dataclass
from itertools import product
from operator import itemgetter, length_hint
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateCell,
    InsufficientVariation,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    NonPositiveWeight,
    NonSharpDesign,
    UnbalancedPanel,
)

#: Absolute tolerance for treatment-value equality (CSV round-trip noise).
VALUE_TOL = 1e-12


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


@dataclass(frozen=True)
class PanelCell:
    """One group observed in one period."""

    group: object
    period: object
    y: float
    n: float
    d: tuple[float, ...]


class PanelDataset:
    """Immutable balanced panel of G groups over T periods with K treatments.

    Internally the panel is stored as dense arrays indexed by sorted group
    and period labels: ``y`` and ``n`` with shape (G, T) and ``d`` with shape
    (K, G, T). The arrays are write-protected; concurrent reads are safe.
    """

    __slots__ = ("group_labels", "period_labels", "y", "n", "d", "n_treatments",
                 "binary_treatments", "total_n", "_group_index", "_period_index")

    def __init__(self, group_labels, period_labels, y, n, d):
        self.group_labels = tuple(group_labels)
        self.period_labels = tuple(period_labels)
        self.y = np.asarray(y, dtype=float)
        self.n = np.asarray(n, dtype=float)
        self.d = np.asarray(d, dtype=float)
        g, t = self.y.shape
        if self.n.shape != (g, t) or self.d.shape[1:] != (g, t):
            raise ValueError("inconsistent array shapes for panel construction")
        self.n_treatments = int(self.d.shape[0])
        if g < 2 or t < 2:
            raise InsufficientVariation(
                f"panel needs at least 2 groups and 2 periods, got G={g}, T={t}"
            )
        names = ("y", "n", *(f"d{k + 1}" for k in range(self.n_treatments)))
        for name, values in zip(names, (self.y, self.n, *self.d)):
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                raise NonFiniteValue(f"{name} is {float(values[tuple(bad[0])])!r} at "
                                     f"{self._cell_name(*bad[0])}")
        if np.any(self.n <= 0):
            gi, ti = np.argwhere(self.n <= 0)[0]
            raise NonPositiveWeight(f"cell size must be positive, got "
                                    f"{float(self.n[gi, ti])} at {self._cell_name(gi, ti)}")
        self.d = _canonical(self.d)
        self.binary_treatments = bool(np.isin(self.d, (0.0, 1.0)).all())
        # fixed left-to-right order (groups outer, periods inner) so the
        # reported total is reproducible bit for bit
        with np.errstate(over="ignore"):
            self.total_n = float(np.cumsum(self.n.ravel())[-1])
        if self.total_n == np.inf:
            raise NonFiniteValue("cell sizes n sum past the float range")
        self._group_index = {lab: i for i, lab in enumerate(self.group_labels)}
        self._period_index = {lab: i for i, lab in enumerate(self.period_labels)}
        for a in (self.y, self.n, self.d):
            a.setflags(write=False)

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

    def cell(self, group, period) -> PanelCell:
        gi = self._group_index[group]
        ti = self._period_index[period]
        return PanelCell(group, period, float(self.y[gi, ti]), float(self.n[gi, ti]),
                         tuple(float(v) for v in self.d[:, gi, ti]))

    def treated_count(self, k: int) -> float:
        """Total size of the cells where treatment ``k`` is on (binary k)."""
        return float(np.sum(self.n * self.d[k]))

    def require_binary(self, context: str = "this operation") -> None:
        if not self.binary_treatments:
            raise NonBinaryTreatment(f"{context} requires binary treatment values")

    # -- derived panels ----------------------------------------------------

    def restrict_groups(self, groups: Iterable) -> "PanelDataset":
        """Sub-panel containing only the given group labels (order preserved)."""
        keep = [self._group_index[g] for g in groups]
        labels = [self.group_labels[i] for i in keep]
        return PanelDataset(labels, self.period_labels,
                            self.y[keep], self.n[keep], self.d[:, keep])

    def with_groups(self, indices: Sequence[int], labels: Sequence) -> "PanelDataset":
        """Panel built from rows of this one, allowing repeated groups (bootstrap)."""
        idx = list(indices)
        return PanelDataset(labels, self.period_labels,
                            self.y[idx], self.n[idx], self.d[:, idx])


def _sorted_labels(column: list, what: str, parse, where) -> tuple[list, np.ndarray]:
    """Sorted distinct labels of ``column`` and every row's index into them; a
    dict keeps the first of equal keys, so 1 and 1.0 are one label, the first."""
    spelled = {s: parse(s) for s in dict.fromkeys(column)}
    if bad := [s for s, v in spelled.items() if v != v or v in (np.inf, -np.inf)]:
        i = min(map(column.index, bad))
        raise NonFiniteValue(f"{where(i)}: non-finite label {str(column[i]).strip()!r}")
    try:
        labels = sorted(set(spelled.values()))
    except TypeError:  # its text follows the set's hash order; name the types sorted
        kinds = sorted({type(v).__name__ for v in spelled.values()})
        raise ValueError(f"{what} labels must be mutually orderable, got labels of "
                         f"type {', '.join(kinds)}") from None
    index = {label: i for i, label in enumerate(labels)}
    code = {s: index[v] for s, v in spelled.items()}
    return labels, np.fromiter(map(code.__getitem__, column), np.intp)


def load_panel(rows: Sequence[Sequence], n_treatments: int,
               binary_required: bool = False) -> PanelDataset:
    """Build a validated panel from long-format rows.

    Each row is ``(group, period, y, d_1, ..., d_K)`` or
    ``(group, period, y, n, d_1, ..., d_K)``; the cell size ``n`` defaults
    to 1 when absent. Rows must already be aggregated to one per cell (see
    :func:`aggregate_micro` for observation-level data).
    """
    rows = list(rows)
    k = int(n_treatments)
    if k < 1:
        raise ValueError("n_treatments must be >= 1")
    width = len(rows[0]) if rows else 3 + k  # no rows: _ingest refuses them
    if width not in (3 + k, 4 + k):
        raise ValueError(f"rows must have {3 + k} or {4 + k} fields for K={k}, "
                         f"got {width}")
    if set(map(len, rows)) - {width}:
        raise ValueError("rows have inconsistent lengths")
    fields = (0, 1, 2, 3 if width == 4 + k else None, *range(width - k, width))
    return _ingest(rows, fields, "rows[{}]".format, lambda s: s, binary_required)


def _ingest(records, fields, where, parse, binary_required: bool) -> PanelDataset:
    """The one ingestion step of both readers: ``fields`` are the positions of g,
    t, y, n (None: sizes of 1), d_1..d_K in a record; ``where(i)`` names row i."""
    if not records:
        raise InsufficientVariation("no rows supplied")
    raw = [list(map(itemgetter(j), records)) for j in fields[:2]]
    (groups, gi), (periods, ti) = (_sorted_labels(column, what, parse, where)
                                   for column, what in zip(raw, ("group", "period")))
    G, T = len(groups), len(periods)
    flat = gi * T + ti
    counts = np.bincount(flat, minlength=G * T)
    if counts.max() > 1:  # name the first row that repeats an earlier cell
        first = np.unique(flat, return_index=True)[1]
        i = int(np.setdiff1d(np.arange(flat.size), first)[0])
        g, t = (parse(column[i]) for column in raw)
        raise DuplicateCell(f"duplicate cell for group={g!r}, period={t!r}")
    if (missing := np.flatnonzero(counts == 0)).size:
        gi, ti = divmod(int(missing[0]), T)
        raise UnbalancedPanel(f"{missing.size} missing cell(s), first: "
                              f"group={groups[gi]!r}, period={periods[ti]!r}")
    grid = np.ones((len(fields) - 2, G, T))
    try:
        for row, j in zip(grid, fields[2:]):
            if j is not None:
                rest = iter(records)
                row.flat[flat] = np.fromiter(map(float, map(itemgetter(j), rest)), float)
    except ValueError as exc:  # float failed on the record just before ``rest``
        i = len(records) - length_hint(rest) - 1
        raise ValueError(f"{where(i)}: cannot parse row: {exc}") from None
    panel = PanelDataset(groups, periods, grid[0], grid[1], grid[2:])
    if binary_required and not panel.binary_treatments:
        k, gi, ti = np.argwhere(~np.isin(panel.d, (0.0, 1.0)))[0]
        raise NonBinaryTreatment(f"treatment {k + 1} is {float(panel.d[k, gi, ti])!r} "
                                 f"at {panel._cell_name(gi, ti)}")
    return panel


def aggregate_micro(micro_rows: Iterable[Sequence]) -> list[tuple]:
    """Collapse observation-level rows ``(group, period, y_i, d_1..d_K)`` to cells.

    All observations within a cell must agree on every treatment value (the
    design is sharp); the emitted rows carry the outcome mean and the
    observation count as the cell size.
    """
    acc: dict[tuple, list] = {}
    order: list[tuple] = []
    k = None
    for row in micro_rows:
        g, t, yv = row[0], row[1], float(row[2])
        dv = tuple(float(v) for v in row[3:])
        if k is None:
            k = len(dv)
        elif len(dv) != k:
            raise ValueError("rows have inconsistent treatment counts")
        key = (g, t)
        if key not in acc:
            acc[key] = [0.0, 0, dv]
            order.append(key)
        else:
            ref = acc[key][2]
            if any(abs(a - b) > VALUE_TOL for a, b in zip(dv, ref)):
                raise NonSharpDesign(
                    f"observations disagree on treatments at group={g!r}, period={t!r}"
                )
        acc[key][0] += yv
        acc[key][1] += 1
    if k is None:
        raise InsufficientVariation("no rows supplied")
    out = []
    for key in order:
        total, count, dv = acc[key]
        out.append((key[0], key[1], total / count, float(count)) + dv)
    return out


# -- CSV long format -------------------------------------------------------

_TREATMENT_PATTERN = re.compile(r"^d(\d+)$")


def read_panel_csv(path, treatment_cols: Sequence[str] | None = None,
                   binary_required: bool = False) -> PanelDataset:
    """Read a long-format CSV panel: columns ``g,t,y[,n],d1,...,dK``.

    Column names are matched case-insensitively; ``n`` is optional. When
    ``treatment_cols`` is None, columns named ``d1, d2, ...`` are used in
    numeric order. Extra columns are ignored with a warning listing them.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn("empty file, header row required") from None
        lower = [h.strip().lower() for h in header]
        pos = {name: i for i, name in enumerate(lower)}
        for required in ("g", "t", "y"):
            if required not in pos:
                raise MissingColumn(f"required column {required!r} not found")
        if treatment_cols is None:
            found = [(int(m.group(1)), name) for name in lower
                     if (m := _TREATMENT_PATTERN.match(name))]
            if not found:
                raise MissingColumn("no treatment columns (d1, d2, ...) found")
            tcols = [name for _, name in sorted(found)]
        else:
            tcols = [c.strip().lower() for c in treatment_cols]
            for c in tcols:
                if c not in pos:
                    raise MissingColumn(f"treatment column {c!r} not found")
        used = {"g", "t", "y", "n"} | set(tcols)
        extra = [header[i] for i, name in enumerate(lower) if name not in used]
        if extra:
            warnings.warn(f"ignoring extra column(s): {', '.join(extra)}",
                          stacklevel=2)
        fields = (pos["g"], pos["t"], pos["y"], pos.get("n"), *map(pos.get, tcols))
        last = max(j for j in fields if j is not None)
        records, lines = [], []
        for lineno, rec in enumerate(reader, start=2):
            if any(map(str.strip, rec)):
                if len(rec) <= last:
                    raise ValueError(f"line {lineno}: cannot parse row: "
                                     "list index out of range")
                records.append(rec)
                lines.append(lineno)
    return _ingest(records, fields, lambda i: f"line {lines[i]}",
                   functools.cache(_parse_label), binary_required)


def _parse_label(text: str):
    text = text.strip()
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def write_panel_csv(panel: PanelDataset, path,
                    treatment_names: Sequence[str] | None = None) -> None:
    """Write the panel in the long CSV format accepted by :func:`read_panel_csv`.

    Floats are written with shortest round-trip representation, so reading
    the file back reproduces every cell value exactly.
    """
    names = list(treatment_names) if treatment_names is not None else [
        f"d{k + 1}" for k in range(panel.n_treatments)
    ]
    if len(names) != panel.n_treatments:
        raise ValueError("one name per treatment required")
    g, t = zip(*product(panel.group_labels, panel.period_labels))
    values = (map(repr, a.ravel().tolist()) for a in (panel.y, panel.n, *panel.d))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g", "t", "y", "n", *names])
        writer.writerows(zip(g, t, *values))
