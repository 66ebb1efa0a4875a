"""Balanced group-by-period panel data model, ingestion, and validation.

A panel is a complete G x T grid of cells. Each cell carries the outcome
mean of its observations, a positive cell size used as a regression weight,
and K treatment values shared by every observation in the cell (treatments
are group-level variables, e.g. state laws).

Period labels may be arbitrary ordered numbers (1987, 1992, 1997, ...); they
are densely reindexed so that "the previous period" always means the previous
observed period. Cell sizes are positive reals rather than integer counts so
externally weighted panels can be analyzed; finite-sample statements in the
literature are phrased for integer counts, which is worth keeping in mind
when supplying non-integer weights.

Outcomes, sizes and treatment values must be finite. Treatment values are
made canonical once, at construction, so that every later comparison of them
is exact: sorted distinct values no more than ``VALUE_TOL`` apart chain into
one cluster, whose members all take one representative: the integer within
``VALUE_TOL`` of some member if there is one, else the smallest member.
Values already pairwise further apart, with none within ``VALUE_TOL`` of an
integer it differs from, are kept bit for bit.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
        self.total_n = float(np.cumsum(self.n.ravel())[-1])
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

    def cells(self) -> Iterator[PanelCell]:
        for g in self.group_labels:
            for t in self.period_labels:
                yield self.cell(g, t)

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


def _sorted_labels(values, what: str):
    try:
        return sorted(set(values))
    except TypeError as exc:
        raise ValueError(f"{what} labels must be mutually orderable: {exc}") from None


def load_panel(rows: Sequence[Sequence], n_treatments: int,
               binary_required: bool = False) -> PanelDataset:
    """Build a validated panel from long-format rows.

    Each row is ``(group, period, y, d_1, ..., d_K)`` or
    ``(group, period, y, n, d_1, ..., d_K)``; the cell size ``n`` defaults
    to 1 when absent. Rows must already be aggregated to one per cell (see
    :func:`aggregate_micro` for observation-level data).
    """
    rows = list(rows)
    if not rows:
        raise InsufficientVariation("no rows supplied")
    k = int(n_treatments)
    if k < 1:
        raise ValueError("n_treatments must be >= 1")
    width = len(rows[0])
    if width == 3 + k:
        has_n = False
    elif width == 4 + k:
        has_n = True
    else:
        raise ValueError(
            f"rows must have {3 + k} or {4 + k} fields for K={k}, got {width}"
        )

    seen: dict[tuple, tuple] = {}
    for row in rows:
        if len(row) != width:
            raise ValueError("rows have inconsistent lengths")
        g, t = row[0], row[1]
        if (g, t) in seen:
            raise DuplicateCell(f"duplicate cell for group={g!r}, period={t!r}")
        yv = float(row[2])
        nv = float(row[3]) if has_n else 1.0
        dv = tuple(float(v) for v in row[(4 if has_n else 3):])
        seen[(g, t)] = (yv, nv, dv)

    groups = _sorted_labels((g for g, _ in seen), "group")
    periods = _sorted_labels((t for _, t in seen), "period")
    missing = [(g, t) for g in groups for t in periods if (g, t) not in seen]
    if missing:
        raise UnbalancedPanel(
            f"{len(missing)} missing cell(s), first: group={missing[0][0]!r}, "
            f"period={missing[0][1]!r}"
        )
    G, T = len(groups), len(periods)
    y = np.empty((G, T))
    n = np.empty((G, T))
    d = np.empty((k, G, T))
    for gi, g in enumerate(groups):
        for ti, t in enumerate(periods):
            y[gi, ti], n[gi, ti], d[:, gi, ti] = seen[(g, t)]
    panel = PanelDataset(groups, periods, y, n, d)
    if binary_required and not panel.binary_treatments:
        ks, gs, ts = np.nonzero(~np.isin(panel.d, (0.0, 1.0)))
        raise NonBinaryTreatment(
            f"treatment {ks[0] + 1} is {float(panel.d[ks[0], gs[0], ts[0]])!r} at "
            f"{panel._cell_name(gs[0], ts[0])}"
        )
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

        has_n = "n" in pos
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec or all(not f.strip() for f in rec):
                continue
            try:
                g = _parse_label(rec[pos["g"]], lineno)
                t = _parse_label(rec[pos["t"]], lineno)
                yv = float(rec[pos["y"]])
                dv = [float(rec[pos[c]]) for c in tcols]
                if has_n:
                    rows.append((g, t, yv, float(rec[pos["n"]]), *dv))
                else:
                    rows.append((g, t, yv, *dv))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"line {lineno}: cannot parse row: {exc}") from None
    return load_panel(rows, n_treatments=len(tcols), binary_required=binary_required)


def _parse_label(text: str, lineno: int):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    if not np.isfinite(value):
        raise NonFiniteValue(f"line {lineno}: non-finite label {text!r}")
    return value


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g", "t", "y", "n", *names])
        for gi, g in enumerate(panel.group_labels):
            for ti, t in enumerate(panel.period_labels):
                writer.writerow([
                    g, t, repr(float(panel.y[gi, ti])), repr(float(panel.n[gi, ti])),
                    *(repr(float(v)) for v in panel.d[:, gi, ti]),
                ])
