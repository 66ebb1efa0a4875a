import argparse
import codecs
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import multidid as m
from multidid import cli
from multidid import panel as panel_mod
from multidid.cli import main
from multidid.errors import (
    DuplicateCell,
    InsufficientVariation,
    InvalidEncoding,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    NonPositiveWeight,
    NonSharpDesign,
    UnbalancedPanel,
)

CSV_BASE = ["g,t,y,n,d1", "1,1,0.5,1,0", "1,2,0.5,1,1", "2,1,0.5,1,0", "2,2,0.5,1,0"]


def _four_by_two_rows():
    rows = []
    for g in range(1, 5):
        rows.append((g, 1, 0.0, 0.0, 0.0))
        rows.append((g, 2, float(g % 2), float(g in (2, 4)), float(g in (3, 4))))
    return rows


def test_load_panel_four_groups_two_periods():
    panel = m.load_panel(_four_by_two_rows(), n_treatments=2)
    assert panel.n_groups == 4
    assert panel.n_periods == 2
    assert panel.total_n == 8.0
    assert panel.binary_treatments


def test_load_panel_single_cell_insufficient():
    with pytest.raises(InsufficientVariation):
        m.load_panel([(1, 1, 0.5, 1.0)], n_treatments=1)


def test_load_panel_missing_cell_unbalanced():
    rows = [(g, t, 0.0, 0.0) for g in (1, 2, 3) for t in (1, 2, 3)
            if not (g == 2 and t == 3)]
    with pytest.raises(UnbalancedPanel):
        m.load_panel(rows, n_treatments=1)


def test_load_panel_duplicate_cell():
    rows = [(1, 1, 0.0, 0.0), (1, 1, 1.0, 0.0), (1, 2, 0.0, 0.0),
            (2, 1, 0.0, 0.0), (2, 2, 0.0, 0.0)]
    with pytest.raises(DuplicateCell):
        m.load_panel(rows, n_treatments=1)


def test_load_panel_nonpositive_size():
    rows = [(1, 1, 0.0, 0.0, 0.0), (1, 2, 0.0, 1.0, 0.0),
            (2, 1, 0.0, 1.0, 0.0), (2, 2, 0.0, 1.0, 0.0)]
    with pytest.raises(NonPositiveWeight):
        m.load_panel(rows, n_treatments=1)


def test_load_panel_binary_required():
    rows = [(1, 1, 0.0, 0.0), (1, 2, 0.0, 0.3),
            (2, 1, 0.0, 0.0), (2, 2, 0.0, 1.0)]
    with pytest.raises(NonBinaryTreatment):
        m.load_panel(rows, n_treatments=1).require_binary()
    panel = m.load_panel(rows, n_treatments=1)
    assert not panel.binary_treatments


@pytest.mark.parametrize("estimator", [
    lambda p: m.decompose(p, 0),
    lambda p: m.second_treatment_effects(p, 0, 1),
    lambda p: m.split_by_order(p, 0, 1),
], ids=["decompose", "second_treatment_effects", "split_by_order"])
def test_non_binary_errors_name_the_cell(estimator):
    """Every binary-only estimator names the first non-binary value, treatments
    outer; before, each named only itself ("the weight decomposition requires
    binary treatment values")."""
    d = np.zeros((2, 3, 3))
    d[:, :, 2] = 1.0
    d[1, 2, 1], d[1, 1, 2] = 0.5, 2.0
    panel = m.PanelDataset("abc", (1, 2, 3), np.zeros((3, 3)), np.ones((3, 3)), d)
    with pytest.raises(NonBinaryTreatment,
                       match=re.escape("treatment d2 is 2.0 at group='b', period=3")):
        estimator(panel)


@pytest.mark.parametrize("k", [-1, 2, 0.5, 1.0, 0.0, True, np.float64(0.0)])
@pytest.mark.parametrize("call", [
    lambda syn, k: m.first_stage(syn.panel, k),
    lambda syn, k: m.didm(syn.panel, k),
    lambda syn, k: m.didm(syn.panel, k, binary_only=True),
    lambda syn, k: m.find_switchers(syn.panel, k),
    lambda syn, k: m.delta_s_oracle(syn, k),
    lambda syn, k: m.bootstrap_se(syn.panel, "twfe", 5, 0, target=k),
    lambda syn, k: m.bootstrap_se(syn.panel, "didm", 5, 0, target=k),
    lambda syn, k: m.bootstrap_se(syn.panel, "did_ell", 5, 0, first=k),
    lambda syn, k: m.bootstrap_se(syn.panel, "did_ell", 5, 0, second=k),
    lambda syn, k: syn.target_effect_grid(k),
    lambda syn, k: syn.others_effect_grid(k),
], ids=["first_stage", "didm", "didm_binary_only", "find_switchers", "delta_s_oracle",
        "bootstrap_twfe", "bootstrap_didm", "bootstrap_first", "bootstrap_second",
        "target_effect_grid", "others_effect_grid"])
def test_treatment_index_out_of_range(abc_staggered, call, k):
    """These functions refuse -1 and K alike, as adoption_dates does. Before,
    didm read -1 as the last treatment, K was an IndexError, delta_s_oracle
    failed on a negative shift and the didm bootstrap called every replicate
    degenerate. The effect grids failed on a negative shift or an IndexError.
    An index that is not an int or a numpy integer, a bool included, is
    refused too: 0.5 and 1.0 were an IndexError or a TypeError."""
    message = (f"treatment must be in 0..1, got {k}" if type(k) is int
               else f"treatment must be an integer, got {k!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(abc_staggered, k)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("column, pos",
                         [("y", 2), ("n", 3), ("d1", 4), ("g", 0), ("t", 1)])
def test_non_finite_values_rejected(column, pos, bad):
    rows = [list(r) for r in [(1, 1, 0.0, 1.0, 0.0), (1, 2, 0.0, 1.0, 1.0),
                              (2, 1, 0.0, 1.0, 0.0), (2, 2, 0.0, 1.0, 0.0)]]
    if pos < 2:
        # label 2 becomes the bad value in every row, so the panel stays
        # balanced; the first such row is rows[2] for g and rows[1] for t
        for row in rows:
            if row[pos] == 2:
                row[pos] = bad
        match = f"rows[{2 - pos}]: non-finite label '{bad!r}'"
    else:
        rows[3][pos] = bad
        match = f"{column} is {bad!r} at group=2, period=2"
    with pytest.raises(NonFiniteValue, match=re.escape(match)):
        m.load_panel(rows, n_treatments=1).require_binary()
    if pos >= 2:
        y, n, d = np.zeros((2, 2)), np.ones((2, 2)), np.zeros((1, 2, 2))
        (y, n, d[0])[pos - 2][1, 1] = bad
        with pytest.raises(NonFiniteValue, match=match):
            m.PanelDataset((1, 2), (1, 2), y, n, d)


def test_non_finite_total_size_rejected():
    # every size is finite, their sum is not
    rows = [(1, 1, 0.0, 1e308, 0.0), (1, 2, 1.0, 1e308, 1.0),
            (2, 1, 0.0, 1e308, 0.0), (2, 2, 0.0, 1e308, 0.0)]
    with pytest.raises(NonFiniteValue, match="cell sizes n sum past the float range"):
        m.load_panel(rows, n_treatments=1)
    with pytest.raises(NonFiniteValue, match="cell sizes n sum past the float range"):
        m.PanelDataset((1, 2), (1, 2), np.zeros((2, 2)), np.full((2, 2), 1e308),
                       np.zeros((1, 2, 2)))


def test_canonical_treatment_values():
    d = np.array([[[0.0, 1e-13, -1e-13], [1.0 + 5e-13, 1.0 - 9e-13, 2.0],
                   [0.3, 0.3 + 5e-13, 0.3 + 9e-13]]])
    panel = m.PanelDataset(range(3), range(3), np.zeros((3, 3)), np.ones((3, 3)), d)
    assert panel.d.tolist() == [[[0.0, 0.0, 0.0], [1.0, 1.0, 2.0], [0.3, 0.3, 0.3]]]
    assert not np.signbit(panel.d).any()
    rows = [(g, t, 0.0, 1.0 - 5e-13 if g == t else 0.0) for g in (1, 2) for t in (1, 2)]
    panel = m.load_panel(rows, n_treatments=1)
    panel.require_binary()
    assert panel.binary_treatments


def test_missing_n_defaults_to_one():
    rows = [(1, 1, 0.0, 0.0), (1, 2, 0.0, 1.0),
            (2, 1, 0.0, 0.0), (2, 2, 0.0, 0.0)]
    panel = m.load_panel(rows, n_treatments=1)
    assert panel.total_n == 4.0


def test_period_labels_reindexed_in_sorted_order():
    rows = [(g, t, float(t), 0.0) for g in ("a", "b") for t in (1997, 1987, 1992)]
    panel = m.load_panel(rows, n_treatments=1)
    assert panel.period_labels == (1987, 1992, 1997)
    assert panel.period_index(1992) == 1
    assert panel.y[panel.group_index("a"), panel.period_index(1987)] == 1987.0


def test_equal_labels_keep_the_first_spelling(tmp_path):
    rows = [(1.0, 2, 0.0, 0.0), (1, 1.0, 0.0, 1.0), (2, 2.0, 0.0, 0.0),
            (2, 1, 0.0, 0.0)]
    panel = m.load_panel(rows, n_treatments=1)
    assert [type(v) for v in panel.group_labels + panel.period_labels] == [float, int,
                                                                           float, int]
    lines = ["g,t,y,d1", " 1.0 ,2,0,0", "1,1.0,0,1", "+2,2.0,0,0", "2, 1 ,0,0"]
    panel = m.read_panel_csv(_csv(tmp_path, lines))
    assert [type(v) for v in panel.group_labels + panel.period_labels] == [float, int,
                                                                           float, int]


def test_total_n_matches_fixed_order_sum():
    rng = np.random.default_rng(5)
    n = rng.uniform(0.1, 2.0, size=(6, 4))
    panel = m.PanelDataset(range(6), range(4), np.zeros((6, 4)), n,
                           np.zeros((1, 6, 4)))
    total = 0.0
    for g in range(6):
        for t in range(4):
            total += n[g, t]
    assert panel.total_n == total


def test_aggregate_micro_mean_and_count():
    micro = [(1, 1, 1.0, 1.0, 0.0), (1, 1, 3.0, 1.0, 0.0)]
    out = m.aggregate_micro(micro)
    assert out == [(1, 1, 2.0, 2.0, 1.0, 0.0)]


def test_aggregate_micro_identity_single_row():
    out = m.aggregate_micro([(1, 1, 0.7, 1.0), (1, 2, 0.1, 0.0)])
    assert out == [(1, 1, 0.7, 1.0, 1.0), (1, 2, 0.1, 1.0, 0.0)]


def test_aggregate_micro_non_sharp():
    micro = [(1, 1, 1.0, 1.0, 0.0), (1, 1, 3.0, 0.0, 0.0)]
    with pytest.raises(NonSharpDesign):
        m.aggregate_micro(micro)


def test_aggregate_micro_feeds_load_panel():
    rng = np.random.default_rng(0)
    micro = []
    for g in range(3):
        for t in range(3):
            dv = float(rng.integers(0, 2))
            for _ in range(int(rng.integers(1, 4))):
                micro.append((g, t, float(rng.normal()), dv))
    panel = m.load_panel(m.aggregate_micro(micro), n_treatments=1)
    assert panel.n_groups == 3 and panel.n_periods == 3


def _panel_with(**changes):
    """A 2x2 one-treatment panel, with ``changes`` to its constructor's arguments."""
    args = dict(group_labels=(1, 2), period_labels=(1, 2), y=np.zeros((2, 2)),
                n=np.ones((2, 2)), d=np.zeros((1, 2, 2)))
    return m.PanelDataset(**(args | changes))


@pytest.mark.parametrize("build, error, message", [
    (lambda: _panel_with(n=np.ones((2, 3))), ValueError,
     "inconsistent array shapes for panel construction"),
    (lambda: _panel_with(treatment_names=("d1", "d2")), ValueError,
     "one name per treatment required"),
    (lambda: m.load_panel([(1, 1, 0.0, 0.0)], n_treatments=0), ValueError,
     "n_treatments must be >= 1"),
    (lambda: m.load_panel([(1, 1, 0.0, 0.0)], n_treatments=1.9), ValueError,
     "n_treatments must be an integer, got 1.9"),
    (lambda: m.load_panel([(1, 1, 0.0, 0.0)], n_treatments=True), ValueError,
     "n_treatments must be an integer, got True"),
    (lambda: m.load_panel([(1, 1, 0.0, 1.0, 0.0, 0.0)], n_treatments=1), ValueError,
     "rows must have 4 or 5 fields for K=1, got 6"),
    (lambda: m.load_panel([(1, 1, 0.0, 0.0), (1, 2, 0.0, 1.0, 0.0)], n_treatments=1),
     ValueError, "rows have inconsistent lengths"),
    (lambda: m.aggregate_micro([(1, 1, 0.0, 1.0), (1, 2, 0.0, 1.0, 0.0)]), ValueError,
     "rows have inconsistent treatment counts"),
    (lambda: m.aggregate_micro([]), InsufficientVariation, "no rows supplied"),
])
def test_construction_guards_name_the_defect(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_empty_csv_is_refused(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_bytes(b"")
    with pytest.raises(MissingColumn, match="^empty file, header row required$"):
        m.read_panel_csv(path)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    G, T, K = 5, 3, 2
    y = rng.standard_normal((G, T))
    n = rng.uniform(0.5, 4.0, size=(G, T))
    d = (rng.random((K, G, T)) < 0.5).astype(float)
    panel = m.PanelDataset(range(G), range(T), y, n, d)
    path = tmp_path / "panel.csv"
    m.write_panel_csv(panel, path)
    back = m.read_panel_csv(path)
    assert back.group_labels == panel.group_labels
    assert back.period_labels == panel.period_labels
    assert np.array_equal(back.y, panel.y)
    assert np.array_equal(back.n, panel.n)
    assert np.array_equal(back.d, panel.d)


def test_writing_a_panel_holds_a_block_of_rows_at_a_time(tmp_path):
    """``write_panel_csv`` spells about 2^14 rows at a time: writing a 200 000-row
    panel peaks under 20 MB in Python allocations, where every column's
    value list at once took 39.9 MB; the rows across block ends read back
    bit for bit."""
    spec = m.DgpSpec(kind="random-binary", n_groups=5000, n_periods=40, n_treatments=4,
                     seed=1, cell_sizes="random", base_effects=(1.0, 2.0, -1.0, 0.5))
    panel = m.generate(spec).panel
    path = tmp_path / "panel.csv"
    tracemalloc.start()
    try:
        m.write_panel_csv(panel, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
    back = m.read_panel_csv(path)
    assert (back.group_labels, back.period_labels) == (panel.group_labels, panel.period_labels)
    for a, b in ((back.y, panel.y), (back.n, panel.n), (back.d, panel.d)):
        assert a.tobytes() == b.tobytes()


def test_a_report_table_encodes_only_the_labels_its_rows_use(monkeypatch):
    """A column of 3 of 600 labels spells those 3, each once: float labels
    through ``encode_json``; int and str labels by json's own spellings,
    which equal ``json.dumps``."""
    labels = tuple(i + 0.5 for i in range(1000, 1600))
    codes, weight = np.array([7, 599, 7, 0]), np.array([0.5, -1.0, 2.0, 0.25])
    table = panel_mod._Table(("g", "weight"), (labels, codes), weight)
    want = ['{"g": 1007.5, "weight": 0.5}', '{"g": 1599.5, "weight": -1.0}',
            '{"g": 1007.5, "weight": 2.0}', '{"g": 1000.5, "weight": 0.25}']
    assert table.json() == want  # the layout's pieces are built on this first call
    encoded = []
    monkeypatch.setattr(panel_mod, "encode_json",
                        lambda value: encoded.append(value) or json.dumps(value))
    assert table.json() == want
    assert sorted(encoded) == [1000.5, 1007.5, 1599.5]
    for labels in (tuple(range(-300, 300)), tuple(f'q"\\é{i}' for i in range(600))):
        table = panel_mod._Table(("g", "weight"), (labels, codes), weight)
        assert table.json() == [json.dumps(row) for row in table.dicts()]
    assert len(encoded) == 3  # no int or str label went through encode_json


def test_csv_case_insensitive_and_extra_column_warning(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "G,T,Y,N,D1,Junk\n1,1,0.0,1,0,9\n1,2,0.5,1,1,9\n2,1,0.0,1,0,9\n2,2,0.1,1,0,9\n"
    )
    with pytest.warns(UserWarning, match="Junk"):
        panel = m.read_panel_csv(path)
    assert panel.n_treatments == 1
    assert panel.y[panel.group_index(1), panel.period_index(2)] == 0.5


def test_csv_missing_column(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("g,t,y,d1\n1,1,0.0,0\n1,2,0.0,1\n2,1,0.0,0\n2,2,0.0,0\n")
    with pytest.raises(MissingColumn, match="d2"):
        m.read_panel_csv(path, treatment_cols=["d1", "d2"])


@pytest.mark.parametrize("header, treatments, message", [
    ("g,t,y,d1,d2", ["d1", " D1", "d2"], "treatment column 'd1' is listed twice"),
    ("g,t,y,d1,D1", None, "column 'd1' repeats in the header"),
    ("g,t,y,d1,d2,d2", ["d1", "d2"], "column 'd2' repeats in the header"),
    ("g,t,y,n,d1, N ", None, "column 'n' repeats in the header"),
    ("g,t,y,n,d1", ["d1", "y"], "treatment column 'y' is the outcome column"),
    ("g,t,y,n,d1", [" N", "d1"], "treatment column 'n' is the cell size column"),
    ("g,t,y,d1", ["t"], "treatment column 't' is the period column"),
    ("g,t,y,d1", ["d1", "G"], "treatment column 'g' is the group column"),
    ("g,t,y,d1", [], "treatment_cols is empty; None reads the d1, d2, ... columns"),
])
def test_csv_repeated_column_is_refused(tmp_path, header, treatments, message):
    """A treatment read twice would be its own other treatment, so every
    switch of it would move another; a name used twice is refused instead,
    and so is the g, t, y or n column as a treatment, which was read as both
    (the outcome, the sizes or the labels as a treatment). An empty list of
    treatments, which would read none, is refused by name, with no warning."""
    width = header.count(",") - 2
    path = tmp_path / "panel.csv"
    path.write_text("\n".join([header] + [f"{g},{t},0.5" + ",1" * width
                                          for g in (1, 2) for t in (1, 2)]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"), warnings.catch_warnings():
        warnings.simplefilter("error")
        m.read_panel_csv(path, treatment_cols=treatments)


def test_csv_repeated_extra_column_is_ignored(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("g,t,y,d1,note,note\n1,1,0,0,a,b\n1,2,0,1,a,b\n"
                    "2,1,0,0,a,b\n2,2,0,0,a,b\n")
    with pytest.warns(UserWarning, match="note, note"):
        assert m.read_panel_csv(path).n_treatments == 1


@pytest.mark.parametrize("text", [b"g,t,y,d1\n1,1,0,0\n1,2,0,1\n2,1,0,0\n2,2,0,0\n",
                                  b'"g",t,y,d1\n1,1,0,0\n1,2,0,1\n2,1,0,0\n2,2,0,0\n'])
def test_csv_from_a_binary_file_object(tmp_path, text):
    """A binary file object is read from where it stands, as its file would be."""
    path = tmp_path / "panel.csv"
    path.write_bytes(codecs.BOM_UTF8 + text)
    stream = io.BytesIO(b"skipped" + codecs.BOM_UTF8 + text)
    stream.seek(len(b"skipped"))
    got, want = m.read_panel_csv(stream), m.read_panel_csv(path)
    assert (got.group_labels, got.period_labels) == (want.group_labels, want.period_labels)
    assert got.d.tobytes() == want.d.tobytes() and got.y.tobytes() == want.y.tobytes()


def _peak(call, *args):
    """What ``call(*args)`` returns and the peak of Python allocations while
    it runs."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_panel_holds_no_decoded_copy_of_the_file(tmp_path, panel_cache):
    """The reader tokenizes the bytes through a stream that decodes a chunk at
    a time: reading a 1 MB ASCII panel peaks under 7 times its size in Python
    allocations (4.5 times on numpy 2.4), where a decoded text and a StringIO
    of it, 4 bytes per character, took 9.5 times. The read stores nothing.
    The command line's load of the file misses the parsed-panel cache, an
    empty directory, so it tokenizes and stores the entry; a second load of
    the bytes reads that entry and holds less."""
    spec = m.DgpSpec(kind="random-binary", n_groups=2500, n_periods=10, n_treatments=3,
                     seed=1, cell_sizes="random", base_effects=(1.0, 2.0, -1.0))
    path = tmp_path / "panel.csv"
    m.write_panel_csv(m.generate(spec).panel, path)
    data = path.read_bytes()
    m.read_panel_csv(io.BytesIO(data))  # first use: imports
    panel, peak = _peak(m.read_panel_csv, io.BytesIO(data))
    assert not panel_cache.exists()
    assert panel.n_groups == 2500 and len(data) > 1_000_000
    assert peak / len(data) < 7
    args = argparse.Namespace(input=str(path), treatments=None)
    (miss, _), miss_peak = _peak(cli._load, args)
    assert len(list(panel_cache.iterdir())) == 1  # a miss, then stored
    (hit, _), hit_peak = _peak(cli._load, args)
    assert hit.d.tobytes() == miss.d.tobytes() == panel.d.tobytes() and hit_peak < miss_peak


def test_csv_no_n_column(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("g,t,y,d1\n1,1,0.0,0\n1,2,0.0,1\n2,1,0.0,0\n2,2,0.0,0\n")
    panel = m.read_panel_csv(path)
    assert panel.total_n == 4.0


def test_arrays_read_only():
    panel = m.load_panel(_four_by_two_rows(), n_treatments=2)
    with pytest.raises(ValueError):
        panel.y[0, 0] = 1.0


def _csv(tmp_path, lines):
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("lines, error, message", [
    (CSV_BASE[:2] + ["1,2,0.5,1"] + CSV_BASE[3:], ValueError,
     "line 3: cannot parse row: list index out of range"),
    (CSV_BASE[:3] + ["2,1,abc,1,0"] + CSV_BASE[4:], ValueError,
     "line 4: cannot parse row: could not convert string to float: 'abc'"),
    (CSV_BASE[:4] + ["2,2,0.5,,0"], ValueError,
     "line 5: cannot parse row: could not convert string to float: ''"),
    (CSV_BASE + ["1.0,2,0.5,1,1"], DuplicateCell,
     "duplicate cell for group=1.0, period=2"),
    (CSV_BASE[:3] + ["3,1,0.5,1,0"] + CSV_BASE[4:], UnbalancedPanel,
     "2 missing cell(s), first: group=2, period=1"),
    (CSV_BASE[:1] + ["", "  ", ",,"] + CSV_BASE[1:3] + ["2, 1e999 ,0.5,1,0"]
     + CSV_BASE[4:], NonFiniteValue, "line 7: non-finite label '1e999'"),
    (CSV_BASE[:1] + ["", " , "] + CSV_BASE[1:4] + ["2,2,0.5,1,x"], ValueError,
     "line 7: cannot parse row: could not convert string to float: 'x'"),
    (CSV_BASE[:1], InsufficientVariation, "no rows supplied"),
    # a quoted label spanning lines: the record on line 7 is named by its line
    (["g,t,y,d1", '"a', 'b",1,0,0', '"a', 'b",2,0,1', "c,1,0,0", "c,2,x,1"], ValueError,
     "line 7: cannot parse row: could not convert string to float: 'x'"),
    (["g,t,y,d1", '"a', 'b",1,0,0', '"a', 'b",2,0,1', "c,1,0,0", "c,2,0"], ValueError,
     "line 7: cannot parse row: list index out of range"),
    (["g,t,y,n,treated"] + CSV_BASE[1:], MissingColumn,
     "no treatment columns (d1, d2, ...) found"),
])
def test_malformed_csv_names_the_defect(tmp_path, lines, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        m.read_panel_csv(_csv(tmp_path, lines))


def test_malformed_csv_check_order(tmp_path):
    """Of several defects, the first in the documented order is named. Each
    fix keeps its line (blank or mended), so the other line numbers stay."""
    lines = CSV_BASE[:1] + ["1,1,abc,1,0"] + CSV_BASE[2:] + [
        "1,1,0.5,1,0", "3,1,0.5,1,0", "x,1,0.5,1,0", "nan,1,0.5,1,0", "2,2"]
    expected = [
        (9, "", ValueError, "line 10: cannot parse row: list index out of range"),
        (8, "", NonFiniteValue, "line 9: non-finite label 'nan'"),
        (7, "", ValueError, "group labels must be mutually orderable"),
        (5, "", DuplicateCell, "duplicate cell for group=1, period=1"),
        (6, "", UnbalancedPanel, "1 missing cell(s), first: group=3, period=2"),
        (1, CSV_BASE[1], ValueError,
         "line 2: cannot parse row: could not convert string to float: 'abc'"),
    ]
    for fix, mended, error, message in expected:
        with pytest.raises(error, match=re.escape(message)):
            m.read_panel_csv(_csv(tmp_path, lines))
        lines[fix] = mended
    assert m.read_panel_csv(_csv(tmp_path, lines)).n_groups == 2


def test_unorderable_label_text_is_independent_of_hash_seed(tmp_path):
    """The unorderable-label message names the types sorted; Python's own
    comparison error names them in the set's hash order, which under hash
    seeds 0 and 10 differs for these labels."""
    path = _csv(tmp_path, ["g,t,y,d1"] + [f"{g},{t},0,{int(g == '1' and t == 2)}"
                                          for g in ("1", "2", "zz", "3") for t in (1, 2)])
    src = str(Path(m.__file__).parents[1])
    errs = set()
    for seed in ("0", "10"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-m", "multidid.cli", "didm", "--input",
                              str(path), "--target", "d1"],
                             capture_output=True, text=True, env=env, check=False)
        assert run.returncode == 3
        errs.add(run.stderr)
    assert errs == {"error: MalformedInput: group labels must be mutually orderable, "
                    "got labels of type int, str\n"}


@pytest.mark.parametrize("path_taken", ["plain", "quoted", "invalid utf-8"])
def test_a_byte_order_mark_is_not_part_of_the_header(tmp_path, monkeypatch, capsys,
                                                     path_taken):
    """A UTF-8 byte-order mark, as spreadsheet programs write it, is dropped
    before the header on every path; the input digest still covers it."""
    lines = ["g,t,y,d1"] + [f"{g},{t},0.5,{int(t == 2 and g % 2)}" for g in range(1, 800)
                            for t in (1, 2)]
    if path_taken == "quoted":
        lines[1] = '"1",1,0.5,0'
    raw = "\n".join(lines).encode()
    if path_taken == "invalid utf-8":  # past the first chunk the stream decodes
        raw = raw[:12000] + b"\xff" + raw[12000:]
    path, bare = tmp_path / "bom.csv", tmp_path / "bare.csv"
    path.write_bytes(codecs.BOM_UTF8 + raw)
    if path_taken == "invalid utf-8":  # named by its offset in the file, BOM counted
        with pytest.raises(UnicodeDecodeError) as streamed:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                list(csv.reader(fh))
        assert streamed.value.reason == "invalid start byte"
        message = "line 1019: not UTF-8 at byte offset 12003 (invalid start byte)"
        with pytest.raises(InvalidEncoding, match=f"^{re.escape(message)}$"):
            m.read_panel_csv(path)
        assert main(["didm", "--input", str(path), "--target", "d1"]) == 3
        assert capsys.readouterr() == ("", f"error: InvalidEncoding: {message}\n")
        return
    plain = []
    monkeypatch.setattr(panel_mod, "_read_plain",
                        lambda *a, real=panel_mod._read_plain: plain.append(1) or real(*a))
    panel = m.read_panel_csv(path)
    assert plain == ([1] if path_taken == "plain" else [])
    bare.write_bytes(raw)
    expected = m.read_panel_csv(bare)
    assert panel.group_labels == expected.group_labels
    assert panel.period_labels == expected.period_labels
    assert panel.d.tobytes() == expected.d.tobytes()
    assert main(["didm", "--input", str(path), "--target", "d1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input_sha256"] == hashlib.sha256(codecs.BOM_UTF8 + raw).hexdigest()


@pytest.mark.parametrize("end, line", [("\n", 1019), ("\r\n", 941), ("\r", 1019)])
@pytest.mark.parametrize("header", ["g,t,y,d1", "h,t,y,d1"])
def test_invalid_utf8_is_named_by_its_line_and_file_offset(tmp_path, header, end, line):
    """The whole text is read at once, and a byte that is not UTF-8 is named
    by its physical line and its offset in the file, not in the chunk being
    decoded, and after any defect of the header, as a streaming read meets
    them. Inserted between a CR and its LF, the byte is on the line the CR
    ends."""
    lines = [header] + [f"{g},{t},0.5,{int(t == 2 and g % 2)}" for g in range(1, 800)
                        for t in (1, 2)]
    raw = end.join(lines).encode()
    path = tmp_path / "latin.csv"
    path.write_bytes(raw[:12000] + b"\xff" + raw[12000:])
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for _ in csv.reader(fh):
                pass
    except UnicodeDecodeError as exc:
        streamed = exc
    assert streamed.reason == "invalid start byte"
    expected = (MissingColumn, "required column 'g' not found") if header[0] == "h" \
        else (InvalidEncoding, f"line {line}: not UTF-8 at byte offset 12000 (invalid start byte)")
    with pytest.raises(expected[0], match=f"^{re.escape(expected[1])}$"):
        m.read_panel_csv(path)
