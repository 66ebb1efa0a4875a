import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multidid as m
from multidid.errors import (
    DuplicateCell,
    InsufficientVariation,
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
    assert panel.treated_count(0) == 2.0


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
        m.load_panel(rows, n_treatments=1, binary_required=True)
    panel = m.load_panel(rows, n_treatments=1)
    assert not panel.binary_treatments


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
        m.load_panel(rows, n_treatments=1, binary_required=True)
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
    assert m.load_panel(rows, n_treatments=1, binary_required=True).binary_treatments


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
    assert panel.cell("a", 1987).y == 1987.0


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


def test_csv_case_insensitive_and_extra_column_warning(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "G,T,Y,N,D1,Junk\n1,1,0.0,1,0,9\n1,2,0.5,1,1,9\n2,1,0.0,1,0,9\n2,2,0.1,1,0,9\n"
    )
    with pytest.warns(UserWarning, match="Junk"):
        panel = m.read_panel_csv(path)
    assert panel.n_treatments == 1
    assert panel.cell(1, 2).y == 0.5


def test_csv_missing_column(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("g,t,y,d1\n1,1,0.0,0\n1,2,0.0,1\n2,1,0.0,0\n2,2,0.0,0\n")
    with pytest.raises(MissingColumn, match="d2"):
        m.read_panel_csv(path, treatment_cols=["d1", "d2"])


def test_csv_no_n_column(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("g,t,y,d1\n1,1,0.0,0\n1,2,0.0,1\n2,1,0.0,0\n2,2,0.0,0\n")
    panel = m.read_panel_csv(path)
    assert panel.total_n == 4.0


def test_restrict_groups():
    panel = m.load_panel(_four_by_two_rows(), n_treatments=2)
    sub = panel.restrict_groups([1, 3])
    assert sub.group_labels == (1, 3)
    assert sub.cell(3, 2).d == panel.cell(3, 2).d


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
        assert run.returncode == 1
        errs.add(run.stderr)
    assert errs == {"error: ValueError: group labels must be mutually orderable, "
                    "got labels of type int, str\n"}
