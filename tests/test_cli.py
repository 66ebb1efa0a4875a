import contextlib
import csv
import dataclasses
import hashlib
import importlib
import json
import os
import re
import sys

import numpy as np
import pytest

import multidid as m
from multidid import cli, errors
from multidid.cli import main
from multidid.decomposition import decomposition_report_json
from multidid.errors import InsufficientPrePeriods, NonFiniteValue

from .conftest import (
    degenerate_denominator_panel,
    light_first_period_panel,
    overflowing_first_stage_panel,
    overflowing_replicates_panel,
    overflowing_staggered_panel,
    overflowing_twfe_panel,
    random_staggered_spec,
)
from .examples import four_group_example, three_cohort_example


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def four_group_csv(tmp_path, four_group):
    path = tmp_path / "panel.csv"
    m.write_panel_csv(four_group.panel, path)
    return str(path)


@pytest.fixture
def staggered_csv(tmp_path, abc_staggered):
    path = tmp_path / "staggered.csv"
    m.write_panel_csv(abc_staggered.panel, path)
    return str(path)


def test_decompose_json(capsys, four_group_csv):
    code, out, err = _run(capsys, "decompose", "--input", four_group_csv,
                          "--treatments", "d1,d2", "--target", "d1")
    assert code == 0
    report = json.loads(out)
    assert report["beta_fe"] == pytest.approx(1.5)
    assert report["tool"]["name"] == "multidid"
    assert report["tool"]["version"]
    assert "input_sha256" in report and len(report["input_sha256"]) == 64
    assert report["config"]["target"] == "d1"
    own = {(e["g"], e["t"]): e["weight"] for e in report["own"]}
    assert own == pytest.approx({(2, 2): 0.5, (4, 2): 0.5})
    contamination = {(e["g"], e["t"]): e["weight"] for e in report["contamination"]}
    assert contamination == pytest.approx({(3, 2): -0.5, (4, 2): 0.5})


def test_decompose_csv_projection(capsys, four_group_csv):
    code, out, err = _run(capsys, "decompose", "--input", four_group_csv,
                          "--treatments", "d1,d2", "--target", "d1",
                          "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,t,role,weight"
    assert any(line.startswith("2,2,own,") for line in lines)


def test_didm_builds_no_component_record(capsys, monkeypatch, four_group_csv):
    """The table and the report of ``didm`` are read from the strata arrays:
    with ``DidmComponent`` made to fail, both are written as before."""
    runs = [("--output", "csv"), ("--output", "json")]
    want = [_run(capsys, "didm", "--input", four_group_csv, "--target", "d1", *run)
            for run in runs]
    assert want[0][0] == 0 and len(want[0][1].splitlines()) == 2  # the header and a stratum

    def refuse(*args, **kwargs):
        raise AssertionError("a DidmComponent was built")
    monkeypatch.setattr(importlib.import_module("multidid.didm"), "DidmComponent", refuse)
    for run, result in zip(runs, want):
        assert _run(capsys, "didm", "--input", four_group_csv, "--target", "d1", *run) == result


def test_didm_no_switchers_warning(capsys, tmp_path):
    d = np.zeros((2, 3, 3))
    d[0, 1, :] = 1.0
    panel = m.PanelDataset(range(3), range(3), np.ones((3, 3)),
                           np.ones((3, 3)), d)
    path = tmp_path / "flat.csv"
    m.write_panel_csv(panel, path)
    code, out, err = _run(capsys, "didm", "--input", str(path), "--target", "d1")
    assert code == 0
    report = json.loads(out)
    assert report["estimate"] == 0.0
    assert report["n_switchers"] == 0.0
    assert "no usable switcher" in err


def test_didm_dropped_cell_warnings_are_pinned(capsys, tmp_path):
    # a: up at 2 (matched by b), down at 3 with no treated stayer; b: stayer;
    # c: up at 2 while d2 moves; d: up at 3 under d2 with no such stayer
    path = tmp_path / "drops.csv"
    path.write_text("g,t,y,d1,d2\n"
                    "a,1,0,0,0\na,2,1,1,0\na,3,0,0,0\n"
                    "b,1,0,0,0\nb,2,0,0,0\nb,3,0,0,0\n"
                    "c,1,0,0,0\nc,2,2,1,1\nc,3,2,1,1\n"
                    "d,1,0,0,1\nd,2,0,0,1\nd,3,3,1,1\n")
    for output in ("json", "csv"):
        code, out, err = _run(capsys, "didm", "--input", str(path), "--target", "d1",
                              "--output", output)
        assert code == 0
        assert err == (
            "warning: dropped 1 switching cell(s) (other_treatment_changed): g='c' t=2\n"
            "warning: dropped 2 switching cell(s) (no_matching_stayer): g='a' t=3, g='d' t=3\n")


def test_didm_warns_one_line_per_drop_reason_with_five_cells_at_most(capsys, tmp_path):
    # seven groups switch on at 2 and none stays off, so every switcher drops
    path = tmp_path / "all_switch.csv"
    path.write_text("g,t,y,d1\n" + "".join(f"{g},1,0,0\n{g},2,1,1\n" for g in "abcdefg"))
    code, out, err = _run(capsys, "didm", "--input", str(path), "--target", "d1")
    assert code == 0 and len(json.loads(out)["dropped"]) == 7
    assert err == (
        "warning: no usable switcher, estimate is 0 by convention\n"
        "warning: dropped 7 switching cell(s) (no_matching_stayer): g='a' t=2, g='b' t=2, "
        "g='c' t=2, g='d' t=2, g='e' t=2 and 2 more\n")


def test_dynamic_linear_warns_one_line_per_drop_reason(capsys, tmp_path):
    # groups 2..8 adopt the second treatment one period after the first, too
    # short a window for a trend at horizons 0 and 1; group 9 keeps cohort 2 usable
    spec = m.DgpSpec(kind="consecutive-staggered", n_groups=9, n_periods=6, seed=0,
                     f1=(1,) + (2,) * 8, f2=(4,) + (3,) * 7 + (5,))
    path = tmp_path / "short_windows.csv"
    m.write_panel_csv(m.generate(spec).panel, path)
    code, out, err = _run(capsys, "dynamic", "--input", str(path), "--first", "d1",
                          "--second", "d2", "--strategy", "linear")
    assert code == 0
    assert sum(len(h["dropped"]) for h in json.loads(out)["horizons"]) == 14
    assert err == (
        "warning: dropped 14 group-horizon pair(s) (fewer_than_two_pre_periods): "
        "ell=0 g=2, ell=0 g=3, ell=0 g=4, ell=0 g=5, ell=0 g=6 and 9 more\n")


def test_missing_treatment_column_exit_code(capsys, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("g,t,y,d1\n1,1,0,0\n1,2,0,1\n2,1,0,0\n2,2,0,0\n")
    code, out, err = _run(capsys, "didm", "--input", str(path),
                          "--treatments", "d1,d2", "--target", "d1")
    assert code == 3
    assert "d2" in err


def test_binary_only_names_the_non_binary_cell(capsys, tmp_path):
    """--binary-only checks the target alone, and the error names its column
    and the cell, exit 3. Before, it named no cell."""
    path = tmp_path / "half.csv"
    path.write_text("g,t,y,d1,d2\n1,1,0,0,0\n1,2,1,1,0.5\n2,1,0,0,0\n2,2,0,0,0\n")
    code, out, err = _run(capsys, "didm", "--input", str(path), "--target", "d2",
                          "--binary-only")
    assert (code, out) == (3, "")
    assert err == "error: NonBinaryTreatment: treatment d2 is 0.5 at group=1, period=2\n"
    code, out, err = _run(capsys, "didm", "--input", str(path), "--target", "d1",
                          "--binary-only")
    assert code == 0


def test_simulate_then_decompose_matches_in_process(capsys, tmp_path):
    spec = m.DgpSpec(kind="random-binary", n_groups=9, n_periods=5,
                     n_treatments=2, seed=17, noise_sd=0.4,
                     base_effects=(1.0, 0.5), effect_group_sd=0.7)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    panel_path = tmp_path / "sim.csv"
    code, out, err = _run(capsys, "simulate", "--spec", str(spec_path),
                          "--out", str(panel_path))
    assert code == 0
    code, out, err = _run(capsys, "decompose", "--input", str(panel_path),
                          "--target", "d1")
    assert code == 0
    report = json.loads(out)
    expected = m.decompose(m.generate(spec).panel, 0)
    assert report["beta_fe"] == pytest.approx(expected.beta_fe, abs=1e-12)
    own = {(e["g"], e["t"]): e["weight"] for e in report["own"]}
    for cell, w in expected.own.items():
        assert own[cell] == pytest.approx(w, abs=1e-12)


def test_dynamic_second(capsys, staggered_csv):
    code, out, err = _run(capsys, "dynamic", "--input", staggered_csv,
                          "--first", "d1", "--second", "d2")
    assert code == 0
    report = json.loads(out)
    horizons = {h["ell"]: h["estimate"] for h in report["horizons"]}
    assert horizons == {0: pytest.approx(8.5), 1: pytest.approx(12.0)}
    assert report["placebos"] == [{"ell": 0, "estimate": pytest.approx(0.0)}]


def test_dynamic_split(capsys, staggered_csv):
    code, out, err = _run(capsys, "dynamic", "--input", staggered_csv,
                          "--first", "d1", "--second", "d2",
                          "--strategy", "split")
    assert code == 0
    report = json.loads(out)
    assert len(report["first_before_second"]) == 3


def test_dynamic_first_and_combined(capsys, tmp_path):
    synthetic = three_cohort_example(extra_never_treated=True)
    path = tmp_path / "four.csv"
    m.write_panel_csv(synthetic.panel, path)
    code, out, err = _run(capsys, "dynamic", "--input", str(path),
                          "--first", "d1", "--second", "d2",
                          "--strategy", "first")
    assert code == 0
    horizons = {h["ell"]: h["estimate"] for h in json.loads(out)["horizons"]}
    assert horizons[0] == pytest.approx(1.0)
    code, out, err = _run(capsys, "dynamic", "--input", str(path),
                          "--first", "d1", "--second", "d2",
                          "--strategy", "combined", "--output", "csv")
    assert code == 0
    assert out.splitlines()[0] == "ell,f,t,did,n_treated,n_control,weight"


def test_dynamic_linear_strategy(capsys, tmp_path):
    y = np.array([
        [2.5, 3.0, 3.5, 4.0, 14.5],
        [1.0, 1.5, 2.0, 2.5, 3.0],
    ])
    d = np.zeros((2, 2, 5))
    d[0, :, 1:] = 1.0
    d[1, 0, 4] = 1.0
    panel = m.PanelDataset(range(1, 3), range(1, 6), y, np.ones((2, 5)), d)
    path = tmp_path / "lin.csv"
    m.write_panel_csv(panel, path)
    code, out, err = _run(capsys, "dynamic", "--input", str(path),
                          "--first", "d1", "--second", "d2",
                          "--strategy", "linear")
    assert code == 0
    report = json.loads(out)
    assert report["horizons"][0]["estimate"] == pytest.approx(10.0)


def test_dynamic_pathological_exit_code(capsys, tmp_path):
    # the second design has a simultaneous adopter plus one later date, so
    # only one second-adoption date falls after the cohort's
    for n_periods, f1, f2 in [(4, (2, 2, 2), (3, 3, 3)), (5, (3, 3, 6), (3, 5, 6))]:
        spec = m.DgpSpec(kind="consecutive-staggered", n_groups=3,
                         n_periods=n_periods, seed=0, f1=f1, f2=f2)
        path = tmp_path / "path.csv"
        m.write_panel_csv(m.generate(spec).panel, path)
        for argv in (["dynamic"], ["dynamic", "--strategy", "linear"],
                     ["bootstrap", "--estimator", "did_ell", "-B", "4"]):
            code, out, err = _run(capsys, argv[0], "--input", str(path), "--first",
                                  "d1", "--second", "d2", *argv[1:])
            assert code == 5
            assert "PathologicalDesign" in err


@pytest.mark.parametrize("panel, error", [
    (degenerate_denominator_panel, "DegenerateDenominator"),
    (light_first_period_panel, "NumericallySingular"),
])
def test_undefined_coefficient_exit_code(capsys, tmp_path, panel, error):
    path = tmp_path / "degenerate.csv"
    m.write_panel_csv(panel(), path)
    for argv in (["decompose"], ["bootstrap", "--estimator", "twfe", "-B", "4"]):
        code, out, err = _run(capsys, argv[0], "--input", str(path), "--target", "d1",
                              *argv[1:])
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: {error}: ")


@pytest.mark.parametrize("panel, argv, message", [
    (overflowing_twfe_panel, ["decompose", "--target", "d1"],
     "sum(n * eps * y) overflows"),
    (overflowing_twfe_panel, ["bootstrap", "--estimator", "twfe", "--target", "d1", "-B", "4"],
     "sum(n * eps * y) overflows"),
    (overflowing_staggered_panel, ["dynamic", "--first", "d1", "--second", "d2"],
     "n * (y - earlier y) overflows in the estimate at horizon 0"),
    (overflowing_staggered_panel, ["bootstrap", "--estimator", "did_ell", "--first", "d1",
                                   "--second", "d2", "-B", "4"],
     "n * (y - earlier y) overflows in the estimate at horizon 0"),
    (overflowing_staggered_panel, ["dynamic", "--first", "d1", "--second", "d2",
                                   "--strategy", "linear"],
     "the size-weighted linear-trend fit overflows at horizon 0"),
    (overflowing_replicates_panel, ["bootstrap", "--estimator", "twfe", "--target", "d1",
                                    "-B", "20"],
     "the squared deviations of the bootstrap replicates pass the float range"),
    (overflowing_first_stage_panel, ["bootstrap", "--estimator", "twfe", "--target", "d2",
                                     "-B", "5"],
     "the fixed-effect fit of treatment d1 overflows"),
    (lambda: overflowing_first_stage_panel(10.0),
     ["bootstrap", "--estimator", "twfe", "--target", "d2", "-B", "5"],
     "the fixed-effect fit of treatment d1 overflows"),
], ids=["decompose", "bootstrap-twfe", "dynamic", "bootstrap-did_ell", "dynamic-linear",
        "bootstrap-se", "first-stage-fit", "first-stage-norm"])
def test_overflowing_products_exit_code(capsys, tmp_path, panel, argv, message):
    path = tmp_path / "overflow.csv"
    m.write_panel_csv(panel(), path)
    code, out, err = _run(capsys, argv[0], "--input", str(path), *argv[1:])
    assert (code, out, err) == (3, "", f"error: NonFiniteValue: {message}\n")


def _overflow_sweep():
    """Every subcommand on every overflow fixture; each fixture has a defined
    estimate for every command it runs, so only overflow can stop one."""
    for name, panel in [("twfe", overflowing_twfe_panel),
                        ("staggered", lambda: overflowing_staggered_panel(True)),
                        ("replicates", overflowing_replicates_panel)]:
        runs = [["decompose", "--target", "d1"], ["didm", "--target", "d1"],
                *(["bootstrap", "--estimator", estimator, "--target", "d1", "-B", "20"]
                  for estimator in ("twfe", "didm"))]
        if name == "staggered":
            runs += [["dynamic", "--first", "d1", "--second", "d2", "--strategy", strategy]
                     for strategy in ("second", "first", "combined", "linear", "split")]
            runs.append(["bootstrap", "--estimator", "did_ell", "--first", "d1",
                         "--second", "d2", "-B", "20"])
        for argv in runs:
            label = {"bootstrap": argv[2], "dynamic": argv[-1]}.get(argv[0])
            yield pytest.param(panel, argv, id="-".join(filter(None, [name, argv[0], label])))


def _refuse_constant(name):
    raise ValueError(f"{name} in the report")


@pytest.mark.parametrize("panel, argv", _overflow_sweep())
def test_overflow_inputs_give_finite_reports_or_exit_3(capsys, tmp_path, panel, argv):
    """A report is finite JSON, or the run names NonFiniteValue and exits 3;
    a raw numpy warning fails the test through the warning filter."""
    path = tmp_path / "overflow.csv"
    m.write_panel_csv(panel(), path)
    code, out, err = _run(capsys, argv[0], "--input", str(path), *argv[1:])
    if code == 0:
        json.loads(out, parse_constant=_refuse_constant)
    else:
        assert (code, out) == (3, "")
        assert err.splitlines()[-1].startswith("error: NonFiniteValue: ")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_report_values_are_refused(capsys, monkeypatch, tmp_path,
                                              four_group_csv, value):
    """The report encoder raises NonFiniteValue (exit 3) rather than print
    NaN or Infinity, in a nested value and in a decompose cell table. A
    refused report writes nothing: not to standard output, and no ``--out``
    file is created."""
    out_path = tmp_path / "report.json"
    args = cli.build_parser().parse_args(["simulate", "--spec", "s.json", "--out", "p.csv"])
    for out in (None, str(out_path)):
        with pytest.raises(NonFiniteValue, match="non-finite"):
            cli._emit_report(args, {"estimate": 1.0, "replicates": [0.5, value]}, out)
    panel = four_group_example().panel
    decomp = m.decompose(panel, 0)
    weights = decomp.weights.copy()
    weights[3, 1] = value  # a cell of both tables
    spoiled = dataclasses.replace(decomp, weights=weights)
    with pytest.raises(NonFiniteValue, match="non-finite"):
        decomposition_report_json(spoiled, m.summarize(decomp, panel))
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(cli, "decompose", lambda panel, target: spoiled)
    code, out, err = _run(capsys, "decompose", "--input", four_group_csv, "--target", "d1",
                          "--out", str(out_path))
    assert (code, out) == (3, "")
    assert err == f"error: NonFiniteValue: report holds a non-finite number ({value!r})\n"
    assert not out_path.exists()


@pytest.mark.parametrize("line, field", [(1, "g"), (3, "1"), (3, "0")])
@pytest.mark.parametrize("quoted", [False, True])
def test_over_long_fields_are_refused_with_the_line(capsys, tmp_path, line, field, quoted):
    """A field past the csv module's limit is refused, naming its line, whether
    the file is quoted or not; one at the limit is read. The limit itself is
    left as it was."""
    limit = csv.field_size_limit()
    lines = ["g,t,y,n,d1,note", "1,1,0,1,0,", "1,2,1,1,1,", "2,1,0,1,0,", "2,2,0,1,0,"]
    for width, expected in [(limit, 0), (limit + 1, 3)]:
        long = field.rjust(width) if field != "g" else field.ljust(width)
        rows = [row.split(",") for row in lines]
        rows[line - 1][0 if line == 1 else 5 if field == "0" else 0] = long
        if quoted:
            rows[1][5] = '"a, b"'
        path = tmp_path / "long.csv"
        path.write_text("\n".join(map(",".join, rows)) + "\n")
        code, out, err = _run(capsys, "didm", "--input", str(path), "--target", "d1")
        assert code == expected
        if expected:
            assert (out, err) == ("", f"error: MalformedInput: line {line}: "
                                      f"field larger than field limit ({limit})\n")
    assert csv.field_size_limit() == limit


def _mixed_group_labels(lines):
    for i in range(5, 9):
        lines[i] = "zz" + lines[i][1:]


def _line(number, text):
    def edit(lines):
        lines[number - 1] = text
    return edit


@pytest.mark.parametrize("edit, message", [
    (_line(8, "2,3,abc,1.0,1.0,0.0"),
     "line 8: cannot parse row: could not convert string to float: 'abc'"),
    (_line(8, "2,3,,1.0,1.0,0.0"),
     "line 8: cannot parse row: could not convert string to float: ''"),
    (_line(8, "2,3,\ufeff5.5,1.0,1.0,0.0"),
     "line 8: cannot parse row: could not convert string to float: '\\ufeff5.5'"),
    (_line(8, "2,3,5.5,1.0\r,1.0,0.0"), "line 8: cannot parse row: list index out of range"),
    (_line(8, "2,3,5.5,1.0"), "line 8: cannot parse row: list index out of range"),
    (_mixed_group_labels,
     "group labels must be mutually orderable, got labels of type int, str"),
    (_line(1, "g,t,y,n,d1,D1"), "column 'd1' repeats in the header"),
    (_line(8, "2" * (csv.field_size_limit() + 1) + ",3,5.5,1.0,1.0,0.0"),
     f"line 8: field larger than field limit ({csv.field_size_limit()})"),
], ids=["not-a-number", "empty-field", "stray-bom", "stray-cr", "short-row",
        "mixed-label-types", "column-twice", "over-long-field"])
def test_malformed_rows_exit_3(capsys, tmp_path, staggered_csv, edit, message):
    """A file whose rows cannot be read as a panel stops every command with
    MalformedInput, exit 3, and no output; before, these were ValueErrors
    ending in exit 1, the code for an unexpected error."""
    with open(staggered_csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    edit(lines)
    path = tmp_path / "malformed.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    for argv in (["decompose", "--target", "d1"], ["didm", "--target", "d1"],
                 ["dynamic", "--first", "d1", "--second", "d2"],
                 ["bootstrap", "--estimator", "did_ell", "-B", "2"]):
        code, out, err = _run(capsys, *argv, "--input", str(path))
        assert (code, out, err) == (3, "", f"error: MalformedInput: {message}\n")


def test_bootstrap_subcommand(capsys, four_group_csv):
    code, out, err = _run(capsys, "bootstrap", "--input", four_group_csv,
                          "--estimator", "twfe", "--target", "d1",
                          "-B", "8", "--seed", "4")
    assert code == 0
    report = json.loads(out)
    assert report["n_replications"] == 8
    assert report["estimate"] == pytest.approx(1.5)
    assert report["inference_note"].startswith("group block bootstrap")


def test_bootstrap_with_one_replication_warns(capsys, four_group_csv):
    """One usable replication gives no spread: the report says so, the
    standard error is 0 by convention, and the run still succeeds."""
    code, out, err = _run(capsys, "bootstrap", "--input", four_group_csv,
                          "--estimator", "twfe", "--target", "d1", "-B", "1", "--seed", "4")
    assert code == 0
    assert err == ("warning: fewer than two usable replications, standard error is 0 "
                   "by convention\n")
    report = json.loads(out)
    assert report["degenerate_inference"] is True
    assert report["standard_error"] == 0.0
    assert (report["n_retained"], report["n_degenerate"]) == (1, 0)


@pytest.mark.parametrize("option, value", [("-B", "0"), ("-B", "-3"), ("-B", "two"),
                                           ("--parallelism", "0"),
                                           ("--parallelism", "-2")])
def test_bootstrap_counts_must_be_positive(capsys, four_group_csv, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["bootstrap", "--input", four_group_csv, "--estimator", "twfe",
              "--target", "d1", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert f"expected a positive integer, got '{value}'" in captured.err


@pytest.mark.parametrize("value", ["-1", "1.5", "one"])
def test_bootstrap_seed_must_be_non_negative(capsys, monkeypatch, four_group_csv, value):
    with pytest.raises(SystemExit) as exc:
        main(["bootstrap", "--input", four_group_csv, "--estimator", "twfe",
              "--target", "d1", "--seed", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert f"expected a non-negative integer, got '{value}'" in captured.err
    # the library refuses the seed before it computes the point estimate
    monkeypatch.setattr(m.bootstrap, "_reducer", None)
    panel = m.read_panel_csv(four_group_csv)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        m.bootstrap_se(panel, "twfe", 4, -1)
    for seed in (1.0, True):  # a bool is no seed, as it is no count b
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            m.bootstrap_se(panel, "twfe", 4, seed)


def test_linear_trends_with_no_estimable_horizon_fail(capsys, tmp_path):
    """Each adopter takes the second treatment one period after the first or
    never, so no horizon has a two-point pre-adoption window."""
    spec = m.DgpSpec(kind="consecutive-staggered", n_groups=3, n_periods=4,
                     f1=(2, 2, 2), f2=(3, 5, 3))
    path = tmp_path / "panel.csv"
    m.write_panel_csv(m.generate(spec).panel, path)
    code, out, err = _run(capsys, "dynamic", "--input", str(path), "--first", "d1",
                          "--second", "d2", "--strategy", "linear")
    assert code == 6
    assert out == ""
    *warned, error = err.splitlines()
    assert [w.split(":")[1] for w in warned] == [" horizon 0", " horizon 1"]
    assert error == "error: InsufficientPrePeriods: no horizon is estimable with linear trends"


def test_dynamic_resolves_event_studies_at_call_time(capsys, monkeypatch, staggered_csv):
    # wrappers set on the module's attributes, as the traced benchmark sets
    # them after import, must see every call
    called = []
    for name in ("second_treatment_effects", "first_treatment_effects",
                 "combined_effects"):
        def wrapper(*args, _name=name, _wrapped=getattr(cli, name), **kwargs):
            called.append(_name)
            return _wrapped(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)
    for strategy in ("second", "first", "combined"):
        _run(capsys, "dynamic", "--input", staggered_csv, "--first", "d1",
             "--second", "d2", "--strategy", strategy)
    assert called == ["second_treatment_effects", "first_treatment_effects",
                      "combined_effects"]


def test_main_builds_its_parser_once(capsys, four_group_csv):
    """Every ``main`` call of a process parses with one parser, while
    ``build_parser`` still returns a fresh one on each call."""
    cli._parser.cache_clear()
    for _ in range(2):
        assert _run(capsys, "didm", "--input", four_group_csv, "--target", "d1")[0] == 0
    assert cli._parser.cache_info()[:2] == (1, 1)  # one call built it, the next reused it
    assert cli.build_parser() is not cli.build_parser()


def test_out_file(capsys, four_group_csv, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = _run(capsys, "decompose", "--input", four_group_csv,
                          "--target", "d1", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["beta_fe"] == pytest.approx(1.5)
    # a --out file holds exactly the bytes standard output would, but for the
    # config's "out" entry
    for argv in (["decompose", "--target", "d1"], ["decompose", "--target", "d1",
                                                   "--output", "csv"],
                 ["didm", "--target", "d1"], ["didm", "--target", "d1", "--output", "csv"],
                 ["bootstrap", "--estimator", "twfe", "--target", "d1", "-B", "4"]):
        argv += ["--input", four_group_csv]
        code, out, err = _run(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (0, "")
        written = out_path.read_bytes()
        assert written.endswith(b"\n")
        code, out, err = _run(capsys, *argv)
        assert code == 0
        assert written.decode() == out.replace('"out": null',
                                               f'"out": {json.dumps(str(out_path))}')


def test_empty_out_is_a_file_name(capsys, four_group_csv):
    """``--out ""`` names a file, which cannot be opened; nothing goes to
    standard output instead."""
    for argv in (["decompose", "--target", "d1"],
                 ["decompose", "--target", "d1", "--output", "csv"]):
        code, out, err = _run(capsys, *argv, "--input", four_group_csv, "--out", "")
        assert (code, out) == (1, "")
        assert err == "error: FileNotFoundError: [Errno 2] No such file or directory: ''\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert m.__version__ in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["didm", "--target", "d1", "--treatments", "d1,d1,d2"],
     "didm: --treatments names the column 'd1' twice"),
    (["decompose", "--target", "d1", "--treatments", "d1, D1"],
     "decompose: --treatments names the column 'd1' twice"),
    (["dynamic", "--first", "d1", "--second", "D1"],
     "dynamic: --first 'd1' and --second 'D1' name the same treatment column"),
    (["bootstrap", "--estimator", "did_ell", "--first", "d2"],
     "bootstrap: --first 'd2' and --second (default 'd2') name the same treatment column"),
    (["bootstrap", "--estimator", "did_ell", "--second", "d1"],
     "bootstrap: --first (default 'd1') and --second 'd1' name the same treatment column"),
    (["didm", "--target", "y", "--treatments", "d1,y"],
     "didm: --treatments names the outcome column 'y'"),
    (["didm", "--target", "n", "--treatments", "n,d1"],
     "didm: --treatments names the cell size column 'n'"),
    (["decompose", "--target", "d1", "--treatments", "T,d1"],
     "decompose: --treatments names the period column 't'"),
    (["bootstrap", "--estimator", "didm", "--treatments", "d1, g"],
     "bootstrap: --treatments names the group column 'g'"),
])
def test_one_column_named_twice_is_a_usage_error(capsys, staggered_csv, argv, message):
    """Before, a repeated --treatments column made every switch of it drop
    (didm: estimate 0, exit 0) and --first equal to --second was reported as a
    design violation (exit 5); ``--treatments d1,y --target y`` ran with the
    outcome as a treatment (exit 0), as did ``n`` and ``t`` with the sizes and
    the period labels."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", staggered_csv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert captured.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["bootstrap", "--estimator", "didm", "--target", "d1"],
     "bootstrap: --output csv has no table for bootstrap"),
    (["dynamic", "--first", "d1", "--second", "d2", "--strategy", "linear"],
     "dynamic: --output csv has no table for --strategy linear"),
    (["dynamic", "--first", "d1", "--second", "d2", "--strategy", "split"],
     "dynamic: --output csv has no table for --strategy split"),
], ids=["bootstrap", "dynamic-linear", "dynamic-split"])
def test_output_csv_without_a_table_is_a_usage_error(capsys, staggered_csv, argv, message):
    """Before, these wrote a JSON report and exited 0."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", staggered_csv, "--output", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_other_estimators_ignore_first_and_second(capsys, four_group_csv):
    code, out, err = _run(capsys, "bootstrap", "--input", four_group_csv, "--estimator",
                          "twfe", "--target", "d1", "--first", "d2", "-B", "3")
    assert code == 0


def test_the_input_is_read_once(capsys, monkeypatch, four_group_csv):
    """The report's digest is taken from the bytes the reader decodes."""
    opened, real = [], open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real(file, *args, **kwargs)
    monkeypatch.setattr("builtins.open", counting_open)
    code, out, err = _run(capsys, "didm", "--input", four_group_csv, "--target", "d1")
    assert code == 0 and opened.count(four_group_csv) == 1
    with real(four_group_csv, "rb") as fh:
        assert json.loads(out)["input_sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_unreadable_input(capsys):
    code, out, err = _run(capsys, "didm", "--input", "/nonexistent.csv",
                          "--target", "d1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv, row, found", [
    (["didm"], "2,2,nan,1,0", "y is nan at group=2, period=2"),
    (["didm"], "2,2,0.5,inf,0", "n is inf at group=2, period=2"),
    (["decompose"], "2,2,0.5,1,nan", "d1 is nan at group=2, period=2"),
    (["didm"], "nan,2,0.5,1,0", "line 5: non-finite label 'nan'"),
    (["didm"], "2,-inf,0.5,1,0", "line 5: non-finite label '-inf'"),
    (["didm"], "2,2,1e300,1e300,0", "n * (y - previous y) overflows at group=2, period=2"),
    pytest.param(["didm"], "2,2,0.5,1e308,0\n3,1,0.0,1e308,0\n3,2,0.0,1,0",
                 "cell sizes n sum past the float range", id="n-total-overflows"),
])
def test_non_finite_input_exit_code(capsys, tmp_path, argv, row, found):
    path = tmp_path / "panel.csv"
    path.write_text("g,t,y,n,d1\n1,1,0.0,1,0\n1,2,0.5,1,1\n2,1,0.0,1,0\n" + row + "\n")
    code, out, err = _run(capsys, *argv, "--input", str(path), "--target", "d1")
    assert code == 3
    assert out == ""
    assert f"NonFiniteValue: {found}" in err


def _linear_payload(panel):
    """The linear-trends report: every horizon that has a usable group."""
    structure = m.build_cohorts(panel, 0, 1)
    horizons = []
    for ell in range(structure.l_nt + 1):
        with contextlib.suppress(InsufficientPrePeriods):
            horizons.append({"ell": ell,
                             **m.did_ell_linear_trends(panel, structure, ell).to_dict()})
    return {"horizons": horizons}


REPORTS = {
    "decompose": (["decompose", "--target", "d2"], "static",
                  lambda p: m.decomposition_report(m.decompose(p, 1),
                                                   m.summarize(m.decompose(p, 1), p))),
    "didm": (["didm", "--target", "d1"], "static", lambda p: m.didm(p, 0).to_dict()),
    "bootstrap-twfe": (["bootstrap", "--estimator", "twfe", "--target", "d1", "-B", "6",
                        "--seed", "3", "--parallelism", "2"], "static",
                       lambda p: m.bootstrap_se(p, "twfe", 6, 3, target=0).to_dict()),
    "bootstrap-didm": (["bootstrap", "--estimator", "didm", "--target", "d2", "-B", "6",
                        "--parallelism", "1"], "static",
                       lambda p: m.bootstrap_se(p, "didm", 6, 0, target=1).to_dict()),
    "bootstrap-did_ell": (["bootstrap", "--estimator", "did_ell", "--first", "d1",
                           "--second", "d2", "--ell", "0", "-B", "6", "--parallelism", "1"],
                          "staggered",
                          lambda p: m.bootstrap_se(p, "did_ell", 6, 0, first=0, second=1,
                                                   ell=0).to_dict()),
    **{f"dynamic-{strategy}": (["dynamic", "--first", "d1", "--second", "d2",
                                "--strategy", strategy], "staggered", payload)
       for strategy, payload in [
           ("second", lambda p: m.second_treatment_effects(p, 0, 1).to_dict()),
           ("first", lambda p: m.first_treatment_effects(p, 0, 1).to_dict()),
           ("combined", lambda p: m.combined_effects(p, 0, 1).to_dict()),
           ("linear", _linear_payload),
           ("split", lambda p: m.split_by_order(p, 0, 1).to_dict())]},
}


def _report_panel(tmp_path, kind):
    """The CSV path of a generated panel of ``kind``, "static" or "staggered"."""
    spec = (random_staggered_spec(np.random.default_rng(0)) if kind == "staggered" else
            m.DgpSpec(kind="random-binary", n_groups=12, n_periods=5, n_treatments=2,
                      seed=5, cell_sizes="random", base_effects=(1.0, -0.5),
                      effect_group_sd=1.0))
    path = tmp_path / "panel.csv"
    m.write_panel_csv(m.generate(spec).panel, path)
    return path


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_report_parses_to_the_library_result(capsys, tmp_path, name):
    """Each subcommand writes its report as one JSON line: the header plus the
    library's own result, equal after parsing."""
    argv, kind, payload = REPORTS[name]
    path = _report_panel(tmp_path, kind)
    code, out, err = _run(capsys, *argv, "--input", str(path))
    assert code == 0
    assert out.endswith("}\n") and out.count("\n") == 1
    report = json.loads(out)
    header = {key: report.pop(key) for key in ("tool", "config", "input_sha256")}
    assert header["tool"] == {"name": "multidid", "version": m.__version__}
    assert header["config"]["input"] == str(path) and header["config"]["subcommand"] == argv[0]
    assert report == json.loads(json.dumps(payload(m.read_panel_csv(path)), default=str))


@pytest.mark.parametrize("name", ["bootstrap-twfe", "bootstrap-didm", "bootstrap-did_ell"])
def test_parallelism_changes_only_its_echo(capsys, tmp_path, name):
    """``--parallelism`` is accepted and ignored: the reports at 1 and at 4
    differ in ``config.parallelism`` alone."""
    argv, kind, _ = REPORTS[name]
    path = _report_panel(tmp_path, kind)
    reports = []
    for value in (1, 4):  # the last --parallelism on the line is the one used
        code, out, err = _run(capsys, *argv, "--input", str(path), "--parallelism", str(value))
        assert code == 0
        report = json.loads(out)
        assert report["config"].pop("parallelism") == value
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("text, message", [
    ("[5, 4]", "the spec is not a JSON object$"),
    ('{"kind": "random-binary", "n_groups": 5', "the spec is not valid JSON: Expecting"),
    ('{"n_groups": 5, "n_periods": 4}', r"missing spec field\(s\): \['kind'\]$"),
    ('{"kind": "random-binary", "n_groups": "5", "n_periods": 4}',
     'n_groups must be an integer, got "5"$'),
    ('{"kind": 2, "n_groups": 5, "n_periods": 4}', "kind must be a string, got 2$"),
    ('{"kind": "random-binary", "n_groups": 5, "n_periods": 4, "noise_sd": true}',
     "noise_sd must be a number, got true$"),
    ('{"kind": "random-binary", "n_groups": 5, "n_periods": 4, "f1": 3}',
     "f1 must be an array or null, got 3$"),
    # elements of array fields: each is checked against its declared type
    ('{"kind": "random-binary", "n_groups": 5, "n_periods": 4, "interactions": [1]}',
     r"interactions\[0\] must be an array, got 1$"),
    ('{"kind": "random-binary", "n_groups": 5, "n_periods": 4, "interactions": [[0, 1.5, 2]]}',
     r"interactions\[0\]\[1\] must be an integer, got 1\.5$"),
    ('{"kind": "consecutive-staggered", "n_groups": 3, "n_periods": 4, "f1": ["a", 2, 2]}',
     r'f1\[0\] must be an integer, got "a"$'),
    ('{"kind": "consecutive-staggered", "n_groups": 3, "n_periods": 4, "f1": [2.5, 2, 2]}',
     r"f1\[0\] must be an integer, got 2\.5$"),
    ('{"kind": "random-binary", "n_groups": 5, "n_periods": 4, "base_effects": ["x", 1]}',
     r'base_effects\[0\] must be a number, got "x"$'),
    ('{"kind": "standard-did", "n_groups": 5, "n_periods": 4, "thresholds": [2, 2, 3]}',
     "thresholds must have 4 entries, got 3$"),
    ('{"kind": "consecutive-staggered", "n_groups": 2, "n_periods": 4, '
     '"second_effects": [1, 2]}', r"second_effects\[0\] must be an array, got 1$"),
])
def test_malformed_spec_is_invalid(capsys, tmp_path, text, message):
    """A spec that is not a JSON object, lacks a required field or gives a
    field a value of the wrong JSON type exits 3 with a one-line error."""
    spec_path, csv_path = tmp_path / "spec.json", tmp_path / "sim.csv"
    spec_path.write_text(text)
    code, out, err = _run(capsys, "simulate", "--spec", str(spec_path), "--out", str(csv_path))
    assert code == 3
    assert out == ""
    assert re.match(f"error: InvalidSpec: {message}", err.rstrip("\n"))
    assert "Traceback" not in err and err.count("\n") == 1
    assert not csv_path.exists()


def test_simulate_report(capsys, tmp_path):
    spec_path, csv_path = tmp_path / "spec.json", tmp_path / "sim.csv"
    spec_path.write_text(m.DgpSpec(kind="consecutive-staggered", n_groups=5,
                                   n_periods=4, seed=2).to_json())
    code, out, err = _run(capsys, "simulate", "--spec", str(spec_path), "--out",
                          str(csv_path), "--seed", "9")
    assert code == 0
    assert out.endswith("}\n") and out.count("\n") == 1
    report = json.loads(out)
    assert report["config"]["seed"] == 9 and "input_sha256" not in report
    assert {k: v for k, v in report.items() if k not in ("tool", "config")} == {
        "written": str(csv_path), "kind": "consecutive-staggered", "n_groups": 5,
        "n_periods": 4, "n_treatments": 2, "seed": 9}


@pytest.mark.parametrize("names, order", [
    (("d2", "d3"), None), (("d3", "d2"), None), (("d1", "d3"), None),
    (("d10", "d2"), None), (("d2", "d10"), (5, 0, 4, 1, 2, 3)),
    (("d3", "d1"), (4, 2, 0, 5, 3, 1)),
])
@pytest.mark.parametrize("command", ["didm", "decompose"])
def test_treatment_names_follow_the_header(capsys, tmp_path, names, order, command):
    """``--target dN`` is the column headed dN, wherever it stands; before, the
    command line named the treatments d1..dK by position, so on a d2,d3 file
    --target d2 read column d3 and --target d3 was refused."""
    spec = m.DgpSpec(kind="random-binary", n_groups=12, n_periods=5, n_treatments=2,
                     seed=5, base_effects=(1.0, 5.0), effect_group_sd=1.0)
    panel = m.generate(spec).panel
    path = tmp_path / "panel.csv"
    m.write_panel_csv(panel, path)
    body = path.read_text().splitlines()[1:]
    lines = [["g", "t", "y", "n", *names]] + [line.split(",") for line in body]
    # columns g,t,y,n,names[0],names[1] in the order given
    path.write_text("".join(",".join(map(line.__getitem__, order or range(6))) + "\n"
                            for line in lines))
    back = m.read_panel_csv(path)
    numeric = sorted(names, key=lambda name: int(name[1:]))
    for name in names:
        code, out, err = _run(capsys, command, "--input", str(path), "--target", name)
        assert code == 0
        report = json.loads(out)
        j, k = names.index(name), numeric.index(name)  # its index written and read
        if command == "didm":
            assert report["estimate"] == pytest.approx(m.didm(panel, j).estimate)
            want = m.didm(back, k).to_dict()
        else:
            assert report["beta_fe"] == pytest.approx(m.decompose(panel, j).beta_fe)
            want = m.decomposition_report(m.decompose(back, k),
                                          m.summarize(m.decompose(back, k), back))
        assert {key: report[key] for key in want} == json.loads(
            json.dumps(want, default=str))
    assert back.treatment_names == tuple(numeric)


def test_did_ell_bootstrap_needs_a_second_treatment(capsys, tmp_path):
    """On a one-treatment file the default --second names nothing: a typed
    error, exit 3. Before, an IndexError traceback ended the run (exit 1)."""
    path = tmp_path / "one.csv"
    path.write_text("g,t,y,d1\n1,1,0,0\n1,2,1,1\n2,1,0,0\n2,2,0,0\n3,1,0,0\n3,2,2,1\n")
    code, out, err = _run(capsys, "bootstrap", "--input", str(path), "--estimator",
                          "did_ell", "-B", "3")
    assert (code, out) == (3, "")
    assert err == ("error: MissingColumn: did_ell needs a second treatment column, "
                   "the treatments are ['d1']\n")
    for estimator in ("twfe", "didm"):  # neither reads the second treatment
        code, out, err = _run(capsys, "bootstrap", "--input", str(path), "--estimator",
                              estimator, "-B", "3")
        assert code == 0 and json.loads(out)["n_replications"] == 3


@pytest.mark.parametrize("argv, what", [
    (("decompose", "--target", "d9"), "target treatment 'd9'"),
    (("didm", "--target", "D9"), "target treatment 'D9'"),
    (("dynamic", "--first", "d1", "--second", "d9"), "second treatment 'd9'"),
    (("dynamic", "--first", "d9", "--second", "d2"), "first treatment 'd9'"),
    (("bootstrap", "--estimator", "did_ell", "--second", "d9", "-B", "3"),
     "second treatment 'd9'"),
])
def test_unknown_treatment_name_is_refused(capsys, staggered_csv, argv, what):
    """A treatment option naming no column is a MissingColumn error, exit 3,
    that lists the file's treatments."""
    code, out, err = _run(capsys, argv[0], "--input", staggered_csv, *argv[1:])
    assert (code, out) == (3, "")
    assert err == f"error: MissingColumn: {what} is not among the treatments ['d1', 'd2']\n"


# the exit codes the --help epilog lists, per class
EXIT_CODES = {
    "UnbalancedPanel": 3, "DuplicateCell": 3, "NonBinaryTreatment": 3,
    "NonPositiveWeight": 3, "NonFiniteValue": 3, "InsufficientVariation": 3,
    "NonSharpDesign": 3, "MissingColumn": 3, "InvalidEncoding": 3, "MalformedInput": 3,
    "InvalidSpec": 3,
    "CollinearTreatments": 4, "DegenerateDenominator": 4, "NumericallySingular": 4,
    "NotStaggered": 5, "WrongOrder": 5, "PathologicalDesign": 5,
    "NoControls": 6, "InsufficientPrePeriods": 6, "HorizonOutOfRange": 6,
    "AllReplicationsDegenerate": 7, "MissingPotentialOutcomes": 1,
}


def test_every_error_class_carries_its_exit_code(capsys, monkeypatch, four_group_csv):
    """A class missing from the table fails here, whatever code it inherits."""
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.MultiDidError)
               and cls is not errors.MultiDidError}
    assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES
    epilog = cli.build_parser().epilog
    listed = {int(line.split()[0]) for line in epilog.splitlines()
              if line[:3].strip().isdigit()}
    assert listed == {0, 2, 141} | set(EXIT_CODES.values())
    for name, cls in classes.items():
        def raising(*args, **kwargs):
            raise cls("reason")
        monkeypatch.setattr(cli, "didm", raising)
        code, out, err = _run(capsys, "didm", "--input", four_group_csv, "--target", "d1")
        assert (code, out, err) == (EXIT_CODES[name], "", f"error: {name}: reason\n")


class _ClosedPipe:
    """A standard output whose reader has gone: every write fails as a closed
    pipe's does. Its file descriptor is a pipe of the test's own."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("argv", [["didm", "--target", "d1"],
                                  ["didm", "--target", "d1", "--output", "csv"]])
def test_a_closed_standard_output_exits_141_in_silence(capsys, monkeypatch, four_group_csv,
                                                       argv):
    """A reader that closes the pipe, as ``| head -c 100`` does, gets exit
    128 + SIGPIPE and no error line, only the estimate's own warning; the
    descriptor then points at os.devnull, so the flush at exit cannot fail
    again."""
    read, write = os.pipe()
    with open(read, "rb") as reader:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _ClosedPipe(write))
            code = main([*argv, "--input", four_group_csv])
        assert code == 141
        assert capsys.readouterr().err == ("warning: dropped 1 switching cell(s) "
                                           "(other_treatment_changed): g=4 t=2\n")
        os.write(write, b"lost")
        os.close(write)
        assert reader.read() == b""  # the write went to os.devnull
