import contextlib
import json

import numpy as np
import pytest

import multidid as m
from multidid import cli
from multidid.cli import main
from multidid.errors import InsufficientPrePeriods

from .conftest import degenerate_denominator_panel, random_staggered_spec


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
            "warning: dropped switching cell g='c' t=2 (other_treatment_changed)\n"
            "warning: dropped switching cell g='a' t=3 (no_matching_stayer)\n"
            "warning: dropped switching cell g='d' t=3 (no_matching_stayer)\n")


def test_missing_treatment_column_exit_code(capsys, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("g,t,y,d1\n1,1,0,0\n1,2,0,1\n2,1,0,0\n2,2,0,0\n")
    code, out, err = _run(capsys, "didm", "--input", str(path),
                          "--treatments", "d1,d2", "--target", "d1")
    assert code == 3
    assert "d2" in err


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
    synthetic = m.three_cohort_example(extra_never_treated=True)
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


def test_degenerate_denominator_exit_code(capsys, tmp_path):
    path = tmp_path / "degenerate.csv"
    m.write_panel_csv(degenerate_denominator_panel(), path)
    for argv in (["decompose"], ["bootstrap", "--estimator", "twfe", "-B", "4"]):
        code, out, err = _run(capsys, argv[0], "--input", str(path), "--target", "d1",
                              *argv[1:])
        assert code == 4
        assert out == ""
        assert "DegenerateDenominator" in err


def test_bootstrap_subcommand(capsys, four_group_csv):
    code, out, err = _run(capsys, "bootstrap", "--input", four_group_csv,
                          "--estimator", "twfe", "--target", "d1",
                          "-B", "8", "--seed", "4")
    assert code == 0
    report = json.loads(out)
    assert report["n_replications"] == 8
    assert report["estimate"] == pytest.approx(1.5)
    assert report["inference_note"].startswith("group block bootstrap")


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


def test_out_file(capsys, four_group_csv, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = _run(capsys, "decompose", "--input", four_group_csv,
                          "--target", "d1", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["beta_fe"] == pytest.approx(1.5)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert m.__version__ in capsys.readouterr().out


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
                       lambda p: m.bootstrap_se(p, "twfe", 6, 3, target=0,
                                                parallelism=2).to_dict()),
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


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_report_parses_to_the_library_result(capsys, tmp_path, name):
    """Each subcommand writes its report as one JSON line: the header plus the
    library's own result, equal after parsing."""
    argv, kind, payload = REPORTS[name]
    spec = (random_staggered_spec(np.random.default_rng(0)) if kind == "staggered" else
            m.DgpSpec(kind="random-binary", n_groups=12, n_periods=5, n_treatments=2,
                      seed=5, cell_sizes="random", base_effects=(1.0, -0.5),
                      effect_group_sd=1.0))
    panel = m.generate(spec).panel
    path = tmp_path / "panel.csv"
    m.write_panel_csv(panel, path)
    code, out, err = _run(capsys, *argv, "--input", str(path))
    assert code == 0
    assert out.endswith("}\n") and out.count("\n") == 1
    report = json.loads(out)
    header = {key: report.pop(key) for key in ("tool", "config", "input_sha256")}
    assert header["tool"] == {"name": "multidid", "version": m.__version__}
    assert header["config"]["input"] == str(path) and header["config"]["subcommand"] == argv[0]
    assert report == json.loads(json.dumps(payload(m.read_panel_csv(path)), default=str))


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
