"""Bit-for-bit guard on JSON reports and ``--output csv`` tables.

Each case writes a small panel, runs one command of the command line from
the panel's directory with a relative ``--input`` (so that ``config`` holds
the same path on every machine) and pins the SHA-256 digest of its full
standard output. The cases cover ``decompose`` with one treatment (empty
contamination table), with three, with string labels that need escaping and
with float labels that json spells in exponent form, then ``didm`` on the
same four panels (on the last three with both drop reasons, baselines of one
and two other treatments, and the labels in the dropped cells and the
component periods), ``dynamic`` (all three event studies, on the
three-cohort example and on a generated panel of several cohorts whose
studies have placebos) and ``bootstrap`` (twfe and did_ell); and the tables
of ``decompose`` (string and float labels, which the CSV writer quotes or
spells), ``didm`` (on the four panels) and ``dynamic``. The JSON digests
were taken before the decompose tables were written from the weight grid,
the CSV digests before the tables and the reports shared one writer, and the
digests of the first and combined studies, of the several-cohort panel and
of the did_ell bootstrap before every horizon of a study came from one
kernel call, and the ``didm`` digests on the K=3, string and float panels
before the ``didm`` tables were written from the strata arrays; a changed
byte of any report or table fails here. The tool version is part of every
report, so a version bump changes every digest.

Print the current digests with ``PYTHONPATH=src python -m tests.test_report_digests``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import pytest

import multidid as m
from multidid.cli import main

from .examples import three_cohort_example

STRING_GROUPS = ('a "quoted" group', "back\\slash", "comma, space", "Zürich",
                 "東京", "plain")
FLOAT_GROUPS = (0.5, 2.75, 1e16, 3.5e20, 1.2345678901234567e-7)
FLOAT_PERIODS = (1.5, 1e16, 2.5e16, 1e300)


def _synthetic(K: int, G: int, T: int, seed: int) -> m.PanelDataset:
    spec = m.DgpSpec(kind="random-binary", n_groups=G, n_periods=T, n_treatments=K,
                     seed=seed, noise_sd=0.5, cell_sizes="random", treat_prob=0.45,
                     base_effects=tuple(1.0 - 0.5 * k for k in range(K)),
                     effect_group_sd=1.0, effect_time_sd=0.3)
    return m.generate(spec).panel


def _relabelled(panel: m.PanelDataset, groups, periods=None) -> m.PanelDataset:
    return m.PanelDataset(groups, periods or panel.period_labels, panel.y, panel.n,
                          panel.d)


PANELS = {
    "k1": lambda: _synthetic(1, 8, 5, 11),
    "k3": lambda: _synthetic(3, 10, 5, 12),
    "strings": lambda: _relabelled(_synthetic(2, len(STRING_GROUPS), 4, 13), STRING_GROUPS,
                                   ("p, 1", "p, 2", 'p "3"', "p\\4")),
    "floats": lambda: _relabelled(_synthetic(2, len(FLOAT_GROUPS), 4, 14), FLOAT_GROUPS,
                                  FLOAT_PERIODS),
    "staggered": lambda: three_cohort_example(extra_never_treated=True).panel,
    # several first-adoption cohorts, each with adopters at several dates
    "cohorts": lambda: m.generate(m.DgpSpec(
        kind="consecutive-staggered", n_groups=60, n_periods=10, seed=15,
        cell_sizes="random", time_sd=0.5, first_level_sd=1.0, first_growth=0.3,
        second_base=2.0, second_growth=0.5, second_sd=1.0)).panel,
}


CASES = {
    "decompose-k1": ("k1", ["decompose", "--target", "d1"]),
    "decompose-k3": ("k3", ["decompose", "--target", "d2"]),
    "decompose-string-labels": ("strings", ["decompose", "--target", "d1"]),
    "decompose-float-labels": ("floats", ["decompose", "--target", "d2"]),
    "didm": ("k1", ["didm", "--target", "d1"]),
    "dynamic-second": ("staggered", ["dynamic", "--first", "d1", "--second", "d2",
                                     "--strategy", "second"]),
    "dynamic-first": ("staggered", ["dynamic", "--first", "d1", "--second", "d2",
                                    "--strategy", "first"]),
    "dynamic-combined": ("staggered", ["dynamic", "--first", "d1", "--second", "d2",
                                       "--strategy", "combined"]),
    "dynamic-second-cohorts": ("cohorts", ["dynamic", "--first", "d1", "--second", "d2",
                                           "--strategy", "second"]),
    "dynamic-first-cohorts": ("cohorts", ["dynamic", "--first", "d1", "--second", "d2",
                                          "--strategy", "first"]),
    "dynamic-combined-cohorts": ("cohorts", ["dynamic", "--first", "d1", "--second", "d2",
                                             "--strategy", "combined"]),
    "bootstrap-twfe": ("k3", ["bootstrap", "--estimator", "twfe", "--target", "d1",
                              "-B", "20", "--seed", "3", "--parallelism", "1"]),
    "bootstrap-did-ell": ("cohorts", ["bootstrap", "--estimator", "did_ell", "--first", "d1",
                                      "--second", "d2", "--ell", "1", "-B", "20",
                                      "--seed", "3"]),
    "decompose-string-labels-csv": ("strings", ["decompose", "--target", "d1",
                                                "--output", "csv"]),
    "decompose-float-labels-csv": ("floats", ["decompose", "--target", "d2",
                                              "--output", "csv"]),
    "didm-csv": ("k1", ["didm", "--target", "d1", "--output", "csv"]),
    "didm-k3": ("k3", ["didm", "--target", "d2"]),
    "didm-k3-csv": ("k3", ["didm", "--target", "d2", "--output", "csv"]),
    "didm-string-labels": ("strings", ["didm", "--target", "d2"]),
    "didm-string-labels-csv": ("strings", ["didm", "--target", "d2", "--output", "csv"]),
    "didm-float-labels": ("floats", ["didm", "--target", "d1"]),
    "didm-float-labels-csv": ("floats", ["didm", "--target", "d1", "--output", "csv"]),
    "dynamic-second-csv": ("staggered", ["dynamic", "--first", "d1", "--second", "d2",
                                         "--strategy", "second", "--output", "csv"]),
}

DIGESTS = {
    "bootstrap-did-ell": "a9e4e5c7d5d573c954e767d88631038dc11471dadf9482b8af9f54957974121b",
    "bootstrap-twfe": "f4a3e499449dff236bd242e8f61d508c6cdb434e1c2e0111f92d7301b4f29b5f",
    "decompose-float-labels": "74e2524b2ce2070057412dea2f0a33b3c2df7050a3cbc0e0be7912b583108313",
    "decompose-float-labels-csv": "c6ac55e892971b53cdd52076abcc13df027dec89ec3d8198f4c14ac74cba3569",
    "decompose-k1": "b6626a76daa3002390b4971bcdec7acb3ec06e9d168532224ce422151273b3d1",
    "decompose-k3": "9a7d0a052b997067211af32d71c036aacb5796933318f1645cb4859278881235",
    "decompose-string-labels": "3816e00d83aedcd7ac09bd3afe712e1b735fb8a4ec480ed831d93427dbca8ebf",
    "decompose-string-labels-csv": "a4f7f424ed2ee2e01723677a3dd4337a3c35e171f5d1f1799e2be127c0d06ad6",
    "didm": "bb966e0eddaf62dbdf8182cdd164e045c18f7ffee959e081c9d507142ba6d258",
    "didm-csv": "86b408ad33f1b4a795753f82fa2ad74dbc64d894a71aaf6274fca8d39827d64a",
    "didm-float-labels": "3271555e915f831b2a1ce2508307006b9d0a9bc727c4a0292c1a2e8cbc5e36af",
    "didm-float-labels-csv": "032dcf7cfae51a097d3a64afa456cea458d5d5d2e43af77393b078498e3ece8c",
    "didm-k3": "a2512f4c541f0f3766897dbe0758cf0b8e247afb59d8f5b2f923fae1c670900c",
    "didm-k3-csv": "3ec169c59ec79805c7e9af0888aa14ad5881cb99361c0ad0be63d761a03423fb",
    "didm-string-labels": "f528fefef0d1e718a9797a7218058b0ce07799c44f8f6566dbb8f81eed29a84e",
    "didm-string-labels-csv": "edb990f59a1a663e1861461653466ab0a132a122ecf81761a267800e23a452ef",
    "dynamic-combined": "d07e67bc518f5b85e517bfe9ce0cc0b71f0fd75cd2de1fd2caf4051fe73c600c",
    "dynamic-combined-cohorts": "5bc2e62fcccec441dbc7d880e6be69abfe67be3a1adac5a428593aa06a61c1d3",
    "dynamic-first": "a23ab38a07785514a4559f5a3b846fcaee5bfca4bcdf1cd5773b7f91ff96056a",
    "dynamic-first-cohorts": "c08605fe407590a6732a5cbd166ae44a5c8742bc3e3489b1c88a1773f7bdcb80",
    "dynamic-second": "8e4760b99a000ab3f989695e35a7d51874e6e521c9de61a84374deea0d255205",
    "dynamic-second-cohorts": "fa66bfd8fe24552730391673ec1e110643bedb21aa240e7372db585cdeef11f4",
    "dynamic-second-csv": "2464986b36566bd197e72333f034b3def5c0ccd0354638faa5a2c869702785a4",
}


def _stdout(panel: m.PanelDataset, argv: list[str]) -> str:
    """Standard output of ``argv`` on ``panel``, written to ``panel.csv`` in
    the current directory."""
    m.write_panel_csv(panel, "panel.csv")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--input", "panel.csv"])
    assert code == 0
    return out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_pinned(case, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    name, argv = CASES[case]
    assert _digest(_stdout(PANELS[name](), argv)) == DIGESTS[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for case, (name, argv) in sorted(CASES.items()):
            sys.stdout.write(f'    "{case}": "{_digest(_stdout(PANELS[name](), argv))}",\n')
