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
spells, and the K=1 and K=3 panels, the first with an empty contamination
table), ``didm`` (on the four panels) and ``dynamic`` (all three studies on
both staggered panels); and, pinned before the event-study tables were
written from arrays and the linear trends came from one fit per group,
``dynamic --strategy linear`` on both staggered panels, ``--strategy
split``, and the second study's report and table and the linear report on a
staggered panel with string labels and one with float labels. The JSON digests
were taken before the decompose tables were written from the weight grid,
the CSV digests before the tables and the reports shared one writer, and the
digests of the first and combined studies, of the several-cohort panel and
of the did_ell bootstrap before every horizon of a study came from one
kernel call, and the ``didm`` digests on the K=3, string and float panels
before the ``didm`` tables were written from the strata arrays, and the
``decompose`` tables of the K=1 and K=3 panels and the first, combined and
several-cohort ``dynamic`` tables before every table was laid out beside its
result and every JSON report came from one writer; a changed
byte of any report or table fails here. The ``bootstrap-twfe`` digest alone
was taken again when twfe draws came from per-group tables: its replicates
moved in their last bits, and ``BOOTSTRAP_TWFE_REPLICATES`` holds them within
1e-12 of the values before. The tool version is part of every
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
# in date order both as text and as numbers, so the staggered design survives the read
STAGGERED_STRING_PERIODS = ('1 "a"', "2, b", "3\\c", "4, d", '5 "e"', "6\\f")
STAGGERED_FLOAT_PERIODS = (0.5, 1.5, 1e16, 2.5e16, 3.5e20, 1e300)


def _synthetic(K: int, G: int, T: int, seed: int) -> m.PanelDataset:
    spec = m.DgpSpec(kind="random-binary", n_groups=G, n_periods=T, n_treatments=K,
                     seed=seed, noise_sd=0.5, cell_sizes="random", treat_prob=0.45,
                     base_effects=tuple(1.0 - 0.5 * k for k in range(K)),
                     effect_group_sd=1.0, effect_time_sd=0.3)
    return m.generate(spec).panel


def _staggered(G: int, T: int, seed: int) -> m.PanelDataset:
    return m.generate(m.DgpSpec(
        kind="consecutive-staggered", n_groups=G, n_periods=T, seed=seed,
        cell_sizes="random", time_sd=0.5, first_level_sd=1.0, first_growth=0.3,
        second_base=2.0, second_growth=0.5, second_sd=1.0)).panel


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
    "cohorts": lambda: _staggered(60, 10, 15),
    # each with placebos, and a linear-trend group dropped at some horizon
    "staggered-strings": lambda: _relabelled(_staggered(len(STRING_GROUPS), 6, 16),
                                             STRING_GROUPS, STAGGERED_STRING_PERIODS),
    "staggered-floats": lambda: _relabelled(_staggered(len(FLOAT_GROUPS), 6, 16),
                                            FLOAT_GROUPS, STAGGERED_FLOAT_PERIODS),
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
    "decompose-k1-csv": ("k1", ["decompose", "--target", "d1", "--output", "csv"]),
    "decompose-k3-csv": ("k3", ["decompose", "--target", "d2", "--output", "csv"]),
    "dynamic-first-csv": ("staggered", ["dynamic", "--first", "d1", "--second", "d2",
                                        "--strategy", "first", "--output", "csv"]),
    "dynamic-combined-csv": ("staggered", ["dynamic", "--first", "d1", "--second", "d2",
                                           "--strategy", "combined", "--output", "csv"]),
    "dynamic-second-cohorts-csv": ("cohorts", ["dynamic", "--first", "d1", "--second", "d2",
                                               "--strategy", "second", "--output", "csv"]),
    "dynamic-first-cohorts-csv": ("cohorts", ["dynamic", "--first", "d1", "--second", "d2",
                                              "--strategy", "first", "--output", "csv"]),
    "dynamic-combined-cohorts-csv": ("cohorts", ["dynamic", "--first", "d1", "--second",
                                                 "d2", "--strategy", "combined",
                                                 "--output", "csv"]),
    "dynamic-linear": ("staggered", ["dynamic", "--first", "d1", "--second", "d2",
                                     "--strategy", "linear"]),
    "dynamic-linear-cohorts": ("cohorts", ["dynamic", "--first", "d1", "--second", "d2",
                                           "--strategy", "linear"]),
    "dynamic-split": ("staggered", ["dynamic", "--first", "d1", "--second", "d2",
                                    "--strategy", "split"]),
    **{f"dynamic-{study}-{kind}-labels{csv}": (
        f"staggered-{kind}s", ["dynamic", "--first", "d1", "--second", "d2",
                               "--strategy", study, *(["--output", "csv"] if csv else [])])
       for kind in ("string", "float") for study, csv in (("second", ""), ("linear", ""),
                                                          ("second", "-csv"))},
}

DIGESTS = {
    "bootstrap-did-ell": "a9e4e5c7d5d573c954e767d88631038dc11471dadf9482b8af9f54957974121b",
    "bootstrap-twfe": "bce64ed1405d29f31ba74647ca2a0456395aa7a30d7b226ed75105ee08d24949",
    "decompose-float-labels": "74e2524b2ce2070057412dea2f0a33b3c2df7050a3cbc0e0be7912b583108313",
    "decompose-float-labels-csv": "c6ac55e892971b53cdd52076abcc13df027dec89ec3d8198f4c14ac74cba3569",
    "decompose-k1": "b6626a76daa3002390b4971bcdec7acb3ec06e9d168532224ce422151273b3d1",
    "decompose-k1-csv": "8d6366e99696ef9cbbcefc5177a8c3db5a774ca6e789eac30338afdd70ef9f81",
    "decompose-k3": "9a7d0a052b997067211af32d71c036aacb5796933318f1645cb4859278881235",
    "decompose-k3-csv": "8620ccdd87acb0dfd72327e0be1935c2c124e4eafbfbe45287cfbc03f849bbb9",
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
    "dynamic-combined-cohorts-csv": "25c3148fd562ba367189eb6ade2db27a4531d18e001ba281f0a6c6129723cc38",
    "dynamic-combined-csv": "632301808fb3e773599c4eda1b5b8aae8fb5f40268f2b6dddcebb37cfefbe391",
    "dynamic-first": "a23ab38a07785514a4559f5a3b846fcaee5bfca4bcdf1cd5773b7f91ff96056a",
    "dynamic-first-cohorts": "c08605fe407590a6732a5cbd166ae44a5c8742bc3e3489b1c88a1773f7bdcb80",
    "dynamic-first-cohorts-csv": "50f10fc33a23838ea575fbcc9b4bcee0e7de0ebb3503d1036635b81b8c3bd269",
    "dynamic-first-csv": "af3a91b03c2ea4c44b0c020d608e5e81220393600754d5e7010d1084d22bc341",
    "dynamic-linear": "6ba3dfe516e633fa5c06dab54fd162d09e4528b1a47b7ed26b57670c04a7db7b",
    "dynamic-linear-cohorts": "db39cb22b624a321e061f416d765e4708cc3979a2646be8798609b8300bec0c2",
    "dynamic-linear-float-labels": "b64c573aed8851251e06f44c82484a533335c077cf9c4e64019ca5794241f629",
    "dynamic-linear-string-labels": "de5b1852fec0103cf5a663d8ec46bed3726aba24bf2d578ccd16c91a0ccc1df4",
    "dynamic-second": "8e4760b99a000ab3f989695e35a7d51874e6e521c9de61a84374deea0d255205",
    "dynamic-second-cohorts": "fa66bfd8fe24552730391673ec1e110643bedb21aa240e7372db585cdeef11f4",
    "dynamic-second-cohorts-csv": "08c1814f594a8ab1f6cb55dc81ae90d1e52cd1903ad30516c80eb42e27c3c754",
    "dynamic-second-csv": "2464986b36566bd197e72333f034b3def5c0ccd0354638faa5a2c869702785a4",
    "dynamic-second-float-labels": "b0d2185053f9015c37cf0434263febb6bf1da4e8effc0907f0342f0ead3fc0ce",
    "dynamic-second-float-labels-csv": "c33d5934a0bbe38904a817ac0e38a2dff58aa7394432d5ae0f993e8960ea9048",
    "dynamic-second-string-labels": "5ce25d092c2fb93dde3e2adf7845fc987b2eb7ded734c0b8cb658d768bfa5704",
    "dynamic-second-string-labels-csv": "dbe854f6fecb6ff41ad7ac057995ebecd306b67d0be6b5ec4fcaebe160221a23",
    "dynamic-split": "5381a29f5425e35dce803471d842b4f689e4af814f717944554d38d8296586a8",
}


# the "bootstrap-twfe" case's replicates, by repr, when every draw refitted the
# copied groups; the count-linear draws must stay within 1e-12 relative of
# them with the same degenerate count, though their last bits may move
BOOTSTRAP_TWFE_REPLICATES = (
    0.7430006373946656, 0.914061620997757, 0.23049496146347237, 0.08025015111652066,
    0.2295295941601245, 0.2742807904542163, 1.1169739053958327, 0.1918677461785656,
    -0.06939005724113617, 0.08800115235022235, 0.1354315486441498, -0.6712091163950425,
    0.004119406970257859, -0.34553226683000426, 1.1209929711064177, 0.2828887111602805,
    -0.34142058663756497, 0.4837193314829239, 0.5144627988863684, 0.5154493381684191,
)


def test_bootstrap_twfe_replicates_stay_within_1e_12():
    name, argv = CASES["bootstrap-twfe"]
    assert argv[argv.index("-B") + 1] == "20" and argv[argv.index("--seed") + 1] == "3"
    result = m.bootstrap_se(PANELS[name](), "twfe", 20, 3, target=0, keep_replicates=True)
    assert result.n_degenerate == 0
    assert len(result.replicates) == len(BOOTSTRAP_TWFE_REPLICATES)
    for got, held in zip(result.replicates, BOOTSTRAP_TWFE_REPLICATES):
        assert abs(got - held) <= 1e-12 * abs(held), (got, held)


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
