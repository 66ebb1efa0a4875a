"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
pass/fail line per criterion in addition to the pytest verdicts.
"""

import importlib.util
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import multidid as m
from multidid.errors import CollinearTreatments

from .conftest import make_random_panel, random_staggered_spec
from .examples import four_group_example, standard_did_residual_closed_form, three_cohort_example
from .oracles import brute_force_didm

DAYCARE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "daycare_replication.py"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{name}]: FAIL")
        raise
    print(f"criterion {number:2d} [{name}]: PASS")


def _random_panels(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        panel = make_random_panel(rng, **kwargs)
        try:
            m.first_stage(panel, 0)
        except CollinearTreatments:
            continue
        produced += 1
        yield panel


def test_criterion_1_orthogonality_suite():
    with criterion(1, "orthogonality"):
        start = time.perf_counter()
        for panel in _random_panels(1001, 100):
            stage = m.first_stage(panel, 0)
            eps = stage.residuals
            scale = max(1.0, float(np.sum(panel.n * np.abs(eps))))
            assert np.max(np.abs((panel.n * eps).sum(axis=1))) <= 1e-8 * scale
            assert np.max(np.abs((panel.n * eps).sum(axis=0))) <= 1e-8 * scale
            for j in range(1, panel.n_treatments):
                assert abs(float(np.sum(panel.n * eps * panel.d[j]))) <= 1e-8 * scale
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"orthogonality suite took {elapsed:.2f}s"


def test_criterion_2_weight_sums():
    with criterion(2, "weight sums"):
        for panel in _random_panels(1002, 100):
            decomp = m.decompose(panel, 0)
            assert abs(sum(decomp.own.values()) - 1.0) <= 1e-8
            for j in range(1, panel.n_treatments):
                assert abs(float(np.sum(decomp.weights[panel.d[j] > 0.5]))) <= 1e-8
            summary = m.summarize(decomp, panel)
            if panel.n_treatments == 2 or summary.others_mutually_exclusive:
                assert abs(sum(decomp.contamination.values())) <= 1e-8


def test_criterion_3_decomposition_identity():
    with criterion(3, "decomposition identity"):
        start = time.perf_counter()
        rng = np.random.default_rng(1003)
        produced = 0
        while produced < 50:
            spec = m.DgpSpec(
                kind="random-binary",
                n_groups=int(rng.integers(4, 13)),
                n_periods=int(rng.integers(3, 8)),
                n_treatments=int(rng.integers(2, 4)),
                seed=int(rng.integers(0, 2 ** 31)),
                effect_group_sd=1.5, effect_time_sd=1.0,
                interactions=((0, 1, float(rng.normal())),),
            )
            synthetic = m.generate(spec)
            try:
                decomp = m.decompose(synthetic.panel, 0)
            except CollinearTreatments:
                continue
            produced += 1
            rhs = m.decomposition_rhs(synthetic, decomp)
            assert abs(decomp.beta_fe - rhs) <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"identity suite took {elapsed:.2f}s"


def test_criterion_4_four_group_fixture():
    with criterion(4, "four-group fixture"):
        panel = four_group_example().panel
        decomp = m.decompose(panel, 0)
        def y(g, t):
            return panel.y[panel.group_index(g), panel.period_index(t)]

        did_clean = y(2, 2) - y(2, 1) - (y(1, 2) - y(1, 1))
        did_mixed = y(4, 2) - y(4, 1) - (y(3, 2) - y(3, 1))
        assert abs(decomp.beta_fe - 1.5) <= 1e-10
        assert abs(decomp.beta_fe - (0.5 * did_clean + 0.5 * did_mixed)) <= 1e-10
        assert abs(decomp.own[(2, 2)] - 0.5) <= 1e-10
        assert abs(decomp.own[(4, 2)] - 0.5) <= 1e-10
        assert abs(decomp.contamination[(3, 2)] + 0.5) <= 1e-10
        assert abs(decomp.contamination[(4, 2)] - 0.5) <= 1e-10


def test_criterion_5_closed_form_residuals():
    with criterion(5, "two-threshold closed form"):
        rng = np.random.default_rng(1005)
        for trial in range(20):
            G = int(rng.integers(4, 9))
            T = int(rng.integers(4, 9))
            g1 = int(rng.integers(2, G))
            g2 = int(rng.integers(g1 + 1, G + 1))
            t1 = int(rng.integers(2, T))
            t2 = int(rng.integers(t1 + 1, T + 1))
            a = rng.integers(1, 6, size=G).astype(float)
            b = rng.integers(1, 6, size=T).astype(float)
            n = np.outer(a, b)
            d = np.zeros((2, G, T))
            for g in range(G):
                for t in range(T):
                    d[0, g, t] = float(g + 1 >= g1 and t + 1 >= t1)
                    d[1, g, t] = float(g + 1 >= g2 and t + 1 >= t2)
            panel = m.PanelDataset(range(1, G + 1), range(1, T + 1),
                                   np.zeros((G, T)), n, d)
            stage = m.first_stage(panel, 0)
            eps_cf, zeta_cf = standard_did_residual_closed_form(n, g1, t1, g2, t2)
            assert np.max(np.abs(stage.residuals - eps_cf)) <= 1e-10
            assert abs(stage.coef_other[1] - zeta_cf) <= 1e-10

            decomp = m.decompose(panel, 0)
            assert all(abs(w) <= 1e-10 for w in decomp.contamination.values())
            if np.sum(n * d[1]) > np.sum(n[:g2 - 1, :t2 - 1]):
                for g in range(g1, g2):
                    for t in range(t1, t2):
                        assert decomp.own[(g, t)] < 0
        # at least one heavy design must exercise the negative-weight branch
        n = np.outer([1.0, 1.0, 8.0], [1.0, 1.0, 8.0])
        d = np.zeros((2, 3, 3))
        for g in range(3):
            for t in range(3):
                d[0, g, t] = float(g + 1 >= 2 and t + 1 >= 2)
                d[1, g, t] = float(g + 1 >= 3 and t + 1 >= 3)
        panel = m.PanelDataset(range(1, 4), range(1, 4), np.zeros((3, 3)), n, d)
        decomp = m.decompose(panel, 0)
        assert decomp.own[(2, 2)] < 0


def test_criterion_6_didm_suite():
    with criterion(6, "switcher estimator"):
        start = time.perf_counter()
        rng = np.random.default_rng(1006)
        for _ in range(100):
            panel = make_random_panel(rng, g_max=8, t_max=5, k_max=3)
            assert abs(m.didm(panel, 0).estimate
                       - brute_force_didm(panel, 0)) <= 1e-12

        produced = 0
        while produced < 20:
            spec = m.DgpSpec(
                kind="random-binary",
                n_groups=int(rng.integers(4, 10)),
                n_periods=int(rng.integers(2, 6)),
                n_treatments=int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 2 ** 31)),
                effect_group_sd=1.5, effect_time_sd=1.0,
            )
            synthetic = m.generate(spec)
            result = m.didm(synthetic.panel, 0)
            if result.n_s == 0:
                continue
            produced += 1
            assert abs(result.estimate - m.delta_s_oracle(synthetic, 0)) <= 1e-10

        # Monte Carlo: noise enters the shared baseline only, so the mean
        # over replications must sit on the true switcher-average effect
        base = dict(kind="random-binary", n_groups=8, n_periods=3,
                    n_treatments=2, seed=606, noise_sd=1.0,
                    base_effects=(1.5, -0.5), effect_group_sd=0.8,
                    effect_time_sd=0.4)
        truth = m.delta_s_oracle(m.generate(m.DgpSpec(**base)), 0)
        assert m.find_switchers(m.generate(m.DgpSpec(**base)).panel, 0).n_s > 0
        reps = 2000
        estimates = np.empty(reps)
        for r in range(reps):
            synthetic = m.generate(m.DgpSpec(**base, noise_seed=r + 1))
            estimates[r] = m.didm(synthetic.panel, 0).estimate
        mc_se = estimates.std(ddof=1) / np.sqrt(reps)
        assert abs(estimates.mean() - truth) <= 4 * mc_se, \
            f"mean {estimates.mean():.4f} vs truth {truth:.4f} (se {mc_se:.4f})"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"switcher suite took {elapsed:.2f}s"


def test_criterion_7_dynamic_suite():
    with criterion(7, "cohort event study"):
        synthetic = three_cohort_example()
        st = m.build_cohorts(synthetic.panel, 0, 1)
        est0, _ = m.did_ell(synthetic.panel, st, 0)
        est1, _ = m.did_ell(synthetic.panel, st, 1)
        assert abs(est0 - 8.5) <= 1e-10
        assert abs(est1 - 12.0) <= 1e-10

        rng = np.random.default_rng(1007)
        for _ in range(50):
            spec = random_staggered_spec(rng)
            synthetic = m.generate(spec)
            st = m.build_cohorts(synthetic.panel, 0, 1)
            for ell in range(st.l_nt + 1):
                est, _ = m.did_ell(synthetic.panel, st, ell)
                assert abs(est - m.delta_ell_oracle(synthetic, st, ell)) <= 1e-10
                try:
                    placebo = m.placebo_ell(synthetic.panel, st, ell)
                except m.MultiDidError:
                    continue
                assert abs(placebo) <= 1e-10

        violated = m.generate(m.DgpSpec(
            kind="consecutive-staggered", n_groups=3, n_periods=4, seed=7,
            group_sd=0.0, f1=(2, 2, 2), f2=(3, 5, 4),
            first_level=(1.0, 2.0, 0.0), first_growth=0.5,
            break_common_evolution=3.0,
            second_effects=((10.0, 12.0), (0.0,), (7.0,))))
        st = m.build_cohorts(violated.panel, 0, 1)
        assert abs(m.placebo_ell(violated.panel, st, 0)) > 0.1


def test_criterion_8_constant_effects():
    with criterion(8, "constant effects"):
        spec = m.DgpSpec(kind="random-binary", n_groups=10, n_periods=5,
                         n_treatments=2, seed=1008, base_effects=(2.0, -1.0))
        panel = m.generate(spec).panel
        assert abs(m.twfe_coefficient(panel, 0) - 2.0) <= 1e-8


def test_criterion_9_bootstrap_determinism(abc_staggered):
    with criterion(9, "bootstrap determinism"):
        spec = m.DgpSpec(kind="random-binary", n_groups=12, n_periods=4,
                         n_treatments=2, seed=1009, noise_sd=0.5,
                         base_effects=(1.0, -0.5))
        panel = m.generate(spec).panel
        for estimator, kwargs in (
            ("didm", {"target": 0}),
            ("twfe", {"target": 0}),
        ):
            run = m.bootstrap_se(panel, estimator, 50, 42, keep_replicates=True, **kwargs)
            rerun = m.bootstrap_se(panel, estimator, 50, 42, keep_replicates=True, **kwargs)
            assert run == rerun
        run = m.bootstrap_se(abc_staggered.panel, "did_ell", 50, 42,
                             first=0, second=1, ell=0, keep_replicates=True)
        rerun = m.bootstrap_se(abc_staggered.panel, "did_ell", 50, 42,
                               first=0, second=1, ell=0, keep_replicates=True)
        assert run == rerun


def test_criterion_10_performance():
    with criterion(10, "decomposition speed"):
        rng = np.random.default_rng(1010)
        G, T, K = 1000, 40, 4
        d = (rng.random((K, G, T)) < 0.4).astype(float)
        y = rng.standard_normal((G, T))
        n = rng.integers(1, 10, size=(G, T)).astype(float)
        panel = m.PanelDataset(range(G), range(T), y, n, d)
        start = time.perf_counter()
        decomp = m.decompose(panel, 0)
        elapsed = time.perf_counter() - start
        assert abs(sum(decomp.own.values()) - 1.0) <= 1e-8
        assert elapsed < 5.0, f"decomposition took {elapsed:.2f}s"


def test_criterion_11_external_replication_panel():
    assert DAYCARE_SCRIPT.exists()
    if not os.environ.get("MULTIDID_REPLICATION_PANEL"):
        print("criterion 11 [external replication]: SKIP (panel not supplied)")
        pytest.skip(
            "reference figures need the external state-year daycare panel; "
            "set MULTIDID_REPLICATION_PANEL to its CSV path and run "
            "scripts/daycare_replication.py"
        )
    with criterion(11, "external replication"):
        proc = subprocess.run(
            [sys.executable, str(DAYCARE_SCRIPT), os.environ["MULTIDID_REPLICATION_PANEL"]],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_daycare_script_runs_on_a_generated_panel(tmp_path):
    """The replication script's library calls run on a binary K=4 panel, so API
    drift fails here without the external panel: a generated panel matches
    none of the published figures, so the script prints one line per
    reference figure and exits 1."""
    spec = m.DgpSpec(kind="random-binary", n_groups=30, n_periods=3, n_treatments=4,
                     seed=11, noise_sd=1.0)
    path = tmp_path / "panel.csv"
    m.write_panel_csv(m.generate(spec).panel, path)
    found = importlib.util.spec_from_file_location("daycare_replication", DAYCARE_SCRIPT)
    script = importlib.util.module_from_spec(found)
    found.loader.exec_module(script)
    src = str(Path(m.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(DAYCARE_SCRIPT), str(path)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert [line.split()[0] for line in proc.stdout.splitlines()] == list(script.REFERENCE)


def test_daycare_script_reports_the_non_binary_refusal(tmp_path, capsys):
    """On a panel of the documented shape (d1 in 0..3, d3 in {0, 4, 6, 8},
    d2 = 1{d1 = 0}, d4 = 1{d3 = 0}) decompose refuses d1 as non-binary; the
    script names the error on standard error and exits with its code, 3,
    with no traceback."""
    rng = np.random.default_rng(13)
    d1 = rng.integers(0, 4, size=(12, 3)).astype(float)
    d3 = rng.choice([0.0, 4.0, 6.0, 8.0], size=(12, 3))
    d1[0] = (0.0, 1.0, 3.0)  # the first non-binary value in (group, period) order
    panel = m.PanelDataset(range(12), (1987, 1992, 1997), rng.standard_normal((12, 3)),
                           np.ones((12, 3)), [d1, d1 == 0, d3, d3 == 0])
    path = tmp_path / "daycare.csv"
    m.write_panel_csv(panel, path)
    found = importlib.util.spec_from_file_location("daycare_replication", DAYCARE_SCRIPT)
    script = importlib.util.module_from_spec(found)
    found.loader.exec_module(script)
    assert script.main(["daycare_replication.py", str(path)]) == 3
    assert capsys.readouterr() == (
        "", "error: NonBinaryTreatment: treatment d1 is 3.0 at group=0, period=1997\n")
