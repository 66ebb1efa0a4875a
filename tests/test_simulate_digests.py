"""Bit-for-bit guard on synthetic ground truth.

For a sweep of specs over all three kinds, every cell-size rule, noise on and
off and many seeds (some of them of 2**32 and more), this records SHA-256
digests of what `generate` returns (y, n, d and the stored truths), of every
truth oracle, and of the CSV bytes `multidid simulate` writes. The digests in
``data/simulate_digests.json`` were taken before the keyed streams were
vectorized; any change to a draw, an oracle or the CSV writer fails here.

Rewrite the fixture only when a change of the panels is intended:
``PYTHONPATH=src python -m tests.test_simulate_digests --write``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import multidid as m
from multidid.cli import main

FIXTURE = Path(__file__).parent / "data" / "simulate_digests.json"

SEEDS = (0, 1, 7, 4242, 2 ** 31 + 11, 2 ** 32, 2 ** 40 + 3, 2 ** 64 + 5)


def _cases() -> dict[str, m.DgpSpec]:
    cases = {}
    for i, seed in enumerate(SEEDS):
        for rule in ("unit", "random", "product"):
            for noise in (0.0, 0.7):
                G, T = 5 + (i + len(rule)) % 6, 4 + i % 5
                common = dict(n_groups=G, n_periods=T, seed=seed, noise_sd=noise,
                              cell_sizes=rule, time_sd=0.5 * (i % 2),
                              time_curvature=0.1 * (i % 3))
                if noise and i % 3 == 0:
                    common["noise_seed"] = seed + 1
                K = 1 + i % 3
                cases[f"random-binary-{seed}-{rule}-{noise}"] = m.DgpSpec(
                    kind="random-binary", n_treatments=K, treat_prob=0.3 + 0.05 * i,
                    base_effects=tuple(1.0 - 0.5 * k for k in range(K)),
                    effect_group_sd=1.0, effect_time_sd=0.5 * (i % 2),
                    interactions=((0, 1, 0.25),) if K > 1 else (), **common)
                cases[f"standard-did-{seed}-{rule}-{noise}"] = m.DgpSpec(
                    kind="standard-did", n_treatments=2,
                    thresholds=(2, 2, G - 1 - i % 2, T), base_effects=(1.0, -2.0),
                    effect_group_sd=0.5 * (i % 2), effect_time_sd=0.3, **common)
                cases[f"consecutive-staggered-{seed}-{rule}-{noise}"] = m.DgpSpec(
                    kind="consecutive-staggered", first_level_sd=1.0,
                    first_growth=0.3, first_path_sd=0.4 * (i % 2),
                    break_common_evolution=0.2 * (i % 3 == 1),
                    second_base=2.0, second_growth=0.5, second_sd=1.0, **common)
    return cases


CASES = _cases()


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _attempt(fn, *args):
    """The value of ``fn(*args)``, or the class name of the error it raises."""
    try:
        return fn(*args)
    except m.MultiDidError as exc:
        return type(exc).__name__


def _oracles(syn: m.SyntheticPanel) -> list:
    panel = syn.panel
    values = [_attempt(m.delta_s_oracle, syn, k) for k in range(panel.n_treatments)]
    if syn.po is not None:
        for k in range(panel.n_treatments):
            values += [syn.target_effect_grid(k), syn.others_effect_grid(k),
                       _attempt(lambda: m.decomposition_rhs(syn, m.decompose(panel, k)))]
    else:
        structure = _attempt(m.build_cohorts, panel, 0, 1)
        values.append(structure if isinstance(structure, str) else structure.l_nt)
        if not isinstance(structure, str):
            values += [_attempt(m.delta_ell_oracle, syn, structure, ell)
                       for ell in range(structure.l_nt + 1)]
    return values


def _simulate_csv(spec: m.DgpSpec) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, csv_path = Path(tmp, "spec.json"), Path(tmp, "panel.csv")
        spec_path.write_text(spec.to_json(), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--spec", str(spec_path), "--out", str(csv_path)]) == 0
        return csv_path.read_bytes()


def digests(spec: m.DgpSpec) -> dict[str, str]:
    syn = m.generate(spec)
    truths = [syn.po, syn.f1, syn.f2, syn.baseline, syn.first_effect, syn.second_effect]
    return {
        "y": _sha(syn.panel.y),
        "n": _sha(syn.panel.n),
        "d": _sha(syn.panel.d),
        "truth": _sha(*(t if t is not None else "none" for t in truths)),
        "oracles": _sha(*_oracles(syn)),
        "csv": hashlib.sha256(_simulate_csv(spec)).hexdigest(),
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_generate_oracles_and_csv_are_bit_identical(case, recorded):
    assert digests(CASES[case]) == recorded[case]


def test_sweep_covers_the_spec_space():
    specs = list(CASES.values())
    assert {s.kind for s in specs} == set(m.simulate.KINDS)
    assert {s.cell_sizes for s in specs} == {"unit", "random", "product"}
    assert {s.noise_sd > 0 for s in specs} == {False, True}
    assert any(s.noise_seed is not None for s in specs)
    assert any(s.seed >= 2 ** 32 for s in specs) and any(s.seed >= 2 ** 64 for s in specs)
    assert {s.n_treatments for s in specs if s.kind == "random-binary"} == {1, 2, 3}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_simulate_digests --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {case: digests(spec) for case, spec in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {FIXTURE}")
