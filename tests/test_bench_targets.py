"""The benchmark drives ``multidid`` through ``bench/``: the traced run wraps
functions by module attribute, and every operation's output is checked
against exact references. A rename, a deletion or a changed report field must
fail here rather than in ``bench/run.py``."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    for module, attr, _, _ in layers.TARGETS:
        owner = layers.MODULES[module]
        for part in attr.split("."):
            assert hasattr(owner, part), f"multidid.{module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"multidid.{module}.{attr}"


@pytest.mark.parametrize("seed", [1, 2])
def test_every_workload_passes_its_checks_at_toy_size(monkeypatch, tmp_path, seed):
    """One toy-size pass of each workload: inputs, references, then every
    operation and its check, as one benchmark pass runs them."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    fails = []
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        wl = workload(seed, "toy", str(workdir), 1)
        wl.prepare()
        wl.truth()
        fails += [f"{name}: {msg}" for op in wl.ops(1) for msg in op.check(op.run())]
    assert not fails
