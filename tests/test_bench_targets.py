"""The traced benchmark wraps ``multidid`` functions by module attribute; a
rename or deletion must fail here rather than crash ``bench/run.py --trace 1``."""

import importlib
from pathlib import Path

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
