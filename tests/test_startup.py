"""Which commands load scipy, each seen from a fresh interpreter.

Only the TWFE first stage calls LAPACK through ``scipy.linalg``, and it
imports scipy at its first fit. ``import multidid`` and the commands that
never fit a fixed effect leave every ``scipy`` module unloaded, which a
test in this process cannot see, as the test modules import scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# runs ``multidid.cli.main`` on each argv of argv[1], in order, and prints
# the scipy modules loaded after the imports and after each command
SCRIPT = """
import contextlib, io, json, sys

def scipy():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import multidid
seen = [[0, scipy()]]
import multidid.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen.append([multidid.cli.main(argv), scipy()])
print(json.dumps(seen))
"""

SPEC = {"kind": "consecutive-staggered", "n_groups": 12, "n_periods": 6, "seed": 3}


def _scipy_after(tmp_path, *commands):
    """``[exit code, scipy modules]`` after ``import multidid`` and after each
    command, all run in one fresh interpreter in ``tmp_path``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_scipy_loads_at_the_first_fixed_effect_fit_only(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    panel = ["--input", "panel.csv"]
    free = [["simulate", "--spec", "spec.json", "--out", "panel.csv"],
            ["didm", *panel, "--target", "d2"],
            *(["dynamic", *panel, "--first", "d1", "--second", "d2", "--strategy", s]
              for s in ("second", "first", "combined", "linear", "split")),
            ["bootstrap", *panel, "--estimator", "didm", "--target", "d2", "-B", "5"],
            ["bootstrap", *panel, "--estimator", "did_ell", "-B", "5"]]
    seen = _scipy_after(tmp_path, *free, ["decompose", *panel, "--target", "d1"])
    assert seen[:-1] == [[0, []]] * (len(free) + 1)
    assert seen[-1][0] == 0 and "scipy.linalg" in seen[-1][1]

    (code, before), (code_twfe, after) = _scipy_after(
        tmp_path, ["bootstrap", *panel, "--estimator", "twfe", "--target", "d1", "-B", "5"])
    assert (code, before, code_twfe) == (0, [], 0) and "scipy.linalg" in after
