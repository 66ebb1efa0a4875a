"""Which commands load scipy, each seen from a fresh interpreter.

Only the TWFE first stage calls LAPACK, through scipy's compiled module
``scipy.linalg._flapack``, which it loads from its file at its first fit
after importing the top-level ``scipy`` package; no command loads the
``scipy.linalg`` package. ``import multidid`` and the commands that never fit
a fixed effect leave every ``scipy`` module unloaded, which a test in this
process cannot see, as the test modules import scipy.
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

# a K=2 fit, so that the QR and the triangular solve run too, before or after
# ``import scipy.linalg`` (argv[1]); prints what scipy.linalg then binds
BOTH_ORDERS = """
import json, sys
import multidid as m

def fit():
    spec = m.DgpSpec(kind="random-binary", n_groups=6, n_periods=4, n_treatments=2)
    m.decompose(m.generate(spec).panel, 0)

if sys.argv[1] == "fit first":
    fit()
import scipy.linalg
if sys.argv[1] == "import first":
    fit()
used = sys.modules["multidid.decomposition"]._flapack()  # cached at the fit
print(json.dumps([scipy.linalg._flapack.__name__, scipy.linalg.lapack.dpotrf is used.dpotrf,
                  scipy.linalg.lapack.dtrtrs is used.dtrtrs,
                  scipy.linalg.lapack.dgeqp3 is used.dgeqp3, used.__file__]))
"""

SPEC = {"kind": "consecutive-staggered", "n_groups": 12, "n_periods": 6, "seed": 3}


def _fresh(tmp_path, script, *argv):
    """``script``'s JSON output, run with ``argv`` in one fresh interpreter in
    ``tmp_path``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _scipy_after(tmp_path, *commands):
    """``[exit code, scipy modules]`` after ``import multidid`` and after each
    command, all run in one fresh interpreter in ``tmp_path``."""
    return _fresh(tmp_path, SCRIPT, json.dumps(commands))


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
    # the top-level package alone: the compiled module leaves no sys.modules entry
    top_level = _fresh(tmp_path, "import json, sys, scipy; print(json.dumps(sorted("
                                 "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert seen[-1] == [0, top_level]

    (code, before), (code_twfe, after) = _scipy_after(
        tmp_path, ["bootstrap", *panel, "--estimator", "twfe", "--target", "d1", "-B", "5"])
    assert (code, before, code_twfe, after) == (0, [], 0, top_level)


def test_scipy_linalg_binds_the_routines_the_fit_used_in_either_order(tmp_path):
    for order in ("fit first", "import first"):
        name, *same, file = _fresh(tmp_path, BOTH_ORDERS, order)
        assert name == "scipy.linalg._flapack" and same == [True, True, True], order
        assert Path(file).parent.name == "linalg" and Path(file).name.startswith("_flapack.")
