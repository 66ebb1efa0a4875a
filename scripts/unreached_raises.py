"""List the ``raise`` and warning statements of ``src/multidid`` that no tier-1
test executes.

Runs the tier-1 suite in this process under ``sys.settrace`` and prints
``file:line`` for each statement of the package that never ran among its
``raise`` statements and its warnings: ``warnings.warn(...)`` calls and
writes to ``sys.stderr`` (``print(..., file=sys.stderr)`` and
``sys.stderr.write(...)``). It exits 1 if any is left or a test fails, else 0.

The trace sees this process only. Code that a test reaches by starting a
subprocess (the command line run with ``subprocess``) is invisible to it, so
a statement reached only that way is listed as unreached.

Usage, from anywhere:

    python scripts/unreached_raises.py [pytest arguments]

Without arguments it runs ``tests`` with ``-q --continue-on-collection-errors``,
as tier-1 does; arguments given replace those. It needs only the standard
library and pytest, and takes about twice as long as plain tier-1.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multidid"


def _warns(node: ast.AST) -> bool:
    """Whether ``node`` is a call that warns: ``warnings.warn``,
    ``sys.stderr.write`` or a ``print`` to ``sys.stderr``."""
    if not isinstance(node, ast.Call):
        return False
    func = ast.unparse(node.func)
    return func in ("warnings.warn", "sys.stderr.write") or func == "print" and any(
        k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords)


def raise_lines(path: Path) -> set[int]:
    """The first line of each ``raise`` statement and each warning call in
    ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise) or _warns(node)}


def run_traced(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code for ``args`` and the lines of the package run meanwhile."""
    ran = {path: set() for path in PACKAGE.glob("*.py")}
    by_name: dict[str, set[int] | None] = {}  # code file name -> its set in ``ran``

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(Path(name).resolve())
        if (seen := by_name[name]) is None:
            return None  # no line events outside the package

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        return line

    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    code, ran = run_traced(argv or ["-q", "--continue-on-collection-errors", "tests"])
    unreached = [f"{path.relative_to(ROOT)}:{lineno}"
                 for path in sorted(ran) for lineno in sorted(raise_lines(path) - ran[path])]
    for where in unreached:
        print(where)
    print(f"{len(unreached)} raise or warning statement(s) never executed", file=sys.stderr)
    return 1 if unreached or code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
