"""A/B comparison of two revisions on the benchmark, in alternating fresh processes.

Usage, from the repository root:

    python scripts/ab.py PARENT CHANGE --workload staggered-cohorts --pairs 10 \\
        --seed 1 --out BENCH_27.json
    python scripts/ab.py PARENT CHANGE --pairs 5 --out BENCH.json \\
        --cli "panel.csv didm --target d1"
    python scripts/ab.py PARENT CHANGE --workload staggered-cohorts --pairs 10 \\
        --setup-only --out SETUP.json

Both revisions are exported with ``git archive`` into a scratch directory
(``--workdir``, default a new temporary one), so neither side runs stale
``.pyc`` files. Each pair runs ``bench/run.py --trace 0`` once per side, in
fresh processes started the same way: this interpreter, the export's root as
working directory, ``PYTHONDONTWRITEBYTECODE=1``, BLAS on one thread and no
``PYTHONPATH``. The side that runs first alternates from pair to pair. The
run length is ``run_seconds`` of the parent's ``BENCHMARK.json``. Each side
has a parsed-panel cache of its own (``XDG_CACHE_HOME`` in the scratch
directory), kept from run to run as a user's would be, so no run reads or
fills the user's cache.

For every workload and every end-to-end metric of ``BENCHMARK.json`` (plus
``wall_s``, read from the report lines), the output holds each side's runs,
its median and quartiles, and the number of pairs in which the change is
better; a tie counts for neither side. Operations attempted and failed are
summed per side.

With ``--setup-only``, each pair runs ``bench/run.py --setup-only`` instead,
once per side in the same alternating fresh processes and environment: the
set-up alone (imports, generating and writing the inputs, one warm-up
operation), with no timed pass. Each workload's ``setup_s`` is summarized as
above. One such process is one sample, where a full run reports the median
of three.

Each ``--cli "FILE CMD..."`` probe runs ``python -m multidid.cli CMD --input
FILE --out <scratch file>`` on each side's exported ``src`` in fresh
processes, alternating sides as above: per pair, once cold (an empty cache
directory) and once warm (the side's probe cache, filled by one untimed run
first). It records the wall time from start to exit and the child's
``ru_maxrss``, summarized as the workloads are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def export(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def environment(cache: Path, **extra) -> dict:
    """The environment of every child: no ``PYTHONPATH`` but ``extra``'s, BLAS
    on one thread, no bytecode written, ``cache`` as ``XDG_CACHE_HOME``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREADS, PYTHONDONTWRITEBYTECODE="1", XDG_CACHE_HOME=str(cache), **extra)
    return env


def bench(tree: Path, cache: Path, workload: str, seed: int, *extra: str) -> tuple[dict, str]:
    """One fresh ``bench/run.py`` process of ``tree``: its last line, parsed,
    and its whole standard output."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), *extra],
        cwd=tree, env=environment(cache), check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1]), out


def run_once(tree: Path, workload: str, seed: int, seconds: float, cache: Path) -> dict:
    """One fresh ``bench/run.py`` process: its metric values, wall_s and counts."""
    report, out = bench(tree, cache, workload, seed, "--seconds", str(seconds), "--trace", "0")
    values = {name: m["value"] for name, m in report["metrics"].items()}
    wall = re.search(r"^\s+wall_s\s+([0-9.eE+-]+) s$", out, re.MULTILINE)
    if wall:
        values["wall_s"] = float(wall.group(1))
    return {"values": values, "attempted": report["attempted"], "failed": report["failed"],
            "correct": report["correct"]}


def probe_once(tree: Path, argv: list[str], cache: Path, work: Path) -> dict:
    """One fresh command-line process of ``tree``'s package: its wall time from
    start to exit and its own peak RSS (``ru_maxrss`` from ``wait4``)."""
    env = environment(cache, PYTHONPATH=str(tree / "src"))
    with open(work / "probe.err", "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "multidid.cli", *argv], cwd=tree,
                                 env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise RuntimeError(f"{argv} exited {child.returncode}: "
                           f"{(work / 'probe.err').read_text(errors='replace')}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def probe(trees: dict, spec: str, pairs: int, work: Path) -> dict:
    """Cold and warm runs of the ``--cli`` probe ``spec``, "FILE CMD...", on
    both sides, alternating which side runs first."""
    file, *command = shlex.split(spec)
    file = str(Path(file).resolve())
    argv = [*command, "--input", file, "--out", str(work / "probe.out")]
    warm = {side: work / f"probe-cache-{side}" for side in trees}
    for side in trees:  # untimed: fill each side's warm cache
        probe_once(trees[side], argv, warm[side], work)
    runs = {(state, side): [] for state in ("cold", "warm") for side in trees}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            cold = Path(tempfile.mkdtemp(prefix=f"cold-{side}-", dir=work))
            runs["cold", side].append(probe_once(trees[side], argv, cold, work))
            runs["warm", side].append(probe_once(trees[side], argv, warm[side], work))
        print(f"probe {spec!r} pair {pair + 1}: " + ", ".join(
            f"{side} {state} {runs[state, side][-1]['wall_s']:.3f} s"
            for state in ("cold", "warm") for side in ("parent", "change")), file=sys.stderr)
    return {"command": ["python", "-m", "multidid.cli", *command, "--input", file, "--out",
                        "<scratch file>"],
            "file_bytes": os.path.getsize(file),
            **{state: {metric: summarize([r[metric] for r in runs[state, "parent"]],
                                         [r[metric] for r in runs[state, "change"]], "lower")
                       for metric in ("wall_s", "peak_rss_mb")}
               for state in ("cold", "warm")}}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return {"parent_median": statistics.median(parent), "parent_quartiles": [q1, q3],
            "change_median": statistics.median(change), "change_better_pairs": wins,
            "pairs": len(parent), "parent": parent, "change": change}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="revision of the parent, e.g. a commit")
    p.add_argument("change", help="revision of the change")
    p.add_argument("--workload", action="append", default=[],
                   help="a workload of bench/run.py; repeat for several")
    p.add_argument("--cli", action="append", default=[], metavar="'FILE CMD...'",
                   help="a fresh-process command-line probe, cold and warm, on FILE; "
                        "repeat for several")
    p.add_argument("--setup-only", action="store_true",
                   help="time each workload's set-up alone (bench/run.py --setup-only)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workdir", default=None, help="scratch directory for the exports")
    p.add_argument("--out", required=True, help="the JSON file to write")
    args = p.parse_args(argv)
    if not args.workload and not args.cli:
        p.error("give a --workload or a --cli probe")
    if args.setup_only and not args.workload:
        p.error("--setup-only times workloads; give a --workload")

    work = Path(args.workdir or tempfile.mkdtemp(prefix="multidid-ab-"))
    trees = {"parent": work / "parent", "change": work / "change"}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        export(rev, trees[side])
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]} | {"wall_s": "lower"}

    result = {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                cache = work / f"cache-{side}"
                runs[side].append(
                    bench(trees[side], cache, workload, args.seed, "--setup-only")[0]["setup_s"]
                    if args.setup_only else
                    run_once(trees[side], workload, args.seed, spec["run_seconds"], cache))
            print(f"{workload} pair {pair + 1}: " + ", ".join(
                f"{side} setup_s {runs[side][-1]:.4f}" if args.setup_only else
                f"{side} wall_rel {runs[side][-1]['values'].get('wall_rel'):.4f}"
                for side in ("parent", "change")), file=sys.stderr)
        if args.setup_only:
            result[workload] = {"setup_s": summarize(runs["parent"], runs["change"],
                                                     better["setup_s"])}
            continue
        result[workload] = {
            name: summarize([r["values"][name] for r in runs["parent"]],
                            [r["values"][name] for r in runs["change"]], better[name])
            for name in better if name in runs["parent"][0]["values"]}
        result[workload]["operations"] = {
            side: {"attempted": sum(r["attempted"] for r in runs[side]),
                   "failed": sum(r["failed"] for r in runs[side]),
                   "all_correct": all(r["correct"] for r in runs[side])}
            for side in runs}

    probes = {cli: probe(trees, cli, args.pairs, work) for cli in args.cli}

    import numpy  # the interpreter's, which both sides run on
    import scipy
    report = {
        "command": (f"python3 bench/run.py --workload <w> --seed {args.seed} --setup-only"
                    if args.setup_only else
                    f"python3 bench/run.py --workload <w> --seed {args.seed} "
                    f"--seconds {spec['run_seconds']} --trace 0"),
        "revisions": {"parent": args.parent, "change": args.change},
        "method": "fresh git-archive exports, alternating fresh processes, "
                  "PYTHONDONTWRITEBYTECODE=1, BLAS on one thread, a parsed-panel "
                  "cache per side in the scratch directory",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "ab": result,
    }
    if probes:
        report["cli"] = probes
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
