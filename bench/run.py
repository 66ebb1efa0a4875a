"""End-to-end and per-layer benchmark of the ``multidid`` package.

Usage, from the repository root:

    python3 bench/run.py --workload static-county --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, one after another
    python3 bench/run.py --smoke               # toy sizes, two seeds, both modes

One run sets up its workload (import, generate and write the inputs, one
warm-up operation), then repeats timed passes of the workload as a closed
loop (the next operation starts when the previous one has finished) for
``--seconds`` seconds, checking every output against an exact reference.
Every operation starts from a collected heap. With ``--trace 0`` it
reports the end-to-end metrics; set-up is repeated in fresh processes and
the median reported, and a fixed reference computation is timed after every
operation so that pass times can be given relative to the host's speed at
that moment (``wall_rel``). With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead; the spans are written to
``.bench_work/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``. The lines before it are a readable
report, including the environment and the workload-specific times.
"""

import time

_T0 = time.perf_counter()  # the set-up clock starts before any other import

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("static-county", "static-switchers", "staggered-cohorts",
                  "montecarlo-states")
SETUP_SAMPLES = 3
SMOKE_SEEDS = (1, 2)
CHILD_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy sizes are for the smoke mode")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at toy size on two seeds, in both "
                        "modes, and check that every metric is emitted")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_info(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def environment(args, parallelism: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": nproc(), "bootstrap_parallelism": parallelism,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas_info(numpy), "scipy_blas": blas_info(scipy),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def child_argv(args, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", args.size, *extra]


def last_json_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def setup_samples(args, n: int) -> list[float]:
    """Set-up times of ``n`` fresh processes, run one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(child_argv(args, "--workload", args.workload, "--setup-only"),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        result = last_json_line(proc.stdout)
        if proc.returncode == 0 and result:
            out.append(result["setup_s"])
        else:
            print(f"set-up sample failed: {proc.stderr.strip()[-500:]}", file=sys.stderr)
    return out


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op, out, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            try:
                fails = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            fails = [error]
        if fails:
            self.failed += 1
            self.messages.extend(f"{op.kind}: {m}" for m in fails)


def execute(op):
    """Run one operation; return (output, error message, seconds)."""
    t0 = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # counted as a failed operation, never fatal
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - t0


class Reference:
    """A fixed computation, independent of ``multidid`` and of the workload,
    timed next to every operation. On a shared machine, processor speed
    drifts by tens of percent over seconds to minutes; dividing each
    operation's time by the reference time around it cancels most of that
    drift. The reference is many small numpy calls from a Python loop, the
    cost profile that dominates the program; of the mixes tried, it tracked
    every workload's drift most closely."""

    def __init__(self):
        import numpy as np
        self.np = np
        self()  # warm

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(key=1))
        total = 0.0
        for _ in range(3000):
            total += float(np.sum(rng.random(4) * 2.0))
        return time.perf_counter() - t0


def metric_block(names: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def measure(args, spec: dict) -> int:
    from workloads import WORKLOADS

    parallelism = nproc()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, str(workdir), parallelism)
        tally = Tally()
        wl.prepare()
        warm = wl.ops(0)[0]
        warm_out, warm_err, _ = execute(warm)
        own_setup = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup]
        if not args.trace:
            setups += setup_samples(args, SETUP_SAMPLES - 1)
        wl.truth()
        tally.record(warm, warm_out, warm_err)
        env = environment(args, parallelism)
        return _loop(args, spec, wl, tally, setups, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _loop(args, spec, wl, tally, setups, env) -> int:
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer
        tracer = Tracer()
    min_reps = wl.size.get("min_reps", 1) if not args.trace else 1
    walls = {False: [], True: []}     # pass times by traced
    reference = None if args.trace else Reference()
    refs = [reference()] if reference else []  # one before the first operation, one after each
    rels = []                         # untraced pass times relative to the reference
    kinds: list[dict[str, float]] = []
    layer_passes = []
    rep = 1
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and rep % 2 == 0
        ops = wl.ops(rep)
        if traced:
            first = len(tracer.spans)
            layers.install(tracer)
        wall, by_kind, report_bytes = 0.0, dict.fromkeys(wl.pass_kinds, 0.0), 0
        rel = 0.0
        try:
            for op in ops:
                if traced:
                    tracer.op = tally.attempted  # operation id: its index in the run
                # each operation starts from a collected heap, as a fresh CLI
                # process would, so the collector's work does not drift from
                # one operation into another
                gc.collect()
                out, error, dt = execute(op)
                wall += dt
                if reference:
                    # the operation over the mean reference time around it
                    refs.append(reference())
                    rel += dt / ((refs[-2] + refs[-1]) / 2)
                by_kind[op.kind] = by_kind.get(op.kind, 0.0) + dt
                if op.report and os.path.exists(op.report):
                    report_bytes += os.path.getsize(op.report)
                tally.record(op, out, error)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        if reference:
            rels.append(rel)
        if traced:
            layer_passes.append(layers.pass_metrics(tracer, first, len(tracer.spans),
                                                    wall, report_bytes))
        else:
            kinds.append(by_kind)
        rep += 1
        done = time.perf_counter() - start >= args.seconds
        if done and len(walls[False]) >= min_reps and (not args.trace or layer_passes):
            break

    print(f"# multidid benchmark: {json.dumps(env)}")
    for msg in tally.messages[:20]:
        print(f"# FAILED {msg}")
    if args.trace:
        values = layers.summarize_passes(layer_passes, walls[True], walls[False])
        values["trace.untraced_wall_s"] = statistics.median(walls[False])
        values["trace.traced_wall_s"] = statistics.median(walls[True])
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json", env)
        names = spec["per_layer"]
        print(f"# traced passes: {len(walls[True])}, untraced passes: {len(walls[False])}")
        self_sum = sum(values[m] for m in layers.SELF_TIME)
        accounted = (self_sum - values["trace.overlap_s"] + values["trace.unspanned_s"]
                     - values["trace.overhead_s"])
        print(f"# accounting: self times {self_sum:.4f} s - overlap + unspanned - overhead "
              f"= {accounted:.4f} s; untraced wall_s {values['trace.untraced_wall_s']:.4f} s")
    else:
        untraced = walls[False]
        values = {
            "setup_s": statistics.median(setups),
            "wall_rel": statistics.median(rels),
            "wall_s": statistics.median(untraced),
            "ref_ms": 1000 * statistics.median(refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "error_rate": tally.failed / tally.attempted,
        }
        for kind in wl.pass_kinds:
            values[f"{kind}_s"] = statistics.median(k[kind] for k in kinds)
        if "min_reps" in wl.size:
            values["rep_p50_ms"] = 1000 * statistics.median(untraced)
            values["rep_p90_ms"] = 1000 * statistics.quantiles(untraced, n=10)[-1]
        names = spec["end_to_end"]
        print(f"# passes: {len(untraced)}, set-up samples: {len(setups)}")
        print(f"# pass times (s): {' '.join(f'{w:.4f}' for w in untraced)}")
        print(f"# reference times (ms): {' '.join(f'{1000 * r:.2f}' for r in refs)}")
        print(f"# set-up times (s): {' '.join(f'{s:.3f}' for s in setups)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        unit = units.get(name) or ("ms" if name.endswith("_ms") else
                                   "s" if name.endswith("_s") else "ratio")
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(f"  {'operations':34s} {tally.attempted:14d} attempted, {tally.failed} failed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metric_block(names, values),
    }))
    return 0


def run_workloads(args, trace: int, seed: int, echo: bool = True) -> dict[str, dict | None]:
    """Run every workload in its own process; return each final JSON line."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = child_argv(args, "--workload", name, "--trace", str(trace))
        argv[argv.index("--seed") + 1] = str(seed)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S + 30)
        print(f"== {name} (seed {seed}, trace {trace}, exit {proc.returncode})")
        if echo:
            print(proc.stdout.rstrip())
        results[name] = last_json_line(proc.stdout) if proc.returncode == 0 else None
    return results


def run_all(args) -> int:
    results = run_workloads(args, args.trace, args.seed)
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{w}/{k}": v for w, r in results.items() if r
                    for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def run_smoke(args, spec: dict) -> int:
    args.size, args.seconds = "toy", 1.0
    problems = []
    for seed in SMOKE_SEEDS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"] for m in spec[key]}
            for name, result in run_workloads(args, trace, seed, echo=False).items():
                where = f"{name} seed {seed} trace {trace}"
                if result is None:
                    problems.append(f"{where}: no result")
                    continue
                if set(result["metrics"]) != expected:
                    problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(result['metrics']) ^ expected)}")
                if result["failed"] or not result["correct"]:
                    problems.append(f"{where}: error_rate "
                                    f"{result['failed']}/{result['attempted']}")
    for p in problems:
        print(f"smoke: {p}")
    print(json.dumps({"smoke": "failed" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported, here or in a child
        os.environ[var] = "1"
    if not (SRC / "multidid" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {SRC / 'multidid'} or {SPEC} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.smoke:
        return run_smoke(args, spec)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import multidid
    if not Path(multidid.__file__).resolve().is_relative_to(SRC):
        print(f"error: multidid imported from {multidid.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
