"""The benchmark's four workloads: inputs, one timed pass, reference checks.

Every panel is noiseless with heterogeneous effects and random cell sizes
(1 to 4), so each estimator has an exact value read off the stored ground
truth. Three workloads drive the command-line program from a generated CSV
to a JSON report written to disk; the fourth is an in-process Monte Carlo
loop. The program sees only the generated files and specs: the workload
seed enters through the specs' ``seed`` field alone.

A workload exposes ``prepare`` (generate and write the inputs), ``truth``
(exact reference values, computed once outside the timed set-up) and
``ops`` (the operations of one pass, each a timed ``run`` plus an untimed
``check`` returning failure messages).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# calls go through module attributes so that the traced run's wrappers take
# effect; import_module because the package rebinds ``multidid.didm`` to the
# function of that name
cli = importlib.import_module("multidid.cli")
decomposition = importlib.import_module("multidid.decomposition")
didm_mod = importlib.import_module("multidid.didm")
simulate = importlib.import_module("multidid.simulate")
staggered = importlib.import_module("multidid.staggered")
panel_mod = importlib.import_module("multidid.panel")

EXACT = 1e-10      # estimator versus oracle
IDENTITY = 1e-8    # weight sums and the decomposition identity
SAME = 1e-12       # two routes to one number (relative)


@dataclass
class Op:
    kind: str                      # which per-pass time it adds to
    run: Callable[[], object]      # the timed work
    check: Callable[[object], list[str]]  # untimed; failure messages
    report: str | None = None      # path of the JSON report it writes


def static_spec(n_groups: int, n_periods: int, seed: int) -> "simulate.DgpSpec":
    return simulate.DgpSpec(
        kind="random-binary", n_groups=n_groups, n_periods=n_periods,
        n_treatments=3, seed=seed, cell_sizes="random", treat_prob=0.3,
        time_sd=0.5, base_effects=(1.0, 2.0, -1.0),
        effect_group_sd=1.0, effect_time_sd=0.5,
    )


def staggered_spec(n_groups: int, n_periods: int, seed: int) -> "simulate.DgpSpec":
    # a common first-effect path (no path noise, no violation) keeps every
    # placebo exactly zero; levels and second-treatment effects vary by group
    return simulate.DgpSpec(
        kind="consecutive-staggered", n_groups=n_groups, n_periods=n_periods,
        seed=seed, cell_sizes="random", time_sd=0.5,
        first_level_sd=1.0, first_growth=0.3,
        second_base=2.0, second_growth=0.5, second_sd=1.0,
    )


def run_cli(argv: list[str]) -> int:
    """One in-process command-line call; warnings on standard error are
    captured and dropped, as a caller piping them away would."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= SAME * max(1.0, abs(a), abs(b))


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One workload at one seed and size; ``parallelism`` is the bootstrap
    worker count."""

    name = ""
    sizes: dict[str, dict] = {}
    pass_kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, size: str, workdir: str, parallelism: int):
        self.seed = seed
        self.size = self.sizes[size]
        self.workdir = workdir
        self.parallelism = parallelism
        self.synthetic = None
        # results of earlier operations of the current pass, for checks that
        # compare two commands
        self.seen: dict[str, float] = {}

    def prepare(self) -> None:
        pass

    def truth(self) -> None:
        pass

    def ops(self, rep: int) -> list[Op]:
        raise NotImplementedError


class FileWorkload(Workload):
    """A generated CSV and a list of command lines per pass."""

    def __init__(self, seed: int, size: str, workdir: str, parallelism: int):
        super().__init__(seed, size, workdir, parallelism)
        self.csv = os.path.join(workdir, "panel.csv")

    def spec(self):
        raise NotImplementedError

    def prepare(self) -> None:
        self.synthetic = simulate.generate(self.spec())
        panel_mod.write_panel_csv(self.synthetic.panel, self.csv)

    def commands(self) -> list[tuple[str, list[str], Callable[[dict], list[str]]]]:
        """(kind, argv without --out, report check) for one pass."""
        raise NotImplementedError

    def ops(self, rep: int) -> list[Op]:
        out = []
        for i, (kind, argv, check) in enumerate(self.commands()):
            path = os.path.join(self.workdir, f"report{i}.json")
            out.append(Op(kind, functools.partial(run_cli, argv + ["--out", path]),
                          _report_check(path, check), report=path))
        return out


def _report_check(path: str, check):
    def run(rc) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        return check(_load(path))
    return run


class StaticCounty(FileWorkload):
    name = "static-county"
    sizes = {"full": {"G": 1000, "T": 30, "B": 5}, "toy": {"G": 60, "T": 8, "B": 3}}
    pass_kinds = ("decompose", "bootstrap")

    def spec(self):
        return static_spec(self.size["G"], self.size["T"], self.seed)

    def truth(self) -> None:
        syn = self.synthetic
        d = syn.panel.d
        K = d.shape[0]
        mask = sum((d[j] > 0.5).astype(int) << j for j in range(K))

        def at(m):
            return np.take_along_axis(syn.po, m[:, :, None], axis=2)[:, :, 0]

        # effect grids of SyntheticPanel.target_effect_grid and
        # others_effect_grid, read straight off the potential outcomes
        self.effects = {}
        for k in range(K):
            on, off = mask | (1 << k), mask & ~(1 << k)
            self.effects[k] = (at(on) - at(off), at(off) - syn.po[:, :, 0])

    def _check_decompose(self, k: int):
        panel = self.synthetic.panel

        def check(rep: dict) -> list[str]:
            fails = []
            own_eff, oth_eff = self.effects[k]
            own = rep["own"]
            cont = rep["contamination"]
            own_w = np.array([c["weight"] for c in own])
            own_g = [panel.group_index(c["g"]) for c in own]
            own_t = [panel.period_index(c["t"]) for c in own]
            con_w = np.array([c["weight"] for c in cont])
            con_g = [panel.group_index(c["g"]) for c in cont]
            con_t = [panel.period_index(c["t"]) for c in cont]
            total = math.fsum(own_w)
            if not _close(total, 1.0, IDENTITY):
                fails.append(f"d{k + 1}: own weights sum to {total!r}")
            for j in range(panel.n_treatments):
                if j == k:
                    continue
                s = math.fsum(con_w[panel.d[j][con_g, con_t] > 0.5])
                if not _close(s, 0.0, IDENTITY):
                    fails.append(f"d{k + 1}: contamination on d{j + 1} sums to {s!r}")
            rhs = math.fsum(own_w * own_eff[own_g, own_t]) \
                + math.fsum(con_w * oth_eff[con_g, con_t])
            if not _close(rep["beta_fe"], rhs, IDENTITY):
                fails.append(f"d{k + 1}: beta_fe {rep['beta_fe']!r} != rhs {rhs!r}")
            self.seen[f"beta_d{k + 1}"] = rep["beta_fe"]
            return fails
        return check

    def _check_bootstrap(self, rep: dict) -> list[str]:
        ref = self.seen.pop("beta_d1", None)
        if ref is None or not _same(rep["estimate"], ref):
            return [f"bootstrap estimate {rep['estimate']!r} != beta_fe {ref!r}"]
        return []

    def commands(self):
        cmds = [("decompose", ["decompose", "--input", self.csv, "--target", f"d{k + 1}"],
                 self._check_decompose(k)) for k in range(3)]
        cmds.append(("bootstrap", ["bootstrap", "--input", self.csv, "--estimator", "twfe",
                                   "--target", "d1", "-B", str(self.size["B"]),
                                   "--parallelism", str(self.parallelism)],
                     self._check_bootstrap))
        return cmds


class StaticSwitchers(FileWorkload):
    name = "static-switchers"
    sizes = {"full": {"G": 250, "T": 20, "B": 4}, "toy": {"G": 40, "T": 8, "B": 3}}
    pass_kinds = ("didm", "bootstrap")

    def spec(self):
        return static_spec(self.size["G"], self.size["T"], self.seed)

    def truth(self) -> None:
        self.oracle = {k: didm_mod.delta_s_oracle(self.synthetic, k) for k in range(3)}

    def _check_didm(self, k: int):
        def check(rep: dict) -> list[str]:
            self.seen[f"didm_d{k + 1}"] = rep["estimate"]
            if not _close(rep["estimate"], self.oracle[k], EXACT):
                return [f"d{k + 1}: didm {rep['estimate']!r} != oracle {self.oracle[k]!r}"]
            return []
        return check

    def _check_bootstrap(self, rep: dict) -> list[str]:
        ref = self.seen.pop("didm_d1", None)
        if ref is None or not _same(rep["estimate"], ref):
            return [f"bootstrap estimate {rep['estimate']!r} != didm {ref!r}"]
        return []

    def commands(self):
        cmds = [("didm", ["didm", "--input", self.csv, "--target", f"d{k + 1}"],
                 self._check_didm(k)) for k in range(3)]
        cmds.append(("bootstrap", ["bootstrap", "--input", self.csv, "--estimator", "didm",
                                   "--target", "d1", "-B", str(self.size["B"]),
                                   "--parallelism", str(self.parallelism)],
                     self._check_bootstrap))
        return cmds


class StaggeredCohorts(FileWorkload):
    name = "staggered-cohorts"
    sizes = {"full": {"G": 600, "T": 20, "B": 10}, "toy": {"G": 80, "T": 8, "B": 3}}
    pass_kinds = ("dynamic", "bootstrap")
    strategies = ("second", "first", "combined", "linear", "split")

    def spec(self):
        return staggered_spec(self.size["G"], self.size["T"], self.seed)

    def truth(self) -> None:
        syn = self.synthetic
        structure = staggered.build_cohorts(syn.panel, 0, 1)
        self.oracle = {ell: simulate.delta_ell_oracle(syn, structure, ell)
                       for ell in range(structure.l_nt + 1)}

    @staticmethod
    def _placebos(rep: dict, strategy: str) -> list[str]:
        return [f"{strategy}: placebo {p['ell']} is {p['estimate']!r}"
                for p in rep["placebos"] if not _close(p["estimate"], 0.0, EXACT)]

    def _check(self, strategy: str):
        def check(rep: dict) -> list[str]:
            if strategy == "second":
                fails = self._placebos(rep, strategy)
                got = {h["ell"]: h["estimate"] for h in rep["horizons"]}
                if sorted(got) != sorted(self.oracle):
                    fails.append(f"second: horizons {sorted(got)} != {sorted(self.oracle)}")
                fails += [f"second: horizon {ell} is {got[ell]!r}, oracle {v!r}"
                          for ell, v in self.oracle.items()
                          if ell in got and not _close(got[ell], v, EXACT)]
                self.seen["h0"] = got.get(0)
                return fails
            if strategy in ("first", "combined"):
                return self._placebos(rep, strategy)
            if strategy == "linear":
                ests = [h["estimate"] for h in rep["horizons"]]
                if not ests or not all(math.isfinite(e) for e in ests):
                    return [f"linear: estimates {ests!r} not all finite"]
                return []
            groups = [g for key in ("first_before_second", "second_before_first",
                                    "simultaneous", "never_treated") for g in rep[key]]
            labels = self.synthetic.panel.group_labels
            if len(groups) != len(labels) or set(groups) != set(labels):
                return [f"split: partition covers {len(set(groups))} of {len(labels)} groups"]
            return []
        return check

    def _check_bootstrap(self, rep: dict) -> list[str]:
        ref = self.seen.pop("h0", None)
        if ref is None or not _same(rep["estimate"], ref):
            return [f"bootstrap estimate {rep['estimate']!r} != horizon 0 {ref!r}"]
        return []

    def commands(self):
        cmds = [("dynamic", ["dynamic", "--input", self.csv, "--first", "d1",
                             "--second", "d2", "--strategy", s], self._check(s))
                for s in self.strategies]
        cmds.append(("bootstrap", ["bootstrap", "--input", self.csv, "--estimator",
                                   "did_ell", "--first", "d1", "--second", "d2",
                                   "--ell", "0", "-B", str(self.size["B"]),
                                   "--parallelism", str(self.parallelism)],
                     self._check_bootstrap))
        return cmds


class MonteCarloStates(Workload):
    name = "montecarlo-states"
    sizes = {"full": {"G": 50, "T": 20, "min_reps": 100},
             "toy": {"G": 20, "T": 8, "min_reps": 5}}

    def __init__(self, seed: int, size: str, workdir: str, parallelism: int):
        super().__init__(seed, size, workdir, parallelism)
        # replication r uses spec seed base + r; distinct workload seeds
        # give disjoint replication seeds
        self.base = seed * 1_000_000

    def _replicate(self, rep: int):
        spec = static_spec(self.size["G"], self.size["T"], self.base + rep)
        syn = simulate.generate(spec)
        out = []
        for k in range(spec.n_treatments):
            dec = decomposition.decompose(syn.panel, k)
            decomposition.summarize(dec, syn.panel)
            rhs = simulate.decomposition_rhs(syn, dec)
            est = didm_mod.didm(syn.panel, k).estimate
            truth = didm_mod.delta_s_oracle(syn, k)
            out.append((k, syn.panel, dec, rhs, est, truth))
        return out

    @staticmethod
    def _check(results) -> list[str]:
        fails = []
        for k, panel, dec, rhs, est, truth in results:
            total = math.fsum(dec.own.values())
            if not _close(total, 1.0, IDENTITY):
                fails.append(f"d{k + 1}: own weights sum to {total!r}")
            for j in range(panel.n_treatments):
                if j == k:
                    continue
                s = math.fsum(w for (g, t), w in dec.contamination.items()
                              if panel.d[j, panel.group_index(g), panel.period_index(t)] > 0.5)
                if not _close(s, 0.0, IDENTITY):
                    fails.append(f"d{k + 1}: contamination on d{j + 1} sums to {s!r}")
            if not _close(dec.beta_fe, rhs, IDENTITY):
                fails.append(f"d{k + 1}: beta_fe {dec.beta_fe!r} != rhs {rhs!r}")
            if not _close(est, truth, EXACT):
                fails.append(f"d{k + 1}: didm {est!r} != oracle {truth!r}")
        return fails

    def ops(self, rep: int) -> list[Op]:
        return [Op("replication", functools.partial(self._replicate, rep), self._check)]


WORKLOADS = {w.name: w for w in (StaticCounty, StaticSwitchers, StaggeredCohorts,
                                 MonteCarloStates)}
