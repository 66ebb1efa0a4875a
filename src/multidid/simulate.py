"""Synthetic panels with stored potential outcomes and exact effect oracles.

Every generated panel keeps enough of its own construction to evaluate the
true value of each estimand directly: static designs store the full potential
outcome of every cell under every treatment combination; staggered designs
store the never-treated baseline, the first treatment's effect path, and the
second treatment's cumulative effect at each horizon. Observed outcomes are
always the stored potential outcome at the realized treatments.

Randomness uses counter-based Philox streams keyed by (seed, stream id,
coordinates), so generation is order independent and reproducible bit for
bit; the stream ids are the ``STREAM_*`` constants below. Noise, when
requested, enters only the never-treated baseline and is therefore shared by
all potential outcomes of a cell: parallel-trends conditions keep holding
exactly, which makes Monte-Carlo averages of the estimators clean tests of
the estimators themselves. Noise draws are independent across groups.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import HorizonOutOfRange, InvalidSpec, MissingPotentialOutcomes
from .panel import PanelDataset
from .staggered import CohortStructure

STREAM_TREATMENT = 0
STREAM_NOISE = 1
STREAM_EFFECT_GROUP = 2
STREAM_EFFECT_TIME = 3
STREAM_GROUP_FE = 4
STREAM_TIME_FE = 5
STREAM_CELL_SIZE = 6
STREAM_ADOPTION = 7
STREAM_FIRST_LEVEL = 8
STREAM_FIRST_PATH = 9
STREAM_VIOLATION = 10
STREAM_SECOND = 11

KINDS = ("random-binary", "standard-did", "consecutive-staggered")


def _stream(seed: int, stream: int, *coords: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence((seed, stream, *coords)))
    )


@dataclass(frozen=True)
class DgpSpec:
    """Declarative description of a synthetic panel, JSON serializable.

    ``kind`` picks the design family. Static kinds use ``base_effects`` plus
    optional per-group/per-period heterogeneity and pairwise interactions;
    the staggered kind parameterizes adoption dates, the first treatment's
    level and common evolution, and the second treatment's horizon profile.
    """

    kind: str
    n_groups: int
    n_periods: int
    n_treatments: int = 2
    seed: int = 0
    noise_sd: float = 0.0
    noise_seed: int | None = None
    cell_sizes: str = "unit"  # "unit" | "random" | "product"
    group_sd: float = 1.0
    time_slope: float = 1.0
    time_curvature: float = 0.0
    time_sd: float = 0.0
    # static designs
    treat_prob: float = 0.5
    thresholds: tuple[int, int, int, int] | None = None  # (G1, T1, G2, T2)
    base_effects: tuple[float, ...] | None = None
    effect_group_sd: float = 0.0
    effect_time_sd: float = 0.0
    interactions: tuple[tuple[int, int, float], ...] = ()
    # staggered designs
    f1: tuple[int, ...] | None = None
    f2: tuple[int, ...] | None = None
    first_level: tuple[float, ...] | None = None
    first_level_sd: float = 1.0
    first_growth: float = 0.0
    first_path_sd: float = 0.0
    break_common_evolution: float = 0.0
    second_base: float = 0.0
    second_growth: float = 0.0
    second_sd: float = 0.0
    second_effects: tuple[tuple[float, ...], ...] | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DgpSpec":
        data = json.loads(text)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidSpec(f"unknown spec field(s): {sorted(unknown)}")
        for key in ("thresholds", "base_effects", "f1", "f2", "first_level"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        if data.get("interactions") is not None:
            data["interactions"] = tuple(tuple(i) for i in data["interactions"])
        if data.get("second_effects") is not None:
            data["second_effects"] = tuple(tuple(r) for r in data["second_effects"])
        return cls(**data)


class SyntheticPanel:
    """A panel plus the ground truth it was built from.

    Static designs expose ``potential_outcome`` for every treatment vector;
    staggered designs expose the per-horizon second-treatment effects. The
    observed outcome always equals the potential outcome at the realized
    treatments.
    """

    def __init__(self, panel: PanelDataset, kind: str,
                 po: np.ndarray | None = None,
                 f1: np.ndarray | None = None, f2: np.ndarray | None = None,
                 baseline: np.ndarray | None = None,
                 first_effect: np.ndarray | None = None,
                 second_effect: np.ndarray | None = None):
        self.panel = panel
        self.kind = kind
        self.po = po
        self.f1 = f1
        self.f2 = f2
        self.baseline = baseline
        self.first_effect = first_effect
        self.second_effect = second_effect

    # -- static designs ----------------------------------------------------

    def potential_outcome(self, gi: int, ti: int, d: Sequence[float]) -> float:
        """Outcome of cell (gi, ti) under treatment vector ``d`` (binary)."""
        if self.po is None:
            raise MissingPotentialOutcomes(
                "static potential outcomes are not stored for this panel"
            )
        mask = 0
        for k, v in enumerate(d):
            if v > 0.5:
                mask |= 1 << k
        return float(self.po[gi, ti, mask])

    def target_effect_grid(self, target: int) -> np.ndarray:
        """Effect of switching ``target`` on, holding the other treatments at
        their observed values, for every cell."""
        if self.po is None:
            raise MissingPotentialOutcomes(
                "static potential outcomes are not stored for this panel"
            )
        G, T = self.panel.y.shape
        out = np.zeros((G, T))
        for gi in range(G):
            for ti in range(T):
                d = self.panel.d[:, gi, ti].copy()
                d_on = d.copy()
                d_on[target] = 1.0
                d_off = d.copy()
                d_off[target] = 0.0
                out[gi, ti] = (self.potential_outcome(gi, ti, d_on)
                               - self.potential_outcome(gi, ti, d_off))
        return out

    def others_effect_grid(self, target: int) -> np.ndarray:
        """Effect of the observed other treatments versus none, with the
        target held off, for every cell."""
        if self.po is None:
            raise MissingPotentialOutcomes(
                "static potential outcomes are not stored for this panel"
            )
        G, T = self.panel.y.shape
        out = np.zeros((G, T))
        zero = np.zeros(self.panel.n_treatments)
        for gi in range(G):
            for ti in range(T):
                d_obs = self.panel.d[:, gi, ti].copy()
                d_obs[target] = 0.0
                out[gi, ti] = (self.potential_outcome(gi, ti, d_obs)
                               - self.potential_outcome(gi, ti, zero))
        return out

    # -- staggered designs ---------------------------------------------------

    def second_effect_at(self, gi: int, ell: int) -> float:
        """Cumulative effect on group ``gi`` of carrying the second treatment
        for ``ell + 1`` periods."""
        if self.second_effect is None:
            raise MissingPotentialOutcomes(
                "staggered potential outcomes are not stored for this panel"
            )
        return float(self.second_effect[gi, ell])


def generate(spec: DgpSpec) -> SyntheticPanel:
    """Materialize a specification into a panel with stored ground truth."""
    if spec.kind not in KINDS:
        raise InvalidSpec(f"unknown kind {spec.kind!r}, expected one of {KINDS}")
    if spec.n_groups < 2 or spec.n_periods < 2:
        raise InvalidSpec("need at least 2 groups and 2 periods")
    if spec.noise_sd < 0:
        raise InvalidSpec("noise_sd must be nonnegative")
    if spec.kind == "consecutive-staggered":
        if spec.n_treatments != 2:
            raise InvalidSpec("the staggered design uses exactly 2 treatments")
        return _generate_staggered(spec)
    return _generate_static(spec)


def _cell_sizes(spec: DgpSpec) -> np.ndarray:
    G, T = spec.n_groups, spec.n_periods
    if spec.cell_sizes == "unit":
        return np.ones((G, T))
    if spec.cell_sizes == "random":
        n = np.empty((G, T))
        for g in range(G):
            for t in range(T):
                n[g, t] = float(_stream(spec.seed, STREAM_CELL_SIZE, g, t)
                                .integers(1, 5))
        return n
    if spec.cell_sizes == "product":
        a = np.array([float(_stream(spec.seed, STREAM_CELL_SIZE, g).integers(1, 5))
                      for g in range(G)])
        b = np.array([float(_stream(spec.seed, STREAM_CELL_SIZE, G + t).integers(1, 5))
                      for t in range(T)])
        return np.outer(a, b)
    raise InvalidSpec(f"unknown cell_sizes rule {spec.cell_sizes!r}")


def _baseline(spec: DgpSpec) -> np.ndarray:
    G, T = spec.n_groups, spec.n_periods
    theta = np.array([
        spec.group_sd * _stream(spec.seed, STREAM_GROUP_FE, g).standard_normal()
        for g in range(G)
    ])
    periods = np.arange(1, T + 1, dtype=float)
    eta = spec.time_slope * periods + spec.time_curvature * periods ** 2
    if spec.time_sd:
        eta = eta + np.array([
            spec.time_sd * _stream(spec.seed, STREAM_TIME_FE, t).standard_normal()
            for t in range(T)
        ])
    base = theta[:, None] + eta[None, :]
    if spec.noise_sd > 0:
        nseed = spec.seed if spec.noise_seed is None else spec.noise_seed
        noise = np.empty((G, T))
        for g in range(G):
            for t in range(T):
                noise[g, t] = _stream(nseed, STREAM_NOISE, g, t).standard_normal()
        base = base + spec.noise_sd * noise
    return base


def _generate_static(spec: DgpSpec) -> SyntheticPanel:
    G, T, K = spec.n_groups, spec.n_periods, spec.n_treatments
    if K < 1:
        raise InvalidSpec("need at least one treatment")
    if spec.base_effects is not None and len(spec.base_effects) != K:
        raise InvalidSpec("base_effects must have one entry per treatment")
    base_eff = spec.base_effects or tuple(0.0 for _ in range(K))
    for k, j, _ in spec.interactions:
        if not (0 <= k < K and 0 <= j < K and k != j):
            raise InvalidSpec(f"bad interaction pair ({k}, {j})")

    d = np.zeros((K, G, T))
    if spec.kind == "standard-did":
        if K != 2:
            raise InvalidSpec("the standard design uses exactly 2 treatments")
        if spec.thresholds is None:
            raise InvalidSpec("standard-did needs thresholds (G1, T1, G2, T2)")
        g1, t1, g2, t2 = spec.thresholds
        if not (1 < g1 < g2 <= G and 1 < t1 < t2 <= T):
            raise InvalidSpec(
                "thresholds must satisfy 1 < G1 < G2 <= G and 1 < T1 < T2 <= T"
            )
        for g in range(G):
            for t in range(T):
                d[0, g, t] = float(g + 1 >= g1 and t + 1 >= t1)
                d[1, g, t] = float(g + 1 >= g2 and t + 1 >= t2)
    else:
        if not 0.0 <= spec.treat_prob <= 1.0:
            raise InvalidSpec("treat_prob must lie in [0, 1]")
        for g in range(G):
            for t in range(T):
                u = _stream(spec.seed, STREAM_TREATMENT, g, t).random(K)
                d[:, g, t] = (u < spec.treat_prob).astype(float)

    # per-treatment effect surface split into group and period parts, so all
    # potential outcomes share common trends
    tau = np.empty((K, G, T))
    for k in range(K):
        gpart = np.array([
            spec.effect_group_sd
            * _stream(spec.seed, STREAM_EFFECT_GROUP, k, g).standard_normal()
            for g in range(G)
        ])
        tpart = np.array([
            spec.effect_time_sd
            * _stream(spec.seed, STREAM_EFFECT_TIME, k, t).standard_normal()
            for t in range(T)
        ])
        tau[k] = base_eff[k] + gpart[:, None] + tpart[None, :]

    base = _baseline(spec)
    po = np.empty((G, T, 1 << K))
    for mask in range(1 << K):
        surf = base.copy()
        for k in range(K):
            if mask >> k & 1:
                surf += tau[k]
        for k, j, coef in spec.interactions:
            if mask >> k & 1 and mask >> j & 1:
                surf += coef
        po[:, :, mask] = surf

    masks = np.zeros((G, T), dtype=int)
    for k in range(K):
        masks |= (d[k] > 0.5).astype(int) << k
    y = np.take_along_axis(po, masks[:, :, None], axis=2)[:, :, 0]

    n = _cell_sizes(spec)
    panel = PanelDataset(range(1, G + 1), range(1, T + 1), y, n, d)
    return SyntheticPanel(panel, spec.kind, po=po)


def _generate_staggered(spec: DgpSpec) -> SyntheticPanel:
    G, T = spec.n_groups, spec.n_periods
    if spec.f1 is not None:
        if len(spec.f1) != G:
            raise InvalidSpec("f1 must have one date per group")
        f1 = np.asarray(spec.f1, dtype=int)
    else:
        f1 = np.array([
            int(_stream(spec.seed, STREAM_ADOPTION, g).integers(2, T + 1))
            for g in range(G)
        ])
    if spec.f2 is not None:
        if len(spec.f2) != G:
            raise InvalidSpec("f2 must have one date per group")
        f2 = np.asarray(spec.f2, dtype=int)
    else:
        f2 = np.empty(G, dtype=int)
        for g in range(G):
            rng = _stream(spec.seed, STREAM_ADOPTION, G + g)
            lo = int(f1[g]) + 1
            f2[g] = int(rng.integers(lo, T + 2)) if lo <= T + 1 else T + 1
    if np.any(f1 < 1) or np.any(f1 > T + 1) or np.any(f2 < 1) or np.any(f2 > T + 1):
        raise InvalidSpec("adoption dates must lie in 1..T+1")
    if np.any(f2 < f1):
        raise InvalidSpec("every group must adopt the second treatment after the first")

    if spec.first_level is not None:
        if len(spec.first_level) != G:
            raise InvalidSpec("first_level must have one entry per group")
        lam = np.asarray(spec.first_level, dtype=float)
    else:
        lam = np.array([
            spec.first_level_sd
            * _stream(spec.seed, STREAM_FIRST_LEVEL, g).standard_normal()
            for g in range(G)
        ])

    first_effect = np.zeros((G, T))
    for g in range(G):
        f = int(f1[g])
        if f > T:
            continue
        viol = 0.0
        if spec.break_common_evolution:
            viol = spec.break_common_evolution \
                * _stream(spec.seed, STREAM_VIOLATION, g).standard_normal()
        for t in range(f, T + 1):
            path = 0.0
            if spec.first_path_sd:
                path = spec.first_path_sd \
                    * _stream(spec.seed, STREAM_FIRST_PATH, f, t).standard_normal()
            first_effect[g, t - 1] = (lam[g] + spec.first_growth * (t - f)
                                      + path + viol * (t - f))

    second_effect = np.zeros((G, T))
    if spec.second_effects is not None:
        if len(spec.second_effects) != G:
            raise InvalidSpec("second_effects must have one row per group")
        for g, row in enumerate(spec.second_effects):
            for ell, v in enumerate(row[:T]):
                second_effect[g, ell] = float(v)
    else:
        for g in range(G):
            draws = _stream(spec.seed, STREAM_SECOND, g).standard_normal(T)
            for ell in range(T):
                second_effect[g, ell] = (spec.second_base
                                         + spec.second_growth * ell
                                         + spec.second_sd * draws[ell])

    base = _baseline(spec)
    y = base.copy()
    d = np.zeros((2, G, T))
    for g in range(G):
        for t in range(1, T + 1):
            if t >= f1[g]:
                d[0, g, t - 1] = 1.0
                y[g, t - 1] += first_effect[g, t - 1]
            if t >= f2[g]:
                d[1, g, t - 1] = 1.0
                y[g, t - 1] += second_effect[g, t - f2[g]]

    n = _cell_sizes(spec)
    panel = PanelDataset(range(1, G + 1), range(1, T + 1), y, n, d)
    return SyntheticPanel(panel, spec.kind, f1=f1, f2=f2, baseline=base,
                          first_effect=first_effect, second_effect=second_effect)


# -- truth evaluation -------------------------------------------------------

def decomposition_rhs(synthetic: SyntheticPanel, decomp) -> float:
    """Right-hand side of the weight decomposition, from stored truths:
    own-weighted target effects plus contamination-weighted other effects."""
    own, other = decomp.own_support, decomp.contamination_support
    own_eff = synthetic.target_effect_grid(decomp.target)[own]
    oth_eff = synthetic.others_effect_grid(decomp.target)[other]
    return float(np.sum(decomp.weights[own] * own_eff)
                 + np.sum(decomp.weights[other] * oth_eff))


def delta_ell_oracle(synthetic: SyntheticPanel, structure: CohortStructure,
                     ell: int) -> float:
    """True horizon-``ell`` effect of the second treatment, averaged over the
    adopter cells the estimator uses, read off stored effects."""
    if synthetic.second_effect is None:
        raise MissingPotentialOutcomes(
            "staggered potential outcomes are not stored for this panel"
        )
    if not 0 <= ell <= structure.l_nt:
        raise HorizonOutOfRange(
            f"horizon {ell} outside the estimable range 0..{structure.l_nt}"
        )
    panel = synthetic.panel
    f2 = structure.f2
    total = 0.0
    for f in structure.eligible:
        if f not in structure.l_nt_f:
            continue
        for t in range(ell + f + 1, structure.nt[f] + 1):
            for g in structure.cohorts[f]:
                if f2[g] == t - ell:
                    total += panel.n[g, t - 1] * synthetic.second_effect_at(g, ell)
    return float(total / structure.n_ell[ell])


def standard_did_residual_closed_form(n: np.ndarray, g1: int, t1: int,
                                      g2: int, t2: int) -> tuple[np.ndarray, float]:
    """Closed-form partialling residuals for the two-threshold design.

    Valid when cell sizes factor as a group share times a period share.
    Returns the residual grid and the coefficient of the second treatment in
    the partialling regression.
    """
    G, T = n.shape
    A = n.sum()
    a = n.sum(axis=1) / A
    b = n.sum(axis=0) / A
    i1 = (np.arange(1, G + 1) >= g1).astype(float)
    j1 = (np.arange(1, T + 1) >= t1).astype(float)
    i2 = (np.arange(1, G + 1) >= g2).astype(float)
    j2 = (np.arange(1, T + 1) >= t2).astype(float)
    p1g, p1t, p2g, p2t = a @ i1, b @ j1, a @ i2, b @ j2
    zeta = (1 - p1g) * (1 - p1t) / ((1 - p2g) * (1 - p2t))
    eps = np.outer(i1 - p1g, j1 - p1t) - zeta * np.outer(i2 - p2g, j2 - p2t)
    return eps, float(zeta)


# -- reference fixtures -----------------------------------------------------

def four_group_example() -> SyntheticPanel:
    """Four groups, two periods, two treatments arriving in period 2.

    Groups 2 and 4 receive the first treatment, groups 3 and 4 the second.
    Effects are chosen so the period-2 outcome gains are (0, 1, 0, 2): the
    fixed-effects coefficient on the first treatment is then 1.5, the
    half-half average of a clean comparison (group 2 vs 1) and a comparison
    contaminated by the second treatment (group 4 vs 3).
    """
    G, T, K = 4, 2, 2
    d = np.zeros((K, G, T))
    d[0, 1, 1] = d[0, 3, 1] = 1.0
    d[1, 2, 1] = d[1, 3, 1] = 1.0
    po = np.zeros((G, T, 1 << K))
    # masks: 1 = first only, 2 = second only, 3 = both
    po[1, 1, 1] = 1.0   # group 2: first treatment raises outcome by 1
    po[1, 1, 3] = 1.0
    po[3, 1, 2] = 0.5   # group 4: second treatment alone raises by 0.5
    po[3, 1, 1] = 1.2
    po[3, 1, 3] = 2.0   # group 4: both treatments raise by 2
    po[2, 1, 2] = 0.0   # group 3: second treatment has no effect
    po[2, 1, 3] = 0.7
    po[2, 1, 1] = 0.7
    masks = np.zeros((G, T), dtype=int)
    for k in range(K):
        masks |= (d[k] > 0.5).astype(int) << k
    y = np.take_along_axis(po, masks[:, :, None], axis=2)[:, :, 0]
    panel = PanelDataset(range(1, G + 1), range(1, T + 1), y, np.ones((G, T)), d)
    return SyntheticPanel(panel, "random-binary", po=po)


def three_cohort_example(extra_never_treated: bool = False) -> SyntheticPanel:
    """Three groups adopting the first treatment together in period 2 of four,
    then the second treatment at dates 3, never, and 4.

    First-treatment effects start at (1, 2, 0) and all grow by 0.5 per period;
    second-treatment effects are +10 then +12 for the early adopter and +7 for
    the late one. With the optional fourth never-treated group the first
    treatment's own event study becomes estimable as well.
    """
    f1 = (2, 2, 2, 5) if extra_never_treated else (2, 2, 2)
    f2 = (3, 5, 4, 5) if extra_never_treated else (3, 5, 4)
    levels = (1.0, 2.0, 0.0, 0.0) if extra_never_treated else (1.0, 2.0, 0.0)
    second = [(10.0, 12.0), (0.0,), (7.0,)]
    if extra_never_treated:
        second.append((0.0,))
    spec = DgpSpec(
        kind="consecutive-staggered",
        n_groups=4 if extra_never_treated else 3,
        n_periods=4,
        seed=0,
        group_sd=0.0,
        time_slope=1.0,
        f1=f1,
        f2=f2,
        first_level=levels,
        first_growth=0.5,
        second_effects=tuple(second),
    )
    return generate(spec)
