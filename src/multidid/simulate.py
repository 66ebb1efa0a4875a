"""Synthetic panels with stored potential outcomes and exact effect oracles.

Every generated panel keeps enough of its own construction to evaluate the
true value of each estimand directly: static designs store the full potential
outcome of every cell under every treatment combination; staggered designs
store the never-treated baseline, the first treatment's effect path, and the
second treatment's cumulative effect at each horizon. Observed outcomes are
always the stored potential outcome at the realized treatments.

Randomness uses counter-based Philox streams keyed by (seed, stream id,
coordinates), so generation is order independent and reproducible bit for
bit; the stream ids are the ``STREAM_*`` constants below. The stream
(seed, stream, *c) is ``Generator(Philox(SeedSequence((seed, stream, *c))))``
from numpy. A panel's keys are hashed in one pass of uint64 array arithmetic
that repeats numpy's SeedSequence hashing (all but the first-effect path's,
keyed by drawn adoption dates), and its uniform and bounded-integer draws
come from one Philox4x64-10 pass, split by stream. Keys of up to 4 entropy
words share a pass, as SeedSequence pads its 4-word pool with zeros; a wider
key (a seed or stream id of 2**32 or more) shares only with its own width,
where a zero word would change the state. Normal draws run numpy's own
ziggurat on a rekeyed bit generator. Noise, when
requested, enters only the never-treated baseline and is therefore shared by
all potential outcomes of a cell: parallel-trends conditions keep holding
exactly, which makes Monte-Carlo averages of the estimators clean tests of
the estimators themselves. Noise draws are independent across groups.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass
from typing import get_args, get_origin, get_type_hints

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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and Philox4x64-10
# (numpy/random/src/philox/philox.h) constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _words(value: int) -> list[int]:
    """The uint32 entropy words SeedSequence makes of a nonnegative integer."""
    value = int(value)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _keys(entropy: np.ndarray) -> np.ndarray:
    """Philox keys, shape (2, N), with entries in [0, 2**32), of the
    SeedSequence over each column of the (W, N) uint32 entropy words, W >= 4:
    SeedSequence's entropy mixing over its 4-word pool, then
    ``generate_state(2, uint64)``."""
    const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return value ^ value >> np.uint32(16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    w = [hashmix(word, _MULT_B).astype(np.uint64) for word in pool]
    return np.stack([w[0] | w[1] << np.uint64(32), w[2] | w[3] << np.uint64(32)])


def _mulhi(a: int, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a·b, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & np.uint64(_MASK32), b >> np.uint64(32)
    x, y = b_hi * a_lo, b_lo * a_hi
    mid = (b_lo * a_lo >> np.uint64(32)) + (x & np.uint64(_MASK32)) + (y & np.uint64(_MASK32))
    return b_hi * a_hi + (x >> np.uint64(32)) + (y >> np.uint64(32)) + (mid >> np.uint64(32))


def _philox(keys: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` 64-bit outputs, shape (n, N), of a fresh numpy Philox
    under each of the (2, N) keys: Philox4x64-10 blocks at counters 1, 2, ...
    Keys go in slices of 2**14, whose round temporaries stay in cache."""
    if keys.shape[1] > 2 ** 14:
        return np.concatenate([_philox(keys[:, i:i + 2 ** 14], n)
                               for i in range(0, keys.shape[1], 2 ** 14)], axis=1)
    zero = np.zeros(keys.shape[1:], np.uint64)
    outputs = []
    for counter in range(1, -(-n // 4) + 1):
        c = [zero + np.uint64(counter), zero, zero, zero]
        k0, k1 = keys
        for r in range(10):
            if r:
                k0, k1 = k0 + np.uint64(_PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
            lo0, lo1 = c[0] * np.uint64(_PHILOX_M[0]), c[2] * np.uint64(_PHILOX_M[1])
            c = [_mulhi(_PHILOX_M[1], c[2]) ^ c[1] ^ k0, lo1,
                 _mulhi(_PHILOX_M[0], c[0]) ^ c[3] ^ k1, lo0]
        outputs += c
    return np.stack(outputs[:n])


def _batch(requests: dict) -> tuple[dict, dict]:
    """Keys, shape (2, *S), and first ``outputs`` raw outputs, shape
    (outputs, *S), by name, of the streams (seed, stream, *c) of each request
    ``name: (outputs, seed, stream, *coords)``, c ranging over the coordinates
    broadcast to shape S: one hash per entropy width (at least 4, zero-padded),
    then one Philox pass for every request with outputs."""
    words, shapes = {}, {}
    for name, (_, seed, stream, *coords) in requests.items():
        cols = np.broadcast_arrays(*coords)
        shapes[name] = cols[0].shape
        words[name] = [np.full(cols[0].size, w, np.uint32) for w in _words(seed) + _words(stream)]
        words[name] += [c.astype(np.uint32).ravel() for c in cols]
        words[name] += [np.zeros(cols[0].size, np.uint32)] * (4 - len(words[name]))

    def cut(flat, names):
        ends = np.cumsum([words[name][0].size for name in names])[:-1]
        return zip(names, np.split(flat, ends, axis=-1))
    keys, raw = {}, {}
    for width in {len(w) for w in words.values()}:
        names = [name for name, w in words.items() if len(w) == width]
        keys.update(cut(_keys(np.concatenate([words[name] for name in names], axis=1)), names))
    if drawn := [name for name in requests if requests[name][0]]:
        flat = np.concatenate([keys[name] for name in drawn], axis=1)
        raw.update(cut(_philox(flat, max(requests[name][0] for name in drawn)), drawn))
    return ({name: k.reshape(2, *shapes[name]) for name, k in keys.items()},
            {name: r[:requests[name][0]].reshape(-1, *shapes[name]) for name, r in raw.items()})


def _replay(keys: np.ndarray):
    """For each key, in flat order, the numpy Generator in the state
    ``Generator(Philox(SeedSequence(...)))`` starts in: one bit generator is
    rekeyed in place, which skips the SeedSequence build."""
    bitgen = np.random.Philox(0)
    state = bitgen.state  # counter 0, empty buffer
    gen = np.random.Generator(bitgen)
    for key in keys.reshape(2, -1).T:
        state["state"]["key"] = key
        bitgen.state = state
        yield gen


def _unit(raw: np.ndarray) -> np.ndarray:
    """``.random()`` of each raw output: its top 53 bits, scaled by 2**-53."""
    return (raw >> np.uint64(11)) * 2.0 ** -53


def _bounded(keys: np.ndarray, raw: np.ndarray, low, high) -> np.ndarray:
    """``.integers(low, high)`` from the keys and raw outputs of its streams,
    with 1 <= high - low < 2**32: numpy's Lemire method on the low 32 bits of
    the first output. A draw it would reject is replayed by numpy itself."""
    low, high = (np.broadcast_to(a, keys.shape[1:]).astype(np.int64) for a in (low, high))
    span = (high - low).astype(np.uint64)
    m = (raw[0] & np.uint64(_MASK32)) * span
    out = low + (m >> np.uint64(32)).astype(np.int64)
    rejected = np.flatnonzero(m & np.uint64(_MASK32) < (np.uint64(2 ** 32) - span) % span)
    for i, gen in zip(rejected, _replay(keys.reshape(2, -1)[:, rejected])):
        out.flat[i] = gen.integers(low.flat[i], high.flat[i])
    return out


def _gauss(keys: np.ndarray, size: int | None = None) -> np.ndarray:
    """``.standard_normal(size)`` of each key's stream, shape S or (*S, size),
    from numpy's own ziggurat."""
    draws = [gen.standard_normal(size) for gen in _replay(keys)]
    return np.array(draws).reshape(keys.shape[1:] + (() if size is None else (size,)))


# the values a field or element of each declared type takes, read from JSON or
# built in Python (true and false are not numbers), and their name in messages;
# an adoption date built in Python may be a float, as generate refuses one not whole
_TYPES = {str: (str, "a string"), int: ((int, np.integer), "an integer"),
          float: ((int, float, np.integer), "a number"),
          tuple: ((list, tuple, np.ndarray), "an array")}
_DATE_TYPES = {**_TYPES, int: _TYPES[float]}


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
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"the spec is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidSpec("the spec is not a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise InvalidSpec(f"unknown spec field(s): {sorted(unknown)}")
        missing = [name for name, f in fields.items() if f.default is MISSING and name not in data]
        if missing:
            raise InvalidSpec(f"missing spec field(s): {missing}")
        return cls(**{name: _checked(name, value, _HINTS[name], _TYPES)
                      for name, value in data.items()})


_HINTS = get_type_hints(DgpSpec)


def _checked(name: str, value, hint, types: dict, null: str = ""):
    """``value`` checked against the declared type ``hint`` by ``types``, element
    by element, its arrays made tuples; InvalidSpec names the first misfit."""
    if type(None) in get_args(hint):  # an optional field
        return value if value is None else _checked(
            name, value, get_args(hint)[0], types, " or null")
    kind = get_origin(hint) or hint
    accepted, what = types[kind]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise InvalidSpec(f"{name} must be {what}{null}, got {json.dumps(value, default=repr)}")
    if kind is not tuple:
        return value
    items = get_args(hint)
    if items[-1] is Ellipsis:
        items = items[:1] * len(value)
    elif len(items) != len(value):
        raise InvalidSpec(f"{name} must have {len(items)} entries, got {len(value)}")
    return tuple(_checked(f"{name}[{i}]", v, h, types)
                 for i, (v, h) in enumerate(zip(value, items)))


class SyntheticPanel:
    """A panel plus the ground truth it was built from.

    Static designs store ``po[g, t, mask]``, each cell's outcome under each
    treatment combination (bit k of ``mask`` for treatment k); staggered
    designs store ``second_effect[g, ell]``, the effect of ``ell + 1`` periods
    of the second treatment. The observed outcome always equals the potential
    outcome at the realized treatments, whose bit mask per cell is ``masks``.
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
        self.masks = _mask_grid(panel.d)
        self.masks.setflags(write=False)

    def _require_po(self) -> np.ndarray:
        if self.po is None:
            raise MissingPotentialOutcomes(
                "static potential outcomes are not stored for this panel"
            )
        return self.po

    def target_effect_grid(self, target: int) -> np.ndarray:
        """Effect of switching ``target`` on, holding the other treatments at
        their observed values, for every cell."""
        self.panel.check_treatment(target)
        po, bit = self._require_po(), 1 << target
        return _at(po, self.masks | bit) - _at(po, self.masks & ~bit)

    def others_effect_grid(self, target: int) -> np.ndarray:
        """Effect of the observed other treatments versus none, with the
        target held off, for every cell."""
        self.panel.check_treatment(target)
        po = self._require_po()
        return _at(po, self.masks & ~(1 << target)) - po[:, :, 0]


def generate(spec: DgpSpec) -> SyntheticPanel:
    """Materialize a specification into a panel with stored ground truth."""
    if spec.kind not in KINDS:
        raise InvalidSpec(f"unknown kind {spec.kind!r}, expected one of {KINDS}")
    # sizes and seeds are integers in Python too, where a date may be a whole float
    for name, field in DgpSpec.__dataclass_fields__.items():  # defaults are valid
        if (value := getattr(spec, name)) is not field.default:
            _checked(name, value, _HINTS[name],
                     _DATE_TYPES if name in ("f1", "f2") else _TYPES)
    for name in ("seed", "noise_seed"):
        if (value := getattr(spec, name)) is not None and value < 0:
            raise InvalidSpec(f"{name} must be a nonnegative integer, got {value!r}")
    if spec.n_groups < 2 or spec.n_periods < 2:
        raise InvalidSpec("need at least 2 groups and 2 periods")
    if spec.noise_sd < 0:
        raise InvalidSpec("noise_sd must be nonnegative")
    if spec.kind == "consecutive-staggered":
        if spec.n_treatments != 2:
            raise InvalidSpec("the staggered design uses exactly 2 treatments")
        return _generate_staggered(spec)
    return _generate_static(spec)


def _requests(spec: DgpSpec) -> dict:
    """The ``_batch`` requests of the baseline and cell sizes of both kinds."""
    G, T = spec.n_groups, spec.n_periods
    g, t = np.arange(G), np.arange(T)
    want = {"theta": (0, spec.seed, STREAM_GROUP_FE, g), "eta": (0, spec.seed, STREAM_TIME_FE, t)}
    if spec.noise_sd > 0:
        nseed = spec.seed if spec.noise_seed is None else spec.noise_seed
        want["noise"] = (0, nseed, STREAM_NOISE, g[:, None], t)
    if spec.cell_sizes == "random":
        want["n"] = (1, spec.seed, STREAM_CELL_SIZE, g[:, None], t)
    elif spec.cell_sizes == "product":
        want["n"] = (1, spec.seed, STREAM_CELL_SIZE, np.concatenate([g, G + t]))
    return want


def _cell_sizes(spec: DgpSpec, keys: dict, raw: dict) -> np.ndarray:
    G, T = spec.n_groups, spec.n_periods
    if spec.cell_sizes == "unit":
        return np.ones((G, T))
    if spec.cell_sizes == "random":
        return _bounded(keys["n"], raw["n"], 1, 5) * 1.0
    if spec.cell_sizes == "product":
        sizes = _bounded(keys["n"], raw["n"], 1, 5) * 1.0
        return np.outer(sizes[:G], sizes[G:])
    raise InvalidSpec(f"unknown cell_sizes rule {spec.cell_sizes!r}")


def _baseline(spec: DgpSpec, keys: dict) -> np.ndarray:
    theta = spec.group_sd * _gauss(keys["theta"])
    periods = np.arange(1, spec.n_periods + 1, dtype=float)
    eta = spec.time_slope * periods + spec.time_curvature * periods ** 2
    if spec.time_sd:
        eta = eta + spec.time_sd * _gauss(keys["eta"])
    base = theta[:, None] + eta[None, :]
    if spec.noise_sd > 0:
        base = base + spec.noise_sd * _gauss(keys["noise"])
    return base


def _mask_grid(d: np.ndarray) -> np.ndarray:
    """Each cell's treatment combination as a bit mask: bit k is d_k > 0.5."""
    return ((d > 0.5) << np.arange(len(d))[:, None, None]).sum(axis=0)


def _at(po: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``po[g, t, masks[g, t]]`` for every cell."""
    return np.take_along_axis(po, masks[:, :, None], axis=2)[:, :, 0]


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

    g, t, k = np.arange(G), np.arange(T), np.arange(K)[:, None]
    want = {"effect_group": (0, spec.seed, STREAM_EFFECT_GROUP, k, g),
            "effect_time": (0, spec.seed, STREAM_EFFECT_TIME, k, t), **_requests(spec)}
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
        d = np.stack([np.outer(g + 1 >= g1, t + 1 >= t1),
                      np.outer(g + 1 >= g2, t + 1 >= t2)]) * 1.0
        keys, raw = _batch(want)
    else:
        if not 0.0 <= spec.treat_prob <= 1.0:
            raise InvalidSpec("treat_prob must lie in [0, 1]")
        keys, raw = _batch({"d": (K, spec.seed, STREAM_TREATMENT, g[:, None], t), **want})
        d = (_unit(raw["d"]) < spec.treat_prob) * 1.0

    # per-treatment effect surface split into group and period parts, so all
    # potential outcomes share common trends
    gpart = spec.effect_group_sd * _gauss(keys["effect_group"])
    tpart = spec.effect_time_sd * _gauss(keys["effect_time"])
    tau = np.array(base_eff, dtype=float)[:, None, None] + gpart[:, :, None] \
        + tpart[:, None, :]

    base = _baseline(spec, keys)
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

    n = _cell_sizes(spec, keys, raw)
    panel = PanelDataset(range(1, G + 1), range(1, T + 1), _at(po, _mask_grid(d)), n, d)
    return SyntheticPanel(panel, spec.kind, po=po)


def _given_dates(name: str, dates, G: int) -> np.ndarray:
    """The adoption dates a spec gives, one whole number per group."""
    if len(dates) != G:
        raise InvalidSpec(f"{name} must have one date per group")
    for v in dates:
        if not (isinstance(v, (int, np.integer)) or isinstance(v, float) and v.is_integer()):
            raise InvalidSpec(f"{name} must hold whole-number dates, got {v!r}")
    return np.asarray(dates, dtype=int)


def _generate_staggered(spec: DgpSpec) -> SyntheticPanel:
    G, T = spec.n_groups, spec.n_periods
    g = np.arange(G)
    seed = spec.seed
    keys, raw = _batch({
        "f1": (1, seed, STREAM_ADOPTION, g), "f2": (1, seed, STREAM_ADOPTION, G + g),
        "level": (0, seed, STREAM_FIRST_LEVEL, g), "violation": (0, seed, STREAM_VIOLATION, g),
        "second": (0, seed, STREAM_SECOND, g), **_requests(spec)})
    if spec.f1 is not None:
        f1 = _given_dates("f1", spec.f1, G)
    else:
        f1 = _bounded(keys["f1"], raw["f1"], 2, T + 1)
    if spec.f2 is not None:
        f2 = _given_dates("f2", spec.f2, G)
    else:
        # groups adopting the first treatment by T draw the second after it;
        # a date outside 1..T+1 is refused below, whatever is drawn here
        f2 = np.full(G, T + 1)
        drawn = np.flatnonzero((f1 >= 1) & (f1 <= T))
        f2[drawn] = _bounded(keys["f2"][:, drawn], raw["f2"][:, drawn], f1[drawn] + 1, T + 2)
    if np.any(f1 < 1) or np.any(f1 > T + 1) or np.any(f2 < 1) or np.any(f2 > T + 1):
        raise InvalidSpec("adoption dates must lie in 1..T+1")
    if np.any(f2 < f1):
        raise InvalidSpec("every group must adopt the second treatment after the first")

    if spec.first_level is not None:
        if len(spec.first_level) != G:
            raise InvalidSpec("first_level must have one entry per group")
        lam = np.asarray(spec.first_level, dtype=float)
    else:
        lam = spec.first_level_sd * _gauss(keys["level"])

    # event time t - F1 of every treated cell; the first-effect path is keyed
    # by (F1, t), so groups adopting together share it
    periods = np.arange(1, T + 1)
    on1 = periods >= f1[:, None]
    gi, ti = np.nonzero(on1)
    f, t = f1[gi], periods[ti]
    path = 0.0
    if spec.first_path_sd:
        dates, cell = np.unique(np.column_stack([f, t]), axis=0, return_inverse=True)
        request = {"path": (0, spec.seed, STREAM_FIRST_PATH, dates[:, 0], dates[:, 1])}
        path = spec.first_path_sd * _gauss(_batch(request)[0]["path"])[cell.ravel()]
    viol = 0.0
    if spec.break_common_evolution:
        viol = spec.break_common_evolution * _gauss(keys["violation"])[gi]
    first_effect = np.zeros((G, T))
    first_effect[gi, ti] = lam[gi] + spec.first_growth * (t - f) + path + viol * (t - f)

    second_effect = np.zeros((G, T))
    if spec.second_effects is not None:
        if len(spec.second_effects) != G:
            raise InvalidSpec("second_effects must have one row per group")
        for i, row in enumerate(spec.second_effects):
            for ell, v in enumerate(row[:T]):
                second_effect[i, ell] = float(v)
    else:
        second_effect[:] = spec.second_base + spec.second_growth * np.arange(T) \
            + spec.second_sd * _gauss(keys["second"], T)

    base = _baseline(spec, keys)
    y = base.copy()
    y[on1] += first_effect[on1]
    on2 = periods >= f2[:, None]
    y[on2] += second_effect[np.nonzero(on2)[0], (periods - f2[:, None])[on2]]
    d = np.stack([on1, on2]) * 1.0

    n = _cell_sizes(spec, keys, raw)
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
    """True horizon-``ell`` effect of the second treatment, read off stored
    effects and averaged over the adopter cells that have in-cohort controls."""
    if synthetic.second_effect is None:
        raise MissingPotentialOutcomes(
            "staggered potential outcomes are not stored for this panel"
        )
    if not 0 <= ell <= structure.l_nt:
        raise HorizonOutOfRange(
            f"horizon {ell} outside the estimable range 0..{structure.l_nt}"
        )
    f2, n = structure.f2.tolist(), synthetic.panel.n
    total = size = 0.0
    for f in np.unique(structure.f1).tolist():
        cohort = np.flatnonzero(structure.f1 == f).tolist()
        # the dates before the cohort's last second adoption have controls
        for t in range(ell + f + 1, max(f2[g] for g in cohort)):
            adopters = [g for g in cohort if f2[g] == t - ell]
            size += sum(n[g, t - 1] for g in adopters)
            for g in adopters:
                total += n[g, t - 1] * synthetic.second_effect[g, ell]
    return float(total / size)

