"""Synthetic panels with stored potential outcomes and exact effect oracles.

Every generated panel keeps enough of its own construction to evaluate the
true value of each estimand directly: static designs store the baseline and
each treatment's effect surface, from which the potential outcome of every
cell under any treatment combination is summed when an oracle asks (the full
(G, T, 2**K) grid ``po`` only when it is read); staggered designs store the
never-treated baseline, the first treatment's effect path, and the second
treatment's cumulative effect at each horizon. Observed outcomes are always
the potential outcome at the realized treatments.

Randomness uses counter-based Philox streams keyed by (seed, stream id,
coordinates), so generation is order independent and reproducible bit for
bit; the stream ids are the ``STREAM_*`` constants below. The stream
(seed, stream, *c) is ``Generator(Philox(SeedSequence((seed, stream, *c))))``
from numpy. A panel's keys are hashed with uint64 array arithmetic that
repeats numpy's SeedSequence hashing, and their first outputs come from a
Philox4x64-10 pass, in blocks of 2**14 streams across all of the panel's
requests (all but the first-effect path's, keyed by drawn adoption dates).
Keys of up to 4 entropy words share a hash, as SeedSequence pads its 4-word
pool with zeros; a wider key (a seed or stream id of 2**32 or more) shares
only with its own width, where a zero word would change the state. Uniform,
bounded-integer and normal draws are derived from the raw outputs as numpy
derives them; normal draws take the fast path of numpy's ziggurat, whose two
256-entry tables ``wi_double`` and ``ki_double`` (numpy's distributions.c)
are committed as the package data file ``ziggurat.bin``. A bounded draw or
normal draw that numpy would reject is replayed by numpy itself on a rekeyed
bit generator. Noise, when requested, enters only the never-treated baseline
and is therefore shared by all potential outcomes of a cell: parallel-trends
conditions keep holding exactly, which makes Monte-Carlo averages of the
estimators clean tests of the estimators themselves. Noise draws are
independent across groups.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, asdict, dataclass
from pathlib import Path
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
    """Philox keys, shape (2, N), of the SeedSequence over each column of the
    (W, N) uint32 entropy words, W >= 4: SeedSequence's entropy mixing over
    its 4-word pool, then ``generate_state(2, uint64)``. Successive hashmix
    calls on one value, or on the pool's words in turn, run as one array
    operation over a row per call."""
    const = _INIT_A

    def hashmix(value, calls, mult=_MULT_A):
        nonlocal const
        xor, times = [], []
        for _ in range(calls):
            xor.append(const)
            const = const * mult & _MASK32
            times.append(const)
        value = value ^ np.array(xor, np.uint32)[:, None]
        value *= np.array(times, np.uint32)[:, None]
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return value ^ value >> np.uint32(16)

    pool = hashmix(entropy[:4], 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for word in entropy[4:]:
        pool = mix(pool, hashmix(word, 4))
    const = _INIT_B
    w = hashmix(pool, 4, _MULT_B).astype(np.uint64)
    return w[0::2] | w[1::2] << np.uint64(32)


def _mulhi(a: int, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a·b, from 32-bit halves, summed in
    place: at 2**14 keys numpy elides no temporary on its own."""
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, hi = b & np.uint64(_MASK32), b >> np.uint64(32)
    mid = b_lo * a_lo
    mid >>= np.uint64(32)
    mid += hi * a_lo
    low = b_lo * a_hi
    low += mid & np.uint64(_MASK32)
    low >>= np.uint64(32)
    mid >>= np.uint64(32)
    hi *= a_hi
    hi += mid
    hi += low
    return hi


def _philox(keys: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` 64-bit outputs, shape (n, N), of a fresh numpy Philox
    under each of the (2, N) keys: Philox4x64-10 blocks at counters 1, 2, ...
    The first round multiplies only zero words and the counter, so it is
    folded into constants."""
    m0, m1 = np.uint64(_PHILOX_M[0]), np.uint64(_PHILOX_M[1])
    w0, w1 = np.uint64(_PHILOX_W[0]), np.uint64(_PHILOX_W[1])
    outputs = []
    for counter in range(1, -(-n // 4) + 1):
        k0, k1 = keys.copy()
        product = _PHILOX_M[0] * counter
        c = [keys[0], np.uint64(0), keys[1] ^ np.uint64(product >> 64),
             np.uint64(product & 2 ** 64 - 1)]
        for _ in range(9):
            k0 += w0
            k1 += w1
            hi0, hi2 = _mulhi(_PHILOX_M[1], c[2]), _mulhi(_PHILOX_M[0], c[0])
            hi0 ^= c[1]
            hi0 ^= k0
            hi2 ^= c[3]
            hi2 ^= k1
            c = [hi0, c[2] * m1, hi2, c[0] * m0]
        outputs += c
    return np.stack(outputs[:n])


_BLOCK = 2 ** 14  # streams per hash and Philox pass: their temporaries stay in cache


def _batch(requests: dict) -> dict:
    """The draws by name of the streams (seed, stream, *c) of each request
    ``name: (outputs, draw, seed, stream, *coords)``, c ranging over the
    coordinates broadcast to shape S. ``draw(keys, raw)`` maps the keys,
    shape (2, m), and first ``outputs`` raw outputs, shape (outputs, m), of m
    of the streams to their draws along its last axis; they come back shaped
    (..., *S). The streams of all requests go in blocks of at most
    ``_BLOCK``, so that no key or raw output exists for all of them at once:
    per block, one hash per entropy width (at least 4, zero-padded), then one
    Philox pass per number of counter blocks."""
    cols, start, total = {}, {}, 0
    for name, (_, _, _, _, *coords) in requests.items():
        cols[name] = np.broadcast_arrays(*coords)
        start[name], total = total, total + cols[name][0].size
    out = {}
    for lo in range(0, max(total, 1), _BLOCK):
        words, offset = {}, {}
        for name, (_, _, seed, stream, *_) in requests.items():
            size = cols[name][0].size
            a, b = max(lo - start[name], 0), min(lo + _BLOCK - start[name], size)
            if a < b or not size and not lo:
                lead = _words(seed) + _words(stream)
                w = words[name] = np.zeros((max(4, len(lead) + len(cols[name])), b - a),
                                           np.uint32)
                offset[name] = a
                w[:len(lead)] = np.array(lead, np.uint32)[:, None]
                for i, c in enumerate(cols[name], len(lead)):
                    # c.flat[a:b], copying only the rows it spans
                    row = int(np.prod(c.shape[1:]))
                    w[i] = c[a // row:-(-b // row)].reshape(-1)[a % row:a % row + b - a]

        def cut(flat, names):
            ends = np.cumsum([words[name].shape[1] for name in names])[:-1]
            return zip(names, np.split(flat, ends, axis=-1))
        keys, raw = {}, {}
        for width in {len(w) for w in words.values()}:
            names = [name for name, w in words.items() if len(w) == width]
            keys.update(cut(_keys(np.concatenate([words[name] for name in names], axis=1)), names))
        for blocks in {-(-requests[name][0] // 4) for name in words}:
            names = [name for name in words if -(-requests[name][0] // 4) == blocks]
            flat = np.concatenate([keys[name] for name in names], axis=1)
            raw.update(cut(_philox(flat, 4 * blocks), names))
        for outputs, draw in dict.fromkeys(requests[name][:2] for name in words):
            names = [name for name in words if requests[name][:2] == (outputs, draw)]
            value = draw(np.concatenate([keys[name] for name in names], axis=1),
                         np.concatenate([raw[name][:outputs] for name in names], axis=1))
            for name, part in cut(value, names):
                if name not in out:
                    out[name] = np.empty(part.shape[:-1] + (cols[name][0].size,), part.dtype)
                out[name][..., offset[name]:offset[name] + part.shape[-1]] = part
    return {name: v.reshape(v.shape[:-1] + cols[name][0].shape) for name, v in out.items()}


def _keyed(keys: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """The draw that is the keys over the raw outputs, shape (2 + outputs, m),
    for a draw whose bounds wait on other draws."""
    return np.concatenate([keys, raw])


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


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's 256-layer ziggurat tables for the standard normal, ``wi_double``
    and ``ki_double`` of its distributions.c, as committed in ziggurat.bin:
    256 little-endian float64, then 256 little-endian uint64."""
    data = Path(__file__).with_name("ziggurat.bin").read_bytes()
    return np.frombuffer(data, "<f8", 256), np.frombuffer(data, "<u8", 256, 2048)


def _gauss(keys: np.ndarray, raw: np.ndarray, size: int | None = None) -> np.ndarray:
    """``.standard_normal(size)`` of each key's stream, shape S or (size, *S),
    from the keys and first raw outputs of its streams, one output per draw:
    numpy's ziggurat fast path takes layer ``r & 0xff``, sign bit 8 and the
    52 bits above it as ``rabs``, and returns ``±rabs·wi[layer]`` when ``rabs <
    ki[layer]``. A stream with a draw it would reject is replayed by numpy
    itself, as the rejection consumes more outputs."""
    wi, ki = _ziggurat()
    draws = 1 if size is None else size
    r = raw[:draws].reshape(draws, -1)
    layer = (r & np.uint64(0xFF)).astype(np.intp)
    rabs = r >> np.uint64(9) & np.uint64(2 ** 52 - 1)
    x = rabs * wi[layer]
    np.negative(x, out=x, where=r & np.uint64(0x100) != 0)
    rejected = np.flatnonzero((rabs >= ki[layer]).any(axis=0))
    for i, gen in zip(rejected, _replay(keys.reshape(2, -1)[:, rejected])):
        x[:, i] = gen.standard_normal(draws)
    return x.reshape(raw.shape[1:] if size is None else (size,) + raw.shape[1:])


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


_ON_OFF = np.array([True, False])[:, None, None]  # stacks a treatment on, then off


class SyntheticPanel:
    """A panel plus the ground truth it was built from.

    Static designs store each cell's potential outcome under every treatment
    combination as a function of the combination: ``outcomes(on)`` takes a
    length-K sequence, each entry a (G, T) bool grid or one bool for every
    cell saying where treatment k is on, and returns the (G, T) outcomes;
    ``po[g, t, mask]`` (bit k of ``mask`` for treatment k) is their grid,
    built on its first read.
    Staggered designs store ``second_effect[g, ell]``, the effect of
    ``ell + 1`` periods of the second treatment. The observed outcome always
    equals the potential outcome at the realized treatments.
    """

    def __init__(self, panel: PanelDataset, kind: str,
                 f1: np.ndarray | None = None, f2: np.ndarray | None = None,
                 baseline: np.ndarray | None = None,
                 first_effect: np.ndarray | None = None,
                 second_effect: np.ndarray | None = None,
                 outcomes=None):
        self.panel = panel
        self.kind = kind
        self.f1 = f1
        self.f2 = f2
        self.baseline = baseline
        self.first_effect = first_effect
        self.second_effect = second_effect
        self._outcomes = outcomes
        self._po = None

    @functools.cached_property
    def _observed(self) -> tuple:
        """Where each treatment is on, one (G, T) bool grid per treatment."""
        return tuple(self.panel.d > 0.5)

    @property
    def po(self) -> np.ndarray | None:
        """The (G, T, 2**K) potential outcomes ``po[g, t, mask]``, built from
        ``outcomes`` on first read, or None for a staggered design."""
        if self._po is None and self._outcomes is not None:
            K = self.panel.n_treatments
            self._po = np.stack([self._outcomes([bool(mask >> k & 1) for k in range(K)])
                                 for mask in range(1 << K)], axis=2)
        return self._po

    def _outcome(self, on) -> np.ndarray:
        """``outcomes(on)``, or MissingPotentialOutcomes without static truth;
        an entry of ``on`` with more axes than (G, T) stacks outcomes."""
        if self._outcomes is None:
            raise MissingPotentialOutcomes(
                "static potential outcomes are not stored for this panel"
            )
        return self._outcomes(on)

    def _switched(self, target: int, value) -> np.ndarray:
        """Every cell's outcome with ``target`` at ``value`` and the other
        treatments as observed."""
        self.panel.check_treatment(target)
        on = list(self._observed)
        on[target] = value
        return self._outcome(on)

    def target_effect_grid(self, target: int) -> np.ndarray:
        """Effect of switching ``target`` on, holding the other treatments at
        their observed values, for every cell."""
        on, off = self._switched(target, _ON_OFF)
        return on - off

    def others_effect_grid(self, target: int) -> np.ndarray:
        """Effect of the observed other treatments versus none, with the
        target held off, for every cell."""
        return (self._switched(target, False)
                - self._outcome([False] * self.panel.n_treatments))


def _additive(base: np.ndarray, group_part: np.ndarray, time_part: np.ndarray,
              interactions):
    """The ``outcomes`` function of a static design: ``base``, plus treatment
    k's effect ``group_part[k][:, None] + time_part[k]`` where k is on, in k
    order, then each interaction's coefficient where both of its treatments
    are on, in list order. Where a treatment is off its term is -0.0, whose
    addition returns every float unchanged, -0.0 included, so each cell gets
    the bits of the sum of the terms that are on in it."""
    base.setflags(write=False)
    tau = group_part[:, :, None] + time_part[:, None, :]

    def outcomes(on):
        surf = base
        for k, effect in enumerate(tau):
            if on[k] is not False:
                surf = surf + np.where(on[k], effect, -0.0)
        for k, j, coef in interactions:
            surf = surf + np.where(np.logical_and(on[k], on[j]), coef, -0.0)
        return surf
    return outcomes


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
    want = {"theta": (1, _gauss, spec.seed, STREAM_GROUP_FE, g)}
    if spec.time_sd:
        want["eta"] = (1, _gauss, spec.seed, STREAM_TIME_FE, t)
    if spec.noise_sd > 0:
        nseed = spec.seed if spec.noise_seed is None else spec.noise_seed
        want["noise"] = (1, _gauss, nseed, STREAM_NOISE, g[:, None], t)
    if spec.cell_sizes == "random":
        want["n"] = (1, _sizes, spec.seed, STREAM_CELL_SIZE, g[:, None], t)
    elif spec.cell_sizes == "product":
        want["n"] = (1, _sizes, spec.seed, STREAM_CELL_SIZE, np.concatenate([g, G + t]))
    return want


def _sizes(keys: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Cell sizes 1 to 4, as floats."""
    return _bounded(keys, raw, 1, 5) * 1.0


def _cell_sizes(spec: DgpSpec, draws: dict) -> np.ndarray:
    G, T = spec.n_groups, spec.n_periods
    if spec.cell_sizes == "unit":
        return np.ones((G, T))
    if spec.cell_sizes == "random":
        return draws["n"]
    if spec.cell_sizes == "product":
        return np.outer(draws["n"][:G], draws["n"][G:])
    raise InvalidSpec(f"unknown cell_sizes rule {spec.cell_sizes!r}")


def _baseline(spec: DgpSpec, draws: dict) -> np.ndarray:
    theta = spec.group_sd * draws["theta"]
    periods = np.arange(1, spec.n_periods + 1, dtype=float)
    eta = spec.time_slope * periods + spec.time_curvature * periods ** 2
    if spec.time_sd:
        eta = eta + spec.time_sd * draws["eta"]
    base = theta[:, None] + eta[None, :]
    if spec.noise_sd > 0:
        base = base + spec.noise_sd * draws["noise"]
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

    g, t, k = np.arange(G), np.arange(T), np.arange(K)[:, None]
    want = {"effect_group": (1, _gauss, spec.seed, STREAM_EFFECT_GROUP, k, g),
            "effect_time": (1, _gauss, spec.seed, STREAM_EFFECT_TIME, k, t), **_requests(spec)}
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
        on = np.stack([np.outer(g + 1 >= g1, t + 1 >= t1), np.outer(g + 1 >= g2, t + 1 >= t2)])
        draws = _batch(want)
    else:
        if not 0.0 <= spec.treat_prob <= 1.0:
            raise InvalidSpec("treat_prob must lie in [0, 1]")
        draws = _batch({"d": (K, lambda keys, raw: _unit(raw) < spec.treat_prob,
                              spec.seed, STREAM_TREATMENT, g[:, None], t), **want})
        on = draws["d"]

    # per-treatment effect surface split into group and period parts, so all
    # potential outcomes share common trends
    group_part = np.array(base_eff, dtype=float)[:, None] \
        + spec.effect_group_sd * draws["effect_group"]
    outcomes = _additive(_baseline(spec, draws), group_part,
                         spec.effect_time_sd * draws["effect_time"], spec.interactions)
    panel = PanelDataset(range(1, G + 1), range(1, T + 1), outcomes(on),
                         _cell_sizes(spec, draws), on * 1.0)
    return SyntheticPanel(panel, spec.kind, outcomes=outcomes)


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
    draws = _batch({
        "f1": (1, lambda keys, raw: _bounded(keys, raw, 2, T + 1), seed, STREAM_ADOPTION, g),
        "f2": (1, _keyed, seed, STREAM_ADOPTION, G + g),
        "level": (1, _gauss, seed, STREAM_FIRST_LEVEL, g),
        "violation": (1, _gauss, seed, STREAM_VIOLATION, g),
        "second": (T, functools.partial(_gauss, size=T), seed, STREAM_SECOND, g),
        **_requests(spec)})
    if spec.f1 is not None:
        f1 = _given_dates("f1", spec.f1, G)
    else:
        f1 = draws["f1"]
    if spec.f2 is not None:
        f2 = _given_dates("f2", spec.f2, G)
    else:
        # groups adopting the first treatment by T draw the second after it;
        # a date outside 1..T+1 is refused below, whatever is drawn here
        f2 = np.full(G, T + 1)
        drawn = np.flatnonzero((f1 >= 1) & (f1 <= T))
        keyed = draws["f2"][:, drawn]
        f2[drawn] = _bounded(keyed[:2], keyed[2:], f1[drawn] + 1, T + 2)
    if np.any(f1 < 1) or np.any(f1 > T + 1) or np.any(f2 < 1) or np.any(f2 > T + 1):
        raise InvalidSpec("adoption dates must lie in 1..T+1")
    if np.any(f2 < f1):
        raise InvalidSpec("every group must adopt the second treatment after the first")

    if spec.first_level is not None:
        if len(spec.first_level) != G:
            raise InvalidSpec("first_level must have one entry per group")
        lam = np.asarray(spec.first_level, dtype=float)
    else:
        lam = spec.first_level_sd * draws["level"]

    # event time t - F1 of every treated cell; the first-effect path is keyed
    # by (F1, t), so groups adopting together share it
    periods = np.arange(1, T + 1)
    on1 = periods >= f1[:, None]
    gi, ti = np.nonzero(on1)
    f, t = f1[gi], periods[ti]
    path = 0.0
    if spec.first_path_sd:
        dates, cell = np.unique(np.column_stack([f, t]), axis=0, return_inverse=True)
        request = {"path": (1, _gauss, spec.seed, STREAM_FIRST_PATH, dates[:, 0], dates[:, 1])}
        path = spec.first_path_sd * _batch(request)["path"][cell.ravel()]
    viol = 0.0
    if spec.break_common_evolution:
        viol = spec.break_common_evolution * draws["violation"][gi]
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
            + spec.second_sd * draws["second"].T

    base = _baseline(spec, draws)
    y = base.copy()
    y[on1] += first_effect[on1]
    on2 = periods >= f2[:, None]
    y[on2] += second_effect[np.nonzero(on2)[0], (periods - f2[:, None])[on2]]
    d = np.stack([on1, on2]) * 1.0

    n = _cell_sizes(spec, draws)
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

