import functools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import multidid as m
from multidid import simulate
from multidid.errors import HorizonOutOfRange, InvalidSpec, MissingPotentialOutcomes
from multidid.simulate import _batch, _bounded, _gauss, _keyed, _unit, _ziggurat

from .oracles import numpy_stream, potential_outcome


def test_identical_spec_identical_panel():
    spec = m.DgpSpec(kind="random-binary", n_groups=7, n_periods=5,
                     n_treatments=3, seed=99, noise_sd=1.0,
                     effect_group_sd=1.0, cell_sizes="random")
    a = m.generate(spec)
    b = m.generate(spec)
    assert np.array_equal(a.panel.y, b.panel.y)
    assert np.array_equal(a.panel.n, b.panel.n)
    assert np.array_equal(a.panel.d, b.panel.d)
    assert np.array_equal(a.po, b.po)


def test_observed_equals_potential_outcome_static():
    spec = m.DgpSpec(kind="random-binary", n_groups=6, n_periods=4,
                     n_treatments=2, seed=4, noise_sd=0.7, effect_group_sd=1.0,
                     interactions=((0, 1, 0.5),))
    synthetic = m.generate(spec)
    panel = synthetic.panel
    for gi in range(panel.n_groups):
        for ti in range(panel.n_periods):
            assert panel.y[gi, ti] == pytest.approx(
                potential_outcome(synthetic, gi, ti, panel.d[:, gi, ti]), abs=0)


def test_observed_decomposes_staggered():
    spec = m.DgpSpec(kind="consecutive-staggered", n_groups=5, n_periods=6,
                     seed=12, noise_sd=0.3, first_growth=0.5, second_base=1.0)
    synthetic = m.generate(spec)
    panel = synthetic.panel
    for gi in range(panel.n_groups):
        for ti in range(1, panel.n_periods + 1):
            expected = synthetic.baseline[gi, ti - 1]
            if ti >= synthetic.f1[gi]:
                expected += synthetic.first_effect[gi, ti - 1]
            if ti >= synthetic.f2[gi]:
                expected += synthetic.second_effect[gi, ti - synthetic.f2[gi]]
            assert panel.y[gi, ti - 1] == pytest.approx(expected, abs=0)


def test_null_dgp_every_estimator_zero():
    spec = m.DgpSpec(kind="consecutive-staggered", n_groups=4, n_periods=5,
                     seed=2, group_sd=1.0, time_slope=0.3,
                     f1=(2, 2, 3, 6), f2=(3, 5, 4, 6),
                     first_level=(0.0,) * 4, first_growth=0.0,
                     second_effects=((0.0,),) * 4)
    synthetic = m.generate(spec)
    panel = synthetic.panel
    assert m.twfe_coefficient(panel, 0) == pytest.approx(0.0, abs=1e-10)
    assert m.twfe_coefficient(panel, 1) == pytest.approx(0.0, abs=1e-10)
    assert m.didm(panel, 1).estimate == pytest.approx(0.0, abs=1e-10)
    st = m.build_cohorts(panel, 0, 1)
    for ell in range(st.l_nt + 1):
        est, _ = m.did_ell(panel, st, ell)
        assert est == pytest.approx(0.0, abs=1e-10)


def test_standard_did_matches_threshold_pattern():
    spec = m.DgpSpec(kind="standard-did", n_groups=5, n_periods=4,
                     thresholds=(2, 2, 4, 3), seed=0)
    synthetic = m.generate(spec)
    d = synthetic.panel.d
    for g in range(5):
        for t in range(4):
            assert d[0, g, t] == float(g + 1 >= 2 and t + 1 >= 2)
            assert d[1, g, t] == float(g + 1 >= 4 and t + 1 >= 3)


STAGGERED = dict(kind="consecutive-staggered", n_groups=4, n_periods=4)
STATIC = dict(kind="random-binary", n_groups=4, n_periods=4)


@pytest.mark.parametrize("fields, message", [
    (dict(STATIC, kind="nonsense"), r"unknown kind 'nonsense', expected one of"),
    (dict(STATIC, n_groups=1), r"need at least 2 groups and 2 periods$"),
    (dict(STATIC, n_periods=1), r"need at least 2 groups and 2 periods$"),
    # sizes are integers in Python too, where a date may be a whole float
    (dict(STATIC, n_groups=4.0), r"n_groups must be an integer, got 4\.0$"),
    (dict(STATIC, n_periods=4.0), r"n_periods must be an integer, got 4\.0$"),
    (dict(STATIC, n_treatments=2.0), r"n_treatments must be an integer, got 2\.0$"),
    (dict(STAGGERED, n_treatments=2.0), r"n_treatments must be an integer, got 2\.0$"),
    (dict(STATIC, n_groups="4"), r'n_groups must be an integer, got "4"$'),
    (dict(STATIC, n_groups=True), r"n_groups must be an integer, got true$"),
    (dict(STATIC, noise_sd="x"), r'noise_sd must be a number, got "x"$'),
    (dict(STATIC, noise_sd=-1.0), r"noise_sd must be nonnegative$"),
    (dict(STAGGERED, n_treatments=3), r"the staggered design uses exactly 2 treatments$"),
    (dict(STATIC, n_treatments=0), r"need at least one treatment$"),
    (dict(STATIC, base_effects=(1.0,)), r"base_effects must have one entry per treatment$"),
    (dict(STATIC, interactions=((0, 0, 1.0),)), r"bad interaction pair \(0, 0\)$"),
    (dict(STATIC, interactions=((0, 2, 1.0),)), r"bad interaction pair \(0, 2\)$"),
    (dict(STATIC, kind="standard-did", n_treatments=3, thresholds=(2, 2, 3, 3)),
     r"the standard design uses exactly 2 treatments$"),
    (dict(STATIC, kind="standard-did"), r"standard-did needs thresholds \(G1, T1, G2, T2\)$"),
    (dict(STATIC, kind="standard-did", thresholds=(1, 2, 3, 3)), r"thresholds must satisfy"),
    (dict(STATIC, kind="standard-did", thresholds=(2, 2, 5, 3)), r"thresholds must satisfy"),
    (dict(STATIC, kind="standard-did", thresholds=(2, 2, 3)),
     r"thresholds must have 4 entries, got 3$"),
    (dict(STATIC, interactions=[1]), r"interactions\[0\] must be an array, got 1$"),
    (dict(STATIC, treat_prob=1.5), r"treat_prob must lie in \[0, 1\]$"),
    (dict(STATIC, cell_sizes="huge"), r"unknown cell_sizes rule 'huge'$"),
    (dict(STAGGERED, cell_sizes="huge"), r"unknown cell_sizes rule 'huge'$"),
    (dict(STAGGERED, f1=(2, 2)), r"f1 must have one date per group$"),
    (dict(STAGGERED, f2=(3,)), r"f2 must have one date per group$"),
    (dict(STAGGERED, f1=(2.5, 2, 2, 2)), r"f1 must hold whole-number dates, got 2\.5$"),
    (dict(STAGGERED, f1=(0, 2, 2, 2)), r"adoption dates must lie in 1\.\.T\+1$"),
    (dict(STAGGERED, f1=(2, 2, 2, 2), f2=(2, 3, 4, 6)), r"adoption dates must lie in"),
    (dict(STAGGERED, f1=(2, 2, 2, 2), f2=(1, 3, 4, 5)),
     r"every group must adopt the second treatment after the first$"),
    (dict(STAGGERED, first_level=(1.0,)), r"first_level must have one entry per group$"),
    (dict(STAGGERED, second_effects=((1.0,),)), r"second_effects must have one row per group$"),
    # two faults: the guard listed first in generation order refuses
    (dict(STAGGERED, noise_sd=-1.0, n_treatments=3), r"noise_sd must be nonnegative$"),
    (dict(STATIC, n_treatments=0, kind="standard-did"), r"need at least one treatment$"),
    (dict(STATIC, treat_prob=1.5, cell_sizes="huge"), r"treat_prob must lie in"),
    (dict(STAGGERED, f1=(2, 2), first_level=(1.0,)), r"f1 must have one date per group$"),
    (dict(STAGGERED, f1=(0, 2, 2, 2), second_effects=((1.0,),)),
     r"adoption dates must lie in"),
    (dict(STAGGERED, first_level=(1.0,), second_effects=((1.0,),)),
     r"first_level must have one entry per group$"),
    (dict(STAGGERED, second_effects=((1.0,),), cell_sizes="huge"),
     r"second_effects must have one row per group$"),
    # a float index of an interaction pair, as from_json refuses it
    (dict(STATIC, interactions=((0.0, 1, 1.0),)),
     r"interactions\[0\]\[0\] must be an integer, got 0\.0$"),
])
def test_invalid_specs(fields, message):
    """Every InvalidSpec guard of ``generate``, each with its own message; a
    spec with two faults is refused by the one that generation meets first."""
    with pytest.raises(InvalidSpec, match=f"^{message}"):
        m.generate(m.DgpSpec(**fields))


def test_whole_float_dates_are_accepted():
    """Adoption dates built in Python may be whole floats, unlike sizes."""
    dates = dict(f1=(2, 2, 3, 3), f2=(3, 4, 4, 5))
    want = m.generate(m.DgpSpec(**STAGGERED, **dates)).panel
    got = m.generate(m.DgpSpec(**STAGGERED, **{k: tuple(map(float, v))
                                               for k, v in dates.items()})).panel
    assert np.array_equal(got.d, want.d) and np.array_equal(got.y, want.y)


def test_staggered_truths_refuse_a_static_panel_and_a_far_horizon(abc_staggered):
    static = m.generate(m.DgpSpec(kind="random-binary", n_groups=4, n_periods=3))
    message = "^staggered potential outcomes are not stored for this panel$"
    structure = m.build_cohorts(abc_staggered.panel, 0, 1)
    with pytest.raises(MissingPotentialOutcomes, match=message):
        m.delta_ell_oracle(static, structure, 0)
    with pytest.raises(HorizonOutOfRange, match=r"^horizon 2 outside the estimable "
                                                r"range 0\.\.1$"):
        m.delta_ell_oracle(abc_staggered, structure, 2)


def test_spec_json_round_trip():
    spec = m.DgpSpec(kind="consecutive-staggered", n_groups=3, n_periods=4,
                     seed=8, f1=(2, 2, 2), f2=(3, 5, 4),
                     first_level=(1.0, 2.0, 0.0), first_growth=0.5,
                     second_effects=((10.0, 12.0), (0.0,), (7.0,)))
    assert m.DgpSpec.from_json(spec.to_json()) == spec


def test_unknown_json_field_rejected():
    with pytest.raises(InvalidSpec, match=r"^unknown spec field\(s\): \['bogus'\]$"):
        m.DgpSpec.from_json('{"kind": "random-binary", "n_groups": 4, '
                            '"n_periods": 3, "bogus": 1}')


def test_noise_only_moves_baseline():
    base = dict(kind="random-binary", n_groups=5, n_periods=4, n_treatments=2,
                seed=21, effect_group_sd=1.0, noise_sd=1.0)
    a = m.generate(m.DgpSpec(**base, noise_seed=1))
    b = m.generate(m.DgpSpec(**base, noise_seed=2))
    assert np.array_equal(a.panel.d, b.panel.d)
    # effects (potential-outcome differences) identical across noise draws
    assert np.allclose(a.po - a.po[:, :, :1], b.po - b.po[:, :, :1], atol=0)
    assert not np.allclose(a.panel.y, b.panel.y)


def test_effect_grids_match_potential_outcomes_cell_by_cell():
    spec = m.DgpSpec(kind="random-binary", n_groups=6, n_periods=4, n_treatments=3,
                     seed=8, noise_sd=0.5, effect_group_sd=1.0, effect_time_sd=0.5,
                     interactions=((0, 2, 0.7), (1, 2, -0.4)))
    synthetic = m.generate(spec)
    panel = synthetic.panel
    for k in range(3):
        target, others = synthetic.target_effect_grid(k), synthetic.others_effect_grid(k)
        for gi in range(panel.n_groups):
            for ti in range(panel.n_periods):
                on, off = panel.d[:, gi, ti].copy(), panel.d[:, gi, ti].copy()
                on[k], off[k] = 1.0, 0.0
                po = lambda d: potential_outcome(synthetic, gi, ti, d)  # noqa: E731
                assert target[gi, ti] == po(on) - po(off)
                assert others[gi, ti] == po(off) - po(np.zeros(3))


def test_staggered_panel_has_no_static_outcomes(abc_staggered):
    with pytest.raises(MissingPotentialOutcomes):
        abc_staggered.target_effect_grid(0)


def test_decomposition_rhs_four_group(four_group):
    decomp = m.decompose(four_group.panel, 0)
    assert m.decomposition_rhs(four_group, decomp) == pytest.approx(1.5, abs=1e-12)


def test_decomposition_rhs_constant_effects_cancel():
    # zero-sum contamination weights wipe out a constant second-treatment
    # effect, leaving exactly the first treatment's constant effect
    spec = m.DgpSpec(kind="random-binary", n_groups=8, n_periods=5,
                     n_treatments=2, seed=13, base_effects=(2.0, -1.0))
    synthetic = m.generate(spec)
    decomp = m.decompose(synthetic.panel, 0)
    assert m.decomposition_rhs(synthetic, decomp) == pytest.approx(2.0, abs=1e-10)
    assert decomp.beta_fe == pytest.approx(2.0, abs=1e-10)


def test_product_cell_sizes_factor():
    spec = m.DgpSpec(kind="standard-did", n_groups=4, n_periods=4,
                     thresholds=(2, 2, 3, 3), seed=6, cell_sizes="product")
    n = m.generate(spec).panel.n
    # rank-one grid: all 2x2 minors vanish
    for g in range(3):
        for t in range(3):
            assert n[g, t] * n[g + 1, t + 1] == pytest.approx(
                n[g, t + 1] * n[g + 1, t], rel=1e-12)


WORD = st.integers(0, 2 ** 32 - 1)


@given(seed=st.one_of(WORD, st.integers(2 ** 32, 2 ** 96)), stream=st.integers(0, 2 ** 40),
       width=st.integers(1, 3), size=st.integers(1, 6), data=st.data())
@example(seed=2 ** 32, stream=0, width=1, size=1, data=None)
@example(seed=2 ** 64 + 5, stream=2 ** 32, width=3, size=6, data=None)
@example(seed=0, stream=0, width=2, size=5, data=None)
def test_keyed_streams_match_numpy(seed, stream, width, size, data):
    """The vectorized uniform, bounded-integer and normal streams equal what
    numpy's Generator draws from the same SeedSequence, key by key; a numpy
    change to SeedSequence, Philox or either derivation fails here."""
    keys = [(0,) * width, tuple(range(width))]
    if data is not None:
        keys += data.draw(st.lists(st.tuples(*[WORD] * width), max_size=6))
    lows = np.arange(len(keys)) - 3
    spans = np.array([1, 4, 3, 2 ** 31 + 1, 2 ** 32 - 1, 7, 5, 2 ** 30 * 3 + 1][:len(keys)])
    coords = [np.array(c) for c in zip(*keys)]
    keyed = _batch({0: (size, _keyed, seed, stream, *coords)})[0]
    got_keys, raw = keyed[:2], keyed[2:]
    streams = [numpy_stream(seed, stream, *key) for key in keys]
    assert np.array_equal(np.moveaxis(_unit(raw), 0, -1),
                          [gen.random(size) for gen in streams])
    streams = [numpy_stream(seed, stream, *key) for key in keys]
    assert np.array_equal(_bounded(got_keys, raw, lows, lows + spans),
                          [gen.integers(lo, lo + n) for gen, lo, n in
                           zip(streams, lows.tolist(), spans.tolist())])
    streams = [numpy_stream(seed, stream, *key) for key in keys]
    assert np.array_equal(np.moveaxis(_gauss(got_keys, raw, size), 0, -1),
                          [gen.standard_normal(size) for gen in streams])
    streams = [numpy_stream(seed, stream, *key) for key in keys]
    assert np.array_equal(_gauss(got_keys, raw),
                          [gen.standard_normal() for gen in streams])


def test_rejected_bounded_draws_are_replayed():
    """With a span just above 2**31 numpy's Lemire method rejects about half
    the first draws; those keys go back to numpy, the rest stay vectorized."""
    g = np.arange(200)
    span = 2 ** 31 + 1
    keyed = _batch({0: (1, _keyed, 11, 7, g)})[0]
    got = _bounded(keyed[:2], keyed[2:], 0, span)
    first = np.array([numpy_stream(11, 7, i).bit_generator.random_raw() & 0xFFFFFFFF
                      for i in g.tolist()])
    assert ((first * span) % 2 ** 32 < (2 ** 32 - span) % span).sum() > 50
    assert got.tolist() == [numpy_stream(11, 7, i).integers(0, span) for i in g.tolist()]


@given(seed=st.one_of(WORD, st.integers(2 ** 32, 2 ** 70)), stream=st.integers(0, 2 ** 40),
       first=st.integers(0, 2 ** 32 - 400), count=st.integers(1, 400),
       size=st.sampled_from((None, 1, 2, 5, 12)))
@example(seed=0, stream=0, first=0, count=400, size=None)
@example(seed=7, stream=11, first=0, count=400, size=12)
def test_batched_normals_match_numpy(seed, stream, first, count, size):
    """``_batch``'s normal draws, through the ziggurat fast path on the raw
    Philox outputs or numpy's replay, equal numpy's ``standard_normal()`` and
    ``standard_normal(size)``, key by key and bit for bit."""
    g = first + np.arange(count)
    draw = _gauss if size is None else functools.partial(_gauss, size=size)
    got = _batch({0: (size or 1, draw, seed, stream, g)})[0]
    want = np.array([numpy_stream(seed, stream, i).standard_normal(size) for i in g.tolist()])
    assert (got if size is None else got.T).tobytes() == want.tobytes()


def test_rejected_normal_draws_are_replayed():
    """The ziggurat tables are numpy's: over 4000 first draws every one of
    the 256 layers occurs, each draw the fast path takes equals numpy's, and
    the draws it rejects (``rabs >= ki[layer]``; layer 1 always rejects) go
    back to numpy, a first draw or a later draw of a 12-draw stream alike."""
    wi, ki = _ziggurat()
    assert (wi.dtype, ki.dtype, ki[0], ki[1]) == (np.float64, np.uint64, 0xEF33D8025EF6A, 0)
    g = np.arange(4000)
    keyed = _batch({0: (12, _keyed, 3, 11, g)})[0]
    keys, raw = keyed[:2], keyed[2:]
    layer = raw & np.uint64(0xFF)
    rejected = raw >> np.uint64(9) & np.uint64(2 ** 52 - 1) >= ki[layer]
    assert set(layer[0].tolist()) == set(range(256))
    assert rejected[0].sum() > 10
    first_rejected = rejected.argmax(axis=0)[rejected.any(axis=0)]
    assert (first_rejected > 0).sum() > 100
    assert _gauss(keys, raw).tobytes() == np.array(
        [numpy_stream(3, 11, i).standard_normal() for i in g.tolist()]).tobytes()
    assert _gauss(keys, raw, 12).T.tobytes() == np.array(
        [numpy_stream(3, 11, i).standard_normal(12) for i in g.tolist()]).tobytes()


@pytest.mark.parametrize("spec", [
    m.DgpSpec(kind="random-binary", n_groups=23, n_periods=7, n_treatments=3, seed=2 ** 33,
              noise_sd=0.5, cell_sizes="random", time_sd=0.5, effect_group_sd=1.0,
              interactions=((2, 0, 0.5),)),
    m.DgpSpec(kind="standard-did", n_groups=19, n_periods=9, thresholds=(3, 2, 9, 6), seed=4,
              cell_sizes="product", noise_sd=1.0, noise_seed=5, effect_time_sd=0.3),
    m.DgpSpec(kind="consecutive-staggered", n_groups=31, n_periods=8, seed=9, noise_sd=0.3,
              cell_sizes="random", first_path_sd=0.4, break_common_evolution=0.2,
              second_sd=1.0),
    # no group adopts, so the first-effect path is a request of no stream
    m.DgpSpec(kind="consecutive-staggered", n_groups=3, n_periods=4, seed=1,
              f1=(5, 5, 5), f2=(5, 5, 5), first_path_sd=0.4),
], ids=["random-binary", "standard-did", "staggered", "staggered-no-adopter"])
def test_blocks_of_streams_do_not_change_the_panel(monkeypatch, spec):
    """Blocks of 7 streams split every request, and blocks shared between
    requests, yet give the panel and truth of one block."""
    whole = m.generate(spec)
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    split = m.generate(spec)
    for name in ("y", "n", "d"):
        assert getattr(split.panel, name).tobytes() == getattr(whole.panel, name).tobytes()
    for name in ("po", "f1", "f2", "baseline", "first_effect", "second_effect"):
        a, b = getattr(split, name), getattr(whole, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


@given(seed=WORD, wide_seed=st.integers(2 ** 32, 2 ** 64 - 1),
       stream=st.integers(2 ** 32, 2 ** 40), data=st.data())
@example(seed=0, wide_seed=2 ** 32, stream=2 ** 32, data=None)
@example(seed=2 ** 32 - 1, wide_seed=2 ** 64 - 1, stream=2 ** 40, data=None)
def test_one_batch_matches_numpy(seed, wide_seed, stream, data):
    """One batch mixes requests of 3, 4 and 5 entropy words: one and two
    coordinates, a stream id of two words and a seed of two words. The narrow
    ones share a zero-padded hash, the 5-word ones one of their own; every
    key's uniform, bounded-integer and normal draws equal numpy's, including
    draws that Lemire's method rejects and numpy replays."""
    pairs = [(0, 0), (1, 2 ** 32 - 1)]
    if data is not None:
        pairs += data.draw(st.lists(st.tuples(WORD, WORD), max_size=6))
    a, b = (np.array(c) for c in zip(*pairs))
    g = np.arange(64)
    requests = {"one": (3, _keyed, seed, 7, a), "two": (3, _keyed, seed, 7, a, b),
                "stream": (3, _keyed, seed, stream, a),
                "wide_seed": (3, _keyed, wide_seed, 7, a, b),
                "wide_stream": (3, _keyed, seed, stream, a, b),
                # staggered-style adoption dates: bounds that differ by key,
                # spans just above 2**31 so that about half the draws reject
                "dates": (1, _keyed, seed, 7, g)}
    keyed = _batch(requests)
    keys = {name: k[:2] for name, k in keyed.items()}
    raw = {name: k[2:] for name, k in keyed.items()}
    for name, (outputs, _, s, k, *coords) in requests.items():
        streams = [(s, k, *c) for c in zip(*(c.tolist() for c in coords))]
        low = np.arange(len(streams)) % 5 + 1
        high = low + 2 ** 31 + 1 + np.arange(len(streams)) % 3
        assert np.array_equal(_bounded(keys[name], raw[name], low, high),
                              [numpy_stream(*e).integers(lo, hi) for e, lo, hi in
                               zip(streams, low.tolist(), high.tolist())])
        assert np.array_equal(_gauss(keys[name], raw[name]),
                              [numpy_stream(*e).standard_normal() for e in streams])
        assert np.array_equal(np.moveaxis(_unit(raw[name]), 0, -1),
                              [numpy_stream(*e).random(outputs) for e in streams])
    first = raw["dates"][0] & 0xFFFFFFFF
    span = (2 ** 31 + 1 + g % 3).astype(np.uint64)
    assert ((first * span) % 2 ** 32 < (2 ** 32 - span) % span).sum() > 10
    drawn = g[g % 3 > 0]  # a selection of keys, as the second adoption date draws
    high = 2 ** 31 + 3
    assert np.array_equal(_bounded(keys["dates"][:, drawn], raw["dates"][:, drawn], 2, high),
                          [numpy_stream(seed, 7, i).integers(2, high) for i in drawn.tolist()])


@pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 1.5), ("seed", "7"),
                                          ("noise_seed", -3)])
def test_seeds_must_be_nonnegative_integers(field, value):
    spec = m.DgpSpec(kind="random-binary", n_groups=4, n_periods=3, noise_sd=1.0,
                     **{field: value})
    # a type fault is worded as every field's, in JSON
    want = (f"a nonnegative integer, got {value}" if isinstance(value, int)
            else f"an integer, got {json.dumps(value)}")
    with pytest.raises(InvalidSpec, match=f"^{field} must be {re.escape(want)}$"):
        m.generate(spec)
