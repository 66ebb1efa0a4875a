"""Property-based invariants of the weight decomposition, of the switcher
estimator and its report, of canonical values, of CSV round trips and the two
CSV readers, of the staggered horizon path, and of the ``--output csv``
tables."""

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import multidid as m
from multidid import cli, decomposition, staggered
from multidid import panel as panel_mod
from multidid.didm import DidmComponent
from multidid.errors import (
    CollinearTreatments,
    DegenerateDenominator,
    InsufficientPrePeriods,
    MissingPotentialOutcomes,
    MultiDidError,
    PathologicalDesign,
)
from multidid.panel import _Rows, encode_json
from multidid.staggered import HorizonComponent, adoption_dates

from .examples import four_group_example
from .oracles import (
    brute_force_didm,
    cohort_reach,
    delta_s_reference,
    dense_dummy_fit,
    grid_effects,
    grid_reference,
    polyfit_linear_trends,
    scipy_first_stage,
    stored,
)

# by import path: the package's name ``didm`` is the estimator function
didm_mod = importlib.import_module("multidid.didm")

LEVELS = [(0.0, 1.0), (0.0, 1.0, 2.0), (-1.0, 0.5, 2.0, 3.25)]
SUB_TOL = (5e-13, -5e-13, 9e-13, -9e-13)


@st.composite
def treatments(draw, levels=st.sampled_from(LEVELS), max_k=4):
    """(K, G, T) treatment values on one level set. Groups start from one of
    two vectors and each value moves with probability 1/4 per period, so
    stayers, matched switchers and both drop reasons are all common."""
    K, G, T = draw(st.integers(1, max_k)), draw(st.integers(2, 8)), draw(st.integers(2, 4))
    values = st.sampled_from(draw(levels))

    def grid(shape, elements, dtype=float):
        # fill=nothing draws every element; the default fills most with one value
        return draw(arrays(dtype, shape, elements=elements, fill=st.nothing()))

    start = grid((K, 2), values)[:, grid(G, st.integers(0, 1), np.intp)]
    d = np.repeat(start[:, :, None], T, axis=2)
    moves = grid((K, G, T), st.sampled_from((False, False, False, True)), bool)
    new = grid((K, G, T), values)
    for t in range(1, T):
        d[:, :, t] = np.where(moves[:, :, t], new[:, :, t], d[:, :, t - 1])
    return d


@st.composite
def panels(draw, levels=st.sampled_from(LEVELS)):
    d = draw(treatments(levels))
    _, G, T = d.shape
    y = draw(arrays(float, (G, T), elements=st.integers(-40, 40).map(lambda v: v / 4),
                    fill=st.nothing()))
    n = draw(arrays(float, (G, T), elements=st.sampled_from((0.5, 1.0, 2.0, 3.25)),
                    fill=st.nothing()))
    return m.PanelDataset(range(G), range(T), y, n, d), draw(st.integers(0, d.shape[0] - 1))


@pytest.mark.parametrize("levels", LEVELS)
@given(data=st.data())
def test_didm_matches_oracle(levels, data):
    panel, target = data.draw(panels(st.just(levels)))
    assert m.didm(panel, target).estimate == pytest.approx(
        brute_force_didm(panel, target), abs=1e-12)


@given(panels())
def test_didm_weights_sum_to_one(case):
    panel, target = case
    result = m.didm(panel, target)
    if result.n_s > 0:
        assert sum(c.weight for c in result.components) == pytest.approx(1.0, abs=1e-12)
        assert sum(c.n_switchers for c in result.components) == pytest.approx(result.n_s)


@given(panels())
def test_switchers_partition_the_target_changes(case):
    panel, target = case
    d, G, T = panel.d, panel.n_groups, panel.n_periods
    changes = [(t, g) for t in range(1, T) for g in range(G)
               if d[target, g, t] != d[target, g, t - 1]]
    switchers = m.find_switchers(panel, target)
    cells = [(c.period, c.group) for c in switchers.cells]
    dropped = [(x.period, x.group) for x in switchers.dropped]
    assert cells == sorted(cells) and dropped == sorted(dropped)
    assert sorted(cells + dropped) == changes
    others = [j for j in range(panel.n_treatments) if j != target]
    for x in switchers.dropped:
        moved = np.any(d[others, x.group, x.period] != d[others, x.group, x.period - 1])
        assert x.reason == ("other_treatment_changed" if moved else "no_matching_stayer")
    assert switchers.n_s == pytest.approx(sum(c.n for c in switchers.cells))


@st.composite
def static_specs(draw):
    """Static specs: random-binary with K = 1..4 (treatment probability 0
    gives no switcher) and up to three interactions, or standard-did, under
    every cell-size rule, with noise on and off. A baseline of signed zeros
    (-0.0 wherever the group's draw is negative) and effect spreads of 0 make
    outcomes whose sign of zero an added +0.0 would change."""
    G, T = draw(st.integers(3, 9)), draw(st.integers(3, 6))
    seed = draw(st.integers(0, 2 ** 40))
    zeros = dict(group_sd=0.0, time_slope=-0.0, time_curvature=-0.0) if draw(st.booleans()) else {}
    common = dict(n_groups=G, n_periods=T, seed=seed, effect_group_sd=1.0,
                  effect_time_sd=draw(st.sampled_from((0.0, 0.5))),
                  noise_sd=draw(st.sampled_from((0.0, 0.7))),
                  cell_sizes=draw(st.sampled_from(("unit", "random", "product"))), **zeros)
    if draw(st.booleans()):
        K = draw(st.integers(1, 4))
        pairs = st.tuples(st.integers(0, K - 1), st.integers(0, K - 1),
                          st.sampled_from((0.25, -0.5, 1.0))).filter(lambda p: p[0] != p[1])
        return m.DgpSpec(kind="random-binary", n_treatments=K,
                         treat_prob=draw(st.sampled_from((0.0, 0.2, 0.5, 0.8))),
                         base_effects=tuple(1.0 - 0.5 * k for k in range(K)),
                         interactions=tuple(draw(st.lists(pairs, max_size=3 * (K > 1)))),
                         **common)
    g1, t1 = draw(st.integers(2, G - 1)), draw(st.integers(2, T - 1))
    return m.DgpSpec(kind="standard-did", base_effects=(1.0, -2.0),
                     thresholds=(g1, t1, draw(st.integers(g1 + 1, G)),
                                 draw(st.integers(t1 + 1, T))), **common)


def static_truths():
    """Synthetic static panels with stored potential outcomes."""
    return static_specs().map(m.generate)


def _truth(oracle, synthetic, target):
    """The oracle's value, or the class of the library error it raises."""
    try:
        return oracle(synthetic, target)
    except MultiDidError as exc:
        return type(exc)


def _same_truth(synthetic):
    """``delta_s_oracle`` equals the per-switcher reference exactly for every
    target, and so it does without stored outcomes: 0.0 when no cell switches,
    else MissingPotentialOutcomes from both."""
    bare = m.SyntheticPanel(synthetic.panel, synthetic.kind)
    for target in range(synthetic.panel.n_treatments):
        value = m.delta_s_oracle(synthetic, target)
        assert type(value) is float and value == delta_s_reference(synthetic, target)
        missing = _truth(m.delta_s_oracle, bare, target)
        assert missing == _truth(delta_s_reference, bare, target)
        assert missing is MissingPotentialOutcomes or missing == value == 0.0


@settings(max_examples=200)
@given(static_truths())
@example(four_group_example())
@example(m.generate(m.DgpSpec(kind="random-binary", n_groups=3, n_periods=2,
                              n_treatments=1, seed=0, treat_prob=0.0)))
def test_delta_s_oracle_is_the_reference_bit_for_bit(synthetic):
    _same_truth(synthetic)


@settings(max_examples=100)
@given(static_specs())
def test_oracles_read_the_grid_bit_for_bit(spec):
    """The effect surfaces give every oracle the bits the potential-outcome
    grid gives it, and the grid ``po`` built from them on first read is the
    grid ``generate`` stored: the observed outcomes are its cells at the
    realized treatments, and each target's effect grids, switcher truth and
    decomposition right-hand side equal their values read off it."""
    synthetic = m.generate(spec)
    panel = synthetic.panel
    po = grid_reference(spec)
    assert synthetic.po.tobytes() == po.tobytes()
    masks = sum((panel.d[k] > 0.5).astype(np.int64) << k for k in range(panel.n_treatments))
    assert panel.y.tobytes() == np.take_along_axis(po, masks[:, :, None], axis=2).tobytes()
    # a panel whose oracles compute surfaces, and one that holds the grid
    lazy = m.generate(spec)
    for target in range(panel.n_treatments):
        target_grid, others_grid = grid_effects(synthetic, target)
        assert lazy.target_effect_grid(target).tobytes() == target_grid.tobytes()
        assert lazy.others_effect_grid(target).tobytes() == others_grid.tobytes()
        assert repr(m.delta_s_oracle(lazy, target)) == repr(delta_s_reference(synthetic, target))
        try:
            decomp = m.decompose(panel, target)
        except MultiDidError:
            continue
        own, other = decomp.own_support, decomp.contamination_support
        rhs = float(np.sum(decomp.weights[own] * target_grid[own])
                    + np.sum(decomp.weights[other] * others_grid[other]))
        assert repr(m.decomposition_rhs(lazy, decomp)) == repr(rhs)
    assert lazy._po is None  # no oracle built the grid


@given(panels(), st.data())
def test_delta_s_oracle_is_the_reference_on_ordered_values(case, data):
    """The same on drawn ordered treatment values and outcome tables, where
    both drop reasons are common and a value's bit is whether it exceeds 0.5."""
    panel, _ = case
    po = data.draw(arrays(float, (panel.n_groups, panel.n_periods, 1 << panel.n_treatments),
                          elements=st.integers(-40, 40).map(lambda v: v / 4),
                          fill=st.nothing()))
    _same_truth(m.SyntheticPanel(panel, "random-binary", outcomes=stored(po)))


@given(treatments())
def test_exact_values_kept_bit_for_bit(d):
    _, G, T = d.shape
    panel = m.PanelDataset(range(G), range(T), np.zeros((G, T)), np.ones((G, T)), d)
    assert panel.d.tobytes() == d.tobytes()


@given(treatments(), st.data())
def test_snapping_is_idempotent(d, data):
    _, G, T = d.shape
    noise = data.draw(arrays(float, d.shape, elements=st.sampled_from((0.0,) + SUB_TOL),
                             fill=st.nothing()))
    scale = data.draw(st.sampled_from((1.0, 1e-3, 0.7)))
    once = m.PanelDataset(range(G), range(T), np.zeros((G, T)), np.ones((G, T)),
                          d * scale + noise)
    twice = m.PanelDataset(range(G), range(T), np.zeros((G, T)), np.ones((G, T)),
                           once.d)
    assert twice.d.tobytes() == once.d.tobytes()
    values = np.unique(once.d)
    assert np.all(np.diff(values) > m.panel.VALUE_TOL)
    near = np.abs(values - np.rint(values)) <= m.panel.VALUE_TOL
    assert np.array_equal(values[near], np.rint(values[near]))


@given(panels(levels=st.sampled_from(LEVELS[:2])), st.data())
def test_sub_tolerance_noise_gives_the_exact_components(case, data):
    exact, target = case
    noise = data.draw(arrays(float, exact.d.shape,
                             elements=st.sampled_from((0.0,) + SUB_TOL), fill=st.nothing()))
    noisy = m.PanelDataset(exact.group_labels, exact.period_labels, exact.y,
                           exact.n, exact.d + noise)
    assert m.didm(noisy, target) == m.didm(exact, target)


# -- the TWFE weight decomposition ------------------------------------------

SIZES = (0.5, 1.0, 2.0, 3.25)


@st.composite
def binary_panels(draw):
    """Random binary panel with sizes from ``SIZES`` and a target treatment."""
    K, G, T = draw(st.integers(1, 3)), draw(st.integers(4, 8)), draw(st.integers(3, 5))
    d = draw(arrays(float, (K, G, T), elements=st.sampled_from((0.0, 1.0)),
                    fill=st.nothing()))
    y = draw(arrays(float, (G, T), elements=st.integers(-40, 40).map(lambda v: v / 4),
                    fill=st.nothing()))
    n = draw(arrays(float, (G, T), elements=st.sampled_from(SIZES), fill=st.nothing()))
    return m.PanelDataset(range(G), range(T), y, n, d), draw(st.integers(0, K - 1))


def _decompose(panel, target):
    try:
        return m.decompose(panel, target)
    except (CollinearTreatments, DegenerateDenominator):
        assume(False)


@given(binary_panels())
def test_own_weights_sum_to_one_and_contamination_cancels(case):
    panel, target = case
    decomp = _decompose(panel, target)
    assert sum(decomp.own.values()) == pytest.approx(1.0, abs=1e-12)
    for j in range(panel.n_treatments):
        if j == target:
            continue
        on = [w for (g, t), w in decomp.contamination.items()
              if panel.d[j, panel.group_index(g), panel.period_index(t)] == 1.0]
        assert sum(on) == pytest.approx(0.0, abs=1e-12)


@given(binary_panels())
def test_residuals_orthogonal_to_fixed_effects_and_other_treatments(case):
    panel, target = case
    try:
        eps = m.first_stage(panel, target).residuals
    except CollinearTreatments:
        assume(False)
    ne = panel.n * eps
    scale = float(np.sum(np.abs(ne)))
    assert np.max(np.abs(ne.sum(axis=1))) <= 1e-13 * scale
    assert np.max(np.abs(ne.sum(axis=0))) <= 1e-13 * scale
    for j in range(panel.n_treatments):
        if j != target:
            assert abs(float(np.sum(ne * panel.d[j]))) <= 1e-13 * scale


@given(binary_panels())
def test_coefficient_matches_dense_dummy_regression(case):
    panel, target = case
    decomp = _decompose(panel, target)
    beta, _, _ = dense_dummy_fit(panel, target)
    assert decomp.beta_fe == pytest.approx(beta, rel=1e-9, abs=1e-10)


@st.composite
def near_collinear_panels(draw):
    """Random binary panel with K = 1..4 treatments. The last one may be
    another with one cell flipped, at a size down to 1e-20: their difference
    then has a weighted norm near the rank threshold."""
    K, G, T = draw(st.integers(1, 4)), draw(st.integers(3, 7)), draw(st.integers(2, 5))
    d = draw(arrays(float, (K, G, T), elements=st.sampled_from((0.0, 1.0)),
                    fill=st.nothing()))
    n = draw(arrays(float, (G, T), elements=st.sampled_from(SIZES), fill=st.nothing()))
    if K > 1 and draw(st.booleans()):
        g, t = draw(st.integers(0, G - 1)), draw(st.integers(0, T - 1))
        d[-1] = d[draw(st.integers(0, K - 2))]
        d[-1, g, t] = 1.0 - d[-1, g, t]
        n[g, t] = draw(st.sampled_from((n[g, t], 1e-9, 1e-16, 1e-18, 1e-20)))
    y = draw(arrays(float, (G, T), elements=st.integers(-40, 40).map(lambda v: v / 4),
                    fill=st.nothing()))
    return m.PanelDataset(range(G), range(T), y, n, d)


def _outcome(call, *args):
    try:
        return call(*args)
    except (CollinearTreatments, DegenerateDenominator) as exc:
        return type(exc)


@given(near_collinear_panels(), st.randoms(use_true_random=False))
def test_targets_after_the_first_reuse_its_residuals_bit_for_bit(panel, rnd):
    """Each target's weights and ``beta_fe``, taken with the residuals that an
    earlier target left on the panel, are ``==`` to a fresh panel's."""
    for target in rnd.sample(range(panel.n_treatments), panel.n_treatments):
        fresh = m.PanelDataset(panel.group_labels, panel.period_labels, panel.y, panel.n,
                               panel.d)
        got, want = (_outcome(m.decompose, p, target) for p in (panel, fresh))
        if isinstance(want, type):
            assert got is want
        else:
            assert got.beta_fe == want.beta_fe
            assert np.array_equal(got.weights, want.weights)


@given(near_collinear_panels(), st.data())
def test_direct_lapack_calls_equal_scipy_wrappers(panel, data):
    """The first stage's residuals and coefficients, with its direct LAPACK
    calls, are ``==`` to those through scipy's checked wrappers, and it refuses
    the same panels."""
    target = data.draw(st.integers(0, panel.n_treatments - 1))
    got = _outcome(lambda: m.first_stage(panel, target))
    want = _outcome(scipy_first_stage, panel, target)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got.residuals, want[0])
        assert got.coef_other == want[1]


@st.composite
def tall_matrices(draw):
    """Tall (M, N) matrices with 1..4 columns, each scaled by 1e-8..1e8; a
    column may be zero or a copy of another, as a first stage's may be."""
    cols = draw(st.integers(1, 4))
    a = draw(arrays(float, (draw(st.integers(cols, 3 * cols + 6)), cols),
                    elements=st.floats(-1, 1), fill=st.nothing()))
    a *= 10.0 ** np.array(draw(st.lists(st.integers(-8, 8), min_size=cols, max_size=cols)))
    for j in range(cols):
        kind = draw(st.sampled_from(("drawn", "drawn", "zero", "copy")))
        if kind != "drawn":
            a[:, j] = 0.0 if kind == "zero" else a[:, draw(st.integers(0, cols - 1))]
    return a


@settings(max_examples=200)
@given(tall_matrices())
def test_pivoted_qr_equals_scipy_qr(a):
    """Q, R and the pivots of the direct LAPACK calls are ``==`` to
    ``scipy.linalg.qr``'s, in dtype and shape too."""
    got = decomposition._pivoted_qr(a)
    want = scipy.linalg.qr(a, mode="economic", pivoting=True)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@given(tall_matrices(), st.sampled_from((np.nan, np.inf, -np.inf)), st.data())
def test_pivoted_qr_refuses_a_non_finite_matrix_as_scipy_does(a, bad, data):
    a[data.draw(st.integers(0, a.shape[0] - 1)), data.draw(st.integers(0, a.shape[1] - 1))] = bad
    with pytest.raises(ValueError) as got:
        decomposition._pivoted_qr(a)
    with pytest.raises(ValueError) as want:
        scipy.linalg.qr(a, mode="economic", pivoting=True)
    assert str(got.value) == str(want.value)


@given(st.integers(4, 10), st.integers(3, 6), st.integers(2, 3),
       st.integers(0, 2 ** 31), st.sampled_from(("unit", "random")))
def test_coefficient_equals_decomposition_rhs(n_groups, n_periods, n_treatments, seed,
                                              sizes):
    spec = m.DgpSpec(kind="random-binary", n_groups=n_groups, n_periods=n_periods,
                     n_treatments=n_treatments, seed=seed, cell_sizes=sizes,
                     effect_group_sd=1.0, effect_time_sd=1.0,
                     interactions=((0, 1, 0.75),))
    synthetic = m.generate(spec)
    for target in range(n_treatments):
        decomp = _decompose(synthetic.panel, target)
        assert decomp.beta_fe == pytest.approx(m.decomposition_rhs(synthetic, decomp),
                                               abs=1e-10)


@given(binary_panels(), st.sampled_from((1e-3, 0.37, 7.5, 1e4)))
def test_scaling_cell_sizes_leaves_weights_unchanged(case, factor):
    panel, target = case
    decomp = _decompose(panel, target)
    scaled = m.PanelDataset(panel.group_labels, panel.period_labels, panel.y,
                            panel.n * factor, panel.d)
    assert np.max(np.abs(m.decompose(scaled, target).weights - decomp.weights)) <= 1e-12


@given(binary_panels(), st.randoms(use_true_random=False))
def test_relabelling_groups_and_periods_keeps_each_cell_weight(case, rnd):
    panel, target = case
    decomp = _decompose(panel, target)
    gp = rnd.sample(range(panel.n_groups), panel.n_groups)
    tp = rnd.sample(range(panel.n_periods), panel.n_periods)
    permuted = m.PanelDataset(
        [panel.group_labels[i] for i in gp], [panel.period_labels[i] for i in tp],
        panel.y[np.ix_(gp, tp)], panel.n[np.ix_(gp, tp)], panel.d[:, gp][:, :, tp])
    other = m.decompose(permuted, target)
    assert other.beta_fe == pytest.approx(decomp.beta_fe, rel=1e-12, abs=1e-12)
    for got, want in ((other.own, decomp.own),
                      (other.contamination, decomp.contamination)):
        assert got.keys() == want.keys()
        assert got == pytest.approx(want, abs=1e-12)


# -- CSV round trips ---------------------------------------------------------

LABEL_KINDS = [
    st.integers(-50, 50),
    st.integers(394, 406).map(lambda v: 5 * v),  # 1970, 1975, ... period-style years
    st.floats(-1e6, 1e6, allow_nan=False),
    st.text(alphabet="abcxyz_", min_size=1, max_size=3),  # never int, float, nan or inf
]
SPECIAL = (0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.1, -1.75)
CSV_VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e6, 1e6, allow_nan=False))
CSV_SIZES = st.one_of(st.sampled_from((5e-324, 1e300, 0.5, 2.75)), st.floats(1e-3, 1e3))
TREATMENT_NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda name: name not in ("g", "t", "y", "n"))


@st.composite
def labelled_panels(draw):
    """A panel with int, year, float or str labels and values that include
    -0.0, subnormals and +-1e300; sizes are all 1 when the file has no n. Its
    treatments are d1..dK or other lower-case names, read back through
    ``treatment_cols``."""
    G, T, K = draw(st.integers(2, 5)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    groups, periods = (sorted(draw(st.lists(draw(st.sampled_from(LABEL_KINDS)),
                                            min_size=size, max_size=size, unique=True)))
                       for size in (G, T))
    with_n = draw(st.booleans())

    def grid(shape, elements):
        return draw(arrays(float, shape, elements=elements, fill=st.nothing()))

    n = grid((G, T), CSV_SIZES) if with_n else np.ones((G, T))
    names = draw(st.none() | st.lists(TREATMENT_NAMES, min_size=K, max_size=K, unique=True))
    panel = m.PanelDataset(groups, periods, grid((G, T), CSV_VALUES), n,
                           grid((K, G, T), CSV_VALUES), names)
    return panel, with_n, names


def _assert_same_panel(got, want):
    for a, b in ((got.group_labels, want.group_labels),
                 (got.period_labels, want.period_labels)):
        assert a == b and list(map(type, a)) == list(map(type, b))
    for a, b in ((got.y, want.y), (got.n, want.n), (got.d, want.d)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()  # bit for bit, -0.0 too


@given(labelled_panels(), st.data())
def test_csv_round_trip_is_exact(tmp_path_factory, case, data):
    panel, with_n, names = case
    path = tmp_path_factory.mktemp("round_trip") / "panel.csv"
    m.write_panel_csv(panel, path)
    header, *body = path.read_text().splitlines()
    if not with_n:  # no field is quoted, so the n column is the fourth field
        header, *body = (",".join(line.split(",")[:3] + line.split(",")[4:])
                         for line in [header, *body])
        path.write_text("\n".join([header, *body]) + "\n")
    back = m.read_panel_csv(path, names)
    _assert_same_panel(back, panel)
    assert back.treatment_names == panel.treatment_names

    shuffled = data.draw(st.permutations(body))
    for _ in range(data.draw(st.integers(0, 3))):
        shuffled.insert(data.draw(st.integers(0, len(shuffled))),
                        data.draw(st.sampled_from(("", "   ", ",,", " , "))))
    path.write_text("\n".join([header, *shuffled]) + "\n")
    _assert_same_panel(m.read_panel_csv(path, names), panel)

    rows = [(g, t, float(panel.y[gi, ti]), *([float(panel.n[gi, ti])] if with_n else []),
             *map(float, panel.d[:, gi, ti]))
            for gi, g in enumerate(panel.group_labels)
            for ti, t in enumerate(panel.period_labels)]
    _assert_same_panel(m.load_panel(rows, panel.n_treatments), back)


# -- the decompose report against json's own encoding ------------------------

REPORT_LABELS = [
    st.integers(-10 ** 20, 10 ** 20),
    st.floats(-1e20, 1e20, allow_nan=False),  # 1e16 and up are spelled 1e+16
    # text the reader keeps as str: no edge whitespace, nothing int or float parses
    st.text(alphabet='ab",\\ é東', min_size=1, max_size=4).filter(
        lambda s: s == s.strip() and isinstance(panel_mod._parse_label(s), str)),
]


@st.composite
def report_panels(draw):
    """A binary panel with K = 1..4, int, float or str labels and a target."""
    K, G, T = draw(st.integers(1, 4)), draw(st.integers(4, 8)), draw(st.integers(3, 5))
    groups, periods = (sorted(draw(st.lists(draw(st.sampled_from(REPORT_LABELS)),
                                            min_size=size, max_size=size, unique=True)))
                       for size in (G, T))
    d = draw(arrays(float, (K, G, T), elements=st.sampled_from((0.0, 1.0)),
                    fill=st.nothing()))
    y = draw(arrays(float, (G, T), elements=st.floats(-50, 50), fill=st.nothing()))
    n = draw(arrays(float, (G, T), elements=st.sampled_from(SIZES), fill=st.nothing()))
    return m.PanelDataset(groups, periods, y, n, d), draw(st.integers(0, K - 1))


@given(report_panels())
@example((four_group_example().panel, 0))  # contamination weights of -0.5 and 0.5
def test_decompose_report_is_json_dumps_of_the_report_dict(tmp_path_factory, case):
    panel, target = case
    path = tmp_path_factory.mktemp("report") / "panel.csv"
    m.write_panel_csv(panel, path)
    back = m.read_panel_csv(path)
    back.require_binary()
    decomp = _decompose(back, target)
    argv = ["decompose", "--input", str(path), "--target", f"d{target + 1}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    config = {k: v for k, v in vars(cli.build_parser().parse_args(argv)).items()
              if k != "func"}
    head = {"tool": {"name": "multidid", "version": m.__version__}, "config": config,
            "input_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    report = m.decomposition_report(decomp, m.summarize(decomp, back))
    assert out.getvalue() == json.dumps(head | report, default=str) + "\n"


@given(report_panels())
@example((four_group_example().panel, 0))
def test_decompose_tables_are_those_read_cell_by_cell(case):
    """The mappings, the ``--output csv`` rows and both reports of a
    decomposition against its weight grid read one cell at a time from
    ``np.nonzero``, with no row encoder (repr tells -0.0 from 0.0)."""
    panel, target = case
    decomp = _decompose(panel, target)
    summary = m.summarize(decomp, panel)
    tables = {role: [(decomp.group_labels[i], decomp.period_labels[j], float(decomp.weights[i, j]))
                     for i, j in zip(*np.nonzero(mask))]
              for role, mask in (("own", decomp.own_support),
                                 ("contamination", decomp.contamination_support))}
    report = {"target": target, "beta_fe": decomp.beta_fe,
              **{role: [{"g": g, "t": t, "weight": w} for g, t, w in cells]
                 for role, cells in tables.items()},
              "summary": summary.to_dict()}
    assert repr(m.decomposition_report(decomp, summary)) == repr(report)
    _encoded_fields(decomposition.decomposition_report_json(decomp, summary), report)
    for role, cells in tables.items():
        assert repr(getattr(decomp, role)) == repr({(g, t): w for g, t, w in cells})
    assert repr(decomp.csv_rows()) == repr([(g, t, role, w) for role, cells in tables.items()
                                            for g, t, w in cells])


# -- the didm report from the strata arrays -----------------------------------


@st.composite
def didm_report_panels(draw):
    """A panel with K = 1..3 treatments that move as :func:`treatments`'s do,
    on a binary or an ordered level set, int, float or str labels, and a
    target."""
    d = draw(treatments(max_k=3))
    K, G, T = d.shape
    groups, periods = (sorted(draw(st.lists(draw(st.sampled_from(REPORT_LABELS)),
                                            min_size=size, max_size=size, unique=True)))
                       for size in (G, T))
    y = draw(arrays(float, (G, T), elements=st.floats(-50, 50), fill=st.nothing()))
    n = draw(arrays(float, (G, T), elements=st.sampled_from(SIZES), fill=st.nothing()))
    return m.PanelDataset(groups, periods, y, n, d), draw(st.integers(0, K - 1))


def _eager_didm(panel, target):
    """The components and ``to_dict`` of DID_M as the estimator built them
    before it kept its strata as arrays: one record per stratum, at once."""
    strata = didm_mod._strata(panel, target)
    estimate, n_s, weight, sw_n, st_n, value = didm_mod._reduce(strata,
                                                               np.ones(panel.n_groups))
    components = tuple(
        DidmComponent(period=panel.period_labels[int(k[0])], baseline=tuple(k[1:-2]),
                      direction="up" if k[-1] > k[-2] else "down",
                      target_from=k[-2], target_to=k[-1], n_switchers=sw,
                      n_stayers=st, value=v, weight=w)
        for k, sw, st, v, w in zip(strata.key.tolist(), sw_n.tolist(), st_n.tolist(),
                                   value.tolist(), weight.tolist()))
    report = {"estimate": estimate, "n_switchers": n_s,
              "components": [{"t": c.period, "baseline": list(c.baseline),
                              "direction": c.direction, "target_from": c.target_from,
                              "target_to": c.target_to, "did": c.value, "weight": c.weight}
                             for c in components],
              "dropped": [{"g": d.group, "t": d.period, "reason": d.reason}
                          for d in strata.lost.records],
              "standard_error": None}
    return components, report


def _didm_warnings(report: dict) -> str:
    """The standard error of ``didm`` as it was written from the report's
    dropped rows, a reason at a time in order of first appearance."""
    lines = [] if report["n_switchers"] else ["no usable switcher, estimate is 0 by convention"]
    drops = report["dropped"]
    for reason in dict.fromkeys(d["reason"] for d in drops):
        items = [d for d in drops if d["reason"] == reason]
        more = f" and {len(items) - 5} more" if len(items) > 5 else ""
        lines.append(f"dropped {len(items)} switching cell(s) ({reason}): "
                     + ", ".join(f"g={d['g']!r} t={d['t']!r}" for d in items[:5]) + more)
    return "".join(f"warning: {line}\n" for line in lines)


@given(didm_report_panels())
def test_didm_components_and_dict_are_those_built_at_once(case):
    panel, target = case
    result = m.didm(panel, target)
    components, report = _eager_didm(panel, target)
    assert result.components == components
    # repr tells -0.0 from 0.0 and 1 from 1.0
    assert repr(result.components) == repr(components)
    assert repr(result.to_dict()) == repr(report)
    assert result == m.didm(panel, target) and hash(result) == hash(m.didm(panel, target))


@given(didm_report_panels())
def test_didm_report_is_json_dumps_of_to_dict(tmp_path_factory, case):
    """Each field the command line writes is encode_json of the to_dict
    value, a table's rows written as one array, and the whole report and its
    warnings are those of the dict."""
    panel, target = case
    result = m.didm(panel, target)
    report, fields = result.to_dict(), result.report_json()
    assert list(fields) == list(report)
    assert isinstance(fields["components"], _Rows) and isinstance(fields["dropped"], _Rows)
    for key, value in fields.items():
        text = f"[{', '.join(value)}]" if isinstance(value, _Rows) else encode_json(value)
        assert text == encode_json(report[key])
    path = tmp_path_factory.mktemp("didm") / "panel.csv"
    m.write_panel_csv(panel, path)
    argv = ["didm", "--input", str(path), "--target", f"d{target + 1}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 0
    config = {k: v for k, v in vars(cli.build_parser().parse_args(argv)).items()
              if k != "func"}
    head = {"tool": {"name": "multidid", "version": m.__version__}, "config": config,
            "input_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    back = m.didm(m.read_panel_csv(path), target)
    assert out.getvalue() == json.dumps(head | back.to_dict(), default=str) + "\n"
    assert err.getvalue() == _didm_warnings(back.to_dict())


@given(panels(st.just((0.0, 1.0))), st.data())
def test_binary_codes_give_the_strata_of_unique_codes(case, data):
    """On a binary panel, -0.0 included, ``_pack`` takes the values for codes;
    the np.unique coding of every column gives the same strata arrays."""
    panel, target = case
    zero = data.draw(arrays(bool, panel.d.shape, fill=st.nothing())) & (panel.d == 0)
    d = np.where(zero, -0.0, panel.d)
    fast, coded = (m.PanelDataset(panel.group_labels, panel.period_labels, panel.y,
                                  panel.n, d) for _ in range(2))
    assert fast.binary_treatments
    coded.binary_treatments = False
    a, b = didm_mod._strata(fast, target), didm_mod._strata(coded, target)
    for x, y in [(getattr(a, k), getattr(b, k))
                 for k in ("cells", "bins", "n", "ndy", "key", "home", "step")] + [
            (a.lost.gi, b.lost.gi), (a.lost.ti, b.lost.ti), (a.lost.moved, b.lost.moved)]:
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    assert (a.n_kept, a.n_bins) == (b.n_kept, b.n_bins)


# -- the two CSV readers -----------------------------------------------------

LINE_ENDS = ("\n", "\r\n", "\r")
LONG_LABEL = "a-group-label-longer-than-32-characters-"
ODD_VALUES = ("1_000", "\uff11", "\xa01.5", "1e999", "nan", "-0.0", "5e-324", "", "x")
ODD_LABELS = ("1e999", "nan", "zz", "a\x00", "\uff11",
              # integers: spellings of 2, then at and past the int64 ends
              "-0", "+2", "02", " \xa02\u3000", "\x1c2\x1f", "1_000", "\u0968",
              str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 - 1), "9" * 30)
# spellings of one label: those numpy reads as an int64, of any sign, then of a
# positive one; then the others: a float, Unicode blanks, digit groups and
# Devanagari digits (numpy's integer parser can read U+0968 as 2360)
INT_SPELLINGS = ("{}", " {} ", "\t{}\x0c", "\x1c{}\x1f")
UNSIGNED_SPELLINGS = ("0{}", "+{}")
OTHER_SPELLINGS = ("{}.0", "\xa0{}\u3000", "0_{}", "{deva}")
BIG_BASES = (2**63 - 2, -2**63 - 2, 10**20)  # labels past and at the int64 ends
BLANKS = ("  ", ",,", " , ", "\t")


@st.composite
def csv_texts(draw):
    """(text, treatment columns, plain): a long CSV panel, then up to three
    edits among blank and comma-only lines, quoted fields and label columns,
    doubled-quote and mid-field quotes, ragged records, odd values and labels,
    repeated and lost records, with any mix of line ends. Labels are 1, 2, ...
    or, shifted, run past an end of int64, and may all be spelled as numpy reads
    an int64; the last group label may be spelled anew as a float or a string.
    ``plain`` marks texts that numpy must read itself: no quotes, nothing only
    Python's float accepts, no defect."""
    K, G, T = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(2, 3))
    names = draw(st.permutations(["g", "t", "y", "d1", "d2", "d3"][:3 + K]
                                 + ["n"] * draw(st.booleans())
                                 + ["note"] * draw(st.booleans())))
    long_groups, mixed = draw(st.booleans()), draw(st.booleans())
    base, ints = draw(st.sampled_from((0,) * 3 + BIG_BASES)), draw(st.booleans())
    # past int64 "{}.0" would merge labels
    spell = st.sampled_from(INT_SPELLINGS + (() if base else UNSIGNED_SPELLINGS)
                            + (() if base or ints else OTHER_SPELLINGS))
    spelled = {}

    def label(column, i):
        if column == "g" and long_groups:
            return LONG_LABEL + str(i)
        if mixed or (column, i) not in spelled:  # mixed: each record spells anew
            spelled[column, i] = draw(spell).format(base + i, deva=chr(0x966 + i))
        return spelled[column, i]

    def cell(g, t):
        fields = {"g": label("g", g), "t": label("t", t), "y": repr(draw(CSV_VALUES)),
                  "n": repr(draw(CSV_SIZES)), "note": draw(st.sampled_from(("", "x", "a b")))}
        fields.update((f"d{k}", draw(st.sampled_from(("0", "1", "1.0", " 0 "))))
                      for k in (1, 2, 3))
        return [fields[name] for name in names]

    cells = draw(st.permutations([(g, t) for g in range(1, G + 1) for t in range(1, T + 1)]))
    rows = [cell(g, t) for g, t in cells]
    # the last group label spelled anew, after int64 labels in every record before
    if late := draw(st.sampled_from(("", "", "{}.0", "s{}"))):
        rows[-1][names.index("g")] = late.format(base + cells[-1][0])
    plain = not late or late == "{}.0" and not base and not long_groups
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("blank", "odd blank", "quote", "quote labels",
                                     "doubled quote", "mid quote", "ragged long", "short",
                                     "value", "label", "repeat", "lose")))
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        j = draw(st.integers(0, max(len(row) - 1, 0)))
        if edit in ("value", "label", "quote labels"):
            j = names.index(draw(st.sampled_from(
                [c for c in names if c not in ("g", "t", "note")] if edit == "value"
                else ["g", "t"])))
        plain &= edit == "blank" or edit == "ragged long" and len(row) == len(names)
        if edit == "blank":
            rows.insert(at, [""])
        elif edit == "odd blank":
            rows.insert(at, [draw(st.sampled_from(BLANKS))])
        elif edit == "quote labels":  # numpy would keep the quotes in every label
            for other in rows:
                other[j:j + 1] = [f'"{v}"' for v in other[j:j + 1]]
        elif edit == "ragged long":
            row += ["", "extra"][:draw(st.integers(1, 2))]
        elif edit == "short":
            del row[-1]
        elif edit == "repeat":
            rows.insert(at, list(row))
        elif edit == "lose":
            del rows[at]
        elif j >= len(row):  # an earlier edit shortened the record
            pass
        elif edit in ("value", "label"):
            row[j] = draw(st.sampled_from(ODD_VALUES if edit == "value" else ODD_LABELS))
        else:
            row[j] = {"quote": f'"{row[j]}"', "doubled quote": f'"{row[j]}""q"',
                      "mid quote": f'{row[j][:1]}"{row[j][1:]}'}[edit]
    lines = [",".join(names)] + [",".join(row) for row in rows]
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(map("".join, zip(lines, ends)))
    treatments = draw(st.one_of(st.none(), st.lists(
        st.sampled_from([f"D{k}" for k in range(1, K + 1)] + [" d1 "]),
        min_size=1, max_size=K)))
    # a column listed twice is a defect, refused before either reader runs
    if treatments is not None:
        plain &= len({c.strip().lower() for c in treatments}) == len(treatments)
    return text, treatments, plain


def _read_outcome(read, *args):
    """What a reader gives: labels with their types and the value bits, or the
    exception's class and message; plus the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            p = read(*args)
        except (ValueError, MultiDidError) as exc:
            result = (type(exc), str(exc))
        else:
            result = (p.group_labels, tuple(map(type, p.group_labels)), p.period_labels,
                      tuple(map(type, p.period_labels)), p.d.shape,
                      p.y.tobytes(), p.n.tobytes(), p.d.tobytes())
    return result, [str(w.message) for w in caught]


@contextlib.contextmanager
def _numpy_reads():
    """The panels numpy's path returns inside the block."""
    real, panels = panel_mod._read_plain, []

    def spy(*args):
        panels.append(real(*args))
        return panels[-1]
    panel_mod._read_plain = spy
    try:
        yield panels
    finally:
        panel_mod._read_plain = real


@contextlib.contextmanager
def _label_columns():
    """The kinds of label column ingestion sorts inside the block: numpy's
    dtype for an array, else ``list``."""
    real, kinds = panel_mod._sorted_labels, []

    def spy(column, *args):
        kinds.append(column.dtype.name if isinstance(column, np.ndarray) else "list")
        return real(column, *args)
    panel_mod._sorted_labels = spy
    try:
        yield kinds
    finally:
        panel_mod._sorted_labels = real


@pytest.mark.parametrize("spelling, records, kind", [
    ("{}", slice(1, None), "int64"), ("g{}", slice(1, None), "list"),
    ("{}.0", slice(-1, None), "list"), ("{}\u3000", slice(-1, None), "list")])
def test_integer_labels_are_coded_by_numpy(tmp_path, spelling, records, kind):
    """A file shaped like the benchmark's has its labels read and coded as int64
    by numpy; str labels, a late float spelling or a text that is not ASCII
    send the labels through the str path, with the same result."""
    spec = m.DgpSpec(kind="random-binary", n_groups=40, n_periods=6, n_treatments=3,
                     seed=3, cell_sizes="random", base_effects=(1.0, 2.0, -1.0))
    path = tmp_path / "panel.csv"
    m.write_panel_csv(m.generate(spec).panel, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[records] = [spelling.format(g) + "," + rest
                      for g, rest in (line.split(",", 1) for line in lines[records])]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with _numpy_reads() as fast, _label_columns() as kinds:
        got = _read_outcome(m.read_panel_csv, path)
    assert fast and kinds == [kind, kind]
    want = _read_outcome(panel_mod._read_records, io.StringIO(path.read_text("utf-8"),
                                                              newline=""), None, False)
    assert got == want


_LIMIT = csv.field_size_limit()


@settings(max_examples=300)
@given(csv_texts())
@example((f"g,t,y,d1,note\n1,1,0,0,{'x' * (_LIMIT + 1)}\n", None, False))
@example((f"g,t,y,d1\n{'1'.rjust(_LIMIT + 1)},1,0,0\n", None, False))
@example((f"g,t,y,d1\n1,1,0,0\n1,2,0,1\n2,1,0,0\n{'2'.rjust(_LIMIT)},2,0,0\n", None, False))
# Devanagari 2 and New Tai Lue 0, which numpy's integer parser can read as 2360 and 6560
@example(("g,t,y,d1\n\u0968,1,0,0\n\u0968,2,0,1\n\u19d0,1,0,0\n\u19d0,2,0,0\n", None, True))
# a spreadsheet's BOM and CRLF, lines ended by a lone CR, labels that are not ASCII
@example(("\ufeffg,t,y,d1\r\n1,1,0,0\r\n1,2,0,1\r\n2,1,0,0\r\n2,2,0,0\r\n", None, True))
@example(("g,t,y,d1\r1,1,0,0\r1,2,0,1\r2,1,0,0\r2,2,0,0\r", None, True))
@example(("g,t,y,d1\nM\u00fcnchen,1,0,0\nM\u00fcnchen,2,0,1\n\u6771\u4eac,1,0,0\n"
          "\u6771\u4eac,2,0,0\n", None, True))
def test_numpy_reads_what_the_records_read(tmp_path_factory, case):
    text, treatments, plain = case
    path = tmp_path_factory.mktemp("readers") / "panel.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    with _numpy_reads() as fast:
        got = _read_outcome(m.read_panel_csv, path, treatments)
    want = _read_outcome(panel_mod._read_records,  # the file's reader drops a BOM
                         io.StringIO(text.removeprefix("\ufeff"), newline=""),
                         treatments, False)
    assert got == want
    assert fast or not plain


# -- the staggered horizon path ----------------------------------------------


@st.composite
def staggered_panels(draw, anchored=True):
    """Consecutive staggered panel: per group 1 <= F1 <= F2 <= T + 1, T + 1
    meaning never, with never-treated groups and simultaneous adopters.
    Groups 0 and 1 share a cohort c <= T - 1 and adopt the second treatment
    at some a > c and never, which makes cohort c eligible; without
    ``anchored`` they draw their dates like the others, so the design may
    have no eligible cohort."""
    G, T = draw(st.integers(2, 10)), draw(st.integers(3, 8))
    c = draw(st.integers(1, T - 1))
    a = draw(st.integers(c + 1, T))
    dates = sorted({c, T + 1, *draw(st.lists(st.integers(1, T), max_size=2))})
    head = 2 if anchored else 0
    f1 = np.array([c, c][:head] + draw(st.lists(st.sampled_from(dates), min_size=G - head,
                                                max_size=G - head)))
    f2 = np.array([a, T + 1][:head] + [draw(st.integers(f, T + 1)) for f in f1[head:]])
    periods = np.arange(1, T + 1)
    d = np.stack([periods >= f1[:, None], periods >= f2[:, None]]).astype(float)
    y = draw(arrays(float, (G, T), elements=st.floats(-50, 50), fill=st.nothing()))
    # sizes whose sums round, so that a change of summation order shows
    n = draw(arrays(float, (G, T), elements=st.floats(0.1, 4.0), fill=st.nothing()))
    return m.PanelDataset(range(G), [2000 + 2 * t for t in periods], y, n, d)


@given(staggered_panels(anchored=False))
def test_l_nt_is_the_reach_of_the_eligible_cohorts(panel):
    """``l_nt`` is the loop reference's largest in-cohort reach and the last
    horizon of the second treatment's event study; a design without an
    eligible cohort, and only such a design, is pathological."""
    reach = cohort_reach(adoption_dates(panel, 0), adoption_dates(panel, 1))
    if reach is None:
        with pytest.raises(PathologicalDesign):
            m.build_cohorts(panel, 0, 1)
        return
    assert m.build_cohorts(panel, 0, 1).l_nt == reach
    assert max(m.second_treatment_effects(panel, 0, 1, placebos=False).estimates) == reach


@given(staggered_panels())
def test_did_ell_is_the_event_study_horizon(panel):
    structure = m.build_cohorts(panel, 0, 1)
    study = m.second_treatment_effects(panel, 0, 1)
    assert sorted(study.estimates) == list(range(structure.l_nt + 1))
    for ell in range(structure.l_nt + 1):
        estimate, components = m.did_ell(panel, structure, ell)
        assert estimate == study.estimates[ell]
        assert components == study.components[ell]
        n_ell = sum(c.n_treated for c in components)
        assert [c.weight for c in components] == [c.n_treated / n_ell for c in components]


@given(staggered_panels())
def test_placebo_ell_is_the_event_study_placebo(panel):
    structure = m.build_cohorts(panel, 0, 1)
    placebos = m.second_treatment_effects(panel, 0, 1).placebos
    feasible = tuple(ell for ell in sorted(placebos) if ell <= structure.l_nt)
    for ell in range(structure.l_nt + 1):
        if ell in placebos:
            assert m.placebo_ell(panel, structure, ell) == placebos[ell]
        else:
            with pytest.raises(InsufficientPrePeriods) as err:
                m.placebo_ell(panel, structure, ell)
            assert err.value.feasible_horizons == feasible


@given(staggered_panels(), st.data())
def test_did_ell_reducer_is_the_event_study_table(panel, data):
    """A bootstrap draw's did_ell is the event-study table's estimate at cell
    sizes counts * n, and None exactly where that table has no contrast."""
    counts = np.array(data.draw(st.lists(st.integers(0, 3), min_size=panel.n_groups,
                                         max_size=panel.n_groups)), dtype=float)
    structure = m.build_cohorts(panel, 0, 1)
    estimates = staggered._horizons(panel, structure.f2, structure.f1, panel.n_periods,
                                    False, counts[:, None] * panel.n)[0]
    for ell in range(structure.l_nt + 1):
        estimate = staggered._did_ell_reducer(panel, 0, 1, ell)(counts)
        if ell in estimates:
            assert estimate == estimates[ell]
        else:
            assert estimate is None


def _same(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


@given(staggered_panels())
def test_linear_trends_match_the_polyfit_oracle(panel):
    structure = m.build_cohorts(panel, 0, 1)
    for ell in range(panel.n_periods):
        estimate, contributions, dropped = polyfit_linear_trends(panel, structure, ell)
        if estimate is None:
            with pytest.raises(InsufficientPrePeriods) as err:
                m.did_ell_linear_trends(panel, structure, ell)
            assert err.value.dropped == dropped
            continue
        result = m.did_ell_linear_trends(panel, structure, ell)
        assert result.dropped == dropped
        assert [g for g, _, _ in result.contributions] == [g for g, _, _ in contributions]
        assert _same(result.estimate, estimate)
        for (_, value, weight), (_, want_value, want_weight) in zip(
                result.contributions, contributions):
            assert _same(value, want_value) and _same(weight, want_weight)


def _encoded_fields(fields: dict, report: dict) -> None:
    """Each field the command line writes is encode_json of the to_dict
    value, a table's rows written as one array."""
    assert list(fields) == list(report)
    for key, value in fields.items():
        text = f"[{', '.join(value)}]" if isinstance(value, _Rows) else encode_json(value)
        assert text == encode_json(report[key])


def _eager_components(result: m.DynamicEffectResult) -> dict:
    """An event study's components as they were built before its table was
    kept as arrays: a record per component, at once, by horizon."""
    ells, cohorts, periods, *numbers = result.table
    components = {}
    for i, ell in enumerate(ells.tolist()):
        components.setdefault(ell, []).append(HorizonComponent(
            result.labels[int(cohorts[i])], result.labels[int(periods[i])],
            *(float(a[i]) for a in numbers)))
    return {ell: tuple(records) for ell, records in components.items()}


@given(staggered_panels(anchored=False))
def test_event_study_reports_are_encoded_to_dicts(panel):
    """Every study, with and without placebos, and the linear-trend report:
    report_json writes the to_dict bytes, and the records read on demand are
    those built at once (repr tells -0.0 from 0.0 and 1 from 1.0)."""
    for study in (m.second_treatment_effects, m.first_treatment_effects, m.combined_effects):
        for placebos in (True, False):
            try:
                result = study(panel, 0, 1, placebos=placebos)
            except MultiDidError:
                continue
            _encoded_fields(result.report_json(), result.to_dict())
            components = _eager_components(result)
            assert result.components == components
            assert repr(result.components) == repr(components)
            assert result == study(panel, 0, 1, placebos=placebos)
    try:
        structure = m.build_cohorts(panel, 0, 1)
    except PathologicalDesign:
        return
    horizons = {}
    for ell in range(panel.n_periods):
        try:
            result = horizons[ell] = m.did_ell_linear_trends(panel, structure, ell)
        except InsufficientPrePeriods:
            continue
        fitted, value, weight, short = result.arrays
        labels = panel.group_labels
        contributions = tuple((labels[int(g)], float(v), float(w))
                              for g, v, w in zip(fitted, value, weight))
        dropped = tuple((labels[int(g)], "fewer_than_two_pre_periods") for g in short)
        assert (result.contributions, result.dropped) == (contributions, dropped)
        assert repr((result.contributions, result.dropped)) == repr((contributions, dropped))
        again = m.did_ell_linear_trends(panel, structure, ell)
        assert result == again and hash(result) == hash(again)
    if horizons:
        _encoded_fields({"horizons": staggered._linear_report(horizons, panel.group_labels)},
                        {"horizons": [{"ell": ell, **result.to_dict()}
                                      for ell, result in sorted(horizons.items())]})


def _eager_study(result: m.DynamicEffectResult, components: dict) -> dict:
    """An event study's ``to_dict`` built from its records, as it was before
    its tables had one layout."""
    def by_ell(values, key):
        return [{"ell": ell, key: v} for ell, v in sorted(values.items())]

    return {"horizons": [{"ell": ell, "estimate": result.estimates[ell], "components": [
                {"f": c.cohort, "t": c.period, "did": c.value, "n_treated": c.n_treated,
                 "n_control": c.n_control, "weight": c.weight} for c in records]}
                         for ell, records in components.items()],
            "placebos": by_ell(result.placebos, "estimate"),
            "standard_errors": (None if result.standard_errors is None
                                else by_ell(result.standard_errors, "se"))}


@given(staggered_panels(anchored=False))
def test_event_study_dicts_are_those_of_the_records(panel):
    """Every study's ``to_dict``, ``csv_rows`` and repr, with and without
    standard errors, and each linear-trend horizon's ``to_dict`` and their
    report, against the records built at once (repr tells -0.0 from 0.0 and
    1 from 1.0)."""
    for study in (m.second_treatment_effects, m.first_treatment_effects, m.combined_effects):
        for placebos in (True, False):
            try:
                result = study(panel, 0, 1, placebos=placebos)
            except MultiDidError:
                continue
            components = _eager_components(result)
            assert repr(result.to_dict()) == repr(_eager_study(result, components))
            assert repr(result) == (f"DynamicEffectResult(estimates={result.estimates!r}, "
                                    f"components={components!r}, placebos={result.placebos!r}, "
                                    f"standard_errors=None)")
            assert repr(result.csv_rows()) == repr(
                [(ell, c.cohort, c.period, c.value, c.n_treated, c.n_control, c.weight)
                 for ell, records in components.items() for c in records])
            with_se = dataclasses.replace(result, standard_errors={0: 0.5})
            assert repr(with_se.to_dict()) == repr(_eager_study(with_se, components))
            _encoded_fields(with_se.report_json(), with_se.to_dict())
    try:
        structure = m.build_cohorts(panel, 0, 1)
    except PathologicalDesign:
        return
    horizons, reports = {}, {}
    for ell in range(panel.n_periods):
        try:
            result = horizons[ell] = m.did_ell_linear_trends(panel, structure, ell)
        except InsufficientPrePeriods:
            continue
        reports[ell] = {"estimate": result.estimate,
                        "contributions": [{"g": g, "value": v, "weight": w}
                                          for g, v, w in result.contributions],
                        "dropped": [{"g": g, "reason": r} for g, r in result.dropped]}
        assert repr(result.to_dict()) == repr(reports[ell])
    if reports:
        _encoded_fields({"horizons": staggered._linear_report(horizons, panel.group_labels)},
                        {"horizons": [{"ell": ell, **report}
                                      for ell, report in sorted(reports.items())]})


# -- the --output csv tables against csv.writer over to_dict -------------------


def _table(tmp_path_factory, panel, argv):
    """The exit code and standard output of ``argv`` with ``--output csv`` on
    ``panel`` written to a file, and the panel read back from that file."""
    path = tmp_path_factory.mktemp("table") / "panel.csv"
    m.write_panel_csv(panel, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--input", str(path), "--output", "csv"])
    return code, out.getvalue(), m.read_panel_csv(path)


def _csv_text(header, rows) -> str:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


@given(report_panels())
def test_decompose_table_is_csv_of_the_report_dict(tmp_path_factory, case):
    panel, target = case
    code, out, back = _table(tmp_path_factory, panel, ["decompose", "--target", f"d{target + 1}"])
    decomp = _decompose(back, target)
    report = m.decomposition_report(decomp, m.summarize(decomp, back))
    rows = [(c["g"], c["t"], role, c["weight"]) for role in ("own", "contamination")
            for c in report[role]]
    assert (code, out) == (0, _csv_text(["g", "t", "role", "weight"], rows))


@given(didm_report_panels())
def test_didm_table_is_csv_of_to_dict(tmp_path_factory, case):
    panel, target = case
    code, out, back = _table(tmp_path_factory, panel, ["didm", "--target", f"d{target + 1}"])
    rows = [(c["t"], "|".join(map(repr, c["baseline"])), c["direction"], c["did"], c["weight"])
            for c in m.didm(back, target).to_dict()["components"]]
    assert (code, out) == (0, _csv_text(["t", "baseline", "direction", "did", "weight"], rows))


@given(staggered_panels(anchored=False))
def test_event_study_tables_are_csv_of_to_dict(tmp_path_factory, panel):
    """Each study's table, or its refusal with the error's exit code."""
    studies = {"second": m.second_treatment_effects, "first": m.first_treatment_effects,
               "combined": m.combined_effects}
    for strategy, study in studies.items():
        code, out, back = _table(tmp_path_factory, panel, ["dynamic", "--first", "d1",
                                                           "--second", "d2",
                                                           "--strategy", strategy])
        try:
            horizons = study(back, 0, 1).to_dict()["horizons"]
        except MultiDidError as exc:
            assert (code, out) == (exc.exit_code, "")
            continue
        rows = [(h["ell"], c["f"], c["t"], c["did"], c["n_treated"], c["n_control"],
                 c["weight"]) for h in horizons for c in h["components"]]
        assert (code, out) == (0, _csv_text(["ell", "f", "t", "did", "n_treated", "n_control",
                                             "weight"], rows))
