"""Property-based invariants of the weight decomposition, of the switcher
estimator, of canonical values, of CSV round trips, of the staggered
horizon path and of the bootstrap's parallelism."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import multidid as m
from multidid.errors import (
    CollinearTreatments,
    DegenerateDenominator,
    InsufficientPrePeriods,
)

from .oracles import brute_force_didm, dense_dummy_fit, polyfit_linear_trends

LEVELS = [(0.0, 1.0), (0.0, 1.0, 2.0), (-1.0, 0.5, 2.0, 3.25)]
SUB_TOL = (5e-13, -5e-13, 9e-13, -9e-13)


@st.composite
def treatments(draw, levels=st.sampled_from(LEVELS)):
    """(K, G, T) treatment values on one level set. Groups start from one of
    two vectors and each value moves with probability 1/4 per period, so
    stayers, matched switchers and both drop reasons are all common."""
    K, G, T = draw(st.integers(1, 4)), draw(st.integers(2, 8)), draw(st.integers(2, 4))
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
        assert decomp.per_other_treatment_sums[j] == pytest.approx(0.0, abs=1e-12)


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


@st.composite
def labelled_panels(draw):
    """A panel with int, year, float or str labels and values that include
    -0.0, subnormals and +-1e300; sizes are all 1 when the file has no n."""
    G, T, K = draw(st.integers(2, 5)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    groups, periods = (sorted(draw(st.lists(draw(st.sampled_from(LABEL_KINDS)),
                                            min_size=size, max_size=size, unique=True)))
                       for size in (G, T))
    with_n = draw(st.booleans())

    def grid(shape, elements):
        return draw(arrays(float, shape, elements=elements, fill=st.nothing()))

    n = grid((G, T), CSV_SIZES) if with_n else np.ones((G, T))
    panel = m.PanelDataset(groups, periods, grid((G, T), CSV_VALUES), n,
                           grid((K, G, T), CSV_VALUES))
    return panel, with_n


def _assert_same_panel(got, want):
    for a, b in ((got.group_labels, want.group_labels),
                 (got.period_labels, want.period_labels)):
        assert a == b and list(map(type, a)) == list(map(type, b))
    for a, b in ((got.y, want.y), (got.n, want.n), (got.d, want.d)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()  # bit for bit, -0.0 too


@given(labelled_panels(), st.data())
def test_csv_round_trip_is_exact(tmp_path_factory, case, data):
    panel, with_n = case
    path = tmp_path_factory.mktemp("round_trip") / "panel.csv"
    m.write_panel_csv(panel, path)
    header, *body = path.read_text().splitlines()
    if not with_n:  # no field is quoted, so the n column is the fourth field
        header, *body = (",".join(line.split(",")[:3] + line.split(",")[4:])
                         for line in [header, *body])
        path.write_text("\n".join([header, *body]) + "\n")
    back = m.read_panel_csv(path)
    _assert_same_panel(back, panel)

    shuffled = data.draw(st.permutations(body))
    for _ in range(data.draw(st.integers(0, 3))):
        shuffled.insert(data.draw(st.integers(0, len(shuffled))),
                        data.draw(st.sampled_from(("", "   ", ",,", " , "))))
    path.write_text("\n".join([header, *shuffled]) + "\n")
    _assert_same_panel(m.read_panel_csv(path), panel)

    rows = [(g, t, float(panel.y[gi, ti]), *([float(panel.n[gi, ti])] if with_n else []),
             *map(float, panel.d[:, gi, ti]))
            for gi, g in enumerate(panel.group_labels)
            for ti, t in enumerate(panel.period_labels)]
    _assert_same_panel(m.load_panel(rows, panel.n_treatments), back)


# -- the staggered horizon path ----------------------------------------------


@st.composite
def staggered_panels(draw):
    """Consecutive staggered panel: per group 1 <= F1 <= F2 <= T + 1, T + 1
    meaning never, with never-treated groups and simultaneous adopters.
    Groups 0 and 1 share a cohort c <= T - 1 and adopt the second treatment
    at some a > c and never, which makes cohort c eligible."""
    G, T = draw(st.integers(2, 10)), draw(st.integers(3, 8))
    c = draw(st.integers(1, T - 1))
    a = draw(st.integers(c + 1, T))
    dates = sorted({c, T + 1, *draw(st.lists(st.integers(1, T), max_size=2))})
    f1 = np.array([c, c] + draw(st.lists(st.sampled_from(dates), min_size=G - 2,
                                         max_size=G - 2)))
    f2 = np.array([a, T + 1] + [draw(st.integers(f, T + 1)) for f in f1[2:]])
    periods = np.arange(1, T + 1)
    d = np.stack([periods >= f1[:, None], periods >= f2[:, None]]).astype(float)
    y = draw(arrays(float, (G, T), elements=st.floats(-50, 50), fill=st.nothing()))
    # sizes whose sums round, so that a change of summation order shows
    n = draw(arrays(float, (G, T), elements=st.floats(0.1, 4.0), fill=st.nothing()))
    return m.PanelDataset(range(G), [2000 + 2 * t for t in periods], y, n, d)


@given(staggered_panels())
def test_did_ell_is_the_event_study_horizon(panel):
    structure = m.build_cohorts(panel, 0, 1)
    study = m.second_treatment_effects(panel, 0, 1)
    assert sorted(study.estimates) == list(range(structure.l_nt + 1))
    for ell in range(structure.l_nt + 1):
        estimate, components = m.did_ell(panel, structure, ell)
        assert estimate == study.estimates[ell]
        assert components == study.components[ell]
        assert sum(c.n_treated for c in components) == structure.n_ell[ell]


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


# -- the bootstrap ------------------------------------------------------------

def _bootstrap_at(parallelism, panel, estimator, seed, **kwargs):
    try:
        return m.bootstrap_se(panel, estimator, 12, seed, parallelism=parallelism,
                              keep_replicates=True, **kwargs)
    except m.MultiDidError as exc:
        return type(exc), str(exc)


@given(panels(), st.sampled_from(("didm", "twfe")), st.integers(0, 2 ** 32))
def test_bootstrap_is_the_same_at_any_parallelism(case, estimator, seed):
    panel, target = case
    serial = _bootstrap_at(1, panel, estimator, seed, target=target)
    assert _bootstrap_at(2, panel, estimator, seed, target=target) == serial
    assert _bootstrap_at(8, panel, estimator, seed, target=target) == serial


@given(staggered_panels(), st.integers(0, 2), st.integers(0, 2 ** 32))
def test_did_ell_bootstrap_is_the_same_at_any_parallelism(panel, ell, seed):
    serial = _bootstrap_at(1, panel, "did_ell", seed, ell=ell)
    assert _bootstrap_at(2, panel, "did_ell", seed, ell=ell) == serial
    assert _bootstrap_at(8, panel, "did_ell", seed, ell=ell) == serial
