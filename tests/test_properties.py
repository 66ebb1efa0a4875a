"""Property-based invariants of the switcher estimator and of canonical values."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import multidid as m

from .oracles import brute_force_didm

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
