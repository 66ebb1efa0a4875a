"""The TWFE coefficient and its bootstrap draws.

``tests/oracles.py::exact_twfe`` solves the dummy-variable normal equations in
rationals at cell weights ``counts[g] * n``. On tiny random panels the
library's coefficient (one copy of each group) and its count-weighted draws
must agree with it to 1e-12 relative wherever both are defined and the exact
denominator is not near zero; at one copy the oracle's own weights must obey
Theorem 1 exactly.

A draw is answered from per-group tables (``decomposition._draw``) unless a
decision is near its threshold, a cancellation would cost digits, or a value
overflows; then the drawn groups are refitted (``decomposition._fit``). Each
fixture below reaches one such case: a refitted draw must give the refit's
value or exception bit for bit, and any other draw its value within 1e-12.
"""

import importlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import multidid as m
from multidid import decomposition
from multidid.bootstrap import _DEGENERATE, _reducer
from multidid.errors import (
    CollinearTreatments,
    DegenerateDenominator,
    NonFiniteValue,
    NumericallySingular,
)

from .conftest import (
    degenerate_denominator_panel,
    light_first_period_panel,
    make_random_panel,
    overflowing_replicates_panel,
)
from .oracles import exact_twfe


def _outcome(f, *args):
    """``f(*args)``, or the class of the degenerate error it raises."""
    try:
        return f(*args)
    except _DEGENERATE as e:
        return type(e)


def _far_from_zero(panel, target, counts, exact):
    """Whether the exact denominator is above 1e-6 of the target's
    unpartialled weighted square, the scale its rounding error follows."""
    square = sum(Fraction(c) * Fraction(n) * Fraction(v) ** 2 for c, row_n, row_d in
                 zip(counts.tolist(), panel.n.tolist(), panel.d[target].tolist())
                 for n, v in zip(row_n, row_d))
    return exact[2] > square * Fraction(1, 10 ** 6)


def test_coefficient_and_draws_match_the_exact_oracle():
    rng = np.random.default_rng(4040)
    compared = 0
    for i in range(30):
        panel = make_random_panel(rng, g_max=6, t_max=5, k_max=3, integer_sizes=i % 2 == 0)
        G, target = panel.n_groups, int(rng.integers(0, panel.n_treatments))
        estimate = _reducer(panel, "twfe", target, 0, 1, 0)
        draws = [np.ones(G, int)] + [rng.integers(0, 4, size=G) for _ in range(3)]
        for counts in draws:
            if not counts.any():
                continue
            exact = exact_twfe(panel, target, counts.tolist())
            got = _outcome(estimate, counts.astype(float))
            if (counts == 1).all():
                assert got == _outcome(m.twfe_coefficient, panel, target)
            if (exact is None or isinstance(got, type)
                    or not _far_from_zero(panel, target, counts, exact)):
                continue
            beta = float(exact[0])
            assert abs(got - beta) <= 1e-12 * abs(beta), (i, counts, got, beta)
            compared += 1
    assert compared >= 90


def _dyadic_panel(rng):
    """A tiny binary panel whose outcome is, exactly in floats, group plus
    period effects plus each treatment's cell effect where it is on; the
    effects are eighths. Returns the panel and the (K, G, T) effects."""
    G, T, K = int(rng.integers(3, 7)), int(rng.integers(2, 6)), int(rng.integers(1, 4))
    d = (rng.random((K, G, T)) < 0.5).astype(float)
    effects = rng.integers(-16, 17, size=(K, G, T)) / 8
    y = (rng.integers(-8, 9, size=(G, 1)) + rng.integers(-8, 9, size=(1, T))) / 4
    y = y + (d * effects).sum(axis=0)
    n = rng.integers(1, 6, size=(G, T)).astype(float)
    return m.PanelDataset(range(G), range(T), y, n, d), effects


def test_theorem_one_holds_exactly_at_one_copy():
    rng = np.random.default_rng(4041)
    checked = 0
    for _ in range(25):
        panel, effects = _dyadic_panel(rng)
        target = int(rng.integers(0, panel.n_treatments))
        exact = exact_twfe(panel, target, [1] * panel.n_groups)
        if exact is None:
            continue
        beta, weights, _ = exact
        on = {k: [cell for cell in weights if panel.d[(k, *cell)] == 1]
              for k in range(panel.n_treatments)}
        assert sum(weights[cell] for cell in on[target]) == 1
        for k in on:
            if k != target:
                assert sum(weights[cell] for cell in on[k]) == 0
        assert beta == sum(weights[cell] * Fraction(effects[(k, *cell)])
                           for k in on for cell in on[k])
        checked += 1
    assert checked >= 15


def _panel(n, d, y=None):
    G, T = n.shape
    y = np.arange(G * T, dtype=float).reshape(G, T) % 5 if y is None else y
    return m.PanelDataset(range(G), range(T), y, n, d)


def _light_first_period(size):
    """``light_first_period_panel(heavy_group=True)`` with the other groups'
    first-period sizes at ``size``: without group 0 the Schur complement is
    ``size``-close to singular."""
    p = light_first_period_panel(heavy_group=True)
    n = p.n.copy()
    n[1:, 0] = size
    return _panel(n, p.d, p.y)


def _period_dummy_but_group_0():
    """d is on from period 2 in every group but group 0, which has it on in
    period 3 alone: in a draw without group 0 it is a period effect."""
    d = np.zeros((1, 5, 3))
    d[0, 1:, 1:] = 1.0
    d[0, 0, 2] = 1.0
    return _panel(np.ones((5, 3)) + np.arange(15).reshape(5, 3) % 3, d)


def _near_collinear(size):
    """``degenerate_denominator_panel`` with its distinguishing cell at
    ``size``: d1 partialled on d2 and the effects lives on that cell."""
    p = degenerate_denominator_panel()
    n = p.n.copy()
    n[2, 1] = size
    return _panel(n, p.d, p.y)


def _tiny_target_cell():
    """d on at one cell alone, of size 1e-12: its partialled variance keeps
    most of its own square, but falls below the denominator's threshold."""
    d = np.zeros((1, 4, 3))
    d[0, 1, 2] = 1.0
    n = np.ones((4, 3))
    n[1, 2] = 1e-12
    return _panel(n, d)


def _products_overflow():
    d = np.array([[[0, 1, 1], [0, 0, 0], [0, 0, 1], [0, 0, 0]]], dtype=float)
    y = np.array([[0, 1, 2], [0, 0.5, 0.2], [1, 0, 2], [0, 1, 1]]) * 1.4e8
    return _panel(np.full((4, 3), 1e300), d, y)


# fixture, target, and the outcomes of its draws: float for a finite coefficient
NEAR_THRESHOLD = {
    "fixed effects singular without group 0": (
        lambda: light_first_period_panel(heavy_group=True), 0, {float, NumericallySingular}),
    "fixed effects close to singular without group 0": (
        lambda: _light_first_period(1e-9), 0, {float}),
    "target a period effect without group 0": (
        _period_dummy_but_group_0, 0, {float, CollinearTreatments}),
    "partialled target a 1e-9 sliver of its square": (
        lambda: _near_collinear(1e-9), 0, {float, CollinearTreatments}),
    "partialled target under the denominator threshold": (
        _tiny_target_cell, 0, {DegenerateDenominator, CollinearTreatments}),
    "outcome squares past the float range": (
        overflowing_replicates_panel, 0, {float, CollinearTreatments}),
    "sizes near the float range": (
        _products_overflow, 0, {float, NonFiniteValue, CollinearTreatments}),
}


@pytest.fixture
def draws(monkeypatch):
    """What ``decomposition._draw`` returned, call by call: None for a draw
    left undecided."""
    returned = []
    draw = decomposition._draw

    def recording(*args):
        returned.append(draw(*args))
        return returned[-1]
    monkeypatch.setattr(decomposition, "_draw", recording)
    return returned


@pytest.mark.parametrize("case", NEAR_THRESHOLD)
def test_draws_near_a_threshold_are_refitted(case, draws):
    make, target, kinds = NEAR_THRESHOLD[case]
    panel = make()
    G = panel.n_groups
    estimate = _reducer(panel, "twfe", target, 0, 1, 0)
    outcomes = []
    for rep in range(30):
        draw = np.random.Generator(np.random.Philox(np.random.SeedSequence((3, rep))))
        counts = np.bincount(draw.integers(0, G, size=G), minlength=G).astype(float)
        drawn = np.flatnonzero(counts)
        refit = _outcome(decomposition._fit, counts[drawn, None] * panel.n[drawn],
                         panel.d[:, drawn], panel.y[drawn], target, panel.treatment_names)
        called = len(draws)
        outcomes.append(_outcome(estimate, counts))
        if len(draws) > called and draws[-1] is not None:  # answered from the tables
            assert abs(outcomes[-1] - refit) <= 1e-12 * max(1.0, abs(refit)), (case, counts)
        else:
            assert outcomes[-1] == refit or outcomes[-1] is refit, (case, counts)
    assert draws.count(None) > 0
    assert {v if isinstance(v, type) else float for v in outcomes} == kinds


def test_no_bench_draw_is_refitted(monkeypatch, draws):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spec = importlib.import_module("workloads").static_spec(1000, 30, 1)
    panel = m.generate(spec).panel
    for target in range(panel.n_treatments):
        result = m.bootstrap_se(panel, "twfe", 200, 1, target=target)
        assert result.n_degenerate == 0
    assert len(draws) == 600 and None not in draws
