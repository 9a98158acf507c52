import numpy as np
import pytest

from dealopt import bench
from dealopt.core import UsageError
from dealopt.directions import (ALPHA_MAX, DirectionRule, beta_for_holder, generalize,
                                validate_sufficient_descent)


def test_gradient_rule_is_negative_gradient():
    rule = DirectionRule("gradient")
    g = np.array([3.0, 4.0])
    d = rule.base_direction(np.zeros(2), g)
    assert d == pytest.approx([-3.0, -4.0])
    check = validate_sufficient_descent(d, g, 1.0, 1.0)
    assert check.passed
    assert check.c1_measured == pytest.approx(1.0)
    assert check.c2_measured == pytest.approx(1.0)


def test_bb1_hand_inner_products():
    rule = DirectionRule("bb1")
    x0, g0 = np.array([0.0, 0.0]), np.array([-1.0, 1.0])
    rule.push(x0, g0)
    x1 = x0 + np.array([1.0, 0.0])       # s = (1, 0)
    g1 = g0 + np.array([2.0, 0.0])       # y = (2, 0)
    d = rule.base_direction(x1, g1)      # scaling <s,s>/<s,y> = 1/2
    assert d == pytest.approx(-0.5 * g1)
    assert g1 == pytest.approx([1.0, 1.0])
    assert d == pytest.approx([-0.5, -0.5])


def test_bb2_scaling():
    rule = DirectionRule("bb2")
    rule.push(np.zeros(2), np.zeros(2) - 1.0)
    d = rule.base_direction(np.array([1.0, 0.0]), np.array([1.0, -1.0]))
    # s=(1,0), y=(2,0): <s,y>/<y,y> = 2/4
    assert d == pytest.approx([-0.5, 0.5])


def test_bb_negative_curvature_falls_back():
    rule = DirectionRule("bb1")
    rule.push(np.zeros(2), np.array([1.0, 1.0]))
    g = np.array([2.0, 2.0])  # y = (1,1), s = (-1,0) -> <s,y> = -1
    d = rule.base_direction(np.array([-1.0, 0.0]), g)
    assert d == pytest.approx(-g)
    assert rule.fallback_count == 1


def test_bb_scaling_clamped():
    rule = DirectionRule("bb1")
    rule.push(np.zeros(1), np.array([1.0]))
    # s = 1e4, y = 1e-5 -> raw scaling 1e9, clamped to ALPHA_MAX = 1e8
    d = rule.base_direction(np.array([1e4]), np.array([1.0 + 1e-5]))
    assert ALPHA_MAX == 1e8
    assert d == pytest.approx(-(1.0 + 1e-5) * ALPHA_MAX)


def test_no_history_uses_gradient():
    for kind in ("bb1", "bb2", "lbfgs"):
        rule = DirectionRule(kind)
        g = np.array([1.0, -2.0])
        assert rule.base_direction(np.zeros(2), g) == pytest.approx(-g)


def test_lbfgs_single_pair_matches_two_loop_by_hand():
    rule = DirectionRule("lbfgs", memory=5)
    x0 = np.array([0.0, 0.0])
    g0 = np.array([2.0, 1.0])
    rule.push(x0, g0)
    x1 = np.array([1.0, -1.0])
    g1 = np.array([3.0, 0.0])   # y = (1, -1), s = (1, -1): curvature 2 > 0
    rule.push(x1, g1)
    g = np.array([0.5, -0.5])
    d = rule.base_direction(np.array([2.0, 0.0]), g)
    # independent two-loop for one (s, y) pair
    s, y = x1 - x0, g1 - g0
    sy = s @ y
    a = (s @ g) / sy
    q = g - a * y
    r = (sy / (y @ y)) * q
    b = (y @ r) / sy
    expected = -(r + s * (a - b))
    assert d == pytest.approx(expected)


def test_lbfgs_approaches_newton_on_quadratic():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((6, 4))
    Q = M.T @ M + 0.5 * np.eye(4)
    rule = DirectionRule("lbfgs", memory=10)
    x = rng.standard_normal(4)
    for _ in range(12):
        g = Q @ x
        d = rule.base_direction(x, g)
        assert g @ d < 0.0  # always a descent direction
        rule.push(x, g)
        x = x + 0.2 * d
    g = Q @ x
    d = rule.base_direction(x, g)
    newton = -np.linalg.solve(Q, g)
    cos = (d @ newton) / (np.linalg.norm(d) * np.linalg.norm(newton))
    assert cos > 0.9


def test_generalize_examples_and_errors():
    d_bar = np.array([-3.0, -4.0])
    g = np.array([3.0, 4.0])  # norm 5
    assert generalize(d_bar, g, beta=1.0) == pytest.approx([-15.0, -20.0])
    assert generalize(d_bar, g, beta=0.0) == pytest.approx(d_bar)
    with pytest.raises(UsageError):
        generalize(d_bar, g, beta=-1.0)
    with pytest.raises(UsageError, match="beta must exceed -1, got nan"):
        generalize(d_bar, g, beta=float("nan"))
    with pytest.raises(UsageError):
        generalize(d_bar, np.zeros(2), beta=-0.5)


def test_generalized_exponent_pair():
    # with nu = 0.5, beta = 1: <g, d> = -||g||^3 and ||d|| = ||g||^2 for d_bar = -g
    assert beta_for_holder(0.5) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = rng.standard_normal(3)
        d = generalize(-g, g, beta=1.0)
        gn = np.linalg.norm(g)
        assert g @ d == pytest.approx(-gn ** 3, rel=1e-12)
        assert np.linalg.norm(d) == pytest.approx(gn ** 2, rel=1e-12)


def test_generalize_preserves_orientation():
    rng = np.random.default_rng(2)
    for beta in (-0.9, -0.2, 0.0, 0.5, 1.0, 3.0):
        g = rng.standard_normal(4)
        d_bar = rng.standard_normal(4)
        d = generalize(d_bar, g, beta)
        assert np.sign(g @ d) == np.sign(g @ d_bar)


def test_validate_orthogonal_fails():
    g = np.array([1.0, 0.0])
    check = validate_sufficient_descent(np.array([0.0, 1.0]), g, 1.0, 1.0)
    assert not check.passed
    assert check.c1_measured == pytest.approx(0.0)


def test_sufficient_fallback_enforced():
    rule = DirectionRule("bb1", c1=1.0, c2=1.0)
    rule.push(np.zeros(1), np.array([1.0]))
    # BB scaling 2 violates c2 = 1 -> falls back to -grad
    d = rule.sufficient_base_direction(np.array([2.0]), np.array([2.0]))
    assert rule.fallback_count == 1
    assert d == pytest.approx([-2.0])


def test_rule_constructor_validation():
    with pytest.raises(UsageError):
        DirectionRule("nope")
    with pytest.raises(UsageError):
        DirectionRule("gradient", beta=-1.0)
    with pytest.raises(UsageError, match="beta must exceed -1, got nan"):
        DirectionRule("gradient", beta=float("nan"))  # compares false with -1
    with pytest.raises(UsageError):
        DirectionRule("gradient", c1=2.0)  # fallback could not satisfy
    with pytest.raises(UsageError):
        DirectionRule("gradient", c2=0.5)
    with pytest.raises(UsageError):
        rule = DirectionRule("gradient")
        rule.base_direction(np.zeros(2), np.zeros(2))


def test_push_keeps_history_only_for_rules_that_read_it():
    x0, g0 = np.zeros(2), np.array([2.0, 1.0])
    x1, g1 = np.array([1.0, -1.0]), np.array([3.0, 0.0])   # curvature <s, y> = 2
    rule = DirectionRule("gradient")
    rule.push(x0, g0)
    rule.push(x1, g1)
    assert rule._prev_x is None and rule._prev_g is None and not rule._pairs
    assert rule.base_direction(x1, g1) == pytest.approx(-g1)
    for kind in ("bb1", "bb2", "lbfgs"):
        rule = DirectionRule(kind)
        rule.push(x0, g0)
        rule.push(x1, g1)
        assert np.array_equal(rule._prev_x, x1) and np.array_equal(rule._prev_g, g1)
        assert len(rule._pairs) == 1


def test_lbfgs_memory_is_one_pair_behind_through_a_run(monkeypatch):
    # deal_loop takes the direction at x_k before it pushes (x_k, g_k): the
    # memory at x_k holds k - 1 pairs, the newest (x_{k-1} - x_{k-2}, ...),
    # and the directions at x_0 and x_1 are -g.  Pushing first moves
    # BPGA-LBFGS on sec53 (876 -> 915 steps over seeds 0-39), so the order
    # is pinned here.
    pushed, seen = [], []
    push, lbfgs = DirectionRule.push, DirectionRule._lbfgs_direction

    def recording_push(self, x, grad):
        pushed.append(np.array(x))
        push(self, x, grad)

    def recording_lbfgs(self, grad):
        d = lbfgs(self, grad)
        newest = (np.array_equal(self._pairs[-1][0], pushed[-1] - pushed[-2])
                  if self._pairs else None)
        seen.append((len(pushed), len(self._pairs), newest, np.array_equal(d, -grad)))
        return d
    monkeypatch.setattr(DirectionRule, "push", recording_push)
    monkeypatch.setattr(DirectionRule, "_lbfgs_direction", recording_lbfgs)
    config = bench.preset("sec53", seed=0)
    spec, = (s for s in config.solvers if s.direction == "lbfgs")
    result = bench.run_variant(bench.build_problem(config.problem), spec, config.run)
    assert result.trace.extras["termination"] == "tolerance"
    assert len(seen) == len(result.trace) - 1 > spec.memory + 2
    for k, (n_pushed, n_pairs, newest, is_minus_g) in enumerate(seen):
        assert n_pushed == k
        assert n_pairs == min(max(k - 1, 0), spec.memory)
        assert newest is (None if k < 2 else True)
        assert is_minus_g is (k < 2)
