import copy
import pickle

import numpy as np
import pytest

from dealopt import envelopes
from dealopt.core import (CapabilityError, CompositeObjective, Evaluation, HolderInfo,
                          NumericalError, UsageError)
from dealopt.envelopes import (PROX_ORACLE_REL_TOL, AbsPower, L1Norm,
                               SeparableProx, fbe_complete, fbe_value,
                               fbe_value_grad, forward_backward_map, home_complete,
                               home_value, home_value_grad, prox_home_separable,
                               prox_l1, prox_oracle_check)
from dealopt.envelopes import _abs_power_matched, _abs_power_root
from dealopt.oracles import finite_diff_gradient, scalar_minimize
from dealopt.problems import LassoProblem, LeastPProblem, PowerAbsProblem, generate_problem
from objectives import plain


class TestProxL1:
    def test_soft_threshold(self):
        assert prox_l1(np.array([3.0, -0.5, 0.0]), 1.0) == pytest.approx([2.0, 0.0, 0.0])

    def test_tiny_weight_is_identity_limit(self):
        x = np.array([3.0, -0.5, 0.0])
        assert prox_l1(x, 1e-12) == pytest.approx(x, abs=1e-11)

    def test_matches_scalar_oracle(self):
        res = scalar_minimize(lambda T: np.abs(T) + 0.5 * (2.0 - T) ** 2,
                              (np.array([-10.0]), np.array([10.0])))
        assert abs(prox_l1(np.array([2.0]), 1.0)[0] - res.argmin[0]) < 1e-8

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(UsageError):
            prox_l1(np.zeros(2), 0.0)


class TestHomeProx:
    def test_abs_p2_matches_soft_threshold(self):
        res = prox_home_separable(abs, np.array([2.0]), gamma=1.0, p=2.0)
        assert res.point == pytest.approx([1.0], abs=1e-8)
        assert not res.multi_valued

    def test_near_indicator_pins_origin(self):
        # sharp well at 0 (grid-resolution surrogate of the {0} indicator)
        g = lambda t: 0.0 if abs(t) <= 1e-3 else 1e9
        res = prox_home_separable(g, np.array([2.0]), gamma=1.0, p=4.0)
        assert abs(res.point[0]) <= 1e-3

    def test_quartic_g_against_dense_grid(self):
        g = lambda t: t ** 4
        res = prox_home_separable(g, np.array([1.0]), gamma=0.5, p=2.0)
        grid = np.arange(-2.0, 2.0, 1e-5)
        vals = grid ** 4 + (1.0 - grid) ** 2
        assert abs(res.point[0] - grid[np.argmin(vals)]) < 1e-5
        env = home_value(SeparableProx(g), np.array([1.0]), 0.5, 2.0)
        assert abs(env - vals.min()) < 1e-6

    def test_double_well_multi_valued(self):
        g = lambda t: (t * t - 1.0) ** 2
        res = prox_home_separable(g, np.array([0.0]), gamma=20.0, p=2.0)
        assert res.multi_valued

    def test_separable_matches_prox_l1_vector(self):
        x = np.array([3.0, -0.5, 0.2, -4.0])
        res = prox_home_separable(abs, x, gamma=0.7, p=2.0)
        assert res.point == pytest.approx(prox_l1(x, 0.7), abs=1e-8)


def _coordinates(seed=0):
    """Zero, tiny, flat-region, order-one and large coordinates of both signs."""
    rng = np.random.default_rng(seed)
    fixed = [0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-3, 0.1, -0.1, 50.0, -100.0]
    return np.concatenate([fixed, rng.uniform(-5.0, 5.0, 10)])


def _home_objective(scalar, x, u, gamma, p):
    return (np.array([scalar(t) for t in u])
            + np.abs(x - u) ** p / (p * gamma))


POWERS = (1.5, 2.0, 4.0)
GAMMAS = (0.5, 1.0, 2.0)


class TestAbsPowerProx:
    @pytest.mark.parametrize("s", POWERS)
    @pytest.mark.parametrize("p", POWERS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_matches_grid_oracle(self, s, p, gamma):
        g = AbsPower(s)
        x = _coordinates()
        fast = g.prox(x, gamma, p)
        ref = prox_home_separable(g.scalar, x, gamma, p)
        assert not ref.multi_valued
        h_fast = _home_objective(g.scalar, x, fast, gamma, p)
        h_ref = _home_objective(g.scalar, x, ref.point, gamma, p)
        assert np.all(h_fast <= h_ref + 1e-12 * np.maximum(1.0, np.abs(h_ref)))
        # the oracle cannot place a flat minimum near 0; compare points
        # only where the coordinate is not small
        big = np.abs(x) >= 0.1
        assert np.abs(fast - ref.point)[big].max() <= 1e-7
        assert np.all(np.sign(fast) * np.sign(x) >= 0.0)
        assert np.all(np.abs(fast) <= np.abs(x))
        assert prox_oracle_check(g, x, gamma, p)["passed"]

    def test_infinite_curvature_does_not_stall(self):
        # s = p = 1.5: F'(0) is infinite, so a zero Newton step at u = 0 is
        # no sign of a root; the prox of -100 is exactly -10 (F(-10) = 0)
        y = AbsPower(1.5).prox(np.array([-100.0]), 2.0, 1.5)
        assert y == pytest.approx([-10.0], rel=1e-14)

    @pytest.mark.parametrize("s", (1.5, 3.0, 4.0))
    def test_matched_order_closed_form(self, s):
        # for p = s the optimality condition is linear in u / (x - u)
        gamma = 0.7
        x = np.array([-3.0, 0.25, 2.0, 40.0])
        expected = x / (1.0 + (s * gamma) ** (1.0 / (s - 1.0)))
        assert AbsPower(s).prox(x, gamma, s) == pytest.approx(expected, rel=1e-14)

    def test_value_zero_and_nonfinite(self):
        g = AbsPower(3.0)
        assert g.value(np.array([1.0, -2.0])) == pytest.approx(9.0)
        y = g.prox(np.array([0.0, 1e-320, np.nan, np.inf]), 1.0, 2.0)
        assert y[0] == 0.0 and y[1] == 0.0 and np.isnan(y[2]) and np.isnan(y[3])
        assert not home_value(g, np.array([1.0]), 1.0, 4.0).multi_valued

    def test_overflowing_residual_raises(self):
        # p = s takes the closed form; test_overflowing_newton_residual_raises
        # is the same input through Newton
        with pytest.raises(NumericalError):
            AbsPower(4.0).prox(np.array([1.0, 1e200]), 1.0, 4.0)

    def test_overflowing_newton_residual_raises(self):
        with pytest.raises(NumericalError):
            AbsPower(4.0).prox(np.array([1.0, 1e200]), 1.0, 3.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(UsageError):
            AbsPower(1.0)
        with pytest.raises(UsageError):
            AbsPower(2.0).prox(np.ones(2), 1.0, 1.0)
        with pytest.raises(UsageError):
            AbsPower(2.0).prox(np.ones(2), 0.0, 2.0)

    @pytest.mark.parametrize("s, p", [(4.0, 4.0), (1.5, 3.0), (3.0, 1.5)])
    def test_envelope_gradient_matches_finite_differences(self, s, p):
        g = AbsPower(s)
        rng = np.random.default_rng(31)
        for _ in range(15):
            x = rng.uniform(-3.0, 3.0, 3)
            ev = home_value_grad(g, x, gamma=0.9, p=p)
            fd = finite_diff_gradient(lambda z: home_value(g, z, 0.9, p), x)
            assert np.all(np.abs(fd - ev.gradient) <= 1e-5 * (1.0 + np.abs(ev.gradient)))

    def test_powerabs_problem_uses_it(self):
        phi = PowerAbsProblem(s=4.0, n=3).as_prox_capable()
        assert isinstance(phi, AbsPower) and phi.s == 4.0


class TestMatchedOrder:
    @pytest.mark.parametrize("s", (1.5, 2.0, 4.0, 8.0))
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_closed_form_agrees_with_newton(self, s, gamma):
        a = np.abs(_coordinates())
        closed = _abs_power_matched(a, s, gamma)
        newton = _abs_power_root(a, s, gamma, s)
        assert np.all(np.abs(closed - newton) <= 4.0 * np.finfo(float).eps * newton)

    def test_closed_form_keeps_the_newton_contract(self):
        # 0 below the smallest normal float, nan for non-finite entries
        a = np.array([0.0, 1e-320, np.nan, np.inf, 2.0])
        closed = _abs_power_matched(a, 4.0, 1.0)
        assert np.array_equal(closed, _abs_power_root(a, 4.0, 1.0, 4.0), equal_nan=True)
        assert closed[0] == closed[1] == 0.0 and np.isnan(closed[2:4]).all()

    @pytest.mark.parametrize("s", (1.5, 4.0, 8.0))
    def test_closed_form_passes_the_oracle_at_n1000(self, s):
        x = np.random.default_rng(2).uniform(-5.0, 5.0, 1000)
        report = prox_oracle_check(AbsPower(s), x, 1.0, s)
        assert report["passed"], report

    @pytest.mark.parametrize("s", (3.0, 4.0, 5.0, 6.0, 8.0))
    def test_the_declared_order_takes_the_closed_form(self, monkeypatch, s):
        # the family declares its matched order as s itself, so order auto
        # is p == s exactly: 1/(1 - (1 - 1/s)) rounds above s for s = 3, 5, 6
        p = PowerAbsProblem(s=s, n=1).kl_info().order
        assert p == s
        calls = []
        newton = envelopes._abs_power_root
        monkeypatch.setattr(envelopes, "_abs_power_root",
                            lambda *args: calls.append(args) or newton(*args))
        x = _coordinates()
        AbsPower(s).prox(x, 1.0, p)
        assert not calls
        assert prox_oracle_check(AbsPower(s), x, 1.0, p)["passed"]


def reference_bracket(h, center):
    """The bracket expansion one coordinate at a time, as a loop."""
    r = 1.0 + 2.0 * abs(center)
    while not (h(center - r) >= h(center - 0.5 * r) and h(center + r) >= h(center + 0.5 * r)):
        r *= 4.0
    return center - r, center + r


class TestBatchedSeparableProx:
    @pytest.mark.parametrize("p", (2.0, 4.0))
    def test_vector_call_is_the_per_coordinate_loop(self, p):
        g = lambda t: (t * t - 1.0) ** 2
        x = _coordinates()
        res = prox_home_separable(g, x, gamma=20.0, p=p)
        singles = [prox_home_separable(g, np.array([xi]), 20.0, p) for xi in x]
        assert res.point.tolist() == [one.point[0] for one in singles]
        # the double well at 0 ties its two minimizers
        assert singles[0].multi_valued and res.multi_valued
        for xi, one in zip(x.tolist(), singles):
            h = lambda u: g(u) + abs(xi - u) ** p / (p * 20.0)
            # h on each entry as a float, as the separable prox evaluates it
            loop = scalar_minimize(
                lambda U: np.array([h(u) for u in U.ravel().tolist()]).reshape(U.shape),
                tuple(np.array([end]) for end in reference_bracket(h, xi)))
            assert one.multi_valued == loop.multi_valued[0]
            assert one.point[0] == min(loop.points[0][loop.candidates[0]].tolist(), key=abs)


class TestProxOracleCheck:
    def test_reports_worst_excess_and_point_gap(self):
        x = np.array([-2.0, 0.5, 3.0])
        rep = prox_oracle_check(AbsPower(4.0), x, 1.0, 4.0)
        assert rep["passed"]
        assert rep["worst_excess"] <= PROX_ORACLE_REL_TOL
        assert 0.0 <= rep["max_point_diff"] <= 1e-7

    def test_fails_on_a_wrong_prox(self):
        class Shrunk(AbsPower):
            def prox(self, x, gamma, p=2.0):
                return 0.999 * super().prox(x, gamma, p)

        rep = prox_oracle_check(Shrunk(4.0), np.array([-2.0, 0.5, 3.0]), 1.0, 4.0)
        assert not rep["passed"]
        assert rep["worst_excess"] > PROX_ORACLE_REL_TOL


class TestL1OrderP:
    @pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_closed_form_matches_grid_oracle(self, p, gamma):
        w = 0.8
        x = _coordinates(seed=1)
        fast = L1Norm(w).prox(x, gamma, p)
        ref = prox_home_separable(lambda t: w * abs(t), x, gamma, p).point
        h_fast = _home_objective(lambda t: w * abs(t), x, fast, gamma, p)
        h_ref = _home_objective(lambda t: w * abs(t), x, ref, gamma, p)
        assert np.all(h_fast <= h_ref + 1e-12 * np.maximum(1.0, np.abs(h_ref)))
        big = np.abs(x) >= 0.1
        assert np.abs(fast - ref)[big].max() <= 1e-7
        assert prox_oracle_check(L1Norm(w), x, gamma, p)["passed"]

    def test_threshold_is_a_power_of_gamma_w(self):
        # zero up to (gamma w)^(1/(p-1)) = 2 for gamma w = 8, p = 4
        y = L1Norm(2.0).prox(np.array([1.9, -2.5, 5.0]), 4.0, 4.0)
        assert y == pytest.approx([0.0, -0.5, 3.0])

    def test_order_two_is_the_soft_threshold(self):
        x = np.array([3.0, -0.5, 0.2, -4.0])
        assert np.array_equal(L1Norm(1.3).prox(x, 0.7, 2.0), prox_l1(x, 0.7 * 1.3))


class TestHomeEnvelope:
    def test_huber_values_and_gradient(self):
        g = L1Norm(1.0)
        ev = home_value_grad(g, np.array([2.0]), gamma=1.0, p=2.0)
        assert ev.value == pytest.approx(1.5)       # |x| - 1/2 outside the band
        assert ev.gradient == pytest.approx([1.0])
        ev = home_value_grad(g, np.array([0.5]), gamma=1.0, p=2.0)
        assert ev.value == pytest.approx(0.125)     # x^2/2 inside the band
        assert ev.gradient == pytest.approx([0.5])

    def test_quadratic_g_hand_minimization(self):
        g = SeparableProx(lambda t: 0.5 * t * t)
        ev = home_value_grad(g, np.array([2.0]), gamma=1.0, p=2.0)
        assert ev.prox_point == pytest.approx([1.0], abs=1e-7)
        assert ev.value == pytest.approx(1.0, abs=1e-9)
        assert ev.gradient == pytest.approx([1.0], abs=1e-7)

    def test_multi_valued_refuses_gradient_keeps_value(self):
        g = SeparableProx(lambda t: (t * t - 1.0) ** 2)
        ev = home_value_grad(g, np.array([0.0]), gamma=20.0, p=2.0)
        assert ev.multi_valued
        assert ev.gradient is None
        assert np.isfinite(ev.value)

    def test_envelope_below_function(self):
        rng = np.random.default_rng(6)
        for g, fn in ((L1Norm(1.0), lambda x: np.abs(x).sum()),
                      (SeparableProx(lambda t: abs(t) ** 4),
                       lambda x: (np.abs(x) ** 4).sum())):
            for _ in range(10):
                x = rng.uniform(-3, 3, 2)
                ev = home_value_grad(g, x, gamma=0.8, p=2.0)
                assert ev.value <= fn(x) + 1e-12

    def test_envelope_optimum_preserved(self):
        g = L1Norm(1.0)
        ev = home_value_grad(g, np.zeros(2), gamma=1.0, p=2.0)
        assert ev.value == pytest.approx(0.0, abs=1e-15)  # equality at the minimizer
        rng = np.random.default_rng(8)
        vals = [home_value(g, rng.uniform(-4, 4, 2), 1.0, 2.0) for _ in range(50)]
        assert min(vals) >= -1e-12

    def test_gradient_matches_finite_differences(self):
        cases = [
            (L1Norm(1.0), 2.0, 2),          # order 2, n = 2
            (SeparableProx(lambda t: abs(t) ** 4), 4.0, 1),  # order 4, n = 1
        ]
        rng = np.random.default_rng(12)
        for g, p, n in cases:
            for _ in range(15):
                x = rng.uniform(-3, 3, n)
                ev = home_value_grad(g, x, gamma=0.9, p=p)
                if ev.multi_valued:
                    continue
                fd, kink = finite_diff_gradient(
                    lambda z: home_value(g, z, 0.9, p), x, return_kink_mask=True)
                keep = ~kink
                err = np.abs(fd[keep] - ev.gradient[keep])
                assert np.all(err <= 1e-4 * (1.0 + np.abs(ev.gradient[keep])))

    def test_separable_p2_agrees_with_euclidean_grid(self):
        # for p = 2 the per-coordinate construction equals the true
        # 2-D Euclidean proximal point, the closed-form soft threshold
        x = np.array([1.7, -0.4])
        res = prox_home_separable(abs, x, gamma=0.6, p=2.0)
        assert res.point == pytest.approx(prox_l1(x, 0.6), abs=1e-9)


def _scalar_lasso(lam=1.0, b=0.0):
    return LassoProblem(np.array([[1.0]]), np.array([b]), lam=lam).as_composite()


class TestForwardBackward:
    def test_map_hand_composition(self):
        comp = _scalar_lasso()
        T = forward_backward_map(comp, np.array([3.0]), gamma=0.5)
        assert T == pytest.approx([1.0])  # soft(1.5, 0.5)

    def test_fixed_point_stays(self):
        comp = _scalar_lasso()
        T = forward_backward_map(comp, np.array([0.0]), gamma=0.5)
        assert T == pytest.approx([0.0])

    def test_zero_g_is_gradient_step(self):
        class Zero:
            def value(self, x):
                return 0.0

            def prox(self, x, gamma, p=2.0):
                return np.asarray(x, dtype=float)

        smooth = plain(dim=1, value=lambda x: 0.5 * float(x @ x),
                       grad=lambda x: np.asarray(x, dtype=float),
                       holder=HolderInfo(nu=1.0, L=1.0))
        comp = CompositeObjective(smooth=smooth, nonsmooth=Zero())
        T = forward_backward_map(comp, np.array([3.0]), gamma=0.5)
        assert T == pytest.approx([1.5])

    def test_gamma_out_of_range(self):
        comp = _scalar_lasso()
        with pytest.raises(UsageError):
            forward_backward_map(comp, np.array([1.0]), gamma=1.0)


class TestFBE:
    def test_hand_value_and_gradient(self):
        comp = _scalar_lasso()
        ev = fbe_value_grad(comp, np.array([3.0]), gamma=0.5)
        assert ev.prox_point == pytest.approx([1.0])
        assert ev.value == pytest.approx(3.5)
        assert ev.gradient == pytest.approx([2.0])

    def test_hand_descent_chain(self):
        comp = _scalar_lasso()
        # envelope at T(3) = 1: T(1) = soft(0.5, 0.5) = 0, value 0.5
        ev1 = fbe_value_grad(comp, np.array([1.0]), gamma=0.5)
        assert ev1.prox_point == pytest.approx([0.0])
        assert ev1.value == pytest.approx(0.5)
        # sandwich: 0.5 <= 3.5 - (1-gamma L)/(2 gamma) * ||x-T||^2 = 1.5
        assert ev1.value <= 3.5 - (1 - 0.5) / 1.0 * 4.0 + 1e-12

    def test_fixed_point_value_and_zero_gradient(self):
        prob = generate_problem(4, "lasso", 30, 4, lam=0.2)
        comp = prob.as_composite()
        from dealopt.problems import reference_optimum
        ref = reference_optimum(prob)
        gamma = 0.9 / prob.L
        ev = fbe_value_grad(comp, ref.xstar, gamma)
        assert ev.value == pytest.approx(prob.value(ref.xstar), abs=1e-9)
        assert np.linalg.norm(ev.gradient) <= 1e-8

    def test_requires_hessian_apply(self):
        smooth = plain(dim=1, value=lambda x: 0.5 * float(x @ x),
                       grad=lambda x: np.asarray(x, dtype=float),
                       holder=HolderInfo(nu=1.0, L=1.0))
        comp = CompositeObjective(smooth=smooth, nonsmooth=L1Norm(1.0))
        with pytest.raises(CapabilityError):
            fbe_value_grad(comp, np.array([1.0]), gamma=0.5)

    def test_gamma_at_one_over_L_is_refused(self):
        # fbe_value takes gamma as checked; fbe_value_grad checks it itself
        comp = _scalar_lasso()
        with pytest.raises(UsageError, match=r"gamma must lie in \(0, 1/L\)"):
            fbe_value_grad(comp, np.array([1.0]), gamma=1.0)

    def test_sandwich_and_gradient_bound_sampled(self):
        prob = generate_problem(9, "lasso", 40, 5, lam=0.3)
        comp = prob.as_composite()
        gamma = 0.95 / prob.L
        L = prob.L
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-5, 5, 5)
            ev = fbe_value_grad(comp, x, gamma)
            T = ev.prox_point
            resid = np.linalg.norm(x - T)
            # envelope at T <= function at T <= envelope at x - (1-gL)/(2g) ||x-T||^2
            env_T = fbe_value(comp, T, gamma)
            phi_T = prob.value(T)
            assert env_T <= phi_T + 1e-10
            assert phi_T <= ev.value - (1 - gamma * L) / (2 * gamma) * resid ** 2 + 1e-9
            assert np.linalg.norm(ev.gradient) <= (1 + gamma * L) / gamma * resid * (1 + 1e-10)

    def test_gradient_matches_finite_differences(self):
        prob = generate_problem(14, "lasso", 25, 4, lam=0.2)
        comp = prob.as_composite()
        gamma = 0.9 / prob.L
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(20):
            x = rng.uniform(-4, 4, 4)
            ev = fbe_value_grad(comp, x, gamma)
            fd, kink = finite_diff_gradient(lambda z: fbe_value(comp, z, gamma),
                                            x, return_kink_mask=True)
            keep = ~kink
            checked += int(keep.sum())
            err = np.abs(fd[keep] - ev.gradient[keep])
            assert np.all(err <= 1e-4 * (1.0 + np.abs(ev.gradient[keep])))
        assert checked > 40


def _envelope_case(name):
    """(value, complete, value_grad, x, multi_valued) of one envelope."""
    if name == "lasso-fbe":
        prob = generate_problem(2, "lasso", 30, 4, lam=0.2)
        comp, gamma = prob.as_composite(), 0.9 / prob.L
        return (lambda x: fbe_value(comp, x, gamma),
                lambda ev: fbe_complete(comp, ev, gamma),
                lambda x: fbe_value_grad(comp, x, gamma),
                np.array([1.5, -0.3, 0.0, 2.0]), False)
    if name == "double-well":
        g, gamma, p, x = SeparableProx(lambda t: (t * t - 1.0) ** 2), 20.0, 2.0, np.array([0.0])
    else:
        g, gamma, p, x = AbsPower(4.0), 0.8, float(name[-1]), np.array([1.5, -0.3, 0.0, 2.0])
    return (lambda x: home_value(g, x, gamma, p),
            lambda ev: home_complete(ev, gamma, p),
            lambda x: home_value_grad(g, x, gamma, p), x, name == "double-well")


def _bits(a):
    return None if a is None else np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("name", ["lasso-fbe", "abspower4-p4", "abspower4-p2", "double-well"])
def test_envelope_eval_contract(name):
    # a value is the float it carries, completes in place, and unpacks as the
    # (value, gradient, prox_point) that deal_loop takes
    value, complete, value_grad, x, multi = _envelope_case(name)
    ev = value(x)
    assert isinstance(ev, Evaluation) and isinstance(ev, float)
    assert type(ev.value) is float and ev == ev.value
    assert ev.gradient is None and ev.multi_valued is multi
    assert complete(ev) is ev
    full = value_grad(x)
    assert _bits(ev.value) == _bits(full.value)
    assert _bits(ev.prox_point) == _bits(full.prox_point)
    assert _bits(ev.gradient) == _bits(full.gradient)
    assert (ev.gradient is None) is multi
    assert _bits(ev.grad_norm) == _bits(full.grad_norm)
    f, gradient, prox_point = ev
    assert type(f) is float and _bits(f) == _bits(ev.value)
    assert gradient is ev.gradient and prox_point is ev.prox_point


def test_envelope_eval_keyword_construction():
    ev = Evaluation(x=np.array([1.0, 2.0]), prox_point=np.array([0.5, 1.0]),
                    value=3.0, gradient=np.array([3.0, 4.0]))
    assert ev == 3.0 and ev.value == 3.0 and ev.grad_norm == 5.0
    assert ev.multi_valued is False and ev.work is None
    assert type(ev + 1.0) is float and ev + 1.0 == 4.0
    copied = copy.deepcopy(ev)
    assert type(copied) is Evaluation and copied == ev and copied.x is not ev.x
    assert np.array_equal(copied.gradient, ev.gradient) and copied.multi_valued is False
    bare = Evaluation(x=np.zeros(1), prox_point=np.ones(1), value=-1.0, gradient=None,
                      multi_valued=True)
    assert bare < ev and bare.multi_valued and np.isnan(bare.grad_norm)
    # a smooth point keeps its work array through a copy, a deep copy and a
    # pickle, and unpacks with no proximal point
    smooth = Evaluation(x=np.array([1.0, -2.0]), value=0.5, work=np.array([0.25, -0.75, 2.0]))
    assert tuple(smooth) == (0.5, None, None)
    for made in (copy.copy(smooth), copy.deepcopy(smooth), pickle.loads(pickle.dumps(smooth))):
        assert type(made) is Evaluation and made == smooth and made.prox_point is None
        assert made.gradient is None and made.multi_valued is False
        assert np.array_equal(made.x, smooth.x) and _bits(made.work) == _bits(smooth.work)
    assert copy.copy(smooth).work is smooth.work
    assert copy.deepcopy(smooth).work is not smooth.work
    # a least-p point at zero residual completes to the value 0.0 and an
    # all-zero gradient exactly: the singular factor is never formed
    b = np.array([1.0, 2.0])
    problem = LeastPProblem(np.eye(2), b, p=1.5)
    zero = problem.complete(problem.value(b.copy()))
    assert type(zero.value) is float and _bits(zero.value) == _bits(0.0)
    assert _bits(zero.gradient) == _bits(np.zeros(2)) and _bits(zero.work) == _bits(np.zeros(2))
