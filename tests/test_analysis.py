import math
import tracemalloc

import numpy as np
import pytest

from dealopt.analysis import (complexity_K, estimate_kl_exponent, fit_linear_rate,
                              per_step_ratio_check, verify_complexity)
from dealopt.core import IterateTrace, Reevaluation, UsageError
from dealopt.problems import QuadraticProblem, generate_problem
from dealopt.solvers import DealConfig, run_dealc


def synthetic_trace(gaps, grads=None, rho=0.5, theta=2.0, fstar=0.0):
    tr = IterateTrace(rho=rho, theta=theta)
    for k, gap in enumerate(gaps):
        tr.append(k, fstar + gap, grads[k] if grads is not None else math.sqrt(max(gap, 0.0)))
    return tr


class TestComplexityK:
    def test_values(self):
        assert complexity_K(1.0, 1.0, 0.5, 0.5) == 2
        assert complexity_K(1.0, 1.0, 0.1, 0.5) == 5
        assert complexity_K(1.0, 1.0, 1e-6, 0.9) == 133

    def test_monotonicity(self):
        base = complexity_K(2.0, 1.5, 1e-4, 0.7)
        assert complexity_K(4.0, 1.5, 1e-4, 0.7) >= base
        assert complexity_K(2.0, 2.5, 1e-4, 0.7) >= base
        assert complexity_K(2.0, 1.5, 1e-4, 0.8) >= base
        assert complexity_K(2.0, 1.5, 1e-6, 0.7) >= base

    def test_clamped_and_errors(self):
        assert complexity_K(1e-12, 1.0, 0.5, 0.5) == 1
        with pytest.raises(UsageError):
            complexity_K(1.0, 1.0, 0.5, 1.0)
        with pytest.raises(UsageError):
            complexity_K(0.0, 1.0, 0.5, 0.5)


class TestLinearFit:
    def test_exact_geometric_four_points(self):
        tr = synthetic_trace([1.0, 0.25, 0.0625, 0.015625])
        rep = fit_linear_rate(tr, fstar=0.0)
        assert rep.q_hat_max == pytest.approx(0.25, abs=1e-15)

    def test_exact_geometric_long_machine_precision(self):
        gaps = [0.37 ** k for k in range(30)]
        rep = fit_linear_rate(synthetic_trace(gaps), fstar=0.0)
        assert rep.regime == "linear"
        assert rep.q_hat_max == pytest.approx(0.37, rel=1e-12)
        assert rep.q_hat_ls == pytest.approx(0.37, rel=1e-9)

    def test_power_law_classified_sublinear(self):
        ks = np.arange(10, 101)
        tr = IterateTrace(rho=0.5, theta=2.0)
        for k in ks:
            tr.append(int(k), float(k) ** -2, 1.0)
        rep = fit_linear_rate(tr, fstar=0.0)
        assert rep.regime == "sublinear"
        assert rep.q_hat_max < 1.0

    def test_q_theory_attached(self):
        rep = fit_linear_rate(synthetic_trace([0.5 ** k for k in range(12)]),
                              fstar=0.0, rho=0.5, theta=2.0, tau=1.0)
        assert rep.q_theory == pytest.approx(0.5)
        assert rep.regime == "linear"

    def test_short_tail_inconclusive(self):
        rep = fit_linear_rate(synthetic_trace([1.0, 0.5]), fstar=0.0)
        assert rep.regime == "inconclusive"


class TestSublinearFit:
    def test_exact_power_law(self):
        ks = np.arange(1, 200)
        tr = IterateTrace(rho=0.5, theta=2.0)
        for k in ks:
            tr.append(int(k), 3.0 * float(k) ** -2, 1.0)
        rep = fit_linear_rate(tr, fstar=0.0)
        mu, decay = rep.mu_hat, rep.decay_hat
        assert mu == pytest.approx(3.0, abs=1e-6)
        assert decay == pytest.approx(2.0, abs=1e-9)

    def test_degenerate_returns_none(self):
        rep = fit_linear_rate(synthetic_trace([1.0]), fstar=0.0)
        assert rep.mu_hat is None and rep.decay_hat is None


class TestKLExponent:
    def test_quadratic_slope_exactly_half(self):
        xs = 2.0 * 0.8 ** np.arange(25)
        tr = synthetic_trace(list(0.5 * xs ** 2), grads=list(np.abs(xs)))
        est = estimate_kl_exponent(tr, fstar=0.0)
        assert est.vartheta_hat == pytest.approx(0.5, abs=1e-12)
        assert est.residual < 1e-20

    def test_leastp_run_recovers_exponent(self):
        prob = generate_problem(23, "leastp", 60, 12, p=1.5, consistent=True)
        tr = run_dealc(prob.as_smooth(),
                       np.random.default_rng(0).uniform(-5, 5, 12), DealConfig())
        est = estimate_kl_exponent(tr, fstar=0.0)
        assert abs(est.vartheta_hat - 1.0 / 3.0) < 0.05

    def test_degenerate_tail(self):
        assert estimate_kl_exponent(synthetic_trace([1.0]), fstar=0.0) is None


class TestVerifyComplexity:
    def test_exact_geometric_bounds(self):
        gaps = [0.5 ** k for k in range(40)]
        grads = [math.sqrt((gaps[k] - gaps[k + 1]) / 0.5) for k in range(39)] + [0.0]
        tr = synthetic_trace(gaps, grads=grads)
        # q = 1 - rho/tau^theta = 0.5 with rho = 0.5, tau = 1, theta = 2
        rep = verify_complexity(tr, fstar=0.0, rho=0.5, theta=2.0, tau=1.0,
                                eps=1e-3, distances=np.sqrt(gaps), c=1.0)
        assert not rep.skipped
        assert rep.q_theory == pytest.approx(0.5)
        by_name = {c.criterion: c for c in rep.checks}
        assert by_name["gap"].measured == 10
        assert by_name["gap"].bound == 11
        assert rep.passed

    def test_vacuous_skipped(self):
        tr = synthetic_trace([1.0, 0.5])
        rep = verify_complexity(tr, fstar=0.0, rho=2.0, theta=2.0, tau=1.0, eps=0.1)
        assert rep.skipped and rep.passed

    def test_degenerate_start(self):
        tr = synthetic_trace([0.0, 0.0], grads=[0.0, 0.0])
        rep = verify_complexity(tr, fstar=0.0, rho=0.5, theta=2.0, tau=1.0, eps=0.1)
        assert rep.passed

    def test_end_to_end_leastp(self):
        prob = generate_problem(29, "leastp", 60, 12, p=2.0, consistent=True)
        obj = prob.as_smooth()
        reevaluation = Reevaluation(prob.value_grad_rows, xstar=prob.x_ls)
        tr = run_dealc(obj, np.random.default_rng(4).uniform(-5, 5, 12),
                       DealConfig(), reevaluation.add)
        nu, L, vt, tau = prob.constants()
        c = tr.extras["alpha"]  # c2 = 1
        rep = verify_complexity(tr, fstar=0.0, rho=tr.rho, theta=tr.theta, tau=tau,
                                eps=1e-6, distances=reevaluation.result(tr)[1], c=c)
        assert not rep.skipped
        assert rep.passed
        assert len(rep.checks) == 3

    def test_iterate_distances_stack_no_iterates(self):
        # 10,001 records x 200 coordinates: stacking them would take 16 MB;
        # a re-evaluation measures each distinct iterate's distance alone
        rng = np.random.default_rng(0)
        distinct = [rng.standard_normal(200) for _ in range(1000)]
        xs = distinct + [distinct[-1]] * 9001   # a replayed fixed-point tail
        gaps = 0.5 ** np.minimum(np.arange(len(xs)), 999)
        tr = synthetic_trace(gaps)
        assert xs[-1] is xs[999]
        tracemalloc.start()
        try:
            reevaluation = Reevaluation(
                lambda X: (0.5 * np.einsum("ij,ij->i", X, X), X), xstar=np.zeros(200))
            for x in xs:
                reevaluation.add(x)
            rep = verify_complexity(tr, fstar=0.0, rho=0.5, theta=2.0, tau=1.0, eps=1e-6,
                                    distances=reevaluation.result(tr)[1], c=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [c.criterion for c in rep.checks] == ["gap", "grad", "iterate"]
        assert peak < 4 * 2 ** 20


class TestPerStepRatio:
    def test_ratio_guard(self):
        tr = synthetic_trace([1.0, 0.5, 0.25])
        rep = per_step_ratio_check(tr, fstar=0.0, q_theory=0.5)
        assert rep.passed and rep.worst_violation == pytest.approx(0.5) and rep.n_checked == 2
        rep = per_step_ratio_check(tr, fstar=0.0, q_theory=0.4)
        assert not rep.passed

    def test_remark_gap_power_consistency(self):
        # certified runs keep (gap)^(vartheta - 1/theta) <= tau / rho^(1/theta)
        prob = generate_problem(37, "leastp", 50, 10, p=1.5, consistent=True)
        obj = prob.as_smooth()
        tr = run_dealc(obj, np.random.default_rng(1).uniform(-5, 5, 10),
                       DealConfig())
        _, _, vt, tau = prob.constants()
        gaps = tr.f_values()
        alive = gaps > 0
        lhs = gaps[alive] ** (vt - 1.0 / tr.theta)
        assert np.all(lhs <= tau / tr.rho ** (1.0 / tr.theta) * (1 + 1e-10))


class TestKLSampling:
    """Each family's gradient-dominance constant tau, checked through its
    batch oracle on box samples (the ``dominance`` fixture)."""

    def test_quadratic_exact_equality(self, dominance):
        # f = x^2 / 2: (f - f*)^(1/2) = |x| / sqrt(2) and ||grad f|| = |x|
        violations, worst = dominance(QuadraticProblem(np.eye(1)), 0.5,
                                      1.0 / math.sqrt(2.0), 500, seed=0)
        assert violations == 0
        assert worst == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_halved_tau_fails(self, dominance):
        # the Q = I constant is tight: half of it fails at almost every point
        violations, _ = dominance(QuadraticProblem(np.eye(1)), 0.5,
                                  0.5 / math.sqrt(2.0), 500, seed=0)
        assert violations / 500 > 0.9

    @pytest.mark.parametrize("seed", [5, 6])
    def test_positive_definite_quadratic_zero_violations(self, dominance, seed):
        # tau = 1 / sqrt(2 lam_min), as the reference optimum carries it
        prob = QuadraticProblem.generate(seed, 6, 6)
        tau = prob.reference().tau
        assert tau == pytest.approx(1.0 / math.sqrt(2.0 * prob.lam_min))
        violations, worst = dominance(prob, 0.5, tau, 1000, seed=seed)
        assert violations == 0
        assert worst <= tau

    def test_consistent_leastp_zero_violations(self, dominance):
        prob = generate_problem(41, "leastp", 40, 8, p=1.5, consistent=True)
        _, _, vartheta, tau = prob.constants()
        violations, worst = dominance(prob, vartheta, tau, 1000, seed=2)
        assert violations == 0
        assert worst <= tau

    def test_inconsistent_leastp_reports_empirical_tau(self, dominance):
        # the closed-form tau is only guaranteed for residuals in the range of
        # A; inconsistent data reports the empirical value without asserting it
        prob = generate_problem(43, "leastp", 40, 8, p=1.5, consistent=False)
        assert prob.reference().tau is None
        _, _, vartheta, tau = prob.constants()
        _, worst = dominance(prob, vartheta, tau, 1000, seed=3)
        assert math.isfinite(worst) and worst > 0.0
