import json
import math

import numpy as np
import pytest

from dealopt import bench, envelopes
from dealopt.analysis import fit_linear_rate
from dealopt.boosted import BoostedConfig, choose_order, run_bhippa, run_bpga
from dealopt.core import DataError, UsageError, certify_descent, reevaluate_trace
from dealopt.directions import DirectionRule
from dealopt.envelopes import (SeparableProx, fbe_value, fbe_value_grad,
                               forward_backward_map, home_value,
                               home_value_grad)
from dealopt.problems import PowerAbsProblem, generate_problem


class TestChooseOrder:
    def test_values(self):
        assert choose_order(0.5) == pytest.approx(2.0)
        assert choose_order(0.75) == pytest.approx(4.0)
        assert choose_order(1.0 / 3.0) == pytest.approx(1.5)

    def test_theta_matching(self):
        for vt in (0.3, 0.5, 0.8):
            p = choose_order(vt)
            assert p / (p - 1.0) == pytest.approx(1.0 / vt)

    def test_range_errors(self):
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(UsageError):
                choose_order(bad)


def lasso_setup(seed=3, m=60, n=6, lam=0.1):
    prob = generate_problem(seed, "lasso", m, n, lam=lam)
    comp = prob.as_composite()
    gamma = 0.95 / prob.L
    sigma = 0.9 * gamma * (1.0 - gamma * prob.L) / 2.0
    return prob, comp, gamma, sigma


class TestBPGA:
    def test_pure_forward_backward_reduction(self):
        # max_linesearch = 0 takes the plain forward-backward point each
        # iteration; the acceptance inequality still holds at every step
        prob, comp, gamma, sigma = lasso_setup()
        cfg = BoostedConfig(gamma=gamma, sigma=sigma, max_linesearch=0,
                            store_iterates=True)
        tr = run_bpga(comp, np.ones(6) * 2.0, cfg)
        assert tr.extras["termination"] == "tolerance"
        assert certify_descent(tr, tr.rho, tr.theta).passed
        X = tr.iterates()
        for i in range(len(X) - 1):
            T = forward_backward_map(comp, X[i], gamma)
            assert np.allclose(X[i + 1], T)

    def test_hand_example_first_candidate(self):
        # scalar l1 regression, identity design, gamma 0.25, L = 1
        prob, comp, _, _ = None, None, None, None
        from dealopt.problems import LassoProblem
        lp = LassoProblem(np.array([[1.0]]), np.array([0.0]), lam=1.0)
        comp = lp.as_composite()
        T = forward_backward_map(comp, np.array([3.0]), 0.25)
        assert T == pytest.approx([2.0])  # soft(2.25, 0.25)
        ev = fbe_value_grad(comp, np.array([3.0]), 0.25)
        rho = 0.05 / (1.25) ** 2
        threshold = ev.value - rho * ev.grad_norm ** 2
        cfg = BoostedConfig(gamma=0.25, sigma=0.05, store_iterates=True,
                            max_iter=200)
        tr = run_bpga(comp, np.array([3.0]), cfg)
        # the acceptance threshold at k=0 is honored by the recorded value
        assert tr.records[0].f == pytest.approx(ev.value)
        assert tr.records[1].f <= threshold + 1e-12
        assert certify_descent(tr, tr.rho, tr.theta).passed

    @pytest.mark.parametrize("direction", ["gradient", "bb1", "bb2", "lbfgs"])
    def test_directions_all_certify(self, direction):
        prob, comp, gamma, sigma = lasso_setup(seed=8)
        cfg = BoostedConfig(gamma=gamma, sigma=sigma, store_iterates=True,
                            rule=DirectionRule(direction))
        tr = run_bpga(comp, np.random.default_rng(0).uniform(-5, 5, 6), cfg)
        assert tr.extras["termination"] == "tolerance"
        checked = reevaluate_trace(
            tr,
            lambda x: fbe_value(comp, x, gamma),
            lambda x: fbe_value_grad(comp, x, gamma).gradient)
        assert certify_descent(checked, tr.rho, tr.theta).passed

    def test_envelope_monotone(self):
        _, comp, gamma, sigma = lasso_setup(seed=5)
        tr = run_bpga(comp, np.ones(6), BoostedConfig(gamma=gamma, sigma=sigma))
        f, g = tr.f_values(), tr.grad_norms()
        assert np.all(np.diff(f) <= 0.0)
        # a required decrease below the spacing of f cannot show in f
        resolvable = tr.rho * g[:-1] ** 2 >= np.spacing(np.abs(f[:-1]))
        assert resolvable.sum() > len(f) // 2
        assert np.all(np.diff(f)[resolvable] < 0.0)

    def test_no_linesearch_skips_the_direction_rule(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("direction rule called without a line search")
        for name in ("base_direction", "sufficient_base_direction", "push"):
            monkeypatch.setattr(DirectionRule, name, unused)
        _, comp, gamma, sigma = lasso_setup()
        cfg = BoostedConfig(gamma=gamma, sigma=sigma, max_linesearch=0)
        tr = run_bpga(comp, np.ones(6) * 2.0, cfg)
        assert tr.extras["termination"] == "tolerance"
        assert len(tr) > 2
        assert tr.extras["fallbacks"] == 0

    def test_unset_gamma_and_sigma_take_the_solver_defaults(self):
        prob, comp, gamma, _ = lasso_setup()
        x0 = np.linspace(-2.0, 2.0, 6)
        sigma = 0.9 * (gamma * (1.0 - gamma * prob.L) / 2.0)  # as bench set it
        explicit = run_bpga(comp, x0, BoostedConfig(
            gamma=gamma, sigma=sigma, rule=DirectionRule("bb1")))
        default = run_bpga(comp, x0, BoostedConfig(rule=DirectionRule("bb1")))
        assert len(default) > 2
        assert default.records == explicit.records
        assert default.extras == explicit.extras
        assert default.extras["gamma"] == 0.95 / prob.L

    def test_parameter_validation(self):
        _, comp, gamma, _ = lasso_setup()
        with pytest.raises(UsageError):
            run_bpga(comp, np.zeros(6), BoostedConfig(gamma=10.0, sigma=1e-9))
        with pytest.raises(UsageError):
            run_bpga(comp, np.zeros(6), BoostedConfig(gamma=gamma, sigma=0.9))


class TestBHiPPA:
    def test_pure_prox_on_quadratic_halves_iterates(self):
        phi = SeparableProx(lambda t: 0.5 * t * t)
        cfg = BoostedConfig(gamma=1.0, sigma=0.4, p=2.0, max_linesearch=0,
                            store_iterates=True, eps=1e-5, max_iter=60)
        tr = run_bhippa(phi, np.array([2.0]), cfg)
        X = tr.iterates().ravel()
        assert np.allclose(X, 2.0 * 0.5 ** np.arange(len(X)), atol=1e-7)
        # plain proximal-point decrease: envelope x^2/4 drops to x^2/16 <= x^2/8
        assert certify_descent(tr, rho=0.5, theta=2.0).passed

    def test_powerabs_matched_order_certifies(self):
        pa = PowerAbsProblem(s=4.0, n=1)
        p = choose_order(pa.kl_info().vartheta)
        assert p == pytest.approx(4.0)
        cfg = BoostedConfig(gamma=1.0, sigma=0.1, p=p, store_iterates=True)
        tr = run_bhippa(pa.as_prox_capable(), np.array([2.0]), cfg)
        assert tr.extras["termination"] == "tolerance"
        assert tr.theta == pytest.approx(4.0 / 3.0)
        assert tr.rho == pytest.approx(0.1 / 4.0)
        phi = pa.as_prox_capable()
        checked = reevaluate_trace(
            tr,
            lambda x: home_value(phi, x, 1.0, p),
            lambda x: home_value_grad(phi, x, 1.0, p).gradient)
        assert certify_descent(checked, tr.rho, tr.theta).passed

    def test_starts_at_minimizer(self):
        pa = PowerAbsProblem(s=4.0, n=1)
        cfg = BoostedConfig(gamma=1.0, sigma=0.1, p=4.0)
        tr = run_bhippa(pa.as_prox_capable(), np.array([0.0]), cfg)
        assert len(tr) == 1
        assert tr.extras["termination"] == "tolerance"

    def test_multivalued_aborts_with_diagnostic(self):
        phi = SeparableProx(lambda t: (t * t - 1.0) ** 2)
        cfg = BoostedConfig(gamma=20.0, sigma=1e-3, p=2.0, max_iter=10)
        tr = run_bhippa(phi, np.array([0.0]), cfg)
        assert tr.extras["termination"] == "multivalued"
        assert len(tr) == 0

    def test_multivalued_at_start_certifies_empty_trace(self):
        phi = SeparableProx(lambda t: (t * t - 1.0) ** 2)
        cfg = BoostedConfig(gamma=20.0, sigma=0.01, store_iterates=True)
        tr = run_bhippa(phi, [0.0], cfg)
        assert len(tr) == 0
        bundle = bench.certify_run(tr, {})
        assert bundle["termination"] == "multivalued"
        assert bundle["diagnostic"] == tr.extras["diagnostic"]
        assert not [v for v in bundle.values() if isinstance(v, dict)]

    def test_empty_trace_summary(self, tmp_path, monkeypatch):
        # the powerabs family has a unique prox, so the double-well run that
        # stops before its first record stands in for the solver
        real = bench.run_bhippa
        monkeypatch.setattr(bench, "run_bhippa", lambda phi, x0, cfg: real(
            SeparableProx(lambda t: (t * t - 1.0) ** 2), [0.0],
            BoostedConfig(gamma=20.0, sigma=0.01, store_iterates=True)))
        out = bench.run_experiment(bench.ExperimentConfig(
            problem=bench.ProblemSpec(kind="powerabs", n=1),
            solvers=[bench.SolverSpec(name="BHIPPA", solver="bhippa")],
            output=bench.OutputSpec(directory=str(tmp_path / "out"))))
        [row] = json.loads((out / "summary.json").read_text())["variants"]
        assert row["termination"] == "multivalued"
        assert row["iterations"] == 0
        assert row["iterations_to_tolerance"] is None
        assert row["final_grad_norm"] is None

    def test_nonfinite_start_rejected(self):
        pa = PowerAbsProblem(s=4.0, n=2)
        with pytest.raises(DataError, match="x0 contains non-finite entries"):
            run_bhippa(pa.as_prox_capable(), [math.nan, 1.0],
                       BoostedConfig(gamma=1.0, sigma=0.1, p=4.0))

    def test_unset_gamma_and_sigma_take_the_solver_defaults(self):
        pa = PowerAbsProblem(s=4.0, n=5)
        x0 = np.linspace(-1.5, 2.0, 5)
        explicit = run_bhippa(pa.as_prox_capable(), x0, BoostedConfig(
            gamma=1.0, sigma=0.5 * min(1.0, 1.0 / 4.0), p=4.0))
        default = run_bhippa(pa.as_prox_capable(), x0, BoostedConfig(p=4.0))
        assert len(default) > 2
        assert default.records == explicit.records
        assert default.extras == explicit.extras
        assert default.extras["sigma"] == 0.125

    def test_sigma_cap_enforced(self):
        pa = PowerAbsProblem(s=4.0, n=1)
        with pytest.raises(UsageError):
            run_bhippa(pa.as_prox_capable(), np.array([1.0]),
                       BoostedConfig(gamma=1.0, sigma=0.3, p=4.0))

    def test_envelope_monotone_with_boost(self):
        pa = PowerAbsProblem(s=4.0, n=1)
        cfg = BoostedConfig(gamma=1.0, sigma=0.2, p=2.0, eps=1e-4, max_iter=500)
        tr = run_bhippa(pa.as_prox_capable(), np.array([1.5]), cfg)
        f = tr.f_values()
        assert np.all(np.diff(f) < 0.0)


class TestOrderMatching:
    def test_matched_vs_mismatched_regimes(self):
        pa = PowerAbsProblem(s=4.0, n=1)
        phi = pa.as_prox_capable()
        matched = run_bhippa(phi, np.array([2.0]),
                             BoostedConfig(gamma=1.0, sigma=0.1, p=4.0,
                                           eps=1e-5))
        rep = fit_linear_rate(matched, fstar=0.0)
        assert rep.q_hat_max is not None and rep.q_hat_max < 1.0
        mismatched = run_bhippa(phi, np.array([2.0]),
                                BoostedConfig(gamma=1.0, sigma=0.1, p=2.0,
                                              eps=1e-4, max_iter=4000))
        rep2 = fit_linear_rate(mismatched, fstar=0.0)
        assert rep2.regime == "sublinear"
        # predicted decay 1/(vartheta*theta - 1) = 2 for vartheta=3/4, theta=2
        assert 1.0 <= rep2.decay_hat <= 3.0


def _bhippa_experiment(n, seed=0):
    problem = bench.build_problem(bench.ProblemSpec(kind="powerabs", n=n, s=4.0, seed=seed))
    spec = bench.SolverSpec(name="BHIPPA", solver="bhippa", order="auto")
    return problem, spec, bench.RunSpec(x0_seed=seed)


class TestBHiPPAScale:
    def test_n1000_reaches_tolerance_with_every_certificate(self):
        result = bench.run_variant(*_bhippa_experiment(1000))
        certs = result.certificates
        assert certs["termination"] == "tolerance"
        assert result.ok
        checks = [k for k, v in certs.items() if isinstance(v, dict) and "passed" in v]
        assert {"descent", "min_grad_bound", "prox_oracle"} <= set(checks)
        assert all(certs[k]["passed"] for k in checks)
        assert certs["prox_oracle"]["worst_excess"] <= 1e-12

    def test_reevaluation_computes_each_envelope_once(self, monkeypatch):
        calls = {"home_value": 0, "home_value_grad": 0}
        for name in calls:
            real = getattr(envelopes, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(envelopes, name, counted)
        problem, spec, run = _bhippa_experiment(5)
        result = bench.run_variant(problem, spec, run)
        assert result.certificates["reevaluated"]
        # the solver calls boosted's own names; these are re-evaluation only
        assert calls == {"home_value": 0, "home_value_grad": len(result.trace)}


def test_bpga_nonfinite_start_stops_without_a_record():
    # from 1e170 the envelope is NaN: 21 NaN records and max_iter before
    problem = generate_problem(0, "lasso", 50, 5)
    trace = run_bpga(problem.as_composite(), np.full(5, 1e170),
                     BoostedConfig(max_iter=20))
    assert trace.extras["termination"] == "nonfinite"
    assert "k=0" in trace.extras["diagnostic"]
    assert len(trace) == 0
    bundle = bench.certify_run(trace, {"fstar": 0.0})
    assert bundle["termination"] == "nonfinite" and bench.bundle_ok(bundle)
