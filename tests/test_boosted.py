import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from dealopt import bench, boosted, envelopes
from dealopt.analysis import fit_linear_rate
from dealopt.boosted import BoostedConfig, run_bhippa, run_bpga
from dealopt.core import (REEVALUATE_BLOCK, TRACE_COLUMNS, CapabilityError,
                          CompositeObjective, DataError, HolderInfo,
                          UsageError, certify_descent, reevaluate_trace)
from dealopt.directions import DirectionRule
from dealopt.envelopes import (AbsPower, SeparableProx, fbe_value,
                               fbe_value_grad, forward_backward_map,
                               home_rows, home_value_grad)
from dealopt.problems import (LassoProblem, PowerAbsProblem, generate_problem,
                              reference_optimum)
from objectives import plain


def column_bits(trace):
    """The bytes of the trace's six columns: two traces match in them bit
    for bit, a NaN matching a NaN."""
    return [getattr(trace, name).tobytes() for name in TRACE_COLUMNS]


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
        cfg = BoostedConfig(gamma=gamma, sigma=sigma, max_linesearch=0)
        X = []
        tr = run_bpga(comp, np.ones(6) * 2.0, cfg, X.append)
        assert tr.extras["termination"] == "tolerance"
        assert certify_descent(tr, tr.rho, tr.theta).passed
        assert len(X) == len(tr)
        for i in range(len(X) - 1):
            T = forward_backward_map(comp, X[i], gamma)
            assert np.allclose(X[i + 1], T)

    def test_hand_example_first_candidate(self):
        # scalar l1 regression, identity design, gamma 0.25, L = 1
        prob, comp, _, _ = None, None, None, None
        lp = LassoProblem(np.array([[1.0]]), np.array([0.0]), lam=1.0)
        comp = lp.as_composite()
        T = forward_backward_map(comp, np.array([3.0]), 0.25)
        assert T == pytest.approx([2.0])  # soft(2.25, 0.25)
        ev = fbe_value_grad(comp, np.array([3.0]), 0.25)
        rho = 0.05 / (1.25) ** 2
        threshold = ev.value - rho * ev.grad_norm ** 2
        cfg = BoostedConfig(gamma=0.25, sigma=0.05, max_iter=200)
        tr = run_bpga(comp, np.array([3.0]), cfg)
        # the acceptance threshold at k=0 is honored by the recorded value
        assert tr.f[0] == pytest.approx(ev.value)
        assert tr.f[1] <= threshold + 1e-12
        assert certify_descent(tr, tr.rho, tr.theta).passed

    @pytest.mark.parametrize("direction", ["gradient", "bb1", "bb2", "lbfgs"])
    def test_directions_all_certify(self, direction):
        prob, comp, gamma, sigma = lasso_setup(seed=8)
        cfg = BoostedConfig(gamma=gamma, sigma=sigma, rule=DirectionRule(direction))
        xs = []
        tr = run_bpga(comp, np.random.default_rng(0).uniform(-5, 5, 6), cfg, xs.append)
        assert tr.extras["termination"] == "tolerance"
        checked = reevaluate_trace(tr, xs, lambda X: prob.fbe_rows(X, gamma))
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
        bpga = run_bpga(comp, np.ones(6) * 2.0, cfg)
        bhippa = run_bhippa(AbsPower(4.0), np.linspace(-1.5, 2.0, 5),
                            BoostedConfig(p=4.0, max_linesearch=0))
        for tr in (bpga, bhippa):
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
        assert column_bits(default) == column_bits(explicit)
        assert default.extras == explicit.extras
        assert default.extras["gamma"] == 0.95 / prob.L

    def test_parameter_validation(self):
        _, comp, gamma, _ = lasso_setup()
        with pytest.raises(UsageError):
            run_bpga(comp, np.zeros(6), BoostedConfig(gamma=10.0, sigma=1e-9))
        with pytest.raises(UsageError):
            run_bpga(comp, np.zeros(6), BoostedConfig(gamma=gamma, sigma=0.9))

    def test_gamma_at_one_over_L_is_refused_before_any_envelope_value(self, monkeypatch):
        # the run checks gamma once; fbe_value, called per trial, does not
        prob, comp, _, _ = lasso_setup()
        log = log_envelope_values(monkeypatch)
        with pytest.raises(UsageError, match=r"gamma must lie in \(0, 1/L\)"):
            run_bpga(comp, np.zeros(6), BoostedConfig(gamma=1.0 / prob.L))
        assert log == []

    def test_a_smooth_part_without_hess_apply_is_refused_before_any_record(self):
        # the envelope gradient needs the Hessian-apply oracle: the run is
        # refused with gamma's checks, before the smooth part is called
        calls = []

        def value(x):
            calls.append(x)
            return 0.5 * float(x @ x)
        smooth = plain(1, value, lambda x: np.asarray(x, dtype=float),
                       holder=HolderInfo(nu=1.0, L=1.0))
        comp = CompositeObjective(smooth=smooth, nonsmooth=envelopes.L1Norm(1.0))
        xs = []
        with pytest.raises(CapabilityError, match="Hessian-apply"):
            run_bpga(comp, np.array([1.0]), BoostedConfig(), xs.append)
        assert xs == [] and calls == []


class TestGradientTrialScale:
    """The gradient direction's trials are gamma alpha_bar^m: the envelope
    gradient is about 1/gamma times the forward-backward residual, so the
    step t d has the residual's unit."""

    def test_the_steps_do_not_depend_on_the_units_of_the_data(self):
        # the lasso (c A, c b, c^2 lam) is the lasso times c^2: gamma scales
        # by 1/c^2, the envelope gradient by c^2 and eps goes with it
        problem = generate_problem(0, "lasso", 60, 20, consistent=True)
        x0 = np.random.default_rng(0).uniform(-5.0, 5.0, problem.n)
        steps = {}
        for c in (0.1, 1.0, 10.0):
            comp = LassoProblem(c * problem.A, c * problem.b, c * c * problem.lam).as_composite()
            trace = run_bpga(comp, x0, BoostedConfig(
                eps=1e-6 * c * c, rule=DirectionRule("gradient", beta=0.0)))
            assert trace.extras["termination"] == "tolerance"
            steps[c] = len(trace) - 1
        # measured: 216 each; 193, 52 and 53 with the trials alpha_bar^m
        assert steps[0.1] == steps[1.0] == steps[10.0], steps

    @pytest.mark.parametrize("seed", range(5))
    def test_bpga_takes_no_more_steps_than_forward_backward_on_sec53(self, seed):
        config = bench.preset("sec53", seed)
        problem = bench.build_problem(config.problem)
        spec, = (spec for spec in config.solvers if spec.name == "BPGA")
        steps = {}
        for name, variant in (("BPGA", spec),
                              ("PG", bench.SolverSpec(name="PG", solver="bpga",
                                                      max_linesearch=0))):
            trace = bench.run_variant(problem, variant, config.run).trace
            assert trace.extras["termination"] == "tolerance"
            steps[name] = len(trace) - 1
        assert steps["BPGA"] <= steps["PG"], steps


def log_envelope_values(monkeypatch):
    """Log of the envelope values the solver takes: the bytes of each point
    valued exactly (x0, each exact trial and each proximal point taken) and
    its value."""
    log = []
    real = boosted.fbe_value

    def logged(problem, x, gamma):
        value = real(problem, x, gamma)
        log.append((x.tobytes(), value))
        return value
    monkeypatch.setattr(boosted, "fbe_value", logged)
    return log


def assert_accepted_steps_pass_exactly(trace, iterates, log):
    """Every step taken at a trial was evaluated exactly at its threshold;
    ``iterates`` are those the run handed to ``observe``."""
    exact = dict(log)
    taken = 0
    for k, f, g, step, x_next in zip(trace.k, trace.f, trace.grad_norm, trace.step,
                                     iterates[1:]):
        if step > 0.0:
            threshold = f - trace.rho * g ** trace.theta
            assert exact[x_next.tobytes()] <= threshold, k
            taken += 1
    return taken


def assert_every_trial_up_to_the_one_taken_is_valued(trace, iterates, log):
    """The run valued x0, the trials m = 1..m_taken of each step (all of them
    when the step falls back) and each proximal point taken, each once, and
    every step taken passes the exact test."""
    assert len(log) == 1 + sum(trace.inner_count) + prox_steps(trace)
    assert_accepted_steps_pass_exactly(trace, iterates, log)


class TestBPGATrials:
    """``bpga`` values each trial it offers exactly, in order, and takes a
    trial only when its exact envelope value passes the threshold."""

    @pytest.mark.parametrize("seed", range(5))
    def test_sec53_values_every_trial_up_to_the_one_taken(self, monkeypatch, run_storing,
                                                          seed):
        config = bench.preset("sec53", seed)
        problem = bench.build_problem(config.problem)
        for spec in config.solvers:
            log = log_envelope_values(monkeypatch)
            result, xs, _ = run_storing(problem, spec, config.run)
            assert len(result.trace) > 2
            assert_every_trial_up_to_the_one_taken_is_valued(result.trace, xs, log)
            monkeypatch.undo()

    @pytest.mark.parametrize("shape, lam, seed, consistent", [
        pytest.param((50, 5), 0.1, 2, False, id="50x5"),
        pytest.param((30, 4), 0.2, 2, False, id="30x4-lam0.2"),
        pytest.param((40, 40), 0.1, 0, True, id="40x40-consistent"),
        pytest.param((60, 20), 0.1, 0, True, id="60x20-consistent")])
    @pytest.mark.parametrize("max_linesearch", [0, 1, 2, 50])
    @pytest.mark.parametrize("alpha_bar", [0.5, 0.9])
    @pytest.mark.parametrize("direction", ["gradient", "bb1", "bb2", "lbfgs"])
    def test_small_lassos_value_every_trial_up_to_the_one_taken(
            self, monkeypatch, shape, lam, seed, consistent, max_linesearch, alpha_bar,
            direction):
        comp = generate_problem(seed, "lasso", *shape, lam=lam,
                                consistent=consistent).as_composite()
        x0 = np.random.default_rng(1).uniform(-5.0, 5.0, shape[1])
        log = log_envelope_values(monkeypatch)
        xs = []
        trace = run_bpga(comp, x0, BoostedConfig(
            max_linesearch=max_linesearch, alpha_bar=alpha_bar,
            rule=DirectionRule(direction, beta=0.5 if direction == "gradient" else 0.0)),
            xs.append)
        assert len(trace) > 2
        assert_every_trial_up_to_the_one_taken_is_valued(trace, xs, log)

    def test_every_step_taken_passes_the_exact_test(self, monkeypatch):
        problem = bench.build_problem(bench.preset("sec53", 0).problem)
        comp = problem.as_composite()
        x0 = np.random.default_rng(0).uniform(-5.0, 5.0, problem.n)
        taken = 0
        for direction in ("gradient", "bb1", "bb2", "lbfgs"):
            for alpha_bar in (0.5, 0.9):
                log = log_envelope_values(monkeypatch)
                xs = []
                trace = run_bpga(comp, x0, BoostedConfig(
                    alpha_bar=alpha_bar, rule=DirectionRule(direction)), xs.append)
                assert trace.extras["termination"] == "tolerance"
                taken += assert_accepted_steps_pass_exactly(trace, xs, log)
                monkeypatch.undo()
        assert taken > 100

    def test_every_trial_is_offered_without_a_line_oracle(self, monkeypatch):
        # nothing screens the trials: each step offers all of them, in order,
        # against the step's threshold f - rho ||grad||^theta, and then the
        # proximal point with no bound
        steps = []
        real_step = boosted._step

        def offering(rule, trace, trials, candidate):
            step = real_step(rule, trace, trials, candidate)

            def offered(ev, gn):
                offers = list(step(ev, gn))
                steps.append((offers, trials, ev.prox_point,
                              ev.value - trace.rho * gn ** trace.theta))
                return iter(offers)
            return offered
        monkeypatch.setattr(boosted, "_step", offering)
        x0 = np.ones(6)
        prob = generate_problem(3, "lasso", 60, 6)
        run_bpga(prob.as_composite(), x0, BoostedConfig())
        smooth = prob.as_smooth()
        run_bpga(CompositeObjective(smooth, SeparableProx(lambda t: 0.1 * abs(t))), x0,
                 BoostedConfig(max_iter=3))
        assert steps
        for offers, trials, y, threshold in steps:
            assert [(m, t, bound) for m, t, _, bound in offers] == (
                [(m, t, threshold) for m, t in trials] + [(len(trials), 0.0, None)])
            assert offers[-1][2] is y


FBE_ROWS_CASES = {
    "sec53": lambda: bench.build_problem(bench.preset("sec53", 0).problem),
    "50x5": lambda: generate_problem(0, "lasso", 50, 5),
    "30x4-lam0.2": lambda: generate_problem(0, "lasso", 30, 4, lam=0.2),
}


@pytest.mark.parametrize("case", FBE_ROWS_CASES)
def test_fbe_rows_matches_the_per_point_envelope(case):
    # the two round in another order; each term of the envelope is known to
    # a few eps of its own magnitude (measured: at most 3.4 eps for values,
    # 1.2 eps for gradients, at the scales below), not of the envelope
    # value, which cancels (up to 96 eps of max(1, |value|))
    eps = np.finfo(float).eps
    problem = FBE_ROWS_CASES[case]()
    comp = problem.as_composite()
    gamma = 0.95 / problem.L
    X = np.vstack([np.random.default_rng(1).uniform(-5.0, 5.0, (700, problem.n)),
                   reference_optimum(problem).xstar, np.zeros(problem.n)])
    values, G = problem.fbe_rows(X, gamma)
    assert values.shape == (len(X),) and G.shape == X.shape
    for x, value, gradient in zip(X, values, G):
        ev = fbe_value_grad(comp, x, gamma)
        D = ev.prox_point - x
        gf = problem.smooth_complete(problem.smooth_value(x)).gradient
        terms = (problem.smooth_value(x) + abs(gf @ D) + D @ D / (2.0 * gamma)
                 + problem.lam * np.abs(ev.prox_point).sum())
        assert abs(value - ev.value) <= 32.0 * eps * terms
        scale = (1.0 / gamma + problem.L) * (np.linalg.norm(x) + np.linalg.norm(ev.prox_point)
                                             + gamma * np.linalg.norm(gf))
        assert np.linalg.norm(gradient - ev.gradient) <= 16.0 * eps * scale


def counted(smooth, calls):
    """``smooth`` with each of its oracles counting its calls in ``calls``."""
    def count(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return None if fn is None else wrapper
    return dataclasses.replace(smooth, **{name: count(name, getattr(smooth, name))
                                          for name in ("value", "complete", "hess_apply")})


class TestOneSmoothCallPerPoint:
    """An envelope point values lasso's smooth part once and completes it
    once, the completion reusing the value's G x; the certificate's batch
    path keeps the residual form."""

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "composed"])
    def test_each_envelope_point_makes_one_smooth_call(self, fused):
        # fused: lasso's own smooth part; composed: the same value and
        # gradient as plain functions, the gradient formed from x alone
        problem = generate_problem(2, "lasso", 50, 5)
        calls = Counter()
        smooth = problem.as_smooth()
        if not fused:
            smooth = plain(problem.n, lambda x: problem.smooth_value(x).value,
                           lambda x: problem.G @ x - problem.c,
                           hess_apply=smooth.hess_apply, holder=smooth.holder)
        comp = CompositeObjective(counted(smooth, calls), envelopes.L1Norm(problem.lam))
        gamma = 0.95 / problem.L
        one = {"value": 1, "complete": 1}
        for x in np.random.default_rng(4).uniform(-5.0, 5.0, (20, 5)):
            calls.clear()
            value = fbe_value(comp, x, gamma)
            assert calls == one
            # fused or composed, the envelope is the same, bit for bit
            assert value == fbe_value(problem.as_composite(), x, gamma)
            calls.clear()
            fbe_value_grad(comp, x, gamma)
            assert calls == {**one, "hess_apply": 1}
            calls.clear()
            forward_backward_map(comp, x, gamma)
            assert calls == one

    def test_fbe_rows_uses_no_gram_oracle(self):
        problem = bench.build_problem(bench.preset("sec53", 0).problem)
        gamma = 0.95 / problem.L
        X = np.random.default_rng(6).uniform(-5.0, 5.0, (50, problem.n))
        values, G = problem.fbe_rows(X, gamma)

        def refuse(*args):
            raise AssertionError("a Gram oracle was called")
        for name in ("smooth_value", "smooth_complete", "hess_apply"):
            setattr(problem, name, refuse)
        problem.G = problem.c = problem._half_bb = None
        rows = problem.fbe_rows(X, gamma)
        assert np.array_equal(rows[0], values) and np.array_equal(rows[1], G)


HOME_ROWS_POINTS = np.vstack([
    np.random.default_rng(2).uniform(-5.0, 5.0, (300, 6)),
    [0.0, 1e-12, -1e-12, 5e-324, 50.0, -100.0],
    [-100.0, 50.0, -5e-324, -1e-12, 1e-12, 0.0],
])


@pytest.mark.parametrize("s", [1.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 4.0, "matched"])
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_home_rows_matches_the_per_point_envelope(s, p):
    # one prox solve for the block against one per point: the prox is
    # elementwise, and each row's sums are taken as the per-point ones
    # (a row of a row-wise sum as the row alone, and at p = 2 the BLAS dot
    # of d @ d), so values and gradients agree bit for bit.  The warnings
    # come from |d|^(p-2) at d = 0 for p < 2, zeroed by both.
    problem = PowerAbsProblem(s=s, n=6)
    p = problem.kl_info().order if p == "matched" else p
    g = problem.as_prox_capable()
    for gamma in (1.0, 0.3):
        values, G = envelopes.home_rows(g, HOME_ROWS_POINTS, gamma, p)
        assert values.shape == (len(HOME_ROWS_POINTS),) and G.shape == HOME_ROWS_POINTS.shape
        for x, value, gradient in zip(HOME_ROWS_POINTS, values.tolist(), G):
            ev = home_value_grad(g, x, gamma, p)
            assert value == ev.value
            assert gradient.tobytes() == ev.gradient.tobytes()


class TestBHiPPA:
    def test_pure_prox_on_quadratic_halves_iterates(self):
        phi = SeparableProx(lambda t: 0.5 * t * t)
        cfg = BoostedConfig(gamma=1.0, sigma=0.4, p=2.0, max_linesearch=0,
                            eps=1e-5, max_iter=60)
        xs = []
        tr = run_bhippa(phi, np.array([2.0]), cfg, xs.append)
        X = np.stack(xs).ravel()
        assert len(X) == len(tr)
        assert np.allclose(X, 2.0 * 0.5 ** np.arange(len(X)), atol=1e-7)
        # plain proximal-point decrease: envelope x^2/4 drops to x^2/16 <= x^2/8
        assert certify_descent(tr, rho=0.5, theta=2.0).passed

    def test_powerabs_matched_order_certifies(self):
        pa = PowerAbsProblem(s=4.0, n=1)
        p = pa.kl_info().order
        assert p == 4.0
        cfg = BoostedConfig(gamma=1.0, sigma=0.1, p=p)
        xs = []
        tr = run_bhippa(pa.as_prox_capable(), np.array([2.0]), cfg, xs.append)
        assert tr.extras["termination"] == "tolerance"
        assert tr.theta == pytest.approx(4.0 / 3.0)
        assert tr.rho == pytest.approx(0.1 / 4.0)
        phi = pa.as_prox_capable()
        checked = reevaluate_trace(tr, xs, lambda X: home_rows(phi, X, 1.0, p))
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
        assert tr.extras["diagnostic"] == (
            "multi-valued proximal point at k=0; envelope gradient undefined")
        assert len(tr) == 0

    def test_multivalued_at_start_certifies_empty_trace(self):
        phi = SeparableProx(lambda t: (t * t - 1.0) ** 2)
        cfg = BoostedConfig(gamma=20.0, sigma=0.01)
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
        monkeypatch.setattr(bench, "run_bhippa", lambda phi, x0, cfg, observe: real(
            SeparableProx(lambda t: (t * t - 1.0) ** 2), [0.0],
            BoostedConfig(gamma=20.0, sigma=0.01), observe))
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
        assert column_bits(default) == column_bits(explicit)
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


def _bhippa_experiment(n, seed=0, s=4.0):
    problem = bench.build_problem(bench.ProblemSpec(kind="powerabs", n=n, s=s, seed=seed))
    spec = bench.SolverSpec(name="BHIPPA", solver="bhippa", order="auto")
    return problem, spec, bench.RunSpec(x0_seed=seed)


class TestBHiPPARhoBelowOrderTwo:
    # the fallback decreases the separable envelope by ||d||_p^p / (p gamma)
    # and ||grad|| = ||d||_r^(p-1) / gamma with r = 2(p-1); below order 2,
    # r < p and ||d||_p^p >= n^(1 - p/r) ||d||_r^p is all that holds
    def test_rho_carries_the_dimension_factor_below_order_two(self):
        for n in (1, 4, 100):
            tr = run_bhippa(AbsPower(1.5), np.ones(n),
                            BoostedConfig(gamma=2.0, sigma=0.2, p=1.5, max_iter=1))
            assert tr.rho == pytest.approx(0.2 * 2.0 ** 2 * n ** -0.5 / 1.5, rel=1e-15)
        for p in (2.0, 4.0):
            tr = run_bhippa(AbsPower(4.0), np.ones(100),
                            BoostedConfig(gamma=2.0, sigma=0.1, p=p, max_iter=1))
            assert tr.rho == 0.1 * 2.0 ** (1.0 / (p - 1.0)) / p

    @pytest.mark.parametrize("n, s", [(100, 1.5), (10, 1.5), (100, 1.25), (100, 1.8)])
    def test_auto_order_certifies_descent(self, n, s):
        # with the dimension-free rho every seed failed descent at (100, 1.5)
        for seed in (7, 8):
            result = bench.run_variant(*_bhippa_experiment(n, seed, s))
            certs = result.certificates
            assert certs["descent"]["passed"] and certs["min_grad_bound"]["passed"]
            assert result.ok and certs["termination"] == "displacement"


@pytest.mark.parametrize("s", [3.0, 5.0, 6.0])
def test_auto_order_is_the_run_at_order_s(monkeypatch, s):
    # 1/(1 - (1 - 1/s)) rounds above s for these s; the declared order does
    # not, so order auto is the run at order s, closed-form prox throughout
    calls = []
    newton = envelopes._abs_power_root
    monkeypatch.setattr(envelopes, "_abs_power_root",
                        lambda *args: calls.append(args) or newton(*args))
    problem, spec, run = _bhippa_experiment(200, s=s)
    auto = bench.run_variant(problem, spec, run)
    assert auto.trace.extras["p"] == s and not calls
    explicit = bench.run_variant(problem, dataclasses.replace(spec, order=s), run)
    assert column_bits(auto.trace) == column_bits(explicit.trace)
    assert auto.ok and auto.certificates["termination"] == "tolerance"


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

    def test_reevaluation_computes_each_envelope_once(self, monkeypatch, run_storing):
        # each record's iterate is re-evaluated once, through one batch
        # call per block of REEVALUATE_BLOCK iterates, and never through the
        # per-point envelope
        calls = Counter()
        rows = []
        for name in ("home_value", "home_value_grad", "home_rows"):
            real = getattr(envelopes, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                if _name == "home_rows":
                    rows.append(len(args[1]))
                return _real(*args, **kwargs)
            monkeypatch.setattr(envelopes, name, counted)
        problem, spec, run = _bhippa_experiment(5)
        # matched order: 36 records; order 2 to max_iter: 1,201 records, as
        # many blocks as it takes to hold them
        for order, extra in (("auto", {}), (2.0, dict(eps=1e-12, max_iter=1200))):
            calls.clear()
            rows.clear()
            result, xs, _ = run_storing(problem, dataclasses.replace(spec, order=order),
                                        dataclasses.replace(run, **extra))
            assert result.certificates["reevaluated"]
            # the solver calls boosted's own names; these are re-evaluation only
            assert calls == {"home_rows": -(-len(xs) // REEVALUATE_BLOCK)}
            assert sum(rows) == len(xs)
        assert len(rows) == -(-1201 // REEVALUATE_BLOCK)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_records_are_fresh_evaluations(trace, iterates, evaluate):
    """Every record's value and gradient norm are, bit for bit, those of a
    fresh ``evaluate`` at its iterate, as the run handed it to ``observe``,
    although the loop completed the accepted trial's evaluation in place of
    most of them."""
    assert len(trace) > 2 and len(iterates) == len(trace)
    for k, f, g, x in zip(trace.k, trace.f, trace.grad_norm, iterates):
        ev = evaluate(x)
        assert same_bits(f, ev.value) and same_bits(g, ev.grad_norm), k


def logcosh_lasso():
    """f = 0.5 ||A x - b||^2 + 4 sum log cosh(x_i) with the l1 term."""
    lasso = generate_problem(4, "lasso", 60, 6)
    A = lasso.A
    smooth = plain(
        6,
        lambda x: lasso.smooth_value(x) + 4.0 * float(np.sum(np.log(np.cosh(x)))),
        lambda x: lasso.G @ x - lasso.c + 4.0 * np.tanh(x),
        hess_apply=lambda x, v: A.T @ (A @ v) + 4.0 * v / np.cosh(x) ** 2,
        holder=HolderInfo(nu=1.0, L=lasso.L + 4.0))
    return CompositeObjective(smooth, envelopes.L1Norm(lasso.lam))


def count_envelope_calls(monkeypatch):
    """Calls of the four envelope names in ``boosted``'s namespace."""
    calls = Counter()
    for name in ("fbe_value", "fbe_value_grad", "home_value", "home_value_grad"):
        def counted(*args, _real=getattr(boosted, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(boosted, name, counted)
    return calls


def prox_steps(trace):
    return sum(step == 0.0 for step in trace.step)


class TestCarriedEvaluation:
    """The accepted trial's envelope evaluation is completed with its
    gradient and becomes the next step's, in place of a second evaluation."""

    @pytest.mark.parametrize("seed", range(5))
    def test_sec53_records_are_fresh_evaluations(self, run_storing, seed):
        config = bench.preset("sec53", seed)
        problem = bench.build_problem(config.problem)
        comp = problem.as_composite()
        for spec in config.solvers:
            result, xs, _ = run_storing(problem, spec, config.run)
            gamma = result.trace.extras["gamma"]
            assert_records_are_fresh_evaluations(
                result.trace, xs, lambda x: fbe_value_grad(comp, x, gamma))

    @pytest.mark.parametrize("direction", ["gradient", "bb1", "lbfgs"])
    def test_logcosh_records_are_fresh_evaluations(self, direction):
        comp = logcosh_lasso()
        xs = []
        trace = run_bpga(comp, np.random.default_rng(3).uniform(-5.0, 5.0, 6), BoostedConfig(
            alpha_bar=0.9, rule=DirectionRule(direction)), xs.append)
        assert trace.extras["termination"] == "tolerance"
        gamma = trace.extras["gamma"]
        assert_records_are_fresh_evaluations(trace, xs,
                                             lambda x: fbe_value_grad(comp, x, gamma))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_powerabs_records_are_fresh_evaluations(self, run_storing, seed):
        problem, spec, run = _bhippa_experiment(100, seed)
        result, xs, _ = run_storing(problem, spec, run)
        phi, extras = problem.as_prox_capable(), result.trace.extras
        assert_records_are_fresh_evaluations(
            result.trace, xs, lambda x: home_value_grad(phi, x, extras["gamma"], extras["p"]))

    def test_separable_records_are_fresh_evaluations(self):
        phi = SeparableProx(lambda t: abs(t) ** 3 + 0.5 * t * t)
        xs = []
        trace = run_bhippa(phi, np.array([1.5, -0.7]), BoostedConfig(p=3.0, eps=1e-5),
                           xs.append)
        assert trace.extras["termination"] == "tolerance"
        assert_records_are_fresh_evaluations(trace, xs,
                                             lambda x: home_value_grad(phi, x, 1.0, 3.0))

    def test_each_point_is_valued_once_and_no_full_evaluation_runs(self, monkeypatch):
        # the loop values x0, each exact trial and each proximal point it
        # takes through *_value, and completes the point taken: it makes no
        # *_value_grad call
        calls = count_envelope_calls(monkeypatch)
        valued = []
        counted = boosted.fbe_value

        def logged(*args):
            valued.append(counted(*args))
            return valued[-1]
        monkeypatch.setattr(boosted, "fbe_value", logged)
        totals, trials, taken = Counter(), Counter(), Counter()
        # sec53 seed 0 takes no proximal point; seed 6's BPGA-1 takes one
        for seed in (0, 6):
            config = bench.preset("sec53", seed)
            problem = bench.build_problem(config.problem)
            for spec in config.solvers:
                calls.clear()
                valued.clear()
                trace = bench.run_variant(problem, spec, config.run).trace
                assert set(calls) == {"fbe_value"}, spec.name
                # a proximal point taken is the one an earlier value computed
                prox = {id(ev.prox_point) for ev in valued}
                fallbacks = sum(id(ev.x) in prox for ev in valued[1:])
                assert fallbacks == prox_steps(trace), spec.name
                totals[seed] += calls["fbe_value"]
                trials[seed] += calls["fbe_value"] - 1 - fallbacks
                taken[seed] += fallbacks
        assert taken[0] == 0 and taken[6] == 1
        # seed 0's five variants make 131 exact trials and value five x0s
        assert trials[0] == 131 and totals == {0: 136, 6: 177}
        calls.clear()
        trace = run_bpga(generate_problem(3, "lasso", 60, 6).as_composite(), np.ones(6),
                         BoostedConfig(max_linesearch=0))
        assert calls == {"fbe_value": len(trace)} and len(trace) > 2
        calls.clear()
        trace = bench.run_variant(*_bhippa_experiment(100, 7)).trace
        assert set(calls) == {"home_value"} and calls["home_value"] > len(trace) > 2
        calls.clear()
        phi = PowerAbsProblem(s=4.0, n=5).as_prox_capable()
        trace = run_bhippa(phi, np.linspace(-1.5, 2.0, 5), BoostedConfig(p=4.0, max_linesearch=0))
        assert calls == {"home_value": len(trace)} and len(trace) > 2


@pytest.mark.parametrize("solver", ["bpga", "bhippa"])
def test_observed_iterates_are_x0_then_arrays_of_their_own(solver):
    # a float x0 is observed as itself; every later iterate is the loop's own
    # array, and the loop writes into none of them
    xs, copies = [], []

    def observe(x):
        xs.append(x)
        copies.append(x.copy())
    if solver == "bpga":
        x0 = np.ones(6)
        trace = run_bpga(generate_problem(3, "lasso", 60, 6).as_composite(), x0,
                         BoostedConfig(), observe)
    else:
        x0 = np.linspace(-1.5, 2.0, 5)
        trace = run_bhippa(PowerAbsProblem(s=4.0, n=5).as_prox_capable(), x0,
                           BoostedConfig(p=4.0), observe)
    assert trace.extras["termination"] == "tolerance" and len(trace) > 2
    assert xs[0] is x0
    assert all(np.array_equal(x, copy) for x, copy in zip(xs, copies, strict=True))
    assert len({id(x) for x in xs}) == len(trace)


def test_bpga_nonfinite_start_stops_without_a_record():
    # from 1e170 the envelope is NaN: 21 NaN records and max_iter before
    problem = generate_problem(0, "lasso", 50, 5)
    trace = run_bpga(problem.as_composite(), np.full(5, 1e170),
                     BoostedConfig(max_iter=20))
    assert trace.extras["termination"] == "nonfinite"
    assert trace.extras["diagnostic"] == "non-finite envelope value or gradient at k=0"
    assert len(trace) == 0
    bundle = bench.certify_run(trace, {"fstar": 0.0})
    assert bundle["termination"] == "nonfinite" and bench.bundle_ok(bundle)


class Sinkhole:
    """t^2/2 per coordinate, whose value is -inf below t = 0.3."""

    def value(self, y):
        return -math.inf if y[0] < 0.3 else 0.5 * float(y @ y)

    def prox(self, x, gamma, p=2.0):
        return np.asarray(x, dtype=float) / (1.0 + gamma)


def test_bhippa_stops_on_a_taken_trial_whose_envelope_value_is_not_finite():
    # from 1 the first trial lands at 0.5, whose proximal point 0.25 is in the
    # sink: its value -inf passes the threshold, as on the objective itself
    # the run stops there, and the step to it is not recorded
    trace = run_bhippa(Sinkhole(), [1.0], BoostedConfig(gamma=1.0))
    assert trace.extras["termination"] == "nonfinite"
    assert trace.extras["diagnostic"] == "non-finite envelope value at k=1"
    assert len(trace) == 1 and trace.f[0] == 0.25
    assert math.isnan(trace.step[0])


class Cliff:
    """t^2/2 per coordinate, whose value is NaN everywhere but at t = 0.5."""

    def value(self, y):
        return 0.5 * float(y @ y) if y[0] == 0.5 else math.nan

    def prox(self, x, gamma, p=2.0):
        return np.asarray(x, dtype=float) / (1.0 + gamma)


def test_bhippa_stops_on_a_fallback_point_whose_envelope_value_is_not_finite():
    # from 1 the proximal point 0.5 is the one point of finite value; every
    # trial's proximal point is elsewhere, so no trial passes and the step
    # falls back to 0.5, whose own proximal point 0.25 makes its value NaN:
    # the run stops there, as on a taken trial, and the step is not recorded
    trace = run_bhippa(Cliff(), [1.0], BoostedConfig(gamma=1.0, max_iter=5))
    assert trace.extras["termination"] == "nonfinite"
    assert trace.extras["diagnostic"] == "non-finite envelope value at k=1"
    assert trace.extras["fallbacks"] == 1
    assert len(trace) == 1 and trace.f[0] == 0.25
    assert math.isnan(trace.step[0]) and trace.inner_count[0] == 0
    assert math.isnan(trace.displacement[0])
