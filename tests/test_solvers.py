import dataclasses
import math
import sys
import types
import warnings
from collections import Counter

import numpy as np
import pytest

from dealopt import bench, solvers
from dealopt.boosted import BoostedConfig, run_bhippa, run_bpga
from dealopt.core import (TRACE_COLUMNS, CapabilityError, CompositeObjective,
                          HolderInfo, UsageError, as_vector,
                          certify_descent, certify_displacement,
                          reevaluate_trace)
from dealopt.directions import KINDS, DirectionRule, beta_for_holder, generalize
from dealopt.envelopes import SeparableProx
from dealopt.problems import PowerAbsProblem, generate_problem
from dealopt.solvers import (ArmijoParams, DealConfig, armijo_bound, check_constant,
                             dealc_step_size, run_deala, run_dealc)
from objectives import plain


def quadratic_objective(L=1.0):
    return plain(
        dim=1,
        value=lambda x: 0.5 * float(x @ x),
        grad=lambda x: np.asarray(x, dtype=float),
        holder=HolderInfo(nu=1.0, L=L),
    )


class TestStepSize:
    def test_formula_values(self):
        assert dealc_step_size(1.0, 1.0, 1.0, 2.0) == pytest.approx(0.5)
        assert dealc_step_size(1.0, 1.0, 0.5, 1.0) == pytest.approx(1.0)

    def test_inside_admissible_interval(self):
        for nu in (0.3, 0.5, 1.0):
            a = dealc_step_size(1.0, 1.0, nu, 3.0)
            upper = (1.0 * (1 + nu) / (1.0 * 3.0)) ** (1 / nu)
            assert 0 < a <= upper

    def test_rejects_bad_inputs(self):
        with pytest.raises(UsageError):
            dealc_step_size(1.0, 1.0, 1.5, 1.0)

    def test_refuses_constants_out_of_a_doubles_range(self):
        # c2^(1+nu) overflows, the step underflows, c_bar underflows, or the
        # step is a double and rho = c1 alpha nu / (1 + nu) underflows
        with pytest.raises(UsageError, match="step must be a positive finite double, got nan"):
            dealc_step_size(1.0, 1e308, 0.5, 1.0)
        with pytest.raises(UsageError, match="step must be a positive finite double, got 0.0"):
            dealc_step_size(1e-300, 1.0, 0.5, 1.0)
        with pytest.raises(UsageError, match="c_bar must be a positive finite double, got 0.0"):
            armijo_bound(0.5, 1e-4, 0.5, 1e-300, 1.0, 1.0, 1.0)
        cfg = DealConfig(rule=DirectionRule("gradient", beta=0.0, c1=1e-200))
        with pytest.raises(UsageError, match="rho must be a positive finite double, got 0.0"):
            run_dealc(quadratic_objective(), np.array([5.0]), cfg)

    def test_refuses_a_subnormal_constant(self):
        # positive and finite, but below the smallest normal double
        tiny = sys.float_info.min
        assert check_constant("rho", tiny) == tiny
        with pytest.raises(UsageError, match=r"rho must be a positive finite double, "
                                             r"got 5e-324 \(subnormal\) from sigma=1"):
            check_constant("rho", 5e-324, sigma=1)
        with pytest.raises(UsageError, match=r"got 1e-310 \(subnormal\)"):
            check_constant("rho", 1e-310)
        with pytest.raises(UsageError, match=r"got inf from $"):
            check_constant("rho", math.inf)


class TestDealC:
    def test_one_step_exact_quadratic(self):
        tr = run_dealc(quadratic_objective(), np.array([5.0]), DealConfig())
        assert len(tr) == 2
        assert tr.f[-1] == 0.0
        assert tr.extras["termination"] == "tolerance"
        assert certify_descent(tr, rho=0.5, theta=2.0).passed
        assert tr.rho == pytest.approx(0.5) and tr.theta == 2.0

    def test_halved_step_gives_quarter_gap_ratio(self):
        # declaring L = 2 on f = x^2/2 halves the step: x -> x/2 each iteration
        tr = run_dealc(quadratic_objective(L=2.0), np.array([4.0]),
                       DealConfig(max_iter=20))
        gaps = tr.f_values()
        ratios = gaps[1:6] / gaps[:5]
        assert ratios == pytest.approx([0.25] * 5)
        assert certify_descent(tr, tr.rho, tr.theta).passed

    def test_leastp_certificates_from_reevaluated_iterates(self):
        prob = generate_problem(21, "leastp", 60, 12, p=1.5, consistent=True)
        obj = prob.as_smooth()
        xs = []
        tr = run_dealc(obj, np.random.default_rng(0).uniform(-5, 5, 12), DealConfig(),
                       xs.append)
        assert tr.extras["termination"] == "tolerance"
        checked = reevaluate_trace(tr, xs, prob.value_grad_rows)
        assert certify_descent(checked, tr.rho, tr.theta).passed
        c = 1.0 * tr.extras["alpha"]  # c2 * alpha
        assert certify_displacement(checked, c, tr.theta).passed

    def test_heuristic_beta_flagged(self):
        prob = generate_problem(21, "leastp", 40, 8, p=1.5, consistent=True)
        cfg = DealConfig(rule=DirectionRule("gradient", beta=-0.2), max_iter=50)
        tr = run_dealc(prob.as_smooth(), np.ones(8), cfg)
        assert not tr.guaranteed
        assert tr.theta == pytest.approx(1.8)

    def test_requires_holder(self):
        obj = plain(dim=1, value=lambda x: float(x @ x),
                    grad=lambda x: 2 * np.asarray(x))
        with pytest.raises(CapabilityError):
            run_dealc(obj, np.ones(1), DealConfig())

    def test_zero_gradient_start(self):
        tr = run_dealc(quadratic_objective(), np.array([0.0]), DealConfig())
        assert len(tr) == 1 and tr.extras["termination"] == "tolerance"

    def test_nonfinite_abort_diagnostic(self):
        obj = plain(
            dim=1,
            value=lambda x: float("inf") if abs(x[0]) > 10 else -float(x[0] ** 3),
            grad=lambda x: -3.0 * np.asarray(x, dtype=float) ** 2,
            holder=HolderInfo(nu=1.0, L=0.01),  # wrong on purpose: giant steps
        )
        tr = run_dealc(obj, np.array([5.0]), DealConfig(max_iter=10))
        assert tr.extras["termination"] == "nonfinite"
        assert "diagnostic" in tr.extras

    def test_overflowing_trial_point_stops_nonfinite(self):
        # a far too small declared L makes the first trial point overflow; the
        # oracle must not reject it as bad caller data
        prob = generate_problem(0, "leastp", 40, 8)
        obj = prob.as_smooth()
        obj.holder = HolderInfo(nu=0.5, L=1e-154)
        with np.errstate(over="ignore", invalid="ignore"):
            tr = run_dealc(obj, np.ones(8), DealConfig(max_iter=50))
        assert tr.extras["termination"] == "nonfinite"
        assert tr.extras["diagnostic"] == "non-finite objective at k=1"
        assert len(tr) == 1

    def test_overflowing_trial_point_stops_without_a_warning(self):
        # the termination and its diagnostic name the stop; numpy stays quiet
        prob = generate_problem(0, "leastp", 40, 8)
        obj = prob.as_smooth()
        obj.holder = HolderInfo(nu=0.5, L=1e-154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run_dealc(obj, np.ones(8), DealConfig(max_iter=50))
        assert tr.extras["termination"] == "nonfinite"


class TestArmijoBound:
    def test_unit_case(self):
        c_bar, p_bar, a_tilde = armijo_bound(1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0)
        assert c_bar == pytest.approx(1.0)
        assert p_bar == pytest.approx(1.0)
        assert a_tilde == pytest.approx(0.5)

    def test_sigma_to_zero_limit(self):
        c_bar, p_bar, a_tilde = armijo_bound(1.0, 1e-12, 0.5, 1.0, 1.0, 1.0, 1.0)
        assert c_bar == pytest.approx(2.0, rel=1e-9)
        assert p_bar == pytest.approx(0.0, abs=1e-9)
        assert a_tilde == pytest.approx(1.0, rel=1e-9)

    def test_bad_ranges(self):
        with pytest.raises(UsageError):
            armijo_bound(1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0)

    def test_the_floor_holds_for_a_direction_attaining_c1_and_c2(self):
        # f = 5||x||^2 (nu = 1, L = 10) along d = -c1 g + w, w orthogonal to g
        # and ||d|| = c2 ||g||: Armijo accepts alpha <= (1-sigma) c1 / (5 c2^2)
        # = 1.125e-4, so 2^-14 at p = 14, against alpha_tilde 5.6e-5 and
        # p_bar 14.1 from the c2^(1+nu) of the Hölder bound (2.2e-4 and 12.1
        # with c2^(1/nu))
        obj = plain(dim=2, value=lambda x: 5.0 * float(x @ x),
                    grad=lambda x: 10.0 * np.asarray(x, dtype=float),
                    holder=HolderInfo(nu=1.0, L=10.0))
        c1, c2 = 0.9, 4.0
        rule = DirectionRule("gradient", beta=0.0, c1=c1, c2=c2)
        w = math.sqrt(c2 ** 2 - c1 ** 2)
        rule.sufficient_base_direction = (
            lambda x, g, gn=None: -c1 * g + w * np.array([-g[1], g[0]]))
        tr = run_deala(obj, np.array([3.0, -4.0]), DealConfig(
            max_iter=50, rule=rule, armijo=ArmijoParams(sigma=0.99, eta=0.5)))
        assert tr.guaranteed and tr.extras["termination"] == "max_iter"
        steps, inner = tr.steps()[:-1], tr.inner_counts()[:-1]
        assert np.all(inner == 14)
        assert np.all(steps >= tr.extras["alpha_tilde"])
        assert np.all(inner <= tr.extras["p_bar"])
        assert certify_descent(tr, tr.rho, tr.theta).passed

    def test_the_floor_is_capped_at_alpha_bar(self):
        # a flat objective: c_bar = 10 > 1/eta makes p_bar negative, and
        # eta^p_bar alpha_bar = 5 exceeds every step the search tries
        obj = plain(dim=2, value=lambda x: 0.05 * float(x @ x),
                    grad=lambda x: 0.1 * np.asarray(x, dtype=float),
                    holder=HolderInfo(nu=1.0, L=0.1))
        tr = run_deala(obj, np.array([3.0, -4.0]),
                       DealConfig(max_iter=50, armijo=ArmijoParams(sigma=0.5)))
        assert tr.extras["p_bar"] < 0.0
        assert tr.extras["alpha_tilde"] == tr.extras["alpha_bar"] == 1.0
        assert tr.rho == 0.5
        assert np.all(tr.steps()[:-1] >= tr.extras["alpha_tilde"])
        assert certify_descent(tr, tr.rho, tr.theta).passed

    def test_an_uncapped_floor_keeps_its_value(self):
        c_bar, p_bar, a_tilde = armijo_bound(0.5, 1e-4, 0.5, 1.0, 1.0, 7.0, 1.0)
        assert p_bar > 0.0 and a_tilde == 0.5 ** p_bar * 1.0


class TestDealA:
    def test_quadratic_accepts_first_trial(self):
        # f=x^2/2, sigma=0.5, alpha_bar=1: the unit step is exactly the Armijo
        # boundary ((1-a)^2/2 <= 1/2 - sigma*a at a=1) and lands at zero
        cfg = DealConfig(armijo=ArmijoParams(sigma=0.5, eta=0.5, alpha_bar=1.0))
        tr = run_deala(quadratic_objective(), np.array([1.0]), cfg)
        assert len(tr) == 2
        assert tr.inner_count[0] == 0
        assert tr.f[-1] == 0.0

    def test_leastp_inner_counts_below_bound(self):
        prob = generate_problem(31, "leastp", 60, 12, p=1.5, consistent=True)
        obj = prob.as_smooth()
        cfg = DealConfig()
        xs = []
        tr = run_deala(obj, np.random.default_rng(1).uniform(-5, 5, 12), cfg, xs.append)
        assert tr.extras["termination"] == "tolerance"
        p_bar = tr.extras["p_bar"]
        a_tilde = tr.extras["alpha_tilde"]
        steps = tr.steps()[:-1]
        inner = tr.inner_counts()[:-1]
        assert np.all(inner <= p_bar)
        assert np.all(steps >= a_tilde * (1 - 1e-12))
        checked = reevaluate_trace(tr, xs, prob.value_grad_rows)
        assert certify_descent(checked, tr.rho, tr.theta).passed
        assert certify_displacement(checked, 1.0 * cfg.armijo.alpha_bar, tr.theta).passed

    def test_armijo_acceptance_post_hoc(self):
        # every recorded step obeys f' <= f - sigma * alpha * c1 * ||g||^(2+beta)
        prob = generate_problem(13, "leastp", 50, 10, p=2.0, consistent=True)
        tr = run_deala(prob.as_smooth(), np.random.default_rng(2).uniform(-5, 5, 10),
                       DealConfig())
        f, g = tr.f_values(), tr.grad_norms()
        steps = tr.steps()
        sigma, beta = tr.extras["sigma"], tr.extras["beta"]
        for k in range(len(tr) - 1):
            assert f[k + 1] <= f[k] - sigma * steps[k] * g[k] ** (2 + beta) + 1e-10 * max(1, abs(f[k]))

    def test_heuristic_beta_flagged(self):
        prob = generate_problem(31, "leastp", 40, 8, p=1.5, consistent=True)
        cfg = DealConfig(rule=DirectionRule("gradient", beta=-0.2), max_iter=100)
        tr = run_deala(prob.as_smooth(), np.ones(8), cfg)
        assert not tr.guaranteed

    def test_backtrack_limit_diagnostic(self):
        # a quartic with a wrongly declared Lipschitz constant needs many
        # shrinks far from the origin; a tiny cap triggers the diagnostic
        obj = plain(dim=1, value=lambda x: float(x[0] ** 4),
                    grad=lambda x: 4.0 * np.asarray(x, dtype=float) ** 3,
                    holder=HolderInfo(nu=1.0, L=1.0))
        cfg = DealConfig(armijo=ArmijoParams(max_backtracks=2))
        tr = run_deala(obj, np.array([50.0]), cfg)
        assert tr.extras["termination"] == "backtrack_limit"
        assert tr.extras["diagnostic"] == (
            "no Armijo step within 2 backtracks at k=0; "
            "declared Hölder constant is likely too small")

    def test_first_trial_at_constant_step_reproduces_dealc(self):
        # f = x'Hx/2 with exact L = max eig H: the constant step 1/L always
        # passes the Armijo test, so both step rules take the same steps
        h = np.array([1.0, 3.0, 10.0])
        obj = plain(dim=3, value=lambda x: 0.5 * float(x @ (h * x)),
                    grad=lambda x: h * np.asarray(x, dtype=float),
                    holder=HolderInfo(nu=1.0, L=10.0))
        x0 = np.array([4.0, -2.0, 1.0])
        const = run_dealc(obj, x0, DealConfig())
        alpha = const.extras["alpha"]
        armijo = run_deala(obj, x0, DealConfig(armijo=ArmijoParams(alpha_bar=alpha)))
        assert const.extras["termination"] == armijo.extras["termination"] == "tolerance"
        assert len(const) == len(armijo) > 2
        assert column_bits(const, "f", "grad_norm", "step", "displacement") == column_bits(
            armijo, "f", "grad_norm", "step", "displacement")
        assert not armijo.inner_counts().any()

    def test_config_validation(self):
        with pytest.raises(UsageError):
            ArmijoParams(sigma=0.0)
        with pytest.raises(UsageError):
            ArmijoParams(eta=1.0)
        with pytest.raises(UsageError):
            DealConfig(eps=0.0)


@pytest.mark.parametrize("field, make", [
    ("max_iter", lambda v: DealConfig(max_iter=v)),
    ("max_backtracks", lambda v: ArmijoParams(max_backtracks=v)),
    ("max_iter", lambda v: BoostedConfig(max_iter=v)),
    ("max_linesearch", lambda v: BoostedConfig(max_linesearch=v)),
    ("memory", lambda v: DirectionRule("lbfgs", memory=v))],
    ids=["DealConfig.max_iter", "ArmijoParams.max_backtracks", "BoostedConfig.max_iter",
         "BoostedConfig.max_linesearch", "DirectionRule.memory"])
def test_a_count_must_be_an_integer(field, make):
    # as in a config file, a bool is no integer; numpy's integers are
    for value in (2.5, 2.0, True, "3", None, np.float64(3.0)):
        with pytest.raises(UsageError, match=f"^{field} must be an integer, got "):
            make(value)
    with pytest.raises(UsageError, match=f"^{field} must be >= "):
        make(-1)
    make(3)
    make(np.int64(3))


def test_traces_monotone_and_terminal_gradient():
    # descent runs produce non-increasing f and a final gradient within eps
    for seed, p in ((1, 1.5), (2, 2.0)):
        prob = generate_problem(seed, "leastp", 50, 10, p=p, consistent=True)
        for runner in (run_dealc, run_deala):
            tr = runner(prob.as_smooth(),
                        np.random.default_rng(seed).uniform(-5, 5, 10),
                        DealConfig())
            f = tr.f_values()
            assert np.all(np.diff(f) <= 1e-12)
            if tr.extras["termination"] == "tolerance":
                assert tr.grad_norm[-1] <= 1e-6


def reference_descend(objective, x0, config, rule, trace, alpha, armijo=None,
                      observe=None):
    """The descent loop evaluated at every step: no carried evaluation, no
    replay.  Like the solvers, it records the rule's fallbacks in the extras
    and hands each recorded iterate to ``observe``."""
    x = as_vector(x0, objective.dim, "x0")
    f = objective.value(x).value
    for k in range(config.max_iter + 1):
        g = objective.complete(objective.value(x)).gradient
        gn = float(np.linalg.norm(g))
        trace.append(k, f, gn)
        if observe is not None:
            observe(x)
        if gn <= config.eps:
            trace.extras["termination"] = "tolerance"
            break
        if k == config.max_iter:
            trace.extras["termination"] = "max_iter"
            break
        d_bar = rule.sufficient_base_direction(x, g)
        rule.push(x, g)
        d = generalize(d_bar, g, rule.beta)
        p = 0
        step = alpha
        x_next = x + step * d
        f_next = objective.value(x_next).value
        if armijo is not None:
            slope = float(g @ d)
            while not f_next <= f + armijo.sigma * step * slope:
                p += 1
                if p > armijo.max_backtracks:
                    trace.extras["termination"] = "backtrack_limit"
                    trace.extras["diagnostic"] = (
                        f"no Armijo step within {armijo.max_backtracks} backtracks at "
                        f"k={k}; declared Hölder constant is likely too small")
                    trace.extras["direction_fallbacks"] = rule.fallback_count
                    return trace
                step = armijo.eta ** p * armijo.alpha_bar
                x_next = x + step * d
                f_next = objective.value(x_next).value
        if not math.isfinite(f_next):
            trace.extras["termination"] = "nonfinite"
            trace.extras["diagnostic"] = f"non-finite objective at k={k + 1}"
            break
        trace.step[-1], trace.inner_count[-1] = step, p
        trace.displacement[-1] = float(np.linalg.norm(x_next - x))
        x, f = x_next, f_next
    trace.extras["direction_fallbacks"] = rule.fallback_count
    return trace


def run_without_replay(monkeypatch, runner, objective, x0, config, observe=None):
    with monkeypatch.context() as m:
        m.setattr(solvers, "_descend", reference_descend)
        return runner(objective, x0, config, observe)


def column_bits(trace, *names):
    """The bytes of the trace's columns ``names``, all six by default: two
    traces match in them bit for bit, a NaN matching a NaN."""
    return [getattr(trace, name).tobytes() for name in names or TRACE_COLUMNS]


def consistent_leastp(seed):
    prob = generate_problem(seed, "leastp", 40, 8, p=1.5, consistent=True)
    return prob, np.random.default_rng(seed).uniform(-5, 5, 8)


@pytest.mark.parametrize("runner", (run_dealc, run_deala))
def test_direct_runs_record_the_direction_fallbacks(runner):
    prob, x0 = consistent_leastp(1)
    rule = DirectionRule("bb1", beta=0.5)
    tr = runner(prob.as_smooth(), x0, DealConfig(max_iter=50, rule=rule))
    assert tr.extras["termination"] == "max_iter"
    assert tr.extras["direction_fallbacks"] == rule.fallback_count > 0


def test_backtrack_limit_records_the_direction_fallbacks():
    # the quartic of test_backtrack_limit_diagnostic: the run ends at k=0,
    # where BB1 has no history and falls back to the gradient
    obj = plain(dim=1, value=lambda x: float(x[0] ** 4),
                grad=lambda x: 4.0 * np.asarray(x, dtype=float) ** 3,
                holder=HolderInfo(nu=1.0, L=1.0))
    rule = DirectionRule("bb1")
    tr = run_deala(obj, np.array([50.0]),
                   DealConfig(rule=rule, armijo=ArmijoParams(max_backtracks=2)))
    assert tr.extras["termination"] == "backtrack_limit"
    assert tr.extras["direction_fallbacks"] == rule.fallback_count == 1


def test_the_replay_counts_the_fallbacks_of_the_replayed_steps():
    # BB1 falls back on every step here; at a bitwise fixed point it keeps
    # falling back, so all 3000 steps count, as the run without replay counts
    prob, x0 = consistent_leastp(1)
    objective = prob.as_smooth()
    rule = DirectionRule("bb1", beta=beta_for_holder(objective.holder.nu))
    tr = run_dealc(objective, x0, DealConfig(eps=1e-30, max_iter=3000, rule=rule))
    assert 0 < tr.extras["fixed_point_at"] < 3000
    assert tr.extras["direction_fallbacks"] == rule.fallback_count == 3000


class TestFixedPointReplay:
    @pytest.mark.parametrize("kind", KINDS)
    def test_bitwise_equal_to_the_loop_without_replay(self, monkeypatch, kind):
        replayed = 0
        for seed in (1, 2):
            prob, x0 = consistent_leastp(seed)
            obj = prob.as_smooth()
            for runner in (run_dealc, run_deala):
                for beta in (beta_for_holder(obj.holder.nu), 0.5, 0.0):
                    def config():
                        return DealConfig(eps=1e-30, max_iter=3000,
                                          rule=DirectionRule(kind, beta=beta))
                    xs, ref_xs = [], []
                    tr = runner(obj, x0, config(), xs.append)
                    ref = run_without_replay(monkeypatch, runner, obj, x0, config(),
                                             ref_xs.append)
                    replayed += tr.extras.pop("fixed_point_at", None) is not None
                    assert tr.extras == ref.extras
                    assert len(tr) == len(ref) == len(xs) == len(ref_xs)
                    assert column_bits(tr) == column_bits(ref)
                    assert [x.tobytes() for x in xs] == [x.tobytes() for x in ref_xs]
        assert replayed

    def test_replay_waits_for_a_second_unmoved_step(self, monkeypatch):
        # f is NaN off two points and grad f = 2x.  Step 1 uses the BB1 scale
        # 1/2 and cannot move x; step 2 then sees s = 0, falls back to -grad
        # and needs one more backtrack to stay put, so a replay after one
        # unmoved step would repeat the wrong inner count
        table = {1.0: 1.0, 0.5: 0.5}
        obj = plain(dim=1, value=lambda x: table.get(float(x[0]), math.nan),
                    grad=lambda x: 2.0 * np.asarray(x, dtype=float),
                    holder=HolderInfo(nu=1.0, L=1.0))

        def config():
            return DealConfig(max_iter=20,
                              rule=DirectionRule("bb1", beta=0.0, c1=0.25, c2=4.0))
        tr = run_deala(obj, np.array([1.0]), config())
        ref = run_without_replay(monkeypatch, run_deala, obj, np.array([1.0]), config())
        assert tr.extras.pop("fixed_point_at") == 3
        assert tr.inner_count[2] == tr.inner_count[1] + 1
        assert tr.extras == ref.extras
        assert column_bits(tr, *TRACE_COLUMNS[:5]) == column_bits(ref, *TRACE_COLUMNS[:5])

    def test_nan_objective_stops_evaluating_at_the_fixed_point(self):
        # NaN everywhere except at x0: every trial fails until the step is
        # too small to move x, and then the unchanged f passes the test
        x0 = np.array([1.0, 1.0])
        calls = [0]

        def value(x):
            calls[0] += 1
            return 1.0 if np.array_equal(x, x0) else math.nan
        obj = plain(dim=2, value=value, grad=lambda x: np.ones(2),
                    holder=HolderInfo(nu=1.0, L=1.0))
        cfg = DealConfig(max_iter=200)
        tr = run_deala(obj, x0, cfg)
        assert calls[0] <= 2 * (cfg.armijo.max_backtracks + 1) + 1
        assert tr.extras["termination"] == "max_iter" and len(tr) == 201
        assert tr.extras["fixed_point_at"] == 2

    def test_replayed_records_share_one_read_only_iterate(self):
        prob, x0 = consistent_leastp(1)
        xs = []
        tr = run_deala(prob.as_smooth(), x0, DealConfig(eps=1e-30, max_iter=3000),
                       xs.append)
        first = tr.extras["fixed_point_at"]
        assert isinstance(first, int) and 0 < first < 3000
        assert len(xs) == len(tr)
        shared = xs[first]
        assert all(x is shared for x in xs[first:])
        assert all(disp == 0.0 for disp in tr.displacement[first:-1])
        with pytest.raises(ValueError):
            shared[0] = 0.0

    def test_dealc_takes_one_fused_oracle_call_per_step(self, monkeypatch):
        prob, x0 = consistent_leastp(2)
        # each record's point is valued once and completed once
        calls = {"value": 0, "complete": 0}

        def counted(name):
            def call(x):
                calls[name] += 1
                return getattr(prob, name)(x)
            return call
        obj = dataclasses.replace(prob.as_smooth(),
                                  **{name: counted(name) for name in calls})
        tr = run_dealc(obj, x0, DealConfig(max_iter=100))
        assert calls == {"value": len(tr), "complete": len(tr)}
        ref = run_without_replay(monkeypatch, run_dealc, prob.as_smooth(), x0,
                                 DealConfig(max_iter=100))
        assert column_bits(tr) == column_bits(ref)


@pytest.mark.parametrize("runner", [run_dealc, run_deala])
def test_a_nonfinite_start_stops_without_a_record(runner):
    # at 1e170 the least-p value overflows to inf, while inf ** (p - 2) makes
    # the gradient 0: recorded, it read as convergence to the tolerance
    problem = generate_problem(0, "leastp", 50, 5, p=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = runner(problem.as_smooth(), np.full(5, 1e170), DealConfig())
    assert trace.extras["termination"] == "nonfinite"
    assert trace.extras["diagnostic"] == "non-finite objective or gradient at k=0"
    assert len(trace) == 0


def test_a_nonfinite_gradient_after_a_step_is_not_recorded():
    # f stays finite, but the gradient below x = 1.5 is infinite
    objective = plain(
        dim=1, value=lambda x: 0.5 * float(x @ x),
        grad=lambda x: np.where(x < 1.5, np.inf, x),
        holder=HolderInfo(nu=1.0, L=1.0))
    trace = run_deala(objective, [2.0], DealConfig(max_iter=10))
    assert trace.extras["termination"] == "nonfinite"
    assert trace.extras["diagnostic"].endswith(f"k={len(trace)}")
    assert np.all(np.isfinite(trace.f_values()))
    assert np.all(np.isfinite(trace.grad_norms()))


def deala_runs(problem, specs, run, **oracles):
    """``(trace, iterates)`` of each deal-a variant of ``specs`` on
    ``problem``, configured as ``bench.run_variant`` configures it,
    uncertified, with the iterates the run handed to its hook.  ``oracles``
    replace the objective's own; ``line_values=None`` drops the line
    oracle."""
    objective = dataclasses.replace(problem.as_smooth(), **oracles)
    family = types.SimpleNamespace(as_smooth=lambda: objective,
                                   value_grad_rows=problem.value_grad_rows)
    x0 = np.random.default_rng(run.x0_seed).uniform(-5.0, 5.0, size=problem.n)
    runs = []
    for spec in specs:
        iterates = []
        trace = bench._run_deal(family, spec, run)[0](x0, iterates.append)
        assert len(iterates) == len(trace)
        runs.append((trace, iterates))
    return runs


def assert_same_traces(screened, unscreened):
    for (tr, xs), (ref, ref_xs) in zip(screened, unscreened, strict=True):
        assert tr.extras == ref.extras
        assert len(tr) == len(ref)
        assert column_bits(tr) == column_bits(ref)
        assert [x.tobytes() for x in xs] == [x.tobytes() for x in ref_xs]


@pytest.fixture(scope="module")
def sec51_deala():
    """sec51 seed 0's four deal-a variants: screened (counting exact values
    and measuring every screened trial against the exact value), and
    without the line oracle."""
    cfg = bench.preset("sec51", 0)
    problem = bench.build_problem(cfg.problem)
    specs = [spec for spec in cfg.solvers if spec.solver == "deal-a"]
    calls = {}
    ratios = []

    def line_values(ev, d, steps):
        values, margins = problem.line_values(ev, d, steps)
        exact = np.array([problem.value(ev.x + t * d).value for t in steps])
        finite = np.isfinite(values) & np.isfinite(exact)
        ratios.extend((np.abs(values - exact) / margins)[finite].tolist())
        return values, margins

    screened = []
    for spec in specs:
        calls[spec.name] = 0

        def value(x, name=spec.name):
            calls[name] += 1
            return problem.value(x)
        screened += deala_runs(problem, [spec], cfg.run, line_values=line_values,
                               value=value)
    return {"screened": screened, "calls": calls, "ratios": np.array(ratios),
            "unscreened": deala_runs(problem, specs, cfg.run, line_values=None),
            "plain": deala_runs(problem, specs, cfg.run)}


class TestScreenedBacktracks:
    def test_sec51_is_bit_equal_to_the_loop_without_a_line_oracle(self, sec51_deala):
        assert_same_traces(sec51_deala["screened"], sec51_deala["unscreened"])
        assert_same_traces(sec51_deala["plain"], sec51_deala["unscreened"])
        assert [tr.extras["termination"] for tr, _ in sec51_deala["plain"]] == [
            "max_iter", "backtrack_limit", "backtrack_limit", "backtrack_limit"]

    def test_sec51_deala1_makes_at_most_300_exact_values(self, sec51_deala):
        # 1,745 when every backtrack is evaluated
        assert sec51_deala["calls"]["DEAL-A1"] <= 300
        assert sum(sec51_deala["calls"].values()) < 1000

    def test_the_screen_error_is_a_tenth_of_the_margin_on_sec51(self, sec51_deala):
        ratios = sec51_deala["ratios"]
        assert len(ratios) > 10000
        assert ratios.max() <= 0.1

    @pytest.mark.parametrize("p, floor_stops", [(1.2, True), (1.5, True), (2.0, False)])
    def test_leastp_runs_are_bit_equal_to_the_loop_without_a_line_oracle(self, p,
                                                                         floor_stops):
        problem = generate_problem(3, "leastp", 60, 12, p=p, consistent=True)
        specs = [bench.SolverSpec(name=f"{sigma}-{beta}", solver="deal-a",
                                  sigma=sigma, beta=beta)
                 for sigma in (1e-4, 0.5) for beta in ("auto", 0.5, 0.0)]
        run = bench.RunSpec(eps=1e-30, max_iter=400, x0_seed=3)
        screened = deala_runs(problem, specs, run)
        assert_same_traces(screened, deala_runs(problem, specs, run, line_values=None))
        # below p = 2 some runs stop at the floating-point floor, where every
        # trial lies near the threshold and the screen resolves none
        endings = {tr.extras["termination"] for tr, _ in screened}
        assert ("backtrack_limit" in endings) == floor_stops

    def test_an_objective_without_a_line_oracle_evaluates_every_backtrack(self):
        problem = generate_problem(3, "leastp", 60, 12, p=1.5, consistent=True)
        calls = [0]

        def value(x):
            calls[0] += 1
            return problem.value(x)
        spec = bench.SolverSpec(solver="deal-a", beta=0.0)
        run = bench.RunSpec(eps=1e-30, max_iter=400, x0_seed=3)
        (trace, _), = deala_runs(problem, [spec], run, line_values=None, value=value)
        assert trace.extras["termination"] == "backtrack_limit"
        # x0, one per backtrack and the first trial of every step, and the
        # 61 trials of the step that found none
        steps = trace.inner_count[:-1]
        assert calls[0] == 1 + sum(inner + 1 for inner in steps) + 61
        calls[0] = 0
        deala_runs(problem, [spec], run, value=value)
        assert calls[0] < 1 + len(steps) * 4


def test_deala_forms_one_product_with_A_per_value_completion_and_line_call():
    # the value keeps its residual r = A x - b: the completion forms A^T r
    # alone and the line oracle A d alone (the three took two products each
    # for the gradient and the line when each formed r again)
    problem = generate_problem(1, "leastp", 40, 8, p=1.5, consistent=True)
    products = [0]

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            products[0] += ufunc is np.matmul
            return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)
    problem.A = problem.A.view(Counted)
    calls = Counter()
    for name in ("value", "complete", "line_values"):
        def counted(*args, _real=getattr(problem, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        setattr(problem, name, counted)
    x0 = np.random.default_rng(1).uniform(-5.0, 5.0, 8)
    trace = run_deala(problem.as_smooth(), x0, DealConfig())
    assert trace.extras["termination"] == "tolerance"
    assert calls["complete"] == len(trace) and calls["line_values"] > len(trace) // 2
    assert calls["value"] > calls["complete"] + calls["line_values"]
    assert products[0] == calls["value"] + calls["complete"] + calls["line_values"]


TRIALS = [(m, 0.5 ** m) for m in range(1, 6)]


def refuse(*args):
    raise AssertionError("the line oracle was called")


class TestScreened:
    """``solvers.screened``, the one trial screen of deal-a and bpga."""

    def test_the_first_trial_comes_before_the_line_oracle_runs(self):
        calls = []

        def line(steps):
            calls.append(steps.tolist())
            return np.zeros(len(steps)), np.zeros(len(steps))
        offered = solvers.screened(TRIALS, lambda t: 1.0, line)
        assert next(offered) == (1, 0.5, 1.0)
        assert calls == []
        assert list(offered) == [(m, t, 1.0) for m, t in TRIALS[1:]]
        assert calls == [[t for _, t in TRIALS[1:]]]

    def test_without_a_line_oracle_every_trial_is_offered(self):
        def bound(t):
            return -1.0 - t
        assert list(solvers.screened(TRIALS, bound)) == [(m, t, bound(t)) for m, t in TRIALS]

    def test_a_nan_screened_value_is_never_skipped(self):
        # trials 2 and 4 lie far above their bound; 3 and 5 screen NaN
        def line(steps):
            return (np.array([9.0, np.nan, 9.0, np.nan]),
                    np.array([1.0, 0.0, 1.0, np.nan]))
        assert [m for m, _, _ in solvers.screened(TRIALS, lambda t: 1.0, line)] == [1, 3, 5]

    def test_the_kept_trials_keep_their_order_and_their_own_bounds(self):
        # the bound depends on t, as deal-a's Armijo threshold f + sigma t slope does;
        # a value within its margin of the bound is kept
        def bound(t):
            return 1.0 - t

        def line(steps):
            return bound(steps) + np.array([0.5, 2.0, 0.1, 3.0]), np.array([1.0, 1.0, 0.2, 1.0])
        assert list(solvers.screened(TRIALS, bound, line)) == [
            (m, t, bound(t)) for m, t in TRIALS if m in (1, 2, 4)]

    def test_a_single_trial_never_runs_the_line_oracle(self):
        # whether the one trial passes or fails, nothing is left to screen
        for bound in (0.0, -math.inf):
            offered = solvers.screened(TRIALS[:1], lambda t: bound, refuse)
            assert list(offered) == [(1, 0.5, bound)]


class Tilt:
    """c t per coordinate, whose order-2 proximal point x - gamma c is exact."""

    def __init__(self, c):
        self.c = c

    def value(self, y):
        return self.c * float(np.sum(y))

    def prox(self, x, gamma, p=2.0):
        return np.asarray(x, dtype=float) - gamma * self.c


class Sink:
    """t^2/2 per coordinate, whose value is -inf below t = 0.3."""

    def value(self, y):
        return -math.inf if y[0] < 0.3 else 0.5 * float(y @ y)

    def prox(self, x, gamma, p=2.0):
        return np.asarray(x, dtype=float) / (1.0 + gamma)


def composite(nonsmooth):
    """0.5 ||x||^2 in 1-D, with L = 1, plus ``nonsmooth``."""
    smooth = plain(dim=1, value=lambda x: 0.5 * float(x @ x),
                   grad=lambda x: np.asarray(x, dtype=float),
                   hess_apply=lambda x, v: v, holder=HolderInfo(nu=1.0, L=1.0))
    return CompositeObjective(smooth, nonsmooth)


def stalled_bpga():
    # zero smooth part, a tilt of one ulp of x0 per gamma and a Hessian-apply
    # of 4 v: the envelope gradient is -(x - T)/gamma, so the first trial
    # T + 0.5 (x - T)/0.5 is x, bit for bit, and the decrease it must show is
    # below the rounding of the envelope value
    smooth = plain(dim=1, value=lambda x: 0.0, grad=lambda x: np.zeros_like(x),
                   hess_apply=lambda x, v: 4.0 * v,
                   holder=HolderInfo(nu=1.0, L=1.0))
    return (run_bpga, CompositeObjective(smooth, Tilt(2.0 ** -25)), np.array([1e8]),
            BoostedConfig(gamma=0.5, eps=1e-12, max_iter=20))


def stalled_bhippa():
    # the proximal point lies one ulp below x0 = 1e8, the gradient step
    # -2^-28 rounds away, and the decrease it must show is below the
    # rounding of the envelope value: the first trial is x, bit for bit
    return (run_bhippa, Tilt(2.0 ** -28), np.array([1e8]),
            BoostedConfig(gamma=4.0, eps=1e-12, max_iter=20))


def leastp_case(runner, **config):
    prob, x0 = consistent_leastp(1)
    return runner, prob.as_smooth(), x0, DealConfig(**config)


# an objective whose gradient is infinite below 1.5: from 2, the first step
# of either step rule lands at 0
INFINITE_BELOW = plain(dim=1, value=lambda x: 0.5 * float(x @ x),
                       grad=lambda x: np.where(x < 1.5, np.inf, x),
                       holder=HolderInfo(nu=1.0, L=1.0))

SOLVERS = ("deal-c", "deal-a", "bpga", "bhippa")
RUNNERS = {"deal-c": run_dealc, "deal-a": run_deala}
CASES = {
    "tolerance": {
        **{name: lambda name=name: leastp_case(RUNNERS[name]) for name in RUNNERS},
        "bpga": lambda: (run_bpga, generate_problem(3, "lasso", 60, 6).as_composite(),
                         np.ones(6), BoostedConfig()),
        "bhippa": lambda: (run_bhippa, PowerAbsProblem(s=4.0, n=5).as_prox_capable(),
                           np.linspace(-1.5, 2.0, 5), BoostedConfig(p=4.0)),
    },
    "fixed point": {
        **{name: lambda name=name: leastp_case(RUNNERS[name], eps=1e-30, max_iter=3000)
           for name in RUNNERS},
        "bpga": stalled_bpga,
        "bhippa": stalled_bhippa,
    },
    "nonfinite after a step": {
        **{name: lambda name=name: (RUNNERS[name], INFINITE_BELOW, np.array([2.0]),
                                    DealConfig(max_iter=10)) for name in RUNNERS},
        "bpga": lambda: (run_bpga, composite(Sink()), np.array([1.0]),
                         BoostedConfig(gamma=0.5)),
        "bhippa": lambda: (run_bhippa, Sink(), np.array([1.0]), BoostedConfig(gamma=1.0)),
    },
    "no record": {
        **{name: lambda name=name: (RUNNERS[name],
                                    generate_problem(0, "leastp", 50, 5, p=1.5).as_smooth(),
                                    np.full(5, 1e170), DealConfig()) for name in RUNNERS},
        "bpga": lambda: (run_bpga, generate_problem(0, "lasso", 50, 5).as_composite(),
                         np.full(5, 1e170), BoostedConfig(max_iter=20)),
        "bhippa": lambda: (run_bhippa, SeparableProx(lambda t: (t * t - 1.0) ** 2),
                           np.array([0.0]), BoostedConfig(gamma=20.0, sigma=0.01)),
    },
}


def observed(case, solver):
    """``(trace, iterates)`` of the case's run of ``solver``, with the
    arrays its ``observe`` hook was handed, in order."""
    runner, objective, x0, config = CASES[case][solver]()
    xs = []
    with np.errstate(over="ignore", invalid="ignore"):
        return runner(objective, x0, config, xs.append), xs


class TestObserve:
    """``observe``, the only way to a run's iterates: one call per record,
    with the record's iterate, and a replayed record's is its
    predecessor's array."""

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_a_run_to_its_tolerance_hands_one_array_per_record(self, solver):
        tr, xs = observed("tolerance", solver)
        assert tr.extras["termination"] == "tolerance" and "fixed_point_at" not in tr.extras
        assert len(xs) == len(tr) > 2
        assert len({id(x) for x in xs}) == len(xs)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_replayed_records_hand_their_predecessors_array(self, solver):
        tr, xs = observed("fixed point", solver)
        first = tr.extras["fixed_point_at"]
        assert tr.extras["termination"] == "max_iter"
        assert len(xs) == len(tr) == tr.k[-1] + 1 > first > 0
        assert len({id(x) for x in xs[:first]}) == first
        assert all(x is xs[first - 1] for x in xs[first:])
        assert not xs[first].flags.writeable

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_a_nonfinite_stop_after_a_step_hands_the_recorded_iterates(self, solver):
        tr, xs = observed("nonfinite after a step", solver)
        assert tr.extras["termination"] == "nonfinite"
        assert tr.extras["diagnostic"].endswith(" at k=1")
        assert len(xs) == len(tr) == 1

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_a_stop_before_the_first_record_calls_it_never(self, solver):
        tr, xs = observed("no record", solver)
        assert tr.extras["termination"] in ("nonfinite", "multivalued")
        assert len(tr) == 0 and xs == []
