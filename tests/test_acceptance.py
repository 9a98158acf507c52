"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Shared solver runs are produced once per session by the
fixtures below; every certificate re-checks the runs from their iterates,
as the runs hand them to their ``observe`` hook, through the run's own
oracles.
"""

import json
import math

import numpy as np
import pytest

from dealopt import analysis, bench, envelopes, oracles
from dealopt.boosted import BoostedConfig, choose_order, run_bhippa, run_bpga
from dealopt.core import (Reevaluation, certify_descent, min_grad_bound_check,
                          reevaluate_trace)
from dealopt.problems import PowerAbsProblem, generate_problem, reference_optimum
from dealopt.solvers import DealConfig, run_deala, run_dealc

REL_TOL = 1e-10
EPS = 1e-6

# 10 seeded least-p instances: constant-step convergence within the iteration
# cap needs modest m for p = 1.5 (step scales as 1/||A||^3)
LEASTP_INSTANCES = [(seed, 1.5, 60, 12) for seed in range(5)] + \
                   [(seed, 2.0, 200, 40) for seed in range(5, 10)]


def _report(criterion, passed, message):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {message}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def dealc_runs():
    """(problem, objective, solver trace, re-evaluated trace, distances to
    x*) of each constant-step run, re-evaluated while it proceeds."""
    out = []
    for seed, p, m, n in LEASTP_INSTANCES:
        prob = generate_problem(100 + seed, "leastp", m, n, p=p, consistent=True)
        obj = prob.as_smooth()
        x0 = np.random.default_rng(200 + seed).uniform(-5.0, 5.0, n)
        reevaluation = Reevaluation(obj.value_and_grad, xstar=prob.x_ls)
        tr = run_dealc(obj, x0, DealConfig(eps=EPS), reevaluation.add)
        out.append((prob, obj, tr, *reevaluation.result(tr)))
    return out


@pytest.fixture(scope="module")
def deala_runs():
    out = []
    for seed, p, m, n in LEASTP_INSTANCES:
        prob = generate_problem(100 + seed, "leastp", m, n, p=p, consistent=True)
        obj = prob.as_smooth()
        x0 = np.random.default_rng(200 + seed).uniform(-5.0, 5.0, n)
        xs = []
        tr = run_deala(obj, x0, DealConfig(eps=EPS), xs.append)
        out.append((prob, obj, tr, reevaluate_trace(tr, xs, obj.value, obj.grad)))
    return out


@pytest.fixture(scope="module")
def bpga_runs():
    out = []
    for seed in range(10):
        prob = generate_problem(300 + seed, "lasso", 1000, 10, lam=0.1)
        comp = prob.as_composite()
        gamma = 0.95 / prob.L
        sigma = 0.9 * gamma * (1.0 - gamma * prob.L) / 2.0
        x0 = np.random.default_rng(400 + seed).uniform(-5.0, 5.0, 10)
        cfg = BoostedConfig(gamma=gamma, sigma=sigma, eps=EPS)
        xs = []
        tr = run_bpga(comp, x0, cfg, xs.append)
        value = lambda x, c=comp, g=gamma: envelopes.fbe_value(c, x, g)
        grad = lambda x, c=comp, g=gamma: envelopes.fbe_value_grad(c, x, g).gradient
        out.append((prob, comp, gamma, tr, reevaluate_trace(tr, xs, value, grad)))
    return out


@pytest.fixture(scope="module")
def bhippa_runs():
    out = []
    pa = PowerAbsProblem(s=4.0, n=1)
    order = choose_order(pa.kl_info().vartheta)
    for seed in range(10):
        phi = pa.as_prox_capable()
        x0 = np.random.default_rng(500 + seed).uniform(-5.0, 5.0, 1)
        cfg = BoostedConfig(gamma=1.0, sigma=0.1, p=order, eps=EPS)
        xs = []
        tr = run_bhippa(phi, x0, cfg, xs.append)
        value = lambda x, f=phi, p_=order: envelopes.home_value(f, x, 1.0, p_)
        grad = lambda x, f=phi, p_=order: envelopes.home_value_grad(f, x, 1.0, p_).gradient
        out.append((pa, phi, tr, reevaluate_trace(tr, xs, value, grad)))
    return out


def test_criterion_01_descent_certificates(dealc_runs, deala_runs, bpga_runs,
                                           bhippa_runs):
    families = {
        "DEAL-C": [(raw, tr) for _, _, raw, tr, _ in dealc_runs],
        "DEAL-A": [(raw, tr) for _, _, raw, tr in deala_runs],
        "BPGA": [(raw, tr) for _, _, _, raw, tr in bpga_runs],
        "BHiPPA": [(raw, tr) for _, _, raw, tr in bhippa_runs],
    }
    failures = []
    total = 0
    for name, traces in families.items():
        assert len(traces) == 10
        for i, (raw, tr) in enumerate(traces):
            rep = certify_descent(tr, raw.rho, raw.theta, rel_tol=REL_TOL)
            total += rep.n_checked
            if not rep.passed:
                failures.append(f"{name}[{i}] worst={rep.worst_violation:.2e}")
    _report(1, not failures,
            f"descent inequality certified on {total} iterations across "
            f"40 runs (4 solvers x 10 instances); failures: {failures or 'none'}")


def test_criterion_02_armijo_bound(deala_runs):
    violations = []
    for i, (prob, obj, raw, _) in enumerate(deala_runs):
        p_bar = raw.extras["p_bar"]
        a_tilde = raw.extras["alpha_tilde"]
        inner = raw.inner_counts()[:-1]
        steps = raw.steps()[:-1]
        if np.any(inner > p_bar):
            violations.append(f"run {i}: p_k {inner.max()} > p_bar {p_bar:.3f}")
        if np.any(steps < a_tilde * (1.0 - 1e-12)):
            violations.append(f"run {i}: alpha_k {steps.min():.3e} < {a_tilde:.3e}")
    _report(2, not violations,
            f"backtracking counts <= p_bar and steps >= alpha_tilde on all "
            f"{len(deala_runs)} runs; violations: {violations or 'none'}")


def test_criterion_03_linear_rate_bound(dealc_runs):
    failures = []
    for i, (prob, obj, raw, tr, _) in enumerate(dealc_runs):
        _, _, vt, tau = prob.constants()
        q_theory = 1.0 - raw.rho / tau ** raw.theta
        if not 0.0 < q_theory < 1.0:
            failures.append(f"run {i}: vacuous q_theory {q_theory:.4f}")
            continue
        ratio = analysis.per_step_ratio_check(tr, 0.0, q_theory)
        if not ratio.passed:
            failures.append(f"run {i}: ratio {ratio.worst_violation:.6f} > q {q_theory:.6f}")
        rep = analysis.fit_linear_rate(tr, 0.0)
        if not (rep.q_hat_max is not None and rep.q_hat_max < 1.0):
            failures.append(f"run {i}: q_hat_max {rep.q_hat_max}")
    _report(3, not failures,
            f"per-step gap ratios below q_theory and fitted q_hat(max) < 1 on "
            f"all {len(dealc_runs)} constant-step runs; failures: {failures or 'none'}")


def test_criterion_04_complexity_bounds(dealc_runs):
    failures = []
    for i, (prob, obj, raw, tr, distances) in enumerate(dealc_runs):
        _, _, _, tau = prob.constants()
        c = raw.extras["alpha"] * 1.0  # c2 = 1
        rep = analysis.verify_complexity(tr, 0.0, raw.rho, raw.theta, tau, EPS,
                                         distances=distances, c=c)
        if rep.skipped:
            failures.append(f"run {i}: skipped ({rep.reason})")
            continue
        if len(rep.checks) != 3:
            failures.append(f"run {i}: only {len(rep.checks)} criteria available")
        for chk in rep.checks:
            if chk.passed is not True:
                failures.append(
                    f"run {i}/{chk.criterion}: measured {chk.measured} "
                    f"bound {chk.bound} ({chk.note})")
    _report(4, not failures,
            f"iteration counts within all three closed-form bounds on "
            f"{len(dealc_runs)} runs at eps={EPS}; failures: {failures or 'none'}")


def test_criterion_05_min_grad_bound(dealc_runs, deala_runs, bpga_runs,
                                     bhippa_runs):
    failures = []
    runs = []
    for prob, obj, raw, tr, _ in dealc_runs:
        runs.append((raw, tr, 0.0))
    for prob, obj, raw, tr in deala_runs:
        runs.append((raw, tr, 0.0))
    for prob, comp, gamma, raw, tr in bpga_runs:
        ref = reference_optimum(prob)
        runs.append((raw, tr, ref.fstar))
    for pa, phi, raw, tr in bhippa_runs:
        runs.append((raw, tr, 0.0))
    for i, (raw, tr, fstar) in enumerate(runs):
        rep = min_grad_bound_check(tr, raw.rho, raw.theta, fstar)
        if not rep.passed:
            failures.append(f"trace {i}: worst {rep.worst_violation:.3e} at N={rep.worst_index}")
    _report(5, not failures,
            f"running-min gradient bound holds for every prefix of all "
            f"{len(runs)} traces; failures: {failures or 'none'}")


def test_criterion_06_gradient_formulas():
    failures = []
    # smooth closed forms vs central differences, 100 seeded points each
    for seed, p in ((61, 1.5), (62, 2.0)):
        prob = generate_problem(seed, "leastp", 40, 8, p=p, consistent=True)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-5, 5, 8)
            fd = oracles.finite_diff_gradient(prob.value, x)
            g = prob.grad(x)
            worst = max(worst, np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g)))
        if worst > 1e-6:
            failures.append(f"leastp p={p}: rel err {worst:.2e}")
    # envelope gradient formula, order 2 and order 4, skipping flagged points
    env_cases = [
        ("l1 p=2", envelopes.L1Norm(1.0), 2.0, 3, 0.9),
        ("powerabs p=4", envelopes.SeparableProx(lambda t: abs(t) ** 4), 4.0, 1, 0.9),
    ]
    for name, g, p, n, gamma in env_cases:
        rng = np.random.default_rng(63)
        worst, checked = 0.0, 0
        for _ in range(100):
            x = rng.uniform(-4, 4, n)
            ev = envelopes.home_value_grad(g, x, gamma, p)
            if ev.multi_valued:
                continue
            fd, kink = oracles.finite_diff_gradient(
                lambda z: envelopes.home_value(g, z, gamma, p), x,
                return_kink_mask=True)
            keep = ~kink
            checked += int(keep.sum())
            if keep.any():
                err = np.abs(fd[keep] - ev.gradient[keep]) / (1.0 + np.abs(ev.gradient[keep]))
                worst = max(worst, float(err.max()))
        if worst > 1e-4 or checked < 50:
            failures.append(f"{name}: rel err {worst:.2e} on {checked} coords")
    # forward-backward envelope gradient
    prob = generate_problem(64, "lasso", 40, 6, lam=0.2)
    comp = prob.as_composite()
    gamma = 0.9 / prob.L
    rng = np.random.default_rng(64)
    worst, checked = 0.0, 0
    for _ in range(100):
        x = rng.uniform(-5, 5, 6)
        ev = envelopes.fbe_value_grad(comp, x, gamma)
        fd, kink = oracles.finite_diff_gradient(
            lambda z: envelopes.fbe_value(comp, z, gamma), x, return_kink_mask=True)
        keep = ~kink
        checked += int(keep.sum())
        if keep.any():
            err = np.abs(fd[keep] - ev.gradient[keep]) / (1.0 + np.abs(ev.gradient[keep]))
            worst = max(worst, float(err.max()))
    if worst > 1e-4 or checked < 300:
        failures.append(f"fbe: rel err {worst:.2e} on {checked} coords")
    _report(6, not failures,
            f"closed-form gradients match finite differences "
            f"(smooth 1e-6, envelopes 1e-4); failures: {failures or 'none'}")


def test_criterion_07_prox_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(70)
    worst_l1, worst_home = 0.0, 0.0
    for _ in range(1000):
        x = float(rng.uniform(-6, 6))
        w = float(rng.uniform(0.05, 2.0))
        closed = envelopes.prox_l1(np.array([x]), w)[0]
        res = oracles.scalar_minimize(lambda t: w * abs(t) + 0.5 * (x - t) ** 2,
                                      (x - 12.0, x + 12.0))
        worst_l1 = max(worst_l1, abs(closed - res.argmin))
        home = envelopes.prox_home_separable(lambda t: w * abs(t),
                                             np.array([x]), 1.0, 2.0)
        worst_home = max(worst_home, abs(closed - home.point[0]))
    if worst_l1 > 1e-6:
        failures.append(f"soft threshold vs oracle: {worst_l1:.2e}")
    if worst_home > 1e-6:
        failures.append(f"order-2 separable prox vs closed form: {worst_home:.2e}")
    # envelope sandwich and gradient bound on seeded lasso points
    worst_sandwich, worst_gbound = -math.inf, -math.inf
    for seed in (71, 72):
        prob = generate_problem(seed, "lasso", 60, 6, lam=0.3)
        comp = prob.as_composite()
        gamma = 0.95 / prob.L
        L = prob.L
        rng = np.random.default_rng(seed)
        for _ in range(500):
            x = rng.uniform(-5, 5, 6)
            ev = envelopes.fbe_value_grad(comp, x, gamma)
            T = ev.prox_point
            resid = float(np.linalg.norm(x - T))
            env_T = envelopes.fbe_value(comp, T, gamma)
            phi_T = prob.value(T)
            scale = max(1.0, abs(ev.value))
            worst_sandwich = max(
                worst_sandwich,
                (env_T - phi_T) / scale,
                (phi_T - (ev.value - (1 - gamma * L) / (2 * gamma) * resid ** 2)) / scale)
            worst_gbound = max(
                worst_gbound,
                (ev.grad_norm - (1 + gamma * L) / gamma * resid) / max(1.0, ev.grad_norm))
    if worst_sandwich > 1e-10:
        failures.append(f"envelope sandwich violated by {worst_sandwich:.2e}")
    if worst_gbound > 1e-10:
        failures.append(f"envelope gradient bound violated by {worst_gbound:.2e}")
    _report(7, not failures,
            "prox oracles agree to 1e-6 on 1000 scalar cases; envelope sandwich "
            f"and gradient bound hold at 1000 points; failures: {failures or 'none'}")


def test_criterion_08_holder_and_dominance():
    failures = []
    for seed, p in ((81, 1.5), (82, 2.0)):
        prob = generate_problem(seed, "leastp", 60, 12, p=p, consistent=True)
        nu, L, vt, tau = prob.constants()
        rng = np.random.default_rng(seed)
        X = rng.uniform(-5, 5, (1000, 12))
        Y = rng.uniform(-5, 5, (1000, 12))
        worst = -math.inf
        for x, y in zip(X, Y):
            lhs = np.linalg.norm(prob.grad(x) - prob.grad(y))
            rhs = L * np.linalg.norm(x - y) ** nu
            worst = max(worst, (lhs - rhs) / max(1.0, rhs))
        if worst > 1e-10:
            failures.append(f"p={p}: smoothness constant violated by {worst:.2e}")
        rep = analysis.kl_sampling_certificate(
            prob.as_smooth(), prob.reference().fstar,
            analysis.box_sampler(12, seed=seed), vt, tau, 10 ** 4)
        if not rep.passed:
            failures.append(f"p={p}: {rep.violations} dominance violations "
                            f"(tightest tau {rep.tightest_tau:.4f} vs {tau:.4f})")
    _report(8, not failures,
            "gradient smoothness constant holds on 1000 pairs and the "
            "gradient-dominance certificate reports zero violations on 1e4 "
            f"samples for both exponents; failures: {failures or 'none'}")


def test_criterion_09_order_matching():
    pa = PowerAbsProblem(s=4.0, n=1)
    vt = pa.kl_info().vartheta
    matched_p = choose_order(vt)
    assert matched_p == pytest.approx(4.0)
    phi = pa.as_prox_capable()
    x0 = np.array([2.0])
    matched = run_bhippa(phi, x0, BoostedConfig(gamma=1.0, sigma=0.1,
                                                p=matched_p, eps=EPS))
    rep_m = analysis.fit_linear_rate(matched, 0.0)
    mismatched = run_bhippa(phi, x0, BoostedConfig(gamma=1.0, sigma=0.1, p=2.0,
                                                   eps=1e-5, max_linesearch=0,
                                                   max_iter=10000))
    rep_s = analysis.fit_linear_rate(mismatched, 0.0)
    predicted_decay = 1.0 / (vt * 2.0 - 1.0)  # = 2
    ok = (rep_m.q_hat_max is not None and rep_m.q_hat_max < 1.0
          and rep_s.regime == "sublinear"
          and rep_s.decay_hat is not None
          and 0.5 * predicted_decay <= rep_s.decay_hat <= 1.5 * predicted_decay)
    _report(9, ok,
            f"matched order p=4 contracts linearly (q_hat {rep_m.q_hat_max:.4f}); "
            f"order 2 is classified {rep_s.regime} with decay "
            f"{rep_s.decay_hat and round(rep_s.decay_hat, 3)} vs predicted {predicted_decay}")


def test_criterion_10_lasso_preset(tmp_path):
    config = bench.preset("sec53", seed=0, out_dir=str(tmp_path))
    out = bench.run_experiment(config)
    summary = json.loads((out / "summary.json").read_text())
    failures = []
    counts = {}
    for entry in summary["variants"]:
        name = entry["variant"]
        counts[name] = entry["iterations_to_tolerance"]
        if entry["termination"] != "tolerance":
            failures.append(f"{name}: terminated by {entry['termination']}")
        elif entry["final_grad_norm"] > EPS:
            failures.append(f"{name}: final gradient {entry['final_grad_norm']:.2e}")
        certs = json.loads((out / f"{name}.certificates.json").read_text())
        if not certs["descent"]["passed"]:
            failures.append(f"{name}: descent certificate failed")
    if len(counts) != 5:
        failures.append(f"expected 5 variants, got {sorted(counts)}")
    report = {"iterations_to_tolerance": counts}
    (out / "comparison.json").write_text(json.dumps(report, indent=2))
    _report(10, not failures,
            f"all five boosted variants reached grad<=1e-6 and certified; "
            f"iterations: {counts}; failures: {failures or 'none'}")


def test_criterion_11_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        config = bench.preset("sec53", seed=0, out_dir=str(tmp_path / tag))
        outs.append(bench.run_experiment(config))
    mismatched = []
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    for name in names:
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            mismatched.append(name)
    _report(11, bool(names) and not mismatched,
            f"re-running the preset reproduced {len(names)} trace CSVs "
            f"byte-identically; mismatches: {mismatched or 'none'}")
