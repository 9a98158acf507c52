"""The vectorised trace certificates against per-record reference loops.

The ``reference_*`` functions are the record-by-record loops the
certificates were first written as: a violation per record, compared with
its allowance, tracking the pass flag and the first largest violation.
"""

import math

import numpy as np
import pytest

from dealopt import problems
from dealopt.analysis import gap_floor, per_step_ratio_check
from dealopt.core import (IterateTrace, certify_descent,
                          certify_displacement, min_grad_bound_check,
                          reevaluate_trace)
from dealopt.solvers import DealConfig, run_deala, run_dealc


def reference_descent(trace, rho, theta, rel_tol=1e-10):
    f, g = trace.f_values(), trace.grad_norms()
    worst, worst_k, passed, vacuous = -math.inf, -1, True, 0
    for k in range(len(f) - 1):
        required = rho * g[k] ** theta
        viol = f[k + 1] - f[k] + required
        slack = rel_tol * max(1.0, abs(f[k]))
        if required <= slack:
            vacuous += 1
        if viol > slack:
            passed = False
        if viol > worst:
            worst, worst_k = viol, k
    return passed, max(len(f) - 1, 0), vacuous, worst, worst_k


def reference_displacement(trace, c, theta, rel_tol=1e-10):
    disp, g = trace.displacements(), trace.grad_norms()
    have = np.isfinite(disp)
    worst, worst_k, passed = -math.inf, -1, True
    for k in np.flatnonzero(have):
        bound = c * g[k] ** (theta - 1.0)
        viol = disp[k] - (bound + rel_tol * max(1.0, bound))
        if viol > 0.0:
            passed = False
        if viol > worst:
            worst, worst_k = viol, int(k)
    return passed, int(have.sum()), None, worst, worst_k


def reference_min_grad(trace, rho, theta, fstar):
    f, g = trace.f_values(), trace.grad_norms()
    gap0 = max(f[0] - fstar, 0.0)
    running, worst, worst_n, passed, vacuous = math.inf, -math.inf, -1, True, 0
    for n in range(1, len(f) + 1):
        running = min(running, g[n - 1])
        bound = (gap0 / (rho * n)) ** (1.0 / theta)
        if bound >= g[0]:
            vacuous += 1
        viol = running - bound * (1.0 + 1e-12)
        if viol > 0.0:
            passed = False
        if viol > worst:
            worst, worst_n = viol, n
    return passed, len(f), vacuous, worst, worst_n


def reference_ratio(trace, fstar, q_theory, rel_tol=1e-10):
    """The ratio loop; it reported no index, so the worst k is tracked here."""
    gaps = trace.f_values() - fstar
    floor = gap_floor(fstar)
    worst, worst_k, n, passed = -math.inf, -1, 0, True
    for k in range(len(gaps) - 1):
        if gaps[k] <= floor:
            continue
        n += 1
        ratio = gaps[k + 1] / gaps[k]
        if ratio > worst:
            worst, worst_k = ratio, k
        if ratio > q_theory * (1.0 + rel_tol):
            passed = False
    return passed, n, None, worst, worst_k


def reference_verdict(passed, n_checked, n_vacuous):
    """A loop's verdict: None when no record failed and none was live (no
    record checked, or every one vacuous), since such a check certifies
    nothing."""
    return None if passed and n_checked == (n_vacuous or 0) else passed


def assert_same(report, reference):
    passed, n_checked, n_vacuous, worst, worst_index = reference
    assert (report.passed, report.n_checked, report.n_vacuous, report.worst_index) == (
        reference_verdict(passed, n_checked, n_vacuous), n_checked, n_vacuous, worst_index)
    if math.isinf(worst):
        assert report.worst_violation == worst
    else:
        # vectorised powers may round a few ulps away from scalar pow
        assert abs(report.worst_violation - worst) <= 4 * np.spacing(abs(worst))


def all_four(trace, rho, theta, c, fstar, q_theory):
    """(report, reference) for every check applicable to ``trace``."""
    pairs = [
        (certify_descent(trace, rho, theta), reference_descent(trace, rho, theta)),
        (min_grad_bound_check(trace, rho, theta, fstar),
         reference_min_grad(trace, rho, theta, fstar)),
        (per_step_ratio_check(trace, fstar, q_theory),
         reference_ratio(trace, fstar, q_theory)),
    ]
    if np.isfinite(trace.displacements()).any():
        pairs.append((certify_displacement(trace, c, theta),
                      reference_displacement(trace, c, theta)))
    return pairs


def random_trace(rng, n, tail):
    """A trace on a dyadic grid, so that equal violations (ties) are common,
    mostly decreasing with some rises, ending in ``tail`` replayed records."""
    steps = rng.integers(-1, 4, n) / 8.0
    f = 4.0 - np.concatenate([[0.0], np.cumsum(steps[1:])])
    g = rng.integers(0, 5, n) / 4.0
    disp = rng.integers(0, 6, n) / 8.0
    disp[rng.random(n) < 0.1] = math.nan
    disp[-1] = math.nan
    trace = IterateTrace(rho=0.5, theta=2.0)
    for k in range(n):
        trace.append(k, float(f[k]), float(g[k]), displacement=float(disp[k]))
    if tail:
        trace.displacement[-1] = 0.0
        for j in range(tail):
            trace.append(n + j, trace.f[n - 1], trace.grad_norm[n - 1],
                         displacement=0.0 if j < tail - 1 else math.nan)
    return trace


@pytest.mark.parametrize("seed", range(40))
def test_random_traces_match_the_reference_loops(seed):
    rng = np.random.default_rng(seed)
    n = 1 if seed % 10 == 0 else int(rng.integers(2, 60))
    tail = int(rng.integers(0, 30)) if seed % 3 == 0 else 0
    trace = random_trace(rng, n, tail)
    f = trace.f_values()
    fstar = float(f.min()) - (0.0 if seed % 2 else 0.5)
    # exact powers on the grid (theta 2) and rounded ones (theta 1.5)
    for rho, theta in ((0.5, 2.0), (float(rng.uniform(0.1, 2.0)), 1.5)):
        for report, reference in all_four(trace, rho, theta, c=float(rng.uniform(0.5, 3.0)),
                                          fstar=fstar, q_theory=float(rng.uniform(0.3, 0.99))):
            assert_same(report, reference)


@pytest.mark.parametrize("runner", [run_dealc, run_deala])
def test_reevaluated_leastp_trace_matches_the_reference_loops(runner):
    # the sec51 family at a smaller size, run into a replayed fixed-point tail
    problem = problems.generate_problem(0, "leastp", 200, 40, p=1.5, consistent=True)
    objective = problem.as_smooth()
    x0 = np.random.default_rng(0).uniform(-5.0, 5.0, 40)
    xs = []
    trace = runner(objective, x0, DealConfig(eps=1e-30, max_iter=1500), xs.append)
    assert "fixed_point_at" in trace.extras
    checked = reevaluate_trace(trace, xs, problem.value_grad_rows)
    fstar = problems.reference_optimum(problem).fstar
    q_theory = 1.0 - trace.rho / problem.reference().tau ** trace.theta
    pairs = all_four(checked, trace.rho, trace.theta, trace.extras["c"], fstar, q_theory)
    assert len(pairs) == 4
    for report, reference in pairs:
        assert_same(report, reference)


def test_nan_ratio_fails_the_per_step_check():
    trace = IterateTrace(rho=0.5, theta=2.0)
    for k, f in enumerate([1.0, math.nan, 0.25]):
        trace.append(k, f, 1.0)
    report = per_step_ratio_check(trace, 0.0, 0.5)
    assert not report.passed and report.n_checked == 2
