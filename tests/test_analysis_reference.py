"""The rate fits and the complexity report against reference versions.

The reference functions below are the earlier implementations, which also
took a raw gap array and a settable tail fraction; the current ones take a
trace only.  On every trace they must give the same output, bit for bit.
"""

import math

import numpy as np
import pytest

from dealopt import analysis
from dealopt.analysis import (BoundCheck, ComplexityReport, KLEstimate, RateReport,
                              _complexity_K_log, complexity_K, gap_floor)
from dealopt.core import IterateTrace, Reevaluation, UsageError


def ref_tail(trace_or_gaps, fstar, tail_fraction):
    if isinstance(trace_or_gaps, IterateTrace):
        ks = np.array(trace_or_gaps.k, dtype=float)
        gaps = trace_or_gaps.f_values() - fstar
    else:
        gaps = np.asarray(trace_or_gaps, dtype=float) - fstar
        ks = np.arange(len(gaps), dtype=float)
    alive = gaps > gap_floor(fstar)
    ks, gaps = ks[alive], gaps[alive]
    if len(gaps) == 0:
        return ks, gaps
    if not 0.0 < tail_fraction <= 1.0:
        raise UsageError("tail_fraction must lie in (0, 1]")
    start = len(gaps) - max(int(math.ceil(tail_fraction * len(gaps))), 2)
    start = max(start, 0)
    return ks[start:], gaps[start:]


def ref_fit_linear_rate(trace_or_gaps, fstar, tail_fraction=0.5, *, rho=None,
                        theta=None, tau=None):
    report = RateReport()
    if rho is not None and theta is not None and tau is not None:
        q_theory = 1.0 - rho / tau ** theta
        if 0.0 < q_theory < 1.0:
            report.q_theory = q_theory
    ks, gaps = ref_tail(trace_or_gaps, fstar, tail_fraction)
    report.n_tail = len(gaps)
    if len(gaps) >= 2:
        report.tail_window = (int(ks[0]), int(ks[-1]))
        ratios = gaps[1:] / gaps[:-1]
        report.q_hat_max = float(ratios.max())
        logg = np.log(gaps)
        geo = np.polyfit(ks, logg, 1)
        report.q_hat_ls = float(math.exp(geo[0]))
        report.residual_geometric = float(np.mean((np.polyval(geo, ks) - logg) ** 2))
        pos = ks > 0
        if pos.sum() >= 2:
            logk = np.log(ks[pos])
            pow_fit = np.polyfit(logk, logg[pos], 1)
            report.mu_hat = float(math.exp(pow_fit[1]))
            report.decay_hat = float(-pow_fit[0])
            report.residual_power = float(
                np.mean((np.polyval(pow_fit, logk) - logg[pos]) ** 2))
    if report.n_tail >= 5 and report.q_hat_max is not None:
        if report.q_hat_max >= 1.0:
            report.regime = "inconclusive"
        elif (report.residual_power is None
              or report.residual_geometric <= report.residual_power):
            report.regime = "linear"
        else:
            report.regime = "sublinear"
    if isinstance(trace_or_gaps, IterateTrace):
        kl_est = ref_estimate_kl_exponent(trace_or_gaps, fstar)
        if kl_est is not None:
            report.vartheta_hat = kl_est.vartheta_hat
    return report


def ref_fit_sublinear(trace_or_gaps, fstar, tail_fraction=0.5):
    ks, gaps = ref_tail(trace_or_gaps, fstar, tail_fraction)
    pos = ks > 0
    if pos.sum() < 2:
        return None, None
    slope, intercept = np.polyfit(np.log(ks[pos]), np.log(gaps[pos]), 1)
    return float(math.exp(intercept)), float(-slope)


def ref_estimate_kl_exponent(trace_or_gaps, fstar, grad_norms=None,
                             tail_fraction=1.0):
    if isinstance(trace_or_gaps, IterateTrace):
        gaps = trace_or_gaps.f_values() - fstar
        gns = trace_or_gaps.grad_norms()
    else:
        gaps = np.asarray(trace_or_gaps, dtype=float) - fstar
        gns = np.asarray(grad_norms, dtype=float)
    keep = (gaps > gap_floor(fstar)) & (gns > 0.0)
    gaps, gns = gaps[keep], gns[keep]
    n = len(gaps)
    start = n - max(int(math.ceil(tail_fraction * n)), 2) if n else 0
    gaps, gns = gaps[max(start, 0):], gns[max(start, 0):]
    if len(gaps) < 2 or np.ptp(np.log(gaps)) < 1e-12:
        return None
    slope, intercept = np.polyfit(np.log(gaps), np.log(gns), 1)
    fitted = slope * np.log(gaps) + intercept
    residual = float(np.mean((fitted - np.log(gns)) ** 2))
    return KLEstimate(vartheta_hat=float(slope), residual=residual, n=len(gaps))


def ref_verify_complexity(trace, fstar, rho, theta, tau, eps, *, xstar=None, c=None,
                          xs=None):
    if min(rho, tau, eps) <= 0.0 or theta <= 1.0:
        raise UsageError("need rho, tau, eps > 0 and theta > 1")
    q = 1.0 - rho / tau ** theta
    if not 0.0 < q < 1.0:
        return ComplexityReport(q_theory=q, eps=eps, skipped=True,
                                reason=f"q = 1 - rho/tau^theta = {q:g} is outside (0, 1); "
                                       "bounds are vacuous")
    f = trace.f_values()
    g = trace.grad_norms()
    ks = np.array(trace.k)
    gap0 = f[0] - fstar
    report = ComplexityReport(q_theory=q, eps=eps)
    if gap0 <= 0.0:
        report.checks.append(BoundCheck("gap", 0, 1, True, "started at the optimum"))
        return report

    def first_k(mask):
        idx = np.flatnonzero(mask)
        return int(ks[idx[0]]) if idx.size else None

    m_gap = first_k(f - fstar <= eps)
    b_gap = complexity_K(gap0, 1.0, eps, q)
    report.checks.append(BoundCheck(
        "gap", m_gap, b_gap,
        None if m_gap is None else m_gap <= b_gap,
        "" if m_gap is not None else "criterion not reached within the trace"))

    m_grad = first_k(g <= eps)
    b_grad = complexity_K(gap0 / rho, theta, eps, q)
    report.checks.append(BoundCheck(
        "grad", m_grad, b_grad,
        None if m_grad is None else m_grad <= b_grad,
        "" if m_grad is not None else "criterion not reached within the trace"))

    if xstar is not None and c is not None and xs is not None:
        xstar = np.asarray(xstar, dtype=float)
        dist = np.empty(len(xs))
        for i, x in enumerate(xs):
            if i and x is xs[i - 1]:
                dist[i] = dist[i - 1]
            else:
                d = x - xstar
                dist[i] = np.sqrt(np.add.reduce(d * d))
        m_x = first_k(dist <= eps)
        y_x = theta / (theta - 1.0)
        r = 1.0 - q ** ((theta - 1.0) / theta)
        try:
            b_x = complexity_K((c / r) ** y_x * gap0 / rho, y_x, eps, q)
        except OverflowError:
            log_x = y_x * (math.log(c) - math.log(r)) + math.log(gap0) - math.log(rho)
            b_x = _complexity_K_log(log_x, y_x, eps, q)
        report.checks.append(BoundCheck(
            "iterate", m_x, b_x,
            None if m_x is None else m_x <= b_x,
            "" if m_x is not None else "criterion not reached within the trace"))
    return report


def make_trace(gaps, grads, fstar, ks=None):
    ks = range(len(gaps)) if ks is None else ks
    trace = IterateTrace(rho=0.5, theta=2.0)
    for k, gap, g in zip(ks, gaps, grads):
        trace.append(int(k), fstar + float(gap), float(g))
    return trace


def random_trace(seed):
    """``(trace, fstar, xs)``: decaying or noisy gaps, some at or below the
    floor, gaps in k, and, when ``xs`` is not None, the trace's iterates with
    a replayed tail of shared ones."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    fstar = float(rng.choice([0.0, -1.5, 3e4]))
    q = rng.uniform(0.05, 1.2)
    gaps = np.abs(rng.uniform(0.5, 4.0) * q ** np.arange(n)
                  * np.exp(rng.normal(0.0, rng.choice([0.0, 0.3]), n)))
    if rng.random() < 0.4:      # a tail at the floor or at the optimum
        gaps[int(rng.integers(1, n)):] = rng.choice([0.0, 0.5 * gap_floor(fstar)])
    grads = np.sqrt(gaps) * rng.uniform(0.5, 2.0, n)
    grads[rng.random(n) < 0.1] = 0.0
    ks = np.cumsum(rng.integers(1, 4, n)) - 1 if rng.random() < 0.5 else None
    xs = None
    if rng.random() < 0.6:
        xs = [rng.normal(size=3) for _ in range(n)]
        for i in range(int(rng.integers(1, n + 1)), n):
            xs[i] = xs[i - 1]
    return make_trace(gaps, grads, fstar, ks), fstar, xs


def same(a, b):
    """Equal, bit for bit, with NaN equal to NaN."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


def assert_same_outputs(trace, fstar, xs=None):
    for kwargs in ({}, dict(rho=0.5, theta=2.0, tau=1.0), dict(rho=0.1, theta=1.5, tau=0.4)):
        assert same(analysis.fit_linear_rate(trace, fstar, **kwargs).as_dict(),
                    ref_fit_linear_rate(trace, fstar, **kwargs).as_dict())
    rate = analysis.fit_linear_rate(trace, fstar)
    assert same((rate.mu_hat, rate.decay_hat), ref_fit_sublinear(trace, fstar))
    new, ref = (analysis.estimate_kl_exponent(trace, fstar),
                ref_estimate_kl_exponent(trace, fstar))
    assert (new is None) == (ref is None)
    if new is not None:
        assert same(new.__dict__, ref.__dict__)
    for rho, theta, tau, eps in ((0.5, 2.0, 1.0, 1e-3), (0.1, 1.5, 0.4, 1e-9),
                                 (2.0, 2.0, 1.0, 0.1)):
        assert same(analysis.verify_complexity(trace, fstar, rho, theta, tau, eps,
                                               distances=distances(trace, xs, np.zeros(3)),
                                               c=2.0).as_dict(),
                    ref_verify_complexity(trace, fstar, rho, theta, tau, eps,
                                          xstar=np.zeros(3), c=2.0, xs=xs).as_dict())


def distances(trace, xs, xstar):
    """The distance of each record's iterate in ``xs`` to ``xstar`` as a
    run's re-evaluation measures it, or None without iterates."""
    if xs is None:
        return None
    reevaluation = Reevaluation(lambda x: (0.5 * float(x @ x), x), xstar=xstar)
    for x in xs:
        reevaluation.add(x)
    return reevaluation.result(trace)[1]


@pytest.mark.parametrize("seed", range(40))
def test_random_traces(seed):
    assert_same_outputs(*random_trace(seed))


@pytest.mark.parametrize("fstar", [0.0, -2.0])
def test_single_record(fstar):
    assert_same_outputs(make_trace([0.7], [0.3], fstar), fstar, [np.ones(3)])


def test_replayed_tail():
    rng = np.random.default_rng(5)
    distinct = [rng.normal(size=3) * 0.5 ** k for k in range(30)]
    xs = distinct + [distinct[-1]] * 70
    gaps = 0.5 ** np.minimum(np.arange(100), 29)
    trace = make_trace(gaps, np.sqrt(gaps), 0.0)
    assert xs[-1] is xs[29]
    assert_same_outputs(trace, 0.0, xs)


@pytest.mark.parametrize("fstar", [0.0, 1e6])
def test_no_gap_above_the_floor(fstar):
    gaps = np.full(12, 0.5 * gap_floor(fstar))
    trace = make_trace(gaps, np.full(12, 1e-9), fstar)
    assert analysis.fit_linear_rate(trace, fstar).n_tail == 0
    assert_same_outputs(trace, fstar, [np.zeros(3)] * 12)
