"""Boosted proximal-gradient iterations on the forward-backward envelope and
boosted high-order proximal-point iterations on the Moreau envelope.

Both solvers log envelope values and envelope gradient norms as their f /
grad_norm columns, so the generic descent certificate applies to the envelope
sequence directly:

  boosted proximal gradient:  rho = sigma / (1 + gamma L)^2,   theta = 2
  boosted proximal point:     rho = sigma gamma^(1/(p-1)) / p, theta = p/(p-1)

Order selection p = 1/(1 - vartheta) matches theta to 1/vartheta, the regime
in which the envelope values contract linearly.

Both run one loop, ``_boost``; they differ only in the envelope, the
candidate point built from a trial step, and the schedule of trial steps.
The loop evaluates the envelope once per accepted point: the evaluation that
accepted a trial is completed with its gradient for the next step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (CompositeObjective, IterateRecord, IterateTrace, UsageError,
                   as_vector)
from .directions import DirectionRule, generalize
from .envelopes import (L1Norm, _check_gamma, fbe_complete, fbe_value,
                        fbe_value_grad, home_complete, home_value,
                        home_value_grad, prox_l1)


@dataclass
class BoostedConfig:
    gamma: Optional[float] = None   # per-solver default when None
    sigma: Optional[float] = None   # per-solver fraction of its cap when None
    eta: float = 0.5          # trial shrink factor for the proximal-point search
    alpha_bar: float = 0.5    # trial base for the proximal-gradient search
    max_linesearch: int = 50
    p: float = 2.0
    rule: Optional[DirectionRule] = None
    eps: float = 1e-6
    max_iter: int = 10000
    store_iterates: bool = False

    def __post_init__(self):
        if self.gamma is not None and not self.gamma > 0.0:
            raise UsageError("gamma must be positive")
        if self.sigma is not None and not self.sigma > 0.0:
            raise UsageError("sigma must be positive")
        if not 0.0 < self.eta < 1.0:
            raise UsageError("eta must lie in (0, 1)")
        if not 0.0 < self.alpha_bar < 1.0:
            raise UsageError("alpha_bar must lie in (0, 1)")
        if self.max_linesearch < 0:
            raise UsageError("max_linesearch must be >= 0")
        if not self.p > 1.0:
            raise UsageError("order p must exceed 1")
        if not self.eps > 0.0 or self.max_iter < 1:
            raise UsageError("need eps > 0 and max_iter >= 1")


def choose_order(vartheta: float) -> float:
    """Envelope order p = 1/(1 - vartheta), so that theta = p/(p-1) = 1/vartheta."""
    if not 0.0 < vartheta < 1.0:
        raise UsageError(f"vartheta must lie in (0, 1), got {vartheta}")
    p = 1.0 / (1.0 - vartheta)
    assert abs(p / (p - 1.0) - 1.0 / vartheta) <= 1e-9 * (1.0 / vartheta)
    return p


def run_bpga(problem: CompositeObjective, x0, config: BoostedConfig) -> IterateTrace:
    """Boosted proximal-gradient iteration on the forward-backward envelope.

    Each step computes the forward-backward point T(x^k), picks a direction
    d^k from the rule (fed with envelope gradients), and accepts the largest
    alpha in {alpha_bar^m : m = 1..max_linesearch} such that
    x^{k+1} = T(x^k) + alpha d^k decreases the envelope by at least
    sigma/(1+gamma L)^2 times the squared envelope gradient norm.  If no trial
    passes, the plain forward-backward point is taken (it always satisfies the
    test given sigma < gamma(1 - gamma L)/2).  ``max_linesearch=0`` skips the
    search entirely, reproducing the plain forward-backward update.  Unset
    ``gamma`` defaults to 0.95/L and unset ``sigma`` to 0.9 of its cap.

    On an l1-regularised smooth part that declares a constant Hessian
    (lasso), the trials after the first are screened in closed form (see
    ``_screened_trials``); only those near the threshold are evaluated
    exactly, and the step taken is the same.
    """
    holder = problem.smooth.holder
    gamma = config.gamma
    if gamma is None and holder is not None:  # no holder: _check_gamma rejects it
        gamma = 0.95 / holder.L
    L = _check_gamma(problem, gamma)
    sigma_cap = gamma * (1.0 - gamma * L) / 2.0
    sigma = config.sigma if config.sigma is not None else 0.9 * sigma_cap
    if not sigma < sigma_cap:
        raise UsageError(f"sigma must lie in (0, {sigma_cap:g})")
    rule = config.rule if config.rule is not None else DirectionRule("gradient")
    rule.reset()
    rho = sigma / (1.0 + gamma * L) ** 2
    trace = IterateTrace(
        solver_id="bpga", rho=rho, theta=2.0, guaranteed=True,
        extras={"gamma": gamma, "sigma": sigma, "L": L,
                "alpha_bar": config.alpha_bar, "eps": config.eps,
                "direction": rule.kind, "beta": rule.beta, "fallbacks": 0},
    )
    trials = [(m, config.alpha_bar ** m) for m in range(1, config.max_linesearch + 1)]
    schedule = None
    if problem.smooth.constant_hessian and isinstance(problem.nonsmooth, L1Norm):
        def schedule(T, d, threshold):
            return _screened_trials(problem, gamma, T, d, threshold, trials)
    return _boost(as_vector(x0, problem.smooth.dim, "x0"), config, rule, trace,
                  lambda x: fbe_value_grad(problem, x, gamma),
                  lambda x: fbe_value(problem, x, gamma),
                  lambda ev: fbe_complete(problem, ev, gamma),
                  lambda x, T, alpha, d: T + alpha * d, trials, schedule=schedule)


# The screened envelope value of a trial differs from its exact fbe_value by
# rounding alone: each is a sum of the same six terms (the three of the
# quadratic expansion of f, <grad f, D>, ||D||^2/(2 gamma) and g(T)), each
# computed to a few eps of its own magnitude.  The probe: on sec53 seeds
# 0-79, every trial after the first of every bpga step, whether or not the
# first trial passed (652,092 trials), is screened as below and evaluated by
# fbe_value, and |screened - exact| is divided by eps times the margin's sum
# of magnitudes.  The worst ratio was 1.96 (99th percentile 0.99), so 64
# leaves 32x headroom; the 1,189 trials whose screened and exact values lay
# on opposite sides of the threshold all lay inside the margin.  A larger
# error costs no safety, because every step taken is confirmed exactly; it
# could only skip a trial that the exact test passes.
SCREEN_MARGIN = 64.0


def _screened_trials(problem: CompositeObjective, gamma: float, T, d, threshold,
                     trials):
    """The trials of a step worth an exact envelope evaluation, in order.

    Trial 1 comes first and unscreened: the BB and L-BFGS directions are
    taken there on about 90 % of steps.  Only when it fails are the others
    screened.  For a quadratic f with Hessian H, along z = T + alpha d
        f(z) = f(T) + alpha <grad f(T), d> + alpha^2 <d, H d> / 2,
        grad f(z) = grad f(T) + alpha H d,
    so the envelope of every remaining trial comes from one (trials x n)
    array and a row-wise soft threshold.  A trial is skipped when its
    screened value exceeds the threshold by more than SCREEN_MARGIN eps
    times the magnitude of its terms; the rest are yielded for the exact
    test.
    """
    yield trials[0]
    rest = trials[1:]
    if not rest:
        return
    smooth = problem.smooth
    (f_T, g_T), Hd = smooth.value_and_grad(T), smooth.hess_apply(T, d)
    g_d, d_Hd = float(g_T @ d), float(d @ Hd)
    alpha = np.array([t for _, t in rest])
    Z = T + alpha[:, None] * d
    G = g_T + alpha[:, None] * Hd
    lam = problem.nonsmooth.weight
    TZ = prox_l1(Z - gamma * G, gamma * lam)
    D = TZ - Z
    slope = alpha * g_d
    curve = 0.5 * alpha ** 2 * d_Hd
    inner = np.einsum("ij,ij->i", G, D)
    square = np.einsum("ij,ij->i", D, D) / (2.0 * gamma)
    l1 = lam * np.abs(TZ).sum(axis=1)
    screened = f_T + slope + curve + inner + square + l1
    margin = SCREEN_MARGIN * np.finfo(float).eps * (
        abs(f_T) + np.abs(slope) + np.abs(curve) + np.abs(inner) + square + l1)
    # NaN compares False, so a non-finite screened value is never skipped
    far = screened > threshold + margin
    yield from (trial for trial, skip in zip(rest, far) if not skip)


def run_bhippa(phi, x0, config: BoostedConfig) -> IterateTrace:
    """Boosted order-p proximal-point iteration on the Moreau envelope of phi.

    Each step computes y = order-p prox of x^k, then accepts the largest
    kappa in {eta^m : m = 0..max_linesearch-1} such that
    x^{k+1} = (1-kappa) y + kappa (x^k + d^k) decreases the envelope by at
    least sigma gamma^(1/(p-1))/p times ||envelope grad||^(p/(p-1)); the prox
    point itself is the fallback (it satisfies the test since sigma < 1).
    ``max_linesearch=0`` skips the search entirely, reproducing the plain
    proximal-point update.  A multi-valued prox on the trajectory aborts with
    a diagnostic: the envelope is not differentiable there.  Unset ``gamma``
    defaults to 1 and unset ``sigma`` to 0.5 of its cap.
    """
    p = config.p
    gamma = config.gamma if config.gamma is not None else 1.0
    sigma_cap = min(1.0, 1.0 / (p * gamma))
    sigma = config.sigma if config.sigma is not None else 0.5 * sigma_cap
    if not sigma < sigma_cap:
        raise UsageError(f"sigma must lie in (0, {sigma_cap:g}) for order {p}")
    rule = config.rule if config.rule is not None else DirectionRule("gradient")
    rule.reset()
    q = 1.0 / (p - 1.0)
    rho = sigma * gamma ** q / p
    theta = p / (p - 1.0)
    trace = IterateTrace(
        solver_id="bhippa", rho=rho, theta=theta, guaranteed=True,
        extras={"gamma": gamma, "sigma": sigma, "p": p, "eta": config.eta,
                "eps": config.eps, "direction": rule.kind, "beta": rule.beta,
                "fallbacks": 0},
    )
    trials = [(m, config.eta ** m) for m in range(config.max_linesearch)]
    return _boost(as_vector(x0, name="x0"), config, rule, trace,
                  lambda x: home_value_grad(phi, x, gamma, p),
                  lambda x: home_value(phi, x, gamma, p),
                  lambda ev: home_complete(ev, gamma, p),
                  lambda x, y, kappa, d: (1.0 - kappa) * y + kappa * (x + d), trials,
                  x_tol=config.eps * gamma ** q)


# an overflowing trial fails the decrease test; numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
def _boost(x, config: BoostedConfig, rule: DirectionRule, trace: IterateTrace,
           evaluate, value, complete, candidate, trials,
           x_tol: Optional[float] = None, schedule=None):
    """The iteration loop of both boosted solvers, filling ``trace``.

    ``evaluate(x)`` gives the envelope value, gradient and proximal point y
    at x, and ``value(x)`` the envelope value alone, as an ``EnvelopeValue``
    that keeps its evaluation.  Each step tries ``candidate(x, y, t, d)`` for
    every (m, t) in ``trials`` in order and takes the first one whose
    envelope value is at most value - rho ||grad||^theta; otherwise it takes
    y.  The accepted trial's evaluation is carried to the next step, where
    ``complete(ev)`` adds its gradient alone, so the envelope is evaluated
    once per accepted point: ``evaluate`` runs only at k=0 and after a step
    that took y.  Both paths run the same operations on the same array, so
    the trace does not depend on which one ran.  ``schedule(y, d,
    threshold)``, when given, yields the trials to try in place of all of
    them.  With no trials the direction rule is never consulted.  ``x_tol``
    stops the run once ||x - y|| falls to it.  A point whose envelope value
    or gradient norm is not finite ends the run ``nonfinite`` before it is
    recorded.  The extras count the steps that took y (``fallbacks``) and
    the direction rule's own fallbacks (``direction_fallbacks``).
    """
    accepted = None
    for k in range(config.max_iter + 1):
        ev = evaluate(x) if accepted is None else complete(accepted.evaluation)
        if ev.multi_valued:
            trace.extras["termination"] = "multivalued"
            trace.extras["diagnostic"] = (
                f"multi-valued proximal point at k={k}; envelope gradient undefined")
            break
        gn = ev.grad_norm
        if not (math.isfinite(ev.value) and math.isfinite(gn)):
            trace.extras["termination"] = "nonfinite"
            trace.extras["diagnostic"] = f"non-finite envelope value or gradient at k={k}"
            break
        y = ev.prox_point
        # the loop never writes into x, and every later x is a candidate or
        # a proximal point, an array of its own, so only x0 is copied
        stored = None
        if config.store_iterates:
            stored = x.copy() if k == 0 else x
        rec = IterateRecord(k=k, f=ev.value, grad_norm=gn, x=stored)
        trace.records.append(rec)
        if gn <= config.eps:
            trace.extras["termination"] = "tolerance"
            break
        if x_tol is not None:
            # sqrt(v . v) is np.linalg.norm(v) for a vector, bit for bit
            residual = x - y
            if math.sqrt(residual @ residual) <= x_tol:
                # proximal residual below the scaled tolerance; for orders below
                # 2 this can trigger while the envelope gradient is still above eps
                trace.extras["termination"] = "displacement"
                break
        if k == config.max_iter:
            trace.extras["termination"] = "max_iter"
            break
        x_next = accepted = None
        if trials:
            d_bar = rule.base_direction(x, ev.gradient, gn)
            rule.push(x, ev.gradient)
            d = generalize(d_bar, ev.gradient, rule.beta, gn)
            threshold = ev.value - trace.rho * gn ** trace.theta
            for m, t in (trials if schedule is None else schedule(y, d, threshold)):
                cand = candidate(x, y, t, d)
                trial = value(cand)
                if trial <= threshold:
                    x_next, accepted = cand, trial
                    rec.step = t
                    rec.inner_count = m
                    break
            else:
                trace.extras["fallbacks"] += 1
        if x_next is None:
            x_next = y
            rec.step = 0.0
            rec.inner_count = config.max_linesearch
        dx = x_next - x
        rec.displacement = math.sqrt(dx @ dx)
        x = x_next
    trace.extras["direction_fallbacks"] = rule.fallback_count
    return trace
