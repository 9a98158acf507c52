"""Boosted proximal-gradient iterations on the forward-backward envelope and
boosted high-order proximal-point iterations on the Moreau envelope.

Both solvers log envelope values and envelope gradient norms as their f /
grad_norm columns, so the generic descent certificate applies to the envelope
sequence directly:

  boosted proximal gradient:  rho = sigma / (1 + gamma L)^2,   theta = 2
  boosted proximal point:     rho = sigma gamma^(1/(p-1)) n^min(0, 1 - p/(2(p-1))) / p,
                              theta = p/(p-1)

Order selection p = 1/(1 - vartheta) matches theta to 1/vartheta, the regime
in which the envelope values contract linearly.

Both are DEAL on their envelope: they run the loop of the smooth solvers,
:func:`~dealopt.solvers.deal_loop`, on the envelope, with the proximal point
as the point a step falls back to when no trial passes the threshold
value - rho ||grad||^theta.  They differ only in the envelope, the candidate
point built from a trial step, and the trials.  The envelope is evaluated
once per accepted point: the evaluation that accepted a trial is completed
with its gradient for the next step.  The envelope functions are looked up
in this module at each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CompositeObjective, IterateTrace, UsageError, as_vector
from .directions import DirectionRule
from .envelopes import (L1Norm, _check_gamma, fbe_complete, fbe_value,
                        fbe_value_grad, home_complete, home_value,
                        home_value_grad, prox_l1)
from .solvers import deal_loop


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
    screen = None
    if problem.smooth.constant_hessian and isinstance(problem.nonsmooth, L1Norm):
        def screen(T, d, threshold):
            return _screened_trials(problem, gamma, T, d, threshold, trials)
    return deal_loop(
        as_vector(x0, problem.smooth.dim, "x0"), config, rule, trace, trials,
        evaluate=lambda x: _point(fbe_value_grad(problem, x, gamma)),
        candidate=lambda x, T, alpha, d: T + alpha * d,
        value=lambda z: fbe_value(problem, z, gamma),
        complete=lambda z, trial: _point(fbe_complete(problem, trial.evaluation, gamma)),
        schedule=_schedule(trace, trials, screen), envelope=True)


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
    least rho = sigma gamma^(1/(p-1)) n^min(0, 1 - p/(2(p-1))) / p times
    ||envelope grad||^(p/(p-1)), n the dimension; the prox point itself is
    the fallback (it satisfies the test since sigma < 1).
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
    x = as_vector(x0, name="x0")
    q = 1.0 / (p - 1.0)
    # the fallback decreases the envelope by ||x - y||_p^p / (p gamma), and
    # ||grad|| = ||x - y||_r^(p-1) / gamma with r = 2(p-1); for p < 2, r < p
    # and only ||.||_p^p >= n^(1 - p/r) ||.||_r^p holds
    rho = sigma * gamma ** q * x.size ** min(0.0, 1.0 - p / (2.0 * (p - 1.0))) / p
    theta = p / (p - 1.0)
    trace = IterateTrace(
        solver_id="bhippa", rho=rho, theta=theta, guaranteed=True,
        extras={"gamma": gamma, "sigma": sigma, "p": p, "eta": config.eta,
                "eps": config.eps, "direction": rule.kind, "beta": rule.beta,
                "fallbacks": 0},
    )
    trials = [(m, config.eta ** m) for m in range(config.max_linesearch)]
    return deal_loop(
        x, config, rule, trace, trials,
        evaluate=lambda x: _point(home_value_grad(phi, x, gamma, p)),
        candidate=lambda x, y, kappa, d: (1.0 - kappa) * y + kappa * (x + d),
        value=lambda z: home_value(phi, z, gamma, p),
        complete=lambda z, trial: _point(home_complete(trial.evaluation, gamma, p)),
        schedule=_schedule(trace, trials), envelope=True, x_tol=config.eps * gamma ** q)


def _point(ev):
    """(value, gradient, proximal point) of an envelope evaluation, the shape
    of ``deal_loop``'s points; a multi-valued one has no gradient."""
    return ev.value, ev.gradient, ev.prox_point


def _schedule(trace: IterateTrace, trials, screen=None):
    """The schedule hook of a boosted solver: its trials, or those that
    ``screen(T, d, threshold)`` offers, each against the step's threshold
    value - rho ||grad||^theta."""
    def schedule(x, f, g, gn, y, d):
        threshold = f - trace.rho * gn ** trace.theta
        offered = trials if screen is None else screen(y, d, threshold)
        return ((m, t, threshold) for m, t in offered)
    return schedule
