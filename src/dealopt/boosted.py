"""Boosted proximal-gradient iterations on the forward-backward envelope and
boosted high-order proximal-point iterations on the Moreau envelope.

Both solvers log envelope values and envelope gradient norms as their f /
grad_norm columns, so the generic descent certificate applies to the envelope
sequence directly:

  boosted proximal gradient:  rho = sigma / (1 + gamma L)^2,   theta = 2
  boosted proximal point:     rho = sigma gamma^(1/(p-1)) n^min(0, 1 - p/(2(p-1))) / p,
                              theta = p/(p-1)

The order p = 1/(1 - vartheta) matches theta to 1/vartheta, the regime in
which the envelope values contract linearly; a family declares it exactly
(``KLInfo.order``, s for |x|^s), and ``order auto`` takes it.

Both are DEAL on their envelope: they run the loop of the smooth solvers,
:func:`~dealopt.solvers.deal_loop`, whose points are here envelope
evaluations (``core.Evaluation``, as a smooth point is, unpacking as value,
gradient and proximal point), so the proximal point is the point a step
falls back to when no trial passes the threshold value - rho
||grad||^theta.  They differ only in the envelope, the candidate point
built from a trial step, and the trials.
The envelope is valued once per point, by ``fbe_value`` or ``home_value``,
and the value of the point taken is completed in place with its gradient
for the next step.  The envelope functions are looked up in this module at
each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (CapabilityError, CompositeObjective, IterateTrace, UsageError,
                   as_vector, check_count)
from .directions import DirectionRule
# the solvers call no *_value_grad; the names stay in this namespace, where
# perfbench's tracer wraps them
from .envelopes import (_check_gamma, fbe_complete, fbe_value, fbe_value_grad,
                        home_complete, home_value, home_value_grad)  # noqa: F401
from .solvers import check_constant, deal_loop


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

    def __post_init__(self):
        if self.gamma is not None and not self.gamma > 0.0:
            raise UsageError("gamma must be positive")
        if self.sigma is not None and not self.sigma > 0.0:
            raise UsageError("sigma must be positive")
        if not 0.0 < self.eta < 1.0:
            raise UsageError("eta must lie in (0, 1)")
        if not 0.0 < self.alpha_bar < 1.0:
            raise UsageError("alpha_bar must lie in (0, 1)")
        check_count("max_linesearch", self.max_linesearch, 0)
        if not self.p > 1.0:
            raise UsageError("order p must exceed 1")
        if not 0.0 < self.eps < math.inf:
            raise UsageError("need a finite eps > 0")
        check_count("max_iter", self.max_iter, 1)


def run_bpga(problem: CompositeObjective, x0, config: BoostedConfig,
             observe=None) -> IterateTrace:
    """Boosted proximal-gradient iteration on the forward-backward envelope.

    Each step computes the forward-backward point T(x^k), picks a direction
    d^k from the rule (fed with envelope gradients), and accepts the largest
    t in {gamma alpha_bar^m : m = 1..max_linesearch} such that
    x^{k+1} = T(x^k) + t d^k decreases the envelope by at least
    sigma/(1+gamma L)^2 times the squared envelope gradient norm.  The
    factor gamma is for the ``gradient`` kind only: the envelope gradient is
    about 1/gamma times the forward-backward residual x - T, so that t d^k
    has the residual's unit and the iterates do not depend on the data's;
    BB and L-BFGS directions carry their own scale and take
    t = alpha_bar^m.  If no trial passes, the plain forward-backward point is
    taken (it always satisfies the test given sigma < gamma(1 - gamma L)/2).
    ``max_linesearch=0`` skips the search entirely, reproducing the plain
    forward-backward update.  Unset ``gamma`` defaults to 0.95/L and unset
    ``sigma`` to 0.9 of its cap.  ``observe``, when given, is called with
    each recorded iterate (see :func:`~dealopt.solvers.deal_loop`).
    """
    gamma, L, sigma, rho = bpga_constants(problem, config)
    rule = config.rule if config.rule is not None else DirectionRule("gradient")
    rule.reset()
    trace = IterateTrace(
        solver_id="bpga", rho=rho, theta=2.0, guaranteed=True,
        extras={"gamma": gamma, "sigma": sigma, "L": L,
                "alpha_bar": config.alpha_bar, "eps": config.eps,
                "direction": rule.kind, "beta": rule.beta, "fallbacks": 0},
    )
    unit = gamma if rule.kind == "gradient" else 1.0
    trials = [(m, unit * config.alpha_bar ** m)
              for m in range(1, config.max_linesearch + 1)]
    return deal_loop(
        as_vector(x0, problem.smooth.dim, "x0"), config, rule, trace, trials,
        candidate=lambda x, T, alpha, d: T + alpha * d,
        value=lambda z: fbe_value(problem, z, gamma),
        complete=lambda ev: fbe_complete(problem, ev, gamma),
        schedule=_schedule(trace, trials), observe=observe)


def run_bhippa(phi, x0, config: BoostedConfig, observe=None) -> IterateTrace:
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
    defaults to 1 and unset ``sigma`` to 0.5 of its cap.  ``observe`` is as
    for :func:`run_bpga`.
    """
    p = config.p
    x = as_vector(x0, name="x0")
    gamma, sigma, rho = bhippa_constants(config, x.size)
    rule = config.rule if config.rule is not None else DirectionRule("gradient")
    rule.reset()
    q = 1.0 / (p - 1.0)
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
        candidate=lambda x, y, kappa, d: (1.0 - kappa) * y + kappa * (x + d),
        value=lambda z: home_value(phi, z, gamma, p),
        complete=lambda ev: home_complete(ev, gamma, p),
        schedule=_schedule(trace, trials), x_tol=config.eps * gamma ** q,
        observe=observe)


def bpga_constants(problem: CompositeObjective, config: BoostedConfig):
    """``(gamma, L, sigma, rho)`` of a BPGA run, once gamma is checked in
    (0, 1/L), sigma below its cap gamma (1 - gamma L) / 2, rho = sigma /
    (1 + gamma L)^2 a positive finite double (see ``solvers.check_constant``)
    and the smooth part for the Hessian-apply oracle that the envelope
    gradient needs."""
    if problem.smooth.hess_apply is None:
        raise CapabilityError("forward-backward envelope gradient needs a Hessian-apply oracle")
    holder = problem.smooth.holder
    gamma = config.gamma
    if gamma is None and holder is not None:  # no holder: _check_gamma rejects it
        gamma = 0.95 / holder.L
    L = _check_gamma(problem, gamma)
    sigma_cap = gamma * (1.0 - gamma * L) / 2.0
    sigma = config.sigma if config.sigma is not None else 0.9 * sigma_cap
    if not sigma < sigma_cap:
        raise UsageError(f"sigma must lie in (0, {sigma_cap:g})")
    rho = sigma / (1.0 + gamma * L) ** 2
    return gamma, L, sigma, check_constant("rho", rho, sigma=sigma, gamma=gamma, L=L)


def bhippa_constants(config: BoostedConfig, n: int):
    """``(gamma, sigma, rho)`` of a BHiPPA run on ``n`` coordinates, once
    sigma is checked below its cap min(1, 1/(p gamma)) and rho is a positive
    finite double (see ``solvers.check_constant``)."""
    p = config.p
    gamma = config.gamma if config.gamma is not None else 1.0
    sigma_cap = min(1.0, 1.0 / (p * gamma))
    sigma = config.sigma if config.sigma is not None else 0.5 * sigma_cap
    if not sigma < sigma_cap:
        raise UsageError(f"sigma must lie in (0, {sigma_cap:g}) for order {p}")
    # the fallback decreases the envelope by ||x - y||_p^p / (p gamma), and
    # ||grad|| = ||x - y||_r^(p-1) / gamma with r = 2(p-1); for p < 2, r < p
    # and only ||.||_p^p >= n^(1 - p/r) ||.||_r^p holds
    q = 1.0 / (p - 1.0)
    try:
        rho = sigma * gamma ** q * n ** min(0.0, 1.0 - p / (2.0 * (p - 1.0))) / p
    except OverflowError:
        rho = math.nan
    return gamma, sigma, check_constant("rho", rho, gamma=gamma, sigma=sigma, p=p, n=n)


def _schedule(trace: IterateTrace, trials):
    """The schedule hook of a boosted solver: its trials, each against the
    step's threshold value - rho ||grad||^theta."""
    def schedule(ev, gn, d):
        threshold = ev.value - trace.rho * gn ** trace.theta
        return ((m, t, threshold) for m, t in trials)
    return schedule
