"""Constant-step and Armijo-backtracking instances of the generalized descent
framework, with their certified (rho, theta) computed a priori.

Both solvers step along d = ||grad||^beta * d_bar where d_bar satisfies the
sufficient-descent pair for (c1, c2).  With beta matched to the gradient's
Hölder exponent nu via beta = (1-nu)/nu the runs carry certified constants:

  constant step:  alpha = (c1 / (c2^(1+nu) L))^(1/nu),
                  rho = c1 alpha nu / (1+nu),      theta = 1 + 1/nu
  Armijo search:  rho = sigma alpha_tilde c1,      theta = 1 + 1/nu

where alpha_tilde is the worst-case accepted step computed by
:func:`armijo_bound`.  Every step moves at most c ||grad||^(theta-1), with
the displacement constant c = c2 alpha (constant step) or c2 alpha_bar
(Armijo), recorded as the trace extra ``c``.  Any other beta is allowed but
the trace is marked heuristic and rate/bound certificates are skipped
downstream.

Both run one loop, ``_descend``: the constant step is the case with no Armijo
test, a single trial at alpha that is always taken.  When the first Armijo
trial fails and the objective has a line oracle (``line_values``, which
least-p supplies), the remaining backtracks are screened at once and only
those the screen cannot rule out are evaluated, in order; the step taken is
the one the per-trial loop takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (CapabilityError, IterateRecord, IterateTrace, SmoothObjective,
                   UsageError, as_vector)
from .directions import DirectionRule, beta_for_holder, generalize


@dataclass
class ArmijoParams:
    sigma: float = 1e-4
    eta: float = 0.5
    alpha_bar: float = 1.0
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise UsageError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not 0.0 < self.eta < 1.0:
            raise UsageError(f"eta must lie in (0, 1), got {self.eta}")
        if not self.alpha_bar > 0.0:
            raise UsageError(f"alpha_bar must be positive, got {self.alpha_bar}")
        if self.max_backtracks < 1:
            raise UsageError("max_backtracks must be >= 1")


@dataclass
class DealConfig:
    eps: float = 1e-6
    max_iter: int = 10000
    rule: Optional[DirectionRule] = None
    armijo: ArmijoParams = field(default_factory=ArmijoParams)
    store_iterates: bool = False

    def __post_init__(self):
        if not self.eps > 0.0:
            raise UsageError("eps must be positive")
        if self.max_iter < 1:
            raise UsageError("max_iter must be >= 1")


def dealc_step_size(c1: float, c2: float, nu: float, L: float) -> float:
    """Step size maximizing the guaranteed decrease: (c1/(c2^(1+nu) L))^(1/nu).

    Always inside the admissible interval (0, (c1(1+nu)/(c2^(1+nu)L))^(1/nu)].
    """
    if min(c1, c2, nu, L) <= 0.0 or nu > 1.0:
        raise UsageError("need c1, c2, L > 0 and nu in (0, 1]")
    return (c1 / (c2 ** (1.0 + nu) * L)) ** (1.0 / nu)


def armijo_bound(nu: float, sigma: float, eta: float, c1: float, c2: float,
                 L: float, alpha_bar: float):
    """Worst-case backtracking count and step-size floor for the Armijo loop.

    Returns (c_bar, p_bar, alpha_tilde) with
      c_bar = ((1+nu)(1-sigma) c1 / (L alpha_bar^nu c2^(1/nu)))^(1/nu),
      p_bar = 1 + log(c_bar)/log(eta),
      alpha_tilde = eta^p_bar * alpha_bar.
    p_bar may be negative when c_bar > 1; then every first trial is accepted.
    """
    if min(nu, sigma, eta, c1, c2, L, alpha_bar) <= 0.0:
        raise UsageError("all inputs must be positive")
    if nu > 1.0 or sigma >= 1.0 or eta >= 1.0:
        raise UsageError("need nu in (0,1], sigma in (0,1), eta in (0,1)")
    c_bar = ((1.0 + nu) * (1.0 - sigma) * c1
             / (L * alpha_bar ** nu * c2 ** (1.0 / nu))) ** (1.0 / nu)
    p_bar = 1.0 + math.log(c_bar) / math.log(eta)
    alpha_tilde = eta ** p_bar * alpha_bar
    return c_bar, p_bar, alpha_tilde


def run_dealc(objective: SmoothObjective, x0, config: DealConfig) -> IterateTrace:
    """Constant-step generalized descent.

    Terminates when ||grad f(x^k)|| <= eps (checked before stepping) or at
    max_iter.  A non-finite value or gradient norm, at x0 or at a trial,
    ends the run ``nonfinite`` with a diagnostic in the trace extras instead
    of raising, and is not recorded.
    """
    rule, nu, L, guaranteed = _prepare(objective, config, "deal-c")
    alpha = dealc_step_size(rule.c1, rule.c2, nu, L)
    rho = rule.c1 * alpha * nu / (1.0 + nu)
    theta = rule.beta + 2.0
    trace = IterateTrace(
        solver_id="deal-c", rho=rho, theta=theta, guaranteed=guaranteed,
        extras={"alpha": alpha, "c": rule.c2 * alpha, "nu": nu, "L": L,
                "c1": rule.c1, "c2": rule.c2,
                "beta": rule.beta, "eps": config.eps, "direction": rule.kind},
    )
    return _descend(objective, x0, config, rule, trace, alpha)


def run_deala(objective: SmoothObjective, x0, config: DealConfig) -> IterateTrace:
    """Backtracking generalized descent.

    Inner loop: starting from alpha_bar, shrink by eta until
    f(x + alpha d) <= f(x) + sigma alpha <grad f(x), d>; the accepted
    backtrack count p_k is logged per iteration.  Exceeding max_backtracks
    aborts with a diagnostic (possible only when the declared L is wrong).
    """
    rule, nu, L, guaranteed = _prepare(objective, config, "deal-a")
    ap = config.armijo
    c_bar, p_bar, alpha_tilde = armijo_bound(nu, ap.sigma, ap.eta, rule.c1,
                                             rule.c2, L, ap.alpha_bar)
    rho = ap.sigma * alpha_tilde * rule.c1
    theta = rule.beta + 2.0
    trace = IterateTrace(
        solver_id="deal-a", rho=rho, theta=theta, guaranteed=guaranteed,
        extras={"nu": nu, "L": L, "c1": rule.c1, "c2": rule.c2, "beta": rule.beta,
                "sigma": ap.sigma, "eta": ap.eta, "alpha_bar": ap.alpha_bar,
                "c": rule.c2 * ap.alpha_bar,
                "c_bar": c_bar, "p_bar": p_bar, "alpha_tilde": alpha_tilde,
                "eps": config.eps, "direction": rule.kind},
    )
    return _descend(objective, x0, config, rule, trace, ap.alpha_bar, ap)


# an overflowing trial ends the run with a diagnostic; numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
def _descend(objective: SmoothObjective, x0, config: DealConfig, rule: DirectionRule,
             trace: IterateTrace, alpha: float,
             armijo: Optional[ArmijoParams] = None) -> IterateTrace:
    """The iteration loop of both step rules, filling ``trace``.

    Every step first tries ``alpha``.  Without ``armijo`` that trial is
    always taken, so its value and gradient come from one fused oracle call;
    with it, the step shrinks to eta^p alpha_bar until the Armijo test passes
    or p exceeds max_backtracks, and the gradient is taken at the accepted
    point.  The backtracks that :func:`_screened_backtracks` rules out are
    not evaluated.  A point whose value or gradient norm is not finite ends
    the run ``nonfinite`` before it is recorded.  Once two consecutive steps leave
    ``x`` bitwise unchanged, the rest of the run is replayed (see
    :func:`_replay_fixed_point`).
    """
    fused = backtracks = None
    if armijo is None:
        fused = objective.value_and_grad
    else:
        backtracks = [(p, armijo.eta ** p * armijo.alpha_bar)
                      for p in range(1, armijo.max_backtracks + 1)]
    x = as_vector(x0, objective.dim, "x0")
    f, g = fused(x) if fused else (objective.value(x), None)
    unmoved = 0
    for k in range(config.max_iter + 1):
        if g is None:
            g = objective.grad(x)
        # sqrt(g . g) is np.linalg.norm(g) for a vector, bit for bit
        gn = math.sqrt(g @ g)
        if not (math.isfinite(f) and math.isfinite(gn)):
            trace.extras["termination"] = "nonfinite"
            trace.extras["diagnostic"] = f"non-finite objective or gradient at k={k}"
            break
        # the loop never writes into x, and every later x is an array of its
        # own, so only x0, which may be the caller's, is copied
        stored = None
        if config.store_iterates:
            stored = x.copy() if k == 0 else x
        rec = IterateRecord(k=k, f=f, grad_norm=gn, x=stored)
        trace.records.append(rec)
        if gn <= config.eps:
            trace.extras["termination"] = "tolerance"
            break
        if k == config.max_iter:
            trace.extras["termination"] = "max_iter"
            break
        d_bar, _ = rule.sufficient_base_direction(x, g, gn)
        rule.push(x, g)
        d = generalize(d_bar, g, rule.beta, gn)
        p = 0
        step = alpha
        x_next = x + step * d
        if fused:
            f_next, g_next = fused(x_next)
        else:
            f_next, g_next = objective.value(x_next), None
            slope = float(g @ d)
            if not f_next <= f + armijo.sigma * step * slope:
                for p, step in _screened_backtracks(objective, armijo, backtracks,
                                                    x, d, f, slope):
                    x_next = x + step * d
                    f_next = objective.value(x_next)
                    if f_next <= f + armijo.sigma * step * slope:
                        break
                else:
                    trace.extras["termination"] = "backtrack_limit"
                    trace.extras["diagnostic"] = (
                        f"no Armijo step within {armijo.max_backtracks} backtracks at "
                        f"k={k}; declared Hölder constant is likely too small")
                    return trace
        if not math.isfinite(f_next):
            trace.extras["termination"] = "nonfinite"
            trace.extras["diagnostic"] = f"non-finite objective at k={k + 1}"
            break
        rec.step = step
        rec.inner_count = p
        dx = x_next - x
        rec.displacement = math.sqrt(dx @ dx)
        # bytes, not displacement == 0: the norm can underflow and -0.0 == 0.0
        unmoved = unmoved + 1 if x_next.tobytes() == x.tobytes() else 0
        if unmoved == 2:
            _replay_fixed_point(trace, rec, config.max_iter)
            break
        x, f, g = x_next, f_next, g_next
    return trace


def _screened_backtracks(objective: SmoothObjective, armijo: ArmijoParams,
                         backtracks, x, d, f: float, slope: float):
    """The backtracks (p, eta^p alpha_bar) worth an exact value, in order.

    Without a line oracle that is all of them.  With one, every backtrack is
    screened at once, and two kinds are skipped, because their exact value
    fails the Armijo test too: those whose screened value exceeds the
    threshold by more than its margin, and those whose trial point is x
    itself, bit for bit, whose value is f (the oracle is deterministic) and
    whose threshold lies below f.  So the first backtrack that passes is
    still the first one tried that passes.
    """
    if objective.line_values is None:
        return backtracks
    steps = np.array([step for _, step in backtracks])
    values, margins = objective.line_values(x, d, steps)
    thresholds = f + armijo.sigma * steps * slope
    # NaN compares False, so a non-finite screened value is never skipped
    skip = values > thresholds + margins
    # the trial points as the loop forms them; bytes, because -0.0 == 0.0
    unmoved = ((x + steps[:, None] * d).view(np.int64) == x.view(np.int64)).all(axis=1)
    skip |= unmoved & ~(f <= thresholds)
    return [trial for trial, skipped in zip(backtracks, skip.tolist()) if not skipped]


def _replay_fixed_point(trace: IterateTrace, last: IterateRecord, max_iter: int):
    """Append records last.k + 1 .. max_iter, each a repeat of ``last``.

    Called after two consecutive steps left x bitwise unchanged.  The oracles
    are deterministic, and ``DirectionRule.push`` of a repeated (x, g) adds no
    pair and keeps its previous point, so every later step would evaluate the
    same points, take the same step and stay put again: the run would end at
    ``max_iter`` with these records.  The replayed records share one
    read-only stored iterate, and ``fixed_point_at`` names the first of them.
    """
    x = last.x
    if x is not None:
        x.flags.writeable = False
    trace.extras["fixed_point_at"] = last.k + 1
    for k in range(last.k + 1, max_iter):
        trace.records.append(IterateRecord(
            k=k, f=last.f, grad_norm=last.grad_norm, step=last.step,
            inner_count=last.inner_count, displacement=0.0, x=x))
    trace.records.append(IterateRecord(k=max_iter, f=last.f,
                                       grad_norm=last.grad_norm, x=x))
    trace.extras["termination"] = "max_iter"


def _prepare(objective: SmoothObjective, config: DealConfig, solver: str):
    if objective.holder is None:
        raise CapabilityError(f"{solver} needs declared Hölder gradient metadata (nu, L)")
    nu, L = objective.holder.nu, objective.holder.L
    rule = config.rule if config.rule is not None else DirectionRule("gradient",
                                                                     beta=beta_for_holder(nu))
    rule.reset()
    guaranteed = abs(rule.beta - beta_for_holder(nu)) <= 1e-12
    return rule, nu, L, guaranteed
