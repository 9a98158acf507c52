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

All four solvers run one loop, :func:`deal_loop`, DEAL on a function given
by hooks: a point's value and its completion with a gradient, and the step,
which yields its trial points in order, each with the bound its value must
meet.  Here the function is the objective itself (``_descend``), valued by
its ``value`` and completed by its ``complete``; its step takes the
direction that satisfies the sufficient-descent pair, the constant step is
the case with no Armijo test, a single trial at alpha that is always taken,
and an Armijo step that no trial passes ends the run ``backtrack_limit``.
The boosted solvers run the loop on an envelope, whose steps fall back to
the proximal point.  When the first trial fails and the objective has a
line oracle (least-p's on f), the remaining trials are screened at once by
:func:`screened` and only those it cannot rule out are offered, in order;
the step taken is the one the per-trial loop takes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (TRACE_COLUMNS, CapabilityError, IterateTrace, SmoothObjective,
                   UsageError, as_vector, check_count, column)
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
        check_count("max_backtracks", self.max_backtracks, 1)


@dataclass
class DealConfig:
    eps: float = 1e-6
    max_iter: int = 10000
    rule: Optional[DirectionRule] = None
    armijo: ArmijoParams = field(default_factory=ArmijoParams)

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise UsageError(f"eps must be positive and finite, got {self.eps}")
        check_count("max_iter", self.max_iter, 1)


def check_constant(name: str, value: float, **inputs) -> float:
    """``value``, a constant derived from ``inputs``, once it is checked to
    be a positive finite double of full precision.  One that underflowed to
    0 or overflowed, or is NaN, as a caller sets it when a float power raises
    ``OverflowError``, is refused with the inputs it came from.  So is a
    subnormal one, below ``sys.float_info.min``: it keeps only a few
    significant bits, and a bound divided by it, such as
    ``min_grad_bound``'s, can overflow to an infinite bound that checks
    nothing."""
    if not sys.float_info.min <= value < math.inf:
        given = ", ".join(f"{k}={v!r}" for k, v in inputs.items())
        subnormal = " (subnormal)" if 0.0 < value < sys.float_info.min else ""
        raise UsageError(f"{name} must be a positive finite double, got {value!r}"
                         f"{subnormal} from {given}")
    return value


def dealc_step_size(c1: float, c2: float, nu: float, L: float) -> float:
    """Step size maximizing the guaranteed decrease: (c1/(c2^(1+nu) L))^(1/nu).

    Always inside the admissible interval (0, (c1(1+nu)/(c2^(1+nu)L))^(1/nu)],
    once it is a positive finite double (see :func:`check_constant`).
    """
    if min(c1, c2, nu, L) <= 0.0 or nu > 1.0:
        raise UsageError("need c1, c2, L > 0 and nu in (0, 1]")
    try:
        alpha = (c1 / (c2 ** (1.0 + nu) * L)) ** (1.0 / nu)
    except OverflowError:
        alpha = math.nan
    return check_constant("step", alpha, c1=c1, c2=c2, nu=nu, L=L)


def armijo_bound(nu: float, sigma: float, eta: float, c1: float, c2: float,
                 L: float, alpha_bar: float):
    """Worst-case backtracking count and step-size floor for the Armijo loop.

    Returns (c_bar, p_bar, alpha_tilde) with
      c_bar = ((1+nu)(1-sigma) c1 / (L alpha_bar^nu c2^(1+nu)))^(1/nu),
      p_bar = 1 + log(c_bar)/log(eta),
      alpha_tilde = min(alpha_bar, eta^p_bar * alpha_bar).
    The Hölder bound ||d||^(1+nu) <= c2^(1+nu) ||grad||^((1+beta)(1+nu))
    gives the c2 exponent, as in :func:`dealc_step_size`.  p_bar may be
    negative when c_bar > 1/eta; then every first trial is accepted, and
    alpha_tilde is alpha_bar, the largest step the search tries.  c_bar
    must be a positive finite double (see :func:`check_constant`).
    """
    if min(nu, sigma, eta, c1, c2, L, alpha_bar) <= 0.0:
        raise UsageError("all inputs must be positive")
    if nu > 1.0 or sigma >= 1.0 or eta >= 1.0:
        raise UsageError("need nu in (0,1], sigma in (0,1), eta in (0,1)")
    try:
        c_bar = ((1.0 + nu) * (1.0 - sigma) * c1
                 / (L * alpha_bar ** nu * c2 ** (1.0 + nu))) ** (1.0 / nu)
    except OverflowError:
        c_bar = math.nan
    check_constant("c_bar", c_bar, c1=c1, c2=c2, nu=nu, L=L, alpha_bar=alpha_bar)
    p_bar = 1.0 + math.log(c_bar) / math.log(eta)
    alpha_tilde = min(alpha_bar, eta ** p_bar * alpha_bar)
    return c_bar, p_bar, alpha_tilde


def run_dealc(objective: SmoothObjective, x0, config: DealConfig,
              observe=None) -> IterateTrace:
    """Constant-step generalized descent.

    Terminates when ||grad f(x^k)|| <= eps (checked before stepping) or at
    max_iter.  A non-finite value or gradient norm, at x0 or at a trial,
    ends the run ``nonfinite`` with a diagnostic in the trace extras instead
    of raising, and is not recorded.  ``observe``, when given, is called
    with each recorded iterate (see :func:`deal_loop`).
    """
    rule, trace = deal_trace(objective, config, "deal-c")
    return _descend(objective, x0, config, rule, trace, trace.extras["alpha"],
                    observe=observe)


def run_deala(objective: SmoothObjective, x0, config: DealConfig,
              observe=None) -> IterateTrace:
    """Backtracking generalized descent.

    Inner loop: starting from alpha_bar, shrink by eta until
    f(x + alpha d) <= f(x) + sigma alpha <grad f(x), d>; the accepted
    backtrack count p_k is logged per iteration.  Exceeding max_backtracks
    aborts with a diagnostic (possible only when the declared L is wrong).
    ``observe`` is as for :func:`run_dealc`.
    """
    rule, trace = deal_trace(objective, config, "deal-a")
    ap = config.armijo
    return _descend(objective, x0, config, rule, trace, ap.alpha_bar, ap, observe)


def _descend(objective: SmoothObjective, x0, config: DealConfig, rule: DirectionRule,
             trace: IterateTrace, alpha: float,
             armijo: Optional[ArmijoParams] = None, observe=None) -> IterateTrace:
    """Both step rules as the ``step`` hook of :func:`deal_loop`, DEAL on
    the objective itself, whose points are its ``value`` completed by its
    ``complete``.

    Each step takes the direction d that satisfies the sufficient-descent
    pair, pushes the point, generalizes d and offers the trial points x + t d,
    the first at ``alpha``.  Without ``armijo`` that is the one trial, with
    no bound, so it is always taken; with it, the step shrinks to eta^p
    alpha_bar until the Armijo test passes, and once p exceeds
    max_backtracks it records ``backtrack_limit``.  The backtracks that
    :func:`screened` rules out with the objective's ``line_values`` are not
    offered.
    """
    x = as_vector(x0, objective.dim, "x0")
    trials = [(0, alpha)]
    if armijo is not None:
        trials += [(p, armijo.eta ** p * armijo.alpha_bar)
                   for p in range(1, armijo.max_backtracks + 1)]

    def step(ev, gn):
        x, f, g = ev.x, ev.value, ev.gradient
        d_bar = rule.sufficient_base_direction(x, g, gn)
        rule.push(x, g)
        d = generalize(d_bar, g, rule.beta, gn)
        if armijo is None:
            offers = ((0, alpha, None),)
        else:
            slope = float(g @ d)
            line = None
            if objective.line_values is not None:
                def line(steps):
                    values, margins = objective.line_values(ev, d, steps)
                    # a trial point that is x, bit for bit, has value f exactly,
                    # with no margin, so the screen rules it out unevaluated;
                    # without this rule the traces stay bit-equal, but sec51's
                    # four deal-a variants make 1,120 exact values, not 984
                    unmoved = ((x + steps[:, None] * d).view(np.int64)
                               == x.view(np.int64)).all(axis=1)
                    return np.where(unmoved, f, values), np.where(unmoved, 0.0, margins)
            offers = screened(trials, lambda t: f + armijo.sigma * t * slope, line)
        for m, t, bound in offers:
            yield m, t, x + t * d, bound
        trace.extras["termination"] = "backtrack_limit"
        trace.extras["diagnostic"] = (
            f"no Armijo step within {len(trials) - 1} backtracks at "
            f"k={trace.k[-1]}; declared Hölder constant is likely too small")
    return deal_loop(x, config, rule, trace, value=objective.value,
                     complete=objective.complete, step=step, observe=observe)


# an overflowing trial ends the run or fails its test; numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
def deal_loop(x, config, rule: DirectionRule, trace: IterateTrace, *, value, complete,
              step, x_tol: Optional[float] = None, observe=None) -> IterateTrace:
    """The iteration loop of all four solvers, DEAL on a function phi given
    by hooks, filling ``trace``.

    Each point x is ``complete(value(x))``, a ``core.Evaluation`` that
    unpacks as (phi(x), grad phi(x), y), where y is the fallback point, None
    for the objective itself and the proximal point for an envelope.  Each
    step is ``step(ev, ||grad||)`` for the point's evaluation ``ev``: a
    generator that yields the step's trials in order as (m, t, z, bound),
    inner count m, step t and trial point z.  The loop values each z, and
    the first whose value ``value(z)`` is at most its bound (any value when
    the bound is None) is taken: ``complete`` adds its gradient in place to
    make it the next step's point, so phi is valued once per point.  The
    step chooses its direction, consults ``rule`` and pushes the point, so
    the loop only reads the rule's ``fallback_count``.  The generator runs
    up to the trial taken, and past its last trial only when none is taken:
    what it does there (records a termination, counts a fallback, yields
    one more point) happens only then.  A step that yields no trial taken
    ends the run with the termination it recorded.

    Each record goes into ``trace``'s columns, no record object being made:
    ``trace.append(k, phi(x), ||grad||)`` as the point is recorded, whose
    step fields stay (nan, 0, nan) on the record that ends the run, and
    its step, inner count m and displacement ||x_next - x|| set in place
    once its step completes.

    A gradient of None (a multi-valued proximal point) ends the run
    ``multivalued``, and a point whose value or gradient norm is not finite
    ends it ``nonfinite``, both before the point is recorded; so does a
    taken trial whose value is not finite, and the step to it is not
    recorded.  ``x_tol`` stops the run once ||x - y|| falls to it.  Once two
    consecutive steps leave ``x`` bitwise unchanged the rest of the run is
    replayed (see :func:`_replay_fixed_point`).  The extras count the
    direction rule's own fallbacks (``direction_fallbacks``), a replayed
    step's as it would be.

    ``observe(x)``, when given, is called with each record's iterate as the
    record is made, a replayed record's being the same array as its
    predecessor's; it is the only way to a run's iterates, which the records
    do not keep.  ``core.Reevaluation.add`` is such a hook, re-evaluating
    the iterates while the run proceeds: it submits each full block of them
    to its one-thread pool and returns, so the block is evaluated, under
    this loop's numpy error state, while the loop takes its next steps.
    The loop never writes into an iterate it has handed over, which that
    pool's thread may still be reading: the one at k=0 is ``x`` itself, and
    every later one is a trial point, an array of its own.
    """
    trial = value(x)
    unmoved = 0
    for k in range(config.max_iter + 1):
        ev = complete(trial)
        f, g, y = ev
        if g is None:
            trace.extras["termination"] = "multivalued"
            trace.extras["diagnostic"] = (
                f"multi-valued proximal point at k={k}; envelope gradient undefined")
            break
        what = "objective" if y is None else "envelope value"
        # sqrt(v . v) is np.linalg.norm(v) for a vector, bit for bit
        gn = math.sqrt(g @ g)
        if not (math.isfinite(f) and math.isfinite(gn)):
            trace.extras["termination"] = "nonfinite"
            trace.extras["diagnostic"] = f"non-finite {what} or gradient at k={k}"
            break
        trace.append(k, f, gn)
        if observe is not None:
            observe(x)
        if gn <= config.eps:
            trace.extras["termination"] = "tolerance"
            break
        if x_tol is not None:
            residual = x - y
            if math.sqrt(residual @ residual) <= x_tol:
                # proximal residual below the scaled tolerance; for orders below
                # 2 this can trigger while the envelope gradient is still above eps
                trace.extras["termination"] = "displacement"
                break
        if k == config.max_iter:
            trace.extras["termination"] = "max_iter"
            break
        before = rule.fallback_count
        for m, t, x_next, bound in step(ev, gn):
            trial = value(x_next)
            if bound is None or trial <= bound:
                break
        else:
            # no trial taken: the step recorded why the run ends
            break
        if not math.isfinite(trial):
            trace.extras["termination"] = "nonfinite"
            trace.extras["diagnostic"] = f"non-finite {what} at k={k + 1}"
            break
        dx = x_next - x
        displacement = math.sqrt(dx @ dx)
        trace.step[-1], trace.inner_count[-1] = t, m
        trace.displacement[-1] = displacement
        # an unmoved step has displacement 0.0, which a moved one can also
        # reach by underflow; bytes tell them apart, and -0.0 from 0.0
        moved = displacement != 0.0 or x_next.tobytes() != x.tobytes()
        unmoved = 0 if moved else unmoved + 1
        if unmoved == 2:
            _replay_fixed_point(trace, x, config.max_iter, observe)
            if rule.fallback_count > before:
                # each replayed step repeats this one, its fallback too
                rule.fallback_count += config.max_iter - 1 - k
            break
        x = x_next
    trace.extras["direction_fallbacks"] = rule.fallback_count
    return trace


def screened(trials, bound, line=None):
    """The step's trials (m, t) worth an exact value, in order, each yielded
    as (m, t, bound(t)).

    The first trial is offered unscreened.  Only when it fails, and a line
    oracle ``line(steps) -> (values, margins)`` is given, are the others
    screened at once: each ``values[i]`` lies within ``margins[i]`` of the
    exact value at ``steps[i]``, so a trial whose screened value exceeds its
    bound by more than its margin fails the exact test too, and is skipped.
    So the first trial offered that passes is the first trial that passes.
    """
    (m, t), rest = trials[0], trials[1:]
    yield m, t, bound(t)
    if rest and line is not None:
        steps = np.array([t for _, t in rest])
        values, margins = line(steps)
        # NaN compares False, so a non-finite screened value is never skipped
        far = (values > bound(steps) + margins).tolist()
        rest = [trial for trial, skip in zip(rest, far) if not skip]
    for m, t in rest:
        yield m, t, bound(t)


def _replay_fixed_point(trace: IterateTrace, x: np.ndarray, max_iter: int, observe):
    """Extend ``trace`` by records k + 1 .. max_iter, each a repeat of its
    last record k, whose iterate is ``x``.

    Called after two consecutive steps left x bitwise unchanged.  The oracles
    are deterministic, and ``DirectionRule.push`` of a repeated (x, g) adds no
    pair and keeps its previous point, so every later step would evaluate the
    same points, take the same step and stay put again: the run would end at
    ``max_iter`` with these records.  Each column is extended in one call:
    the replayed records repeat the last one's f, grad_norm, step and inner
    count with displacement 0, and the final one, appended alone, takes no
    step.  They share one iterate ``x``, made read-only and handed to
    ``observe`` once for each after the columns are extended, and
    ``fixed_point_at`` names the first of them.
    """
    x.flags.writeable = False
    k, f, grad_norm, step, inner_count = (getattr(trace, name)[-1]
                                          for name in TRACE_COLUMNS[:5])
    trace.extras["fixed_point_at"] = k + 1
    trace.k.extend(column("k", range(k + 1, max_iter)))
    for name, value in zip(TRACE_COLUMNS[1:], (f, grad_norm, step, inner_count, 0.0)):
        getattr(trace, name).extend(column(name, (value,)) * (max_iter - 1 - k))
    trace.append(max_iter, f, grad_norm)
    if observe is not None:
        for _ in range(max_iter - k):
            observe(x)
    trace.extras["termination"] = "max_iter"


def deal_trace(objective: SmoothObjective, config: DealConfig, solver: str) -> tuple:
    """``(rule, trace)`` of a ``solver`` run, "deal-c" or "deal-a": its
    direction rule, reset, and its empty trace, which carries the certified
    (rho, theta) and the constants its extras record.  A step, Armijo
    constant or rho that is not a positive finite double is refused here,
    so a variant's configuration refuses it before anything runs."""
    if objective.holder is None:
        raise CapabilityError(f"{solver} needs declared Hölder gradient metadata (nu, L)")
    nu, L = objective.holder.nu, objective.holder.L
    rule = config.rule if config.rule is not None else DirectionRule("gradient",
                                                                     beta=beta_for_holder(nu))
    rule.reset()
    if solver == "deal-c":
        alpha = dealc_step_size(rule.c1, rule.c2, nu, L)
        rho = check_constant("rho", rule.c1 * alpha * nu / (1.0 + nu),
                             c1=rule.c1, alpha=alpha, nu=nu)
        extras = {"alpha": alpha, "c": rule.c2 * alpha, "nu": nu, "L": L,
                  "c1": rule.c1, "c2": rule.c2, "beta": rule.beta}
    else:
        ap = config.armijo
        c_bar, p_bar, alpha_tilde = armijo_bound(nu, ap.sigma, ap.eta, rule.c1,
                                                 rule.c2, L, ap.alpha_bar)
        rho = check_constant("rho", ap.sigma * alpha_tilde * rule.c1,
                             sigma=ap.sigma, alpha_tilde=alpha_tilde, c1=rule.c1)
        extras = {"nu": nu, "L": L, "c1": rule.c1, "c2": rule.c2, "beta": rule.beta,
                  "sigma": ap.sigma, "eta": ap.eta, "alpha_bar": ap.alpha_bar,
                  "c": rule.c2 * ap.alpha_bar,
                  "c_bar": c_bar, "p_bar": p_bar, "alpha_tilde": alpha_tilde}
    extras.update(eps=config.eps, direction=rule.kind)
    return rule, IterateTrace(solver_id=solver, rho=rho, theta=rule.beta + 2.0,
                              guaranteed=is_guaranteed(rule, nu), extras=extras)


def is_guaranteed(rule: DirectionRule, nu: float) -> bool:
    """Whether a DEAL run with ``rule`` on a nu-Hölder gradient carries the
    paper's guarantee: its rescaling exponent is the one matched to nu."""
    return abs(rule.beta - beta_for_holder(nu)) <= 1e-12
