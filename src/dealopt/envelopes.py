"""Proximal operators, high-order Moreau envelopes, and the forward-backward
envelope, with gradients suitable for driving the boosted solvers.

For a separable nonsmooth term the order-p envelope is built per coordinate
(each coordinate minimizes g(u) + |x_i - u|^p / (p gamma)), which coincides
with the Euclidean definition for p = 2 or in one dimension.  Minimizers come
from the term's own prox: ``L1Norm`` has a closed form for every order, and
``AbsPower`` (|t|^s, s > 1) has one at the matched order p = s and otherwise
solves the monotone optimality condition for all coordinates at once by
safeguarded Newton.  An arbitrary scalar term (``SeparableProx``) goes
through ``prox_home_separable``, a bracketed grid + golden-section oracle,
run for all coordinates at once, that surfaces near-ties between basins
through a ``multi_valued`` flag instead of assuming them away;
``prox_oracle_check`` uses the same oracle to cross-check a fast prox.
``fbe_value``, ``fbe_value_grad`` and ``forward_backward_map`` take a
validated 1-D float array, as the problem oracles do.  An evaluation is an
``EnvelopeEval``, the envelope value as a float that keeps its point and
proximal point: ``fbe_value`` and ``home_value`` are the one evaluation of
a point and return it without the gradient, ``fbe_complete`` and
``home_complete`` add the gradient in place, and the ``*_value_grad``
functions are the value plus that completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracles
from .core import (CapabilityError, CompositeObjective, DataError,
                   NumericalError, UsageError)


def prox_l1(x, w: float) -> np.ndarray:
    """Soft threshold: componentwise sign(x) * max(|x| - w, 0)."""
    if not w > 0.0:
        raise UsageError(f"threshold must be positive, got {w}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - w, 0.0)


@dataclass
class ProxResult:
    point: np.ndarray
    multi_valued: bool


class L1Norm:
    """w * ||x||_1 with a closed-form prox of every order.

    Per coordinate, argmin_u w|u| + |x - u|^p / (p gamma) is the soft
    threshold of x at (gamma w)^(1/(p-1)): where u is nonzero the optimality
    condition w = |x - u|^(p-1) / gamma fixes the distance |x - u|.
    """

    def __init__(self, weight: float):
        if not weight > 0.0:
            raise UsageError("l1 weight must be positive")
        self.weight = float(weight)

    def value(self, x):
        return self.weight * float(np.abs(np.asarray(x, dtype=float)).sum())

    def scalar(self, t):
        return self.weight * abs(t)

    def prox(self, x, gamma, p: float = 2.0):
        if not (p > 1.0 and gamma > 0.0):
            raise UsageError("need p > 1 and gamma > 0")
        return prox_l1(x, (gamma * self.weight) ** (1.0 / (p - 1.0)))


class AbsPower:
    """sum_i |x_i|^s with s > 1, with a vectorised order-p prox.

    The coordinate objective |u|^s + |x - u|^p / (p gamma) is strictly
    convex, so its minimizer is the unique root of the increasing function
    F(u) = s sign(u)|u|^(s-1) + sign(u - x)|u - x|^(p-1) / gamma, which lies
    between 0 and x.  ``_abs_power_root`` finds it for every coordinate at
    once, so the prox acts elementwise on an array of any shape.  At the
    matched order p = s the root has a closed form, ``_abs_power_matched``.
    """

    def __init__(self, s: float):
        if not s > 1.0:
            raise UsageError(f"exponent s must exceed 1, got {s}")
        self.s = float(s)

    def value(self, x):
        return float(np.sum(np.abs(np.asarray(x, dtype=float)) ** self.s))

    def scalar(self, t):
        return abs(t) ** self.s

    def prox(self, x, gamma, p: float = 2.0):
        if not (p > 1.0 and gamma > 0.0):
            raise UsageError("need p > 1 and gamma > 0")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a = np.abs(x).ravel()
        if p == self.s:
            root = _abs_power_matched(a, self.s, gamma)
        else:
            root = _abs_power_root(a, self.s, gamma, p)
        return np.sign(x) * root.reshape(x.shape)


def _abs_power_matched(a, s, gamma):
    """Root v in [0, a] of s v^(s-1) - (a - v)^(s-1) / gamma, per entry of a >= 0.

    At p = s the condition reads ((a - v) / v)^(s-1) = s gamma, so
    v = a / (1 + (s gamma)^(1/(s-1))).  As in ``_abs_power_root``, entries
    of a below the smallest normal float give 0 and non-finite ones nan, and
    a root at which s v^(s-1) overflows raises.
    """
    live = np.isfinite(a) & (a >= np.finfo(float).tiny)
    root = np.where(live, a / (1.0 + (s * gamma) ** (1.0 / (s - 1.0))),
                    np.where(np.isfinite(a), 0.0, math.nan))
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(s * root[live] ** (s - 1.0))
    if overflow.any():
        raise NumericalError(f"order-{s} prox of |t|^{s} overflows at |x| = "
                             f"{a[live][overflow].max():g}")
    return root


_ROOT_MAX_ITER = 200


def _abs_power_root(a, s, gamma, p):
    """Root v in [0, a] of s v^(s-1) - (a - v)^(p-1) / gamma, per entry of a >= 0.

    Newton steps are kept inside the sign bracket [lo, hi]; a step that
    leaves it, or that is not below half the step before last, is replaced by
    bisection (as in rtsafe, Numerical Recipes 9.4).  An entry stops when its
    residual is within rounding (of its two terms, and of v times F') or its
    bracket is a few ulps of a wide; never on a zero Newton step, which for
    s < 2 or p < 2 happens at v = 0 or v = a, where the curvature is
    infinite, far from the root.  Near those ends v F' stays within a
    constant of the residual's terms unless the root is a few ulps away.
    Entries of a below the smallest normal float give 0, non-finite ones nan;
    a residual that overflows to nan raises.
    """
    root = np.where(np.isfinite(a), 0.0, math.nan)
    live = np.flatnonzero(np.isfinite(a) & (a >= np.finfo(float).tiny))
    a = a[live]
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # at the root s v^(s-1) = (a - v)^(p-1) / gamma: putting a for a - v
        # bounds v above, putting a for v bounds a - v above.  The first bound
        # is close when the root is near 0, the second when it is near a.
        lo = np.maximum(a - (s * gamma * a ** (s - 1.0)) ** (1.0 / (p - 1.0)), 0.0)
        hi = np.minimum((a ** (p - 1.0) / (s * gamma)) ** (1.0 / (s - 1.0)), a)
        v = np.where(hi <= 0.5 * a, hi, np.where(lo >= 0.5 * a, lo, 0.5 * (lo + hi)))
        step = step_before = np.full_like(a, math.inf)
        for _ in range(_ROOT_MAX_ITER):
            if live.size == 0:
                return root
            r = a - v
            t_g, t_x = s * v ** (s - 1.0), r ** (p - 1.0) / gamma
            F = t_g - t_x
            if np.isnan(F).any():
                raise NumericalError(f"order-{p} prox of |t|^{s} overflows at |x| = "
                                     f"{a[np.isnan(F)].max():g}")
            dF = s * (s - 1.0) * v ** (s - 2.0) + (p - 1.0) * r ** (p - 2.0) / gamma
            below = F < 0.0
            lo = np.where(below, v, lo)
            hi = np.where(below, hi, v)
            # F is known to about eps times its terms and F' times ulp(v)
            done = ((np.abs(F) <= 4.0 * eps * (t_g + t_x + v * dF)) & np.isfinite(F)) \
                | (hi - lo <= 4.0 * eps * a)
            if done.any():
                root[live[done]] = v[done]
                keep = ~done
                live, a, lo, hi, step, step_before, v, F, dF = (
                    arr[keep] for arr in (live, a, lo, hi, step, step_before, v, F, dF))
            newton = F / dF
            trial = v - newton
            take = (trial > lo) & (trial < hi) & (np.abs(newton) <= 0.5 * step_before)
            step_before = step
            step = np.where(take, np.abs(newton), 0.5 * (hi - lo))
            v = np.where(take, trial, 0.5 * (lo + hi))
    raise NumericalError(f"order-{p} prox of |t|^{s} did not converge "
                         f"in {_ROOT_MAX_ITER} iterations")


class SeparableProx:
    """Prox-capable wrapper around a scalar component oracle g(t)."""

    def __init__(self, scalar_fn: Callable[[float], float]):
        self.scalar = scalar_fn

    def value(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(sum(self.scalar(t) for t in x))

    def prox(self, x, gamma, p: float = 2.0):
        return prox_home_separable(self.scalar, x, gamma, p).point

    def prox_detailed(self, x, gamma, p: float = 2.0) -> ProxResult:
        return prox_home_separable(self.scalar, x, gamma, p)


def prox_home_separable(g_scalar, x, gamma: float, p: float) -> ProxResult:
    """Order-p proximal point of a separable function, coordinate by coordinate.

    Each coordinate solves argmin_u g(u) + |x_i - u|^p / (p gamma) by a grid
    pre-scan plus golden-section refinement over an adaptively expanded
    bracket.  When two basins tie within 1e-8 in objective the smaller-|u|
    minimizer is returned and the result is flagged multi-valued.
    ``g_scalar`` takes one float at a time.
    """
    return _prox_separable(_scalar_objective(g_scalar, gamma, p), x, gamma, p)


def _scalar_objective(g_scalar, gamma, p):
    """The prox objectives of a scalar g in the form ``_prox_separable``
    takes, computed entry by entry."""
    def h(x, U):
        X = np.broadcast_to(x[:, None], U.shape)
        return np.array([g_scalar(u) + abs(xi - u) ** p / (p * gamma)
                         for xi, u in zip(X.ravel().tolist(), U.ravel().tolist())],
                        dtype=float).reshape(U.shape)
    return h


def _prox_separable(h, x, gamma: float, p: float) -> ProxResult:
    """``prox_home_separable`` given the prox objectives ``h(x, U)``: for a
    (n, k) array U, coordinate i's objective at each entry of row i.  Every
    coordinate's bracket and minimization run at once, as the rows of one
    ``oracles.scalar_minimize`` call."""
    if not (p > 1.0 and gamma > 0.0):
        raise UsageError("need p > 1 and gamma > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def rows(U):
        return h(x, U)

    res = oracles.scalar_minimize(rows, _expand_brackets(rows, x))
    point = res.argmin
    multi = res.multi_valued
    if multi.any():
        # of tied minimizers, the first of smallest |u|
        nearest = np.argmin(np.where(res.candidates, np.abs(res.points), np.inf), axis=1)
        point[multi] = res.points[multi, nearest[multi]]
    return ProxResult(point=point, multi_valued=bool(multi.any()))


PROX_ORACLE_REL_TOL = 1e-12


def prox_oracle_check(g, x, gamma: float, p: float) -> dict:
    """Cross-check g's own order-p prox at x against the grid oracle.

    Passes when, in every coordinate, the objective
    g(u) + |x_i - u|^p / (p gamma) at g's point is at most the oracle's plus
    PROX_ORACLE_REL_TOL * max(1, |oracle objective|).  Objectives, not
    points, are compared: the oracle cannot locate a flat minimum (|t|^4
    near 0) to better than about 1e-6, while its objective is exact to
    rounding there.  ``max_point_diff`` is reported for information.  The
    scalar of ``AbsPower`` and ``L1Norm`` acts on arrays, so their objectives
    are evaluated array by array; any other term's entry by entry.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    fast = np.atleast_1d(g.prox(x, gamma, p))
    if isinstance(g, (AbsPower, L1Norm)):
        def h(x, U):
            return g.scalar(U) + np.abs(x[:, None] - U) ** p / (p * gamma)
    else:
        h = _scalar_objective(g.scalar, gamma, p)
    ref = _prox_separable(h, x, gamma, p).point
    h_ref = h(x, ref[:, None])[:, 0]
    excess = (h(x, fast[:, None])[:, 0] - h_ref) / np.maximum(1.0, np.abs(h_ref))
    worst = float(excess.max())
    return {"passed": bool(worst <= PROX_ORACLE_REL_TOL), "worst_excess": worst,
            "max_point_diff": float(np.abs(fast - ref).max())}


# bracket half-width past which a prox objective is taken to be unbounded below
_BRACKET_LIMIT = 1e6


def _expand_brackets(h, centers):
    """Per coordinate c, the first [c - r, c + r] with r = (1 + 2|c|) 4^k at
    whose edges ``h`` (the rows form of ``_prox_separable``) rises, so that
    the minimizer is inside; as (lo, hi) arrays."""
    c = centers[:, None]
    r = 1.0 + 2.0 * np.abs(c)
    pending = np.ones(c.shape, dtype=bool)
    while True:
        if (r[pending] > _BRACKET_LIMIT).any():
            raise DataError("objective keeps decreasing out to +/-1e6; unbounded below?")
        inner = 0.5 * r
        lo, mid_lo, hi, mid_hi = np.hsplit(h(np.hstack([c - r, c - inner, c + r, c + inner])), 4)
        pending &= ~((lo >= mid_lo) & (hi >= mid_hi))
        if not pending.any():
            return (c - r)[:, 0], (c + r)[:, 0]
        r = np.where(pending, 4.0 * r, r)


class EnvelopeEval(float):
    """An envelope value, as the float it is, that keeps the point ``x``,
    its proximal point, the ``multi_valued`` flag and, once completed, the
    ``gradient`` (None before, and always at a multi-valued point).  It
    unpacks as (value, gradient, prox_point), a point of ``deal_loop``."""

    __slots__ = ("x", "prox_point", "gradient", "multi_valued")

    def __new__(cls, x, prox_point, value, gradient, multi_valued=False):
        ev = super().__new__(cls, value)
        ev.x, ev.prox_point, ev.gradient, ev.multi_valued = x, prox_point, gradient, multi_valued
        return ev

    @property
    def value(self) -> float:
        return float(self)

    @property
    def grad_norm(self) -> float:
        if self.gradient is None:
            return math.nan
        # sqrt(g . g) is np.linalg.norm(g) for a vector, bit for bit
        return math.sqrt(self.gradient @ self.gradient)

    def __iter__(self):
        return iter((float(self), self.gradient, self.prox_point))

    def __reduce__(self):
        # copy and pickle rebuild it through __new__, which float's own
        # reduction would call with the value alone
        return EnvelopeEval, (self.x, self.prox_point, float(self), self.gradient,
                              self.multi_valued)


def home_value_grad(g, x, gamma: float, p: float = 2.0) -> EnvelopeEval:
    """Order-p Moreau envelope value and gradient of a prox-capable g:
    ``home_value`` completed by ``home_complete``.

    The gradient is |x - y|^(p-2) (x - y) / gamma applied per coordinate for
    the separable construction (the Euclidean formula when p = 2).  At a
    coordinate flagged multi-valued the envelope is not differentiable; the
    value is still returned but the gradient is refused (None).
    """
    return home_complete(home_value(g, x, gamma, p), gamma, p)


def home_complete(ev: EnvelopeEval, gamma: float, p: float = 2.0) -> EnvelopeEval:
    """Adds the envelope gradient to an evaluation without one, in closed form
    from its point and proximal point; a multi-valued one keeps None."""
    if not ev.multi_valued:
        ev.gradient = _home_gradient(ev.x - ev.prox_point, gamma, p)
    return ev


def home_rows(g, X, gamma: float, p: float = 2.0):
    """Envelope values and gradients at the rows of ``X`` from one prox solve,
    for a term whose ``prox`` and ``scalar`` act elementwise (``AbsPower``).
    Each row's sums are the per-point ones, so rows agree with ``home_value_grad``."""
    Y = g.prox(X, gamma, p)
    D = X - Y
    values = g.scalar(Y).sum(axis=1) + [_penalty(d, gamma, p) for d in D]
    return values, _home_gradient(D, gamma, p)


def _home_gradient(d, gamma, p):
    if p == 2.0:
        return d / gamma
    grad = np.abs(d) ** (p - 2.0) * d / gamma
    grad[d == 0.0] = 0.0
    return grad


def home_value(g, x, gamma: float, p: float = 2.0) -> EnvelopeEval:
    """Order-p proximal point and envelope value at x, without the gradient:
    one prox solve.  ``home_complete(value, gamma, p)`` then adds the
    gradient without a second one."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # a closed-form prox is single-valued; only SeparableProx's can tie
    res = (g.prox_detailed(x, gamma, p) if hasattr(g, "prox_detailed")
           else ProxResult(np.asarray(g.prox(x, gamma, p), dtype=float), False))
    y = np.atleast_1d(res.point)
    value = float(g.value(y) + _penalty(x - y, gamma, p))
    return EnvelopeEval(x=x, prox_point=y, value=value, gradient=None,
                        multi_valued=res.multi_valued)


def _penalty(d, gamma, p):
    if p == 2.0:
        return float(d @ d) / (2.0 * gamma)
    # separable construction: per-coordinate p-th powers
    return float(np.sum(np.abs(d) ** p)) / (p * gamma)


def forward_backward_map(problem: CompositeObjective, x, gamma: float) -> np.ndarray:
    """Gradient step on the smooth part followed by the order-2 prox of the rest."""
    _check_gamma(problem, gamma)
    return _forward_backward(problem, x, problem.smooth.grad(x), gamma)


def fbe_value_grad(problem: CompositeObjective, x, gamma: float) -> EnvelopeEval:
    """Forward-backward envelope value and gradient: ``fbe_value`` completed
    by ``fbe_complete``.

    value  = f(x) + <grad f(x), T - x> + ||T - x||^2 / (2 gamma) + g(T)
    grad   = (I - gamma H(x)) (x - T) / gamma        (one Hessian-apply)

    where T is the forward-backward point.  Requires a Hessian-apply oracle.
    """
    if problem.smooth.hess_apply is None:
        raise CapabilityError("forward-backward envelope gradient needs a Hessian-apply oracle")
    return fbe_complete(problem, fbe_value(problem, x, gamma), gamma)


def fbe_complete(problem: CompositeObjective, ev: EnvelopeEval, gamma: float) -> EnvelopeEval:
    """Adds the envelope gradient to an evaluation without one: one Hessian-apply."""
    xmT = ev.x - ev.prox_point
    ev.gradient = xmT / gamma - problem.smooth.hess_apply(ev.x, xmT)
    return ev


def fbe_value(problem: CompositeObjective, x, gamma: float) -> EnvelopeEval:
    """Forward-backward point T and envelope value at x, without the gradient:
    one call of the smooth part, its fused ``value_grad`` when it has one.
    ``fbe_complete(problem, value, gamma)`` then adds the gradient without a
    second forward-backward step."""
    _check_gamma(problem, gamma)
    f, gf = problem.smooth.value_and_grad(x)
    T = _forward_backward(problem, x, gf, gamma)
    d = T - x
    value = float(f + gf @ d + (d @ d) / (2.0 * gamma) + problem.nonsmooth.value(T))
    return EnvelopeEval(x=x, prox_point=T, value=value, gradient=None)


def _forward_backward(problem: CompositeObjective, x, gf, gamma: float) -> np.ndarray:
    """The forward-backward point T from x and grad f(x)."""
    T = problem.nonsmooth.prox(x - gamma * gf, gamma, 2.0)
    return np.atleast_1d(np.asarray(T, dtype=float))


def _check_gamma(problem: CompositeObjective, gamma: float) -> float:
    """The smooth part's Lipschitz constant L, once gamma is checked in (0, 1/L)."""
    holder = problem.smooth.holder
    if holder is None or holder.nu != 1.0:
        raise CapabilityError("forward-backward map needs a Lipschitz-gradient smooth part")
    if not 0.0 < gamma < 1.0 / holder.L:
        raise UsageError(f"gamma must lie in (0, 1/L) = (0, {1.0 / holder.L:g}), got {gamma}")
    return holder.L
