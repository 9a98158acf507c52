"""Base descent directions (gradient, two Barzilai-Borwein scalings, limited
memory quasi-Newton) and their gradient-norm-power rescaling.

A base direction d_bar is "sufficient" for constants (c1, c2) when
    <grad, d_bar> <= -c1 ||grad||^2   and   ||d_bar|| <= c2 ||grad||.
The rescaled direction d = ||grad||^beta d_bar then satisfies the same pair
with exponents 2+beta and 1+beta.  Solvers that certify constants route
through :meth:`DirectionRule.sufficient_base_direction`, which falls back to
the negative gradient whenever the raw candidate violates the pair.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import UsageError, check_count

KINDS = ("gradient", "bb1", "bb2", "lbfgs")
# the interval a Barzilai-Borwein scaling is clamped into
ALPHA_MIN, ALPHA_MAX = 1e-8, 1e8


def beta_for_holder(nu: float) -> float:
    """The rescaling exponent (1 - nu)/nu matched to a nu-Hölder gradient."""
    if not 0.0 < nu <= 1.0:
        raise UsageError(f"nu must lie in (0, 1], got {nu}")
    return (1.0 - nu) / nu


@dataclass
class SufficientDescentCheck:
    passed: bool
    c1_measured: float
    c2_measured: float


def validate_sufficient_descent(d_bar, grad, c1: float, c2: float) -> SufficientDescentCheck:
    """Measure the tightest (c1, c2) a pair attains and compare to targets.

    c1_measured = -<grad, d_bar>/||grad||^2, c2_measured = ||d_bar||/||grad||;
    the pair passes when c1_measured >= c1 and c2_measured <= c2 (with a
    1e-12 relative guard so exact equality, e.g. d_bar = -grad with
    c1 = c2 = 1, passes).
    """
    grad = np.asarray(grad, dtype=float)
    d_bar = np.asarray(d_bar, dtype=float)
    gn2 = float(grad @ grad)
    if gn2 == 0.0:
        raise UsageError("sufficient-descent check is undefined at a zero gradient")
    c1_measured = -float(grad @ d_bar) / gn2
    c2_measured = float(np.linalg.norm(d_bar)) / math.sqrt(gn2)
    passed = (c1_measured >= c1 * (1.0 - 1e-12)
              and c2_measured <= c2 * (1.0 + 1e-12))
    return SufficientDescentCheck(passed, c1_measured, c2_measured)


def generalize(d_bar, grad, beta: float, grad_norm: Optional[float] = None) -> np.ndarray:
    """Rescale a base direction by ||grad||^beta (beta > -1).

    Rescaling changes only the length, never the orientation, so the sign of
    <grad, d> matches the sign of <grad, d_bar> for every admissible beta.
    ``grad_norm``, when the caller has it, is ||grad|| and is not recomputed.
    """
    if not beta > -1.0:
        raise UsageError(f"beta must exceed -1, got {beta}")
    d_bar = np.asarray(d_bar, dtype=float)
    if beta == 0.0:
        return d_bar.copy()
    gn = (float(np.linalg.norm(np.asarray(grad, dtype=float)))
          if grad_norm is None else grad_norm)
    if gn == 0.0:
        if beta < 0.0:
            raise UsageError("negative beta is undefined at a zero gradient")
        return np.zeros_like(d_bar)
    return gn ** beta * d_bar


class DirectionRule:
    """Stateful direction producer; one instance per solver run.

    Barzilai-Borwein scalings are clamped into [ALPHA_MIN, ALPHA_MAX] and fall
    back to the plain negative gradient when curvature <s, y> is nonpositive.
    History (previous point/gradient pairs) is fed by :meth:`push`.
    """

    def __init__(self, kind: str = "gradient", beta: float = 0.0,
                 c1: float = 1.0, c2: float = 1.0, memory: int = 10):
        kind = kind.lower()
        if kind not in KINDS:
            raise UsageError(f"unknown direction kind {kind!r}; expected one of {KINDS}")
        if not beta > -1.0:
            raise UsageError(f"beta must exceed -1, got {beta}")
        if not (c1 > 0.0 and c2 > 0.0):
            raise UsageError("c1 and c2 must be positive")
        if c1 > 1.0 or c2 < 1.0:
            # the negative-gradient fallback attains c1 = c2 = 1 exactly, so
            # enforceable constants must bracket it
            raise UsageError("need c1 <= 1 <= c2 so the gradient fallback satisfies them")
        check_count("memory", memory, 1)
        self.kind = kind
        self.beta = float(beta)
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.memory = int(memory)
        self.reset()

    def reset(self):
        self._prev_x = None
        self._prev_g = None
        self._pairs = deque(maxlen=self.memory)
        self.fallback_count = 0

    def push(self, x, grad):
        """Record the pair observed at the current iterate (call once per step).

        The gradient direction reads no history, so it keeps none; BB
        reads only the previous point and gradient (``_bb_scaling``), so it
        keeps those and forms no curvature pair, which L-BFGS alone reads.
        Each solver's step (the ``step`` hook of ``solvers.deal_loop``)
        takes the direction at x_k before it pushes (x_k, g_k), so the
        L-BFGS memory used at x_k holds up to k - 1 pairs and ends with
        (x_{k-1} - x_{k-2}, g_{k-1} - g_{k-2}): one pair behind Nocedal &
        Wright's Algorithm 7.5, and the directions at x_0 and x_1 are -g.
        The order is kept because it is measured: over sec53 seeds 0-39, pushing
        first (with BB reading the pair that ``push`` forms) leaves BPGA,
        BPGA-1, BPGA-BB1 and BPGA-BB2 bit-identical, but BPGA-LBFGS takes
        915 steps instead of 876, more on 26 seeds and fewer on none.
        """
        if self.kind == "gradient":
            return
        x = np.asarray(x, dtype=float).copy()
        g = np.asarray(grad, dtype=float).copy()
        if self.kind == "lbfgs" and self._prev_x is not None:
            s = x - self._prev_x
            y = g - self._prev_g
            sy = float(s @ y)
            if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
                self._pairs.append((s, y, sy))
        self._prev_x, self._prev_g = x, g

    def base_direction(self, x, grad, grad_norm: Optional[float] = None) -> np.ndarray:
        """Raw safeguarded direction; no sufficient-descent enforcement.
        ``grad_norm`` is ||grad|| when the caller has it."""
        grad = np.asarray(grad, dtype=float)
        if not (np.linalg.norm(grad) if grad_norm is None else grad_norm) > 0.0:
            raise UsageError("direction is undefined at a zero gradient")
        if self.kind == "gradient":
            return -grad
        if self.kind in ("bb1", "bb2"):
            t = self._bb_scaling(x, grad)
            if t is None:
                self.fallback_count += 1
                return -grad
            return -t * grad
        return self._lbfgs_direction(grad)

    def sufficient_base_direction(self, x, grad, grad_norm: Optional[float] = None):
        """Direction guaranteed to satisfy the (c1, c2) pair; a fallback to
        the negative gradient adds one to ``fallback_count``.
        ``grad_norm`` is ||grad|| when the caller has it."""
        d_bar = self.base_direction(x, grad, grad_norm)
        if self.kind == "gradient":
            return d_bar
        check = validate_sufficient_descent(d_bar, grad, self.c1, self.c2)
        if check.passed:
            return d_bar
        self.fallback_count += 1
        return -np.asarray(grad, dtype=float)

    def _bb_scaling(self, x, grad):
        if self._prev_x is None:
            return None
        s = np.asarray(x, dtype=float) - self._prev_x
        y = np.asarray(grad, dtype=float) - self._prev_g
        sy = float(s @ y)
        if sy <= 0.0:
            return None
        if self.kind == "bb1":
            t = float(s @ s) / sy
        else:
            yy = float(y @ y)
            if yy == 0.0:
                return None
            t = sy / yy
        return min(max(t, ALPHA_MIN), ALPHA_MAX)

    def _lbfgs_direction(self, grad):
        q = np.asarray(grad, dtype=float).copy()
        if not self._pairs:
            return -q
        alphas = []
        for s, y, sy in reversed(self._pairs):
            a = float(s @ q) / sy
            q -= a * y
            alphas.append(a)
        s, y, sy = self._pairs[-1]
        h0 = sy / float(y @ y)
        r = h0 * q
        for (s, y, sy), a in zip(self._pairs, reversed(alphas)):
            b = float(y @ r) / sy
            r += (a - b) * s
        return -r
