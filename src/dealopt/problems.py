"""Concrete objective families with closed-form gradients and the smoothness /
gradient-dominance constants each family is known to satisfy.

Two data-driven families (least-p residual fitting and l1-regularized least
squares) plus two synthetic sanity families (separable powers of |x_i| and
quadratics).  ``FAMILIES`` maps each kind to its class, which declares the
``solvers`` it accepts, how it is drawn (``generate``) and its ``reference``.

Constructors validate their data.  The oracles do not re-check ``x``: it is
validated once where it enters, by the solver entry points and the CLI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import envelopes, oracles
from .core import (CompositeObjective, DataError, Evaluation, HolderInfo, KLInfo,
                   NumericalError, SmoothObjective, UsageError, as_vector, check_count)


# The least-p line oracle's margin has the shape of a forward-error bound
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.5).
# The screened residual fl(A x - b) + t fl(A d) and the residual
# fl(A fl(x + t d) - b) that ``value`` forms differ by rounding that scales
# with || |A| (|x| + t|d|) + |b| ||, which S = ||A||_F (||x|| + t ||d||) + ||b||
# bounds; that moves ||r||^p / p by at most (||r|| + delta_r)^(p-1) delta_r.
# Each value also carries the rounding of its own norm, relative to ||r||^p.
# The worst-case constants, twice gamma_{n+3} and gamma_{m+5} (about 200 and
# 500 eps on sec51), are hundreds of times the rounding met in practice,
# which grows like the square root of a sum's length; with them sec51 seed 0
# would make 1,684 exact deal-a values instead of 984.  So the two constants
# are measured.  Over all 42,420 trials screened on the four deal-a variants
# of sec51 seeds 0 and 2, the difference from ``value`` was at most 0.056 of
# the margin (0.047 on seed 0): 18x headroom.  A larger error costs no
# safety, because every step taken passes the exact test; it could only skip
# a trial that the exact test passes.
LINE_RESIDUAL_MARGIN = 0.5      # delta_r = LINE_RESIDUAL_MARGIN eps S
LINE_VALUE_MARGIN = 64.0        # relative rounding of a value, in eps


class LeastPProblem:
    """f(x) = (1/p) ||A x - b||^p with p in (1, 2] and full-column-rank A.

    The gradient is ||r||^(p-2) A^T r for the residual r = A x - b, extended
    by 0 at r = 0 (the continuous limit; the formula's singular factor is
    never evaluated).  ``value`` keeps (r, ||r||), so ``complete`` and
    ``line_values`` make one product with A each, not two, and no second
    norm.  Spectral constants are computed once at construction.
    """

    kind = "leastp"
    solvers = ("deal-c", "deal-a")

    @classmethod
    def generate(cls, seed, m, n, *, p, consistent, **_):
        return _draw(seed, m, n, consistent,
                     lambda A, b, attempt: cls(A, b, p, seed=attempt, consistent=consistent))

    def __init__(self, A, b, p, seed: Optional[int] = None, consistent: bool = False):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] < A.shape[1]:
            raise UsageError("A must be m x n with m >= n (full column rank)")
        if not 1.0 < p <= 2.0:
            raise UsageError(f"p must lie in (1, 2], got {p}")
        self.A = A
        self.m, self.n = A.shape
        self.b = as_vector(b, self.m, "b")
        self.p = float(p)
        self.seed = seed
        self.consistent = consistent
        spec = oracles.spectral_constants(A)
        self.opnorm = spec.opnorm
        self.sigma_min = spec.sigma_min
        if self.sigma_min < 1e-10:
            raise NumericalError("A is numerically rank deficient")
        self.x_ls, *_ = np.linalg.lstsq(A, self.b, rcond=None)
        self.fstar = float(self.value(self.x_ls))
        # the norms the line oracle's margin reads
        self._frobenius = float(np.linalg.norm(A))
        self._b_norm = math.sqrt(self.b @ self.b)

    # ||r|| is sqrt(r . r), which is what np.linalg.norm computes for a
    # vector, bit for bit, without its wrapper
    def value(self, x):
        r = self.A @ x - self.b
        nr = math.sqrt(r @ r)
        return Evaluation(x, nr ** self.p / self.p, work=(r, nr))

    def complete(self, ev):
        r, nr = ev.work
        ev.gradient = nr ** (self.p - 2.0) * (self.A.T @ r) if nr else np.zeros(self.n)
        return ev

    def value_grad_rows(self, X):
        """Values and gradients at the rows of ``X``: one product with A each way.

        Equals ``complete(value(x))`` row by row up to rounding (the
        products are summed in another order); a zero-residual row gives
        exactly 0 and a zero gradient, as ``complete`` does.  The residuals
        are formed and the gradients scaled in place, and the residuals are
        dropped once the gradients are taken, so one (rows x m) array is
        alive at a time.
        """
        R = X @ self.A.T
        R -= self.b
        nr = np.sqrt(np.einsum("ij,ij->i", R, R))
        G = R @ self.A
        del R
        zero = nr == 0.0
        G *= (np.where(zero, 1.0, nr) ** (self.p - 2.0))[:, None]
        G[zero] = 0.0
        return nr ** self.p / self.p, G

    def line_values(self, ev, d, steps):
        """Screened values of the trials ``x + t d``, ``t`` in ``steps``, and
        their margins, for the point ``x`` of the evaluation ``ev``: one
        product with A in all.

        Along the line the residual is affine, r(t) = (A x - b) + t A d, so
        every trial's residual comes from ``ev``'s residual and A d, and its
        screened value is ||r(t)||^p / p.  That differs from ``value(x + t d)``
        by rounding alone; the margin bounds the difference (see
        LINE_RESIDUAL_MARGIN).
        """
        x = ev.x
        ad = self.A @ d
        W = ev.work[0] + steps[:, None] * ad
        norms = np.sqrt(np.einsum("ij,ij->i", W, W))
        eps = np.finfo(float).eps
        delta_r = LINE_RESIDUAL_MARGIN * eps * (
            self._frobenius * (math.sqrt(x @ x) + steps * math.sqrt(d @ d)) + self._b_norm)
        hi = norms + delta_r
        return (norms ** self.p / self.p,
                hi ** (self.p - 1.0) * delta_r + LINE_VALUE_MARGIN * eps * hi ** self.p)

    def constants(self):
        """(nu, L, vartheta, tau): gradient Hölder exponent/constant and the
        gradient-dominance exponent/constant this family satisfies.

        Always satisfies vartheta = nu / (1 + nu), the exponent-matching
        condition under which the constant-step and Armijo solvers converge
        linearly.
        """
        nu = self.p - 1.0
        L = 2.0 ** (2.0 - self.p) * self.opnorm ** self.p
        vartheta = 1.0 - 1.0 / self.p
        tau = 1.0 / (self.sigma_min * self.p ** (1.0 - 1.0 / self.p))
        return nu, L, vartheta, tau

    def as_smooth(self) -> SmoothObjective:
        nu, L, _, _ = self.constants()
        return SmoothObjective(
            dim=self.n,
            value=self.value,
            complete=self.complete,
            line_values=self.line_values,
            holder=HolderInfo(nu=nu, L=L),
        )

    def descriptor(self) -> dict:
        nu, L, vartheta, tau = self.constants()
        return {
            "kind": self.kind, "m": self.m, "n": self.n, "p": self.p,
            "seed": self.seed, "consistent": self.consistent,
            "opnorm": self.opnorm, "sigma_min": self.sigma_min,
            "fstar": self.fstar, "nu": nu, "L": L,
            "vartheta": vartheta, "tau": tau,
        }

    def reference(self) -> "ReferenceOptimum":
        # tau bounds (f - 0)^vartheta: it goes with fstar only when b is planted
        return ReferenceOptimum(self.fstar, self.x_ls.copy(), True,
                                self.constants()[3] if self.consistent else None)


class LassoProblem:
    """phi(x) = 0.5 ||A x - b||^2 + lam ||x||_1.

    The smooth part's oracles go through the normal-equation quantities
    G = A^T A, c = A^T b and ||b||^2 / 2, formed once at construction (the
    "covariance updates" of Friedman, Hastie & Tibshirani, J. Stat. Softw.
    33 (2010), section 2.2): the gradient is G x - c, the Hessian-apply G v
    and the value x.G x / 2 - c.x + ||b||^2 / 2, so each costs O(n^2)
    instead of one or two m x n products (generated instances have m >= n,
    so G is never larger than A); ``smooth_value`` keeps G x in its
    evaluation for ``smooth_complete``.  The value's rounding scales with
    ||b||^2 / 2 + |c.x| + x.G x / 2, not with f: near a consistent optimum
    its three terms cancel to f, and it carries a few eps of ||b||^2 in
    absolute terms.  ``fbe_rows``, which certificates use, keeps the
    residual form, so a certificate re-derives every envelope in arithmetic
    other than the solver's.
    """

    kind = "lasso"
    solvers = ("bpga",)

    @classmethod
    def generate(cls, seed, m, n, *, lam, consistent, **_):
        return _draw(seed, m, n, consistent,
                     lambda A, b, attempt: cls(A, b, lam, seed=attempt))

    def __init__(self, A, b, lam, seed: Optional[int] = None):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise UsageError("A must be a matrix")
        if not lam > 0.0:
            raise UsageError(f"lambda must be positive, got {lam}")
        self.A = A
        self.m, self.n = A.shape
        self.b = as_vector(b, self.m, "b")
        self.lam = float(lam)
        self.seed = seed
        self.opnorm = oracles.spectral_constants(A).opnorm
        self.L = self.opnorm ** 2
        self.G = A.T @ A
        self.c = A.T @ self.b
        self._half_bb = 0.5 * (self.b @ self.b)

    def smooth_value(self, x):
        Gx = self.G @ x
        return Evaluation(x, 0.5 * (x @ Gx) - self.c @ x + self._half_bb, work=Gx)

    def smooth_complete(self, ev):
        ev.gradient = ev.work - self.c
        return ev

    def hess_apply(self, x, v):
        # constant Hessian G; x accepted for interface uniformity
        return self.G @ v

    def value(self, x):
        return self.smooth_value(x) + self.lam * float(np.abs(x).sum())

    def fbe_rows(self, X, gamma):
        """Forward-backward envelope values and gradients at the rows of ``X``.

        Four products per block: R = X A^T - b, the smooth gradients R A,
        and the two of the Hessian term (X - T) A^T A of the gradient, where
        T is the row-wise soft threshold of X - gamma R A.  This is the
        residual form, not the Gram form of the per-point oracles, so it
        equals ``envelopes.fbe_value_grad`` row by row up to rounding alone
        and re-derives each envelope independently of the solver.  The
        residuals and the envelope gradients are formed in place.
        """
        R = X @ self.A.T
        R -= self.b
        G = R @ self.A
        T = envelopes.prox_l1(X - gamma * G, gamma * self.lam)
        D = T - X
        values = (0.5 * np.einsum("ij,ij->i", R, R) + np.einsum("ij,ij->i", G, D)
                  + np.einsum("ij,ij->i", D, D) / (2.0 * gamma)
                  + self.lam * np.abs(T).sum(axis=1))
        H = (D @ self.A.T) @ self.A
        H -= D / gamma
        return values, H

    @functools.cached_property
    def _reference(self) -> "ReferenceOptimum":
        # solved on first use, not at construction: building a problem stays
        # cheap, and every variant run on this problem shares the one solve
        return _lasso_reference(self)

    def reference(self) -> "ReferenceOptimum":
        ref = self._reference
        return ReferenceOptimum(ref.fstar, ref.xstar.copy(), ref.converged)

    def as_smooth(self) -> SmoothObjective:
        return SmoothObjective(
            dim=self.n,
            value=self.smooth_value,
            complete=self.smooth_complete,
            hess_apply=self.hess_apply,
            holder=HolderInfo(nu=1.0, L=self.L),
        )

    def as_composite(self) -> CompositeObjective:
        return CompositeObjective(
            smooth=self.as_smooth(),
            nonsmooth=envelopes.L1Norm(self.lam),
        )

    def descriptor(self) -> dict:
        return {
            "kind": self.kind, "m": self.m, "n": self.n, "lam": self.lam,
            "seed": self.seed, "opnorm": self.opnorm, "L": self.L,
        }


class PowerAbsProblem:
    """phi(x) = sum_i |x_i|^s with s > 1; tunable gradient-dominance exponent.

    The exponent is vartheta = 1 - 1/s, and the proximal order matched to it
    is s itself, declared exactly.  A matching constant follows from the
    norm comparison between the s- and 2(s-1)-norms:
    tau = max(1, n^(1/2 - 1/s)) / s.
    """

    kind = "powerabs"
    solvers = ("bhippa",)

    @classmethod
    def generate(cls, seed, m, n, *, s, **_):
        return cls(s=s, n=n)

    def __init__(self, s, n=1):
        if not s > 1.0:
            raise UsageError(f"s must exceed 1, got {s}")
        check_count("n", n, 1)
        self.s = float(s)
        self.n = int(n)

    def value(self, x):
        return float(np.sum(np.abs(x) ** self.s))

    def grad(self, x):
        return self.s * np.sign(x) * np.abs(x) ** (self.s - 1.0)

    def kl_info(self) -> KLInfo:
        vartheta = 1.0 - 1.0 / self.s
        tau = max(1.0, self.n ** (0.5 - 1.0 / self.s)) / self.s
        return KLInfo(vartheta=vartheta, tau=tau, order=self.s)

    def as_prox_capable(self):
        return envelopes.AbsPower(self.s)

    def descriptor(self) -> dict:
        kl = self.kl_info()
        return {"kind": self.kind, "s": self.s, "n": self.n, "fstar": 0.0,
                "vartheta": kl.vartheta, "tau": kl.tau}

    def reference(self) -> "ReferenceOptimum":
        # kl_info's tau is phi's, not its envelope's, which bhippa certifies
        return ReferenceOptimum(0.0, np.zeros(self.n), True)


class QuadraticProblem:
    """f(x) = 0.5 x^T Q x + c^T x with symmetric positive semidefinite Q."""

    kind = "quadratic"
    solvers = ("deal-c", "deal-a")

    @classmethod
    def generate(cls, seed, m, n, **_):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((max(m, n), n))
        return cls(M.T @ M + np.eye(n), rng.standard_normal(n))  # safely positive definite

    def __init__(self, Q, c=None):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise UsageError("Q must be square")
        if not np.all(np.isfinite(Q)):
            raise DataError("Q contains non-finite entries")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise UsageError("Q must be symmetric")
        # allclose passes a Q asymmetric within its tolerance: both oracles
        # take its symmetric part, and an exactly symmetric Q keeps its bits
        self.Q = Q = np.where(Q == Q.T, Q, 0.5 * Q + 0.5 * Q.T)
        self.n = Q.shape[0]
        self.c = np.zeros(self.n) if c is None else as_vector(c, self.n, "c")
        eig = np.linalg.eigvalsh(Q)
        if eig[0] < -1e-10:
            raise UsageError("Q must be positive semidefinite")
        self.lam_min = float(max(eig[0], 0.0))
        self.L = float(eig[-1])
        # positive definite: gradient dominance with exponent 1/2 and this tau
        self.tau = 1.0 / math.sqrt(2.0 * self.lam_min) if self.lam_min > 1e-12 else None
        if self.tau is not None:
            self.xstar = np.linalg.solve(Q, -self.c)
        else:
            self.xstar = _attained_minimiser(Q, self.c, self.L)
        self.fstar = None if self.xstar is None else float(self.value(self.xstar))

    def value(self, x):
        Qx = self.Q @ x
        return Evaluation(x, 0.5 * x @ Qx + self.c @ x, work=Qx)

    def complete(self, ev):
        ev.gradient = ev.work + self.c
        return ev

    def value_grad_rows(self, X):
        """Values and gradients at the rows of ``X`` (``Q`` is symmetric, so
        the rows of ``X Q`` are the products ``Q x``)."""
        QX = X @ self.Q
        return 0.5 * np.einsum("ij,ij->i", X, QX) + X @ self.c, QX + self.c

    def as_smooth(self) -> SmoothObjective:
        return SmoothObjective(
            dim=self.n, value=self.value, complete=self.complete,
            holder=HolderInfo(nu=1.0, L=self.L) if self.L > 0 else None,
        )

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n, "L": self.L,
                "lam_min": self.lam_min, "fstar": self.fstar}

    def reference(self) -> "ReferenceOptimum":
        if self.xstar is None:
            return ReferenceOptimum(None, None, False)
        return ReferenceOptimum(self.fstar, self.xstar.copy(), True, self.tau)


def _attained_minimiser(Q, c, L):
    """A minimiser of 0.5 x'Qx + c'x for singular PSD ``Q``, or None.

    The minimum is attained exactly when Q x = -c is solvable.  The
    least-squares solution is taken when its residual is within rounding,
    10 n eps (L ||x|| + ||c||); otherwise c has a component in the null
    space of Q and f is unbounded below along it.
    """
    x, *_ = np.linalg.lstsq(Q, -c, rcond=None)
    tol = 10.0 * len(c) * np.finfo(float).eps * (L * np.linalg.norm(x) + np.linalg.norm(c))
    return x if np.linalg.norm(Q @ x + c) <= tol else None


FAMILIES = {family.kind: family for family in
            (LeastPProblem, LassoProblem, PowerAbsProblem, QuadraticProblem)}

# draws of a data-driven family tried before generate_problem gives up
_MAX_REGEN = 5


def generate_problem(seed: int, kind: str, m: int = 0, n: int = 0, *,
                     p: float = 1.5, lam: float = 0.1, s: float = 4.0,
                     consistent: bool = False):
    """Seeded problem generator; entries are i.i.d. standard normal.

    ``consistent=True`` plants b = A x_true (so the least-p optimum is 0).
    A draw whose smallest singular value is below 1e-10 is regenerated with a
    shifted seed; the instance records the seed actually used.
    """
    family = FAMILIES.get(kind.lower())
    if family is None:
        raise UsageError(f"unknown problem kind {kind!r}")
    check_count("seed", seed, 0)
    check_count("n", n, 1)
    return family.generate(seed, m, n, p=p, lam=lam, s=s, consistent=consistent)


def _draw(seed, m, n, consistent, build):
    """``build(A, b, seed)`` on the first draw it accepts without NumericalError."""
    if m < n:
        raise UsageError("need m >= n >= 1 for data-driven families")
    attempt = seed
    for _ in range(_MAX_REGEN):
        rng = np.random.default_rng(attempt)
        A = rng.standard_normal((m, n))
        b = A @ rng.standard_normal(n) if consistent else rng.standard_normal(m)
        try:
            return build(A, b, attempt)
        except NumericalError:
            attempt += 1  # rank-deficient draw; shift seed and retry
    raise NumericalError(f"could not draw a full-rank {m}x{n} matrix after {_MAX_REGEN} tries")


@dataclass
class ReferenceOptimum:
    fstar: Optional[float]
    xstar: Optional[np.ndarray]
    converged: bool
    tau: Optional[float] = None     # the dominance constant valid with fstar, if known


def reference_optimum(problem) -> ReferenceOptimum:
    """High-confidence optimal value, minimiser and dominance constant for
    rate fits and certificates, from the problem's family.  One that did not
    converge (an unbounded quadratic, a capped lasso solve) is flagged so."""
    return problem.reference()


def _lasso_reference(problem: LassoProblem) -> ReferenceOptimum:
    """Fixed-step forward-backward iteration from 0 until the fixed-point
    residual is at most 1e-12 (1 + ||x||), for at most 10^6 steps."""
    gamma = 1.0 / problem.L
    x = np.zeros(problem.n)
    for _ in range(10 ** 6):
        # the smooth gradient G x - c, without an evaluation's value
        x_next = envelopes.prox_l1(x - gamma * (problem.G @ x - problem.c), gamma * problem.lam)
        if np.linalg.norm(x_next - x) <= 1e-12 * (1.0 + np.linalg.norm(x)):
            return ReferenceOptimum(problem.value(x_next), x_next, True)
        x = x_next
    return ReferenceOptimum(problem.value(x), x, False)
