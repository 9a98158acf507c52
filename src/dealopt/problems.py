"""Concrete objective families with closed-form gradients and the smoothness /
gradient-dominance constants each family is known to satisfy.

Two data-driven families (least-p residual fitting and l1-regularized least
squares) plus two synthetic sanity families (separable powers of |x_i| and
quadratics).

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
from .core import (CompositeObjective, DataError, HolderInfo, KLInfo,
                   NumericalError, SmoothObjective, UsageError, as_vector)


class LeastPProblem:
    """f(x) = (1/p) ||A x - b||^p with p in (1, 2] and full-column-rank A.

    The gradient is ||r||^(p-2) A^T r for the residual r = A x - b, extended
    by 0 at r = 0 (the continuous limit; the formula's singular factor is
    never evaluated).  Spectral constants are computed once at construction.
    """

    kind = "leastp"

    def __init__(self, A, b, p, seed: Optional[int] = None, consistent: bool = False):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] < A.shape[1]:
            raise UsageError("A must be m x n with m >= n (full column rank)")
        if not 1.0 < p <= 2.0:
            raise UsageError(f"p must lie in (1, 2], got {p}")
        self.A = A
        self.b = as_vector(b, A.shape[0], "b")
        self.p = float(p)
        self.seed = seed
        self.consistent = consistent
        spec = oracles.spectral_constants(A)
        self.opnorm = spec.opnorm
        self.sigma_min = spec.sigma_min
        if self.sigma_min < 1e-10:
            raise NumericalError("A is numerically rank deficient")
        self.x_ls, *_ = np.linalg.lstsq(A, self.b, rcond=None)
        self.fstar = self.value(self.x_ls)

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    def value(self, x):
        r = self.A @ x - self.b
        return float(np.linalg.norm(r) ** self.p / self.p)

    def grad(self, x):
        r = self.A @ x - self.b
        nr = np.linalg.norm(r)
        if nr == 0.0:
            return np.zeros(self.n)
        return nr ** (self.p - 2.0) * (self.A.T @ r)

    def value_grad(self, x):
        r = self.A @ x - self.b
        nr = np.linalg.norm(r)
        if nr == 0.0:
            return 0.0, np.zeros(self.n)
        return float(nr ** self.p / self.p), nr ** (self.p - 2.0) * (self.A.T @ r)

    def value_grad_rows(self, X):
        """Values and gradients at the rows of ``X``: one product with A each way.

        Equals ``value_grad`` row by row up to rounding (the products are
        summed in another order); a zero-residual row gives exactly 0 and a
        zero gradient, as ``value_grad`` does.
        """
        R = X @ self.A.T - self.b
        nr = np.sqrt(np.einsum("ij,ij->i", R, R))
        zero = nr == 0.0
        G = (np.where(zero, 1.0, nr) ** (self.p - 2.0))[:, None] * (R @ self.A)
        G[zero] = 0.0
        return nr ** self.p / self.p, G

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
        nu, L, vartheta, tau = self.constants()
        return SmoothObjective(
            dim=self.n,
            value=self.value,
            grad=self.grad,
            value_grad=self.value_grad,
            holder=HolderInfo(nu=nu, L=L),
            kl=KLInfo(vartheta=vartheta, tau=tau),
            fstar=self.fstar,
            name=f"leastp(p={self.p}, m={self.m}, n={self.n})",
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


class LassoProblem:
    """phi(x) = 0.5 ||A x - b||^2 + lam ||x||_1."""

    kind = "lasso"

    def __init__(self, A, b, lam, seed: Optional[int] = None):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise UsageError("A must be a matrix")
        if not lam > 0.0:
            raise UsageError(f"lambda must be positive, got {lam}")
        self.A = A
        self.b = as_vector(b, A.shape[0], "b")
        self.lam = float(lam)
        self.seed = seed
        self.opnorm = oracles.spectral_constants(A).opnorm
        self.L = self.opnorm ** 2

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    def smooth_value(self, x):
        r = self.A @ x - self.b
        return float(0.5 * (r @ r))

    def smooth_grad(self, x):
        return self.A.T @ (self.A @ x - self.b)

    def hess_apply(self, x, v):
        # constant Hessian A^T A; x accepted for interface uniformity
        return self.A.T @ (self.A @ v)

    def value(self, x):
        return self.smooth_value(x) + self.lam * float(np.abs(x).sum())

    def fbe_rows(self, X, gamma):
        """Forward-backward envelope values and gradients at the rows of ``X``.

        Four products per block: R = X A^T - b, the smooth gradients R A,
        and the two of the Hessian term (X - T) A^T A of the gradient, where
        T is the row-wise soft threshold of X - gamma R A.  Equals
        ``envelopes.fbe_value_grad`` row by row up to rounding (the products
        are summed in another order).
        """
        R = X @ self.A.T - self.b
        G = R @ self.A
        T = envelopes.prox_l1(X - gamma * G, gamma * self.lam)
        D = T - X
        values = (0.5 * np.einsum("ij,ij->i", R, R) + np.einsum("ij,ij->i", G, D)
                  + np.einsum("ij,ij->i", D, D) / (2.0 * gamma)
                  + self.lam * np.abs(T).sum(axis=1))
        return values, (D @ self.A.T) @ self.A - D / gamma

    @functools.cached_property
    def _reference(self) -> "ReferenceOptimum":
        # solved on first use, not at construction: building a problem stays
        # cheap, and every variant run on this problem shares the one solve
        return _lasso_reference(self)

    def as_smooth(self) -> SmoothObjective:
        return SmoothObjective(
            dim=self.n,
            value=self.smooth_value,
            grad=self.smooth_grad,
            hess_apply=self.hess_apply,
            holder=HolderInfo(nu=1.0, L=self.L),
            name=f"lasso-smooth(m={self.m}, n={self.n})",
            constant_hessian=True,
        )

    def as_composite(self) -> CompositeObjective:
        return CompositeObjective(
            smooth=self.as_smooth(),
            nonsmooth=envelopes.L1Norm(self.lam),
            name=f"lasso(m={self.m}, n={self.n}, lam={self.lam})",
        )

    def descriptor(self) -> dict:
        return {
            "kind": self.kind, "m": self.m, "n": self.n, "lam": self.lam,
            "seed": self.seed, "opnorm": self.opnorm, "L": self.L,
        }


class PowerAbsProblem:
    """phi(x) = sum_i |x_i|^s with s > 1; tunable gradient-dominance exponent.

    The exponent is vartheta = 1 - 1/s.  A matching constant follows from the
    norm comparison between the s- and 2(s-1)-norms:
    tau = max(1, n^(1/2 - 1/s)) / s.
    """

    kind = "powerabs"

    def __init__(self, s, n=1):
        if not s > 1.0:
            raise UsageError(f"s must exceed 1, got {s}")
        self.s = float(s)
        self.n = int(n)

    def value(self, x):
        return float(np.sum(np.abs(x) ** self.s))

    def grad(self, x):
        return self.s * np.sign(x) * np.abs(x) ** (self.s - 1.0)

    def kl_info(self) -> KLInfo:
        vartheta = 1.0 - 1.0 / self.s
        tau = max(1.0, self.n ** (0.5 - 1.0 / self.s)) / self.s
        return KLInfo(vartheta=vartheta, tau=tau)

    def as_prox_capable(self):
        return envelopes.AbsPower(self.s)

    def as_smooth(self) -> SmoothObjective:
        if self.s < 2.0:
            raise UsageError("gradient is unbounded near kinks for s < 2")
        return SmoothObjective(
            dim=self.n, value=self.value, grad=self.grad,
            kl=self.kl_info(), fstar=0.0,
            name=f"powerabs(s={self.s}, n={self.n})",
        )

    def descriptor(self) -> dict:
        kl = self.kl_info()
        return {"kind": self.kind, "s": self.s, "n": self.n, "fstar": 0.0,
                "vartheta": kl.vartheta, "tau": kl.tau}


class QuadraticProblem:
    """f(x) = 0.5 x^T Q x + c^T x with symmetric positive semidefinite Q."""

    kind = "quadratic"

    def __init__(self, Q, c=None):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise UsageError("Q must be square")
        if not np.all(np.isfinite(Q)):
            raise DataError("Q contains non-finite entries")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise UsageError("Q must be symmetric")
        self.Q = Q
        self.n = Q.shape[0]
        self.c = np.zeros(self.n) if c is None else as_vector(c, self.n, "c")
        eig = np.linalg.eigvalsh(Q)
        if eig[0] < -1e-10:
            raise UsageError("Q must be positive semidefinite")
        self.lam_min = float(max(eig[0], 0.0))
        self.L = float(eig[-1])
        self.positive_definite = self.lam_min > 1e-12
        if self.positive_definite:
            self.xstar = np.linalg.solve(Q, -self.c)
        else:
            self.xstar = _attained_minimiser(Q, self.c, self.L)
        self.fstar = None if self.xstar is None else self.value(self.xstar)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ (self.Q @ x) + self.c @ x)

    def grad(self, x):
        return self.Q @ x + self.c

    def value_grad(self, x):
        Qx = self.Q @ x
        return float(0.5 * x @ Qx + self.c @ x), Qx + self.c

    def value_grad_rows(self, X):
        """Values and gradients at the rows of ``X`` (``Q`` is symmetric, so
        the rows of ``X Q`` are the products ``Q x``)."""
        QX = X @ self.Q
        return 0.5 * np.einsum("ij,ij->i", X, QX) + X @ self.c, QX + self.c

    def hess_apply(self, x, v):
        return self.Q @ v

    def as_smooth(self) -> SmoothObjective:
        kl = None
        if self.positive_definite:
            kl = KLInfo(vartheta=0.5, tau=1.0 / math.sqrt(2.0 * self.lam_min))
        return SmoothObjective(
            dim=self.n, value=self.value, grad=self.grad,
            value_grad=self.value_grad, hess_apply=self.hess_apply,
            holder=HolderInfo(nu=1.0, L=self.L) if self.L > 0 else None,
            kl=kl, fstar=self.fstar,
            name=f"quadratic(n={self.n})",
        )

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n, "L": self.L,
                "lam_min": self.lam_min, "fstar": self.fstar}


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
    kind = kind.lower()
    if kind == "powerabs":
        return PowerAbsProblem(s=s, n=max(n, 1))
    if kind == "quadratic":
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((max(m, n), n))
        Q = M.T @ M + np.eye(n)  # safely positive definite
        return QuadraticProblem(Q, rng.standard_normal(n))
    if kind not in ("leastp", "lasso"):
        raise UsageError(f"unknown problem kind {kind!r}")
    if m < n or n < 1:
        raise UsageError("need m >= n >= 1 for data-driven families")
    attempt = seed
    for _ in range(_MAX_REGEN):
        rng = np.random.default_rng(attempt)
        A = rng.standard_normal((m, n))
        if consistent:
            x_true = rng.standard_normal(n)
            b = A @ x_true
        else:
            b = rng.standard_normal(m)
        try:
            if kind == "leastp":
                return LeastPProblem(A, b, p, seed=attempt, consistent=consistent)
            return LassoProblem(A, b, lam, seed=attempt)
        except NumericalError:
            attempt += 1  # rank-deficient draw; shift seed and retry
    raise NumericalError(f"could not draw a full-rank {m}x{n} matrix after {_MAX_REGEN} tries")


@dataclass
class ReferenceOptimum:
    fstar: Optional[float]
    xstar: Optional[np.ndarray]
    converged: bool


def reference_optimum(problem) -> ReferenceOptimum:
    """High-confidence optimal value and minimiser for rate fits and certificates.

    Least-p and positive-definite quadratics have closed forms, and the
    separable powers attain 0 at the origin.  A singular quadratic takes the
    least-squares solution of Q x = -c when that solves the system to
    rounding; otherwise it is unbounded below and reported not converged.
    The lasso family runs a fixed-step forward-backward iteration once per
    problem (see ``_lasso_reference``); a run that hits the cap is flagged
    low-confidence rather than silently trusted.
    """
    if isinstance(problem, LeastPProblem):
        return ReferenceOptimum(problem.fstar, problem.x_ls.copy(), True)
    if isinstance(problem, PowerAbsProblem):
        return ReferenceOptimum(0.0, np.zeros(problem.n), True)
    if isinstance(problem, QuadraticProblem):
        if problem.xstar is None:
            return ReferenceOptimum(None, None, False)
        return ReferenceOptimum(problem.fstar, problem.xstar.copy(), True)
    if isinstance(problem, LassoProblem):
        ref = problem._reference
        return ReferenceOptimum(ref.fstar, ref.xstar.copy(), ref.converged)
    raise UsageError(f"no reference optimum rule for {type(problem).__name__}")


def _lasso_reference(problem: LassoProblem) -> ReferenceOptimum:
    """Fixed-step forward-backward iteration from 0 until the fixed-point
    residual is at most 1e-12 (1 + ||x||), for at most 10^6 steps."""
    gamma = 1.0 / problem.L
    x = np.zeros(problem.n)
    for _ in range(10 ** 6):
        x_next = envelopes.prox_l1(x - gamma * problem.smooth_grad(x), gamma * problem.lam)
        if np.linalg.norm(x_next - x) <= 1e-12 * (1.0 + np.linalg.norm(x)):
            return ReferenceOptimum(problem.value(x_next), x_next, True)
        x = x_next
    return ReferenceOptimum(problem.value(x), x, False)
