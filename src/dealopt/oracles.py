"""Spectral constants, and independent brute-force oracles kept separate from
the closed-form implementations they validate: finite differences, scalar
minimization, and power/inverse spectral iteration, the cross-check of the
outward-rounded SVD in ``spectral_constants``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DataError, NumericalError, UsageError

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)  # finite-difference step scale
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 201        # scalar pre-scan grid
_GOLDEN_TOL = 1e-10       # golden-section bracket width, relative
_TIE_TOL = 1e-8           # basins within this of the best are ties
_MULTI_START = 5          # grid basins refined per scalar minimization
_SPECTRAL_TOL = 1e-10     # power/inverse iteration eigenvalue change, relative
_SPECTRAL_MAX_ITER = 100000


def finite_diff_gradient(value: Callable[[np.ndarray], float], x,
                         return_kink_mask: bool = False):
    """Central-difference gradient with per-coordinate scaled steps.

    With ``return_kink_mask=True`` also returns a boolean mask of coordinates
    where the one-sided slopes disagree badly (a kink: the central estimate is
    meaningless there and callers should skip the probe).
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    kink = np.zeros(x.shape, dtype=bool)
    f0 = None
    for i in range(x.size):
        h = _CBRT_EPS * (1.0 + abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        fp, fm = value(xp), value(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise DataError(f"non-finite probe at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
        if return_kink_mask:
            if f0 is None:
                f0 = value(x)
            fwd = (fp - f0) / h
            bwd = (f0 - fm) / h
            kink[i] = abs(fwd - bwd) > 1e-2 * (1.0 + abs(grad[i]))
    if return_kink_mask:
        return grad, kink
    return grad


@dataclass
class ScalarMinResult:
    argmin: float
    minval: float
    candidates: list  # (argmin, value) per near-optimal basin

    @property
    def multi_valued(self) -> bool:
        return len(self.candidates) > 1


def scalar_minimize(g: Callable[[float], float], bracket) -> ScalarMinResult:
    """Grid pre-scan plus golden-section refinement of a 1-D function.

    Refines the best ``_MULTI_START`` grid basins; basins whose refined
    value ties the global best within ``_TIE_TOL`` are reported as candidates
    so callers can detect multi-valued minimizers.
    """
    lo, hi = float(min(bracket)), float(max(bracket))
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise UsageError(f"invalid bracket {bracket}")
    ts = np.linspace(lo, hi, _GRID_POINTS)
    vals = np.array([g(t) for t in ts], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DataError("non-finite values on scalar grid")
    if vals[0] < vals[1] and vals[-1] < vals[-2]:
        raise DataError("function decreases at both bracket ends; unbounded below?")
    # local grid minima (ties kept), best few refined independently
    basins = [i for i in range(len(ts))
              if (i == 0 or vals[i] <= vals[i - 1]) and (i == len(ts) - 1 or vals[i] <= vals[i + 1])]
    basins.sort(key=lambda i: vals[i])
    refined = []
    for i in basins[:_MULTI_START]:
        a = ts[max(i - 1, 0)]
        b = ts[min(i + 1, len(ts) - 1)]
        u, v = _golden_section(g, a, b, _GOLDEN_TOL)
        u, v = _parabolic_polish(g, u, v, lo, hi)
        if vals[i] < v:
            # refinement assumes the cell is unimodal; a discontinuous g can
            # defeat it, in which case the scanned grid point stands
            u, v = ts[i], vals[i]
        refined.append((u, v))
    best_u, best_v = min(refined, key=lambda uv: uv[1])
    tie = _TIE_TOL * max(1.0, abs(best_v))
    candidates = []
    for u, v in sorted(refined, key=lambda uv: uv[1]):
        if v - best_v <= tie and all(abs(u - c) > 1e-6 * (1.0 + abs(u)) for c, _ in candidates):
            candidates.append((u, v))
    return ScalarMinResult(argmin=best_u, minval=best_v, candidates=candidates)


def _golden_section(g, a, b, tol):
    tol_abs = tol * (1.0 + abs(a) + abs(b))
    h = b - a
    c = b - _GOLDEN * h
    d = a + _GOLDEN * h
    gc, gd = g(c), g(d)
    while h > tol_abs:
        if gc < gd:
            b, d, gd = d, c, gc
            h = b - a
            c = b - _GOLDEN * h
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            h = b - a
            d = a + _GOLDEN * h
            gd = g(d)
    u = c if gc < gd else d
    return u, g(u)


def _parabolic_polish(g, u, gu, lo, hi):
    """Sharpen a golden-section argmin past the value-comparison noise floor.

    Golden section alone cannot resolve a smooth argmin below roughly
    sqrt(machine eps); two guarded parabolic-vertex steps recover ~1e-9.
    A kinked minimum rejects the polish (the vertex strictly worsens g).
    """
    scale = 1.0 + abs(u)
    for delta in (1e-4 * scale, 1e-6 * scale):
        um, up = u - delta, u + delta
        if um < lo or up > hi:
            continue
        gm, gp = g(um), g(up)
        denom = gm - 2.0 * gu + gp
        if not (math.isfinite(denom) and denom > 0.0):
            continue
        step = 0.5 * delta * (gm - gp) / denom
        step = max(min(step, delta), -delta)
        cand = u + step
        gc = g(cand)
        if gc <= gu + 1e-12 * (1.0 + abs(gu)):
            u, gu = cand, gc
    return u, gu


@dataclass(frozen=True)
class SpectralConstants:
    opnorm: float
    sigma_min: float


def spectral_constants(A) -> SpectralConstants:
    """Largest and smallest singular values of A from one SVD, rounded outward.

    The computed values are exact for some A + E with ||E||_2 <= c eps ||A||_2,
    c a modest function of (m, n) (Golub & Van Loan, ch. 8), so padding by
    max(m, n) eps s_max makes ``opnorm`` an upper and ``sigma_min`` a lower
    bound: declared constants sit on the safe side.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0 or not np.all(np.isfinite(A)):
        raise DataError("A must be a finite, non-empty 2-D matrix")
    s = np.linalg.svd(A, compute_uv=False)
    pad = max(A.shape) * float(np.finfo(float).eps) * float(s[0])
    return SpectralConstants(opnorm=float(s[0]) + pad,
                             sigma_min=max(float(s[-1]) - pad, 0.0))


def iterative_spectral_constants(A) -> SpectralConstants:
    """Unrounded cross-check of ``spectral_constants`` by power and inverse
    iteration on the Gram matrix; its Rayleigh-quotient ``opnorm`` is <= ||A||."""
    A = np.asarray(A, dtype=float)
    B = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
    lam_max = _power_iteration(B)
    sig_min = math.sqrt(max(_inverse_iteration(B), 0.0))
    return SpectralConstants(opnorm=math.sqrt(lam_max), sigma_min=sig_min)


def _power_iteration(B):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(B.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_SPECTRAL_MAX_ITER):
        w = B @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(v @ (B @ v))
        if abs(lam_new - lam) <= _SPECTRAL_TOL * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    raise NumericalError("power iteration did not converge")


def _inverse_iteration(B):
    try:
        Lc = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Gram matrix is not positive definite (rank deficient?)") from exc
    rng = np.random.default_rng(1)
    v = rng.standard_normal(B.shape[0])
    v /= np.linalg.norm(v)
    lam = math.inf
    for _ in range(_SPECTRAL_MAX_ITER):
        w = _cho_solve(Lc, v)
        v = w / np.linalg.norm(w)
        lam_new = float(v @ (B @ v))
        if abs(lam_new - lam) <= _SPECTRAL_TOL * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    raise NumericalError("inverse iteration did not converge")


def _cho_solve(Lc, b):
    y = np.linalg.solve(Lc, b)
    return np.linalg.solve(Lc.T, y)

