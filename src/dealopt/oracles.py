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
class RowsMinResult:
    """One minimization per row.  ``points`` and ``values`` hold each row's
    refined basins, best first (nan and inf where a row has fewer than
    ``_MULTI_START``), and ``candidates`` marks the near-optimal ones: those
    whose value ties the row's best within ``_TIE_TOL``, one per basin."""

    argmin: np.ndarray
    minval: np.ndarray
    points: np.ndarray
    values: np.ndarray
    candidates: np.ndarray

    @property
    def multi_valued(self) -> np.ndarray:
        return self.candidates.sum(axis=1) > 1


def scalar_minimize(g: Callable, bracket) -> RowsMinResult:
    """Grid pre-scan plus golden-section refinement of 1-D functions, one
    per row i over [lo[i], hi[i]] for a bracket of two 1-D arrays (lo, hi),
    all rows at once.

    ``g(T)`` takes a (rows, k) array and returns the value of row i's
    function at each entry of row i.  Each row scans the ``_GRID_POINTS``
    grid for its local minima (ties kept), refines the best ``_MULTI_START``
    by golden section over their cells and a parabolic polish, and reports
    the basins whose refined value ties its best within ``_TIE_TOL`` as
    candidates, so callers can detect multi-valued minimizers.  Each row
    takes the steps of a one-row run at the same points; the entries of a
    row that has finished refining, or has fewer basins than another row,
    are evaluated but not used.  Slots past the most basins of any row are
    not evaluated: they are padded with nan points and inf values, as an
    absent basin is, so every row has ``_MULTI_START`` slots.
    """
    lo, hi = (np.asarray(end, dtype=float) for end in bracket)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(hi > lo)):
        raise UsageError("invalid brackets")
    ts = np.linspace(lo, hi, _GRID_POINTS, axis=1)
    vals = g(ts)
    if not np.all(np.isfinite(vals)):
        raise DataError("non-finite values on scalar grid")
    if np.any((vals[:, 0] < vals[:, 1]) & (vals[:, -1] < vals[:, -2])):
        raise DataError("function decreases at both bracket ends; unbounded below?")
    # local grid minima (ties kept), best few refined independently; the
    # stable sort keeps equal values in grid order
    basin = np.ones(ts.shape, dtype=bool)
    basin[:, 1:] &= vals[:, 1:] <= vals[:, :-1]
    basin[:, :-1] &= vals[:, :-1] <= vals[:, 1:]
    best = np.argsort(np.where(basin, vals, np.inf), axis=1, kind="stable")[:, :_MULTI_START]
    valid = np.take_along_axis(basin, best, axis=1)
    # basins sort first, so the slots that some row fills are the first few
    slots = int(valid.sum(axis=1).max())
    best, valid = best[:, :slots], valid[:, :slots]
    # a row's grid minimum is always a basin: it stands in for absent ones
    i = np.where(valid, best, best[:, :1])
    a = np.take_along_axis(ts, np.maximum(i - 1, 0), axis=1)
    b = np.take_along_axis(ts, np.minimum(i + 1, _GRID_POINTS - 1), axis=1)
    u, v = _golden_section(g, a, b, _GOLDEN_TOL)
    u, v = _parabolic_polish(g, u, v, lo[:, None], hi[:, None])
    # refinement assumes the cell is unimodal; a discontinuous g can defeat
    # it, in which case the scanned grid point stands
    grid_u = np.take_along_axis(ts, i, axis=1)
    grid_v = np.take_along_axis(vals, i, axis=1)
    scanned = grid_v < v
    points = np.full((len(best), _MULTI_START), math.nan)
    values = np.full(points.shape, math.inf)
    points[:, :slots] = np.where(valid, np.where(scanned, grid_u, u), math.nan)
    values[:, :slots] = np.where(valid, np.where(scanned, grid_v, v), math.inf)
    order = np.argsort(values, axis=1, kind="stable")
    points = np.take_along_axis(points, order, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    tie = _TIE_TOL * np.maximum(1.0, np.abs(values[:, :1]))
    candidates = ~np.isnan(points) & (values - values[:, :1] <= tie)
    for j in range(1, _MULTI_START):
        # a basin within 1e-6 of an earlier candidate is the same minimizer
        for k in range(j):
            candidates[:, j] &= ~candidates[:, k] | (
                np.abs(points[:, j] - points[:, k]) > 1e-6 * (1.0 + np.abs(points[:, j])))
    return RowsMinResult(argmin=points[:, 0].copy(), minval=values[:, 0].copy(),
                         points=points, values=values, candidates=candidates)


def _golden_section(g, a, b, tol):
    """Golden section on every cell [a, b] (arrays of one shape) until each
    is ``tol`` of its size wide; one evaluation of g per round."""
    tol_abs = tol * (1.0 + np.abs(a) + np.abs(b))
    w = b - a
    c = b - _GOLDEN * w
    d = a + _GOLDEN * w
    gc, gd = g(c), g(d)
    live = w > tol_abs
    while live.any():
        # left: the minimum is in [a, d], whose new d is c; else in [c, b],
        # whose new c is d.  A finished cell computes the step and drops it.
        left = gc < gd
        a_next = np.where(left, a, c)
        b_next = np.where(left, d, b)
        w_next = b_next - a_next
        probe = np.where(left, b_next - _GOLDEN * w_next, a_next + _GOLDEN * w_next)
        g_probe = g(probe)
        c, d = (np.where(live, np.where(left, probe, d), c),
                np.where(live, np.where(left, c, probe), d))
        gc, gd = (np.where(live, np.where(left, g_probe, gd), gc),
                  np.where(live, np.where(left, gc, g_probe), gd))
        a = np.where(live, a_next, a)
        b = np.where(live, b_next, b)
        live &= w_next > tol_abs
    left = gc < gd
    return np.where(left, c, d), np.where(left, gc, gd)


# a non-finite probe only rejects the step; numpy need not warn
@np.errstate(invalid="ignore", over="ignore")
def _parabolic_polish(g, u, gu, lo, hi):
    """Sharpen golden-section argmins past the value-comparison noise floor.

    Golden section alone cannot resolve a smooth argmin below roughly
    sqrt(machine eps); two guarded parabolic-vertex steps recover about 10^-9.
    A kinked minimum rejects the polish (the vertex strictly worsens g).
    An entry whose probes would leave its bracket skips the step, and g is
    evaluated at the entry itself in their place.
    """
    scale = 1.0 + np.abs(u)
    for factor in (1e-4, 1e-6):
        delta = factor * scale
        um, up = u - delta, u + delta
        inside = (um >= lo) & (up <= hi)
        gm, gp = g(np.where(inside, um, u)), g(np.where(inside, up, u))
        denom = gm - 2.0 * gu + gp
        curved = inside & np.isfinite(denom) & (denom > 0.0)
        step = 0.5 * delta * (gm - gp) / np.where(curved, denom, 1.0)
        cand = np.where(curved, u + np.clip(step, -delta, delta), u)
        g_cand = g(cand)
        better = curved & (g_cand <= gu + 1e-12 * (1.0 + np.abs(gu)))
        u = np.where(better, cand, u)
        gu = np.where(better, g_cand, gu)
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
    bound: declared constants sit on the safe side.  An ``A`` numpy cannot
    read as numbers (a ragged list, say) is a ``DataError``.
    """
    try:
        A = np.asarray(A, dtype=float)
    except (ValueError, TypeError) as exc:
        raise DataError(f"A is not a matrix of numbers: {exc}") from None
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

