import math

import numpy as np
import pytest

from dealopt.core import DataError, UsageError
from dealopt.envelopes import prox_l1
from dealopt.oracles import (finite_diff_gradient, iterative_spectral_constants,
                             scalar_minimize, spectral_constants)
from dealopt.problems import LassoProblem, LeastPProblem, generate_problem


def test_fd_gradient_quadratic():
    g = finite_diff_gradient(lambda x: 0.5 * float(x @ x), np.array([1.0, 2.0]))
    assert np.allclose(g, [1.0, 2.0], atol=1e-8)


def test_fd_gradient_linear_exact():
    coef = np.array([3.0, -1.5, 0.25])
    g = finite_diff_gradient(lambda x: float(coef @ x), np.array([0.3, -2.0, 7.0]))
    assert np.allclose(g, coef, atol=1e-10)


def test_fd_kink_mask_flags_abs():
    _, kink = finite_diff_gradient(lambda x: abs(float(x[0])), np.array([0.0]),
                                   return_kink_mask=True)
    assert kink[0]
    _, kink = finite_diff_gradient(lambda x: abs(float(x[0])), np.array([2.0]),
                                   return_kink_mask=True)
    assert not kink[0]


def test_fd_nonfinite_probe_raises():
    with pytest.raises(DataError):
        finite_diff_gradient(lambda x: float("nan"), np.array([1.0]))


def one_row(lo, hi):
    """The one-row bracket [lo, hi] of ``scalar_minimize``."""
    return np.array([lo]), np.array([hi])


def row_candidates(res, i=0):
    """Row ``i``'s near-optimal basins as (point, value) pairs, best first."""
    kept = res.candidates[i]
    return list(zip(res.points[i][kept].tolist(), res.values[i][kept].tolist()))


def test_scalar_minimize_parabola():
    res = scalar_minimize(lambda T: (T - 3.0) ** 2, one_row(-10.0, 10.0))
    assert abs(res.argmin[0] - 3.0) < 1e-9
    assert not res.multi_valued[0]


def test_scalar_minimize_soft_threshold_case():
    # argmin |t| + (2-t)^2/2 is the soft threshold soft(2, 1) = 1
    res = scalar_minimize(lambda T: np.abs(T) + 0.5 * (2.0 - T) ** 2, one_row(-10.0, 10.0))
    assert abs(res.argmin[0] - 1.0) < 1e-8


def test_scalar_minimize_quartic_vs_dense_grid():
    h = lambda t: t ** 4 + (1.0 - t) ** 2
    res = scalar_minimize(h, one_row(-5.0, 5.0))
    grid = np.arange(-2.0, 2.0, 1e-5)
    gv = grid[np.argmin([h(t) for t in grid])]
    assert abs(res.argmin[0] - gv) < 1e-5
    assert abs(res.minval[0] - h(gv)) < 1e-6


def test_scalar_minimize_matches_soft_threshold_grid():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = float(rng.uniform(-4, 4))
        w = float(rng.uniform(0.05, 2.0))
        res = scalar_minimize(lambda T: w * np.abs(T) + 0.5 * (x - T) ** 2,
                              one_row(x - 10.0, x + 10.0))
        assert abs(res.argmin[0] - prox_l1(np.array([x]), w)[0]) < 1e-8


def test_scalar_minimize_detects_double_well():
    res = scalar_minimize(lambda T: (T * T - 1.0) ** 2, one_row(-3.0, 3.0))
    assert res.multi_valued[0]
    assert sorted(round(u, 6) for u, _ in row_candidates(res)) == [-1.0, 1.0]


def test_scalar_minimize_unbounded_raises():
    with pytest.raises(DataError):
        scalar_minimize(lambda T: -np.abs(T), one_row(-1.0, 1.0))


# exactly rounded operations only, so that an array and a float agree bit
# for bit
ROW_FUNCTIONS = [lambda t: (t - 3.0) * (t - 3.0), lambda t: (t * t - 1.0) * (t * t - 1.0),
                 lambda t: t * t * t * t - 3.0 * t * t + t, lambda t: abs(t + 0.5)]


def test_scalar_minimize_rows_are_the_one_row_calls():
    # one function per row, all at once: every row's result is its one-row
    # call's, bit for bit, although the rows refine for different lengths
    lo, hi = np.array([-10.0, -3.0, -5.0, -1.0]), np.array([10.0, 3.0, 4.0, 2.0])

    def rows(T):
        return np.stack([f(T[i]) for i, f in enumerate(ROW_FUNCTIONS)])
    res = scalar_minimize(rows, (lo, hi))
    for i, f in enumerate(ROW_FUNCTIONS):
        one = scalar_minimize(f, one_row(lo[i], hi[i]))
        assert (res.argmin[i], res.minval[i]) == (one.argmin[0], one.minval[0])
        assert row_candidates(res, i) == row_candidates(one)
    assert res.multi_valued.tolist() == [False, True, False, False]


def reference_scalar_minimize(g, lo, hi):
    """The oracle one basin and one evaluation at a time, as a loop: the
    reference of the batched implementation, whose arithmetic is the same."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    ts = np.linspace(lo, hi, 201)
    vals = [g(t) for t in ts.tolist()]
    basins = [i for i in range(201)
              if (i == 0 or vals[i] <= vals[i - 1]) and (i == 200 or vals[i] <= vals[i + 1])]
    basins.sort(key=lambda i: vals[i])
    refined = []
    for i in basins[:5]:
        a, b = ts[max(i - 1, 0)], ts[min(i + 1, 200)]
        tol = 1e-10 * (1.0 + abs(a) + abs(b))
        c, d = b - golden * (b - a), a + golden * (b - a)
        gc, gd = g(c), g(d)
        while b - a > tol:
            if gc < gd:
                b, d, gd = d, c, gc
                c = b - golden * (b - a)
                gc = g(c)
            else:
                a, c, gc = c, d, gd
                d = a + golden * (b - a)
                gd = g(d)
        u, v = (c, gc) if gc < gd else (d, gd)
        scale = 1.0 + abs(u)
        for delta in (1e-4 * scale, 1e-6 * scale):
            if u - delta < lo or u + delta > hi:
                continue
            gm, gp = g(u - delta), g(u + delta)
            denom = gm - 2.0 * v + gp
            if not (math.isfinite(denom) and denom > 0.0):
                continue
            cand = u + max(min(0.5 * delta * (gm - gp) / denom, delta), -delta)
            g_cand = g(cand)
            if g_cand <= v + 1e-12 * (1.0 + abs(v)):
                u, v = cand, g_cand
        refined.append((ts[i], vals[i]) if vals[i] < v else (u, v))
    best = min(v for _, v in refined)
    candidates = []
    for u, v in sorted(refined, key=lambda uv: uv[1]):
        if (v - best <= 1e-8 * max(1.0, abs(best))
                and all(abs(u - c) > 1e-6 * (1.0 + abs(u)) for c, _ in candidates)):
            candidates.append((float(u), float(v)))
    return candidates


@pytest.mark.parametrize("bracket", [(-10.0, 10.0), (-3.0, 3.0), (-1.0, 2.5)])
@pytest.mark.parametrize("f", ROW_FUNCTIONS + [lambda t: np.where(abs(t) <= 1e-3, 0.0, 1e9)])
def test_scalar_minimize_is_the_reference_loop(f, bracket):
    res = scalar_minimize(f, one_row(*bracket))
    candidates = reference_scalar_minimize(f, *bracket)
    assert row_candidates(res) == candidates
    assert (res.argmin[0], res.minval[0]) == candidates[0]


def test_scalar_minimize_refines_both_basins_of_a_tied_row_and_pads_the_slots():
    # row 0 is a double well, row 1 a parabola: two slots are refined, the
    # other three hold nan points and inf values in every row
    wells = np.array([[1.0], [0.0]])
    res = scalar_minimize(lambda T: wells * (T * T - 1.0) ** 2 + (1.0 - wells) * (T - 0.5) ** 2,
                          (np.array([-3.0, -3.0]), np.array([3.0, 3.0])))
    assert res.points.shape == res.values.shape == res.candidates.shape == (2, 5)
    assert sorted(res.points[0, :2].tolist()) == pytest.approx([-1.0, 1.0], abs=1e-8)
    assert res.candidates[0].tolist() == [True, True, False, False, False]
    assert res.multi_valued.tolist() == [True, False]
    assert np.isnan(res.points[0, 2:]).all() and np.isinf(res.values[0, 2:]).all()
    assert res.points[1, 0] == pytest.approx(0.5, abs=1e-8)
    assert np.isnan(res.points[1, 1:]).all() and np.isinf(res.values[1, 1:]).all()


def test_a_one_basin_call_returns_the_pinned_arrays():
    # the arrays of the version that refined all five slots of every row
    res = scalar_minimize(lambda T: np.exp(T) - np.array([[2.0], [3.0]]) * T,
                          (np.array([-1.0, 0.0]), np.array([2.0, 3.0])))
    argmin = [float.fromhex("0x1.62e42fefb7e3fp-1"), float.fromhex("0x1.193ea7aacb383p+0")]
    minval = [float.fromhex("0x1.3a37a020b8c22p-1"), float.fromhex("-0x1.2eefdc01c2478p-2")]
    pad = [math.nan] * 4
    assert res.argmin.tolist() == argmin and res.minval.tolist() == minval
    assert np.array_equal(res.points, [[argmin[0]] + pad, [argmin[1]] + pad], equal_nan=True)
    assert res.values.tolist() == [[minval[0]] + [math.inf] * 4, [minval[1]] + [math.inf] * 4]
    assert res.candidates.tolist() == [[True] + [False] * 4] * 2


def test_scalar_minimize_rows_reject_bad_brackets():
    with pytest.raises(UsageError):
        scalar_minimize(lambda T: T * T, (np.array([0.0, 1.0]), np.array([1.0, 1.0])))
    with pytest.raises(DataError):
        scalar_minimize(lambda T: -np.abs(T), (np.array([-1.0, 0.0]), np.array([1.0, 2.0])))


def test_spectral_identity_and_diagonal():
    spec = spectral_constants(np.eye(4))
    assert abs(spec.opnorm - 1.0) < 1e-9 and abs(spec.sigma_min - 1.0) < 1e-9
    A = np.zeros((3, 2))
    A[0, 0], A[1, 1] = 1.0, 2.0
    spec = spectral_constants(A)
    assert abs(spec.opnorm - 2.0) < 1e-9 and abs(spec.sigma_min - 1.0) < 1e-9


@pytest.mark.parametrize("shape", [(64, 32), (48, 48), (100, 24)])
def test_spectral_iterative_matches_svd(shape):
    rng = np.random.default_rng(hash(shape) % 2 ** 31)
    A = rng.standard_normal(shape)
    it = iterative_spectral_constants(A)
    sv = spectral_constants(A)
    assert abs(it.opnorm - sv.opnorm) < 1e-7 * sv.opnorm
    assert abs(it.sigma_min - sv.sigma_min) < 1e-6 * sv.opnorm


_BRACKET_SHAPES = {"tall-n10": (1000, 10), "tall-n100": (300, 100),
                   "wide": (30, 80)}


@pytest.mark.parametrize("name", ["sec51", *_BRACKET_SHAPES])
def test_declared_constants_bracket_the_truth(name):
    if name == "sec51":
        A = generate_problem(0, "leastp", 1000, 200, p=1.5, consistent=True).A
    else:
        A = np.random.default_rng(21).standard_normal(_BRACKET_SHAPES[name])
    s = np.linalg.svd(A, compute_uv=False)
    spec = spectral_constants(A)
    it = iterative_spectral_constants(A)
    assert spec.opnorm >= s[0] and spec.opnorm >= it.opnorm
    assert spec.sigma_min <= s[-1] and spec.sigma_min <= it.sigma_min
    assert spec.opnorm - s[0] <= 1e-12 * s[0]
    assert s[-1] - spec.sigma_min <= 1e-12 * s[-1]
    b = np.ones(A.shape[0])
    if A.shape[0] >= A.shape[1]:
        p = 1.5
        _, L, _, _ = LeastPProblem(A, b, p).constants()
        assert L >= 2.0 ** (2.0 - p) * s[0] ** p
    assert LassoProblem(A, b, lam=0.1).L >= s[0] ** 2


@pytest.mark.parametrize("A", [[[1, 2], [3]], [["a", 1], [2, 3]], {"a": 1}])
def test_spectral_refuses_a_matrix_that_is_not_numbers(A):
    with pytest.raises(DataError, match="^A is not a matrix of numbers: "):
        spectral_constants(A)


def test_spectral_large_gaussian_sane():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((400, 100))
    spec = spectral_constants(A)
    sv = np.linalg.svd(A, compute_uv=False)
    assert abs(spec.opnorm - sv[0]) < 1e-7 * sv[0]
    assert abs(spec.sigma_min - sv[-1]) < 1e-6 * sv[0]
