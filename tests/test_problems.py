import copy

import numpy as np
import pytest

from dealopt.bench import build_problem, preset
from dealopt.core import REEVALUATE_BLOCK, DataError, UsageError
from dealopt.envelopes import prox_l1
from dealopt.oracles import finite_diff_gradient, iterative_spectral_constants
from dealopt.problems import (FAMILIES, LassoProblem, LeastPProblem, PowerAbsProblem,
                              QuadraticProblem, generate_problem, reference_optimum)


def evaluated(problem, x):
    """The completed evaluation of ``problem`` at ``x``: its value and gradient."""
    return problem.complete(problem.value(np.asarray(x, dtype=float)))


def grad(problem, x):
    return evaluated(problem, x).gradient


def assert_rows_match_points(problem, X):
    """value_grad_rows(X) agrees with the completed evaluation at every row
    of X to within 16 eps relative: the batch products round in another
    order."""
    eps = np.finfo(float).eps
    f, G = problem.value_grad_rows(X)
    assert f.shape == (len(X),) and G.shape == X.shape
    for x, f_row, g_row in zip(X, f, G):
        f_pt, g_pt, _ = evaluated(problem, x)
        assert abs(f_row - f_pt) <= 16 * eps * max(1.0, abs(f_pt))
        assert (np.linalg.norm(g_row - g_pt)
                <= 16 * eps * max(1.0, np.linalg.norm(g_pt)))


def smooth_grad(problem, x):
    """The gradient of lasso's smooth part at ``x``."""
    return problem.smooth_complete(problem.smooth_value(np.asarray(x, dtype=float))).gradient


def uniform_rows(n, seed=0, count=700):
    return np.random.default_rng(seed).uniform(-5.0, 5.0, size=(count, n))


class TestLeastP:
    def test_value_grad_identity_p2(self):
        prob = LeastPProblem(np.eye(2), np.zeros(2), p=2.0)
        assert prob.value([1.0, 2.0]) == pytest.approx(2.5)
        assert grad(prob, [1.0, 2.0]) == pytest.approx([1.0, 2.0])

    def test_value_grad_p15_hand(self):
        prob = LeastPProblem(np.eye(2), np.zeros(2), p=1.5)
        assert prob.value([4.0, 0.0]) == pytest.approx(16.0 / 3.0)
        assert grad(prob, [4.0, 0.0]) == pytest.approx([2.0, 0.0])

    def test_zero_residual_gradient(self):
        prob = LeastPProblem(np.eye(2), np.array([1.0, 2.0]), p=1.7)
        assert prob.value([1.0, 2.0]) == 0.0
        assert grad(prob, [1.0, 2.0]) == pytest.approx([0.0, 0.0])

    def test_fused_value_grad_is_value_and_grad_bit_for_bit(self):
        # a value keeps its residual, and completing it leaves the value as
        # it was and gives the gradient of a fresh evaluation, bit for bit
        prob = generate_problem(5, "leastp", 30, 6, p=1.5, consistent=False)
        x = np.random.default_rng(0).uniform(-5, 5, 6)
        exact = LeastPProblem(np.eye(2), np.array([1.0, 2.0]), p=1.7)
        for problem, point in ((prob, x), (exact, np.array([1.0, 2.0]))):
            ev = problem.value(point)
            value = ev.value
            assert ev.x is point and ev.gradient is None
            assert np.array_equal(ev.work, problem.A @ point - problem.b)
            assert problem.complete(ev) is ev and ev.value == value
            fresh = evaluated(problem, point)
            assert fresh.value == value and np.array_equal(ev.gradient, fresh.gradient)

    @pytest.mark.parametrize("make", [
        lambda: build_problem(preset("sec51", 0).problem),
        lambda: generate_problem(1, "leastp", 40, 8, p=1.5, consistent=True),
    ], ids=["sec51", "40x8"])
    def test_rows_match_value_grad(self, make):
        prob = make()
        assert_rows_match_points(prob, uniform_rows(prob.n))

    def test_rows_give_zero_residual_rows_exactly(self):
        b = np.array([1.0, -2.0, 0.5])
        prob = LeastPProblem(np.eye(3), b, p=1.5)
        X = np.vstack([uniform_rows(3, count=3), b, uniform_rows(3, seed=1, count=2)])
        f, G = prob.value_grad_rows(X)
        assert f[3] == 0.0 and np.array_equal(G[3], np.zeros(3))
        value, gradient, _ = evaluated(prob, b)
        assert (value, gradient.tolist()) == (0.0, [0.0, 0.0, 0.0])
        assert np.all(f[[0, 1, 2, 4, 5]] > 0.0)
        assert_rows_match_points(prob, X)

    def test_constants_p2_identity(self):
        nu, L, vt, tau = LeastPProblem(np.eye(3), np.zeros(3), p=2.0).constants()
        assert (nu, vt) == (1.0, 0.5)
        assert 1.0 <= L <= 1.0 + 1e-14
        assert tau == pytest.approx(0.7071067811865476)

    def test_constants_p15_identity(self):
        nu, L, vt, tau = LeastPProblem(np.eye(3), np.zeros(3), p=1.5).constants()
        assert nu == pytest.approx(0.5)
        assert L == pytest.approx(2.0 ** 0.5)
        assert vt == pytest.approx(1.0 / 3.0)
        assert tau == pytest.approx(1.0 / 1.5 ** (1.0 / 3.0))
        assert tau == pytest.approx(0.87358, abs=1e-5)

    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9, 2.0])
    def test_exponent_matching_identity(self, p):
        nu, _, vt, _ = LeastPProblem(np.eye(2), np.zeros(2), p=p).constants()
        assert vt == pytest.approx(nu / (1.0 + nu))

    def test_gradient_matches_finite_differences(self):
        prob = generate_problem(5, "leastp", 30, 6, p=1.5, consistent=True)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(-5, 5, 6)
            fd = finite_diff_gradient(prob.value, x)
            g = grad(prob, x)
            assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_holder_gradient_inequality_sampled(self):
        prob = generate_problem(2, "leastp", 25, 5, p=1.5, consistent=True)
        nu, L, _, _ = prob.constants()
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y = rng.uniform(-5, 5, 5), rng.uniform(-5, 5, 5)
            lhs = np.linalg.norm(grad(prob, x) - grad(prob, y))
            rhs = L * np.linalg.norm(x - y) ** nu
            assert lhs <= rhs * (1 + 1e-10)

    def test_scalar_power_map_inequality(self):
        # || ||u||^(p-2) u - ||v||^(p-2) v || <= 2^(2-p) ||u-v||^(p-1)
        rng = np.random.default_rng(17)
        p = 1.5
        u = rng.uniform(-5, 5, size=(10 ** 4, 5))
        v = rng.uniform(-5, 5, size=(10 ** 4, 5))
        nu_ = np.linalg.norm(u, axis=1, keepdims=True)
        nv = np.linalg.norm(v, axis=1, keepdims=True)
        lhs = np.linalg.norm(nu_ ** (p - 2) * u - nv ** (p - 2) * v, axis=1)
        rhs = 2 ** (2 - p) * np.linalg.norm(u - v, axis=1) ** (p - 1)
        assert np.all(lhs <= rhs * (1 + 1e-10))

    def test_generation_determinism_and_consistency(self):
        a = generate_problem(42, "leastp", 50, 10, p=1.5, consistent=True)
        b = generate_problem(42, "leastp", 50, 10, p=1.5, consistent=True)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
        assert a.descriptor() == b.descriptor()
        c = generate_problem(7, "leastp", 50, 10, p=1.5, consistent=True)
        # a plain float: the descriptor keeps no evaluation, and no residual
        assert type(c.fstar) is float and type(c.descriptor()["fstar"]) is float
        assert c.fstar == pytest.approx(0.0, abs=1e-20)
        rng = np.random.default_rng(7)
        rng.standard_normal((50, 10))
        x_true = rng.standard_normal(10)
        assert np.linalg.norm(grad(c, x_true)) <= 1e-8

    def test_rejects_wide_or_bad_p(self):
        with pytest.raises(UsageError):
            LeastPProblem(np.ones((2, 3)), np.zeros(2), p=1.5)
        with pytest.raises(UsageError):
            LeastPProblem(np.eye(2), np.zeros(2), p=2.5)


class TestLasso:
    def test_smooth_value_grad_examples(self):
        prob = LassoProblem(np.eye(2), np.zeros(2), lam=1.0)
        assert prob.smooth_value([3.0, -4.0]) == pytest.approx(12.5)
        assert smooth_grad(prob, [3.0, -4.0]) == pytest.approx([3.0, -4.0])
        prob2 = LassoProblem(np.eye(2), np.ones(2), lam=1.0)
        assert prob2.smooth_value([1.0, 1.0]) == 0.0
        assert smooth_grad(prob2, [1.0, 1.0]) == pytest.approx([0.0, 0.0])
        prob3 = LassoProblem(np.array([[1.0, 0.0], [0.0, 2.0]]), np.zeros(2), lam=1.0)
        assert prob3.smooth_value([1.0, 1.0]) == pytest.approx(2.5)
        assert smooth_grad(prob3, [1.0, 1.0]) == pytest.approx([1.0, 4.0])

    def test_fused_smooth_value_grad_is_value_and_grad_bit_for_bit(self):
        # the smooth part's value keeps G x, and its completion gives the
        # gradient G x - c that the reference solve forms, bit for bit
        prob = build_problem(preset("sec53", 0).problem)
        smooth = prob.as_smooth()
        assert (smooth.value, smooth.complete) == (prob.smooth_value, prob.smooth_complete)
        X = np.vstack([uniform_rows(prob.n, count=200), np.zeros(prob.n),
                       reference_optimum(prob).xstar])
        for x in X:
            ev = prob.smooth_value(x)
            value = ev.value
            assert np.array_equal(ev.work, prob.G @ x)
            assert prob.smooth_complete(ev) is ev and ev.value == value
            assert np.array_equal(ev.gradient, prob.G @ x - prob.c)

    @pytest.mark.parametrize("make", [
        *(lambda s=s: build_problem(preset("sec53", s).problem) for s in range(3)),
        lambda: generate_problem(3, "lasso", 40, 40, consistent=True),
    ], ids=["sec53-0", "sec53-1", "sec53-2", "40x40-consistent"])
    def test_gram_oracles_match_the_residual_form(self, make):
        # Both forms sum products of the entries of A, x and b, so each
        # differs from the exact value by rounding that scales with those
        # products taken in absolute value: for the value with S = ||u||^2/2,
        # u = |A||x| + |b|, and per coordinate |A|^T u for the gradient and
        # |A|^T |A| |v| for the Hessian-apply.  The worst case is about
        # (m + n) eps times these scales (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., section 3.1); the rounding met grows
        # like its square root, and sqrt(m + n) eps is the bound here
        # (measured: at most 4.7 eps on sec53, 0.6 eps on 40x40).  Near a
        # consistent optimum the Gram value cancels, so the bound is on S,
        # not on f.
        eps = np.finfo(float).eps
        prob = make()
        A, b = prob.A, prob.b
        tol = np.sqrt(prob.m + prob.n) * eps
        X = np.vstack([uniform_rows(prob.n, count=100), np.zeros(prob.n),
                       reference_optimum(prob).xstar])
        V = np.random.default_rng(1).standard_normal(X.shape)
        for x, v in zip(X, V):
            r = A @ x - b
            u = np.abs(A) @ np.abs(x) + np.abs(b)
            assert abs(prob.smooth_value(x) - 0.5 * (r @ r)) <= tol * 0.5 * (u @ u)
            assert np.all(np.abs(smooth_grad(prob, x) - A.T @ r) <= tol * (np.abs(A).T @ u))
            assert np.all(np.abs(prob.hess_apply(x, v) - A.T @ (A @ v))
                          <= tol * (np.abs(A).T @ (np.abs(A) @ np.abs(v))))

    def test_hess_apply_and_L(self):
        prob = generate_problem(3, "lasso", 40, 6, lam=0.1)
        v = np.arange(6.0)
        assert prob.hess_apply(None, v) == pytest.approx(prob.A.T @ (prob.A @ v))
        lam_max = np.linalg.eigvalsh(prob.A.T @ prob.A)[-1]
        assert abs(prob.L - lam_max) <= 1e-8 * lam_max

    def test_sec53_size_L_matches_spectral_oracle(self):
        prob = generate_problem(3, "lasso", 1000, 10, lam=0.1)
        spec = iterative_spectral_constants(prob.A)
        assert abs(prob.L - spec.opnorm ** 2) <= 1e-8 * spec.opnorm ** 2

    def test_scalar_reference_optimum(self):
        # minimize (2-x)^2/2 + |x|: optimum x*=1, value 1.5
        prob = LassoProblem(np.array([[1.0]]), np.array([2.0]), lam=1.0)
        ref = reference_optimum(prob)
        assert ref.converged
        assert ref.xstar == pytest.approx([1.0], abs=1e-9)
        assert ref.fstar == pytest.approx(1.5, abs=1e-12)
        grid = np.linspace(-4, 4, 80001)
        vals = 0.5 * (2.0 - grid) ** 2 + np.abs(grid)
        assert ref.fstar == pytest.approx(vals.min(), abs=1e-8)

    def test_reference_optimum_converges_on_seeded(self):
        prob = generate_problem(11, "lasso", 200, 8, lam=0.1)
        ref = reference_optimum(prob)
        assert ref.converged
        # fixed point of the forward-backward map
        from dealopt.envelopes import forward_backward_map
        comp = prob.as_composite()
        T = forward_backward_map(comp, ref.xstar, 0.5 / prob.L)
        assert np.linalg.norm(T - ref.xstar) <= 1e-9


class TestPowerAbs:
    def test_value_grad_and_exponent(self):
        prob = PowerAbsProblem(s=4.0, n=2)
        assert prob.value([1.0, -2.0]) == pytest.approx(17.0)
        assert prob.grad([1.0, -2.0]) == pytest.approx([4.0, -32.0])
        assert prob.kl_info().vartheta == pytest.approx(0.75)

    def test_dominance_inequality_sampled(self):
        prob = PowerAbsProblem(s=4.0, n=3)
        kl = prob.kl_info()
        rng = np.random.default_rng(1)
        for _ in range(300):
            x = rng.uniform(-5, 5, 3)
            lhs = prob.value(x) ** kl.vartheta
            rhs = kl.tau * np.linalg.norm(prob.grad(x))
            assert lhs <= rhs * (1 + 1e-10)

    def test_reference_optimum(self):
        ref = reference_optimum(PowerAbsProblem(s=3.0, n=4))
        assert ref.fstar == 0.0


class TestQuadratic:
    def test_closed_form_and_pl_constant(self):
        prob = QuadraticProblem(np.eye(1))
        assert prob.reference().tau == pytest.approx(1.0 / np.sqrt(2.0))
        assert prob.fstar == 0.0
        prob2 = QuadraticProblem(np.diag([1.0, 4.0]), np.array([1.0, 0.0]))
        assert prob2.xstar == pytest.approx([-1.0, 0.0])
        assert type(prob2.fstar) is float and prob2.fstar == pytest.approx(-0.5)

    def test_fused_value_grad_is_value_and_grad_bit_for_bit(self):
        # a value keeps Q x, and completing it leaves the value as it was
        # and gives Q x + c, bit for bit
        prob = generate_problem(3, "quadratic", 12, 5)
        x = np.random.default_rng(1).uniform(-5, 5, 5)
        ev = prob.value(x)
        value = ev.value
        assert np.array_equal(ev.work, prob.Q @ x)
        assert prob.complete(ev) is ev and ev.value == value
        assert np.array_equal(ev.gradient, prob.Q @ x + prob.c)

    @pytest.mark.parametrize("size", [(1000, 200), (12, 5)])
    def test_rows_match_value_grad(self, size):
        prob = generate_problem(3, "quadratic", *size)
        assert_rows_match_points(prob, uniform_rows(prob.n))

    def test_rows_at_the_origin_give_zero_and_c_exactly(self):
        prob = generate_problem(3, "quadratic", 12, 5)
        X = np.vstack([uniform_rows(5, count=2), np.zeros(5), uniform_rows(5, seed=1, count=2)])
        f, G = prob.value_grad_rows(X)
        assert f[2] == 0.0 and np.array_equal(G[2], prob.c)
        assert prob.value(np.zeros(5)) == 0.0
        assert_rows_match_points(prob, X)

    def test_singular_reference_is_not_converged(self):
        # c = (0, 1) lies outside the range of Q: f is unbounded below
        ref = reference_optimum(QuadraticProblem(np.diag([1.0, 0.0]), [0.0, 1.0]))
        assert not ref.converged
        assert ref.fstar is None and ref.xstar is None

    def test_singular_reference_with_attained_minimum(self):
        ref = reference_optimum(QuadraticProblem(np.diag([1.0, 0.0]), [1.0, 0.0]))
        assert ref.converged
        assert ref.fstar == -0.5 and np.array_equal(ref.xstar, [-1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_Q_rejected(self, bad):
        with pytest.raises(DataError, match="Q contains non-finite entries"):
            QuadraticProblem([[bad, 0.0], [0.0, 1.0]])

    def test_generated(self):
        prob = generate_problem(0, "quadratic", 12, 5)
        ref = reference_optimum(prob)
        assert np.linalg.norm(grad(prob, ref.xstar)) <= 1e-9


def _with_zero_residual_row(problem, X, row):
    """A copy of ``problem`` whose ``b`` is the row ``row`` of the block
    product ``X A^T``, so that row's residual is exactly zero."""
    zeroed = copy.copy(problem)
    zeroed.b = (X @ problem.A.T)[row].copy()
    return zeroed


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("zero_row", [False, True])
def test_leastp_rows_equal_the_whole_block_expressions_bit_for_bit(zero_row):
    # the in-place residual, the dropped residual and the in-place scaling
    # give every bit the whole-block expressions give
    problem = build_problem(preset("sec51", 0).problem)
    X = uniform_rows(problem.n, count=REEVALUATE_BLOCK)
    if zero_row:
        problem = _with_zero_residual_row(problem, X, 5)
    A, b, p = problem.A, problem.b, problem.p
    R = X @ A.T - b
    nr = np.sqrt(np.einsum("ij,ij->i", R, R))
    zero = nr == 0.0
    G = (np.where(zero, 1.0, nr) ** (p - 2.0))[:, None] * (R @ A)
    G[zero] = 0.0
    assert zero.sum() == zero_row
    f_rows, G_rows = problem.value_grad_rows(X)
    assert _same_bits(f_rows, nr ** p / p) and _same_bits(G_rows, G)


@pytest.mark.parametrize("zero_row", [False, True])
def test_lasso_fbe_rows_equal_the_whole_block_expressions_bit_for_bit(zero_row):
    problem = build_problem(preset("sec53", 0).problem)
    X = uniform_rows(problem.n, count=REEVALUATE_BLOCK)
    if zero_row:
        problem = _with_zero_residual_row(problem, X, 5)
    A, b, lam, gamma = problem.A, problem.b, problem.lam, 0.95 / problem.L
    R = X @ A.T - b
    G = R @ A
    T = prox_l1(X - gamma * G, gamma * lam)
    D = T - X
    values = (0.5 * np.einsum("ij,ij->i", R, R) + np.einsum("ij,ij->i", G, D)
              + np.einsum("ij,ij->i", D, D) / (2.0 * gamma)
              + lam * np.abs(T).sum(axis=1))
    assert np.count_nonzero(~R.any(axis=1)) == zero_row
    f_rows, G_rows = problem.fbe_rows(X, gamma)
    assert _same_bits(f_rows, values)
    assert _same_bits(G_rows, (D @ A.T) @ A - D / gamma)


def test_generate_problem_rejects_unknown():
    with pytest.raises(UsageError):
        generate_problem(0, "mystery", 5, 5)
    with pytest.raises(UsageError):
        generate_problem(0, "leastp", 3, 5)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_generate_problem_refuses_a_negative_seed_for_every_family(kind):
    # numpy draws from no negative seed
    with pytest.raises(UsageError, match="^seed must be >= 0, got -1$"):
        generate_problem(-1, kind, 20, 5)
