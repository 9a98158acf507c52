import numpy as np
import pytest

from dealopt import bench, envelopes
from dealopt.core import Reevaluation


@pytest.fixture
def run_storing():
    """``run(problem, spec, run, rep=0) -> (result, iterates, ctx)``: the
    result of ``bench.run_variant``, the list of iterates its solver handed
    to ``observe``, one per record, and the certificate context the run was
    certified with."""
    def run(problem, spec, run, rep=0):
        seen = {}
        configure, certify = bench._configure_variant, bench.certify_run

        def storing(*args):
            solve, ctx = configure(*args)

            def solve_storing(x0, observe):
                iterates = seen["iterates"] = []

                def both(x):
                    iterates.append(x)
                    observe(x)
                return solve(x0, both)
            return solve_storing, ctx

        def certified(trace, ctx):
            seen["ctx"] = ctx
            return certify(trace, ctx)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(bench, "_configure_variant", storing)
            m.setattr(bench, "certify_run", certified)
            result = bench.run_variant(problem, spec, run, rep)
        assert len(seen["iterates"]) == len(result.trace)
        return result, seen["iterates"], seen["ctx"]
    return run


@pytest.fixture
def certify_observed():
    """``certify(trace, iterates, ctx, rows=None)``: ``bench.certify_run``
    of a finished run after the fact.  Its observed ``iterates`` go through
    a new ``Reevaluation`` by the batch oracle ``rows``, or by the run's own,
    ``ctx["rows"]``, when that is None."""
    def certify(trace, iterates, ctx, rows=None):
        reevaluation = Reevaluation(ctx["rows"] if rows is None else rows, ctx.get("xstar"))
        for x in iterates:
            reevaluation.add(x)
        return bench.certify_run(trace, dict(ctx, reevaluation=reevaluation))
    return certify


# per solver, the per-point oracle of a run of ``problem`` from its trace's
# extras: the objective's value completed with its gradient, or the envelope
# at the run's gamma (and, for bhippa, its order p)
PER_POINT = {
    "deal-c": lambda problem, extras: lambda x: problem.complete(problem.value(x)),
    "deal-a": lambda problem, extras: lambda x: problem.complete(problem.value(x)),
    "bpga": lambda problem, extras: lambda x, composite=problem.as_composite(): (
        envelopes.fbe_value_grad(composite, x, extras["gamma"])),
    "bhippa": lambda problem, extras: lambda x, phi=problem.as_prox_capable(): (
        envelopes.home_value_grad(phi, x, extras["gamma"], extras["p"])),
}


@pytest.fixture
def per_point():
    """``rows(problem, trace)``: the per-point oracle of the run of
    ``problem`` that gave ``trace``, from ``PER_POINT``, as a rows oracle
    that evaluates each row alone, one call a point."""
    def rows(problem, trace):
        evaluate = PER_POINT[trace.solver_id](problem, trace.extras)

        def each(X):
            values, gradients = zip(*(tuple(evaluate(x))[:2] for x in X))
            return np.array(values), np.stack(gradients)
        return each
    return rows


@pytest.fixture
def dominance():
    """``check(problem, vartheta, tau, n, seed) -> (violations, worst)``: the
    gradient-dominance inequality (f - f*)^vartheta <= tau ||grad f|| at
    ``n`` points drawn uniformly from [-5, 5]^dim by ``seed``, valued in one
    call of the problem's batch oracle ``value_grad_rows``, f* its
    reference optimum.  A point violates it when the excess exceeds 1e-8
    max(1, (f - f*)^vartheta); ``worst`` is the largest ratio
    (f - f*)^vartheta / ||grad f|| over the points above f*, the tightest
    tau the sample shows."""
    def check(problem, vartheta, tau, n, seed):
        X = np.random.default_rng(seed).uniform(-5.0, 5.0, (n, problem.n))
        f, G = problem.value_grad_rows(X)
        gap = f - problem.reference().fstar
        lhs = np.maximum(gap, 0.0) ** vartheta
        gn = np.sqrt(np.einsum("ij,ij->i", G, G))
        violations = int(np.count_nonzero(lhs - tau * gn > 1e-8 * np.maximum(1.0, lhs)))
        above = gap > 0.0
        return violations, float(np.max(lhs[above] / gn[above]))
    return check
