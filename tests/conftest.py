import pytest

from dealopt import bench
from dealopt.core import Reevaluation


@pytest.fixture
def run_storing():
    """``run(problem, spec, run, rep=0) -> (result, iterates, ctx)``: the
    result of ``bench.run_variant``, the list of iterates its solver handed
    to ``observe``, one per record, and the certificate context the run was
    certified with (``run.store_iterates`` must hold)."""
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
    """``certify(trace, iterates, ctx, rows=True)``: ``bench.certify_run``
    of a finished run after the fact.  Its observed ``iterates`` go through
    a new ``Reevaluation`` on the oracles of its certificate context
    ``ctx``: by the batch oracle ``ctx["rows"]`` or, without ``rows``, point
    by point through ``ctx["evaluate"]``."""
    def certify(trace, iterates, ctx, rows=True):
        reevaluation = Reevaluation(ctx["evaluate"], ctx["rows"] if rows else None,
                                    ctx.get("xstar"))
        for x in iterates:
            reevaluation.add(x)
        return bench.certify_run(trace, dict(ctx, reevaluation=reevaluation))
    return certify
