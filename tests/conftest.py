import dataclasses

import pytest

from dealopt import bench


@pytest.fixture
def run_storing():
    """``run(problem, spec, run, rep=0) -> (result, stored, ctx)``: the
    result of ``bench.run_variant``, its trace with each record's iterate
    stored as the run handed it to its re-evaluation, and the certificate
    context the run was certified with (``run.store_iterates`` must hold)."""
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
            seen.update(trace=trace, ctx=ctx)
            return certify(trace, ctx)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(bench, "_configure_variant", storing)
            m.setattr(bench, "certify_run", certified)
            result = bench.run_variant(problem, spec, run, rep)
        trace = seen["trace"]
        stored = dataclasses.replace(trace, records=[
            dataclasses.replace(rec, x=x)
            for rec, x in zip(trace.records, seen["iterates"], strict=True)])
        return result, stored, seen["ctx"]
    return run
