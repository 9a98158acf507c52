"""Call tracer for the traced benchmark run.

The tracer replaces public names of the dealopt modules with timing wrappers,
each in the namespace that calls it: ``from x import f`` binds a copy, so the
solver run by the experiment runner is ``dealopt.bench.run_deala``, not
``dealopt.solvers.run_deala``.  Problem oracles are wrapped on the built
problem instance, because ``as_smooth()`` and ``as_composite()`` read its bound
methods.  ``restore()`` puts every original back.

Every wrapped name belongs to a group (``core.certify``, ``oracle.value``...).
A group's call count and time cover its outermost calls only, so a group that
re-enters itself is not counted twice; its self time excludes every wrapped
call made inside it.  Cold names are also recorded as spans (name, start, end,
parent span, experiment id, self time).  Hot names (problem oracles, envelope
evaluations, direction rules, the scalar minimiser) are only aggregated into
counts and summed time: a sec51 experiment makes about half a million oracle
calls.
"""

from __future__ import annotations

import functools
import inspect
import pathlib
import time
from collections import defaultdict

from dealopt import (analysis, bench, boosted, core, directions, envelopes,
                     oracles, problems)

_MISSING = object()

# A or A^T products per call of a problem oracle, computed from the formulas
# of the matrix families (least-p, lasso): a value needs A x, a gradient and
# a Hessian-apply need A x and A^T r.
MATVECS = {"oracle.value": 1, "oracle.grad": 2, "oracle.value_grad": 2,
           "oracle.hess_apply": 2}

SOLVE_GROUPS = ("solvers.deal_c", "solvers.deal_a", "boosted.bpga", "boosted.bhippa")


class Tracer:
    """Wraps the dealopt layers while installed; collects counts and spans."""

    def __init__(self):
        self.calls = defaultdict(int)        # outermost calls per group
        self.seconds = defaultdict(float)    # inclusive time of outermost calls
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)       # counters kept by the hooks
        self.spans = []
        self._depth = defaultdict(int)
        self._frames = []                    # [group, span, child seconds, start]
        self._open_spans = []
        self._patches = []
        self._next_id = 1
        self._experiment = None
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        cold = [
            (bench, "run_experiment", "bench.experiment"),
            (bench, "build_problem", "bench.build", self._wrap_problem_oracles),
            (problems, "generate_problem", "problems.build"),
            (oracles, "spectral_constants", "oracles.spectral"),
            (problems, "reference_optimum", "problems.reference_optimum"),
            (bench, "run_variant", "bench.variant"),
            (bench, "run_dealc", "solvers.deal_c"),
            (bench, "run_deala", "solvers.deal_a"),
            (bench, "run_bpga", "boosted.bpga"),
            (bench, "run_bhippa", "boosted.bhippa"),
            (bench, "certify_run", "bench.certify"),
            (bench, "reevaluate_trace", "core.reevaluate",
             self._count_reevaluation(bench.reevaluate_trace)),
            (bench, "certify_descent", "core.certify"),
            (bench, "certify_displacement", "core.certify"),
            (bench, "min_grad_bound_check", "core.certify"),
            (analysis, "fit_linear_rate", "analysis"),
            (analysis, "estimate_kl_exponent", "analysis"),
            (analysis, "verify_complexity", "analysis"),
            (analysis, "per_step_ratio_check", "analysis"),
            (core.IterateTrace, "to_csv", "bench.write"),
            (pathlib.Path, "write_text", "bench.write"),
            (bench, "emit_plot_data", "bench.write"),
        ]
        hot = [
            (boosted, "fbe_value", "envelopes.fbe_value", self._count_trial),
            (envelopes, "fbe_value", "envelopes.fbe_value"),
            (boosted, "fbe_value_grad", "envelopes.fbe_value_grad"),
            (envelopes, "fbe_value_grad", "envelopes.fbe_value_grad"),
            (boosted, "home_value", "envelopes.home_value", self._count_trial),
            (envelopes, "home_value", "envelopes.home_value"),
            (boosted, "home_value_grad", "envelopes.home_value_grad"),
            (envelopes, "home_value_grad", "envelopes.home_value_grad"),
            (envelopes, "prox_home_separable", "envelopes.prox_separable"),
            (oracles, "scalar_minimize", "oracles.scalar_minimize",
             self._count_scalar_evals),
            (directions.DirectionRule, "sufficient_base_direction", "directions",
             self._count_direction(True)),
            (directions.DirectionRule, "base_direction", "directions",
             self._count_direction(True)),
            (directions.DirectionRule, "push", "directions",
             self._count_direction(False)),
        ]
        for owner, attr, group, *around in cold:
            self._patch(owner, attr, group, True, around[0] if around else None)
        for owner, attr, group, *around in hot:
            self._patch(owner, attr, group, False, around[0] if around else None)

    def restore(self):
        """Put every patched name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def patched_names(self):
        return [(owner, attr) for owner, attr, _ in self._patches]

    def _patch(self, owner, attr, group, span, around=None):
        fn = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self._wrap(fn, _qualname(owner, attr), group, span, around))

    def _wrap(self, fn, name, group, span, around):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, group, span)
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(fn, args, kwargs)
            finally:
                tracer._exit(frame)
        return wrapper

    # -- frames and spans -------------------------------------------------

    def _enter(self, name, group, span):
        self._depth[group] += 1
        record = None
        if span:
            record = {"id": self._next_id, "name": name, "group": group,
                      "parent": self._open_spans[-1]["id"] if self._open_spans else None}
            self._next_id += 1
            if group == "bench.experiment":
                self._experiment = record["id"]
            record["experiment"] = self._experiment
            self._open_spans.append(record)
        frame = [group, record, 0.0, time.perf_counter()]
        self._frames.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        group, record, child, start = frame
        self._frames.pop()
        duration = end - start
        if self._frames:
            self._frames[-1][2] += duration
        self.self_seconds[group] += duration - child
        if self._depth[group] == 1:
            self.calls[group] += 1
            self.seconds[group] += duration
        self._depth[group] -= 1
        if record is not None:
            self._open_spans.pop()
            record.update(start_s=start - self._t0, end_s=end - self._t0,
                          self_s=duration - child)
            self.spans.append(record)

    # -- hooks ------------------------------------------------------------

    def _wrap_problem_oracles(self, fn, args, kwargs):
        problem = fn(*args, **kwargs)
        if not hasattr(problem, "A"):
            return problem      # elementwise families make no matrix products
        if hasattr(problem, "smooth_value"):
            names = (("smooth_value", "oracle.value"), ("smooth_grad", "oracle.grad"))
        else:
            names = (("value", "oracle.value"), ("grad", "oracle.grad"))
        names += (("value_grad", "oracle.value_grad"), ("hess_apply", "oracle.hess_apply"))
        for attr, group in names:
            if hasattr(problem, attr):
                self._patch(problem, attr, group, False, self._count_oracle(group))
        return problem

    def _count_oracle(self, group):
        matvecs = MATVECS[group]
        counts, depth = self.counts, self._depth

        def around(fn, args, kwargs):
            counts["oracle.matvecs"] += matvecs
            if any(depth[g] for g in SOLVE_GROUPS):
                counts["oracle.solve_matvecs"] += matvecs
            if group == "oracle.value" and depth["solvers.deal_a"]:
                counts["solvers.deal_a.value_calls"] += 1
            return fn(*args, **kwargs)
        return around

    def _count_trial(self, fn, args, kwargs):
        self.counts["boosted.linesearch_trials"] += 1
        return fn(*args, **kwargs)

    def _count_scalar_evals(self, fn, args, kwargs):
        g, *rest = args
        n = [0]

        def counted(u):
            n[0] += 1
            return g(u)
        try:
            return fn(counted, *rest, **kwargs)
        finally:
            self.counts["oracles.scalar_evals"] += n[0]

    def _count_direction(self, produces):
        def around(fn, args, kwargs):
            rule = args[0]
            before = rule.fallback_count
            try:
                return fn(*args, **kwargs)
            finally:
                if self._depth["directions"] == 1:
                    self.counts["directions.fallbacks"] += rule.fallback_count - before
                    if produces:
                        self.counts["directions.calls"] += 1
        return around

    def _count_reevaluation(self, original):
        signature = inspect.signature(original)
        counts = self.counts

        def counted(oracle):
            def call(x):
                counts["core.reevaluate_oracle_calls"] += 1
                return oracle(x)
            return call

        def around(fn, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["value"] = counted(bound.arguments["value"])
            bound.arguments["grad"] = counted(bound.arguments["grad"])
            return fn(*bound.args, **bound.kwargs)
        return around


def _qualname(owner, attr):
    if inspect.ismodule(owner):
        return f"{owner.__name__}.{attr}"
    if inspect.isclass(owner):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{type(owner).__qualname__}.{attr}"
