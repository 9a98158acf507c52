"""Metrics of a benchmark run and its correctness gate.

``end_to_end`` and ``per_layer`` turn the results of the workload runs made
in child processes into the metrics named in BENCHMARK.json; ``gate`` checks
every variant run against the values this benchmark recorded for the commit
it was defined on (``expected.json``).
"""

from __future__ import annotations

import statistics
from collections import Counter

WORKLOADS = ("sec51", "bhippa-n100", "sec53-seeds")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "variant_p50_s": "s",
    "peak_rss_mb": "MB",
    "solved_frac": "ratio",
    "pass_frac": "ratio",
}

DEAL_TERMINATIONS = ("tolerance", "max_iter", "backtrack_limit", "nonfinite")

PER_LAYER = {
    "problems.build_s": "s",
    "oracles.spectral_s": "s",
    "problems.reference_optimum_calls": "count",
    "problems.reference_optimum_s": "s",
    "solvers.deal_c.solve_s": "s",
    "solvers.deal_a.solve_s": "s",
    "solvers.iterations": "count",
    "solvers.stagnant_steps": "count",
    "solvers.progress_ratio": "ratio",
    "solvers.backtracks": "count",
    "solvers.backtracks_per_iter": "count/iter",
    "solvers.armijo_accept_ratio": "ratio",
    **{f"solvers.terminations.{cause}": "count"
       for cause in DEAL_TERMINATIONS + ("other",)},
    "oracle.value_calls": "count",
    "oracle.grad_calls": "count",
    "oracle.hess_apply_calls": "count",
    "oracle.value_s": "s",
    "oracle.grad_s": "s",
    "oracle.matvecs": "computed_count",
    "oracle.matvecs_per_iter": "computed/iter",
    "directions.calls": "count",
    "directions.s": "s",
    "directions.fallbacks": "count",
    "boosted.bpga.solve_s": "s",
    "boosted.bhippa.solve_s": "s",
    "boosted.linesearch_trials": "count",
    "boosted.accept_ratio": "ratio",
    "boosted.fallbacks": "count",
    "envelopes.fbe_value_calls": "count",
    "envelopes.fbe_value_grad_calls": "count",
    "envelopes.fbe_s": "s",
    "envelopes.home_value_calls": "count",
    "envelopes.home_value_grad_calls": "count",
    "envelopes.home_s": "s",
    "envelopes.prox_separable_calls": "count",
    "envelopes.prox_separable_s": "s",
    "oracles.scalar_minimize_calls": "count",
    "oracles.scalar_evals": "count",
    "core.reevaluate_s": "s",
    "core.reevaluate_oracle_calls": "count",
    "core.certify_s": "s",
    "analysis.s": "s",
    "core.descent_pairs": "count",
    "core.vacuous_pairs": "count",
    "core.binding_ratio": "ratio",
    "bench.write_s": "s",
    "bench.files_written": "count",
    "bench.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    """num / den, or 0.0 when the base is 0 (the base is reported alongside)."""
    return num / den if den else 0.0


def layer_metrics(t, runs):
    """Per-layer metrics of one traced workload run.

    ``t`` is the run's Tracer; ``runs`` are the inspected run directories, from
    which the trace-derived counts (stagnant steps, backtracks, vacuous
    descent pairs, fallbacks) are taken.  ``trace.overhead_s`` needs the
    untraced run as well and is added by :func:`per_layer`.
    """
    variants = [v for run in runs for v in run["variants"]]
    deal = [v for v in variants if v["solver"] in ("deal-c", "deal-a")]
    deal_a = [v for v in deal if v["solver"] == "deal-a"]
    boosted = [v for v in variants if v["solver"] in ("bpga", "bhippa")]

    def total(vs, key):
        return sum(v[key] for v in vs)

    deal_iters = total(deal, "iterations")
    # every DEAL-A run evaluates f(x0) once, every other value call is a trial
    armijo_trials = t.counts["solvers.deal_a.value_calls"] - t.calls["solvers.deal_a"]
    boosted_trials = t.counts["boosted.linesearch_trials"]
    causes = Counter(v["termination"] if v["termination"] in DEAL_TERMINATIONS
                     else "other" for v in deal)
    pairs = total(variants, "descent_pairs")
    vacuous = total(variants, "vacuous_pairs")
    m = {
        "problems.build_s": t.seconds["problems.build"],
        "oracles.spectral_s": t.seconds["oracles.spectral"],
        "problems.reference_optimum_calls": t.calls["problems.reference_optimum"],
        "problems.reference_optimum_s": t.seconds["problems.reference_optimum"],
        "solvers.deal_c.solve_s": t.seconds["solvers.deal_c"],
        "solvers.deal_a.solve_s": t.seconds["solvers.deal_a"],
        "solvers.iterations": deal_iters,
        "solvers.stagnant_steps": total(deal, "stagnant"),
        "solvers.progress_ratio": _ratio(total(deal, "progress"), deal_iters),
        "solvers.backtracks": total(deal_a, "backtracks"),
        "solvers.backtracks_per_iter": _ratio(total(deal_a, "backtracks"),
                                              total(deal_a, "steps")),
        "solvers.armijo_accept_ratio": _ratio(total(deal_a, "accepted"), armijo_trials),
        **{f"solvers.terminations.{cause}": causes[cause]
           for cause in DEAL_TERMINATIONS + ("other",)},
        "oracle.value_calls": t.calls["oracle.value"] + t.calls["oracle.value_grad"],
        "oracle.grad_calls": t.calls["oracle.grad"] + t.calls["oracle.value_grad"],
        "oracle.hess_apply_calls": t.calls["oracle.hess_apply"],
        "oracle.value_s": t.seconds["oracle.value"],
        "oracle.grad_s": t.seconds["oracle.grad"] + t.seconds["oracle.value_grad"],
        "oracle.matvecs": t.counts["oracle.matvecs"],
        "oracle.matvecs_per_iter": _ratio(t.counts["oracle.solve_matvecs"],
                                          deal_iters + total(boosted, "iterations")),
        "directions.calls": t.counts["directions.calls"],
        "directions.s": t.seconds["directions"],
        "directions.fallbacks": t.counts["directions.fallbacks"],
        "boosted.bpga.solve_s": t.seconds["boosted.bpga"],
        "boosted.bhippa.solve_s": t.seconds["boosted.bhippa"],
        "boosted.linesearch_trials": boosted_trials,
        "boosted.accept_ratio": _ratio(total(boosted, "accepted"), boosted_trials),
        "boosted.fallbacks": total(boosted, "fallbacks"),
        "envelopes.fbe_value_calls": t.calls["envelopes.fbe_value"],
        "envelopes.fbe_value_grad_calls": t.calls["envelopes.fbe_value_grad"],
        "envelopes.fbe_s": t.seconds["envelopes.fbe_value"]
        + t.seconds["envelopes.fbe_value_grad"],
        "envelopes.home_value_calls": t.calls["envelopes.home_value"],
        "envelopes.home_value_grad_calls": t.calls["envelopes.home_value_grad"],
        "envelopes.home_s": t.seconds["envelopes.home_value"]
        + t.seconds["envelopes.home_value_grad"],
        "envelopes.prox_separable_calls": t.calls["envelopes.prox_separable"],
        "envelopes.prox_separable_s": t.seconds["envelopes.prox_separable"],
        "oracles.scalar_minimize_calls": t.calls["oracles.scalar_minimize"],
        "oracles.scalar_evals": t.counts["oracles.scalar_evals"],
        "core.reevaluate_s": t.seconds["core.reevaluate"],
        "core.reevaluate_oracle_calls": t.counts["core.reevaluate_oracle_calls"],
        "core.certify_s": t.seconds["core.certify"],
        "analysis.s": t.seconds["analysis"],
        "core.descent_pairs": pairs,
        "core.vacuous_pairs": vacuous,
        "core.binding_ratio": _ratio(pairs - vacuous, pairs),
        "bench.write_s": t.seconds["bench.write"],
        "bench.files_written": sum(run["files"] for run in runs),
        "bench.bytes_written": sum(run["bytes"] for run in runs),
    }
    return m


def gate(workload, results, expected):
    """Check every variant run of ``results`` against ``expected[workload]``.

    A variant run fails when its experiment raised, when its certificate
    bundle did not pass (``summary["ok"]``), or when it stopped for another
    cause than on this commit.  The workload fails when its
    solved share falls below this commit's.  Returns
    ``(attempted, failed, messages)``.
    """
    want = expected[workload]
    attempted = failed = solved = 0
    messages = []
    for result in results:
        for run in result["runs"]:
            attempted += run["attempted"]
            if run["raised"] is not None:
                failed += run["attempted"]
                messages.append(f"experiment raised: {run['raised'].strip().splitlines()[-1]}")
                continue
            for v in run["variants"]:
                solved += v["solved"]
                cause = want["terminations"].get(v["variant"])
                if not v["ok"]:
                    failed += 1
                    messages.append(f"{v['variant']}: certificate bundle did not pass")
                elif v["termination"] != cause:
                    failed += 1
                    messages.append(f"{v['variant']}: termination {v['termination']!r}, "
                                    f"expected {cause!r}")
    if attempted and solved / attempted < want["solved_frac"]:
        messages.append(f"solved_frac {solved / attempted:.4f} below this commit's "
                        f"{want['solved_frac']}")
    return attempted, failed, messages


def end_to_end(results, setups, attempted, failed):
    """End-to-end metrics over the plain workload runs and the set-ups of one
    benchmark run, as ``name: (value, sample count)``.

    Times are in reference seconds: each process's times are multiplied by
    the speed factor its probe measured.  ``failed`` comes from :func:`gate`.
    """
    variants = [v for r in results for run in r["runs"] for v in run["variants"]]
    variant_s = [s * r["scale"] for r in results for s in r["variant_s"]]
    setup_s = [s["setup_s"] * s["scale"] for s in setups]
    return {
        "wall_s": (statistics.median(r["wall_s"] * r["scale"] for r in results),
                   len(results)),
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "variant_p50_s": (statistics.median(variant_s), len(variant_s)),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), len(results)),
        "solved_frac": (sum(v["solved"] for v in variants) / attempted, attempted),
        "pass_frac": ((attempted - failed) / attempted, attempted),
    }


def p90(values):
    """90th percentile, interpolated between the sorted samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(traced, plain):
    """Per-layer metrics: the median over the traced workload runs of each
    metric, plus the tracing overhead against the untraced runs."""
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    return values
