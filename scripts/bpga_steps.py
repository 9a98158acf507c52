"""Steps and envelope evaluations of the ``bpga`` variants, per variant.

    python3 scripts/bpga_steps.py sec53 --seeds 40
    python3 scripts/bpga_steps.py lasso --seeds 6

``sec53`` runs the five variants of ``preset("sec53", s)`` and plain
forward-backward (``PG``, ``max_linesearch=0``) for s = 0..seeds-1.
``lasso`` runs the ``gradient`` direction with beta 0 and ``PG`` on four
generated lasso instances for seeds 0..seeds-1, each from the x0 of its
own seed.  Each run goes through ``bench.run_variant``, certificates
included; the envelope calls counted are the solver's own, through
``boosted``'s names.  Prints one markdown table: per variant the summed and
median steps and exact ``fbe_value`` calls, and the runs that ended
``tolerance``.  It imports ``dealopt`` from the checkout's
``src/`` unless ``PYTHONPATH`` names another.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from dealopt import bench, boosted  # noqa: E402

PG = bench.SolverSpec(name="PG", solver="bpga", max_linesearch=0)
BPGA = bench.SolverSpec(name="BPGA", solver="bpga", direction="gradient", beta=0.0)
# (m, n, consistent) of the off-preset instances
LASSOS = [(60, 20, True), (100, 50, False), (200, 100, True), (40, 40, True)]


def experiments(kind: str, seeds: int):
    """(group, problem, solver specs, run spec) of every experiment."""
    for seed in range(seeds):
        if kind == "sec53":
            config = bench.preset("sec53", seed)
            yield ("sec53", bench.build_problem(config.problem), config.solvers + [PG],
                   config.run)
        else:
            for m, n, consistent in LASSOS:
                spec = bench.ProblemSpec(kind="lasso", m=m, n=n, seed=seed,
                                         consistent=consistent)
                yield (f"{m}x{n}{' consistent' if consistent else ''}",
                       bench.build_problem(spec), [BPGA, PG], bench.RunSpec(x0_seed=seed))


def measure(kind: str, seeds: int) -> dict:
    """Per (group, variant name), each run's steps, ``fbe_value`` calls and
    whether it ended ``tolerance``."""
    calls = [0]
    value = boosted.fbe_value

    def counted(*args):
        calls[0] += 1
        return value(*args)
    boosted.fbe_value = counted
    rows = defaultdict(lambda: defaultdict(list))
    try:
        for group, problem, specs, run in experiments(kind, seeds):
            for spec in specs:
                calls[0] = 0
                trace = bench.run_variant(problem, spec, run).trace
                row = rows[group, spec.name]
                row["steps"].append(len(trace) - 1)
                row["values"].append(calls[0])
                row["tolerance"].append(trace.extras["termination"] == "tolerance")
    finally:
        boosted.fbe_value = value
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("kind", choices=("sec53", "lasso"))
    parser.add_argument("--seeds", type=int, default=40)
    args = parser.parse_args(argv)
    rows = measure(args.kind, args.seeds)
    print("| instance | variant | steps | median | fbe_value | median | tolerance |")
    print("|---|---|---:|---:|---:|---:|---:|")
    for (group, name), row in rows.items():
        print(f"| {group} | `{name}` | {sum(row['steps']):,} | {statistics.median(row['steps']):g}"
              f" | {sum(row['values']):,} | {statistics.median(row['values']):g}"
              f" | {sum(row['tolerance'])}/{len(row['steps'])} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
