"""The benchmark's workloads and one workload run, plain or traced.

A workload run is every experiment one workload makes for one seed, driven
through the public API: ``bench.preset`` or an ``ExperimentConfig`` handed to
``bench.run_experiment``.  The timing of ``bench.build_problem`` and
``bench.run_variant`` is taken by two wrappers in the ``dealopt.bench``
namespace; everything else about a run is read afterwards from its run
directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import time
import traceback
from pathlib import Path

from dealopt import bench

import report
import speed
from tracer import Tracer

SEC53_SEEDS = 40
BHIPPA_N = 100
# sec51 always runs the instance of `deal sweep --preset sec51`, on which the
# ROADMAP states its figures.  Across seeds its cost is bimodal (DEAL-A1 runs
# to max_iter on 4 of seeds 0-59, adding 45-50 s) and spreads 49-57 s
# otherwise, and one instance per run is all the run length allows, so a
# seeded sec51 could not be compared between two sets of runs.
SEC51_SEED = 0

# kernel timings after a set-up, which is too short for the periodic probe
SETUP_KERNELS = 9

# the descent certificate's slack, certify_descent's default rel_tol
DESCENT_REL_TOL = 1e-10
# final gap that counts a variant run as solved, relative to its initial gap
SOLVED_REL_GAP = 1e-8


def experiments(workload, seed, out_dir, *, sec53_seeds=SEC53_SEEDS, bhippa_n=BHIPPA_N):
    """The experiment configs of one workload run, generated from ``seed``
    (sec51 excepted, see SEC51_SEED)."""
    out_dir = Path(out_dir)
    if workload == "sec51":
        return [bench.preset("sec51", SEC51_SEED, out_dir=str(out_dir))]
    if workload == "bhippa-n100":
        return [bench.ExperimentConfig(
            problem=bench.ProblemSpec(kind="powerabs", n=bhippa_n, s=4.0, seed=seed),
            solvers=[bench.SolverSpec(name="BHIPPA", solver="bhippa", order="auto")],
            run=bench.RunSpec(x0_seed=seed),
            output=bench.OutputSpec(directory=str(out_dir / "bhippa")))]
    if workload == "sec53-seeds":
        return [bench.preset("sec53", s, out_dir=str(out_dir / f"seed{s}"))
                for s in range(seed, seed + sec53_seeds)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {report.WORKLOADS}")


class Stopwatch:
    """Times every ``bench.build_problem`` and ``bench.run_variant`` call."""

    def __init__(self):
        self.build_s = []
        self.variant_s = []
        self._saved = []

    def __enter__(self):
        for attr, sink in (("build_problem", self.build_s),
                           ("run_variant", self.variant_s)):
            original = getattr(bench, attr)
            self._saved.append((attr, original))
            setattr(bench, attr, _timed(original, sink))
        return self

    def __exit__(self, *exc):
        while self._saved:
            attr, original = self._saved.pop()
            setattr(bench, attr, original)
        return False


def _timed(fn, sink):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)
    return wrapper


def run_once(workload, seed, work_dir, traced=False, **size):
    """One workload run in this process; returns its measurements as a dict.

    The run directories are inspected and then deleted.  A plain run is
    watched by a :class:`SpeedProbe` and carries the factor to reference
    seconds; with ``traced`` the layers are wrapped by a :class:`Tracer`
    instead and the result carries per-layer metrics and spans.
    """
    work_dir = Path(work_dir)
    configs = experiments(workload, seed, work_dir, **size)
    monitor = Tracer() if traced else speed.SpeedProbe()
    raised = []
    start = time.perf_counter()
    with Stopwatch() as watch, monitor:
        for cfg in configs:
            try:
                bench.run_experiment(cfg)
                raised.append(None)
            except Exception:  # reported as failed variant runs, run goes on
                raised.append(traceback.format_exc(limit=4))
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [inspect_run(cfg, err) for cfg, err in zip(configs, raised)]
    result = {"workload": workload, "seed": seed, "traced": traced,
              "wall_s": wall, "build_s": sum(watch.build_s),
              "variant_s": watch.variant_s, "peak_rss_mb": peak_rss_mb,
              "runs": runs, "environment": environment()}
    if traced:
        result["layers"] = report.layer_metrics(monitor, runs)
        result["spans"] = monitor.spans
    else:
        result["scale"] = monitor.scale()
    shutil.rmtree(work_dir, ignore_errors=True)
    return result


def set_up(workload, seed, import_s, **size):
    """One set-up in a fresh process: the given import time of dealopt plus
    building every problem of one workload run, in seconds, and the factor to
    reference seconds from kernel timings made right after."""
    configs = experiments(workload, seed, "unused", **size)
    start = time.perf_counter()
    for cfg in configs:
        bench.build_problem(cfg.problem)
    setup_s = import_s + time.perf_counter() - start
    kernel_s = [speed.kernel_seconds() for _ in range(SETUP_KERNELS)]
    return {"setup_s": setup_s, "import_s": import_s, "scale": speed.scale(kernel_s)}


def inspect_run(cfg, raised):
    """What one experiment left in its run directory, read from outside."""
    out = Path(cfg.output.directory)
    run = {"attempted": len(cfg.solvers) * cfg.run.repetitions, "raised": raised,
           "variants": [], "digests": {}, "files": 0, "bytes": 0}
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            run["files"] += 1
            run["bytes"] += path.stat().st_size
            if path.suffix == ".csv":
                run["digests"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    if raised is None:
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["variants"]:
            stem = entry["variant"] if cfg.run.repetitions == 1 else \
                f"{entry['variant']}_rep{entry['rep']}"
            run["variants"].append(trace_stats(out, stem, entry))
    return run


def trace_stats(out, stem, entry):
    """Outcome and waste counts of one variant run from its CSV and sidecar."""
    sidecar = json.loads((out / f"{stem}.json").read_text())
    with open(out / f"{stem}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    f = [float(r["f"]) for r in rows]
    g = [float(r["grad_norm"]) for r in rows]
    step = [float(r["step"]) if r["step"] else math.nan for r in rows]
    stepped = [r["displacement"] != "" for r in rows]
    fstar = sidecar["fstar"]
    solved = fstar is not None and \
        f[-1] - fstar <= SOLVED_REL_GAP * max(1.0, f[0] - fstar)
    pairs = len(f) - 1
    rho, theta = sidecar["rho"], sidecar["theta"]
    vacuous = 0
    if sidecar["guaranteed"]:
        vacuous = sum(1 for k in range(pairs)
                      if rho * g[k] ** theta <= DESCENT_REL_TOL * max(1.0, abs(f[k])))
    return {
        "variant": entry["variant"], "solver": sidecar["solver_id"],
        "termination": entry["termination"], "ok": entry["ok"], "solved": solved,
        "iterations": pairs,
        "steps": sum(stepped),
        "stagnant": sum(1 for k in range(pairs) if f[k + 1] == f[k]),
        "progress": sum(1 for k in range(pairs) if f[k + 1] < f[k]),
        "backtracks": sum(int(r["inner_count"]) for r in rows)
        if sidecar["solver_id"] == "deal-a" else 0,
        "accepted": sum(1 for s, d in zip(step, stepped) if d and s > 0.0),
        "fallbacks": int(sidecar["extras"].get("fallbacks", 0)),
        "descent_pairs": pairs if sidecar["guaranteed"] else 0,
        "vacuous_pairs": vacuous,
    }


def environment():
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.26 prints instead
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }

