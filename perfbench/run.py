"""Benchmark of dealopt: three workloads through the public API.

    python3 perfbench/run.py --workload sec51 --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload run (every experiment the
workload makes for the seed) runs in its own child process (worker.py), with
one BLAS thread and without DEAL_SEED.  Whole workload runs of the same seed
are repeated until ``--seconds`` have passed, at least one.  Set-up time is
measured apart, in SETUPS fresh processes that import dealopt and build the
workload's problems.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
and a traced workload run of the seed side by side (one per core), checks
that their CSV traces are byte-identical, and prints the per-layer metrics.
Both check every variant run against expected.json.  Times are scaled to
reference seconds (speed.py).  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  Full results go to
.perfbench_out/results/, spans of traced runs to .perfbench_out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170.0     # a run must end within 180 s
SETUPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    # bench.build_problem would silently replace the workload seed with it
    env.pop("DEAL_SEED", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_round(workload, seed, work, index, modes, deadline):
    """Start one worker per mode (plain, traced or setup) and wait for all."""
    procs = []
    for mode in modes:
        tag = f"{index}-{mode}"
        result = work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", workload, "--seed", str(seed),
               "--work", str(work / tag), "--result", str(result)]
        procs.append((subprocess.Popen(cmd, env=child_env()), result))
    try:
        for proc, _ in procs:
            proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload run did not end within {TIME_LIMIT_S:.0f} s")
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    for proc, _ in procs:
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    return [json.loads(path.read_text()) for _, path in procs]


def measure(workload, seed, seconds, traced):
    """Set-ups, then rounds of workload runs until ``seconds`` have passed.

    Returns ``(setups, rounds)``: the set-up results (none when traced) and
    one list of results per round, plain first.
    """
    modes = ("plain", "traced") if traced else ("plain",)
    work = OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    rounds = []
    try:
        setups = [] if traced else [
            run_round(workload, seed, work, f"s{i}", ("setup",), deadline)[0]
            for i in range(SETUPS)]
        while True:
            round_start = time.monotonic()
            rounds.append(run_round(workload, seed, work, len(rounds), modes, deadline))
            now = time.monotonic()
            if now - start >= seconds or now + (now - round_start) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setups, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dealopt benchmark")
    parser.add_argument("--workload", required=True, choices=report.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dealopt" / "__init__.py").is_file():
        print(f"no dealopt sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if "DEAL_SEED" in os.environ:
        print("note: DEAL_SEED is set; it is cleared for the workload runs")
    try:
        setups, rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    expected = json.loads((HERE / "expected.json").read_text())
    plain = [r[0] for r in rounds]
    results = [res for r in rounds for res in r]
    attempted, failed, problems = report.gate(args.workload, results, expected)
    if args.trace:
        traced = [r[1] for r in rounds]
        for p, t in zip(plain, traced):
            if [run["digests"] for run in p["runs"]] != [run["digests"] for run in t["runs"]]:
                problems.append("traced CSV traces differ from the untraced run's")
        metrics = report.per_layer(traced, plain)
        units = report.PER_LAYER
        samples = {name: len(traced) for name in metrics}
    else:
        values = report.end_to_end(plain, setups, attempted, failed)
        metrics = {name: v for name, (v, _) in values.items()}
        samples = {name: n for name, (_, n) in values.items()}
        units = report.END_TO_END

    env = plain[0]["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"workload runs {len(rounds)}  python {env['python']}  numpy {env['numpy']}  "
          f"BLAS {env['blas']} threads {env['blas_threads']}  nproc {env['nproc']}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]:<14s} n={samples[name]}")
    if not args.trace:
        variant_s = [s * r["scale"] for r in plain for s in r["variant_s"]]
        extra = {
            "fail_frac": (failed / attempted, "ratio", attempted),
            "variant_p90_s": (report.p90(variant_s), "s", len(variant_s)),
            "raw_wall_s": (statistics.median(r["wall_s"] for r in plain), "s", len(plain)),
            "raw_setup_s": (statistics.median(s["setup_s"] for s in setups), "s", len(setups)),
            "build_s": (statistics.median(r["build_s"] for r in plain), "s", len(plain)),
            "speed_scale": (statistics.median(r["scale"] for r in plain), "ratio", len(plain)),
        }
        for name, (value, unit, n) in extra.items():
            print(f"  {name:34s} {value:>16.6g} {unit:<14s} n={n}")
        if len(variant_s) < 100:
            print("  (variant_p90_s has under 100 samples: it is near the maximum)")
    for problem in problems:
        print(f"  gate: {problem}")
    correct = not problems and failed == 0

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        with open(spans_dir / f"{stem}.jsonl", "w") as fh:
            for res in traced:
                for span in res.pop("spans"):
                    fh.write(json.dumps(span) + "\n")
    (results_dir / f"{stem}.json").write_text(json.dumps(
        {"correct": correct, "gate": problems, "metrics": metrics, "samples": samples,
         "environment": env, "setups": setups, "workload_runs": results}, indent=1))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
