"""Alternating benchmark pairs of two commits, summarised as a BENCH file.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload sec51 \
        --out BENCH_2026-10-19.json

Each commit is exported with ``git archive`` into its own directory under
``--work``.  Each of ``PAIRS`` pairs runs ``perfbench/run.py --workload W
--seed 0 --seconds 15 --trace 0`` once in each checkout, the parent first in
even pairs and the change first in odd ones, so that neither side always runs
on a warmer machine.  Each run's end-to-end metrics and failed-operation count
are read from the JSON object on the last line of its standard output.  The
BENCH file holds, per workload and side, every run's metrics, each metric's
median, quartiles and sample count and the failed operations over all runs,
plus the number of pairs in which the change was better; see the README's
"Benchmark files" section for the fields.  An ``--out`` that exists is
refused (exit 1) before anything runs or is written: a second file of one
date takes a suffix, as the README says.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the protocol of a claim: ten alternating pairs of 15-second runs at seed 0
PAIRS, SEED, SECONDS = 10, 0, 15


def export(rev: str, work: Path) -> tuple:
    """The full commit id of ``rev`` and a fresh checkout of its files."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    target = work / commit[:12]
    target.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return commit, target


def run_once(checkout: Path, workload: str) -> dict:
    """One perfbench run in ``checkout``: its last output line, parsed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=checkout, check=True, capture_output=True, text=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    env = json.loads((checkout / ".perfbench_out" / "results"
                      / f"{workload}-seed{SEED}-trace0.json").read_text())["environment"]
    return {"correct": last["correct"], "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "environment": env}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--work", default=None, help="directory for the two checkouts")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    args = parser.parse_args(argv)
    if Path(args.out).exists():
        print(f"{args.out} exists; a second BENCH file of one date is named "
              f"BENCH_<date>_2.json, and so on", file=sys.stderr)
        return 1

    work = Path(args.work or tempfile.mkdtemp(prefix="bench-pairs-"))
    sides = dict(zip(("parent", "change"), (export(args.parent, work / "parent"),
                                             export(args.change, work / "change"))))
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    doc = {"date": datetime.date.today().isoformat(),
           "commits": {side: commit for side, (commit, _) in sides.items()},
           "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                      f"--seconds {SECONDS} --trace 0",
           "host": {"machine": platform.machine(), "platform": platform.platform()},
           "workloads": {}}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side][1], workload))
                print(f"{workload} pair {i} {side}: {runs[side][-1]['metrics']}", flush=True)
        entry = {side: {"correct": all(r["correct"] for r in rs),
                        "failed": sum(r["failed"] for r in rs),
                        "environment": rs[0]["environment"],
                        "metrics": {name: summary([r["metrics"][name] for r in rs])
                                    for name in better},
                        "runs": [r["metrics"] for r in rs]}
                 for side, rs in runs.items()}
        entry["change_better_in_pairs"] = {
            name: sum((c < p) if way == "lower" else (c > p)
                      for p, c in zip((r["metrics"][name] for r in runs["parent"]),
                                      (r["metrics"][name] for r in runs["change"])))
            for name, way in better.items()}
        doc["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
