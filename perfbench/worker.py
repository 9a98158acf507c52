"""One workload run, or one set-up, in its own process; result as JSON.

    python3 perfbench/worker.py --mode plain|traced|setup --workload W --seed N
                                --work DIR --result FILE

run.py starts this once per workload run, so that each run's peak resident
memory is its own and BLAS threads are fixed before numpy is imported, and
once per set-up, which times importing dealopt and building the workload's
problems in a fresh interpreter.  dealopt is imported from the ``src``
directory of the checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True, choices=("plain", "traced", "setup"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for the run directories")
    parser.add_argument("--result", required=True, help="file the result JSON goes to")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dealopt.bench
    import_s = time.perf_counter() - start
    if Path(dealopt.__file__).resolve().parent != (SRC / "dealopt").resolve():
        print(f"dealopt imported from {dealopt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.mode == "setup":
        result = workloads.set_up(args.workload, args.seed, import_s)
    else:
        result = workloads.run_once(args.workload, args.seed, args.work,
                                    traced=args.mode == "traced")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
