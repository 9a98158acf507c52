"""Whether two commits write the same run directories, byte for byte.

    python3 scripts/same_outputs.py PARENT CHANGE --out DIR

Each commit is exported with ``git archive`` into ``DIR/<side>/<commit>``.  One
Python process per tree, importing ``dealopt`` from that tree's ``src/``,
writes every run of ``RUNS`` through ``dealopt.cli.main`` into
``DIR/<side>/runs``: ``deal sweep`` of ``sec51`` at seeds 0, 2 and 13, of
``sec52`` at seed 0 and of ``sec53`` at seeds 0-39, ``deal run`` of
``bhippa`` on powerabs with n = 100, s = 4 at seeds 7-46, and the ten
``SINGLE_RUNS``, which reach the paths the sweeps do not: ``bpga`` on the
40 x 40 lasso (seed 3, with boosted fallbacks); ``deal-c`` and ``deal-a``
with BB1 on least-p 40 x 8 (seed 1), which reach a bitwise fixed point with
a rule that falls back; ``deal-a`` with L-BFGS, and with ``--alpha-bar 1e300``,
which ends ``backtrack_limit`` at k = 0; ``bhippa`` on powerabs with
n = 1000, s = 3 at order 2.5 (the Newton prox), with n = 100, s = 3 at
order 2 (the one order whose envelope penalty is a dot product) and with
n = 100, s = 1.5 (the ``displacement`` stop); and ``deal-c`` and ``deal-a``
on the 30 x 10 quadratic.  For each run it
prints how many files are equal, different and missing on one side,
``config.json`` included.  A change meant to alter some outputs, as the
fixed-point jump did, shows here only which runs it altered; how their
files differ is for the change to show.  It exits 1 if any file differs or is missing, or
if a run wrote no file, and refuses (exit 1) an ``--out`` that exists before
anything runs or is written.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import export  # noqa: E402

SIDES = ("parent", "change")
# single deal runs that reach the paths the sweeps do not
SINGLE_RUNS = (
    ("lasso40-seed3", "lasso --m 40 --n 40 --seed 3 --x0-seed 3 --solver bpga"),
    ("replay-deal-c", "leastp --m 40 --n 8 --seed 1 --solver deal-c --direction bb1 "
                      "--eps 1e-30 --max-iter 3000"),
    ("replay-deal-a", "leastp --m 40 --n 8 --seed 1 --solver deal-a --direction bb1 "
                      "--eps 1e-30 --max-iter 3000"),
    ("lbfgs-deal-a", "leastp --m 40 --n 8 --solver deal-a --direction lbfgs"),
    ("huge-alpha-bar", "leastp --m 40 --n 8 --solver deal-a --alpha-bar 1e300"),
    ("bhippa-n1000-s3-p2.5", "powerabs --n 1000 --s 3 --order 2.5 --solver bhippa"),
    ("bhippa-n100-s3-p2", "powerabs --n 100 --s 3 --order 2 --solver bhippa"),
    ("bhippa-n100-s1.5", "powerabs --n 100 --s 1.5 --solver bhippa"),
    ("quadratic-deal-c", "quadratic --m 30 --n 10 --solver deal-c"),
    ("quadratic-deal-a", "quadratic --m 30 --n 10 --solver deal-a"),
)
RUNS = ([(f"{preset}-seed{seed}", ["sweep", "--preset", preset, "--seed", str(seed)])
         for preset, seeds in (("sec51", (0, 2, 13)), ("sec52", (0,)), ("sec53", range(40)))
         for seed in seeds]
        + [(f"bhippa-seed{seed}", ["run", "--problem", "powerabs", "--n", "100", "--s", "4",
                                   "--seed", str(seed), "--x0-seed", str(seed),
                                   "--solver", "bhippa"])
           for seed in range(7, 47)]
        + [(label, ["run", "--problem", *line.split()]) for label, line in SINGLE_RUNS])

def write_runs(runs_dir: Path, src: Path) -> None:
    """Every run of ``RUNS`` into ``runs_dir``, with the ``dealopt`` that
    ``src`` holds, which must be the one imported."""
    from dealopt import cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"dealopt was imported from {cli.__file__}, not from {src}")
    for label, argv in RUNS:
        cli.main(argv + ["--out", str(runs_dir / label)])


def write_tree(tree: Path, runs_dir: Path) -> None:
    """``write_runs`` in a fresh process that imports ``tree``'s ``dealopt``."""
    code = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import same_outputs; same_outputs.write_runs(Path(sys.argv[2]), Path(sys.argv[3]))")
    subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent),
                    str(runs_dir), str(tree / "src")],
                   env={**os.environ, "PYTHONPATH": str(tree / "src"),
                        "PYTHONDONTWRITEBYTECODE": "1"},
                   check=True, stdout=subprocess.DEVNULL)


def compare(parent: Path, change: Path) -> tuple:
    """(equal, different, missing) file counts of two run directories; a
    file on one side only is missing."""
    def files(root):
        return {path.relative_to(root) for path in root.rglob("*") if path.is_file()}
    ours, theirs = files(parent), files(change)
    both = ours & theirs
    equal = sum((parent / rel).read_bytes() == (change / rel).read_bytes() for rel in both)
    return equal, len(both) - equal, len(ours ^ theirs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, help="directory for the trees and runs")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if out.exists():
        print(f"{out} exists; give a directory that does not", file=sys.stderr)
        return 1
    for side, rev in zip(SIDES, (args.parent, args.change)):
        commit, tree = export(rev, out / side)
        print(f"{side}: {commit}", flush=True)
        write_tree(tree, out / side / "runs")
    same = True
    for label, _ in RUNS:
        equal, different, missing = compare(*(out / side / "runs" / label for side in SIDES))
        same = same and equal > 0 and different == missing == 0
        print(f"{label}: {equal} equal, {different} different, {missing} missing")
    print("same outputs" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
