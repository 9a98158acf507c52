"""Whether two commits write the same run directories, byte for byte.

    python3 scripts/same_outputs.py PARENT CHANGE --out DIR

Each commit is exported with ``git archive`` into ``DIR/<side>/<commit>``.  One
Python process per tree, importing ``dealopt`` from that tree's ``src/``,
writes every run of ``RUNS`` through ``dealopt.cli.main`` into
``DIR/<side>/runs``: ``deal sweep`` of ``sec51`` at seeds 0, 2 and 13, of
``sec52`` at seed 0 and of ``sec53`` at seeds 0-39, and ``deal run`` of
``bhippa`` on powerabs with n = 100, s = 4 at seeds 7-46.  For each run it
prints how many files are equal, different and missing on one side,
``config.json`` included.  It exits 1 if any file differs or is missing, or
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
RUNS = ([(f"{preset}-seed{seed}", ["sweep", "--preset", preset, "--seed", str(seed)])
         for preset, seeds in (("sec51", (0, 2, 13)), ("sec52", (0,)), ("sec53", range(40)))
         for seed in seeds]
        + [(f"bhippa-seed{seed}", ["run", "--problem", "powerabs", "--n", "100", "--s", "4",
                                   "--seed", str(seed), "--x0-seed", str(seed),
                                   "--solver", "bhippa"])
           for seed in range(7, 47)])


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
