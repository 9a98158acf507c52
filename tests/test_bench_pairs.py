"""scripts/bench_pairs.py with its git export and perfbench runs stubbed."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.fixture
def stubbed(monkeypatch):
    """The checkouts each side was exported to and the (side, workload) of
    each run in order.  The change's wall_s is lower than the parent's in
    pairs 0-6 only, and its solved_frac higher in pair 9 only; every other
    metric ties."""
    runs = []
    exports = []

    def export(rev, work):
        exports.append(rev)
        return f"{rev}-commit", work / rev

    def run_once(checkout, workload):
        side = checkout.parent.name     # export's work directory names the side
        pair = sum(s == side and w == workload for s, w in runs)
        runs.append((side, workload))
        metrics = dict.fromkeys(METRICS, 1.0)
        metrics["wall_s"] = 1.0 + pair + (0.5 if side == "parent" else 0.0) * (pair < 7)
        metrics["solved_frac"] = 0.9 if side == "change" and pair == 9 else 0.5
        return {"correct": side == "parent" or pair != 3, "failed": int(side == "change"),
                "metrics": metrics, "environment": {"python": "3"}}
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return exports, runs


def test_summary_gives_inclusive_quartiles():
    assert bench_pairs.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_pairs.summary([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75, "n": 2}


def test_pairs_alternate_and_count_the_changes_wins(tmp_path, stubbed):
    exports, runs = stubbed
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["PARENT", "CHANGE", "--workload", "sec51", "--workload",
                             "bhippa-n100", "--work", str(tmp_path), "--out", str(out)]) == 0
    assert exports == ["PARENT", "CHANGE"]
    order = [side for side, _ in runs]
    pairs = bench_pairs.PAIRS
    one = [s for i in range(pairs)
           for s in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
    assert order == one + one
    assert [w for _, w in runs] == ["sec51"] * 2 * pairs + ["bhippa-n100"] * 2 * pairs
    doc = json.loads(out.read_text())
    assert doc["commits"] == {"parent": "PARENT-commit", "change": "CHANGE-commit"}
    entry = doc["workloads"]["sec51"]
    assert entry["change_better_in_pairs"] == {
        **dict.fromkeys(METRICS, 0), "wall_s": 7, "solved_frac": 1}
    assert entry["parent"]["correct"] and not entry["change"]["correct"]
    assert (entry["parent"]["failed"], entry["change"]["failed"]) == (0, pairs)
    assert entry["change"]["metrics"]["wall_s"] == bench_pairs.summary(
        [1.0 + i for i in range(pairs)])
    assert [r["wall_s"] for r in entry["parent"]["runs"]] == [
        1.0 + i + 0.5 * (i < 7) for i in range(pairs)]


def test_an_existing_out_is_refused_before_anything_runs(tmp_path, stubbed, capsys):
    exports, runs = stubbed
    out = tmp_path / "BENCH.json"
    out.write_text("kept\n")
    assert bench_pairs.main(["PARENT", "CHANGE", "--workload", "sec51",
                             "--work", str(tmp_path / "work"), "--out", str(out)]) == 1
    assert out.read_text() == "kept\n"
    assert exports == runs == [] and not (tmp_path / "work").exists()
    assert "exists" in capsys.readouterr().err
