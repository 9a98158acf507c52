"""scripts/same_outputs.py with its git export and run writing stubbed."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs",
                                               ROOT / "scripts" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


@pytest.fixture
def stubbed(monkeypatch):
    """The revisions exported and the trees written, in order.  Every run
    writes ``a.csv``, ``sub/b.json`` and ``config.json``; ``edits`` maps
    (side, label) to files to write over or delete (None)."""
    exports, writes, edits = [], [], {}

    def export(rev, work):
        exports.append(rev)
        return f"{rev}-commit", work / rev

    def write_tree(tree, runs_dir):
        side = tree.parent.name
        writes.append(side)
        for label, _ in same_outputs.RUNS:
            run = runs_dir / label
            (run / "sub").mkdir(parents=True)
            (run / "a.csv").write_text("k,f\n0,1.0\n")
            (run / "sub" / "b.json").write_text("{}\n")
            (run / "config.json").write_text('{"run": {"eps": 1e-06}}\n')
            for name, text in edits.get((side, label), {}).items():
                if text is None:
                    (run / name).unlink()
                else:
                    (run / name).write_text(text)
    monkeypatch.setattr(same_outputs, "export", export)
    monkeypatch.setattr(same_outputs, "write_tree", write_tree)
    return exports, writes, edits


def test_the_runs_are_the_presets_the_bhippa_seeds_and_the_single_runs():
    labels = [label for label, _ in same_outputs.RUNS]
    assert len(set(labels)) == len(labels) == 3 + 1 + 40 + 40 + 10
    assert labels[:4] == ["sec51-seed0", "sec51-seed2", "sec51-seed13", "sec52-seed0"]
    assert labels[4:44] == [f"sec53-seed{s}" for s in range(40)]
    assert labels[44:84] == [f"bhippa-seed{s}" for s in range(7, 47)]
    assert labels[84:] == [label for label, _ in same_outputs.SINGLE_RUNS]
    assert dict(same_outputs.RUNS)["replay-deal-a"] == [
        "run", "--problem", "leastp", "--m", "40", "--n", "8", "--seed", "1",
        "--solver", "deal-a", "--direction", "bb1", "--eps", "1e-30", "--max-iter", "3000"]
    assert dict(same_outputs.RUNS)["bhippa-seed7"] == [
        "run", "--problem", "powerabs", "--n", "100", "--s", "4", "--seed", "7",
        "--x0-seed", "7", "--solver", "bhippa"]
    # p = 2, whose envelope penalty takes the BLAS dot of d @ d
    assert dict(same_outputs.RUNS)["bhippa-n100-s3-p2"] == [
        "run", "--problem", "powerabs", "--n", "100", "--s", "3", "--order", "2",
        "--solver", "bhippa"]
    assert dict(same_outputs.RUNS)["sec51-seed13"] == ["sweep", "--preset", "sec51",
                                                       "--seed", "13"]


def test_equal_trees_exit_0(tmp_path, stubbed, capsys):
    exports, writes, _ = stubbed
    assert same_outputs.main(["PARENT", "CHANGE", "--out", str(tmp_path / "out")]) == 0
    assert exports == ["PARENT", "CHANGE"] and writes == ["parent", "change"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["parent: PARENT-commit", "change: CHANGE-commit"]
    assert lines[2:-1] == [f"{label}: 3 equal, 0 different, 0 missing"
                           for label, _ in same_outputs.RUNS]
    assert lines[-1] == "same outputs"


def test_a_different_or_missing_file_exits_1(tmp_path, stubbed, capsys):
    _, _, edits = stubbed
    edits["change", "sec53-seed4"] = {"a.csv": "k,f\n0,1.5\n"}
    edits["parent", "bhippa-seed9"] = {"sub/b.json": None, "extra.csv": "k\n"}
    # a run directory depends on its config alone: config.json is compared
    # like every other file
    edits["change", "sec51-seed2"] = {"config.json": '{"run": {"eps": 1e-08}}\n'}
    assert same_outputs.main(["PARENT", "CHANGE", "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "sec53-seed4: 2 equal, 1 different, 0 missing" in lines
    assert "sec51-seed2: 2 equal, 1 different, 0 missing" in lines
    assert "bhippa-seed9: 2 equal, 0 different, 2 missing" in lines
    assert "sec53-seed5: 3 equal, 0 different, 0 missing" in lines
    assert lines[-1] == "outputs differ"


def test_a_run_that_wrote_nothing_exits_1(tmp_path, stubbed, capsys):
    _, _, edits = stubbed
    for side in same_outputs.SIDES:
        edits[side, "sec52-seed0"] = {"a.csv": None, "sub/b.json": None, "config.json": None}
    assert same_outputs.main(["PARENT", "CHANGE", "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "sec52-seed0: 0 equal, 0 different, 0 missing" in lines
    assert lines[-1] == "outputs differ"


def test_an_existing_out_is_refused_before_anything_runs(tmp_path, stubbed, capsys):
    exports, writes, _ = stubbed
    out = tmp_path / "out"
    out.mkdir()
    assert same_outputs.main(["PARENT", "CHANGE", "--out", str(out)]) == 1
    assert exports == writes == [] and list(out.iterdir()) == []
    assert "exists" in capsys.readouterr().err


def test_write_runs_writes_each_run_directory(tmp_path, monkeypatch):
    # one bhippa run of the list, written with this checkout's dealopt
    monkeypatch.setattr(same_outputs, "RUNS", [("bhippa-seed7",
                                                dict(same_outputs.RUNS)["bhippa-seed7"])])
    same_outputs.write_runs(tmp_path, ROOT / "src")
    assert sorted(path.name for path in (tmp_path / "bhippa-seed7").iterdir()) == [
        "BHIPPA.certificates.json", "BHIPPA.csv", "BHIPPA.json", "config.json",
        "problem.json", "series.csv", "summary.json"]


def test_write_runs_refuses_a_dealopt_from_another_tree(tmp_path):
    with pytest.raises(RuntimeError, match="dealopt was imported from"):
        same_outputs.write_runs(tmp_path / "runs", tmp_path)
    assert not (tmp_path / "runs").exists()
