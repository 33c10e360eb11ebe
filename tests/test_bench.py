"""The pair runner of bench/run.py: its statistics, and two workers that
time one cheap row on trees of this checkout, with no git involved."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROW = "monodromy/taylor_n3"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_stats_count_ties_for_neither_side(bench):
    # ratios 0.5, 1.0 (a tie), 2.0, 0.5, 0.5: the change wins three pairs
    stats = bench.pair_stats([2.0, 4.0, 1.0, 5.0, 3.0], [1.0, 4.0, 2.0, 2.5, 1.5])
    assert stats == {"ratio": 0.5, "ratio_q": [0.5, 1.0], "wins": 3, "pairs": 5}
    assert bench.pair_stats([3.0, 1.0], [1.5, 4.0]) == {
        "ratio": 2.25, "ratio_q": [1.375, 3.125], "wins": 1, "pairs": 2}
    assert bench.pair_stats([2.0], [2.0]) == {
        "ratio": 1.0, "ratio_q": [1.0, 1.0], "wins": 0, "pairs": 1}


def test_one_row_answers_on_both_sides(bench, tmp_path, monkeypatch):
    # the base side on a copy of this checkout's hillgap; two pairs run in
    # four worker processes, the base tree's started first, then second
    shutil.copytree(ROOT / "src" / "hillgap", tmp_path / "src" / "hillgap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    trees, started, worker = {"base": str(tmp_path), "change": str(ROOT)}, [], bench._worker

    def spy(tree):
        started.append((tree, worker(tree)))
        return started[-1][1]

    monkeypatch.setattr(bench, "_worker", spy)
    report = bench.compare(trees, 2, [ROW])
    assert [tree for tree, _ in started] == [trees["base"], trees["change"], trees["change"],
                                             trees["base"]]
    assert len({process.pid for _, process in started}) == 4
    assert all(process.returncode == 0 for _, process in started)
    for side in ("base", "change"):
        assert report[side] == {"hillgap": str(Path("src", "hillgap", "__init__.py"))}
        times = report["rows"][ROW][side]
        assert "error" not in times
        low, high = times["warm_q_ms"]
        assert times["first_ms"] > 0 and 0 < low <= times["warm_ms"] <= high
    row = report["rows"][ROW]
    assert row["pairs"] == 2 and 0 <= row["wins"] <= 2 and row["ratio"] > 0


def test_a_row_that_raises_on_one_side_is_that_sides_error(bench, tmp_path):
    # a copy of this checkout's hillgap whose monodromy raises
    shutil.copytree(ROOT / "src" / "hillgap", tmp_path / "src" / "hillgap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "hillgap" / "floquet.py", "a") as fh:
        fh.write("\n\ndef monodromy(*args, **kwargs):\n"
                 "    raise AttributeError('no monodromy in this tree')\n")
    report = bench.compare({"base": str(tmp_path), "change": str(ROOT)}, 1, [ROW])
    row = report["rows"][ROW]
    assert row["base"] == {"error": "AttributeError: no monodromy in this tree"}
    assert row["change"]["warm_ms"] > 0 and "error" not in row["change"]
    assert "ratio" not in row and "wins" not in row
