"""The paired benchmark report of `scripts/bench_pairs.py`: one replay pair
at one second per run, on two copies of this checkout."""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
END_TO_END = ("setup_s", "op_ms_p50", "op_ms_p95", "peak_rss_mb")


def _copy(dst: pathlib.Path) -> pathlib.Path:
    skip = shutil.ignore_patterns("__pycache__", "out", "*.pyc")
    for d in ("src", "perfbench"):
        shutil.copytree(ROOT / d, dst / d, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    return dst


def test_one_replay_pair_writes_a_report_of_the_documented_shape(tmp_path):
    parent, change = _copy(tmp_path / "parent"), _copy(tmp_path / "change")
    out = tmp_path / "BENCH_0.json"
    argv = [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(parent), str(change), "--pr", "0",
            "--workload", "replay", "--seed", "21", "--pairs", "1", "--seconds", "1", "--out", str(out)]
    r = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["pr"] == 0
    (inv,) = report["invocations"]
    assert inv["workloads"] == ["replay"] and inv["seeds"] == [21] and inv["pairs"] == 1
    assert set(inv["commits"]) == {"parent", "change"}
    # one pair, the parent first
    assert [run["side"] for run in report["runs"]] == ["parent", "change"]
    for run in report["runs"]:
        assert run["workload"] == "replay" and run["seed"] == 21 and run["trace"] == 0 and run["pair"] == 0
        assert run["correct"] is True and run["failed"] == 0 and run["attempted"] > 0
        assert set(END_TO_END) <= set(run["metrics"])
        assert all(isinstance(v, float) for v in run["metrics"].values())
    rows = {row["metric"]: row for row in report["summary"]}
    assert set(END_TO_END) <= set(rows)
    for name in END_TO_END:
        row = rows[name]
        assert (row["workload"], row["seed"], row["trace"], row["better"], row["pairs"]) == ("replay", 21, 0, "lower", 1)
        parent_value, change_value = (run["metrics"][name] for run in report["runs"])
        assert row["parent_median"] == parent_value and row["change_median"] == change_value
        assert row["parent_iqr"] == 0.0
        assert row["change_wins"] == int(change_value < parent_value)
        assert row["gap_exceeds_parent_iqr"] == (change_value != parent_value)
        assert row["change_frac"] == change_value / parent_value - 1.0
