"""Committed benchmark records: each BENCH_*.json at the repository root holds
the parent's and the change's medians and quartiles of bench/run.py's
end-to-end metrics, per workload, with both commits, the Python version and
whether a bytecode cache existed when the runs started."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_records_parse_and_name_their_runs():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in contract["workloads"]}
    metrics = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    for path in records:
        record = json.loads(path.read_text())
        assert {"command", "python", "bytecode_cache", "parent", "change", "workloads"} <= set(record), path
        commits = [record[side]["commit"] for side in ("parent", "change")]
        assert all(re.fullmatch("[0-9a-f]{40}", c) for c in commits) and commits[0] != commits[1], path
        assert re.fullmatch(r"3\.\d+\.\d+", record["python"]) and isinstance(record["bytecode_cache"], bool), path
        assert record["workloads"] and set(record["workloads"]) <= workloads, path
        for name, workload in record["workloads"].items():
            assert workload["pairs"] >= 1 and len(workload["seeds"]) == workload["pairs"], (path, name)
            assert set(workload["metrics"]) == set(metrics), (path, name)
            for metric, row in workload["metrics"].items():
                assert row["unit"] == metrics[metric], (path, name, metric)
                assert 0 <= row["change_wins"] <= workload["pairs"], (path, name, metric)
                for side in ("parent", "change"):
                    q = row[side]
                    assert q["q1"] <= q["median"] <= q["q3"], (path, name, metric, side)
