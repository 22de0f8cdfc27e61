"""Smoke tests of the repo benchmark — run explicitly: ``pytest benchmarks/e2e``.

(Tier-1 ``testpaths`` stays ``tests``.)  Each workload runs at 1/50 scale
for one second and must emit every declared metric, by name, with a finite
value and its unit; ``BENCHMARK.json`` must say what ``catalogue.py`` says.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from catalogue import END_TO_END, PER_LAYER, WORKLOADS, manifest  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOAD_NAMES = [name for name, _why in WORKLOADS]


def _load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_matches_catalogue():
    on_disk = _load_manifest()
    assert on_disk == manifest(run_seconds=on_disk["run_seconds"])


def test_manifest_respects_the_contract():
    m = _load_manifest()
    assert set(m) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16
    assert 1 <= len(m["per_layer"]) <= 128
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    names = [w["name"] for w in m["workloads"]]
    names += [e["name"] for e in m["end_to_end"]] + [p["name"] for p in m["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    for w in m["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for metric in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {e["name"]: e["bound"] for e in m["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for path in m["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--scale", "0.02", "--trace", str(trace),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["failed"] == 0 and record["attempted"] >= 1
    return record["metrics"]


def _assert_metrics(metrics: dict, declared: tuple) -> None:
    units = {name: unit for name, unit, *_ in declared}
    assert set(metrics) == set(units)
    for name, cell in metrics.items():
        assert cell["unit"] == units[name], name
        assert math.isfinite(cell["value"]), name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_run_emits_every_metric(workload):
    metrics = _run(workload, trace=0)
    _assert_metrics(metrics, END_TO_END)
    assert all(cell["value"] > 0 for cell in metrics.values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric_and_a_span_file(workload):
    _assert_metrics(_run(workload, trace=1), PER_LAYER)
    path = os.path.join(HERE, "results", f"trace_{workload}.jsonl")
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans, "no spans written"
    for span in spans:
        assert set(span) == {"id", "name", "start_ns", "end_ns", "parent", "request"}
        assert span["end_ns"] >= span["start_ns"]
        assert span["request"] is not None
    children = [s for s in spans if s["parent"] is not None]
    assert children, "no span has a parent"
    by_id = {s["id"]: s for s in spans}
    assert all(s["request"] == by_id[s["parent"]]["request"] for s in children)


def test_exits_non_zero_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to run."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "lib_filter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
