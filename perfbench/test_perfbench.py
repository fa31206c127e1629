"""Tests of the benchmark itself: inputs, metric names, tracing, and smoke runs.

Run from the repository root with ``python3 -m pytest perfbench``.  The smoke
runs start fresh interpreters and take about half a minute in all.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, run, tracing

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["verdicts", "dodgson"])
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    batch = inputs.BATCHES[workload]
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / sub).mkdir()
        inputs.write_inputs(batch(seed, 3)[0], tmp_path / sub)

    def contents(sub):
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    assert contents("a") == contents("b")
    assert contents("a") != contents("c")
    assert batch(7, 3)[1] == batch(7, 3)[1]


def test_every_metric_has_a_valid_name_and_unit():
    bench = _benchmark()
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert len(declared) == len(bench["end_to_end"]) + len(bench["per_layer"])
    for name, unit in declared.items():
        assert NAME_RE.fullmatch(name), name
        assert unit, name
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (unit, _needs) in tracing.LAYER_METRICS.items()
    }
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_thirty_specs_has_thirty_distinct_specs():
    specs = inputs.thirty_specs([4, 1, 9, 7, 3])
    assert len(specs) == len(set(specs)) == 30


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 2001)]) == (99.0, 1980.0, 20)
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail_percentile([1.0, 3.0, 2.0]) == (100.0, 3.0, 0)


def test_missing_wrapped_name_is_reported_missing(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    gone = ("fivesplit.splitting", "no_such_entry_point", "splitting.engine", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [gone])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    values = tracing.layer_metrics(tracer, None)
    assert values["splitting.engine_s"] is None
    assert values["splitting.engine_calls"] is None
    assert values["splitting.structures"] is None
    assert values["kirchhoff.dodgson_calls"] == 0


@pytest.mark.parametrize("workload", ["verdicts", "dodgson"])
def test_traced_and_untraced_outputs_agree(workload):
    traced = run._run_pass(workload, 3, 0, trace=True)
    plain = run._run_pass(workload, 3, 0)
    assert traced["digest"] == plain["digest"]
    assert traced["layers"] is not None and plain["layers"] is None
    assert traced["failed"] == plain["failed"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_no_failures(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
