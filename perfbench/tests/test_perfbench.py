"""Tests of the benchmark itself, on small landscapes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TOTAL = 30
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _workload(name: str, seed: int, tmp_path: Path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](seed, str(workdir), TOTAL)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed(name, tmp_path):
    timed = run.timed_run(_workload(name, 3, tmp_path), seconds=0.1)
    traced = run.traced_run(_workload(name, 3, tmp_path),
                            tmp_path / "trace.jsonl")
    for result, group in ((timed, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
        for entry in SPEC[group]:
            assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    for entry in SPEC["end_to_end"]:
        assert timed["metrics"][entry["name"]]["value"] > 0


def test_wrappers_are_gone_during_timed_runs(tmp_path):
    seen = []

    class Spy(workloads.SweepCold):
        def op(self):
            seen.append(layers.find_wrappers())
            return super().op()

    run.traced_run(Spy(5, str(tmp_path), TOTAL), tmp_path / "trace.jsonl")
    assert seen[0] == []          # the bare operation of the traced run
    assert seen[1] != []          # the traced operation
    seen.clear()
    run.timed_run(Spy(5, str(tmp_path), TOTAL), seconds=0.1)
    assert seen and all(wrappers == [] for wrappers in seen)

    from repro.core import pipeline
    from repro.utils import keccak
    assert pipeline.keccak256 is keccak.keccak256
    assert not hasattr(keccak.keccak256, layers.MARKER)


def test_probes_cover_every_alias():
    tracer = layers.Tracer()
    with tracer:
        from repro.core import pipeline
        from repro.corpus import generator
        assert hasattr(pipeline.keccak256, layers.MARKER)
        assert generator.keccak256 is pipeline.keccak256
        pipeline.keccak256(b"abc")
    assert tracer.totals("run")["keccak"]["calls"] == 1
    assert layers.find_wrappers() == []


def test_traced_counts_repeat_for_one_seed(tmp_path):
    def counts():
        result = run.traced_run(_workload("sweep_incremental", 7, tmp_path),
                                tmp_path / "trace.jsonl")
        return {name: value["value"]
                for name, value in result["metrics"].items()
                if value["unit"] in ("count", "bytes")
                or name.startswith(("dedup.", "keccak.distinct"))}

    first = counts()
    assert first == counts()
    assert first["keccak.calls"] > 0 and first["store.commits"] > 0


def test_serve_hits_hashes_nothing(tmp_path):
    result = run.traced_run(_workload("serve_hits", 7, tmp_path),
                            tmp_path / "trace.jsonl")
    assert result["metrics"]["keccak.calls"]["value"] == 0
    assert result["metrics"]["store.point_read_s"]["value"] > 0


def test_a_different_seed_changes_the_inputs(tmp_path):
    one, two = (_workload("serve_hits", seed, tmp_path) for seed in (1, 2))
    worlds = [workload.generate() for workload in (one, two)]
    codes = [[world.chain.state.get_code(address)
              for address in world.addresses()] for world in worlds]
    assert codes[0] != codes[1]
    items = list(range(100))
    assert one.rng.sample(items, 100) != two.rng.sample(items, 100)


def test_a_wrong_answer_fails_the_run(tmp_path):
    class Broken(workloads.SweepCold):
        def op(self):
            outcome = super().op()
            outcome.report.analyses.popitem()
            return outcome

    result = run.timed_run(Broken(5, str(tmp_path), TOTAL), seconds=0.1)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1


def test_command_prints_one_result_line():
    command = [sys.executable, str(BENCH / "run.py"), "--workload",
               "sweep_cold", "--seed", "4", "--seconds", "0.1",
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
