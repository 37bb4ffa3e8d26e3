"""The benchmark's own tests: determinism, correctness checks that bite,
traced accounting, and agreement with BENCHMARK.json.

Run with ``python -m pytest perfbench -q`` from the repository root.
Rounds here are shrunk (few sessions, few ops) so the suite stays fast;
the command line always runs the full sizes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.linkage import SimLinkage

from perfbench import run as bench
from perfbench.trace import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SMALL = {"sessions": 96, "ops": 64}
WORKLOADS = ["access_hot", "session_churn", "revoke_storm"]


def _counts(rnd):
    """Every count a round yields that must replay exactly."""
    counts = dict(rnd.delta)
    counts["revoke_vt_ms"] = list(rnd.samples.extra.get("revoke_vt_ms", []))
    counts["ops"] = rnd.samples.ops
    counts["failed"] = rnd.samples.failed
    if rnd.tracer is not None:
        counts["calls"] = rnd.tracer.layer_calls()
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_counts(workload):
    first = bench.Round(workload, seed=5, traced=True, **SMALL)
    second = bench.Round(workload, seed=5, traced=True, **SMALL)
    assert _counts(first) == _counts(second)
    other = bench.Round(workload, seed=6, traced=True, **SMALL)
    assert other.samples.ops == first.samples.ops


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_is_correct(workload):
    rnd = bench.Round(workload, seed=1, traced=False, **SMALL)
    assert rnd.samples.failed == 0, rnd.samples.failures
    assert rnd.breaches == []
    assert rnd.unaccounted == 0
    assert rnd.samples.ops == SMALL["ops"]
    if workload != "access_hot":
        # every revocation flipped the custode record in two 10 ms hops
        assert rnd.samples.extra["revoke_vt_ms"]
        assert max(rnd.samples.extra["revoke_vt_ms"]) < 1000.0


@pytest.mark.parametrize("workload", ["session_churn", "revoke_storm"])
def test_lost_revocations_fail_the_ops(workload, monkeypatch):
    """A linkage that never publishes leaves custode records TRUE: every
    revocation misses its deadline and counts as failed."""
    monkeypatch.setattr(SimLinkage, "publish", lambda *args, **kwargs: None)
    rnd = bench.Round(workload, seed=1, traced=False, sessions=16, ops=4)
    assert rnd.samples.failed == 4


def test_traced_accounting_adds_up():
    rounds = [
        bench.Round("session_churn", seed=2, traced=False, **SMALL),
        bench.Round("session_churn", seed=2, traced=True, **SMALL),
    ]
    values, error = bench.per_layer(rounds)
    assert error <= bench.ACCOUNTING_TOLERANCE
    assert {name for name, _, _ in bench.per_layer_spec()} == set(values)
    tracer = rounds[1].tracer
    assert tracer.depth == 0
    attributed = sum(tracer.layer_self_s().values())
    unattributed = values["trace.unattributed_share"] * rounds[1].samples.wall_s
    assert attributed + unattributed == pytest.approx(
        rounds[1].samples.wall_s, rel=bench.ACCOUNTING_TOLERANCE
    )
    # every layer the request path crosses on a turnover shows up
    for layer in LAYERS:
        if layer != "runtime.heartbeat":
            assert values[f"{layer}.calls_per_op"] > 0, layer


def test_tracing_is_removed_after_a_traced_round():
    before = {(cls, name): cls.__dict__[name]
              for points in LAYERS.values() for cls, name in points}
    bench.Round("access_hot", seed=1, traced=True, **SMALL)
    after = {(cls, name): cls.__dict__[name]
             for points in LAYERS.values() for cls, name in points}
    assert before == after


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # revoke_storm runs from the command line but is not gated (README)
    assert [w["name"] for w in spec["workloads"]] == ["access_hot", "session_churn"]
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == bench.END_TO_END
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == bench.per_layer_spec()


def test_cli_prints_one_json_result_and_replays_counts(tmp_path):
    """Two processes with different hash seeds: same seed, same counts."""
    outputs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "revoke_storm",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _, _ in bench.END_TO_END}
        outputs.append([line for line in lines if line.startswith(
            ("wire_bytes_per_op", "messages_per_op", "events_per_op",
             "appends_per_op", "revoke_vt"))])
    assert outputs[0] == outputs[1] and len(outputs[0]) == 6


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "access_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
