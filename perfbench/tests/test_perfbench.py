"""The benchmark's own tests, on tiny variants of all three workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _registry_off():
    yield
    obs_metrics.disable()


def _bench(*argv: str) -> "tuple[int, dict, str]":
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "tiny", *argv],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    return proc.returncode, json.loads(last), proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result, out = _bench("--workload", workload, "--seed", "3",
                               "--seconds", "0", "--trace", str(trace))
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert result["metrics"]["ok_share"]["value"] == 1.0


def test_units_in_spec_match_the_command():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_fingerprint_not_shape(workload):
    a = workloads.prepare(workload, "tiny", 1)
    b = workloads.prepare(workload, "tiny", 2)
    again = workloads.prepare(workload, "tiny", 1)
    assert workloads.instance_fingerprint(a.instance) != workloads.instance_fingerprint(b.instance)
    assert workloads.instance_fingerprint(a.instance) == workloads.instance_fingerprint(again.instance)
    assert workloads.instance_shape(a.instance) == workloads.instance_shape(b.instance)


def test_gate_rejects_an_infeasible_serve_trajectory():
    work = workloads.prepare("diurnal-k1", "tiny", 1)
    work.run()
    assert work.score().problems == []
    work.report.trajectory.s[5] = 0.0  # slot 5 no longer covers its demand
    scored = work.score()
    assert scored.failed == 1
    assert any("infeasible" in p for p in scored.problems)


def test_gate_rejects_an_infeasible_algorithm_run():
    work = workloads.prepare("paper-k2", "tiny", 1)
    work.run()
    assert work.score().failed == 0
    work.trajectories["rhc"].y[:] = 0.0  # nothing routed over any link
    scored = work.score()
    assert scored.failed == 1
    assert any(p.startswith("rhc infeasible") for p in scored.problems)


def test_gate_rejects_differing_digests():
    base = {"problems": [], "fingerprint": "f", "digest": "a"}
    assert run.gate([base, dict(base)]) == []
    assert any("digests differ" in p for p in run.gate([base, {**base, "digest": "b"}]))


def test_self_times_partition_the_root_span():
    rec = layers.SpanRecorder()

    def leaf():
        time.sleep(0.002)

    traced_leaf = rec.wrap(leaf, "leaf", True)

    def through():  # transparent: its children belong to its caller
        time.sleep(0.001)
        traced_leaf()

    traced_through = rec.wrap(through, "through", False)

    def outer():
        time.sleep(0.001)
        traced_through()
        traced_leaf()

    rec.root(rec.wrap(outer, "outer", True))
    by_name = {}
    for name, _, _, start, end, own, _ in rec.spans:
        by_name.setdefault(name, []).append((end - start, own))
    root_duration = by_name[layers.ROOT][0][0]
    total_self = sum(own for spans in by_name.values() for _, own in spans if own is not None)
    assert total_self == pytest.approx(root_duration, rel=1e-9)
    assert by_name["through"][0][1] is None
    (outer_duration, outer_self), = by_name["outer"]
    leaves = sum(d for d, _ in by_name["leaf"])
    assert outer_self == pytest.approx(outer_duration - leaves, rel=1e-9)


def test_command_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "child.py", "workloads.py", "layers.py"):
        (bench / name).write_text((BENCH / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-k2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
