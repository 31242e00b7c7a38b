"""Smoke tests of the benchmark on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import bench  # noqa: E402
import inputs  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_N = {"analyze-random": 8, "verify-random": 7, "colored-convex": 3, "rational-grid": 7}
SEED = 3


@pytest.fixture(autouse=True)
def one_child_per_step(monkeypatch):
    # Tiny inputs would otherwise repeat every step for MIN_STEP_S.
    monkeypatch.setattr(bench, "MIN_STEP_S", 0)


def tiny(name: str) -> inputs.Workload:
    return dataclasses.replace(inputs.WORKLOADS[name], n=TINY_N[name])


def test_spec_names_the_workloads_and_metrics_the_code_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", list(TINY_N))
def test_tiny_run_emits_every_metric_and_repeats_its_counts(name):
    workload = tiny(name)
    plain = bench.run_workload(workload, SEED, seconds=0, traced=False)
    traced = [bench.run_workload(workload, SEED, seconds=0, traced=True) for _ in range(2)]
    for res, names in ((plain, bench.END_TO_END), (traced[0], bench.PER_LAYER)):
        assert res.correct, res.problems
        summary = res.summary()
        assert summary["failed"] == 0 and summary["attempted"] >= 1
        assert {k: m["unit"] for k, m in summary["metrics"].items()} == names
        assert all(isinstance(m["value"], (int, float)) for m in summary["metrics"].values())
    assert all(plain.value(name) > 0 for name in bench.END_TO_END)
    counts = [
        {k: m["value"] for k, m in res.summary()["metrics"].items() if not k.endswith("_s")}
        for res in traced
    ]
    assert counts[0] == counts[1]
    if name == "analyze-random":
        assert counts[0]["depth.sweeps_per_pair"] == 1.0
    if name == "verify-random":
        assert counts[0]["checks.sweeps_per_pair"] == 4.0
        assert counts[0]["checks.triple_counts_calls"] == 4


def test_gate_trips_when_jobs2_report_differs(monkeypatch):
    real = bench.Launcher.run

    def corrupting(self, args, *rest):
        child = real(self, args, *rest)
        if args[-2:] == ["--jobs", "2"]:
            child = dataclasses.replace(
                child, stdout=child.stdout.replace(b'"schema": 1', b'"schema": 2', 1)
            )
        return child

    monkeypatch.setattr(bench.Launcher, "run", corrupting)
    res = bench.run_workload(tiny("analyze-random"), SEED, seconds=0, traced=False)
    assert res.attempted == 2 and res.failed == 1
    assert res.summary()["correct"] is False
    assert res.value("error_rate") == 0.5


def test_gate_trips_on_digest_mismatch_and_exits_nonzero(monkeypatch, capsys):
    workload = tiny("verify-random")
    monkeypatch.setitem(inputs.WORKLOADS, workload.name, workload)
    key = inputs.digest_key(workload, SEED)
    monkeypatch.setattr(inputs, "load_digests", lambda: {key: {"verify": "0" * 64}})
    code = run.main(["--workload", workload.name, "--seed", str(SEED), "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] == 1


def test_recorded_digests_match_the_default_seed_reports():
    # Only the cheap workload here; the benchmark checks all of them per run.
    res = bench.run_workload(inputs.WORKLOADS["colored-convex"], run.DEFAULT_SEED, 0, False)
    assert res.correct, res.problems


def test_exits_nonzero_without_printing_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "analyze-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
