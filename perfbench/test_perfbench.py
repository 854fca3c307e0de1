"""Fast tests of the benchmark itself:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from harness import (REFERENCE_JOB, ROOT, SIEVE_ENV, Outcome, check_outcome, child_env,
                     load_answers, reference_job)
from run import END_TO_END_UNITS
from tracer import LAYER_METRICS, request_metrics
from workloads import WORKLOADS, menu, request_key, round_requests

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_rounds_repeat_per_seed_and_come_from_the_menu():
    for workload in WORKLOADS:
        items = set(menu(workload))
        for seed in range(5):
            first = [round_requests(workload, seed, i) for i in range(3)]
            assert first == [round_requests(workload, seed, i) for i in range(3)]
            assert all(set(r) <= items for r in first)
        assert len({tuple(round_requests(workload, s, 0)) for s in range(20)}) > 1


def test_list_mode_prints_the_seed_requests():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "closed", "--seed", "9",
         "--list", "2"], capture_output=True, text=True, check=True).stdout
    listed = [json.loads(line) for line in out.splitlines()]
    want = [{"round": i, "argv": list(a)} for i in range(2)
            for a in round_requests("closed", 9, i)]
    assert listed == want


def test_every_menu_request_has_a_recorded_answer():
    answers = load_answers()
    for workload in WORKLOADS:
        for argv in menu(workload):
            assert argv[0] == "verify" or request_key(argv) in answers, argv


def _outcome(argv, result, returncode=0):
    doc = {"command": argv[0], "inputs": {}, "result": result, "elapsed_ms": 5}
    return Outcome(argv=argv, wall_s=1.0, cpu_s=1.0, maxrss_kb=1, returncode=returncode,
                   stdout=json.dumps(doc), stderr="")


def test_checker_accepts_recorded_and_rejects_tampered_answers():
    answers = load_answers()
    argv = ("volume", "--locus", "gothic", "--dmax", "2000", "--mode", "direct",
            "--surrogate", "main")
    good = answers[request_key(argv)]
    assert check_outcome(_outcome(argv, good), answers) is None
    assert check_outcome(_outcome(argv, good, returncode=1), answers)
    tampered = dict(good, value=good["value"] * (1 + 1e-12))
    assert check_outcome(_outcome(argv, tampered), answers)
    sk = ("sk", "--k", "1", "--D", "100000")
    assert check_outcome(_outcome(sk, answers[request_key(sk)] + 1), answers)


def test_checker_applies_the_volume_tolerances():
    argv = ("volume", "--locus", "h2", "--dmax", "4000", "--mode", "direct")
    answers = load_answers()
    off = dict(answers[request_key(argv)], relative_error=0.011)
    assert "relative error" in check_outcome(_outcome(argv, off), {request_key(argv): off})


def test_checker_needs_every_verify_check_to_pass():
    argv = ("verify", "--suite", "ideals")
    checks = [{"name": "a", "suite": "ideals", "ok": True, "elapsed_s": 0.1, "detail": ""}]
    passing = {"suite": "ideals", "passed": 1, "failed": 0, "checks": checks}
    assert check_outcome(_outcome(argv, passing), {}) is None
    failing = {"suite": "ideals", "passed": 0, "failed": 1,
               "checks": [dict(checks[0], ok=False)]}
    assert check_outcome(_outcome(argv, failing, returncode=1), {})
    assert check_outcome(_outcome(argv, dict(passing, checks=[])), {})


def test_metric_names_and_benchmark_json_agree():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    for metric in [*spec["end_to_end"], *spec["per_layer"]]:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
    with open(HERE / "baseline.json") as fh:
        baseline = json.load(fh)
    assert baseline["claim"] is None
    assert set(baseline["layer_targets"]) <= set(LAYER_METRICS)


def test_reference_job_runs_without_gothicvol():
    source = REFERENCE_JOB.read_text()
    assert "gothicvol" not in source.split('"""')[-1]
    assert reference_job(60) > 0


def test_a_sieve_bound_override_is_refused():
    env = dict(os.environ, **{SIEVE_ENV: "1000"})
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lookups", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


def test_gothic_closed_trace_counts_sixteen_sigma_table_misses():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        trace_file = Path(tmp) / "trace.json"
        subprocess.run(
            [sys.executable, str(HERE / "tracer.py"), str(trace_file), "--", "volume",
             "--locus", "gothic", "--dmax", "40000", "--mode", "closed"],
            env=child_env(), stdout=subprocess.DEVNULL, check=True, timeout=120)
        metrics = request_metrics(json.loads(trace_file.read_text()))
    assert metrics["arith.sigma_table_misses"] == 16
    assert metrics["volume.sk_sum_calls"] == 64


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
