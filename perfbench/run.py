"""Cold-process benchmark of the gothicvol command line.

    python3 perfbench/run.py --workload direct --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload lookups --seed 7 --list 2

One client runs a closed loop: it starts one ``python -m gothicvol ...``
process per request, from the package source of this checkout, and starts
the next only after the previous one has exited, so at most one request
process runs at a time.  Requests come in whole rounds drawn by ``--seed``
(see ``workloads.py``); a run measures as many rounds as fit in ``--seconds``
at the workload's nominal round length, one at least.  Every answer is
checked against ``answers.json``.

The machine is shared, and other tenants slow it by up to 1.7 times, in
phases from a fraction of a second to minutes.  So a fixed job that does
request-like work without gothicvol, ``reference_job.py``, runs as a fresh
process at the start of a run and after every ``REFERENCE_EVERY_S`` seconds
of requests, and the gated time metrics divide the run's request times by
the machine's mean slowdown over the run (mean reference time over
``harness.REFERENCE_S``).  They are in reference seconds (``ref_s``):
seconds on a machine where the reference job takes ``REFERENCE_S``.  The
plain wall-clock figures are printed too.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs every request once traced (``tracer.py``) and once untraced, and prints
the per-layer metrics and the tracing overhead.  ``--list N`` prints the
requests of the seed's first N rounds without running anything.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the environment record.  Exit code 2 means the run was refused.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import (REFERENCE_S, ROOT, SIEVE_ENV, SRC, check_outcome, load_answers,
                     reference_job, run_request, spawn)
from tracer import LAYER_METRICS, layer_metrics
from workloads import ROUND_SECONDS, WORKLOADS, round_requests

SETUP_REPEATS = 5
REFERENCE_EVERY_S = 1.0  # of request wall time between two reference jobs
# The set-up a user pays before the first factorisation: the CLI import and
# the smallest-prime-factor sieve built by the first factorize call.
SETUP_SNIPPET = "import gothicvol.cli\nfrom gothicvol import arith\narith.factorize(2)\n"
REQUEST_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 160.0  # no request starts later, so a run ends within 180 s

END_TO_END_UNITS = {
    "requests_per_ref_s": "1/ref_s",
    "cpu_ref_s_per_request": "ref_s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_ratio": "ratio",
}


def environment() -> dict:
    """What the figures depend on besides the code: cores, versions, commit."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gothicvol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "max_request_processes": 1,
    }


def _deadline_timeout(started: float) -> float:
    return max(1.0, min(REQUEST_TIMEOUT_S, started + RUN_DEADLINE_S + 15 - time.perf_counter()))


def setup_sample(started: float) -> float:
    """Wall time of a fresh process that imports the CLI and factorizes once."""
    outcome = spawn([sys.executable, "-c", SETUP_SNIPPET], _deadline_timeout(started))
    if outcome.returncode != 0:
        raise RuntimeError(f"set-up process failed: {outcome.stderr.strip()}")
    return outcome.wall_s


def run_requests(workload: str, seed: int, seconds: float) -> list[tuple[str, ...]]:
    """The requests of the seed's whole rounds that fit in ``seconds``."""
    rounds = max(1, int(seconds // ROUND_SECONDS[workload]))
    return [argv for index in range(rounds) for argv in round_requests(workload, seed, index)]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, seed, seconds, answers, started):
    requests = run_requests(workload, seed, seconds)
    # Set-up is sampled at evenly spaced points of the run, so its median
    # spans the machine's phases as the requests do.
    setup_due = [len(requests) * k // SETUP_REPEATS for k in range(SETUP_REPEATS)]
    setup, outcomes, failures = [], [], []
    # The run is cut into intervals of about REFERENCE_EVERY_S of requests,
    # each between two reference jobs: [request wall time, reference before,
    # reference after].
    intervals = [[0.0, reference_job(_deadline_timeout(started)), None]]

    def close_interval():
        intervals[-1][2] = reference_job(_deadline_timeout(started))
        print(f"{intervals[-1][2]:8.3f} s reference job", file=sys.stderr)
        intervals.append([0.0, intervals[-1][2], None])

    for index, argv in enumerate(requests):
        if time.perf_counter() - started > RUN_DEADLINE_S:
            break
        setup.extend(setup_sample(started) for _ in range(setup_due.count(index)))
        outcome = run_request(argv, _deadline_timeout(started))
        outcomes.append(outcome)
        print(f"{outcome.wall_s:8.3f} s {outcome.cpu_s:8.3f} cpu-s  {' '.join(argv)}",
              file=sys.stderr)
        reason = check_outcome(outcome, answers)
        if reason:
            failures.append((argv, reason))
        intervals[-1][0] += outcome.wall_s
        if intervals[-1][0] >= REFERENCE_EVERY_S:
            close_interval()
    if intervals[-1][0] > 0:
        close_interval()
    intervals.pop()  # the empty one the last close opened

    # How much slower than nominal the machine ran over the run: the mean
    # reference time of each interval, weighted by the interval's request
    # time, over the nominal.  One reference timing is noisy, but over the
    # run that noise averages out while the slow and fast phases the
    # requests met stay in.
    slowdown = (sum(wall * (before + after) / 2 for wall, before, after in intervals)
                / sum(wall for wall, _, _ in intervals) / REFERENCE_S)
    passed = len(outcomes) - len(failures)
    walls = [o.wall_s for o in outcomes]
    cpu_s_per_request = statistics.fmean(o.cpu_s for o in outcomes)
    metrics = {
        "requests_per_ref_s": passed * slowdown / sum(walls),
        "cpu_ref_s_per_request": cpu_s_per_request / slowdown,
        "peak_rss_mb": max(o.maxrss_kb for o in outcomes) / 1024,
        "setup_s": statistics.median(setup),
        "pass_ratio": passed / len(outcomes),
    }
    # Wall-clock figures, printed but not gated: from one run to the next
    # they move with the machine's phases by more than any bound of 25%.  In
    # a one-client closed loop the request rate is the inverse of the mean
    # request time.  A run has 9 to 22 requests, so no percentile above the
    # median has ten of them beyond it.
    notes = {"samples": len(walls), "requests_per_s": passed / sum(walls),
             "cpu_s_per_request": cpu_s_per_request,
             "request_s.p50": statistics.median(walls),
             "request_s.p90": percentile(walls, 90), "setup_samples": len(setup),
             "slowdown": slowdown}
    return metrics, END_TO_END_UNITS, len(outcomes), failures, notes


def traced(workload, seed, seconds, answers, started):
    docs, outcomes, failures = [], [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:

        def step(argv):
            trace_file = Path(tmp) / f"request-{len(docs)}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")),
                   str(trace_file), "--", *argv]
            pair = {"traced": spawn(cmd, _deadline_timeout(started), argv),
                    "untraced": run_request(argv, _deadline_timeout(started))}
            for kind, outcome in pair.items():
                reason = check_outcome(outcome, answers)
                if reason:
                    failures.append((argv, f"{kind}: {reason}"))
            outcomes.append(pair)
            if trace_file.exists():
                with open(trace_file) as fh:
                    docs.append(json.load(fh))

        for argv in run_requests(workload, seed, seconds):
            if time.perf_counter() - started > RUN_DEADLINE_S:
                break
            step(argv)
    walls = {kind: sum(pair[kind].wall_s for pair in outcomes)
             for kind in ("traced", "untraced")}
    metrics = layer_metrics(docs, walls["traced"], walls["untraced"])
    notes = {"traced_requests": len(docs), "traced_wall_s": walls["traced"],
             "untraced_wall_s": walls["untraced"]}
    return metrics, LAYER_METRICS, 2 * len(outcomes), failures, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="run as many rounds as fit at the nominal round length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from traced requests")
    ap.add_argument("--list", type=int, metavar="ROUNDS", default=0,
                    help="print the requests of the first ROUNDS rounds and exit")
    args = ap.parse_args(argv)

    if args.list:
        for index in range(args.list):
            for request in round_requests(args.workload, args.seed, index):
                print(json.dumps({"round": index, "argv": list(request)}))
        return 0
    if os.environ.get(SIEVE_ENV):
        print(f"refused: {SIEVE_ENV} is set, which changes the set-up being measured",
              file=sys.stderr)
        return 2
    if not (SRC / "gothicvol" / "cli.py").is_file():
        print(f"refused: no gothicvol package source under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    answers = load_answers()
    env = environment()
    # One untimed process first, so the byte-code caches of the checkout exist.
    warm = spawn([sys.executable, "-c", "import gothicvol.cli"], REQUEST_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"refused: gothicvol does not import: {warm.stderr.strip()}", file=sys.stderr)
        return 2
    measure = traced if args.trace else end_to_end
    metrics, units, attempted, failures, notes = measure(
        args.workload, args.seed, args.seconds, answers, started)

    for argv_, reason in failures:
        print(f"FAILED {' '.join(argv_)}: {reason}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    if "samples" in notes:
        print(f"{'requests_per_s':40s} {notes['requests_per_s']:14.6g} 1/s")
        print(f"{'cpu_s_per_request':40s} {notes['cpu_s_per_request']:14.6g} s")
        for name in ("request_s.p50", "request_s.p90"):
            print(f"{name:40s} {notes[name]:14.6g} s (of {notes['samples']} requests)")
    print(f"{'fail_ratio':40s} {len(failures) / attempted:14.6g} ratio")
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      **notes}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
