"""Running one CLI request in a fresh process and checking its answer, and
timing the reference job that tells how fast the machine is."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import request_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ANSWERS = Path(__file__).resolve().parent / "answers.json"
SIEVE_ENV = "GOTHICVOL_SIEVE_BOUND"

# Acceptance tolerances of the volume estimators: (raw, Richardson) relative
# error; None leaves the Richardson value unchecked.
VOLUME_TOLERANCE = {"gothic": (0.05, 0.01), "h2": (0.01, None),
                    "p3": (0.02, None), "p4": (0.02, None)}


@dataclass
class Outcome:
    argv: tuple[str, ...]
    wall_s: float  # spawn to exit
    cpu_s: float  # user + sys of the request process and its children
    maxrss_kb: int
    returncode: int  # negative: killed by that signal
    stdout: str
    stderr: str
    timed_out: bool = False


def child_env() -> dict[str, str]:
    """The environment of a request process: the caller's, with the package
    source of this checkout as the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], timeout_s: float, argv=()) -> Outcome:
    """Run ``cmd`` to its end and measure it; kill it after ``timeout_s``.

    The process is reaped with ``os.wait4``, whose resource usage covers the
    process and every child it waited for.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        argv=tuple(argv),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        returncode=proc.returncode,
        stdout=out.decode(errors="replace"),
        stderr=b"".join(err).decode(errors="replace"),
        timed_out=killed.is_set(),
    )


def run_request(argv, timeout_s: float) -> Outcome:
    """One untraced request: ``python -m gothicvol <argv>``."""
    return spawn([sys.executable, "-m", "gothicvol", *argv], timeout_s, argv)


REFERENCE_JOB = Path(__file__).resolve().with_name("reference_job.py")
# Nominal wall time of the reference job.  Request times divided by the
# machine's slowdown (measured reference time over this nominal) are in
# reference seconds, ``ref_s``: seconds on a machine where the reference job
# takes exactly this long.
REFERENCE_S = 0.25


def reference_job(timeout_s: float) -> float:
    """Wall time of one run of ``reference_job.py``, spawn to exit."""
    outcome = spawn([sys.executable, str(REFERENCE_JOB)], timeout_s)
    if outcome.returncode != 0:
        raise RuntimeError(f"reference job failed: {outcome.stderr.strip()}")
    return outcome.wall_s


def load_answers() -> dict:
    with open(ANSWERS) as fh:
        return json.load(fh)


def check_outcome(outcome: Outcome, answers: dict) -> str | None:
    """None when the request's answer is right, else the reason it is not.

    A ``verify`` request is right when it exits 0 with every check passing.
    Any other request is right when it exits 0 and its JSON ``result`` equals
    the recorded one; a ``volume`` result must also lie within the acceptance
    tolerances of its locus.
    """
    if outcome.timed_out:
        return "timed out"
    if outcome.returncode != 0:
        return f"exit code {outcome.returncode}"
    try:
        result = json.loads(outcome.stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return "output is not a JSON document with a result"
    return check_result(outcome.argv, result, answers)


def check_result(argv, result, answers: dict) -> str | None:
    if argv[0] == "verify":
        checks = result.get("checks") if isinstance(result, dict) else None
        if not checks:
            return "verify ran no checks"
        failed = [c["name"] for c in checks if not c.get("ok")]
        if failed or result.get("failed") != 0:
            return f"verify checks failed: {failed}"
        return None
    key = request_key(argv)
    if key not in answers:
        return "no recorded answer for this request"
    if result != answers[key]:
        return "answer differs from the recorded one"
    if argv[0] == "volume":
        raw_tol, extrap_tol = VOLUME_TOLERANCE[result["locus"]]
        if result["relative_error"] > raw_tol:
            return f"relative error {result['relative_error']} above {raw_tol}"
        if extrap_tol is not None and result["extrapolated_relative_error"] > extrap_tol:
            return (f"Richardson relative error {result['extrapolated_relative_error']}"
                    f" above {extrap_tol}")
    return None
