"""Run the consolidated cross-oracle suite end to end.

This exercises every module invariant at its full stated range; the unit
test files cover the same ground at smaller ranges with independent oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from gothicvol import verify

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the arith suite with one wrong entry injected into the a(d) tables.
_FAULT_INJECTION = """
import json, sys
from gothicvol import verify

real = verify.sl2_order_table

def wrong_table(N):
    table = list(real(N))
    table[7] += 1
    return table

verify.sl2_order_table = wrong_table
results = verify.run_suite("arith", report=None, stop_on_failure=False)
print(json.dumps({"optimize": sys.flags.optimize,
                  "failed": [r.name for r in results if not r.ok]}))
"""


def test_full_verify_suite_passes():
    results = verify.run_suite("all", report=None)
    failures = [r for r in results if not r.ok]
    assert not failures, failures
    # every suite must have contributed at least one check
    assert {r.suite for r in results} == set(verify.SUITES) - {"all"}


def test_checks_fail_under_python_O():
    # python -O strips assert statements; the checks must still catch a
    # wrong a(d) table
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FAULT_INJECTION],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["optimize"] == 1
    assert doc["failed"] == [
        "sl2_order multiplicative on coprime pairs up to 500",
        "(sigma * a)(n) = sigma_3(n) for n <= 10^4",
        "a(d) = p^(3v-2)(p^2-1) a(d_p) for all p | d, d <= 2000",
    ]
