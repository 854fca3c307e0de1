"""Run the consolidated cross-oracle suite end to end.

This exercises every module invariant at its full stated range; the unit
test files cover the same ground at smaller ranges with independent oracles.
"""

from gothicvol import verify


def test_full_verify_suite_passes():
    results = verify.run_suite("all", report=None)
    failures = [r for r in results if not r.ok]
    assert not failures, failures
    # every suite must have contributed at least one check
    assert {r.suite for r in results} == set(verify.SUITES) - {"all"}
