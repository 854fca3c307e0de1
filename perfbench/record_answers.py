"""Record the answer of every menu request into ``answers.json``.

Run it from the root of a checkout of the commit whose answers are the
reference:

    python3 perfbench/record_answers.py

Each request runs once in a fresh process; its JSON ``result`` is stored
without ``elapsed_ms``.  ``verify`` requests are not recorded: they count as
correct when every check passes.  A request that fails, or a volume estimate
outside its acceptance tolerance, stops the recording with exit code 1.
"""

from __future__ import annotations

import json
import sys

from harness import ANSWERS, check_result, run_request
from workloads import WORKLOADS, menu, request_key


def main() -> int:
    answers: dict[str, object] = {}
    for workload in WORKLOADS:
        for argv in menu(workload):
            if argv[0] == "verify":
                continue
            outcome = run_request(argv, timeout_s=170)
            print(f"{outcome.wall_s:7.2f} s  {outcome.maxrss_kb / 1024:6.1f} MB"
                  f"  {request_key(argv)}", file=sys.stderr)
            if outcome.returncode != 0:
                print(outcome.stderr, file=sys.stderr)
                return 1
            result = json.loads(outcome.stdout)["result"]
            answers[request_key(argv)] = result
            reason = check_result(argv, result, answers)
            if reason:
                print(f"{request_key(argv)}: {reason}", file=sys.stderr)
                return 1
    with open(ANSWERS, "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(answers)} answers in {ANSWERS.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
