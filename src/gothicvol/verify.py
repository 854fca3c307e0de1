"""Consolidated cross-oracle verification suite.

Every invariant stated for the library's modules, at its full stated range,
as a registry of named checks keyed by name.  ``run_check(name)`` runs one
check and times it; ``run_suite`` runs a suite (or all of them, suite by
suite in SUITES order), each suite's checks in registration order, and
stops loudly at the first violation.  The CLI subcommand ``verify`` runs
every check fresh; the test suite runs each one once per session and names
the checks its acceptance criteria rest on.

The check bodies live in ``gothicvol.checks``: each module holds the suite
named after it, and registers its checks here when it is imported.
``run_suite`` imports the modules of the suites it runs and no other, and
each of them imports the library modules its checks call, so a suite
compiles and loads only what it runs: ``verify --suite ideals`` loads
``arith``, ``ideals`` and ``checks.ideals`` and nothing else of the library.
``check_names`` loads every suite and lists the checks in run order.

The checks are deliberately redundant with independent routes: prototype
enumeration against modular-form coefficients, divisor-sum formulas against
Euler products, Euler-characteristic counts against brute-force permutation
pairs, closed asymptotic forms against direct summation.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import namedtuple
from collections.abc import Callable


class CheckResult(namedtuple("CheckResult", ("name", "suite", "ok", "elapsed_s", "detail"),
                             defaults=("",))):
    """The outcome of one check: an immutable, hashable tuple
    (name, suite, ok, elapsed_s, detail)."""

    __slots__ = ()


# check name -> (suite, body); a body raises on a violation and may return a detail
_CHECKS: dict[str, tuple[str, Callable[[], str | None]]] = {}


def _check(name: str):
    if name in _CHECKS:
        raise ValueError(f"duplicate check name {name!r}")

    def deco(fn):
        _CHECKS[name] = (fn.__module__.rpartition(".")[2], fn)
        return fn

    return deco


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

# "all", then every suite in run order, each the name of a module in checks
SUITES = ("all", "arith", "prototypes", "qforms", "zagier", "ideals", "euler",
          "counting", "volume")


def check_names(suite: str = "all") -> list[str]:
    """The names of the suite's checks (every check for 'all'), in run order,
    once the modules that hold them are loaded."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    groups = SUITES[1:] if suite == "all" else (suite,)
    for group in groups:
        importlib.import_module(f"{__package__}.checks.{group}")
    # by suite, so the order does not depend on which suite was loaded first
    return [name for group in groups
            for name, (owner, _) in _CHECKS.items() if owner == group]


def run_check(name: str) -> CheckResult:
    """Run the named check once and time it, loading every suite first if
    the name is not registered yet.

    A violation (AssertionError) is a FAIL at the place the check names; any
    other exception is a FAIL too, with a detail that starts with its type.
    """
    if name not in _CHECKS:
        check_names()
    suite, fn = _CHECKS[name]
    t0 = time.perf_counter()
    try:
        detail = fn() or ""
        ok = True
    except AssertionError as exc:
        detail = f"FAILED at {exc.args[0] if exc.args else '?'}"
        ok = False
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    return CheckResult(name, suite, ok, time.perf_counter() - t0, detail)


def run_suite(suite: str = "all") -> list[CheckResult]:
    """Run the named suite (or all), writing one line per check to stderr,
    which leaves stdout to the caller's JSON.

    Stops at the first violation; the returned list carries per-check status
    and timings.
    """
    results = []
    for name in check_names(suite):
        r = run_check(name)
        results.append(r)
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] ({r.suite}) {name} [{r.elapsed_s:.2f}s] {r.detail}", file=sys.stderr)
        if not r.ok:
            break
    return results
