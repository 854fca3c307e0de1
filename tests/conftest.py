"""Shared fixtures: each verify check runs at most once per test session,
fresh Python processes run this checkout's package, and a test can record the
calls of a module's function."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gothicvol import verify

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def check():
    """verify.run_check memoised for the session.

    Whichever test asks for a check first pays for it; every later test reads
    the same CheckResult.  The memo lives here only: the ``verify`` command
    runs every check fresh.
    """
    return functools.cache(verify.run_check)


@pytest.fixture(scope="session")
def run_python():
    """Run ``python <args>`` in a fresh process with this checkout's ``src``
    first on PYTHONPATH, capturing its output as text; keywords such as
    ``timeout``, ``cwd`` and ``check`` go to subprocess.run."""
    def run(*args, **kwargs):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, **kwargs)

    return run


@pytest.fixture
def calls_of(monkeypatch):
    """calls_of(module, name) replaces module.name, until the test ends, by a
    wrapper that records the argument tuple of each call and calls through;
    it returns the list of those tuples."""
    def record(module, name):
        seen = []
        real = getattr(module, name)

        def counted(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return seen

    return record
