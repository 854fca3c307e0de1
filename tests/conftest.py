"""Shared fixtures: each verify check runs at most once per test session."""

import functools

import pytest

from gothicvol import verify


@pytest.fixture(scope="session")
def check():
    """verify.run_check memoised for the session.

    Whichever test asks for a check first pays for it; every later test reads
    the same CheckResult.  The memo lives here only: the ``verify`` command
    runs every check fresh.
    """
    return functools.cache(verify.run_check)
