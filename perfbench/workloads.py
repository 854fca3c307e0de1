"""Workload menus and the seeded request generator.

Every workload has a finite menu of CLI requests (argv tuples for
``python -m gothicvol``), and every menu request has a recorded answer in
``answers.json``.  A run is made of whole *rounds*.  A round takes one request
from each of the workload's *slots*; the requests of one slot cost about the
same, so every round of a workload carries the same mix of work whatever the
seed, and the figures of two seeds stay comparable.  The seed picks the
request of each slot and the order of the round.  The program sees
only the argv.
"""

from __future__ import annotations

import random

WORKLOADS = ("direct", "closed", "lookups", "verify")

# The verify suites in the menu.  The arith, prototypes, qforms and volume
# suites (about 28 s of the 41 s of all eight) are left out: from one run to
# the next on a shared 2-core machine their times spread by 23-44% (quartile
# distance over median), which no bound of 25% can hold.
VERIFY_SUITES = ("zagier", "ideals", "euler", "counting")

_LOCI = ("h2", "p3", "p4", "gothic")


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def _volume(locus, dmax, mode, surrogate=None) -> tuple[str, ...]:
    extra = ("--surrogate", surrogate) if surrogate else ()
    return _argv("volume", "--locus", locus, "--dmax", dmax, "--mode", mode, *extra)


def _chi(family, D, *extra) -> tuple[str, ...]:
    return _argv("chi", "--family", family, "--D", D, *extra)


# direct: the gothic requests dominate the cost, one per dmax with either
# surrogate (the two cost within 6% of each other); every H(2)/Prym request
# is in every round.
_DIRECT_SLOTS = (
    *([_volume("gothic", dmax, "direct", s) for s in ("main", "leading")]
      for dmax in (2000, 3000, 4000)),
    *([_volume(locus, dmax, "direct")] for locus in ("h2", "p3", "p4")
      for dmax in (4000, 8000)),
)

# closed: one S_k per D with any k (cost within 10% across k), and every
# locus at every dmax of the closed estimator.
_CLOSED_SLOTS = (
    *([_argv("sk", "--k", k, "--D", D) for k in (1, 2, 3, 6)]
      for D in (100000, 200000, 300000)),
    *([_volume(locus, dmax, "closed")] for locus in _LOCI
      for dmax in (20000, 40000, 100000)),
)

_NONSQUARE_D = (57, 60, 97, 105)  # each in the gothic residue table mod 24
_SQUARE_D = (144, 900)

# lookups: one small request of each kind, dominated by start-up.
_LOOKUP_SLOTS = (
    [_argv("e", "--D", D, "--k", k) for D in (17, 33, 57, 60, 105, 108) for k in (1, 6)],
    [_argv("proto", "--D", D, "--k", k) for D in (17, 33, 57, 60, 105) for k in (1, 6)],
    [
        *(_chi(fam, D) for fam in ("x", "w2") for D in _SQUARE_D),
        *(_chi("xbr", D, "--r", 1) for D in _SQUARE_D),
        *(_chi(fam, D, "--mode", "main") for fam in ("w4", "w6", "r", "g")
          for D in _SQUARE_D),
        *(_chi("g", D, "--mode", mode) for mode in ("leading", "remark")
          for D in _SQUARE_D),
    ],
    [_chi(fam, D) for fam in ("x", "w2", "w4", "w6", "r", "g") for D in _NONSQUARE_D],
    [_argv("smm", "--locus", locus, "--m", m) for locus in _LOCI for m in (12, 30, 60)],
    [_argv("cd", "--locus", locus, "--d", d) for locus in _LOCI for d in (12, 30, 60)],
    [_argv("ideals", "--d", d) for d in (5, 6, 7, 12, 30)],
    [_argv("zagier", "--what", "ebar", "--dmax", n) for n in (50, 100)],
    [_argv("qexp", "--series", s, "--k", k, "--N", N)
     for s in ("g2", "fk", "ek") for k in (1, 6) for N in (100, 200)],
    # These never build the SPF sieve and take about 0.4 s.
    [*(_argv("oracle-h2", "--d", d) for d in (4, 5, 6, 7)),
     *(_argv("qexp", "--series", "theta", "--N", N) for N in (100, 200))],
    # d = 8 takes about 1.1 s, so it is a slot of its own.
    [_argv("oracle-h2", "--d", 8)],
)

_VERIFY_SLOTS = tuple([_argv("verify", "--suite", s)] for s in VERIFY_SUITES)

# Run time allotted to one round, in seconds.  A run of ``--seconds`` s
# measures floor(seconds / allotted) rounds (one at least), so the work of a
# run does not depend on how fast the program or the machine happens to be.
# The allotments are the rounds' lengths on a shared 2-core x86 machine,
# except for lookups: its round takes about 8 s, but two rounds already give
# its steadiest figures, and with the reference jobs and set-up samples they
# make a run about as long as one of the others.
ROUND_SECONDS = {"direct": 16, "closed": 25, "lookups": 12, "verify": 8}

SLOTS = {
    "direct": _DIRECT_SLOTS,
    "closed": _CLOSED_SLOTS,
    "lookups": _LOOKUP_SLOTS,
    "verify": _VERIFY_SLOTS,
}


def menu(workload: str) -> list[tuple[str, ...]]:
    """Every request a seed can draw for the workload."""
    return [request for slot in SLOTS[workload] for request in slot]


def request_key(argv) -> str:
    """The key of a request in ``answers.json``."""
    return " ".join(argv)


def round_requests(workload: str, seed: int, index: int) -> list[tuple[str, ...]]:
    """Round ``index`` of a run with ``seed``: one request per slot, shuffled.

    The same (workload, seed, index) always gives the same list.
    """
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    requests = [rng.choice(slot) for slot in SLOTS[workload]]
    rng.shuffle(requests)
    return requests
