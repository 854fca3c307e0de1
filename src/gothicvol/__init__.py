"""gothicvol: exact Euler characteristics of arithmetic Teichmueller curves
and lattice-point confirmation of Masur-Veech volumes.

Modules:
    arith      -- exact rationals, pi-multiples, trial-division factorisation,
                  multiplicative functions and their sieved tables, Hermite
                  sublattice enumeration
    prototypes -- prototype sets P_k(D) and the counts e(D, k)
    qforms     -- q-expansions of theta, G2, F_k and the coefficient oracle
    zagier     -- Gauss sums, Euler factors, exact ebar_1 / ebar_6
    ideals     -- the order O_{d^2}, norm-n ideals, trace pairing, polarisation
    euler      -- every Euler-characteristic formula, with surrogate modes
    counting   -- square-tiled counts |S_{m,m}|, |C_d| and the H(2) oracle
    volume     -- S_k sums, direct/closed volume estimators, exact targets
    verify     -- the consolidated cross-oracle invariant suite: registry
                  and runner
    checks     -- the bodies of the verify checks, one module per suite
    cli        -- machine-readable command line front end

The package root holds the vocabulary that the command line parser and the
closed volume path share, so that neither loads ``euler`` or ``counting``:

    Locus          -- the four loci (H(2), Prym P3 / P4, gothic), also
                      ``counting.Locus``
    MODES          -- every accepted spelling of a mode, mapped to its
                      canonical name
    FAMILY_MODES   -- the modes each ``chi`` family offers at a square D
    SURROGATES     -- the square-discriminant surrogates each locus offers
    surrogate_mode -- the canonical name of a surrogate that a locus offers

Every locus entry point validates its surrogate through ``surrogate_mode``,
and ``euler.check_mode`` a family's mode through FAMILY_MODES.

``cli`` and ``volume`` import a module that only some subcommands need inside
the functions that call it, and ``cli`` builds the argument parser of the
requested subcommand alone, so a command line request loads only what its
subcommand runs.  Below them, ``euler`` loads ``qforms`` when its e(d^2, k)
table first grows (it names the components at a square discriminant by its
own divisor rule, without ``ideals``), ``zagier`` loads ``euler``, for that
table, and ``qforms`` inside ``asymptotic_check_e``, ``counting`` loads
``euler`` at its first ``smm``, and ``verify`` loads the ``checks`` module of
each suite it runs.  The records are namedtuple subclasses, all but
``PiQuantity``, a ``__slots__`` class that does arithmetic, and the
q-expansions are plain coefficient lists, so no module loads
``dataclasses``.
"""

from enum import Enum

from .arith import PiQuantity

__all__ = ["FAMILY_MODES", "Locus", "MODES", "PiQuantity", "SURROGATES", "surrogate_mode"]
__version__ = "0.1.0"


class Locus(Enum):
    H2 = "h2"
    P3 = "p3"
    P4 = "p4"
    G = "gothic"

    # members are singletons compared by identity, so object's C-level hash
    # agrees with equality; Enum's own hashes the name in Python, about 100 ns
    # a dict lookup, and every counting.smm call makes two
    __hash__ = object.__hash__


# Every accepted spelling of a mode, mapped to its canonical name; "main" is
# the command line's short spelling of main_term.
MODES = {"exact": "exact", "main": "main_term", "main_term": "main_term",
         "leading": "leading", "remark": "remark"}


# The modes each family, named as by ``chi --family``, offers at a square D.
FAMILY_MODES = {"x": ("exact",), "xbr": ("exact",), "w2": ("exact",),
                "w4": ("main_term",), "w6": ("main_term",), "r": ("main_term",),
                "g": ("main_term", "leading", "remark")}

# The surrogates each locus offers: those of its family, W(4), W(6) or G.
# H(2)'s chi_W2 is exact, but recorded answers carry the label main_term.
# Gothic closed main_term still reports the leading sums, the only ones the
# closed rows compute, until the answers are re-recorded (ROADMAP item 2).
SURROGATES = {Locus.H2: ("main_term",), Locus.P3: FAMILY_MODES["w4"],
              Locus.P4: FAMILY_MODES["w6"], Locus.G: FAMILY_MODES["g"]}


def surrogate_mode(name: str, locus: Locus) -> str:
    """Canonical name of a surrogate that ``locus`` offers; any other is refused."""
    mode = MODES.get(name)
    offered = SURROGATES[locus]
    if mode not in offered:
        raise ValueError(f"the {locus.value} locus has no surrogate {name!r}; "
                         f"pick one of {', '.join(map(repr, offered))}")
    return mode
