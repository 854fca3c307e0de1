"""A fixed job that does the kinds of work a request does, without gothicvol.

    python3 perfbench/reference_job.py

The benchmark runs it as a fresh process between requests and times it from
spawn to exit, to tell how fast the shared machine is at that moment.  Like
a request it starts an interpreter, imports numpy, faults in a 40 MB array
with strided writes (the smallest-prime-factor sieve) and sums Fractions in
the interpreter (the exact volume sums).  It never changes with the program
under test.
"""

from fractions import Fraction

import numpy

sieve = numpy.zeros(10_000_000, dtype=numpy.int32)
for p in (2, 3, 5, 7):
    sieve[p * p::p] = p
total = Fraction(int(sieve[::97].sum()))
for i in range(1, 4_000):
    total += Fraction(1, i)
