"""A fixed piece of pure-Python work that measures how fast the host runs now.

The benchmark's host is a few cores of a shared machine whose speed
switches by up to 60 % as its neighbours' load changes, in spells from tens
of milliseconds to minutes (on a 2-core x86 host a slice took either about
15 ms or about 25 ms).  Every timed round interleaves short slices of this
reference work with its cases, and a time measured while the slices took
``s`` seconds is scaled by ``NOMINAL_SLICE_S / s`` ("at reference speed"):
a case by the slices just before and after it, the round's total by the
mean of all its slices.

The work is the benchmark's own code, not qthook's, so no change to qthook
moves it; it has the shape of qthook's hot loops (a product of bivariate
polynomials held as dicts keyed by exponent pairs, with ``Fraction``
coefficients whose numerators and denominators grow to a few hundred bits)
so that it slows down with the host the way the cases do.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter_ns

# Slice time on a calm 2-core x86 host (Python 3.11), the unit in which the
# scaled times are given; only its ratio to the measured slices matters.
NOMINAL_SLICE_S = 0.025


def _poly(seed: int, size: int) -> dict:
    """A dense bivariate polynomial with fixed small rational coefficients."""
    return {(i, j): Fraction((seed * 7 + i * 13 + j * 5) % 29 - 14,
                             (seed + i * 3 + j * 11) % 17 + 1)
            for i in range(size) for j in range(size) if (i + j + seed) % 3}


_A, _B = _poly(1, 7), _poly(2, 6)


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            k = (a1 + a2, b1 + b2)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def slice_ns() -> int:
    """Run one slice of the reference work; return its time in ns."""
    t0 = perf_counter_ns()
    p = _mul(_A, _B)
    p = _mul(p, _B)
    if not p:
        raise AssertionError("reference product vanished")
    return perf_counter_ns() - t0
