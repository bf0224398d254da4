"""Named check suites behind the command line: one report per invocation.

Each identity runs a fixed desk-scale sweep; the ranges mirror the package's
test suite so a CLI run reproduces the same evidence.  Every sweep but
gasper's is a generator in ``IDENTITIES``, run by one report loop.
"""

from __future__ import annotations

import itertools
import random

from .partitions import EMPTY, Partition, monotone_chains, partitions_up_to
from .qtcore import sample_points
from .report import VerificationReport, timed
from . import hypergeom, macdonald
from .dposet import build_family
from .hookformula import verify_okada

P = Partition


def run_hook(family: str, alpha: Partition, beta: Partition | None,
             f: int | None, degree: int, mode: str, points: int,
             seed: int) -> VerificationReport:
    return verify_poset(build_family(family, alpha, beta, f), degree, mode,
                        points, seed)


def verify_poset(poset, degree: int, mode: str, points: int,
                 seed: int) -> VerificationReport:
    """The hook identity on a built poset, with ``points`` seeded points."""
    pts = sample_points(points, seed) if mode == "eval" else None
    return verify_okada(poset, degree, mode, pts, seed=seed)


def _failures(results):
    """The mismatch of each failing ``(label, (ok, info))`` result, lazily:
    the case label merged with the check's own info."""
    for label, (ok, info) in results:
        if not ok:
            yield {**label, **info}


def _b_ratio_display():
    if not hypergeom.b_ratio_checks():
        yield {"params": "b-ratio display"}


def _lemma(rng):
    for m in range(3):
        for theta0, rho0, k0 in monotone_chains(0, 3, 3):
            for gamma in range(3):
                if not hypergeom.lemma_check(m, k0, rho0, theta0, gamma):
                    yield {"params": [m, k0, rho0, theta0, gamma]}


def _general(rng):
    for n in range(4):
        for m in range(3):
            for theta0, rho0, k0 in monotone_chains(0, 3, 3):
                gamma = [rng.randint(0, 3) for _ in range(n)]
                if not hypergeom.general_check(m, n, k0, rho0, theta0, gamma):
                    yield {"params": [m, n, k0, rho0, theta0, gamma]}


def _birds_final(rng):
    for f in (1, 2):
        for theta0, rho0 in monotone_chains(0, 3, 2):
            r = [rng.randint(0, 3) for _ in range(f)]
            if not hypergeom.birds_final_check(rho0, theta0, f, r):
                yield {"params": [rho0, theta0, f, r]}
    yield from _b_ratio_display()


def _banners_final(rng):
    for quad in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0),
                 (3, 2, 2, 1), (2, 2, 2, 2), (3, 3, 1, 1)]:
        r = [rng.randint(0, 3)]
        if not hypergeom.banners_final_check(P([p for p in quad if p]), 2, r):
            yield {"params": [quad, r]}
    yield from _b_ratio_display()


def _pieri(rng):
    return _failures(({}, macdonald.pieri_check(mu, r, 4, kind))
                     for kind in ("phi", "psi")
                     for mu in partitions_up_to(3, max_length=4)
                     for r in range(3))


def _branching(rng):
    return _failures(({"lam": str(lam)}, macdonald.branching_check(lam, 2, 1))
                     for lam in partitions_up_to(4))


SMALL_SHAPES = (EMPTY, P([1]))


def _qp_lemma(rng):
    shapes = [*SMALL_SHAPES, P([2])]
    return _failures(({"mu": str(mu), "nu": str(nu)},
                      macdonald.qp_lemma_check(mu, nu, 2, 2, 3))
                     for mu in shapes for nu in shapes)


def _gmacmahon(rng):
    return _failures(({"mu0": str(mu0), "muT": str(muT)},
                      macdonald.gmacmahon_check(2, mu0, muT,
                                                ([1, 1], [1, 1]), 3))
                     for mu0 in SMALL_SHAPES for muT in SMALL_SHAPES)


def _partition_sum(rng):
    return _failures(({"eps": list(eps)},
                      macdonald.partition_sum_check(eps, lam0, lamN,
                                                    [1] * n, 3))
                     for n in (1, 2, 3)
                     for eps in itertools.product((1, -1), repeat=n)
                     for lam0 in SMALL_SHAPES for lamN in SMALL_SHAPES)


def _warnaar(variant):
    """Warnaar's sum for ``variant`` at n = 1, then (if that passes) n = 2."""
    return lambda rng: _failures(({}, macdonald.warnaar_check(variant, n, 4))
                                 for n in (1, 2))


# Every identity but gasper: name -> (report degree, mismatch generator).  A
# generator walks its fixed desk-scale grid, drawing from the seeded rng, and
# yields the mismatch of each failing case; the sweep stops at the first.
IDENTITIES = {
    "lemma": (None, _lemma),
    "general": (None, _general),
    "birds-final": (None, _birds_final),
    "banners-final": (None, _banners_final),
    "pieri": (None, _pieri),
    "cauchy": (4, lambda rng: _failures(
        [({}, macdonald.cauchy_check(2, 2, 4))])),
    "branching": (None, _branching),
    "qp-lemma": (3, _qp_lemma),
    "gmacmahon": (3, _gmacmahon),
    "partition-sum": (3, _partition_sum),
    **{f"warnaar-{v}": (4, _warnaar(v)) for v in ("oa", "el", "odd", "even")},
}

IDENTITY_NAMES = ["gasper", *IDENTITIES]


def run_identity(name: str, seed: int = 0, trials: int = 50) -> VerificationReport:
    if name == "gasper":
        return hypergeom.gasper_sweep(trials, seed)
    if name not in IDENTITIES:
        raise ValueError(f"unknown identity {name!r}")
    degree, mismatches = IDENTITIES[name]
    report = VerificationReport(check=name, mode="exact", degree=degree)
    with timed(report):
        report.mismatch = next(mismatches(random.Random(seed)), None)
    report.result = "pass" if report.mismatch is None else "fail"
    return report


DESK_HOOKS = [
    ("shifted", "1", None, None, 3, "exact"),
    ("shifted", "2,1", None, None, 3, "exact"),
    ("shifted", "3,1", None, None, 3, "exact"),
    ("bird", "2,1", "2,1", 1, 3, "exact"),
    ("banner", "4,3,2,1", None, 2, 3, "exact"),
    ("shifted", "3,2", None, None, 5, "eval"),
    ("bird", "4,3", "3,2", 2, 5, "eval"),
    ("banner", "9,6,3,2", None, 2, 5, "eval"),
]


def run_all(seed: int = 0, points: int = 3):
    """The desk profile: every acceptance hook instance plus every identity.

    Yields each report as soon as its check finishes, the hook instances
    first, in ``DESK_HOOKS`` order, then the identities.
    """
    for family, alpha, beta, f, degree, mode in DESK_HOOKS:
        yield run_hook(family, Partition.parse(alpha),
                       Partition.parse(beta) if beta else None,
                       f, degree, mode, points, seed)
    for name in IDENTITY_NAMES:
        yield run_identity(name, seed=seed)
