"""Named check suites behind the command line: one report per invocation.

Each identity runs a fixed desk-scale sweep; the ranges mirror the package's
test suite so a CLI run reproduces the same evidence.
"""

from __future__ import annotations

import random

from .partitions import EMPTY, Partition, partitions_up_to
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


def run_identity(name: str, seed: int = 0, trials: int = 50) -> VerificationReport:
    if name == "gasper":
        report = hypergeom.gasper_sweep(trials, seed)
        report.check = "gasper"
        return report
    if name == "lemma":
        report = VerificationReport(check="lemma", mode="exact")
        with timed(report):
            for m in range(3):
                for theta0 in range(4):
                    for rho0 in range(theta0 + 1):
                        for k0 in range(rho0 + 1):
                            for gamma in range(3):
                                if not hypergeom.lemma_check(m, k0, rho0,
                                                             theta0, gamma):
                                    report.result = "fail"
                                    report.mismatch = {
                                        "params": [m, k0, rho0, theta0, gamma]}
                                    return report
        return report
    if name == "general":
        report = VerificationReport(check="general", mode="exact")
        rng = random.Random(seed)
        with timed(report):
            for n in range(4):
                for m in range(3):
                    for theta0 in range(4):
                        for rho0 in range(theta0 + 1):
                            for k0 in range(rho0 + 1):
                                gamma = [rng.randint(0, 3) for _ in range(n)]
                                if not hypergeom.general_check(
                                        m, n, k0, rho0, theta0, gamma):
                                    report.result = "fail"
                                    report.mismatch = {
                                        "params": [m, n, k0, rho0, theta0, gamma]}
                                    return report
        return report
    if name == "birds-final":
        report = VerificationReport(check="birds-final", mode="exact")
        rng = random.Random(seed)
        with timed(report):
            for f in (1, 2):
                for theta0 in range(4):
                    for rho0 in range(theta0 + 1):
                        r = [rng.randint(0, 3) for _ in range(f)]
                        if not hypergeom.birds_final_check(rho0, theta0, f, r):
                            report.result = "fail"
                            report.mismatch = {"params": [rho0, theta0, f, r]}
                            return report
            if not hypergeom.b_ratio_checks(4):
                report.result = "fail"
                report.mismatch = {"params": "b-ratio display"}
        return report
    if name == "banners-final":
        report = VerificationReport(check="banners-final", mode="exact")
        rng = random.Random(seed)
        with timed(report):
            for quad in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0),
                         (3, 2, 2, 1), (2, 2, 2, 2), (3, 3, 1, 1)]:
                lam = P([p for p in quad if p])
                r = [rng.randint(0, 3)]
                if not hypergeom.banners_final_check(lam, 2, r):
                    report.result = "fail"
                    report.mismatch = {"params": [quad, r]}
                    return report
            if not hypergeom.b_ratio_checks(4):
                report.result = "fail"
                report.mismatch = {"params": "b-ratio display"}
        return report
    if name == "pieri":
        report = VerificationReport(check="pieri", mode="exact")
        with timed(report):
            for kind in ("phi", "psi"):
                for mu in partitions_up_to(3, max_length=4):
                    for r in range(3):
                        ok, info = macdonald.pieri_check(mu, r, 4, kind)
                        if not ok:
                            report.result = "fail"
                            report.mismatch = info
                            return report
        return report
    if name == "cauchy":
        report = VerificationReport(check="cauchy", mode="exact", degree=4)
        with timed(report):
            ok, info = macdonald.cauchy_check(2, 2, 4)
            if not ok:
                report.result = "fail"
                report.mismatch = info
        return report
    if name == "branching":
        report = VerificationReport(check="branching", mode="exact")
        with timed(report):
            for lam in partitions_up_to(4):
                ok, info = macdonald.branching_check(lam, 2, 1)
                if not ok:
                    report.result = "fail"
                    report.mismatch = info
                    return report
        return report
    if name == "qp-lemma":
        report = VerificationReport(check="qp-lemma", mode="exact", degree=3)
        with timed(report):
            shapes = [EMPTY, P([1]), P([2])]
            for mu in shapes:
                for nu in shapes:
                    ok, info = macdonald.qp_lemma_check(mu, nu, 2, 2, 3)
                    if not ok:
                        report.result = "fail"
                        report.mismatch = {"mu": str(mu), "nu": str(nu), **info}
                        return report
        return report
    if name == "gmacmahon":
        report = VerificationReport(check="gmacmahon", mode="exact", degree=3)
        with timed(report):
            for mu0 in (EMPTY, P([1])):
                for muT in (EMPTY, P([1])):
                    ok, info = macdonald.gmacmahon_check(
                        2, mu0, muT, ([1, 1], [1, 1]), 3)
                    if not ok:
                        report.result = "fail"
                        report.mismatch = {"mu0": str(mu0), "muT": str(muT),
                                           **info}
                        return report
        return report
    if name == "partition-sum":
        report = VerificationReport(check="partition-sum", mode="exact",
                                    degree=3)
        with timed(report):
            import itertools

            for n in (1, 2, 3):
                for eps in itertools.product((1, -1), repeat=n):
                    for lam0 in (EMPTY, P([1])):
                        for lamN in (EMPTY, P([1])):
                            ok, info = macdonald.partition_sum_check(
                                eps, lam0, lamN, [1] * n, 3)
                            if not ok:
                                report.result = "fail"
                                report.mismatch = {"eps": list(eps), **info}
                                return report
        return report
    if name.startswith("warnaar-"):
        variant = name.split("-", 1)[1]
        report = VerificationReport(check=name, mode="exact", degree=4)
        with timed(report):
            ok, info = macdonald.warnaar_check(variant, 1, 4)
            if ok:
                ok, info = macdonald.warnaar_check(variant, 2, 4)
            if not ok:
                report.result = "fail"
                report.mismatch = info
        return report
    raise ValueError(f"unknown identity {name!r}")


IDENTITY_NAMES = ["gasper", "lemma", "general", "birds-final", "banners-final",
                  "pieri", "cauchy", "branching", "qp-lemma", "gmacmahon",
                  "partition-sum", "warnaar-oa", "warnaar-el", "warnaar-odd",
                  "warnaar-even"]

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
    """The desk profile: every acceptance hook instance plus every identity."""
    reports = []
    for family, alpha, beta, f, degree, mode in DESK_HOOKS:
        reports.append(run_hook(family, Partition.parse(alpha),
                                Partition.parse(beta) if beta else None,
                                f, degree, mode, points, seed))
    for name in IDENTITY_NAMES:
        reports.append(run_identity(name, seed=seed))
    reports.sort(key=lambda r: (r.check, str(r.params)))
    return reports
