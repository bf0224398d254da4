"""Seeded case generators for the benchmark workloads, and the case runner.

A generator takes the workload seed and returns plain data: the inputs a
user would hand to ``qthook verify`` (family, alpha, beta, f, D, mode, point
count and point seed, or an identity's parameters).  Generating imports
nothing from qthook; ``run_case`` is the only function that calls into the
package, and it calls the same entry points the command line does.

Why the workloads look the way they do (measured on a 2-core x86 box,
Python 3.11.7, one process, warm caches unless noted):

* ``hook-eval`` -- the hook identity in eval mode.  ``weight_generic`` is
  60-80 % of the time; ``BiPoly.__mul__`` is never called.  The ladder is
  shifted (3,2) at D=5..9, bird (4,3),(3,2);2 at D=5..7, banner (9,6,3,2);2
  at D=5 and D=9 (the last alone 4.5-5.7 s) and eight instances of 90-450 ms.
* ``hook-exact`` -- the same generator in exact mode at smaller D: banner
  (4,3,2,1);2 up to D=9 and bird (4,3),(3,2);2 up to D=7 lead the ladder.
  Its ``BiPoly`` products are many and small (median about 9 coefficient
  multiplies), the opposite of ``identities``.
* ``identities`` -- exact summation and Macdonald identities: the lemma and
  ``general`` grids, the birds/banners closing identities, Pieri (phi and
  psi), a Gasper slice and the Gram-Schmidt oracle.  The work is a few large
  ``BiPoly`` products; it is the only workload that reaches ``macdonald``
  and ``polyops``.  The full ``general`` sweep (one n=3 case alone takes
  20 s) does not fit a run, so the grids stop at n=2 and theta0=3.

The seed moves the inputs but hardly the amount of work.  Where a drawn
parameter can move a case's cost by more than a few milliseconds (gamma on
strata with rho0 - k0 >= 2 moves a case between 0.4 s and 2 s), that
parameter follows a fixed rule instead, and every other drawn gamma or r
comes with its complement (see ``identity_cases``); the hook workloads keep
a fixed ladder of shapes, of which the seed draws each bird's orientation
(see ``hook_cases``).  Every other gamma, r, shape, f and every evaluation
point is drawn from the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("identities", "hook-eval", "hook-exact")

# A hook workload is a fixed part, the same shapes on every seed, and seeded
# slots.  The fixed part holds the ladder, whose cases are the slowest tenth
# (so case_ms.p90 falls on it), and a mid block of 25-50 ms cases placed so
# that case_ms.p50 falls inside it.  Each seeded slot draws an instance from
# a pool whose cases all sit below the mid block (SMALL) or between it and
# the ladder (LARGE); entries are (family, alpha, beta, f, D).
EVAL_LADDER = ([("shifted", "3,2", None, None, d) for d in range(5, 10)]
               + [("bird", "4,3", "3,2", 2, d) for d in range(5, 8)]
               + [("banner", "9,6,3,2", None, 2, d) for d in (5, 9)]
               + [("shifted", "7,5,3,1", None, None, 5),
                  ("shifted", "6,4,2", None, None, 7),
                  ("bird", "5,3", "4,2", 1, 5), ("bird", "4,3", "3,2", 3, 5),
                  ("bird", "3,2", "3,2", 2, 6),
                  ("banner", "6,4,3,2", None, 2, 5),
                  ("banner", "5,4,2,1", None, 3, 5),
                  ("banner", "4,3,2,1", None, 3, 7)])
EVAL_MID = 4 * [("shifted", "5,3,1", None, None, 5),
                ("banner", "4,3,2,1", None, 2, 5),
                ("shifted", "4,2,1", None, None, 7),
                ("bird", "3,1", "2,1", 3, 6),
                ("bird", "2,1", "2,1", 3, 8),
                ("shifted", "4,2", None, None, 8)]
EVAL_SMALL = [("shifted", "4,2", None, None, 5), ("shifted", "4,3", None, None, 5),
              ("shifted", "4,2,1", None, None, 5), ("shifted", "5,3", None, None, 5),
              ("bird", "2,1", "2,1", 1, 6), ("bird", "2,1", "2,1", 2, 6),
              ("bird", "2,1", "2,1", 3, 6), ("bird", "3,1", "2,1", 1, 5)]
EVAL_LARGE = [("shifted", "5,4,2", None, None, 6),
              ("shifted", "5,4,3,1", None, None, 6),
              ("bird", "3,2", "2,1", 2, 7), ("bird", "3,1", "2,1", 3, 7),
              ("banner", "4,3,2,1", None, 3, 6)]
EVAL_SLOTS = [(EVAL_SMALL, 36), (EVAL_LARGE, 22)]

EXACT_LADDER = ([("banner", "4,3,2,1", None, 2, d) for d in range(5, 10)]
                + [("bird", "4,3", "3,2", 2, d) for d in range(5, 8)]
                + [("shifted", "6,4,3,1", None, None, 5),
                   ("shifted", "5,3,1", None, None, 5),
                   ("bird", "5,3", "4,2", 1, 4),
                   ("banner", "6,4,3,2", None, 2, 4),
                   ("banner", "5,4,2,1", None, 3, 4),
                   ("shifted", "5,4,2", None, None, 5),
                   ("bird", "3,2", "3,2", 1, 5)])
# One instance, either way round (so all of the same cost), which the
# dearest SMALL case stays below and the cheapest LARGE one above, so the
# seed's draws cannot move case_ms.p50 off it.
EXACT_MID = 24 * [("bird", "3,2", "2,1", 2, 4)]
EXACT_SMALL = [("shifted", "5,3", None, None, 4), ("shifted", "4,2,1", None, None, 4),
               ("shifted", "3,2", None, None, 4), ("bird", "2,1", "2,1", 1, 4),
               ("bird", "2,1", "2,1", 2, 4), ("bird", "2,1", "2,1", 3, 5),
               ("bird", "3,1", "2,1", 1, 4), ("shifted", "4,2", None, None, 3)]
EXACT_LARGE = [("shifted", "5,3,1", None, None, 4), ("bird", "3,1", "2,1", 2, 5),
               ("bird", "3,2", "2,1", 1, 5), ("shifted", "4,2,1", None, None, 5)]
EXACT_SLOTS = [(EXACT_SMALL, 36), (EXACT_LARGE, 26)]


def _hook_case(family, alpha, beta, f, degree, mode, points, point_seed):
    return {"kind": "hook", "family": family, "alpha": alpha, "beta": beta,
            "f": f, "degree": degree, "mode": mode, "points": points,
            "seed": point_seed}


def hook_cases(seed: int, mode: str) -> list[dict]:
    """The fixed part followed by the seeded slots, for one mode.

    The fixed part comes first so that the cold-cache cost of the first
    case does not depend on the seed.  The seed turns each bird either way
    round: bird (alpha, beta) and bird (beta, alpha) are mirror images, so
    the choice moves the instance but not its cost.  It also draws every
    point; a point moves an eval case's cost by up to a tenth.
    """
    rng = random.Random(f"hook-{mode}-{seed}")
    if mode == "eval":
        fixed, slots = EVAL_LADDER + EVAL_MID, EVAL_SLOTS
    else:
        fixed, slots = EXACT_LADDER + EXACT_MID, EXACT_SLOTS
    cases = list(fixed)
    for pool, count in slots:
        cases.extend(rng.choice(pool) for _ in range(count))
    out = []
    for idx, (family, alpha, beta, f, degree) in enumerate(cases):
        if family == "bird" and rng.random() < 0.5:
            alpha, beta = beta, alpha
        # 1-3 points per instance, so the points share its LHS terms
        points = 1 + idx % 3 if mode == "eval" else 1
        out.append(_hook_case(family, alpha, beta, f, degree, mode, points,
                              rng.randrange(2 ** 31)))
    return out


def _grid(max_theta: int):
    """(k0, rho0, theta0) with k0 < rho0 <= theta0 <= max_theta.

    k0 = rho0 leaves one summand on each side, a check that costs under a
    millisecond; those strata are left out.
    """
    for theta0 in range(max_theta + 1):
        for rho0 in range(theta0 + 1):
            for k0 in range(rho0):
                yield k0, rho0, theta0


def identity_cases(seed: int) -> list[dict]:
    """The identity grids; a drawn gamma or r comes with its complement.

    The pair (x, top - x) puts one case on each side of the stratum's middle
    cost, so the seed moves neither the total work nor the median case.
    """
    rng = random.Random(f"identities-{seed}")
    cases = []

    def add(kind, params, drawn, top, fixed):
        """Append the case with ``fixed`` as its last parameter, or twice:
        with a drawn value and with its complement, when ``fixed`` is None."""
        if fixed is not None:
            cases.append({"kind": kind, "params": params + [fixed]})
            return
        x = drawn()
        for value in (x, [top - v for v in x] if isinstance(x, list)
                      else top - x):
            cases.append({"kind": kind, "params": params + [value]})

    for m in range(3):
        for k0, rho0, theta0 in _grid(3):
            heavy = rho0 - k0 >= 2
            add("lemma", [m, k0, rho0, theta0], lambda: rng.randint(0, 2), 2,
                (m + k0 + rho0 + theta0) % 3 if heavy else None)
    for n in (1, 2):
        for m in range(3):
            for k0, rho0, theta0 in _grid(3 if n == 1 else 2):
                heavy = rho0 - k0 >= 2
                add("general", [m, n, k0, rho0, theta0],
                    lambda: [rng.randint(0, 3) for _ in range(n)], 3,
                    [(m + theta0 + i) % 4 for i in range(n)] if heavy else None)
    for f in (1, 2):
        for theta0 in range(4 if f == 1 else 3):
            for rho0 in range(theta0 + 1):
                heavy = rho0 >= 2
                add("birds-final", [rho0, theta0, f],
                    lambda: [rng.randint(0, 3) for _ in range(f)], 3,
                    [(theta0 + i) % 4 for i in range(f)] if heavy else None)
    for quad in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0), (3, 2, 2, 1),
                 (2, 2, 2, 2), (3, 3, 1, 1)]:
        add("banners-final", [list(quad), 2],
            lambda: [rng.randint(0, 3)], 3, None)
    for kind in ("phi", "psi"):
        for mu in _partitions_up_to(3):
            # r = 2 on (2), (1,1), (3), (2,1) costs 0.05-1.5 s a case
            for r in range(3 if mu in ("", "1", "1,1,1") else 2):
                cases.append({"kind": "pieri", "params": [mu, r, 4, kind]})
    for _ in range(15):
        cases.append({"kind": "gasper",
                      "params": [2, rng.randrange(2 ** 31)]})
    for lam in _partitions_up_to(4):
        cases.append({"kind": "gram", "params": [lam, 4]})
    for d in range(1, 4):
        for lam in _partitions_of(d):
            for mu in _partitions_of(d):
                cases.append({"kind": "orthonormality", "params": [lam, mu, 4]})
    return cases


def _partitions_of(n: int, max_part: int | None = None) -> list[str]:
    """Partitions of n as comma-separated strings, largest first.

    Not qthook's ``partitions_of``: that one is cached, and the cases must
    find its cache cold.
    """
    if n == 0:
        return [""]
    max_part = n if max_part is None else max_part
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            out.append(",".join(filter(None, [str(first), rest])))
    return out


def _partitions_up_to(n: int) -> list[str]:
    return [lam for d in range(n + 1) for lam in _partitions_of(d)]


def generate(workload: str, seed: int) -> list[dict]:
    """The case list of one workload; the same seed gives the same list."""
    if workload == "identities":
        return identity_cases(seed)
    if workload == "hook-eval":
        return hook_cases(seed, "eval")
    if workload == "hook-exact":
        return hook_cases(seed, "exact")
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running one case.
# ---------------------------------------------------------------------------

def _bool_report(check: str, params, ok: bool, mismatch=None) -> dict:
    return {"check": check, "params": params,
            "result": "pass" if ok else "fail",
            "mismatch": None if ok else (mismatch or {"params": params})}


def run_case(case: dict) -> dict:
    """Run one case through qthook; return its report without elapsedMs.

    A report whose "result" is anything but "pass" is a non-pass.  A pass
    that checked less than was asked for is turned into "empty".
    """
    from qthook import hypergeom, macdonald, suites
    from qthook.partitions import Partition

    kind, params = case["kind"], case.get("params")
    if kind == "hook":
        beta = case["beta"]
        report = suites.run_hook(
            case["family"], Partition.parse(case["alpha"]),
            Partition.parse(beta) if beta else None, case["f"],
            case["degree"], case["mode"], case["points"], case["seed"])
        out = report.to_dict()
        out.pop("elapsedMs")
        wanted_points = case["points"] if case["mode"] == "eval" else 0
        if out["result"] == "pass" and (
                out["D"] != case["degree"]
                or len(out["points"] or []) != wanted_points):
            out["result"] = "empty"
        return out
    if kind == "lemma":
        return _bool_report(kind, params, hypergeom.lemma_check(*params))
    if kind == "general":
        return _bool_report(kind, params, hypergeom.general_check(*params))
    if kind == "birds-final":
        return _bool_report(kind, params,
                            hypergeom.birds_final_check(*params))
    if kind == "banners-final":
        quad, f, r = params
        lam = Partition([p for p in quad if p])
        return _bool_report(kind, params,
                            hypergeom.banners_final_check(lam, f, r))
    if kind == "pieri":
        mu, r, n, pkind = params
        ok, info = macdonald.pieri_check(Partition.parse(mu), r, n, pkind)
        return _bool_report(kind, params, ok, info)
    if kind == "gasper":
        trials, sweep_seed = params
        report = hypergeom.gasper_sweep(trials, sweep_seed)
        report.check = "gasper"
        out = report.to_dict()
        out.pop("elapsedMs")
        if out["result"] == "pass" and out.get("trials") != trials:
            out["result"] = "empty"
        return out
    if kind == "gram":
        lam, n = params
        lam = Partition.parse(lam)
        ok = macdonald.gram_p(lam, n).equals(macdonald.macdonald_p(lam, n))
        return _bool_report(kind, params, ok)
    if kind == "orthonormality":
        lam, mu, n = params
        return _bool_report(kind, params, macdonald.orthonormality_check(
            Partition.parse(lam), Partition.parse(mu), n))
    raise ValueError(f"unknown case kind {kind!r}")
