"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass.  Every comparison is exact; eval-mode checks use exact rationals at
seeded sample points.
"""

import itertools
import json

import pytest

from qthook.partitions import EMPTY, Partition, partitions_of, partitions_up_to
from qthook.qtcore import sample_points
from qthook.series import series_equals
from qthook.dposet import (
    build_family,
    hook_monomials,
    hook_monomials_closed_form,
)
from qthook.hookformula import (
    lhs_macdonald_form,
    lhs_series,
    rhs_macdonald_form,
    rhs_series,
    verify_okada,
    weight_closed_form,
    weight_generic,
    weight_via_traces,
)
from qthook import hypergeom, macdonald, suites

from p_maps import p_partitions, z_monomial

P = Partition
EXACT = None


def _desk_hooks(*modes):
    """(family, build_family arguments, degree) of each hook instance of the
    desk profile (``suites.DESK_HOOKS``) checked in one of ``modes``."""
    return [(family, (P.parse(alpha), P.parse(beta) if beta else None, f),
             degree)
            for family, alpha, beta, f, degree, mode in suites.DESK_HOOKS
            if mode in modes]


def _announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_okada_identity():
    exact, evals = _desk_hooks("exact"), _desk_hooks("eval")
    assert (len(exact), len(evals)) == (5, 3)
    for family, args, degree in exact:
        report = verify_okada(build_family(family, *args), degree, "exact")
        assert report.passed, report.to_dict()
    pts = sample_points(3, seed=0)
    for family, args, degree in evals:
        report = verify_okada(build_family(family, *args), degree, "eval",
                              pts, seed=0)
        assert report.passed, report.to_dict()
    _announce("1 (Okada hook identity, 5 exact + 3 eval instances)", True)


def test_criterion_2_weight_coherence():
    checked = 0
    for family, args, degree in _desk_hooks("exact", "eval"):
        poset = build_family(family, *args)
        for pi in p_partitions(poset, degree):
            w_gen = weight_generic(poset, pi)
            w_closed = weight_closed_form(poset, pi)
            w_tr, mono = weight_via_traces(poset, pi)
            assert w_gen.equals(w_closed), (family, pi)
            assert w_gen.equals(w_tr), (family, pi)
            assert mono == z_monomial(poset, pi), (family, pi)
            checked += 1
    _announce("2 (weight-formula coherence)", True,
              f"{checked} P-partitions, zero mismatches")


def test_criterion_3_hook_monomials():
    instances = _desk_hooks("exact", "eval") + \
        [("shifted", (P([4, 2, 1]), None, None), 0)]
    for family, args, _ in instances:
        poset = build_family(family, *args)
        rec = hook_monomials(poset)
        closed = hook_monomials_closed_form(poset)
        rec_ms = sorted(tuple(sorted(m.items())) for m in rec.values())
        closed_ms = sorted(tuple(sorted(m.items())) for m in closed.values())
        assert rec_ms == closed_ms, (family, args)
        assert len(rec) == len(poset)
    _announce("3 (hook monomials: recursion = closed form)", True,
              f"{len(instances)} instances")


def test_criterion_4_macdonald_suite():
    for kind in ("phi", "psi"):
        for mu in partitions_up_to(3, max_length=4):
            for r in range(3):
                ok, info = macdonald.pieri_check(mu, r, 4, kind)
                assert ok, (kind, mu, r, info)
    ok, info = macdonald.cauchy_check(2, 2, 4)
    assert ok, info
    for lam in partitions_up_to(4):
        ok, info = macdonald.branching_check(lam, 2, 1)
        assert ok, info
    for d in range(6):
        for lam in partitions_of(d, None, 4):
            assert macdonald.gram_p(lam, 4).equals(
                macdonald.macdonald_p(lam, 4)), lam
    for lam in partitions_up_to(4, max_length=4):
        for mu in partitions_up_to(4, max_length=4):
            assert macdonald.orthonormality_check(lam, mu, 4), (lam, mu)
    _announce("4 (Macdonald suite: Pieri, Cauchy, branching, Gram oracle, "
              "orthonormality)", True)


def test_criterion_5_interlacing_identities():
    shapes = [EMPTY, P([1]), P([2])]
    for mu in shapes:
        for nu in shapes:
            ok, info = macdonald.qp_lemma_check(mu, nu, 2, 2, 3)
            assert ok, (mu, nu, info)
    for mu0 in (EMPTY, P([1])):
        for muT in (EMPTY, P([1])):
            ok, info = macdonald.gmacmahon_check(2, mu0, muT,
                                                 ([1, 1], [1, 1]), 3)
            assert ok, (mu0, muT, info)
    for n in (1, 2, 3):
        for eps in itertools.product((1, -1), repeat=n):
            for lam0 in (EMPTY, P([1])):
                for lamN in (EMPTY, P([1])):
                    ok, info = macdonald.partition_sum_check(
                        eps, lam0, lamN, [1] * n, 3)
                    assert ok, (eps, lam0, lamN, info)
    _announce("5 (skew interchange, MacMahon, partition sums)", True)


def test_criterion_6_warnaar():
    for variant in ("oa", "el", "odd", "even"):
        ok, info = macdonald.warnaar_check(variant, 1, 4)
        assert ok, (variant, info)
        ok, info = macdonald.warnaar_check(variant, 2, 4)
        assert ok, (variant, info)
    _announce("6 (Warnaar sums, 4 variants, n=1 reduction and n=2 at D=4)",
              True)


def test_criterion_7_gasper(monkeypatch):
    report = hypergeom.gasper_sweep(50, seed=7)
    assert report.passed, report.to_dict()
    # rhs = prefactor * w_series, so this scales the prefactor by 9/8
    w_series = hypergeom.w_series
    monkeypatch.setattr(hypergeom, "w_series",
                        lambda *args: w_series(*args) * hypergeom.Fraction(9, 8))
    control = hypergeom.gasper_sweep(50, seed=7)
    assert not control.passed, "perturbed prefactor must fail"
    _announce("7 (Gasper transformation, 50 draws + negative control)", True)


def test_criterion_8_summation_identities():
    for m in range(3):
        for theta0 in range(4):
            for rho0 in range(theta0 + 1):
                for k0 in range(rho0 + 1):
                    for gamma in range(3):
                        assert hypergeom.lemma_check(m, k0, rho0, theta0,
                                                     gamma)
    import random
    rng = random.Random(1)
    for n in range(4):
        for m in range(3):
            for theta0 in range(4):
                for rho0 in range(theta0 + 1):
                    for k0 in range(rho0 + 1):
                        gamma = [rng.randint(0, 3) for _ in range(n)]
                        assert hypergeom.general_check(m, n, k0, rho0,
                                                       theta0, gamma)
    for f in (1, 2):
        for theta0 in range(4):
            for rho0 in range(theta0 + 1):
                r = [rng.randint(0, 3) for _ in range(f)]
                assert hypergeom.birds_final_check(rho0, theta0, f, r)
    for quad in [(1, 1, 0, 0), (2, 1, 1, 0), (3, 2, 2, 1), (2, 2, 2, 2),
                 (3, 3, 1, 1), (3, 3, 3, 3)]:
        lam = P([p for p in quad if p])
        assert hypergeom.banners_final_check(lam, 2, [rng.randint(0, 3)])
    assert hypergeom.b_ratio_checks()
    _announce("8 (summation lemma, general identity, final identities, "
              "b-ratio displays)", True)


def test_criterion_9_structure_theorems():
    for family, args in [("shifted", (P([2, 1]), None, None)),
                         ("bird", (P([2, 1]), P([2, 1]), 1))]:
        poset = build_family(family, *args)
        eq, info = series_equals(lhs_series(poset, 3, EXACT),
                                 lhs_macdonald_form(poset, 3))
        assert eq, (family, "lhs", info)
        if family == "bird":
            eq, info = series_equals(rhs_series(poset, 3, EXACT),
                                     rhs_macdonald_form(poset, 3))
            assert eq, (family, "rhs", info)
    # composition: kernel x Warnaar-even product side = hook product side
    from qthook.dposet import _alias_tables, _mono_mul
    from qthook.hookformula import _kernel_f_args
    from qthook.series import product_of_f

    alpha = P([2, 1])
    poset = build_family("shifted", alpha, None, None)
    al = _alias_tables(poset)
    monos = poset.varset.monomial
    kernel = [monos(arg) for arg in _kernel_f_args(al["zt"], alpha, al["n"])]
    r = alpha.length()
    product_side = [monos(al["zt"][alpha[i]]) for i in range(1, r + 1)]
    product_side += [monos(_mono_mul(_mono_mul(al["w"], al["zt"][alpha[i]]),
                                     al["zt"][alpha[j]]))
                     for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    out = (product_of_f(kernel, poset.varset, 3, EXACT)
           * product_of_f(product_side, poset.varset, 3, EXACT))
    eq, info = series_equals(out, rhs_series(poset, 3, EXACT))
    assert eq, info
    _announce("9 (Macdonald-form rewrites of both sides + Warnaar-even "
              "composition)", True)


def test_criterion_10_determinism():
    r1 = suites.run_hook("bird", P([2, 1]), P([2, 1]), 1, 3, "eval", 3, 42)
    r2 = suites.run_hook("bird", P([2, 1]), P([2, 1]), 1, 3, "eval", 3, 42)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("elapsedMs"), d2.pop("elapsedMs")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    g1 = hypergeom.gasper_sweep(10, seed=3).to_dict()
    g2 = hypergeom.gasper_sweep(10, seed=3).to_dict()
    g1.pop("elapsedMs"), g2.pop("elapsedMs")
    assert g1 == g2
    _announce("10 (determinism: identical reports for identical seeds)", True)
