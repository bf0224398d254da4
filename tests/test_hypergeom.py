import random
from fractions import Fraction

import pytest

from qthook import hookformula, hypergeom
from qthook.partitions import Partition, bounded_tuples, monotone_chains
from qthook.qtcore import QTFactored, f_fun
from qthook.series import QTCoeff
from qthook.hypergeom import (
    DegenerateDraw,
    _neg_q_power,
    b_ratio_checks,
    banners_final_both_sides,
    banners_final_check,
    birds_final_both_sides,
    birds_final_check,
    gasper_both_sides,
    gasper_sweep,
    general_both_sides,
    general_check,
    lemma_both_sides,
    lemma_check,
    phi_series,
    q_poch,
    w_series,
    w_series_phi_form,
)

P = Partition
F = Fraction


def test_q_poch_basics():
    q = F(1, 2)
    assert q_poch(F(3), q, 0) == 1
    assert q_poch(F(1), q, 3) == 0  # first factor vanishes
    assert q_poch(F(2), F(1, 2), 2) == (1 - 2) * (1 - 1)  # = 0
    assert q_poch(F(3), q, 2) == (1 - 3) * (1 - F(3, 2))
    # negative n is a wrong call: it raises instead of returning 1
    for n in (-1, -2):
        with pytest.raises(ValueError):
            q_poch(F(3), q, n)


def _neg_q_power_scan(x, q, cap):
    """The plain full scan: smallest n <= cap with x * q^n == 1, else None."""
    x = F(x)
    if x == 0:
        return None
    return next((n for n in range(cap + 1) if x * q ** n == 1), None)


def test_neg_q_power_matches_full_scan():
    rng = random.Random(11)

    def rational():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    qs = [F(3, 2), F(2), F(1, 3), F(2, 3), F(-2), F(-1, 2), F(-3, 2), F(1),
          F(-1), F(0)]
    qs += [r for r in (rational() for _ in range(40)) if r != 0]
    cases = []
    for q in qs:
        cap = rng.randint(0, 12)
        cases += [(F(0), q, cap), (F(1), q, cap), (F(-1), q, cap)]
        cases += [(rational(), q, cap) for _ in range(20)]
        if q != 0:
            # hits before, exactly at and just past the cap, of either sign
            for n in (0, 1, cap // 2, cap, cap + 1):
                cases += [(q ** -n, q, cap), (-(q ** -n), q, cap)]
    hits = 0
    for x, q, cap in cases:
        want = _neg_q_power_scan(x, q, cap)
        assert _neg_q_power(x, q, cap) == want, (x, q, cap)
        hits += want is not None
    assert hits > len(qs)  # the comparison covers many hits, not only misses


def test_phi_series_trivial_and_binomial():
    q, z = F(1, 3), F(2, 7)
    # an upper equal to q^0 = 1 kills every n >= 1 term
    assert phi_series([F(1), F(5)], [F(3)], q, z) == 1
    # terminating 1phi0 with upper q^-2 equals the direct 3-term sum
    a = q ** -2
    direct = sum(q_poch(a, q, n) / q_poch(q, q, n) * z ** n for n in range(3))
    assert phi_series([a], [], q, z) == direct


def test_w_series_dual_evaluation():
    rng = random.Random(9)
    done = 0
    while done < 100:
        q = F(rng.randint(2, 7), rng.randint(2, 7))
        if q == 1:
            continue
        s = F(rng.randint(2, 5), rng.randint(2, 5))
        a1 = s * s
        n_term = rng.randint(0, 4)
        tail = [("plain", q ** -n_term)]
        for _ in range(rng.randint(0, 2)):
            u = F(rng.randint(2, 5), rng.randint(2, 5))
            tail.append(("sqrtpair", u * u))
        if rng.random() < 0.5:
            tail.append(("plain", F(rng.randint(2, 9), rng.randint(2, 9))))
        z = F(rng.randint(2, 9), rng.randint(2, 9))
        try:
            per_term = w_series(a1, tail, q, z)
            phi_form = w_series_phi_form(a1, tail, q, z)
        except (DegenerateDraw, ZeroDivisionError):
            continue
        assert per_term == phi_form
        done += 1


def test_w_series_pair_witness():
    """With no q^-n among the plain parameters the bound comes from the
    first pair v = q^-2n; both evaluations sum to it and agree."""
    q, z = F(1, 2), F(1, 3)
    for a1, tail, bound in (
            (F(9), [("sqrtpair", F(16))], 2),
            (F(9, 4), [("sqrtpair", F(16)), ("plain", F(7))], 2),
            (F(25), [("sqrtpair", F(64)), ("sqrtpair", F(9, 4))], 3)):
        assert hypergeom._w_tail(tail, q)[2] == bound
        assert w_series(a1, tail, q, z) == w_series_phi_form(a1, tail, q, z)


DEGENERATE_DRAWS = [  # (call, message): each raise of DegenerateDraw
    (lambda: phi_series([F(3)], [F(5)], F(1, 2), F(1, 3)),
     "no termination witness q"),
    (lambda: w_series(F(4), [("plain", F(3)), ("sqrtpair", F(9))], F(1, 2),
                      F(1, 3)), "no termination witness in W tail"),
    (lambda: w_series_phi_form(F(-4), [("plain", F(4))], F(1, 2), F(1, 3)),
     "negative value"),
    (lambda: w_series_phi_form(F(2), [("plain", F(4))], F(1, 2), F(1, 3)),
     "2 has no exact rational square root"),
]


@pytest.mark.parametrize("call, message", DEGENERATE_DRAWS,
                         ids=[f"draw{i}" for i in range(len(DEGENERATE_DRAWS))])
def test_degenerate_draws_raise(call, message):
    with pytest.raises(DegenerateDraw, match=message):
        call()


def test_gasper_tiny_cases():
    # n = 0: both sides must evaluate to 1 (computed, not assumed)
    lhs, rhs = gasper_both_sides(F(3), F(5), F(7), F(1, 2), 0)
    assert lhs == 1 and rhs == 1
    for params in ((F(3), F(5), F(7), F(1, 2), 1),
                   (F(3, 2), F(5, 3), F(7, 4), F(2, 5), 3)):
        lhs, rhs = gasper_both_sides(*params)
        assert lhs == rhs, params


def test_gasper_sweep_and_negative_control(monkeypatch):
    report = gasper_sweep(50, seed=7)
    assert report.passed, report.to_dict()
    # rhs = prefactor * w_series, so this scales the prefactor by 9/8
    monkeypatch.setattr(hypergeom, "w_series",
                        lambda *args: w_series(*args) * F(9, 8))
    bad = gasper_sweep(50, seed=7)
    assert not bad.passed


def test_lemma_single_term():
    # rho0 = k0 collapses both sides to one term each
    lhs, rhs = lemma_both_sides(1, 2, 2, 3, 1)
    assert lhs.equals(rhs)


def test_lemma_small_case():
    assert lemma_check(0, 0, 1, 1, 0)


def test_lemma_sweep():
    for m in range(3):
        for theta0 in range(4):
            for rho0 in range(theta0 + 1):
                for k0 in range(rho0 + 1):
                    for gamma in range(3):
                        assert lemma_check(m, k0, rho0, theta0, gamma), \
                            (m, k0, rho0, theta0, gamma)


def test_general_n0_and_n1():
    # n = 0: both sides are the single product f(rho0-k0;0) f(theta0-k0;m)
    lhs, rhs = general_both_sides(2, 0, 1, 2, 3, [])
    assert lhs.equals(rhs)
    # n = 1 coincides with the lemma term by term
    for m in range(2):
        for theta0 in range(3):
            for rho0 in range(theta0 + 1):
                for k0 in range(rho0 + 1):
                    for g in range(2):
                        l1, r1 = general_both_sides(m, 1, k0, rho0, theta0, [g])
                        l2, r2 = lemma_both_sides(m, k0, rho0, theta0, g)
                        assert l1.equals(l2) and r1.equals(r2)


def test_general_sweep():
    rng = random.Random(1)
    cases = []
    for n in range(4):
        for m in range(3):
            for theta0 in range(4):
                for rho0 in range(theta0 + 1):
                    for k0 in range(rho0 + 1):
                        cases.append((m, n, k0, rho0, theta0))
    for (m, n, k0, rho0, theta0) in cases:
        gamma = [rng.randint(0, 3) for _ in range(n)]
        assert general_check(m, n, k0, rho0, theta0, gamma), \
            (m, n, k0, rho0, theta0, gamma)


def test_lemma_equals_general_seeded():
    rng = random.Random(4)
    for _ in range(30):
        theta0 = rng.randint(0, 3)
        rho0 = rng.randint(0, theta0)
        k0 = rng.randint(0, rho0)
        m, g = rng.randint(0, 2), rng.randint(0, 2)
        l1, r1 = general_both_sides(m, 1, k0, rho0, theta0, [g])
        l2, r2 = lemma_both_sides(m, k0, rho0, theta0, g)
        assert l1.equals(l2) and r1.equals(r2) and l1.equals(r1)


def test_birds_final_tiny():
    assert birds_final_check(1, 1, 1, [0])


def test_birds_final_sweep():
    rng = random.Random(5)
    for f in (1, 2):
        for theta0 in range(4):
            for rho0 in range(theta0 + 1):
                r = [rng.randint(0, 3) for _ in range(f)]
                assert birds_final_check(rho0, theta0, f, r), (rho0, theta0, f, r)


def test_banners_final_sweep():
    rng = random.Random(6)
    for f in (2,):
        for quad in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0), (3, 2, 2, 1),
                     (2, 2, 2, 2), (3, 3, 1, 1)]:
            lam = P([p for p in quad if p])
            r = [rng.randint(0, 3) for _ in range(f - 1)]
            assert banners_final_check(lam, f, r), (quad, r)


def _paper_closing_sides(rho_m, theta_m, m, n, r):
    """The closing identity as the paper writes it, started at step m: the
    sum of Phi-hat over chains rho_m >= rho_(m+1) >= ... >= rho_n >= 0, with
    theta_i = rho_(i-1) + theta_(i-1) + r_i - rho_i, and its f-product side;
    r lists r_(m+1), ..., r_n."""
    lhs = QTCoeff.zero()
    for chain in monotone_chains(0, rho_m, n - m):
        rho = {m: rho_m}
        theta = {m: theta_m}
        for i in range(m + 1, n + 1):
            rho[i] = chain[i - m - 1]
            theta[i] = rho[i - 1] + theta[i - 1] + r[i - m - 1] - rho[i]
        lhs = lhs + QTCoeff.from_qtf(hookformula.phi_hat(rho, theta, m, n))
    rhs = QTCoeff.zero()
    boundary = (f_fun(rho_m, 0) * f_fun(theta_m, m + 1)).inverse()
    for ls in bounded_tuples([1] * (n - m), rho_m):
        l = sum(ls)
        t = f_fun(rho_m - l, 0) * f_fun(theta_m - l, m + 1) * boundary
        for k, r_k in zip(ls, r):
            t = t * f_fun(k, 0) * f_fun(k + r_k, 0)
        rhs = rhs + QTCoeff.from_qtf(t)
    return lhs, rhs


def test_birds_final_is_general_at_m1():
    # the birds sides (the general summation at m = 1, k0 = 0, gamma = r,
    # over the boundary ratio) are the paper's Phi-hat sum and f-products
    rng = random.Random(8)
    for _ in range(10):
        theta0 = rng.randint(0, 3)
        rho0 = rng.randint(0, theta0)
        f = rng.randint(1, 2)
        r = [rng.randint(0, 2) for _ in range(f)]
        bl, br = birds_final_both_sides(rho0, theta0, f, r)
        pl, pr = _paper_closing_sides(rho0, theta0, 0, f, r)
        assert bl.equals(pl) and br.equals(pr), (rho0, theta0, f, r)


def test_banners_final_is_general_at_m2():
    rng = random.Random(9)
    for quad in [(2, 1, 1, 0), (3, 2, 2, 1), (2, 2, 1, 1)]:
        lam = P([p for p in quad if p])
        f = 2
        r = [rng.randint(0, 2) for _ in range(f - 1)]
        bl, br = banners_final_both_sides(lam, f, r)
        pl, pr = _paper_closing_sides(lam[4], lam[2], 1, f, r)
        assert bl.equals(pl) and br.equals(pr), (quad, r)


def test_b_ratio_displays():
    assert b_ratio_checks()


@pytest.mark.parametrize("check", [
    lambda: lemma_check(1, 0, 2, 3, 1),
    lambda: general_check(1, 2, 0, 2, 3, [1, 0]),
    lambda: birds_final_check(2, 3, 2, [1, 0]),
    lambda: banners_final_check(P([3, 2, 2, 1]), 2, [2]),
], ids=["lemma", "general", "birds-final", "banners-final"])
def test_summations_fail_when_phi_is_scaled(check, monkeypatch):
    # every summation sums Phi through the one phi_chain; doubling it
    # changes the chain side only
    assert check()
    real = hypergeom.phi_chain
    monkeypatch.setattr(hypergeom, "phi_chain",
                        lambda *args: real(*args) * QTFactored(2))
    assert not check()
