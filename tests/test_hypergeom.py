import hashlib
import random
from fractions import Fraction
from math import isqrt

import pytest

from qthook import hookformula, hypergeom, suites
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
)

from test_negative_controls import IDENTITY_MUTATIONS, TWO, _scaled

P = Partition
F = Fraction


def w_series_phi_form(a1, tail, q, z) -> Fraction:
    """The W series through its phi definition; needs exact square roots.

    Shares the term-ratio form's termination bound so that the two
    evaluations sum the same index range; 0/0 collisions inside the range
    surface as DegenerateDraw through the lower-pole check.
    """
    a1, q = Fraction(a1), Fraction(q)
    bound = hypergeom._w_tail(tail, q)[2]
    s = _exact_sqrt(a1)
    uppers, lowers = [a1, q * s, -q * s], [s, -s]
    for kind, v in tail:
        if kind == "plain":
            roots = [Fraction(v)]
        else:
            u = _exact_sqrt(v)
            roots = [u, -u]
        uppers += roots
        lowers += [q * a1 / u for u in roots]
    return hypergeom._phi_partial([(a, 1) for a in uppers],
                                  [(b, 1) for b in lowers], q, Fraction(z),
                                  bound)


def _exact_sqrt(v) -> Fraction:
    v = Fraction(v)
    if v < 0:
        raise DegenerateDraw("negative value has no rational square root")
    num, den = isqrt(v.numerator), isqrt(v.denominator)
    if num * num != v.numerator or den * den != v.denominator:
        raise DegenerateDraw(f"{v} has no exact rational square root")
    return Fraction(num, den)


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


def test_neg_q_power_at_the_term_cap():
    """Hits just below, at and just past TERM_CAP, of either sign, for a q
    on each side of 1 and a negative one."""
    cap = hypergeom.TERM_CAP
    for q in (F(9, 8), F(-8, 9)):
        for n in (cap - 1, cap, cap + 1):
            for x in (q ** -n, -(q ** -n), q ** -n * F(9, 8)):
                assert _neg_q_power(x, q, cap) == _neg_q_power_scan(x, q, cap)
        assert _neg_q_power(q ** -cap, q, cap) == cap
        assert _neg_q_power(q ** -(cap + 1), q, cap) is None


def _phi_partial_fractions(uppers, lowers, q, z, bound):
    """``_phi_partial`` in Fraction arithmetic, each term ratio formed and
    reduced step by step: a reference for the integer kernel."""
    total = term = F(1)
    for n in range(bound):
        ratio = z / (1 - q ** (n + 1))
        for c, k in uppers:
            ratio *= 1 - c * q ** (k * n)
        for c, k in lowers:
            den = 1 - c * q ** (k * n)
            if den == 0:
                raise DegenerateDraw(f"lower parameter pole at step {n}")
            ratio /= den
        term *= ratio
        total += term
    return total


def _q_poch_fractions(a, q, n):
    """``q_poch`` as a Fraction product: a reference for the integer one."""
    out = F(1)
    for k in range(n):
        out *= 1 - a * q ** k
    return out


def _outcome(call):
    """The value of ``call()``, or the type and text of what it raised."""
    try:
        return call()
    except (DegenerateDraw, ZeroDivisionError) as exc:
        return type(exc), str(exc) if type(exc) is DegenerateDraw else None


def _kernel_draws(rng):
    """Seeded (uppers, lowers, q, z, bound, planted) for ``_phi_partial``:
    q on both sides of 1 and of either sign, z of either sign, bounds from
    0, and in most draws a parameter c = q^-(k m) planted so that its factor
    vanishes at step m <= bound: an upper (the term turns 0) or a lower (a
    pole); ``planted`` names it when m < bound."""
    def rational():
        return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    for _ in range(400):
        q = rational()
        if abs(q) == 1:
            continue
        uppers, lowers = ([(rational(), rng.randint(1, 2))
                           for _ in range(rng.randint(0, 3))] for _ in "ul")
        bound = rng.randint(0, 7)
        planted = rng.choice([None, "upper", "lower"])
        k, m = rng.randint(1, 2), rng.randint(0, bound)
        if planted is not None:
            side = uppers if planted == "upper" else lowers
            side.insert(rng.randint(0, len(side)), (q ** -(k * m), k))
        yield (uppers, lowers, q, rational(), bound,
               planted if m < bound else None)


def test_phi_partial_matches_the_fraction_loop():
    seen = {"|q|<1": 0, "|q|>1": 0, "q<0": 0, "z<0": 0, "bound 0": 0,
            "term 0": 0, "pole": 0}
    for *args, planted in _kernel_draws(random.Random(31)):
        q, z, bound = args[2:]
        got = _outcome(lambda: hypergeom._phi_partial(*args))
        assert got == _outcome(lambda: _phi_partial_fractions(*args)), args
        seen["|q|<1"] += abs(q) < 1
        seen["|q|>1"] += abs(q) > 1
        seen["q<0"] += q < 0
        seen["z<0"] += z < 0
        seen["bound 0"] += bound == 0
        if isinstance(got, tuple):
            seen["pole"] += planted == "lower"
        else:
            assert type(got) is F
            seen["term 0"] += planted == "upper"
    assert min(seen.values()) >= 10, seen
    # q = -1: at step 1 both divide by 1 - q^2 = 0 before they reach the
    # lower pole 1 - (-1) q
    args = ([(F(3), 1)], [(F(-1), 1)], F(-1), F(1, 2), 3)
    assert _outcome(lambda: hypergeom._phi_partial(*args)) == \
        _outcome(lambda: _phi_partial_fractions(*args)) == \
        (ZeroDivisionError, None)


def test_q_poch_matches_the_fraction_product():
    rng = random.Random(32)
    zeros = 0
    for _ in range(300):
        q = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        n = rng.randint(0, 7)
        a = (q ** -rng.randint(0, 7) if rng.random() < 0.3
             else F(rng.randint(-9, 9), rng.randint(1, 9)))
        got = q_poch(a, q, n)
        assert type(got) is F and got == _q_poch_fractions(a, q, n), (a, q, n)
        zeros += got == 0 and n > 0
    assert zeros >= 10


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
            by_ratio = w_series(a1, tail, q, z)
            phi_form = w_series_phi_form(a1, tail, q, z)
        except (DegenerateDraw, ZeroDivisionError):
            continue
        assert by_ratio == phi_form
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


def _w_series_per_term(a1, tail, q, z):
    """The W series term by term, each term from its own q-Pochhammer
    products: an oracle for the term-ratio sum of ``w_series``."""
    a1, q, z = F(a1), F(q), F(z)
    plains, pairs, bound = hypergeom._w_tail(tail, q)
    total = F(0)
    for n in range(bound + 1):
        term = ((1 - a1 * q ** (2 * n)) / (1 - a1)
                * q_poch(a1, q, n) / q_poch(q, q, n))
        for a in plains:
            term *= q_poch(a, q, n) / q_poch(q * a1 / a, q, n)
        for v in pairs:
            term *= q_poch(v, q * q, n) / q_poch(q * q * a1 * a1 / v, q * q, n)
        total += term * z ** n
    return total


def _gasper_slice(monkeypatch):
    """(draw, sides, w_series arguments) for the first 300 draws of the
    Gasper sweep's stream at seeds 0, 1 and 2; sides and arguments are None
    for a rejected draw."""
    calls = []
    real = hypergeom.w_series
    monkeypatch.setattr(hypergeom, "w_series",
                        lambda *args: calls.append(args) or real(*args))
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(300):
            draw = (*(hypergeom._draw_fraction(rng) for _ in range(4)),
                    rng.randint(0, hypergeom.GASPER_MAX_N))
            calls.clear()
            try:
                sides = gasper_both_sides(*draw)
            except (DegenerateDraw, ZeroDivisionError):
                yield draw, None, None
                continue
            yield draw, sides, calls[0]


def test_w_series_matches_per_term_oracle_on_gasper_draws(monkeypatch):
    checked = 0
    for _, sides, args in _gasper_slice(monkeypatch):
        if sides is not None:
            assert w_series(*args) == _w_series_per_term(*args), args
            checked += 1
    assert checked == 376


def test_gasper_slice_accepts_and_rejects_the_same_draws(monkeypatch):
    """Counts and digest of the draw stream, measured before the W series
    was summed by its term ratio: the same draws are accepted, with the
    same sides, and the same rejected."""
    digest, accepted = hashlib.sha256(), 0
    for draw, sides, _ in _gasper_slice(monkeypatch):
        if sides is None:
            digest.update(f"reject {draw}\n".encode())
        else:
            accepted += 1
            digest.update(f"accept {draw} {sides[0]} {sides[1]}\n".encode())
    assert accepted == 376  # of 900; 524 rejected
    assert digest.hexdigest() == (
        "e46e70044af6824a42de0e112aec3e1134a6828d9a3d3262cb7714cfb6b35b17")


def test_gasper_parameters_pass_through_and_ints_are_converted_once():
    x = F(3, 7)
    assert next(hypergeom._fractions(x)) is x
    assert [type(v) for v in hypergeom._fractions(2, -3, x)] == [F, F, F]
    # a W series and a Gasper draw give the same values from ints
    tail = [("plain", F(1, 4)), ("sqrtpair", F(16)), ("plain", 7)]
    want = w_series(F(9), tail, F(2), F(3))
    assert want == w_series(9, tail, 2, 3) and type(w_series(9, tail, 2, 3)) is F
    lhs, rhs = gasper_both_sides(F(2), F(5), F(7), F(2, 3), 2)
    assert lhs == rhs == F(2309, 5) == gasper_both_sides(2, 5, 7, F(2, 3), 2)[1]
    # and the same DegenerateDraw at the same step
    for a1 in (1, F(1)):
        with pytest.raises(DegenerateDraw, match="a1 = 1 degenerates"):
            w_series(a1, tail, 2, 3)
    for q in (1, F(1), -1):
        with pytest.raises(DegenerateDraw, match="degenerate core parameter"):
            gasper_both_sides(2, 3, 5, q, 2)


def test_phi_series_sums_to_a_lower_pole_at_the_bound():
    """A lower pole only at step ``bound`` is never met: the sum stops at
    term ``bound``, and the ratio to the next term is not formed."""
    q, z = F(1, 2), F(1, 3)
    direct = sum(q_poch(F(5), q, n) / q_poch(q, q, n) * z ** n
                 for n in range(3))  # the q^-2 upper and lower cancel
    assert phi_series([q ** -2, F(5)], [q ** -2], q, z) == direct == F(1, 9)


def test_w_series_raises_when_a1_is_an_inner_q_power(monkeypatch):
    """a1 = q^-2m with m below the bound zeroes term m, so the term ratio
    out of it is 0/0: both W evaluations reject the draw, and Gasper's
    sides reject such an a1 before they reach the W series."""
    q, z = F(1, 2), F(1, 3)
    tail = [("plain", F(8)), ("sqrtpair", F(9))]  # bound 3; a1 = q^-2
    for w in (w_series, w_series_phi_form):
        with pytest.raises(DegenerateDraw, match="lower parameter pole at step 1"):
            w(F(4), tail, q, z)
    monkeypatch.setattr(hypergeom, "w_series", None)  # a call would fail
    with pytest.raises(DegenerateDraw, match="collides with a q power"):
        # a1 = b q^-3 / d = 4 = q^-2: no other side parameter is a q^-j
        gasper_both_sides(F(5), F(3), F(6), q, 3)


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


def test_gasper_sweep_of_no_trials_is_a_wrong_call():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials >= 1"):
            gasper_sweep(trials, 1)
        with pytest.raises(ValueError, match="trials >= 1"):
            suites.run_identity("gasper", trials=trials)


def test_gasper_sweep_and_negative_control(monkeypatch):
    report = gasper_sweep(50, seed=7)
    assert report.passed, report.to_dict()
    IDENTITY_MUTATIONS["gasper"](monkeypatch)  # w_series times 9/8
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
    _scaled(hypergeom, "phi_chain", TWO)(monkeypatch)
    assert not check()
