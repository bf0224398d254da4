"""Terminating basic hypergeometric series over exact rationals.

Everything here is a finite sum of exact rational terms: q-shifted
factorials, the r+1_phi_r series and the very-well-poised W series (both
summed by their term ratio in the one loop ``_phi_partial``, the W series
by its square-root-free ratio), Gasper's transformation, and the summation
identities that close the hook-formula proof, whose sides are sums of
f-ratio products added in a balanced tree (``_qsum``).  The single-step
lemma and the birds and banners closing identities are all instances of
the general summation, whose left side sums the chain product
``qtcore.phi_chain``.  ``q_poch`` and ``_phi_partial`` work on integers and
normalise one Fraction per result; ``_neg_q_power`` is one power test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .partitions import Partition, bounded_tuples, monotone_chains
from .qtcore import b_el, b_lambda, b_lambda_f_form, f_fun, phi_chain
from .report import VerificationReport, timed
from .series import QTCoeff

TERM_CAP = 512
GASPER_MAX_N = 6  # the largest n = -log_q c of a Gasper sweep draw
B_RATIO_MAX = 4   # the largest part of a b-ratio display shape


class DegenerateDraw(Exception):
    """A random parameter draw hit a pole or lost its termination witness."""


def q_poch(a: Fraction, q: Fraction, n: int) -> Fraction:
    """(a; q)_n = (1 - a)(1 - aq) ... (1 - aq^(n-1)) for n >= 0: with
    a = an/ad and q = qn/qd, one integer product of the factors
    (ad qd^k - an qn^k) / (ad qd^k), normalised once."""
    if n < 0:
        raise ValueError(f"(a;q)_n needs n >= 0, not {n}")
    an, ad, qn, qd = a.numerator, a.denominator, q.numerator, q.denominator
    num = den = 1
    for k in range(n):
        low = ad * qd ** k
        num *= low - an * qn ** k
        den *= low
    return Fraction(num, den)


def _neg_q_power(x, q, cap: int = TERM_CAP) -> int | None:
    """Smallest n <= cap with x * q^n == 1 (so x = q^-n), or None.  With
    x = u/v and q = p/r in lowest terms that is u p^n == v r^n, so for
    |q| != 1 only n = log_|p| v (or log_r |u| when |p| = 1) can fit."""
    u, v, p, r = x.numerator, x.denominator, q.numerator, q.denominator
    if 0 in (u, p) or abs(p) == r:  # x = 0, or q = 0, 1 or -1
        n = 0 if u == v else 1 if u == -v and p == -r else None
    else:
        base, power = (abs(p), v) if abs(p) > 1 else (r, abs(u))
        n = round(math.log(power, base))
        if u * p ** n != v * r ** n:
            n = None
    return None if n is None or n > cap else n


def _termination_bound(uppers, q):
    """Smallest n <= TERM_CAP with some upper equal to q^-n, or None."""
    return min((n for n in (_neg_q_power(a, q) for a in uppers)
                if n is not None), default=None)


def phi_series(uppers, lowers, q, z) -> Fraction:
    """Terminating r+1_phi_r as an exact rational number."""
    bound = _termination_bound(uppers, q)
    if bound is None:
        raise DegenerateDraw("no termination witness q^-n among uppers")
    return _phi_partial([(a, 1) for a in uppers], [(b, 1) for b in lowers],
                        q, z, bound)


def _w_tail(tail, q):
    """(plain parameters, pair parameters, termination bound) of a W tail:
    the bound is the first q^-n among the plains, else the first q^-2n among
    the pairs."""
    plains = [v for kind, v in tail if kind == "plain"]
    pairs = [v for kind, v in tail if kind == "sqrtpair"]
    bound = _termination_bound(plains, q)
    if bound is None:
        bound = _termination_bound(pairs, q * q)
    if bound is None:
        raise DegenerateDraw("no termination witness in W tail")
    return plains, pairs, bound


def w_series(a1, tail, q, z) -> Fraction:
    """Very-well-poised series summed by its square-root-free term ratio.

    tail entries are ("plain", a) for an ordinary parameter a, or
    ("sqrtpair", v) standing for the pair (+v^(1/2), -v^(1/2)); a pair
    contributes (v; q^2)_n / (q^2 a1^2 / v; q^2)_n per term.
    """
    a1, q, z = _fractions(a1, q, z)
    if a1 == 1:
        raise DegenerateDraw("a1 = 1 degenerates the W prefactor")
    plains, pairs, bound = _w_tail(tail, q)
    # (1 - a1 q^2n) / (1 - a1) steps by (1 - q^2 a1 q^2n) / (1 - a1 q^2n)
    qa1 = q * a1
    uppers = [(a1, 1), (q * qa1, 2), *((a, 1) for a in plains),
              *((v, 2) for v in pairs)]
    lowers = [(a1, 2), *((qa1 / a, 1) for a in plains),
              *((qa1 * qa1 / v, 2) for v in pairs)]
    return _phi_partial(uppers, lowers, q, z, bound)


def _fractions(*values):
    """The values as Fractions, each Fraction as it was formed."""
    return (v if type(v) is Fraction else Fraction(v) for v in values)


def _phi_partial(uppers, lowers, q, z, bound: int) -> Fraction:
    """The terms n = 0..bound of the series with first term 1 and term ratio
    z / (1 - q^(n+1)) times prod (1 - c q^(k n)) over the upper factors
    (c, k), over the same product for the lower ones: on integers, each
    factor as (cd qd^(kn) - cn qn^(kn)) / (cd qd^(kn)) for q = qn/qd and
    c = cn/cd, the sum over the term's denominator, normalised once."""
    qn, qd, zn, zd = q.numerator, q.denominator, z.numerator, z.denominator
    ups = [(c.numerator, c.denominator, k) for c, k in uppers]
    lows = [(c.numerator, c.denominator, k) for c, k in lowers]
    num = den = total = 1
    for n in range(bound):
        step, ahead = qd ** (n + 1), qn ** (n + 1)
        if step == ahead:
            raise ZeroDivisionError(f"1 - q^{n + 1} = 0 at step {n}")
        num *= zn * step
        div = zd * (step - ahead)
        for cn, cd, k in ups:
            low = cd * qd ** (k * n)
            num *= low - cn * qn ** (k * n)
            div *= low
        for cn, cd, k in lows:
            low = cd * qd ** (k * n)
            pole = low - cn * qn ** (k * n)
            if pole == 0:
                raise DegenerateDraw(f"lower parameter pole at step {n}")
            num *= low
            div *= pole
        den *= div
        total = total * div + num
    return Fraction(total, den)


# ---------------------------------------------------------------------------
# Gasper's transformation.
# ---------------------------------------------------------------------------

def gasper_both_sides(a, b, d, q, n: int):
    """(lhs, rhs) of Gasper's identity with c = q^-n; raises DegenerateDraw.

    Draws where a parameter other than c is an exact q^-j (so that one side
    truncates earlier than the other, or a lower parameter hits a pole) are
    rejected for resampling.
    """
    a, b, d, q = _fractions(a, b, d, q)
    if 0 in (a, b, d, q) or 1 in (abs(a), abs(q)):
        raise DegenerateDraw("degenerate core parameter")
    c = q ** (-n)
    q_a, c_d = q / a, c / d
    a1, ab_d, ac_d, qc_d = b * c_d, a * b / d, a * c_d, q * c_d
    pairs = (a1 * q_a, q * a1 * q_a)  # bcq/(ad) = q a1/a, and q^2 a1/a
    lowers = [b * q_a, c * q_a, d * q_a]
    cap = 2 * n + 6
    if any(_neg_q_power(x, q, cap) is not None
           for x in (*lowers, a, b, d,                # 4phi3 lowers, uppers
                     ab_d, ac_d, a1,                    # W uppers
                     pairs[0], q * b / d, qc_d)):       # W lowers
        raise DegenerateDraw("parameter collides with a q power")
    q2, a_a1 = q * q, a * a1
    if any(_neg_q_power(x, q2, cap) is not None
           for x in (*pairs, a_a1, q * a_a1)):
        raise DegenerateDraw("pair parameter collides with a q^2 power")
    lhs = phi_series([a, b, c, d], lowers, q, q_a * q_a)
    prefactor = (q_poch(qc_d, q, n) * q_poch(a_a1, q, n)
                 / (q_poch(ac_d, q, n) * q_poch(q * a1, q, n)))
    # unrun: its zeros (d or abc/d a power q^-j, j < n) are rejected above
    if prefactor == 0:
        raise DegenerateDraw("vanishing Gasper prefactor")
    # the second pair is +-q (bc/(ad))^(1/2): the printed q (bc/d)^(1/2)
    # breaks the very-well-poised pairing x <-> q a1 / x and the identity
    tail = [("sqrtpair", pairs[0]), ("sqrtpair", pairs[1]), ("plain", ab_d),
            ("plain", ac_d), ("plain", a), ("plain", b), ("plain", c)]
    rhs = prefactor * w_series(a1, tail, q, q_a)
    return lhs, rhs


def _draw_fraction(rng: random.Random) -> Fraction:
    num, den = rng.randint(2, 9), rng.randint(2, 9)
    if rng.random() < 0.5:
        num, den = den, num
    return Fraction(num, den)


def gasper_sweep(trials: int, seed: int) -> VerificationReport:
    """Seeded random sweep of Gasper's identity; exact equality each draw."""
    if trials < 1:
        raise ValueError(f"a Gasper sweep needs trials >= 1, not {trials}")
    report = VerificationReport(check="gasper", mode="exact",
                                extra={"trials": trials, "seed": seed})
    rng = random.Random(seed)
    with timed(report):
        done = 0
        while done < trials:
            try:
                lhs, rhs = gasper_both_sides(
                    _draw_fraction(rng), _draw_fraction(rng),
                    _draw_fraction(rng), _draw_fraction(rng),
                    rng.randint(0, GASPER_MAX_N))
            except (DegenerateDraw, ZeroDivisionError):
                continue
            if lhs != rhs:
                report.result = "fail"
                report.mismatch = {"trial": done, "lhs": str(lhs), "rhs": str(rhs)}
                break
            done += 1
    return report


# ---------------------------------------------------------------------------
# The summation identities behind the Final equations.
# ---------------------------------------------------------------------------

def _qsum(values) -> QTCoeff:
    """The sum of a list of QTFactored terms as a balanced pairwise tree
    (Bernstein, "Fast multiplication and its applications", 2008)."""
    level = [QTCoeff.from_qtf(v) for v in values] or [QTCoeff.zero()]
    while len(level) > 1:
        level = [sum(level[i:i + 2], QTCoeff.zero())
                 for i in range(0, len(level), 2)]
    return level[0]


def lemma_both_sides(m: int, k0: int, rho0: int, theta0: int, gamma: int):
    """Both sides of the single-step summation lemma: the n = 1 case of
    :func:`general_both_sides`."""
    return general_both_sides(m, 1, k0, rho0, theta0, [gamma])


def lemma_check(m, k0, rho0, theta0, gamma) -> bool:
    lhs, rhs = lemma_both_sides(m, k0, rho0, theta0, gamma)
    return lhs.equals(rhs)


def general_both_sides(m: int, n: int, k0: int, rho0: int, theta0: int,
                       gamma: list[int]):
    """Both sides of the multi-step summation identity.

    The right-hand bound is read as sum k_i <= rho0 - k0 (the display's
    rho_{m+1} is undefined; the proof's final sum fixes the reading).
    """
    if not 0 <= k0 <= rho0 <= theta0:
        raise ValueError("need 0 <= k0 <= rho0 <= theta0")
    if len(gamma) != n:
        raise ValueError("gamma must have length n")
    lhs_terms = []
    last = m + n - 1  # the chain is keyed m - 1 ... m + n - 1
    for chain in monotone_chains(k0, rho0, n):
        rho = {m - 1: rho0}
        theta = {m - 1: theta0}
        for i in range(m, last + 1):
            rho[i] = chain[i - m]
            theta[i] = gamma[i - m] + theta[i - 1] + rho[i - 1] - rho[i]
        lhs_terms.append(f_fun(rho[last] - k0, 0)
                         * f_fun(theta[last] - k0, m + n)
                         * phi_chain(rho, theta, m - 1, last))
    rhs_terms = []
    for ks in bounded_tuples([1] * n, rho0 - k0):
        s = k0 + sum(ks)
        t = f_fun(rho0 - s, 0) * f_fun(theta0 - s, m)
        for i in range(1, n + 1):
            t = t * f_fun(ks[i - 1], 0) * f_fun(ks[i - 1] + gamma[i - 1], 0)
        rhs_terms.append(t)
    return _qsum(lhs_terms), _qsum(rhs_terms)


def general_check(m, n, k0, rho0, theta0, gamma) -> bool:
    lhs, rhs = general_both_sides(m, n, k0, rho0, theta0, gamma)
    return lhs.equals(rhs)


def birds_final_both_sides(rho0: int, theta0: int, f: int, r: list[int]):
    """Both sides of the birds-closing identity, the sum of Phi-hat over
    chains rho0 >= rho_1 >= ... >= rho_f >= 0 with theta_i = rho_(i-1) +
    theta_(i-1) + r_i - rho_i, against its f-product form: the general
    summation at m = 1, k0 = 0, gamma = r, divided by Phi-hat's constant
    boundary f(rho0; 0) f(theta0; 1)."""
    if not 0 <= rho0 <= theta0:
        raise ValueError("need 0 <= rho0 <= theta0")
    if len(r) != f:
        raise ValueError("r must have length f")
    boundary = QTCoeff.from_qtf((f_fun(rho0, 0) * f_fun(theta0, 1)).inverse())
    lhs, rhs = general_both_sides(1, f, 0, rho0, theta0, r)
    return lhs * boundary, rhs * boundary


def birds_final_check(rho0, theta0, f, r) -> bool:
    lhs, rhs = birds_final_both_sides(rho0, theta0, f, r)
    return lhs.equals(rhs)


def banners_final_both_sides(lam: Partition, f: int, r: list[int]):
    """Both sides of the banners-closing identity, the sum of Phi-hat over
    chains lam_4 = rho_1 >= ... >= rho_f >= 0 from theta_1 = lam_2, r
    indexed 2..f: the general summation at m = 2, k0 = 0, gamma = r,
    divided by the boundary f(lam_4; 0) f(lam_2; 2)."""
    if lam.length() > 4:
        raise ValueError("lam must have at most 4 parts")
    if len(r) != f - 1:
        raise ValueError("r must have length f - 1")
    boundary = QTCoeff.from_qtf((f_fun(lam[4], 0) * f_fun(lam[2], 2)).inverse())
    lhs, rhs = general_both_sides(2, f - 1, 0, lam[4], lam[2], r)
    return lhs * boundary, rhs * boundary


def banners_final_check(lam, f, r) -> bool:
    lhs, rhs = banners_final_both_sides(lam, f, r)
    return lhs.equals(rhs)


def b_ratio_checks() -> bool:
    """The two b-ratio displays feeding the Final identities.

    The birds display is a ratio of two b_lambda values on shapes of at most
    two rows, so it holds once b_lambda agrees with its f-ratio form on every
    such shape; the banners display is checked ratio by ratio, via b_el.
    """
    for lam in map(Partition, monotone_chains(0, B_RATIO_MAX, 2)):
        if not b_lambda(lam).equals(b_lambda_f_form(lam)):
            return False
    for lam in map(Partition, monotone_chains(0, B_RATIO_MAX, 4)):
        l4, l2 = lam[4], lam[2]
        for l in range(l4 + 1):
            ratio = b_el(lam.sub_rectangle(l, 4)) / b_el(lam)
            expect = (f_fun(l4 - l, 0) * f_fun(l2 - l, 2)
                      / (f_fun(l4, 0) * f_fun(l2, 2)))
            if not ratio.equals(expect):
                return False
    return True
