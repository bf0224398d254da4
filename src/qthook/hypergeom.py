"""Terminating basic hypergeometric series over exact rationals.

Everything here is a finite sum of exact rational terms: q-shifted
factorials, the r+1_phi_r series and the very-well-poised W series (both
summed by their term ratio in the one loop ``_phi_partial``, the W series
by its square-root-free ratio), Gasper's transformation, and the summation
identities that close the hook-formula proof, whose sides are sums of
f-ratio products added in a balanced tree (``_qsum``).  The single-step
lemma and the birds and banners closing identities are all instances of
the general summation, whose left side sums the chain product
``qtcore.phi_chain``.
"""

from __future__ import annotations

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
    """(a; q)_n = (1 - a)(1 - aq) ... (1 - aq^(n-1)) for n >= 0."""
    if n < 0:
        raise ValueError(f"(a;q)_n needs n >= 0, not {n}")
    a, q = Fraction(a), Fraction(q)
    out = Fraction(1)
    for k in range(n):
        out *= 1 - a * q ** k
    return out


def _neg_q_power(x, q, cap: int = TERM_CAP) -> int | None:
    """Smallest n <= cap with x * q^n == 1 (so x = q^-n), or None; as
    |x q^n| is monotone in n when |q| != 1, stop once it has crossed 1."""
    val = Fraction(x)
    if val == 0:
        return None
    grows, shrinks = abs(q) > 1, abs(q) < 1
    for n in range(cap + 1):
        if val == 1:
            return n
        if (grows and abs(val) > 1) or (shrinks and abs(val) < 1):
            return None
        val *= q
    return None


def _termination_bound(uppers, q, cap=TERM_CAP):
    """Smallest n with some upper equal to q^-n, or None."""
    return min((n for n in (_neg_q_power(a, q, cap) for a in uppers)
                if n is not None), default=None)


def phi_series(uppers, lowers, q, z) -> Fraction:
    """Terminating r+1_phi_r as an exact rational number."""
    q, z = Fraction(q), Fraction(z)
    bound = _termination_bound(uppers, q)
    if bound is None:
        raise DegenerateDraw("no termination witness q^-n among uppers")
    return _phi_partial([(Fraction(a), 1) for a in uppers],
                        [(Fraction(b), 1) for b in lowers], q, z, bound)


def _w_tail(tail, q):
    """(plain parameters, pair parameters, termination bound) of a W tail:
    the bound is the first q^-n among the plains, else the first q^-2n among
    the pairs."""
    plains = [Fraction(v) for kind, v in tail if kind == "plain"]
    pairs = [Fraction(v) for kind, v in tail if kind == "sqrtpair"]
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
    a1, q, z = Fraction(a1), Fraction(q), Fraction(z)
    if a1 == 1:
        raise DegenerateDraw("a1 = 1 degenerates the W prefactor")
    plains, pairs, bound = _w_tail(tail, q)
    # (1 - a1 q^2n) / (1 - a1) steps by (1 - q^2 a1 q^2n) / (1 - a1 q^2n)
    uppers = [(a1, 1), (q * q * a1, 2), *((a, 1) for a in plains),
              *((v, 2) for v in pairs)]
    lowers = [(a1, 2), *((q * a1 / a, 1) for a in plains),
              *((q * q * a1 * a1 / v, 2) for v in pairs)]
    return _phi_partial(uppers, lowers, q, z, bound)


def _phi_partial(uppers, lowers, q, z, bound: int) -> Fraction:
    """The terms n = 0..bound of the series with first term 1 and term ratio
    z / (1 - q^(n+1)) times prod (1 - c q^(k n)) over the upper factors
    (c, k), over the same product for the lower ones."""
    total = term = Fraction(1)
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


# ---------------------------------------------------------------------------
# Gasper's transformation.
# ---------------------------------------------------------------------------

def gasper_both_sides(a, b, d, q, n: int):
    """(lhs, rhs) of Gasper's identity with c = q^-n; raises DegenerateDraw.

    Draws where a parameter other than c is an exact q^-j (so that one side
    truncates earlier than the other, or a lower parameter hits a pole) are
    rejected for resampling.
    """
    a, b, d, q = (Fraction(v) for v in (a, b, d, q))
    if 0 in (a, b, d, q) or 1 in (abs(a), abs(q)):
        raise DegenerateDraw("degenerate core parameter")
    c = q ** (-n)
    a1_pre = b * c / d
    cap = 2 * n + 6
    side_params = [b * q / a, c * q / a, d * q / a,       # 4phi3 lowers
                   a, b, d,                               # 4phi3 uppers
                   a * b / d, a * c / d, a1_pre,          # W uppers
                   q * a1_pre / a, q * b / d, q * c / d, q * b / a]  # W lowers
    if any(_neg_q_power(x, q, cap) is not None for x in side_params):
        raise DegenerateDraw("parameter collides with a q power")
    if any(_neg_q_power(x, q * q, cap) is not None
           for x in (b * c * q / (a * d), q * q * a1_pre / a, a * a1_pre,
                     q * a * a1_pre)):
        raise DegenerateDraw("pair parameter collides with a q^2 power")
    lhs = phi_series([a, b, c, d], [b * q / a, c * q / a, d * q / a],
                     q, q * q / (a * a))
    prefactor = (q_poch(c * q / d, q, n) * q_poch(a * b * c / d, q, n)
                 / (q_poch(a * c / d, q, n) * q_poch(b * c * q / d, q, n)))
    # unrun: its zeros (d or abc/d a power q^-j, j < n) are rejected above
    if prefactor == 0:
        raise DegenerateDraw("vanishing Gasper prefactor")
    a1 = b * c / d
    # the second pair is +-q (bc/(ad))^(1/2): the printed q (bc/d)^(1/2)
    # breaks the very-well-poised pairing x <-> q a1 / x and the identity
    tail = [("sqrtpair", b * c * q / (a * d)),
            ("sqrtpair", q * q * a1 / a),
            ("plain", a * b / d),
            ("plain", a * c / d),
            ("plain", a),
            ("plain", b),
            ("plain", c)]
    rhs = prefactor * w_series(a1, tail, q, q / a)
    return lhs, rhs


def _draw_fraction(rng: random.Random) -> Fraction:
    v = Fraction(rng.randint(2, 9), rng.randint(2, 9))
    if rng.random() < 0.5:
        v = 1 / v
    return v


def gasper_sweep(trials: int, seed: int) -> VerificationReport:
    """Seeded random sweep of Gasper's identity; exact equality each draw."""
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
