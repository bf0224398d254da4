"""Exact gcd and division for bivariate polynomials over the rationals.

Only the Gram-Schmidt oracle needs true rational-function normalization;
everything else in the package works with factored denominators.  Both the
gcd and the exact division run on integer-cleared inputs (rows indexed by
t-degree of integer q-polynomials): the gcd as a primitive PRS in t over
Z[q], the division as long division in t with exact integer quotients, so
Fraction blowup never enters either loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, lcm

from .qtcore import BiPoly


# -- univariate integer polynomials as int lists (index = q-degree) ---------

def _ztrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _zcontent(p) -> int:
    g = 0
    for c in p:
        g = igcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _zprimitive(p):
    g = _zcontent(p)
    if g > 1:
        p = [c // g for c in p]
    if p and p[-1] < 0:
        p = [-c for c in p]
    return p


def _zmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ztrim(out)


# unrun: goes with ROADMAP item 2; only the PRS fallback calls it
def _zpseudo_rem(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i, y in enumerate(b):
            a[i + shift] -= la * y
        _ztrim(a)
    return a


def _ueval(p, xi: int) -> int:
    v = 0
    for c in reversed(p):
        v = v * xi + c
    return v


def _gen_poly(g: int, xi: int):
    """Balanced base-xi digit expansion of an integer."""
    digits = []
    while g:
        d = g % xi
        if d > xi // 2:
            d -= xi
        digits.append(d)
        g = (g - d) // xi
    return digits


def _zdivides(a, g) -> bool:
    try:
        _zdivexact(a, g)
        return True
    except ArithmeticError:
        return False


def _heu_uni(a, b):
    """Heuristic gcd of primitive integer polynomials; None on failure.

    A verified candidate always divides both inputs, so using it can only
    under-reduce, never corrupt, a rational function.
    """
    mx = max(max(abs(c) for c in a), max(abs(c) for c in b))
    xi = 2 * mx + 29
    for _ in range(6):
        av, bv = _ueval(a, xi), _ueval(b, xi)
        if av and bv:
            g = _zprimitive(_gen_poly(igcd(av, bv), xi))
            if g and _zdivides(a, g) and _zdivides(b, g):
                return g
        xi = xi * 73 // 27 + 31
    # unrun: goes with ROADMAP item 2; the heuristic never fails here
    return None


def _zgcd_poly(a, b):
    """Primitive gcd of integer polynomials (heuristic, then primitive PRS)."""
    a, b = _zprimitive(list(a)), _zprimitive(list(b))
    if not a:
        return b
    if not b:  # unrun: goes with ROADMAP item 2; no caller passes a zero b
        return a
    if len(a) == 1 or len(b) == 1:
        return [1]
    g = _heu_uni(a, b)
    if g is not None:
        return g
    # unrun: goes with ROADMAP item 2; runs where the heuristic fails
    while b:
        r = _zprimitive(_zpseudo_rem(a, b))
        a, b = b, r
    return a  # unrun: goes with ROADMAP item 2; reached only after the PRS


def _zdivexact(a, b):
    """Exact division of integer polynomials (quotient known integral)."""
    if not b:  # unrun: goes with ROADMAP item 2; no divisor here is zero
        raise ZeroDivisionError
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while a:
        if len(a) < len(b):
            raise ArithmeticError("inexact division")
        c, rem = divmod(a[-1], b[-1])
        if rem:
            raise ArithmeticError("inexact division")
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[i + d] -= c * y
        _ztrim(a)
    return q


# -- bivariate: list indexed by t-degree of integer q-polynomials -----------

def _to_int_rec(p: BiPoly):
    """Clear denominators; return (rows, lcm), the integer rows of lcm * p."""
    if p.is_zero():  # unrun: goes with ROADMAP item 2; never zero
        return [], 1
    den = lcm(*(c.denominator for c in p.terms.values()))
    rows = [[] for _ in range(max(b for (_, b) in p.terms) + 1)]
    for (a, b), c in p.terms.items():
        row = rows[b]
        if len(row) <= a:
            row.extend([0] * (a + 1 - len(row)))
        row[a] = c.numerator * (den // c.denominator)
    return rows, den


def _from_int_rec(rows) -> BiPoly:
    return BiPoly({(a, b): c for b, row in enumerate(rows)
                   for a, c in enumerate(row)})


def _btrim(rows):
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _bcontent(rows):
    g = []
    for row in rows:
        if row:
            g = _zgcd_poly(g, row)
            if g == [1]:
                break
    return g


def _bprimitive(rows):
    g = _bcontent(rows)
    if g and g != [1]:
        rows = [_zdivexact(row, g) if row else [] for row in rows]
    return rows, g


def _bmul_uni(rows, u):
    return [_zmul(row, u) for row in rows]


def _bsub(a, b):
    out = [list(r) for r in a] + [[] for _ in range(max(len(b) - len(a), 0))]
    for i, row in enumerate(b):
        dst = out[i] + [0] * (len(row) - len(out[i]))
        for j, y in enumerate(row):
            dst[j] -= y
        out[i] = _ztrim(dst)
    return _btrim(out)


def _bpseudo_rem(a, b):
    a = [list(r) for r in a]
    db, lb = len(b) - 1, b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = _bmul_uni(a, lb)
        a = _bsub(a, [[] for _ in range(shift)] + _bmul_uni(b, la))
    return a


def _bdivexact_int(a, b):
    """Exact division of integer bivariate recs; ArithmeticError if inexact."""
    a = [list(r) for r in a]
    db = len(b) - 1
    out = {}
    while a:
        da = len(a) - 1
        if da < db:
            raise ArithmeticError("inexact division")
        qrow = _zdivexact(a[-1], b[-1])
        out[da - db] = qrow
        a = _bsub(a, [[] for _ in range(da - db)] + _bmul_uni(b, qrow))
    rows = [[] for _ in range(max(out) + 1)] if out else []
    for s, row in out.items():
        rows[s] = row
    return rows


def _bdivides(a, g) -> bool:
    try:
        _bdivexact_int(a, g)
        return True
    except ArithmeticError:
        return False


def _heu_bi(a, b):
    """Heuristic bivariate gcd of primitive recs; None on failure."""
    mx = 1
    for rows in (a, b):
        for row in rows:
            for c in row:
                if abs(c) > mx:
                    mx = abs(c)
    xi = 2 * mx + 29
    for _ in range(6):
        a1 = [_ueval(row, xi) for row in a]
        b1 = [_ueval(row, xi) for row in b]
        if a1[-1] and b1[-1]:
            g1 = _zgcd_poly(a1, b1)
            rows = [_gen_poly(c, xi) for c in g1]
            rows, _ = _bprimitive(_btrim(rows))
            if rows and _bdivides(a, rows) and _bdivides(b, rows):
                return rows
        xi = xi * 73 // 27 + 31
    return None


def gcd_bipoly(p: BiPoly, q: BiPoly) -> BiPoly:
    """Greatest common divisor in Q[q, t], primitive over the integers."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    a, ga = _bprimitive(_to_int_rec(p)[0])
    b, gb = _bprimitive(_to_int_rec(q)[0])
    cont = _zgcd_poly(ga, gb)
    if len(a) - 1 < len(b) - 1:
        a, b = b, a
    if len(b) == 1:
        # primitive single-row poset: gcd reduces to the content part
        return _from_int_rec([cont])
    g = _heu_bi(a, b)
    if g is None:
        while b:
            r, _ = _bprimitive(_bpseudo_rem(a, b))
            a, b = b, r
        g = a
    g = _bmul_uni(g, cont if cont else [1])
    return _from_int_rec(g)


def divexact_bipoly(p: BiPoly, d: BiPoly) -> BiPoly:
    """Exact division p / d in Q[q, t]; raises ArithmeticError if not exact.

    With p = a / la and d = c b / lb for integer rows a, b, b primitive over
    the integers, p / d = (a / b) lb / (la c), and a / b is integral when it
    is a polynomial at all (Gauss's lemma).
    """
    if d.is_zero():
        raise ZeroDivisionError
    if p.is_zero():
        return BiPoly()
    a, la = _to_int_rec(p)
    b, lb = _to_int_rec(d)
    c = 0
    for row in b:
        c = igcd(c, _zcontent(row))
    b = [[x // c for x in row] for row in b]
    scale = Fraction(lb, la * c)
    terms = {}
    for tb, row in enumerate(_bdivexact_int(a, b)):
        for qa, x in enumerate(row):
            if x:
                terms[(qa, tb)] = x * scale
    return BiPoly(terms)
