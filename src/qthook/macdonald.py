"""Macdonald symmetric polynomials in finitely many variables.

P and Q are constructed through horizontal-strip chains (the tableau form of
the Pieri rule), so every coefficient is an explicit product of the phi/psi
coefficients from :mod:`qthook.qtcore`.  A Gram-Schmidt construction against
the (q, t) power-sum scalar product is kept as an independent oracle.  A
polynomial in n variables is an exact ``MultiSeries`` over ``poly_vars(n)``
(x1..xn) with truncation ``NO_TRUNC``; ``MultiSeries.substitute`` places it
on the variables of a larger series.  Symmetric functions are expanded,
multiplied and paired in m coordinates: {lam: coefficient of m_lam}.

The series-level checks share one engine, the bracket partition sum
(``partition_sum_check``): the Cauchy kernel is its bracket-Q instance with
eps (-1, +1) between empty shapes, the skew interchange lemma
(``qp_lemma_check``) its bracket-P instance with eps (-1, +1), and the
generalized MacMahon formula its bracket-P instance with eps (-1, +1)
repeated T times; the branching rule is its instance with eps (+1, +1) from
lam down to the empty shape, anchored on the Gram-Schmidt oracle.  Pieri and
Warnaar's sums are the two checks made directly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import add, ge
from types import MappingProxyType

from .partitions import (
    EMPTY,
    Partition,
    partitions_of,
    partitions_up_to,
)
from .qtcore import (
    BI_ONE,
    BiPoly,
    QTFactored,
    _binomial_poly,
    b_el,
    b_lambda,
    b_oa,
    phi_skew,
    psi_skew,
)
from .series import (
    NO_TRUNC,
    MultiSeries,
    QTCoeff,
    VarSet,
    product_of_f,
    series_equals,
)


@lru_cache(maxsize=None)
def poly_vars(n: int) -> VarSet:
    """The variables x1..xn of a polynomial in n variables."""
    return VarSet(f"x{i}" for i in range(1, n + 1))


def check_symmetric(poly: MultiSeries) -> MultiSeries:
    """``poly``, after asserting that it is symmetric in its variables."""
    terms = dict(poly.monomials())
    groups = {}
    for e in terms:
        groups.setdefault(tuple(sorted(e, reverse=True)), []).append(e)
    for rep, members in groups.items():
        base = terms[members[0]]
        if len(members) != _n_permutations(rep, len(poly.varset)):
            raise AssertionError(f"missing orbit members for {rep}")
        for m in members[1:]:
            if not terms[m].equals(base):
                raise AssertionError(f"asymmetric coefficients at {m}")
    return poly


def m_expansion(poly: MultiSeries) -> dict[Partition, QTCoeff]:
    """Coefficients on the monomial symmetric basis (needs n >= degree)."""
    out = {}
    for e, c in poly.monomials():
        key = tuple(sorted(e, reverse=True))
        if key == e:
            out[Partition(key)] = c
    return out


def m_product(a: MultiSeries, b: MultiSeries) -> dict[Partition, QTCoeff]:
    """The m coordinates of a * b for symmetric a and b in the same variables.

    Only the products whose exponent vectors sum to a weakly decreasing one
    are formed: those carry the coefficients of the m_lam, and the rest of
    a * b follows from symmetry.
    """
    right = list(b.monomials())
    out = {}
    for e1, c1 in a.monomials():
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            if all(map(ge, e, e[1:])):
                lam = Partition(e)
                out[lam] = out[lam] + c1 * c2 if lam in out else c1 * c2
    return {lam: c for lam, c in out.items() if c}


def _n_permutations(sorted_exps, n):
    counts = {}
    for v in sorted_exps:
        counts[v] = counts.get(v, 0) + 1
    total = factorial(n)
    for v, k in counts.items():
        total //= factorial(k)
    return total


def _strip_chains(lam: Partition, mu: Partition, n: int):
    """All chains mu = nu_0 < nu_1 < ... < nu_n = lam by horizontal strips.

    lam/nu is a horizontal strip exactly when lam_1 >= nu_1 >= lam_2 >= nu_2
    >= ... (Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., I
    (5.3)), so nu = nu_(n-1) runs over ranges of its parts; the cap nu_j <=
    mu_(j-n+1) leaves nu/mu at most n - 1 cells per column, which is what
    n - 1 strips can still cover.
    """
    if n == 0:
        return [[lam]] if lam == mu else []
    ranges = [range(max(lam[j + 1], mu[j]),
                    min(lam[j], mu[j - n + 1] if j >= n else lam[j]) + 1)
              for j in range(1, lam.length() + 1)]
    return [chain + [lam] for parts in itertools.product(*ranges)
            for chain in _strip_chains(Partition(parts), mu, n - 1)]


@lru_cache(maxsize=None)
def _skew_cached(lam_parts, mu_parts, n, kind):
    lam, mu = Partition(lam_parts), Partition(mu_parts)
    coeff_fun = psi_skew if kind == "P" else phi_skew
    out = MultiSeries(poly_vars(n), NO_TRUNC)
    for chain in _strip_chains(lam, mu, n):
        w = QTFactored.one()
        exps = []
        for prev, nxt in zip(chain, chain[1:]):
            w = w * coeff_fun(nxt, prev)
            exps.append(nxt.weight() - prev.weight())
        if not w.is_zero():
            out.add_term(tuple(exps), w)
    return check_symmetric(out)


def _skew(lam: Partition, mu: Partition, n: int, kind: str) -> MultiSeries:
    """A copy of the cached skew polynomial: callers may change it freely."""
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    cached = _skew_cached(lam.parts, mu.parts, n, kind)
    return cached._make(dict(cached.terms))


def skew_p(lam: Partition, mu: Partition, n: int) -> MultiSeries:
    """P_{lam/mu}(x_1..x_n; q, t); zero when no strip chain exists."""
    return _skew(lam, mu, n, "P")


def skew_q(lam: Partition, mu: Partition, n: int) -> MultiSeries:
    """Q_{lam/mu}(x_1..x_n; q, t) = (b_lam / b_mu) P_{lam/mu}."""
    return _skew(lam, mu, n, "Q")


def macdonald_p(lam: Partition, n: int) -> MultiSeries:
    return skew_p(lam, EMPTY, n)


def macdonald_q(lam: Partition, n: int) -> MultiSeries:
    return skew_q(lam, EMPTY, n)


def g_r(r: int, n: int) -> MultiSeries:
    """g_r = Q_(r), the one-row Macdonald Q polynomial; g_0 = Q_() = 1."""
    return macdonald_q(Partition([r]), n)


# ---------------------------------------------------------------------------
# Expansion in the P basis (triangular, dominance-compatible lex order).
# ---------------------------------------------------------------------------

class NotInPBasis(ArithmeticError):
    """``expand_in_p`` could not expand: ``args`` is (lam, reason)."""


def expand_in_p(coords: dict[Partition, QTCoeff], degree: int,
                n: int) -> dict[Partition, QTCoeff]:
    """Write a homogeneous symmetric polynomial in n variables, given by its
    m coordinates, as sum c_lam P_lam.

    In lex descending order (a linear extension of dominance), c_lam is the
    remainder's coordinate at lam, and c_lam m_expansion(P_lam) is
    subtracted.  Raises NotInPBasis when a P_lam used has m_lam coefficient
    other than 1, or a remainder is left (named by its lex-largest partition,
    the lex-largest exponent vector of a symmetric remainder).
    """
    rest = dict(coords)
    out = {}
    candidates = sorted(partitions_of(degree, None, n),
                        key=lambda p: p.parts, reverse=True)
    for lam in candidates:
        c = rest.get(lam)
        if not c:
            continue
        p_lam = m_expansion(macdonald_p(lam, n))
        if not p_lam[lam].equals(QTCoeff.one()):
            raise NotInPBasis(lam, "P_lam has a leading coefficient other than 1")
        out[lam] = c
        for nu, v in p_lam.items():
            rest[nu] = rest.get(nu, QTCoeff.zero()) - c * v
    left = [nu for nu, c in rest.items() if c]
    if left:
        raise NotInPBasis(max(left, key=lambda p: p.parts),
                          "the expansion left a nonzero remainder")
    return out


# ---------------------------------------------------------------------------
# The power-sum scalar product and the Gram-Schmidt oracle.
# ---------------------------------------------------------------------------

def _is_const(p: BiPoly) -> bool:
    return not p.terms or set(p.terms) == {(0, 0)}


def _monic(num: BiPoly, den: BiPoly) -> tuple[BiPoly, BiPoly]:
    """num/den rescaled so that den's lowest term has coefficient 1."""
    lead = den.terms[min(den.terms)]
    if lead == 1:
        return num, den
    inv = Fraction(1, lead)
    return num.scale(inv), den.scale(inv)


class RatFunc:
    """Rational function num/den over Q[q, t], kept fully reduced.

    Arithmetic uses Henrici's scheme: with reduced operands, each operation
    only needs gcds of small cross pieces and yields a reduced result, which
    keeps the Gram-Schmidt oracle out of large polynomial gcd work.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly = BI_ONE):
        from .polyops import divexact_bipoly, gcd_bipoly

        # unrun: goes with ROADMAP item 2; never zero
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _is_const(den):
            g = gcd_bipoly(num, den)
            if not _is_const(g):
                num = divexact_bipoly(num, g)
                den = divexact_bipoly(den, g)
        num, den = _monic(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _raw(num: BiPoly, den: BiPoly) -> "RatFunc":
        """Trusted constructor: operands already coprime."""
        out = RatFunc.__new__(RatFunc)
        if num.is_zero():
            num, den = BiPoly(), BI_ONE
        else:
            num, den = _monic(num, den)
        out.num, out.den = num, den
        return out

    @staticmethod
    def from_qtcoeff(c: QTCoeff) -> "RatFunc":
        return RatFunc(c.num, c._den_poly())

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        from .polyops import divexact_bipoly, gcd_bipoly

        if self.is_zero():
            return other
        if other.is_zero():  # unrun: goes with ROADMAP item 2; never zero
            return self
        g = gcd_bipoly(self.den, other.den)
        d1 = divexact_bipoly(self.den, g)
        d2 = divexact_bipoly(other.den, g)
        num = self.num * d2 + other.num * d1
        den = self.den * d2
        t = gcd_bipoly(num, g)
        if not _is_const(t):
            num = divexact_bipoly(num, t)
            den = divexact_bipoly(den, t)
        return RatFunc._raw(num, den)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        from .polyops import divexact_bipoly, gcd_bipoly

        if self.is_zero() or other.is_zero():
            return RF_ZERO
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not _is_const(d2):
            g = gcd_bipoly(n1, d2)
            if not _is_const(g):
                n1, d2 = divexact_bipoly(n1, g), divexact_bipoly(d2, g)
        if not _is_const(d1):
            g = gcd_bipoly(n2, d1)
            if not _is_const(g):
                n2, d1 = divexact_bipoly(n2, g), divexact_bipoly(d1, g)
        return RatFunc._raw(n1 * n2, d1 * d2)

    def __truediv__(self, other):
        # unrun: goes with ROADMAP item 2; no zero norm
        if other.num.is_zero():
            raise ZeroDivisionError
        return self * RatFunc(other.den, other.num)

    def scale(self, c) -> "RatFunc":
        return RatFunc._raw(self.num.scale(c), self.den)

    def equals(self, other) -> bool:
        return self.num * other.den == other.num * self.den


RF_ZERO = RatFunc._raw(BiPoly(), BI_ONE)
RF_ONE = RatFunc._raw(BI_ONE, BI_ONE)


def _power_sum_poly(r: int, n: int) -> MultiSeries:
    out = MultiSeries(poly_vars(n), NO_TRUNC)
    for i in range(n):
        e = [0] * n
        e[i] = r
        out.add_term(tuple(e), QTCoeff.one())
    return out


@lru_cache(maxsize=None)
def _p_to_m_matrix(d: int):
    """Integer expansion of p_lam over m_mu for lam, mu |- d (in d variables)."""
    parts = tuple(sorted(partitions_of(d), key=lambda p: p.parts, reverse=True))
    rows = {}
    for lam in parts:
        poly = MultiSeries.constant(1, poly_vars(d), NO_TRUNC)
        for r in lam:
            poly = poly * _power_sum_poly(r, d)
        exp = m_expansion(poly)
        rows[lam] = MappingProxyType(
            {mu: _qtcoeff_to_fraction(c) for mu, c in exp.items()})
    return parts, MappingProxyType(rows)


def _qtcoeff_to_fraction(c: QTCoeff) -> Fraction:
    # integer-coefficient helper for the p->m matrix
    # unrun: internal invariant; power sums have integer coefficients
    if set(c.num.terms) != {(0, 0)} or c.den or c.dq or c.dt:
        raise AssertionError("expected a constant coefficient")
    return Fraction(c.num.terms[(0, 0)])


@lru_cache(maxsize=None)
def _m_to_p_matrix(d: int):
    """Inverse of the p->m matrix, exact rational entries."""
    parts, rows = _p_to_m_matrix(d)
    k = len(parts)
    idx = {p: i for i, p in enumerate(parts)}
    a = [[Fraction(0)] * (2 * k) for _ in range(k)]
    for lam in parts:
        i = idx[lam]
        for mu, v in rows[lam].items():
            a[i][idx[mu]] = v
        a[i][k + i] = Fraction(1)
    # Gauss-Jordan over the rationals
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    inverse = {}
    for mu in parts:  # m_mu = sum_lam inverse[mu][lam] p_lam
        r = idx[mu]
        inverse[mu] = MappingProxyType({lam: a[r][k + idx[lam]] for lam in parts})
    # note: rows of the inverse matrix live on the m side
    return parts, MappingProxyType(inverse)


def _z_weight(lam: Partition) -> RatFunc:
    """z_lam * prod (1 - q^{lam_i}) / (1 - t^{lam_i})."""
    mult = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for v, m in mult.items():
        z *= (v ** m) * factorial(m)
    num = BiPoly.const(z)
    den = BI_ONE
    for p in lam:
        num = num * _binomial_poly(p, 0)
        den = den * _binomial_poly(0, p)
    return RatFunc(num, den)


@lru_cache(maxsize=None)
def _gram_matrix(d: int):
    """B[mu][nu] = <m_mu, m_nu>_{q,t} for mu, nu |- d."""
    parts, inverse = _m_to_p_matrix(d)
    weights = {lam: _z_weight(lam) for lam in parts}
    b = {}
    for i, mu in enumerate(parts):
        for nu in parts[i:]:  # the product is symmetric: one sum per pair
            acc = RF_ZERO
            for lam in parts:
                c = inverse[mu].get(lam, Fraction(0)) * inverse[nu].get(lam, Fraction(0))
                if c:
                    acc = acc + weights[lam].scale(c)
            b[(mu, nu)] = b[(nu, mu)] = acc
    return parts, MappingProxyType(b)


def scalar_product(f: dict[Partition, RatFunc], g: dict[Partition, RatFunc],
                   d: int) -> RatFunc:
    """Macdonald scalar product of two degree-d elements in m coordinates:
    sum_mu f_mu (sum_nu B[mu, nu] g_nu), each row summed before its one
    product with f_mu."""
    parts, b = _gram_matrix(d)
    acc = RF_ZERO
    for mu, cf in f.items():
        row = RF_ZERO
        for nu, cg in g.items():
            row = row + cg * b[(mu, nu)]
        acc = acc + cf * row
    return acc


@lru_cache(maxsize=None)
def _gram_p_basis(d: int):
    """Gram-Schmidt of the m basis in degree d: the P_lam in m coordinates.

    In lex ascending order, P_lam is m_lam less <m_lam, P_mu> / <m_mu, P_mu>
    times each earlier P_mu.  So each P_mu needs one row of inner products
    <m_kappa, P_mu>, kappa >= mu, one ``scalar_product`` an entry; the entry
    at mu is the norm <P_mu, P_mu>, as P_mu is orthogonal to the earlier P,
    which span the earlier m.
    """
    parts = sorted(partitions_of(d), key=lambda p: p.parts)  # lex ascending
    built = {}
    norms = {}
    for lam in parts:
        m_lam = {lam: RF_ONE}
        vec = dict(m_lam)
        for mu, p_mu in built.items():
            coef = scalar_product(m_lam, p_mu, d) / norms[mu]
            for nu, v in p_mu.items():
                vec[nu] = vec.get(nu, RF_ZERO) - coef * v
        built[lam] = MappingProxyType(
            {nu: v for nu, v in vec.items() if not v.is_zero()})
        norms[lam] = scalar_product(m_lam, built[lam], d)
    return MappingProxyType(built)


def gram_p(lam: Partition, n: int) -> MultiSeries:
    """Oracle construction of P_lam by Gram-Schmidt; budget |lam| <= 6."""
    if lam.weight() > 6:
        raise ValueError("gram_p oracle budget is |lam| <= 6")
    if lam.length() > n:
        raise ValueError("gram_p needs l(lam) <= n")
    coords = _gram_p_basis(lam.weight())[lam]
    out = MultiSeries(poly_vars(n), NO_TRUNC)
    for mu, c in coords.items():
        if mu.length() > n:
            continue
        qc = _OracleCoeff(c)  # not a QTCoeff: stored, not added
        for e in _distinct_permutations(mu, n):
            out.terms[out.keys.pack(e)] = qc
    return out


class _OracleCoeff:
    """Coefficient of the Gram-Schmidt oracle: a reduced ``RatFunc``.

    Not a ``QTCoeff``, whose denominator is a product of binomials; an
    oracle series is only compared, and ``equals`` takes a ``QTCoeff`` on
    either side (``QTCoeff.equals`` defers to it).
    """

    __slots__ = ("rat",)

    def __init__(self, rat: RatFunc):
        self.rat = rat

    def __bool__(self):
        return not self.rat.is_zero()

    def equals(self, other):
        # unrun: goes with ROADMAP item 2; the other side is a QTCoeff
        if isinstance(other, _OracleCoeff):
            return self.rat.equals(other.rat)
        return self.rat.num * other._den_poly() == other.num * self.rat.den

    def num_den_strings(self) -> tuple[str, str]:
        return str(self.rat.num), str(self.rat.den)


def _distinct_permutations(mu: Partition, n: int):
    base = mu.parts + (0,) * (n - mu.length())
    return set(itertools.permutations(base))


def m_coeffs_of(poly: MultiSeries) -> dict[Partition, RatFunc]:
    return {mu: RatFunc.from_qtcoeff(c) for mu, c in m_expansion(poly).items()}


def orthonormality_check(lam: Partition, mu: Partition, n: int) -> bool:
    """<P_lam, Q_mu> = delta via power-sum expansion (needs n >= degrees)."""
    if lam.weight() != mu.weight():
        return True  # different degrees are orthogonal for free
    d = lam.weight()
    if d == 0:
        return True
    val = scalar_product(m_coeffs_of(macdonald_p(lam, n)),
                         m_coeffs_of(macdonald_q(mu, n)), d)
    target = RF_ONE if lam == mu else RF_ZERO
    return val.equals(target)


# ---------------------------------------------------------------------------
# Series-level identity checks.  One walker, ``_bracket_sum_check``, runs the
# bracket partition sum (Macdonald VI); the Cauchy kernel, the skew
# interchange lemma, the generalized MacMahon formula and the branching rule
# (anchored on the Gram-Schmidt oracle) are its instances.  Pieri and
# Warnaar's sums are the two checks made on their own.
# ---------------------------------------------------------------------------

def _group_varset(groups: list[tuple[str, int]]) -> tuple[VarSet, dict[str, list[int]]]:
    """Build a VarSet from named groups, e.g. [("x", 2), ("y", 3)]."""
    names, slots = [], {}
    for prefix, size in groups:
        slots[prefix] = list(range(len(names), len(names) + size))
        names.extend(f"{prefix}{i + 1}" for i in range(size))
    return VarSet(names), slots


def _mono(varset: VarSet, positions) -> tuple[int, ...]:
    """The monomial with one factor of each listed variable position."""
    mono = [0] * len(varset)
    for p in positions:
        mono[p] += 1
    return tuple(mono)


def _product_series(factors, varset, trunc) -> MultiSeries:
    """Product of (polynomial, slot) pairs as a truncated series: the
    polynomial's variable i goes to the variable at position slot[i]."""
    out = MultiSeries.constant(1, varset, trunc)
    for poly, slot in factors:
        out = out * poly.substitute([_mono(varset, [p]) for p in slot],
                                    varset, trunc)
        if out.is_zero():
            break
    return out


def _bracket_sum_check(eps: tuple[int, ...], lam0: Partition, lamN: Partition,
                       groups: list[tuple[str, int]], trunc: int, kind: str):
    """The bracket partition sum against its kernel form, truncated.

    The sum runs over chains lam0 = lam^0, lam^1, ..., lam^n = lamN, step i
    on the variable group ``groups[i]`` ((name prefix, size), in chain
    order): it goes down (lam^i inside lam^(i-1)) when eps_i = +1 and up
    when eps_i = -1.  Bracket P takes P_{outer/inner} on a down step and
    Q_{outer/inner} on an up step; bracket Q swaps the two.  The sum equals
    prod Pi(x^i; x^j) over i < j with eps_i = -1, eps_j = +1, times
    sum_nu U_{lamN/nu}(x^-) D_{lam0/nu}(x^+), where U (D) is the up (down)
    skew and x^- (x^+) joins the groups of the up (down) steps.
    """
    n = len(eps)
    assert len(groups) == n >= 1
    varset, slots = _group_varset(groups)
    slot = [slots[prefix] for prefix, _ in groups]
    up, down = (skew_q, skew_p) if kind == "P" else (skew_p, skew_q)
    lhs = MultiSeries(varset, trunc)

    def walk(i, prev, used, factors):
        nonlocal lhs
        if i == n:
            term = _product_series(factors, varset, trunc)
            md = term.min_total_degree()
            assert md is None or md >= used  # so chains costing > trunc vanish
            lhs = lhs + term
            return
        step_up = eps[i] < 0
        if i == n - 1:
            candidates = [lamN]
        else:
            candidates = partitions_up_to(prev.weight()
                                          + (trunc - used if step_up else 0))
        for cur in candidates:
            outer, inner = (cur, prev) if step_up else (prev, cur)
            if not outer.contains(inner):
                continue
            cost = outer.weight() - inner.weight()
            if used + cost + abs(cur.weight() - lamN.weight()) > trunc:
                continue
            skew = up if step_up else down
            walk(i + 1, cur, used + cost,
                 factors + [(skew(outer, inner, len(slot[i])), slot[i])])

    walk(0, lam0, 0, [])
    kernel = [_mono(varset, (a, b))
              for i, j in itertools.combinations(range(n), 2) if eps[i] < eps[j]
              for a in slot[i] for b in slot[j]]
    minus = [p for i in range(n) if eps[i] < 0 for p in slot[i]]
    plus = [p for i in range(n) if eps[i] > 0 for p in slot[i]]
    nu_sum = MultiSeries(varset, trunc)
    for nu in partitions_up_to(min(lam0.weight(), lamN.weight())):
        if lam0.contains(nu) and lamN.contains(nu):
            nu_sum = nu_sum + _product_series(
                [(up(lamN, nu, len(minus)), minus),
                 (down(lam0, nu, len(plus)), plus)], varset, trunc)
    return series_equals(lhs, product_of_f(kernel, varset, trunc) * nu_sum)


def cauchy_check(n: int, m: int, trunc: int):
    """sum_lam P_lam(x) Q_lam(y) = prod F(x_i y_j), truncated: bracket Q with
    eps (-1, +1) between empty shapes."""
    return _bracket_sum_check((-1, 1), EMPTY, EMPTY, [("x", n), ("y", m)],
                              trunc, "Q")


def pieri_check(mu: Partition, r: int, n: int, kind: str):
    """Expand P_mu g_r (phi) or Q_mu g_r (psi) and compare Pieri coefficients."""
    if mu.length() > n:
        raise ValueError("need l(mu) <= n")
    d = mu.weight() + r
    if kind == "phi":
        prod, reference = m_product(macdonald_p(mu, n), g_r(r, n)), phi_skew
    elif kind == "psi":
        prod, reference = m_product(macdonald_q(mu, n), g_r(r, n)), psi_skew
    else:
        raise ValueError(f"unknown Pieri kind {kind!r}")
    try:
        coeffs = expand_in_p(prod, d, n)
    except NotInPBasis as err:
        lam, reason = err.args
        return False, {"lam": str(lam), "mu": str(mu), "r": r, "kind": kind,
                       "reason": reason}
    if kind == "psi":
        coeffs = {lam: c * QTCoeff.from_qtf(b_lambda(lam).inverse())
                  for lam, c in coeffs.items()}
    for lam in partitions_of(d, None, n):
        got = coeffs.get(lam, QTCoeff.zero())
        if not got.equals(QTCoeff.from_qtf(reference(lam, mu))):
            return False, {"lam": str(lam), "mu": str(mu), "r": r, "kind": kind}
    return True, None


def branching_check(lam: Partition, nx: int, nz: int):
    """P_lam(x, z) = sum_mu P_{lam/mu}(x) P_mu(z), and the Q analogue: the
    bracket partition sum with eps (+1, +1) from lam down to the empty shape.

    Both sides are strip-chain sums, so the strip-chain P_lam in the nx + nz
    variables is first compared with the Gram-Schmidt oracle, where its
    budget allows (|lam| <= 6, l(lam) <= nx + nz).
    """
    n = nx + nz
    if lam.weight() <= 6 and lam.length() <= n:
        if not macdonald_p(lam, n).equals(gram_p(lam, n)):
            return False, {"lam": str(lam), "basis": "Gram-Schmidt"}
    return partition_sum_check((1, 1), lam, EMPTY, [nx, nz], lam.weight())


def qp_lemma_check(mu: Partition, nu: Partition, nx: int, ny: int, trunc: int):
    """The skew interchange lemma, bracket P with eps (-1, +1) from mu to nu:
    sum_lam Q_{lam/mu}(x) P_{lam/nu}(y) = Pi(x;y) sum_tau Q_{nu/tau}(x) P_{mu/tau}(y).
    """
    return _bracket_sum_check((-1, 1), mu, nu, [("x", nx), ("y", ny)],
                              trunc, "P")


def gmacmahon_check(t_steps: int, mu0: Partition, muT: Partition,
                    var_sizes: tuple[list[int], list[int]], trunc: int):
    """The generalized MacMahon formula over up-down chains of partitions:
    bracket P with eps (-1, +1) repeated T times on groups x^0, y^1, x^1, ...

    var_sizes is ([|x^0|, ..., |x^(T-1)|], [|y^1|, ..., |y^T|]).
    """
    x_sizes, y_sizes = var_sizes
    assert len(x_sizes) == t_steps and len(y_sizes) == t_steps
    groups = [g for i in range(t_steps)
              for g in ((f"x{i}_", x_sizes[i]), (f"y{i + 1}_", y_sizes[i]))]
    return _bracket_sum_check((-1, 1) * t_steps, mu0, muT, groups, trunc, "P")


def partition_sum_check(eps: tuple[int, ...], lam0: Partition, lamN: Partition,
                        var_sizes: list[int], trunc: int):
    """Both bracket-product partition sums against their kernel forms."""
    assert len(var_sizes) == len(eps)
    groups = [(f"x{i}_", size) for i, size in enumerate(var_sizes, 1)]
    for kind in ("P", "Q"):
        ok, mismatch = _bracket_sum_check(eps, lam0, lamN, groups, trunc, kind)
        if not ok:
            return False, {"bracket": kind, **mismatch}
    return True, None


def _oa_diagonal_coeff(k: int) -> QTFactored:
    """Degree-2k coefficient of (qt x^2; q^2)_inf / (x^2; q^2)_inf."""
    out = QTFactored.one()
    for j in range(k):
        out = out * QTFactored.binomial(2 * j + 1, 1)      # 1 - qt q^{2j}
        out = out * QTFactored.binomial(2 * j + 2, 0, -1)  # 1 / (1 - q^{2j+2})
    return out


def warnaar_check(variant: str, n: int, trunc: int):
    """Warnaar-type lambda sums against their product sides.

    variant: "oa" (odd arms, w^{r(lam)}), "el" (even legs, w^{r(lam')}),
    "odd" (w^{(|lam|+r(lam'))/2}) or "even" (w^{(|lam|-r(lam'))/2}).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    varset, slots = _group_varset([("w", 1), ("x", n)])
    w, xs = slots["w"], slots["x"]

    def w_exponent(lam: Partition) -> int:
        if variant == "oa":
            return lam.odd_rows()
        if variant == "el":
            return lam.odd_columns()
        if variant == "odd":
            return (lam.weight() + lam.odd_columns()) // 2
        if variant == "even":
            return (lam.weight() - lam.odd_columns()) // 2
        raise ValueError(f"unknown variant {variant!r}")

    b_fun = b_oa if variant == "oa" else b_el

    lhs = MultiSeries(varset, trunc)
    for lam in partitions_up_to(trunc, max_length=n):
        term = macdonald_p(lam, n).substitute(
            [_mono(varset, [i]) for i in xs], varset, trunc)
        lhs = lhs + term.scale(b_fun(lam)).shift_monomial(
            _mono(varset, w * w_exponent(lam)))

    pair_w = w if variant in ("odd", "even") else []
    pairs = [_mono(varset, pair_w + [xs[a], xs[b]])
             for a in range(len(xs)) for b in range(a + 1, len(xs))]
    if variant == "oa":
        rhs = product_of_f(pairs, varset, trunc)
        for i in xs:
            # (1 + w x_i) * (qt x_i^2; q^2)_inf / (x_i^2; q^2)_inf
            diag = MultiSeries(varset, trunc)
            k = 0
            while 2 * k <= trunc:
                diag.add_term(_mono(varset, [i] * (2 * k)),
                              _oa_diagonal_coeff(k))
                k += 1
            lin = MultiSeries.constant(1, varset, trunc)
            lin.add_term(_mono(varset, w + [i]), QTFactored.one())
            rhs = rhs * diag * lin
    else:
        single_w = [] if variant == "even" else w
        single = [_mono(varset, single_w + [i]) for i in xs]
        rhs = product_of_f(single + pairs, varset, trunc)
    return series_equals(lhs, rhs)
