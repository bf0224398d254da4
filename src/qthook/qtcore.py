"""Exact arithmetic in the field Q(q, t) tuned for products of (1 - q^a t^b).

Every weight and coefficient formula in this package is a product of factors
(1 - q^a t^b)^(+-1) times a rational scalar, so the primary value type
``QTFactored`` keeps that factored shape: multiplication and division are
dictionary merges and never expand anything (it is also the content of the
exact series coefficient ``series.QTCoeff``).  Both decide equality by one
test, ``same_value``: two identical factored forms are equal as they
stand; any other pair has the monomial and the (1 - q^a t^b) powers
both sides share cancelled (``cancelled_ratio``), what is left expanded to
bivariate polynomials (``BiPoly``) and integer cross products compared.
``BiPoly`` keeps integral coefficients as Python ints and only the others
as Fractions, and multiplies by the plain sparse term loop.  The hook
check's eval mode takes values at rational points drawn on integers
(``EvalPoint``, ``resampled``); a weight group there, a product of f(n; m)
powers, is valued from the point's f-table, and only where a signature
needs it once the table shows no vanishing binomial (at seed 0, 1,385 of
hook-eval's 8,880 group values).  The chain product Phi (``phi_chain``)
and Phi-hat (``phi_hat``) are defined here once, next to the Pieri
coefficients, for both the weights and the summation identities.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .partitions import Partition, is_horizontal_strip

ZERO = Fraction(0)


class BiPoly:
    """Sparse polynomial in q, t with exact rational coefficients.

    ``terms`` maps (qdeg, tdeg) to a nonzero coefficient, stored as an
    ``int`` when it is integral and as a ``Fraction`` otherwise.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = {k: _coeff(v) for k, v in (terms or {}).items()}
        self.terms = {k: v for k, v in terms.items() if v}

    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly.monomial(c, 0, 0)

    @staticmethod
    def monomial(c, a: int, b: int) -> "BiPoly":
        return BiPoly({(a, b): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del out[k]
        res = BiPoly.__new__(BiPoly)
        res.terms = out
        return res

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        lhs, rhs = self.terms, other.terms
        if len(lhs) > len(rhs):  # fewer, longer inner loops run faster
            lhs, rhs = rhs, lhs
        out = {}
        get = out.get
        rhs = rhs.items()
        for (i, j), c in lhs.items():
            for (k, l), d in rhs:
                key = (i + k, j + l)
                out[key] = get(key, 0) + c * d
        res = BiPoly.__new__(BiPoly)
        res.terms = _canonical(out)
        return res

    def scale(self, c) -> "BiPoly":
        c = _coeff(c)
        res = BiPoly.__new__(BiPoly)
        res.terms = _canonical({k: v * c for k, v in self.terms.items()}) if c else {}
        return res

    def evaluate(self, q0: Fraction, t0: Fraction) -> Fraction:
        """The value at (q0, t0), for ``QTCoeff.evaluate``, which only the
        tests call."""
        total = ZERO
        for (a, b), c in self.terms.items():
            total += c * q0 ** a * t0 ** b
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b) in sorted(self.terms):
            c = self.terms[(a, b)]
            mono = "".join(
                (f"q^{a}" if a > 1 else "q" if a == 1 else "",
                 f"t^{b}" if b > 1 else "t" if b == 1 else ""))
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append(f"{c}*{mono}")
        out = bits[0]
        for piece in bits[1:]:
            out += ("+" + piece) if not piece.startswith("-") else piece
        return out

    __repr__ = __str__


def _coeff(c):
    """``c`` as ``BiPoly.terms`` stores it: an int when integral, else a
    Fraction; anything but an int or a Fraction is a TypeError."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"BiPoly coefficients are int or Fraction, not {type(c).__name__}")


def _canonical(terms: dict) -> dict:
    """``terms`` without its zeros, integral Fractions turned into ints."""
    return {k: v if type(v) is int or v.denominator != 1 else v.numerator
            for k, v in terms.items() if v}


def _frozen(p: BiPoly) -> BiPoly:
    """``p`` with read-only terms, for a value that callers share."""
    p.terms = MappingProxyType(p.terms)
    return p


BI_ONE = _frozen(BiPoly.const(1))


@lru_cache(maxsize=None)
def _binomial_poly(a: int, b: int) -> BiPoly:
    """The polynomial 1 - q^a t^b."""
    return _frozen(BiPoly({(0, 0): 1, (a, b): -1}))


@lru_cache(maxsize=None)
def _binomial_power(a: int, b: int, e: int) -> BiPoly:
    if e == 0:
        return BI_ONE
    return _frozen(_binomial_power(a, b, e - 1) * _binomial_poly(a, b))


class VanishingFactor(Exception):
    """A factor (1 - q^a t^b) vanished at an evaluation point."""


class EvalPoint:
    """Exact rational sample point (q0, t0) for one-sided identity testing.

    With q0 = qn / qd and t0 = tn / td in lowest terms, each binomial is
    1 - q0^a t0^b = B / (qd^a td^b); the point caches the numerator B of
    every binomial it has met, so ``value`` can multiply integers and divide
    once.  Its f-table holds each f(n; m) it has met as an integer pair, a
    row at a time (``f_pair``), so that ``f_product`` values a weight group
    by a few integer products.
    """

    __slots__ = ("q0", "t0", "_ints", "_binomials", "_f_table")

    def __init__(self, q0, t0):
        q0, t0 = (v if type(v) is Fraction else Fraction(v) for v in (q0, t0))
        for v in (q0, t0):
            if v.numerator in (0, v.denominator, -v.denominator):
                raise ValueError(f"degenerate evaluation coordinate {v}")
        self.q0 = q0
        self.t0 = t0
        self._ints = (q0.numerator, q0.denominator, t0.numerator,
                      t0.denominator)  # qn, qd, tn, td
        self._binomials = {}
        self._f_table = {}  # (n, m) -> f(n; m) as an integer pair

    def __repr__(self):
        return f"EvalPoint({self.q0}, {self.t0})"

    def binomial(self, a: int, b: int) -> int:
        """B = qd^a td^b (1 - q0^a t0^b), a nonzero int for a, b >= 0.
        Raises VanishingFactor where the binomial is 0 at this point."""
        B = self._binomials.get((a, b))
        if B is None:
            if a < 0 or b < 0:
                raise ValueError(f"(1 - q^{a} t^{b}): need exponents >= 0")
            qn, qd, tn, td = self._ints
            B = qd ** a * td ** b - qn ** a * tn ** b
            if B == 0:
                raise VanishingFactor(f"(1 - q^{a} t^{b}) vanishes at {self}")
            self._binomials[(a, b)] = B
        return B

    def value(self, coeff: Fraction, qexp: int, texp: int, factors: dict) -> Fraction:
        """coeff * q0^qexp * t0^texp * prod (1 - q0^a t0^b)^e over factors.

        The binomial numerators multiply into one integer numerator and
        denominator, every qd and td power into one exponent each, and the
        quotient is reduced once at the end.
        """
        binomials = self._binomials
        num, den = coeff.numerator, coeff.denominator
        qs, ts = qexp, texp  # the value carries qd^-qs td^-ts
        for k, e in factors.items():
            B = binomials.get(k)
            if B is None:
                B = self.binomial(*k)
            if e > 0:
                num *= B ** e
            else:
                den *= B ** -e
            qs += k[0] * e
            ts += k[1] * e
        qn, qd, tn, td = self._ints
        for base, exp in ((qn, qexp), (tn, texp), (qd, -qs), (td, -ts)):
            if exp > 0:
                num *= base ** exp
            elif exp < 0:
                den *= base ** -exp
        return Fraction(num, den)

    def f_pair(self, n: int, m: int) -> tuple:
        """f(n; m) here as an integer pair (num, den), () where one of its
        binomials vanishes, with f(1; m), ..., f(n; m) put in the f-table:
        f(k; m) is f(k - 1; m) times (1 - q0^(k-1) t0^(m+1)) / (1 - q0^k
        t0^m) = B(k - 1, m + 1) qd / (B(k, m) td), from running powers of
        qn, qd, tn and td; every f(k; m) after a vanishing binomial has it."""
        qn, qd, tn, td = self._ints
        un, ud, dn, dd = tn ** (m + 1), td ** (m + 1), tn ** m, td ** m
        an = ad = num = den = 1  # q0^(k-1) = an / ad
        table = self._f_table
        for k in range(1, n + 1):
            if num:
                up = ad * ud - an * un  # B(k - 1, m + 1)
                an, ad = an * qn, ad * qd
                down = ad * dd - an * dn  # B(k, m)
                num, den = (num * up * qd, den * down * td) if down else (0, 0)
            table[k, m] = (num, den) if num else ()
        return table[n, m] if n else (1, 1)

    def f_product(self, counts) -> tuple[int, int]:
        """prod f(n; m)^c over the ((n, m), c) pairs of ``counts``, here, as
        an integer pair (num, den) with den != 0: the value num / den,
        neither reduced nor made positive.

        Each f(n; m) comes from the point's f-table.  Where one of them has
        a vanishing binomial the value is that of ``qtcore.f_product(counts)``
        instead, whose ``evaluate`` raises VanishingFactor exactly when a
        vanishing binomial keeps a nonzero exponent in the product.
        """
        num = den = 1
        table = self._f_table
        for field, c in counts:
            pair = table.get(field) or self.f_pair(*field)
            if not pair:
                value = f_product(counts).evaluate(self)
                return value.numerator, value.denominator
            if c == 1:
                num, den = num * pair[0], den * pair[1]
            elif c > 0:
                num, den = num * pair[0] ** c, den * pair[1] ** c
            else:
                num, den = num * pair[1] ** -c, den * pair[0] ** -c
        return num, den


def sample_points(count: int, seed: int) -> list[EvalPoint]:
    """Deterministic evaluation points; numerators/denominators in 2..7.

    Points where some factor later vanishes are replaced by ``resampled``.
    """
    rng = random.Random(seed)
    return [_draw_point(rng) for _ in range(count)]


def _draw_point(rng: random.Random) -> EvalPoint:
    """q0 = qn / qd, t0 = tn / td drawn on integers, again where q0 = 1, t0
    = 1, q0 = t0 or q0 t0 = 1 (the most common vanishing q^a t^a = 1)."""
    draw = rng.randint
    while True:
        qn, qd, tn, td = draw(2, 7), draw(2, 7), draw(2, 7), draw(2, 7)
        if qn != qd and tn != td and qn * td != tn * qd and qn * tn != qd * td:
            return EvalPoint(Fraction(qn, qd), Fraction(tn, td))


def resample_point(seed: int, idx: int, attempt: int) -> EvalPoint:
    """Replacement for point ``idx`` of a run seeded with ``seed``, after
    ``attempt`` draws hit a vanishing factor; distinct triples give distinct
    integer seeds (the bytes of a text with a nonzero first byte)."""
    key = f"{seed},{idx},{attempt}".encode()
    return _draw_point(random.Random(int.from_bytes(key, "big")))


def resampled(points, seed: int, fn):
    """Yield (point used, fn(point)) for each point in turn.

    Where ``fn`` raises VanishingFactor the point is replaced by
    ``resample_point`` until ``fn`` goes through.
    """
    for idx, pt in enumerate(points):
        attempt = 0
        while True:
            try:
                value = fn(pt)
                break
            except VanishingFactor:
                attempt += 1
                pt = resample_point(seed, idx, attempt)
        yield pt, value


class QTFactored:
    """coeff * q^qexp * t^texp * prod (1 - q^a t^b)^e, all exact.

    The canonical zero has coeff == 0, empty factors and zero exponents.
    Factors are not irreducible, so multiset equality of factors is only a
    sufficient test; real equality goes through :meth:`equals`, and ``==``
    raises TypeError rather than compare anything less.
    """

    __slots__ = ("coeff", "qexp", "texp", "factors")

    def __init__(self, coeff=1, qexp=0, texp=0, factors=None):
        coeff = Fraction(coeff)
        if coeff == 0:
            self.coeff, self.qexp, self.texp, self.factors = ZERO, 0, 0, {}
            return
        self.coeff = coeff
        self.qexp = qexp
        self.texp = texp
        self.factors = {}
        for key, e in (factors or {}).items():  # reuse keys: copies cost memory
            if e == 0:
                continue
            if key == (0, 0) or key[0] < 0 or key[1] < 0:
                raise ValueError(f"factor (1 - q^{key[0]} t^{key[1]}): need "
                                 "exponents >= 0, not both 0")
            self.factors[key] = e

    @staticmethod
    def zero() -> "QTFactored":
        return QTFactored(0)

    @staticmethod
    def one() -> "QTFactored":
        return QTFactored(1)

    @staticmethod
    def binomial(a: int, b: int, e: int = 1) -> "QTFactored":
        """(1 - q^a t^b)^e."""
        return QTFactored(1, 0, 0, {(a, b): e})

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __mul__(self, other: "QTFactored") -> "QTFactored":
        if self.coeff == 0 or other.coeff == 0:
            return QTFactored.zero()
        out = QTFactored.__new__(QTFactored)
        a, b = self.coeff, other.coeff
        out.coeff = b if a == 1 else a if b == 1 else a * b
        out.qexp = self.qexp + other.qexp
        out.texp = self.texp + other.texp
        f = dict(self.factors)
        for k, e in other.factors.items():
            s = f.get(k, 0) + e
            if s:
                f[k] = s
            else:
                del f[k]
        out.factors = f
        return out

    def __truediv__(self, other: "QTFactored") -> "QTFactored":
        return self * other.inverse()

    def inverse(self) -> "QTFactored":
        if self.coeff == 0:
            raise ZeroDivisionError("inverse of zero QTFactored")
        out = QTFactored.__new__(QTFactored)
        out.coeff = 1 / self.coeff
        out.qexp = -self.qexp
        out.texp = -self.texp
        out.factors = {k: -e for k, e in self.factors.items()}
        return out

    def scale(self, c) -> "QTFactored":
        return QTFactored(self.coeff * Fraction(c), self.qexp, self.texp, self.factors)

    def evaluate(self, point: EvalPoint) -> Fraction:
        """The value at ``point``, through one division (``EvalPoint.value``)."""
        if self.coeff == 0:
            return ZERO
        return point.value(self.coeff, self.qexp, self.texp, self.factors)

    def equals(self, other: "QTFactored") -> bool:
        """Exact equality, through :func:`same_value`."""
        return same_value(self, BI_ONE, other, BI_ONE)

    def __eq__(self, other):
        raise TypeError("compare QTFactored values with equals")


def cancelled_ratio(xq: int, xt: int, xf: dict,
                    yq: int, yt: int, yf: dict) -> tuple[BiPoly, BiPoly]:
    """Polynomials (u, v) with u / v = X / Y, where
    X = q^xq t^xt prod (1 - q^a t^b)^xf[a, b] and Y likewise from yq, yt, yf.

    The exponents are subtracted before anything is expanded, so whatever X
    and Y share cancels: u and v carry only the positive and the negative
    parts of X's exponents minus Y's.
    """
    diff = dict(xf)
    for k, e in yf.items():
        diff[k] = diff.get(k, 0) - e
    u = BiPoly.monomial(1, max(xq - yq, 0), max(xt - yt, 0))
    v = BiPoly.monomial(1, max(yq - xq, 0), max(yt - xt, 0))
    for (a, b), e in diff.items():
        if e > 0:
            u = u * _binomial_power(a, b, e)
        elif e < 0:
            v = v * _binomial_power(a, b, -e)
    return u, v


def same_value(x: QTFactored, rx: BiPoly, y: QTFactored, ry: BiPoly) -> bool:
    """Whether x * rx == y * ry, exactly.

    Identical forms (the same scalar, monomial, factor exponents and
    remainder) are equal without expanding anything.  (The hook check
    settles the pairs it knows to be identical, one weight group against
    one of the same counts, before it values them.)  Every other pair is
    decided in full: cancel what x and y share (``cancelled_ratio``), then
    compare the two cross products, the scalars taken as integer cross
    multiples."""
    x_zero, y_zero = not (x.coeff and rx.terms), not (y.coeff and ry.terms)
    if x_zero or y_zero:
        return x_zero and y_zero
    if (x.coeff == y.coeff and x.qexp == y.qexp and x.texp == y.texp
            and x.factors == y.factors and rx.terms == ry.terms):
        return True
    u, v = cancelled_ratio(x.qexp, x.texp, x.factors, y.qexp, y.texp, y.factors)
    left, right = _times(rx, u), _times(ry, v)
    sx = x.coeff.numerator * y.coeff.denominator
    sy = y.coeff.numerator * x.coeff.denominator
    if sx != sy:
        left, right = left.scale(sx), right.scale(sy)
    return left == right


def _times(a: BiPoly, b: BiPoly) -> BiPoly:
    """a * b, without a product when either is 1."""
    return b if a.terms == BI_ONE.terms else a if b.terms == BI_ONE.terms else a * b


# ---------------------------------------------------------------------------
# The building-block functions of every weight formula.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _f_fun_cached(n: int, m: int) -> QTFactored:
    """f(n; m), shared by every caller: its factors are a read-only view."""
    factors = {}
    for k in range(n):  # the keys (k, m + 1) and (k + 1, m) never collide
        factors[k, m + 1] = 1    # (1 - q^k t^(m+1))
        factors[k + 1, m] = -1   # 1 / (1 - q^(k+1) t^m)
    out = QTFactored(1 if n >= 0 else 0, 0, 0, factors)
    out.factors = MappingProxyType(out.factors)
    return out


def f_product(counts) -> QTFactored:
    """prod f(n; m)^c over the ((n, m), c) pairs of ``counts``, exactly:
    each f is looked up once and its factor exponents are added, scaled by
    c.  The exact form of a weight group of the hook check (its value at a
    point is ``EvalPoint.f_product``)."""
    exps = {}
    for (n, m), c in counts:
        for k, v in f_fun(n, m).factors.items():
            exps[k] = exps.get(k, 0) + c * v
    return QTFactored(1, 0, 0, exps)


def f_fun(n: int, m: int) -> QTFactored:
    """f(n; m) = (t^(m+1); q)_n / (q t^m; q)_n, and 0 for n < 0.

    The denominator (q t^m; q)_n is the corrected reading: the naive
    (t^m; q)_n is identically zero at m = 0, which would make every
    single-cell weight undefined.
    """
    if m < 0:
        raise ValueError("f(n; m) needs m >= 0")
    return _f_fun_cached(n, m)


def b_cell(lam: Partition, i: int, j: int) -> QTFactored:
    """(1 - q^a t^(l+1)) / (1 - q^(a+1) t^l) for one cell."""
    a = lam.arm(i, j)
    l = lam.leg(i, j)
    return QTFactored.binomial(a, l + 1) * QTFactored.binomial(a + 1, l, -1)


def _b_cells(lam: Partition, keep) -> QTFactored:
    """Product of b-cell factors over the cells (i, j) with keep(i, j)."""
    out = QTFactored.one()
    for (i, j) in lam.cells():
        if keep(i, j):
            out = out * b_cell(lam, i, j)
    return out


def b_lambda(lam: Partition) -> QTFactored:
    return _b_cells(lam, lambda i, j: True)


def b_el(lam: Partition) -> QTFactored:
    """Product of b-cell factors over cells with even leg length."""
    return _b_cells(lam, lambda i, j: lam.leg(i, j) % 2 == 0)


def b_oa(lam: Partition) -> QTFactored:
    """Product of b-cell factors over cells with odd arm length."""
    return _b_cells(lam, lambda i, j: lam.arm(i, j) % 2 == 1)


def _f_ratio(ups, downs) -> QTFactored:
    """prod f(n; m) over the (n, m) of ``ups`` over the same product for
    ``downs``: the arguments are counted and ``f_product`` is called once,
    as for the hook weights.  A negative n, whose f-value is 0, raises
    ValueError instead of dropping out of the product."""
    counts = {}
    for sign, args in ((1, ups), (-1, downs)):
        for n, m in args:
            if n < 0:
                raise ValueError(f"f({n}; {m}) = 0 in a product of f-values")
            counts[n, m] = counts.get((n, m), 0) + sign
    return f_product(counts.items())


def _b_f_form(lam: Partition, step: int) -> QTFactored:
    """The f-ratio double product over rows i and gaps m = 0, step, 2 step,
    ... <= l(lam) - i."""
    n = lam.length()
    gaps = [(i, m) for i in range(1, n + 1) for m in range(0, n - i + 1, step)]
    return _f_ratio([(lam[i] - lam[i + m + 1], m) for i, m in gaps],
                    [(lam[i] - lam[i + m], m) for i, m in gaps])


def b_lambda_f_form(lam: Partition) -> QTFactored:
    """b_lambda as the double product of f-ratios over rows and gaps."""
    return _b_f_form(lam, 1)


def _strip_coeff(lam: Partition, mu: Partition, n: int,
                 a: Partition, b: Partition) -> QTFactored:
    """The Pieri product (Macdonald, Symmetric Functions and Hall
    Polynomials, 2nd ed., VI 6) over 1 <= i <= j <= n, m = j - i, of
    f(lam_i - mu_j; m) f(mu_i - lam_(j+1); m) / (f(a_i - a_j; m)
    f(b_i - b_(j+1); m)); 0 when lam/mu is not a horizontal strip."""
    if not is_horizontal_strip(lam, mu):
        return QTFactored.zero()
    pairs = [(i, j, j - i) for i in range(1, n + 1) for j in range(i, n + 1)]
    return _f_ratio([arg for i, j, m in pairs
                     for arg in ((lam[i] - mu[j], m), (mu[i] - lam[j + 1], m))],
                    [arg for i, j, m in pairs
                     for arg in ((a[i] - a[j], m), (b[i] - b[j + 1], m))])


def phi_skew(lam: Partition, mu: Partition) -> QTFactored:
    """Pieri coefficient phi_{lam/mu}; 0 when lam/mu is not a horizontal strip."""
    return _strip_coeff(lam, mu, lam.length(), lam, mu)


def psi_skew(lam: Partition, mu: Partition) -> QTFactored:
    """Pieri coefficient psi_{lam/mu}; 0 when lam/mu is not a horizontal strip."""
    return _strip_coeff(lam, mu, mu.length(), mu, lam)


# ---------------------------------------------------------------------------
# The head/tail chain product Phi and its hatted variant.
# ---------------------------------------------------------------------------

def _check_rho_theta(rho: dict, theta: dict, m: int, n: int):
    for i in range(m, n):
        if not rho[i + 1] <= rho[i]:
            raise ValueError("rho must decrease along the chain")
        if not theta[i] <= theta[i + 1]:
            raise ValueError("theta must increase along the chain")
    if not 0 <= rho[n] or not rho[m] <= theta[m]:
        raise ValueError("need 0 <= rho_n <= ... <= rho_m <= theta_m <= ...")


def _phi_args(rho: dict, theta: dict, m: int, n: int) -> tuple[list, list]:
    """The f-arguments of Phi_m^n(rho, theta), numerator and denominator."""
    _check_rho_theta(rho, theta, m, n)
    ups, downs = [], []
    for i in range(m + 1, n + 1):
        ups += [(rho[i - 1] - rho[i], 0), (theta[i - 1] - rho[i], i),
                (theta[i] - rho[i - 1], i), (theta[i] - theta[i - 1], 0)]
        downs += [(theta[i] - rho[i], i), (theta[i] - rho[i], i + 1)]
    return ups, downs


def phi_chain(rho: dict, theta: dict, m: int, n: int) -> QTFactored:
    """Phi_m^n(rho, theta), with middle f-arguments i (not 0) at step i."""
    return _f_ratio(*_phi_args(rho, theta, m, n))


def phi_hat(rho: dict, theta: dict, m: int, n: int) -> QTFactored:
    """Phi-hat: Phi with its boundary f-ratio."""
    ups, downs = _phi_args(rho, theta, m, n)
    return _f_ratio(ups + [(rho[n], 0), (theta[n], n + 1)],
                    downs + [(rho[m], 0), (theta[m], m + 1)])
