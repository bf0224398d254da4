"""Truncated formal power series in named commuting variables.

A series carries ``point``, and its coefficients are exact either way.  With
``point`` None (exact mode) they are ratios of a bivariate polynomial in
(q, t) by a product of binomials (1 - q^a t^b) (``QTCoeff``); at an
:class:`~qthook.qtcore.EvalPoint` (eval mode) they are the ``Fraction``
values of those ratios there.  ``as_coeff`` turns any input into the one
kind, and ``not c`` is the zero test for both.  Truncation is by total
degree across all variables, which matches the weight |pi| of a P-partition.

A polynomial is a series with truncation ``NO_TRUNC``: the Macdonald
polynomials are exact series in x1..xn, and ``substitute`` places one on
the variables of a larger series.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter

from .qtcore import (
    BI_ONE,
    BiPoly,
    EvalPoint,
    QTFactored,
    _binomial_power,
    cancelled_ratio,
    f_series_coeff,
)

NO_TRUNC = 10 ** 9


class QTCoeff:
    """num / (q^dq t^dt * prod (1 - q^a t^b)^e) with num an exact polynomial."""

    __slots__ = ("num", "dq", "dt", "den")

    def __init__(self, num: BiPoly, dq: int = 0, dt: int = 0, den=None):
        self.num = num
        self.dq = dq
        self.dt = dt
        self.den = {k: e for k, e in (den or {}).items() if e}
        if any(e < 0 for e in self.den.values()):
            raise ValueError("denominator exponents must be positive")

    @staticmethod
    def zero() -> "QTCoeff":
        return QTCoeff(BiPoly())

    @staticmethod
    def one() -> "QTCoeff":
        return QTCoeff(BI_ONE)

    @staticmethod
    def from_qtf(f: QTFactored) -> "QTCoeff":
        if f.is_zero():
            return QTCoeff.zero()
        num = BiPoly.monomial(f.coeff, max(f.qexp, 0), max(f.texp, 0))
        den = {}
        for (a, b), e in f.factors.items():
            if e > 0:
                num = num * _binomial_power(a, b, e)
            else:
                den[(a, b)] = -e
        return QTCoeff(num, max(-f.qexp, 0), max(-f.texp, 0), den)

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def _den_poly(self) -> BiPoly:
        out = BiPoly.monomial(1, self.dq, self.dt)
        for (a, b), e in self.den.items():
            out = out * _binomial_power(a, b, e)
        return out

    def __add__(self, other: "QTCoeff") -> "QTCoeff":
        if not isinstance(other, QTCoeff):
            return NotImplemented
        if not self:
            return other
        if not other:
            return self
        dq = max(self.dq, other.dq)
        dt = max(self.dt, other.dt)
        den = dict(self.den)
        for k, e in other.den.items():
            den[k] = max(den.get(k, 0), e)
        a = self.num.shift(dq - self.dq, dt - self.dt)
        for k, e in den.items():
            gap = e - self.den.get(k, 0)
            if gap:
                a = a * _binomial_power(*k, gap)
        b = other.num.shift(dq - other.dq, dt - other.dt)
        for k, e in den.items():
            gap = e - other.den.get(k, 0)
            if gap:
                b = b * _binomial_power(*k, gap)
        return QTCoeff(a + b, dq, dt, den)

    def __neg__(self) -> "QTCoeff":
        return QTCoeff(-self.num, self.dq, self.dt, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "QTCoeff") -> "QTCoeff":
        if not isinstance(other, QTCoeff):
            return NotImplemented
        if not self or not other:
            return QTCoeff.zero()
        den = dict(self.den)
        for k, e in other.den.items():
            den[k] = den.get(k, 0) + e
        return QTCoeff(self.num * other.num, self.dq + other.dq,
                       self.dt + other.dt, den)

    def mul_qtf(self, f: QTFactored) -> "QTCoeff":
        return self * QTCoeff.from_qtf(f)

    def equals(self, other) -> bool:
        if not isinstance(other, QTCoeff):
            return other.equals(self)
        if not self or not other:
            return not self and not other
        # self.num / D == other.num / D' iff self.num * D' == other.num * D,
        # and D' / D = u / v once their common factors are cancelled.
        u, v = cancelled_ratio(other.dq, other.dt, other.den,
                               self.dq, self.dt, self.den)
        return self.num * u == other.num * v

    def evaluate(self, point: EvalPoint) -> Fraction:
        return point.value(self.num.evaluate(point.q0, point.t0), -self.dq,
                           -self.dt, {k: -e for k, e in self.den.items()})

    def num_den_strings(self) -> tuple[str, str]:
        return str(self.num), str(self._den_poly())

    def __repr__(self):
        n, d = self.num_den_strings()
        return f"({n})/({d})" if d != "1" else f"({n})"


def as_coeff(c, point: EvalPoint | None):
    """``c`` as a coefficient of a series at ``point``.

    With ``point`` None (exact mode) that is a QTCoeff; at a point it is the
    Fraction value of ``c`` there (a Fraction is returned as it is).  ``c``
    is a QTFactored, a QTCoeff, an int or a Fraction; anything else is a
    TypeError.
    """
    if isinstance(c, Fraction) and point is not None:
        return c
    if isinstance(c, QTFactored):
        return QTCoeff.from_qtf(c) if point is None else c.evaluate(point)
    if isinstance(c, QTCoeff):
        return c if point is None else c.evaluate(point)
    if isinstance(c, (int, Fraction)):
        return QTCoeff.from_qtf(QTFactored(c)) if point is None else Fraction(c)
    raise TypeError(f"cannot turn {type(c).__name__} into a series coefficient")


def _coeff_ops(point: EvalPoint | None):
    """(equality, text) of the coefficients of a series at ``point``: exact
    coefficients compare by their ``equals`` and print as "(num)/(den)",
    values at a point compare by ``==`` and print by ``str``."""
    if point is None:
        return (lambda a, b: a.equals(b),
                lambda c: "({})/({})".format(*c.num_den_strings()))
    return (lambda a, b: a == b), str


class VarSet:
    """Ordered, unique variable names; fixes the monomial encoding."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarSet{self.names}"

    def monomial(self, exps: dict[str, int]) -> tuple[int, ...]:
        v = [0] * len(self.names)
        for name, e in exps.items():
            v[self.index[name]] += e
        return tuple(v)

    def unit(self) -> tuple[int, ...]:
        return (0,) * len(self.names)


def total_degree(mono: tuple[int, ...]) -> int:
    return sum(mono)


def mono_str(mono, varset: VarSet) -> str:
    bits = [f"{n}^{e}" if e > 1 else n
            for n, e in zip(varset.names, mono) if e]
    return "*".join(bits) if bits else "1"


class MultiSeries:
    """Power series truncated at total degree D, exact (``point`` None) or
    at an EvalPoint."""

    __slots__ = ("varset", "trunc", "point", "terms")

    def __init__(self, varset: VarSet, trunc: int,
                 point: EvalPoint | None = None, terms=None):
        self.varset = varset
        self.trunc = trunc
        self.point = point
        self.terms = {}
        for mono, c in (terms or {}).items():
            if total_degree(mono) > trunc or not c:
                continue
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in stored monomial {mono}")
            self.terms[mono] = c

    @staticmethod
    def constant(c, varset: VarSet, trunc: int,
                 point: EvalPoint | None = None) -> "MultiSeries":
        c = as_coeff(c, point)
        s = MultiSeries(varset, trunc, point)
        if c:
            s.terms[varset.unit()] = c
        return s

    def _check_compatible(self, other: "MultiSeries"):
        if self.varset != other.varset:
            raise ValueError("variable set mismatch")
        if self.trunc != other.trunc:
            raise ValueError("truncation mismatch")
        if self.point != other.point:
            raise ValueError("coefficient mode mismatch")

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out[mono] + c if mono in out else c
            if s:
                out[mono] = s
            else:
                del out[mono]
        res = MultiSeries(self.varset, self.trunc, self.point)
        res.terms = out
        return res

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compatible(other)
        # by degree, so the inner loop stops at the truncation; each output
        # monomial still receives its products in the left operand's order
        right = sorted(((total_degree(m), m, c) for m, c in other.terms.items()),
                       key=itemgetter(0))
        out = {}
        for m1, c1 in self.terms.items():
            room = self.trunc - total_degree(m1)
            for d2, m2, c2 in right:
                if d2 > room:
                    break
                k = tuple(map(add, m1, m2))
                prod = c1 * c2
                if k in out:
                    s = out[k] + prod
                    if s:
                        out[k] = s
                    else:
                        del out[k]
                elif prod:
                    out[k] = prod
        res = MultiSeries(self.varset, self.trunc, self.point)
        res.terms = out
        return res

    def scale(self, c) -> "MultiSeries":
        c = as_coeff(c, self.point)
        res = MultiSeries(self.varset, self.trunc, self.point)
        if c:
            res.terms = {m: v * c for m, v in self.terms.items()}
        return res

    def add_term(self, mono, c):
        """Accumulate c * x^mono in place (trusted internal constructor)."""
        if total_degree(mono) > self.trunc:
            return
        c = as_coeff(c, self.point)
        s = self.terms[mono] + c if mono in self.terms else c
        if s:
            self.terms[mono] = s
        else:
            self.terms.pop(mono, None)

    def shift_monomial(self, shift: tuple[int, ...]) -> "MultiSeries":
        """Multiply by x^shift where shift may have negative entries.

        Every shifted monomial must come out nonnegative; used for the
        Laurent prefactors that are provably cleared by the series part.
        """
        res = MultiSeries(self.varset, self.trunc, self.point)
        for mono, c in self.terms.items():
            new = tuple(map(add, mono, shift))
            if any(e < 0 for e in new):
                raise ValueError(f"monomial shift {shift} drives {mono} negative")
            if total_degree(new) <= self.trunc:
                res.terms[new] = c
        return res

    def min_total_degree(self):
        return min((total_degree(m) for m in self.terms), default=None)

    def truncated(self, new_trunc: int) -> "MultiSeries":
        """Copy with a different degree bound (dropping higher terms)."""
        res = MultiSeries(self.varset, new_trunc, self.point)
        res.terms = {m: c for m, c in self.terms.items()
                     if total_degree(m) <= new_trunc}
        return res

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono):
        return self.terms.get(mono) or as_coeff(0, self.point)

    def equals(self, other: "MultiSeries") -> bool:
        return series_equals(self, other)[0]

    def substitute(self, images, varset: VarSet, trunc: int,
                   point: EvalPoint | None = None) -> "MultiSeries":
        """This series with variable i replaced by the monomial ``images[i]``
        of ``varset`` (possibly the unit), truncated at ``trunc``."""
        assert len(images) == len(self.varset)
        res = MultiSeries(varset, trunc, point)
        for mono, c in self.terms.items():
            new = varset.unit()
            for e, image in zip(mono, images):
                if e:
                    new = tuple(a + e * b for a, b in zip(new, image))
            res.add_term(new, c)
        return res

    def __repr__(self):
        text = _coeff_ops(self.point)[1]
        bits = [f"{text(c)}*{mono_str(m, self.varset)}"
                for m, c in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


def series_f(mono: tuple[int, ...], varset: VarSet, trunc: int,
             point: EvalPoint | None = None) -> MultiSeries:
    """F(x) = (tx; q)_inf / (x; q)_inf at x = the given monomial, truncated.

    Expanded through its binomial coefficients f(k; 0).
    """
    deg = total_degree(mono)
    if deg < 1:
        raise ValueError("series_f needs a monomial of degree >= 1")
    if any(e < 0 for e in mono):
        raise ValueError("series_f needs nonnegative exponents")
    res = MultiSeries(varset, trunc, point)
    k = 0
    while k * deg <= trunc:
        res.add_term(tuple(e * k for e in mono), f_series_coeff(k))
        k += 1
    return res


def product_of_f(monos, varset: VarSet, trunc: int,
                 point: EvalPoint | None = None) -> MultiSeries:
    """prod_m F(x^m) truncated; the right-hand side shape of every hook formula.

    The factors go in by descending total degree of their monomial (a stable
    sort).  A factor of large degree has only one or two terms below the
    truncation, so it is cheapest to multiply in while the running product is
    still small; the product, being exact, does not depend on the order.
    """
    out = MultiSeries.constant(1, varset, trunc, point)
    for m in sorted(monos, key=total_degree, reverse=True):
        out = out * series_f(m, varset, trunc, point)
    return out


def series_equals(a: MultiSeries, b: MultiSeries):
    """Compare two series; on inequality report the lex-first differing monomial.

    Returns (equal, mismatch) where mismatch is None or a dict with the
    monomial and both coefficient strings.
    """
    a._check_compatible(b)
    same, text = _coeff_ops(a.point)
    monos = sorted(set(a.terms) | set(b.terms))
    for mono in monos:
        ca = a.coefficient(mono)
        cb = b.coefficient(mono)
        if not same(ca, cb):
            return False, {
                "monomial": mono_str(mono, a.varset),
                "lhs": text(ca),
                "rhs": text(cb),
            }
    return True, None
