"""Truncated formal power series in named commuting variables.

A series carries ``point``, and its coefficients are exact either way.  With
``point`` None (exact mode) each is a ``QTCoeff``: a factored content times
an integer polynomial, whose sums divide binomials back out
(``divide_binomial``); at an :class:`~qthook.qtcore.EvalPoint` (eval mode)
a series holds the values there as integer numerators over one denominator
``den``, so that its sums and products are integer ones.  ``as_coeff`` turns
any input into a coefficient of either kind (a ``Fraction`` at a point),
and ``not c`` is the zero test for both.  Truncation is by total degree
across all variables, which matches the weight |pi| of a P-partition.

A series keys each monomial by one int (``KeyLayout``): its total degree in
the top field, above one field per variable, so that a monomial product is
one int addition and the truncation one comparison.  Tuples of exponents
stay the interface (the constructor, ``coefficient``, ``monomials``,
``substitute``, ``shift_monomial``), and whatever orders monomials, such as
the lex-first mismatch of ``series_equals``, orders the tuples.

A polynomial is a series with truncation ``NO_TRUNC``: the Macdonald
polynomials are exact series in x1..xn, and ``substitute`` places one on
the variables of a larger series.

A product of F-factors, the right side of every hook formula and of the
Cauchy-type kernels, is built as weight groups, (f-argument counts, keys),
by one walk over the factors' multiplicities (``f_product_terms``), and
``product_of_f`` adds each group's coefficient at its monomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, itemgetter, mul

from .qtcore import (
    BI_ONE,
    BiPoly,
    EvalPoint,
    QTFactored,
    _binomial_power,
    _times,
    f_product,
    same_value,
)

NO_TRUNC = 10 ** 9


class QTCoeff:
    """An exact coefficient ``content * rem``: a factored QTFactored content
    times an integer BiPoly remainder, 0 exactly when ``rem`` is.  A content
    is never mutated, so ``from_qtf`` keeps what it is handed (a cached
    ``f_fun`` value, say) without expanding or copying it.

    ``(dq, dt, den)`` is the display denominator q^dq t^dt prod
    (1 - q^a t^b)^den[a, b], summed by ``*`` and maxed by ``+``; the value
    times it is the polynomial ``num``, which ``num_den_strings`` prints.
    """

    __slots__ = ("content", "rem", "dq", "dt", "den")

    def __init__(self, content: QTFactored, rem: BiPoly, dq: int, dt: int,
                 den: dict):
        self.content, self.rem, self.dq, self.dt, self.den = \
            content, rem, dq, dt, den

    @staticmethod
    def zero() -> "QTCoeff":
        return QTCoeff.from_qtf(QTFactored.zero())

    @staticmethod
    def one() -> "QTCoeff":
        return QTCoeff.from_qtf(QTFactored.one())

    @staticmethod
    def from_qtf(f: QTFactored) -> "QTCoeff":
        return QTCoeff(f, BI_ONE if f.coeff else BiPoly(),
                       max(-f.qexp, 0), max(-f.texp, 0),
                       {k: -e for k, e in f.factors.items() if e < 0})

    def __bool__(self) -> bool:
        return bool(self.rem.terms)

    @property
    def num(self) -> BiPoly:
        """The value times the display denominator, expanded."""
        return _lift(self.rem, self.content, 1, -self.dq, -self.dt,
                     {k: -e for k, e in self.den.items()})

    def _den_poly(self) -> BiPoly:
        out = BiPoly.monomial(1, self.dq, self.dt)
        for (a, b), e in self.den.items():
            out = out * _binomial_power(a, b, e)
        return out

    def __add__(self, other: "QTCoeff") -> "QTCoeff":
        """Keep the content both sides share, add the two expanded quotients,
        and divide out each denominator binomial of it while that is exact."""
        if not (self and other):
            return self or other
        den = {k: max(self.den.get(k, 0), other.den.get(k, 0))
               for k in self.den.keys() | other.den.keys()}
        x, y = self.content, other.content
        # minimum exponents and gcd(nums) / lcm(dens): integral quotients
        scalar = Fraction(gcd(x.coeff.numerator, y.coeff.numerator),
                          lcm(x.coeff.denominator, y.coeff.denominator))
        qexp, texp = min(x.qexp, y.qexp), min(x.texp, y.texp)
        common = {k: min(x.factors.get(k, 0), y.factors.get(k, 0))
                  for k in x.factors.keys() | y.factors.keys()}
        total = (_lift(self.rem, x, scalar, qexp, texp, common)
                 + _lift(other.rem, y, scalar, qexp, texp, common))
        for k, e in common.items():
            while e < 0 and total.terms:
                quotient = divide_binomial(total, *k)
                if quotient is None:
                    break
                total, e = quotient, e + 1
            common[k] = e
        return QTCoeff(QTFactored(scalar, qexp, texp, common), total,
                       max(self.dq, other.dq), max(self.dt, other.dt), den)

    def __neg__(self) -> "QTCoeff":
        return QTCoeff(self.content.scale(-1), self.rem,
                       self.dq, self.dt, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "QTCoeff") -> "QTCoeff":
        if not self or not other:
            return QTCoeff.zero()
        den = dict(self.den)
        for k, e in other.den.items():
            den[k] = den.get(k, 0) + e
        return QTCoeff(self.content * other.content,
                       _times(self.rem, other.rem),
                       self.dq + other.dq, self.dt + other.dt, den)

    def equals(self, other) -> bool:
        """Exact equality, through ``qtcore.same_value``."""
        if not isinstance(other, QTCoeff):
            return other.equals(self)
        return same_value(self.content, self.rem, other.content, other.rem)

    def evaluate(self, point: EvalPoint) -> Fraction:
        """The value at ``point``: 0 for zero, else VanishingFactor wherever
        the content's ``QTFactored.evaluate`` raises it."""
        if not self:
            return Fraction(0)
        c = self.content
        return point.value(c.coeff * self.rem.evaluate(point.q0, point.t0),
                           c.qexp, c.texp, c.factors)

    def num_den_strings(self) -> tuple[str, str]:
        return str(self.num), str(self._den_poly())


def _lift(rem: BiPoly, f: QTFactored, scalar, qexp: int, texp: int,
          floor: dict) -> BiPoly:
    """rem * f / (scalar q^qexp t^texp prod (1 - q^a t^b)^floor[a, b]),
    expanded; no exponent of f lies below the one it is divided by."""
    p = BiPoly.monomial(f.coeff / scalar, f.qexp - qexp, f.texp - texp)
    for k in f.factors.keys() | floor.keys():
        gap = f.factors.get(k, 0) - floor.get(k, 0)
        if gap:
            p = p * _binomial_power(*k, gap)
    return _times(rem, p)


def divide_binomial(p: BiPoly, a: int, b: int) -> BiPoly | None:
    """p / (1 - q^a t^b) when that division is exact, else None.

    The terms of p fall into chains m, m + (a, b), ..., keyed by where each
    chain starts; a or b may be 0.  Along a chain the quotient is the running
    sum of p's coefficients, so the division is exact when every chain sums
    to 0.  O(n log n), no gcd."""
    terms = p.terms
    i, j = max(terms, default=(0, 0))  # top of its chain: most failures show there
    if sum(terms.get((i - s * a, j - s * b), 0)
           for s in range(min(i // a if a else j // b, j // b if b else i // a) + 1)):
        return None
    chains = {}
    for (i, j), c in terms.items():
        k = min(i // a if a else j // b, j // b if b else i // a)
        chains.setdefault((i - k * a, j - k * b), []).append((k, c))
    out = {}
    for (i, j), chain in chains.items():
        chain.sort()
        total = 0
        for (k, c), (k_next, _) in zip(chain, chain[1:]):
            total += c
            if total:
                for s in range(k, k_next):
                    out[i + s * a, j + s * b] = total
        if total + chain[-1][1]:
            return None
    return BiPoly(out)


def as_coeff(c, point: EvalPoint | None):
    """``c`` as a coefficient of a series at ``point``.

    With ``point`` None (exact mode) that is a QTCoeff; at a point it is the
    Fraction value of ``c`` there.  ``c`` is a QTFactored, a QTCoeff, an int
    or a Fraction; anything else is a TypeError.
    """
    if isinstance(c, QTFactored):
        return QTCoeff.from_qtf(c) if point is None else c.evaluate(point)
    if isinstance(c, QTCoeff):
        return c if point is None else c.evaluate(point)
    if isinstance(c, (int, Fraction)):
        return QTCoeff.from_qtf(QTFactored(c)) if point is None else Fraction(c)
    raise TypeError(f"cannot turn {type(c).__name__} into a series coefficient")


def _coeff_text(point: EvalPoint | None):
    """The text of a coefficient of a series at ``point``: "(num)/(den)" for
    an exact one, ``str`` of the value at a point."""
    if point is None:
        return lambda c: "({})/({})".format(*c.num_den_strings())
    return str


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

    def monomial(self, exps: dict[str, int]) -> tuple[int, ...]:
        v = [0] * len(self.names)
        for name, e in exps.items():
            v[self.index[name]] += e
        return tuple(v)


class KeyLayout:
    """The one int a series stores for each monomial of degree <= trunc.

    Below the total degree, which sits in the top field, each of the n
    variables has a field of ``width`` = trunc.bit_length() bits, x1 the
    most significant; ``pack`` is linear, pack(a) + pack(b) = pack(a + b).
    A monomial of degree <= trunc has every exponent <= trunc, so no field
    overflows, and any exponent vector of degree > trunc packs to a key >=
    ``limit``: the truncation is one comparison.  Keys of one degree sort
    like their exponent tuples; keys of different degrees sort by degree.
    """

    __slots__ = ("width", "shift", "units", "limit")

    def __init__(self, n: int, trunc: int):
        self.width = trunc.bit_length()
        self.shift = n * self.width
        self.units = tuple((1 << self.shift) + (1 << (n - 1 - i) * self.width)
                           for i in range(n))  # pack of each variable
        self.limit = (trunc + 1) << self.shift

    def pack(self, mono) -> int:
        """The key of a nonnegative exponent vector."""
        return sum(map(mul, mono, self.units))

    def unpack(self, key: int) -> tuple[int, ...]:
        w, mask = self.width, (1 << self.width) - 1
        return tuple(key >> (i * w) & mask
                     for i in range(len(self.units) - 1, -1, -1))


@lru_cache(maxsize=None)
def key_layout(n: int, trunc: int) -> KeyLayout:
    """The layout of a series in n variables truncated at ``trunc``."""
    return KeyLayout(n, trunc)


def mono_str(mono, varset: VarSet) -> str:
    bits = [f"{n}^{e}" if e > 1 else n
            for n, e in zip(varset.names, mono) if e]
    return "*".join(bits) if bits else "1"


class MultiSeries:
    """Power series truncated at total degree D, exact (``point`` None) or
    at an EvalPoint.

    The coefficient of x^m is ``terms[keys.pack(m)] / den``, ``keys`` being
    the ``key_layout`` of the variables and D.  At a point ``terms`` holds
    integer numerators over one positive integer ``den``, so sums and
    products are integer sums and products; an exact series holds QTCoeffs
    and keeps ``den`` at 1.  ``den`` need not be the least one: read values
    through ``coefficient`` or ``monomials`` and compare through
    ``series_equals``.
    """

    __slots__ = ("varset", "trunc", "point", "terms", "den", "keys")

    def __init__(self, varset: VarSet, trunc: int,
                 point: EvalPoint | None = None):
        """The zero series; ``add_term`` and ``add_groups`` fill it."""
        self.varset = varset
        self.trunc = trunc
        self.point = point
        self.terms = {}
        self.den = 1
        self.keys = key_layout(len(varset), trunc)

    def _make(self, terms: dict, den: int = 1) -> "MultiSeries":
        """A series like this one holding ``terms`` over ``den``, less
        gcd(den, *terms) (never computed in exact mode, where den is 1)."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {k: v // g for k, v in terms.items()}
                den //= g
        res = MultiSeries.__new__(MultiSeries)
        res.varset, res.trunc, res.point, res.keys = \
            self.varset, self.trunc, self.point, self.keys
        res.terms, res.den = terms, den
        return res

    def _over(self, den: int) -> dict:
        """The numerators over ``den``, a multiple of ``self.den``."""
        r = den // self.den
        return self.terms if r == 1 else {k: v * r for k, v in self.terms.items()}

    def _value(self, c):
        """The coefficient that the stored numerator ``c`` stands for."""
        return c if self.point is None else Fraction(c, self.den)

    def monomials(self):
        """The (exponent tuple, coefficient) pairs of the nonzero terms."""
        unpack = self.keys.unpack
        return ((unpack(k), self._value(c)) for k, c in self.terms.items())

    @staticmethod
    def constant(c, varset: VarSet, trunc: int,
                 point: EvalPoint | None = None) -> "MultiSeries":
        s = MultiSeries(varset, trunc, point)
        s.add_groups(((c, (0,)),))  # 0 is the key of the unit monomial
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
        den = lcm(self.den, other.den)
        out = dict(self._over(den))
        for k, c in other._over(den).items():
            s = out[k] + c if k in out else c
            if s:
                out[k] = s
            else:
                del out[k]
        return self._make(out, den)

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compatible(other)
        # the right operand by key, so the inner loop stops at the truncation;
        # each output monomial still receives its products in the left
        # operand's order, and a product of nonzero coefficients is nonzero
        right = sorted(other.terms.items(), key=itemgetter(0))
        limit = self.keys.limit
        out = {}
        get = out.get
        for k1, c1 in self.terms.items():
            room = limit - k1
            for k2, c2 in right:
                if k2 >= room:
                    break
                k = k1 + k2
                s = get(k)
                if s is None:
                    out[k] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return self._make(out, self.den * other.den)

    def scale(self, c) -> "MultiSeries":
        c = as_coeff(c, self.point)
        if not c:
            return self._make({})
        n, d = (c, 1) if self.point is None else (c.numerator, c.denominator)
        return self._make({k: v * n for k, v in self.terms.items()},
                          self.den * d)

    def add_term(self, mono, c):
        """Accumulate c * x^mono in place, mono an exponent tuple (trusted
        internal constructor)."""
        self.add_groups(((c, (self.keys.pack(mono),)),))

    def add_groups(self, groups):
        """Accumulate c * x^m in place for each (c, keys) of ``groups`` and
        each m of degree <= trunc among the packed ``keys`` (trusted
        internal constructor).

        A c all of whose monomials lie above the truncation is not turned
        into a coefficient.  At a point ``den`` becomes the lcm of its own
        and every value's denominator first, so that the sums are integer.
        """
        limit, point = self.keys.limit, self.point
        kept = []
        for c, keys in groups:
            keys = [k for k in keys if k < limit]
            if keys:
                kept.append((as_coeff(c, point), keys))
        if point is not None:
            den = lcm(self.den, *(c.denominator for c, _ in kept))
            self.terms, self.den = self._over(den), den
            kept = [(c.numerator * (den // c.denominator), keys)
                    for c, keys in kept]
        terms = self.terms
        for c, keys in kept:
            for k in keys:
                s = terms[k] + c if k in terms else c
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)

    def shift_monomial(self, shift: tuple[int, ...]) -> "MultiSeries":
        """Multiply by x^shift where shift may have negative entries.

        Every shifted monomial must come out nonnegative; used for the
        Laurent prefactors that are provably cleared by the series part.
        """
        keys, out = self.keys, {}
        for k, c in self.terms.items():
            mono = keys.unpack(k)
            new = tuple(map(add, mono, shift))
            if any(e < 0 for e in new):
                raise ValueError(f"monomial shift {shift} drives {mono} negative")
            k = keys.pack(new)
            if k < keys.limit:
                out[k] = c
        return self._make(out, self.den)

    def min_total_degree(self):
        """The least total degree of a term (the degree field of the least
        key), None for the zero series."""
        return min(self.terms) >> self.keys.shift if self.terms else None

    def truncated(self, new_trunc: int) -> "MultiSeries":
        """Copy with a different degree bound (dropping higher terms): the
        substitution of each variable by itself."""
        n = len(self.varset)
        return self.substitute([tuple(int(i == j) for j in range(n))
                                for i in range(n)], self.varset, new_trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono):
        c = None if min(mono, default=0) < 0 else self.terms.get(self.keys.pack(mono))
        return self._value(c) if c else as_coeff(0, self.point)

    def equals(self, other: "MultiSeries") -> bool:
        return series_equals(self, other)[0]

    def substitute(self, images, varset: VarSet, trunc: int) -> "MultiSeries":
        """This series with variable i replaced by the monomial ``images[i]``
        of ``varset`` (possibly the unit), truncated at ``trunc``."""
        assert len(images) == len(self.varset)
        res = MultiSeries(varset, trunc, self.point)
        image_keys = [res.keys.pack(image) for image in images]
        res.add_groups((c, (sum(map(mul, mono, image_keys)),))
                       for mono, c in self.monomials())
        return res


def f_product_terms(monos, varset: VarSet, trunc: int) -> list[tuple]:
    """The (counts, keys) groups of prod_m F(x^m) truncated at ``trunc``.

    F(x) = sum_k f(k; 0) x^k, so the product is a sum over multiplicity
    vectors (k_m) of prod f(k_m; 0) x^(sum k_m m).  One walk builds every
    vector of degree <= trunc, one monomial at a time, as a list of
    prefixes per level: each prefix carries its packed monomial key
    (``key_layout``) and a count key, a field per k holding how many
    monomials have multiplicity k.  Monomials of degree above the
    truncation contribute only k = 0 and are left out; the others go in by
    descending degree, so the early levels, whose monomials have the fewest
    multiplicities, stay short.  Vectors with equal count keys share one
    coefficient, a group; ``counts`` are its ((k, 0), c) pairs, as
    ``qtcore.f_product`` and ``EvalPoint.f_product`` take them.
    """
    layout = key_layout(len(varset), trunc)
    packed = []
    for m in monos:
        if any(e < 0 for e in m):
            raise ValueError("product_of_f needs nonnegative exponents")
        if sum(m) < 1:
            raise ValueError("product_of_f needs monomials of degree >= 1")
        if sum(m) <= trunc:
            packed.append(layout.pack(m))
    width, limit = len(packed).bit_length(), layout.limit
    level = [(0, 0)]  # (monomial key, count key) of each prefix
    for key in sorted(packed, reverse=True):  # the degree is the top field
        steps = [(k * key, 1 << k * width)
                 for k in range(1, trunc + 1) if k * key < limit]
        level += [(z + dz, c + dc) for z, c in level for dz, dc in steps
                  if z + dz < limit]
    groups = {}
    for z, c in level:
        groups.setdefault(c, []).append(z)
    mask = (1 << width) - 1
    return [(tuple(((k, 0), c >> k * width & mask) for k in range(1, trunc + 1)
                   if c >> k * width & mask), zs)
            for c, zs in groups.items()]


def f_product_coeff(counts, point: EvalPoint | None):
    """The coefficient prod f(n; m)^c of a (counts, keys) group: a
    QTFactored in exact mode, its Fraction value at a point."""
    if point is None:
        return f_product(counts)
    return Fraction(*point.f_product(counts))


def product_of_f(monos, varset: VarSet, trunc: int,
                 point: EvalPoint | None = None) -> MultiSeries:
    """prod_m F(x^m) truncated; the right-hand side shape of every hook
    formula.  F(x) = (tx; q)_inf / (x; q)_inf.  Each group of
    ``f_product_terms`` becomes a coefficient once and is added at each of
    its monomials."""
    out = MultiSeries(varset, trunc, point)
    out.add_groups((f_product_coeff(counts, point), keys)
                   for counts, keys in f_product_terms(monos, varset, trunc))
    return out


def series_equals(a: MultiSeries, b: MultiSeries):
    """Compare two series; on inequality report the lex-first differing monomial.

    Returns (equal, mismatch) where mismatch is None or a dict with the
    monomial and both coefficient strings.  At a point the numerators are
    compared across the two denominators, x * b.den == y * a.den (one dict
    comparison when the denominators agree).  Every monomial is compared;
    the report names the least exponent tuple among those that differ, since
    keys of different degrees do not sort like their tuples.
    """
    a._check_compatible(b)
    ta, tb = a.terms, b.terms
    if a.point is None:
        zero = QTCoeff.zero()

        def same(x, y):
            return x.equals(y)
    elif a.den == b.den and ta == tb:
        return True, None
    else:
        zero, da, db = 0, a.den, b.den

        def same(x, y):
            return x * db == y * da
    differ = [k for k in ta.keys() | tb.keys()
              if not same(ta.get(k, zero), tb.get(k, zero))]
    if not differ:
        return True, None
    mono = min(map(a.keys.unpack, differ))
    text = _coeff_text(a.point)
    return False, {
        "monomial": mono_str(mono, a.varset),
        "lhs": text(a.coefficient(mono)),
        "rhs": text(b.coefficient(mono)),
    }
