"""Truncated formal power series in named commuting variables.

Every coefficient is exact, a ``QTCoeff``: a factored content times an
integer polynomial, whose sums divide binomials back out
(``divide_binomial``).  ``as_coeff`` turns any input into one, and ``not c``
is the zero test.  Truncation is by total degree across all variables,
which matches the weight |pi| of a P-partition.  A series has no point:
the eval-mode hook check values weight groups, not series
(``hookformula.verify_okada``).

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
        c, den = self.content, self.den
        return _lift(self.rem, c, 1, -self.dq, -self.dt,
                     {k: -den.get(k, 0) for k in c.factors.keys() | den.keys()}
                     ).scale(c.coeff)

    def _den_poly(self) -> BiPoly:
        out = BiPoly.monomial(1, self.dq, self.dt)
        for (a, b), e in self.den.items():
            out = out * _binomial_power(a, b, e)
        return out

    def __add__(self, other: "QTCoeff") -> "QTCoeff":
        """Keep the content both sides share, add the two lifted remainders,
        and divide out each denominator binomial of it while that is exact.
        The shared scalar gcd(nums) / lcm(dens) makes each lift an integer
        multiple.  Equal display denominators and scalars are kept as they
        stand, and the new content is not validated again."""
        if not (self and other):
            return self or other
        den = self.den
        if den != other.den:
            den = {k: max(den.get(k, 0), other.den.get(k, 0))
                   for k in den.keys() | other.den.keys()}
        x, y = self.content, other.content
        xc, yc = x.coeff, y.coeff
        g = gcd(xc.numerator, yc.numerator)
        d = lcm(xc.denominator, yc.denominator)
        scalar = abs(xc) if xc == yc else Fraction(g, d)
        qexp, texp = min(x.qexp, y.qexp), min(x.texp, y.texp)
        common = {k: min(x.factors.get(k, 0), y.factors.get(k, 0))
                  for k in x.factors.keys() | y.factors.keys()}
        total = (_lift(self.rem, x, xc.numerator // g * (d // xc.denominator),
                       qexp, texp, common)
                 + _lift(other.rem, y, yc.numerator // g * (d // yc.denominator),
                         qexp, texp, common))
        for k, e in common.items():
            while e < 0 and total.terms:
                quotient = divide_binomial(total, *k)
                if quotient is None:
                    break
                total, e = quotient, e + 1
            common[k] = e
        content = QTFactored.__new__(QTFactored)
        content.coeff, content.qexp, content.texp = scalar, qexp, texp
        content.factors = {k: e for k, e in common.items() if e}
        return QTCoeff(content, total, max(self.dq, other.dq),
                       max(self.dt, other.dt), den)

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
        return same_value(self.content, self.rem, other.content, other.rem)

    def evaluate(self, point: EvalPoint) -> Fraction:
        """The value at ``point``: 0 for zero, else VanishingFactor wherever
        the content's ``QTFactored.evaluate`` raises it.  No check calls
        it: the tests value exact coefficients through it."""
        if not self:
            return Fraction(0)
        c = self.content
        return point.value(c.coeff * self.rem.evaluate(point.q0, point.t0),
                           c.qexp, c.texp, c.factors)

    def num_den_strings(self) -> tuple[str, str]:
        return str(self.num), str(self._den_poly())


def _lift(rem: BiPoly, f: QTFactored, c: int, qexp: int, texp: int,
          floor: dict) -> BiPoly:
    """rem * c * f / (f.coeff q^qexp t^texp prod (1 - q^a t^b)^floor[a, b]),
    expanded, for an integer rem, an int c != 0 and a floor that keys each
    factor of f and lies below none.  A single-term rem, the common case,
    shifts and scales the binomial product, and only a longer one is
    multiplied with it."""
    prod = None
    for k, e in floor.items():
        gap = f.factors.get(k, 0) - e
        if gap:
            power = _binomial_power(*k, gap)
            prod = power if prod is None else prod * power
    dq, dt = f.qexp - qexp, f.texp - texp
    if prod is not None and len(rem.terms) == 1:
        [((i, j), v)] = rem.terms.items()
        rem, prod, c, dq, dt = prod, None, c * v, dq + i, dt + j
    if c != 1 or dq or dt:
        shifted = BiPoly.__new__(BiPoly)
        shifted.terms = {(i + dq, j + dt): c * v for (i, j), v in rem.terms.items()}
        rem = shifted
    return rem if prod is None else rem * prod


def divide_binomial(p: BiPoly, a: int, b: int) -> BiPoly | None:
    """p / (1 - q^a t^b), p integral, when that division is exact, else None.

    The terms of p fall into chains m, m + (a, b), ...; a or b may be 0.
    Along a chain the quotient is the running sum of p's coefficients, so
    the division is exact when every chain sums to 0.  Lex order is chain
    order for every (a, b): one sorted pass carries each chain's sum to its
    next term, and a sum still nonzero past p's last exponent fails.
    O(n log n), no gcd."""
    terms = p.terms
    i, j = max(terms, default=(0, 0))  # top of its chain: most failures show there
    if sum(terms.get((i - s * a, j - s * b), 0)
           for s in range(min(i // a if a else j // b, j // b if b else i // a) + 1)):
        return None
    # a chain climbs in i, or in j when a = 0; no term of p lies past last
    last = i if a else max((j for _, j in terms), default=0)
    out, carried = {}, {}
    for m in sorted(terms):
        run = terms[m] + carried.pop(m, 0)
        i, j = m
        while run:
            out[i, j] = run
            i, j = i + a, j + b
            if (i, j) in terms:
                carried[i, j] = run
                break
            if (i if a else j) > last:
                return None
    quotient = BiPoly.__new__(BiPoly)
    quotient.terms = out
    return quotient


def as_coeff(c) -> QTCoeff:
    """``c`` as a series coefficient, a QTCoeff.  ``c`` is a QTFactored, a
    QTCoeff, an int or a Fraction; anything else is a TypeError."""
    if isinstance(c, QTFactored):
        return QTCoeff.from_qtf(c)
    if isinstance(c, QTCoeff):
        return c
    if isinstance(c, (int, Fraction)):
        return QTCoeff.from_qtf(QTFactored(c))
    raise TypeError(f"cannot turn {type(c).__name__} into a series coefficient")


def coeff_text(c) -> str:
    """The text of a coefficient in a mismatch report, "(num)/(den)"."""
    return "({})/({})".format(*c.num_den_strings())


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
    """Power series truncated at total degree D, with QTCoeff coefficients.

    The coefficient of x^m is ``terms[keys.pack(m)]``, ``keys`` being the
    ``key_layout`` of the variables and D; a zero coefficient is not stored.
    Compare through ``series_equals``: ``QTCoeff`` has no ``==``.
    """

    __slots__ = ("varset", "trunc", "terms", "keys")

    def __init__(self, varset: VarSet, trunc: int):
        """The zero series; ``add_term`` and ``add_groups`` fill it."""
        self.varset = varset
        self.trunc = trunc
        self.terms = {}
        self.keys = key_layout(len(varset), trunc)

    def _make(self, terms: dict) -> "MultiSeries":
        """A series like this one holding ``terms``."""
        res = MultiSeries.__new__(MultiSeries)
        res.varset, res.trunc, res.keys = self.varset, self.trunc, self.keys
        res.terms = terms
        return res

    def monomials(self):
        """The (exponent tuple, coefficient) pairs of the nonzero terms."""
        unpack = self.keys.unpack
        return ((unpack(k), c) for k, c in self.terms.items())

    @staticmethod
    def constant(c, varset: VarSet, trunc: int) -> "MultiSeries":
        s = MultiSeries(varset, trunc)
        s.add_groups(((c, (0,)),))  # 0 is the key of the unit monomial
        return s

    def _check_compatible(self, other: "MultiSeries"):
        if self.varset != other.varset:
            raise ValueError("variable set mismatch")
        if self.trunc != other.trunc:
            raise ValueError("truncation mismatch")

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compatible(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out[k] + c if k in out else c
            if s:
                out[k] = s
            else:
                del out[k]
        return self._make(out)

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
        return self._make(out)

    def scale(self, c) -> "MultiSeries":
        c = as_coeff(c)
        if not c:
            return self._make({})
        return self._make({k: v * c for k, v in self.terms.items()})

    def add_term(self, mono, c):
        """Accumulate c * x^mono in place, mono an exponent tuple (trusted
        internal constructor)."""
        self.add_groups(((c, (self.keys.pack(mono),)),))

    def add_groups(self, groups):
        """Accumulate c * x^m in place for each (c, keys) of ``groups`` and
        each m of degree <= trunc among the packed ``keys`` (trusted
        internal constructor).

        A c all of whose monomials lie above the truncation is not turned
        into a coefficient.
        """
        limit, terms = self.keys.limit, self.terms
        for c, keys in groups:
            keys = [k for k in keys if k < limit]
            if not keys:
                continue
            c = as_coeff(c)
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
        return self._make(out)

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
        return c if c else QTCoeff.zero()

    def equals(self, other: "MultiSeries") -> bool:
        return series_equals(self, other)[0]

    def substitute(self, images, varset: VarSet, trunc: int) -> "MultiSeries":
        """This series with variable i replaced by the monomial ``images[i]``
        of ``varset`` (possibly the unit), truncated at ``trunc``."""
        assert len(images) == len(self.varset)
        res = MultiSeries(varset, trunc)
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


def product_of_f(monos, varset: VarSet, trunc: int) -> MultiSeries:
    """prod_m F(x^m) truncated; the right-hand side shape of every hook
    formula.  F(x) = (tx; q)_inf / (x; q)_inf.  Each group of
    ``f_product_terms`` becomes a coefficient once and is added at each of
    its monomials."""
    out = MultiSeries(varset, trunc)
    out.add_groups((f_product(counts), keys)
                   for counts, keys in f_product_terms(monos, varset, trunc))
    return out


def series_equals(a: MultiSeries, b: MultiSeries):
    """Compare two series; on inequality report the lex-first differing monomial.

    Returns (equal, mismatch) where mismatch is None or a dict with the
    monomial and both ``coeff_text`` strings.  Every monomial is compared;
    the report names the least exponent tuple among those that differ, since
    keys of different degrees do not sort like their tuples.
    """
    a._check_compatible(b)
    ta, tb = a.terms, b.terms
    zero = QTCoeff.zero()
    differ = [k for k in ta.keys() | tb.keys()
              if not ta.get(k, zero).equals(tb.get(k, zero))]
    if not differ:
        return True, None
    mono = min(map(a.keys.unpack, differ))
    return False, {
        "monomial": mono_str(mono, a.varset),
        "lhs": coeff_text(a.coefficient(mono)),
        "rhs": coeff_text(b.coefficient(mono)),
    }
