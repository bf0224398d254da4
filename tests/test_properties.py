"""Hypothesis property tests for the arithmetic core."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qthook.partitions import Partition, is_horizontal_strip
from qthook.qtcore import (
    BiPoly,
    QTFactored,
    _binomial_power,
    _times,
    cancelled_ratio,
    sample_points,
)
from qthook.polyops import divexact_bipoly, gcd_bipoly
from qthook.series import NO_TRUNC, QTCoeff, divide_binomial, key_layout

partitions = st.lists(st.integers(1, 6), max_size=5).map(
    lambda xs: Partition(sorted(xs, reverse=True)))


@given(partitions)
def test_conjugate_is_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().weight() == lam.weight()
    assert lam.odd_columns() == lam.conjugate().odd_rows()


@given(partitions)
def test_parse_round_trip(lam):
    assert Partition.parse(str(lam)) == lam


@given(partitions, partitions)
def test_horizontal_strip_symmetry(lam, mu):
    if is_horizontal_strip(lam, mu):
        assert lam.contains(mu)
        conj_l, conj_m = lam.conjugate(), mu.conjugate()
        for c in range(1, lam[1] + 1):
            assert conj_l[c] - conj_m[c] <= 1  # one cell per column


coeffs = st.fractions(min_value=-4, max_value=4).filter(lambda c: c != 0)
factor_keys = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
    lambda ab: ab != (0, 0))
qtf = st.builds(
    QTFactored,
    coeffs,
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.dictionaries(factor_keys, st.integers(-2, 2), max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(qtf, qtf)
def test_mul_div_round_trip(x, y):
    prod = x * y
    assert (prod / y).equals(x)
    assert (prod / x).equals(y)


@settings(max_examples=60, deadline=None)
@given(qtf)
def test_num_den_consistency(x):
    num, den = cancelled_ratio(x.qexp, x.texp, x.factors, 0, 0, {})
    num = num.scale(x.coeff)
    pts = sample_points(2, seed=1)
    for pt in pts:
        lhs = num.evaluate(pt.q0, pt.t0)
        rhs = x.evaluate(pt) * den.evaluate(pt.q0, pt.t0)
        assert lhs == rhs


polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-3, max_value=3),
    min_size=1, max_size=5,
).map(BiPoly)


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_gcd_divides_both(p, q):
    g = gcd_bipoly(p, q)
    if g.is_zero():
        assert p.is_zero() and q.is_zero()
        return
    if not p.is_zero():
        assert (divexact_bipoly(p, g) * g) == p
    if not q.is_zero():
        assert (divexact_bipoly(q, g) * g) == q


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
# the heuristic bivariate gcd fails on this one, so the primitive PRS runs
@example(BiPoly({(2, 0): -2}), BiPoly({(1, 4): Fraction(-1, 2), (4, 0): -1}),
         BiPoly({(2, 3): -1, (0, 0): Fraction(-2, 3), (1, 3): 3}))
def test_gcd_of_common_multiple(p, q, r):
    if r.is_zero():
        return
    g = gcd_bipoly(p * r, q * r)
    # r divides the gcd of (pr, qr)
    if not (p.is_zero() and q.is_zero()):
        assert (divexact_bipoly(g, r) * r) == g


int_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(-5, 5), max_size=8,
).map(BiPoly)
binomial_keys = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda ab: ab != (0, 0))


@settings(max_examples=150, deadline=None)
@given(int_polys, binomial_keys,
       st.tuples(st.integers(0, 9), st.integers(0, 9)),
       st.integers(-5, 5).filter(lambda c: c != 0))
def test_divide_binomial_undoes_the_product(p, ab, mono, c):
    b = BiPoly({(0, 0): 1, ab: -1})
    assert divide_binomial(p * b, *ab) == p
    # a monomial never vanishes where 1 - q^a t^b does, so this cannot divide
    assert divide_binomial(p * b + BiPoly.monomial(c, *mono), *ab) is None


def test_divide_binomial_with_a_zero_exponent():
    p = BiPoly({(0, 0): 3, (1, 2): -1, (4, 0): 7})
    for ab in ((0, 1), (0, 3), (1, 0), (2, 0)):
        b = BiPoly({(0, 0): 1, ab: -1})
        assert divide_binomial(p * b, *ab) == p
        assert divide_binomial(p * b * b, *ab) == p * b
        assert divide_binomial(p, *ab) is None


@st.composite
def exponents(draw, n, trunc):
    """A nonnegative exponent vector of length n and degree <= trunc."""
    left, out = trunc, []
    for _ in range(n):
        out.append(draw(st.integers(0, min(left, 2 * trunc // n + 1))))
        left -= out[-1]
    return tuple(draw(st.permutations(out)))


@st.composite
def layout_cases(draw):
    n = draw(st.integers(1, 6))
    trunc = draw(st.one_of(st.integers(0, 17), st.just(NO_TRUNC)))
    a, b = draw(exponents(n, trunc)), draw(exponents(n, trunc))
    return key_layout(n, trunc), trunc, a, b, tuple(draw(st.permutations(a)))


@settings(max_examples=300, deadline=None)
@given(layout_cases())
def test_monomial_keys_pack_add_truncate_and_sort(case):
    keys, trunc, a, b, a_perm = case
    ka, kb = keys.pack(a), keys.pack(b)
    assert keys.unpack(ka) == a and keys.unpack(kb) == b
    assert ka < keys.limit and ka >> keys.shift == sum(a)
    if sum(a) + sum(b) <= trunc:
        assert ka + kb == keys.pack(tuple(x + y for x, y in zip(a, b)))
        assert keys.unpack(ka + kb) == tuple(x + y for x, y in zip(a, b))
    else:
        assert ka + kb >= keys.limit
    # one degree: the keys sort like their exponent tuples
    assert (ka < keys.pack(a_perm)) == (a < a_perm)


# ``QTCoeff.__add__`` as it was before its fast paths: every lift a product
# (``_reference_lift``) and the division by chains grouped and sorted one by
# one (``_reference_divide``).  The kernel must give the same factored form.

def _reference_lift(rem, f, scalar, qexp, texp, floor):
    p = BiPoly.monomial(f.coeff / scalar, f.qexp - qexp, f.texp - texp)
    for k in f.factors.keys() | floor.keys():
        gap = f.factors.get(k, 0) - floor.get(k, 0)
        if gap:
            p = p * _binomial_power(*k, gap)
    return _times(rem, p)


def _reference_divide(p, a, b):
    terms = p.terms
    i, j = max(terms, default=(0, 0))
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


def _reference_add(x, y):
    """The parts (content, rem, dq, dt, den) of x + y, both nonzero."""
    den = {k: max(x.den.get(k, 0), y.den.get(k, 0))
           for k in x.den.keys() | y.den.keys()}
    fx, fy = x.content, y.content
    scalar = Fraction(gcd(fx.coeff.numerator, fy.coeff.numerator),
                      lcm(fx.coeff.denominator, fy.coeff.denominator))
    qexp, texp = min(fx.qexp, fy.qexp), min(fx.texp, fy.texp)
    common = {k: min(fx.factors.get(k, 0), fy.factors.get(k, 0))
              for k in fx.factors.keys() | fy.factors.keys()}
    total = (_reference_lift(x.rem, fx, scalar, qexp, texp, common)
             + _reference_lift(y.rem, fy, scalar, qexp, texp, common))
    for k, e in common.items():
        while e < 0 and total.terms:
            quotient = _reference_divide(total, *k)
            if quotient is None:
                break
            total, e = quotient, e + 1
        common[k] = e
    return (QTFactored(scalar, qexp, texp, common), total,
            max(x.dq, y.dq), max(x.dt, y.dt), den)


def _parts(c: QTCoeff):
    f = c.content
    return ((f.coeff, f.qexp, f.texp, dict(f.factors)), dict(c.rem.terms),
            c.dq, c.dt, dict(c.den))


shared_keys = st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
few_scalars = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                               Fraction(1, 2), Fraction(-3, 2)])
remainders = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-3, 3).filter(bool), min_size=1, max_size=4).map(BiPoly)


@st.composite
def qtcoeffs(draw):
    """A nonzero QTCoeff with a content over a few shared binomials and a
    display denominator at least the content's."""
    content = QTFactored(draw(few_scalars), draw(st.integers(-1, 2)),
                         draw(st.integers(-1, 2)),
                         draw(st.dictionaries(shared_keys, st.integers(-2, 2),
                                              max_size=3)))
    den = {k: -e for k, e in content.factors.items() if e < 0}
    for k, e in draw(st.dictionaries(shared_keys, st.integers(1, 2),
                                     max_size=1)).items():
        den[k] = max(den.get(k, 0), e)
    return QTCoeff(content, draw(remainders), max(-content.qexp, 0),
                   max(-content.texp, 0), den)


@st.composite
def summands(draw):
    """Two nonzero QTCoeffs: drawn apart, sharing a content, or y = -c q^a
    t^b x, so that x + y = x (1 - q^a t^b) when c = 1 and a shared
    denominator binomial divides out."""
    x = draw(qtcoeffs())
    how = draw(st.sampled_from(["apart", "same content", "shifted"]))
    if how == "apart":
        return x, draw(qtcoeffs())
    if how == "same content":
        return x, QTCoeff(x.content, draw(remainders), x.dq, x.dt, x.den)
    a, b = draw(shared_keys)
    c = draw(st.sampled_from([1, 1, -2]))
    return x, x * QTCoeff.from_qtf(QTFactored(-c, a, b))


@settings(max_examples=300, deadline=None)
@given(summands())
def test_qtcoeff_sum_keeps_the_reference_form(pair):
    x, y = pair
    assert _parts(x + y) == _parts(QTCoeff(*_reference_add(x, y)))


@settings(max_examples=200, deadline=None)
@given(int_polys, binomial_keys, int_polys)
def test_divide_binomial_matches_the_reference(p, ab, r):
    b = BiPoly({(0, 0): 1, ab: -1})
    for poly in (p, p * b, p * b * b + r, p * b + r * b * b):
        got, want = divide_binomial(poly, *ab), _reference_divide(poly, *ab)
        assert (got is None) == (want is None), (poly, ab)
        assert got is None or got.terms == want.terms, (poly, ab)
