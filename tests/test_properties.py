"""Hypothesis property tests for the arithmetic core."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qthook.partitions import Partition, is_horizontal_strip
from qthook.qtcore import BiPoly, QTFactored, cancelled_ratio, sample_points
from qthook.polyops import divexact_bipoly, gcd_bipoly
from qthook.series import NO_TRUNC, divide_binomial, key_layout

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
