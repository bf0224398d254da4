import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthook import qtcore
from qthook.partitions import Partition, partitions_up_to, is_horizontal_strip
from qthook.qtcore import (
    BI_ONE,
    BiPoly,
    EvalPoint,
    QTFactored,
    VanishingFactor,
    _binomial_poly,
    _binomial_power,
    _times,
    b_el,
    b_lambda,
    b_lambda_f_form,
    b_cell,
    cancelled_ratio,
    f_fun,
    f_product,
    phi_skew,
    psi_skew,
    resample_point,
    resampled,
    same_value,
    sample_points,
)
from qthook.series import QTCoeff, VarSet, product_of_f

P = Partition


def qtf(coeff=1, q=0, t=0, **kw):
    return QTFactored(coeff, q, t, kw.get("factors"))


def test_f_fun_base_cases():
    assert f_fun(0, 3).equals(QTFactored.one())
    assert f_fun(-2, 1).is_zero()
    # f(1, 0) = (1-t)/(1-q), forced by b_{(1)} agreeing with the arm/leg form
    expected = QTFactored.binomial(0, 1) * QTFactored.binomial(1, 0, -1)
    assert f_fun(1, 0).equals(expected)


def test_cached_f_fun_cannot_be_changed_by_a_caller():
    with pytest.raises(TypeError):
        f_fun(2, 0).factors[(7, 7)] = 1
    # (t; q)_2 / (q; q)_2, as before the attempt
    assert f_fun(2, 0).factors == {(0, 1): 1, (1, 0): -1, (1, 1): 1, (2, 0): -1}


def test_f_fun_recurrence():
    # f(n, m) = f(n-1, m) * (1 - t^(m+1) q^(n-1)) / (1 - t^m q^n)
    for n in range(1, 9):
        for m in range(0, 5):
            rhs = (f_fun(n - 1, m)
                   * QTFactored.binomial(n - 1, m + 1)
                   * QTFactored.binomial(n, m, -1))
            assert f_fun(n, m).equals(rhs)


def test_f_series_coeffs():
    # the degree-k coefficients of F(x) = (tx; q)_inf / (x; q)_inf
    x = VarSet(["x"])
    coeffs = dict(product_of_f([(1,)], x, 2).monomials())
    assert len(coeffs) == 3
    assert coeffs[0,].equals(QTCoeff.one())
    assert coeffs[1,].equals(QTCoeff.from_qtf(f_fun(1, 0)))
    # (t;q)_2 / (q;q)_2 expanded
    expected = (QTFactored.binomial(0, 1) * QTFactored.binomial(1, 1)
                * QTFactored.binomial(1, 0, -1) * QTFactored.binomial(2, 0, -1))
    assert coeffs[2,].equals(QTCoeff.from_qtf(expected))


def test_b_lambda_small():
    assert b_lambda(P()).equals(QTFactored.one())
    assert b_lambda(P([1])).equals(f_fun(1, 0))
    # explicit 3-cell product for (2,1)
    expected = (QTFactored.binomial(1, 2) * QTFactored.binomial(2, 1, -1)
                * QTFactored.binomial(0, 1, 2) * QTFactored.binomial(1, 0, -2))
    assert b_lambda(P([2, 1])).equals(expected)


def b_el_f_form(lam: Partition) -> QTFactored:
    """b^el as the f-ratio product restricted to even gaps."""
    return qtcore._b_f_form(lam, 2)


def test_b_forms_agree_weight_up_to_6():
    for lam in partitions_up_to(6):
        assert b_lambda(lam).equals(b_lambda_f_form(lam)), lam
        assert b_el(lam).equals(b_el_f_form(lam)), lam


def test_leg_parity_partition_is_exhaustive():
    for lam in partitions_up_to(6):
        odd = QTFactored.one()
        for (i, j) in lam.cells():
            if lam.leg(i, j) % 2 == 1:
                odd = odd * b_cell(lam, i, j)
        assert b_lambda(lam).equals(b_el(lam) * odd), lam


def test_b_el_single_row_equals_b():
    for k in range(1, 6):
        assert b_el(P([k])).equals(b_lambda(P([k])))


def test_b_el_one_one():
    assert b_el(P([1, 1])).equals(f_fun(1, 0))


def test_psi_diagonal_is_one():
    for lam in partitions_up_to(4):
        assert psi_skew(lam, lam).equals(QTFactored.one()), lam


def test_phi_single_box():
    assert phi_skew(P([1]), P()).equals(b_lambda(P([1])))


def test_non_strip_is_zero():
    assert phi_skew(P([1]), P([2])).is_zero()
    assert psi_skew(P([3, 3]), P([1])).is_zero()  # two cells in one column


def test_phi_psi_ratio_is_b_ratio():
    # phi/psi = b(lam)/b(mu) on horizontal strips, |lam| <= 5
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(lam.weight()):
            if not (lam.contains(mu) and is_horizontal_strip(lam, mu)):
                continue
            lhs = phi_skew(lam, mu) * b_lambda(mu)
            rhs = psi_skew(lam, mu) * b_lambda(lam)
            assert lhs.equals(rhs), (lam, mu)


def test_qt_equals_trivial_cases():
    assert f_fun(0, 5).equals(QTFactored.one())
    # (1-q^2)/(1-q) == 1 + q via cross-multiplication
    lhs = QTFactored.binomial(2, 0) * QTFactored.binomial(1, 0, -1)
    ln, ld = cancelled_ratio(lhs.qexp, lhs.texp, lhs.factors, 0, 0, {})
    rhs = BiPoly({(0, 0): Fraction(1), (1, 0): Fraction(1)})
    assert ln == rhs * ld


def test_b_lambda_two_formula_example():
    lam = P([2, 1])
    assert b_lambda(lam).equals(b_lambda_f_form(lam))


def test_qt_equals_eval_agrees_with_exact():
    # the one-sided property the hook check rests on: equal values agree at
    # every point, and unequal ones differ at one of five rational points
    rng = random.Random(42)
    pts = sample_points(5, seed=7)
    for trial in range(100):
        f1 = _random_qtf(rng)
        f2 = _random_qtf(rng)
        pair_equal = rng.random() < 0.5
        if pair_equal:
            # same value, rearranged factored form: multiply and divide junk
            junk = _random_qtf(rng)
            while junk.is_zero():
                junk = _random_qtf(rng)
            g = f1 * junk / junk
        else:
            g = f2
        exact = f1.equals(g)
        ev = all(same for _, same in resampled(
            pts, trial, lambda pt: f1.evaluate(pt) == g.evaluate(pt)))
        if exact:
            assert ev
        else:
            assert not ev  # 5 rational points make a false match implausible


def test_qt_equals_on_qtcoeff_values():
    f10 = QTCoeff.from_qtf(f_fun(1, 0))
    twice = f10 + f10
    assert twice.equals(QTCoeff.from_qtf(f_fun(1, 0).scale(2)))
    other = QTCoeff.from_qtf(f_fun(1, 1))
    assert not f10.equals(other)
    for pt in sample_points(3, seed=5):
        assert twice.evaluate(pt) == 2 * f10.evaluate(pt)


def _random_qtf(rng):
    if rng.random() < 0.05:
        return QTFactored.zero()
    coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    if coeff == 0:
        coeff = 1
    factors = {}
    for _ in range(rng.randint(0, 4)):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if (a, b) == (0, 0):
            continue
        factors[(a, b)] = rng.randint(-2, 2)
    return QTFactored(coeff, rng.randint(-2, 2), rng.randint(-2, 2), factors)


def test_eval_resamples_a_vanishing_point():
    # (1 - q^2 t) vanishes at (2, 1/4), so that point has to be replaced
    x = QTFactored.binomial(2, 1)
    vanishing = EvalPoint(2, Fraction(1, 4))
    [(pt, value)] = resampled([vanishing], 0, x.evaluate)
    assert pt == resample_point(0, 0, 1) != vanishing
    assert value == x.evaluate(pt) != QTFactored.binomial(1, 1).evaluate(pt)


def test_resample_seeds_are_distinct_per_seed_index_attempt():
    # (seed, idx) = (0, 1) and (1, 0) have equal sums but own generators
    assert resample_point(0, 1, 1) != resample_point(1, 0, 1)
    assert resample_point(0, 0, 1) != resample_point(-1, 0, 1)
    assert resample_point(3, 2, 1) == resample_point(3, 2, 1)


def test_eval_point_validation():
    with pytest.raises(ValueError):
        EvalPoint(1, 2)
    with pytest.raises(ValueError):
        EvalPoint(Fraction(1, 2), 0)
    pts = sample_points(10, seed=3)
    assert pts == sample_points(10, seed=3)  # deterministic
    for p in pts:
        assert p.q0 not in (0, 1, -1) and p.t0 not in (0, 1, -1)


def test_partition_basics():
    lam = P([4, 3, 1])
    assert lam.length() == 3 and lam.weight() == 8
    assert lam.conjugate() == P([3, 2, 2, 1])
    assert lam.conjugate().conjugate() == lam
    assert lam.odd_rows() == 2
    assert lam.odd_columns() == P([3, 2, 2, 1]).odd_rows()
    assert Partition.parse("4,3,1") == lam
    assert Partition.parse("") == P()
    assert str(lam) == "4,3,1"
    assert lam[1] == 4 and lam[5] == 0


# -- the sparse product against a schoolbook reference ----------------------

def schoolbook_mul(x: BiPoly, y: BiPoly) -> BiPoly:
    out = {}
    for (a1, b1), c1 in x.terms.items():
        for (a2, b2), c2 in y.terms.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + c1 * c2
    return BiPoly(out)


def assert_canonical(p: BiPoly):
    # an int when integral, otherwise a Fraction that is not; never 0 or a float
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


PRODUCT_POINT = (Fraction(2, 3), Fraction(-5, 7))


def assert_product_ok(x: BiPoly, y: BiPoly):
    prod = x * y
    assert prod == schoolbook_mul(x, y)
    assert_canonical(prod)
    assert prod.evaluate(*PRODUCT_POINT) == \
        x.evaluate(*PRODUCT_POINT) * y.evaluate(*PRODUCT_POINT)


kernel_coeffs = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-2 ** 130, 2 ** 130).map(Fraction),
    st.builds(lambda e, s: s * (2 ** e - 1),
              st.integers(1, 90), st.sampled_from((-1, 1))),
)
kernel_polys = st.builds(
    lambda qoff, toff, terms: BiPoly(
        {(a + qoff, b + toff): c for (a, b), c in terms.items()}),
    st.integers(0, 7), st.integers(0, 7),
    st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    kernel_coeffs, max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(kernel_polys, kernel_polys)
def test_product_matches_schoolbook(x, y):
    assert_canonical(x)
    assert_product_ok(x, y)
    assert_product_ok(y, x)
    assert_canonical(x + y)
    assert_canonical(x.scale(Fraction(-3, 2)))


def test_product_edge_operands():
    x = BiPoly({(0, 0): Fraction(-3, 4), (2, 1): Fraction(5), (1, 3): Fraction(-1, 6)})
    assert (x * BiPoly()).is_zero() and (BiPoly() * x).is_zero()
    assert (BiPoly() * BiPoly()).is_zero()
    mono = BiPoly.monomial(Fraction(-2, 3), 4, 7)
    assert_product_ok(x, mono)
    assert_product_ok(mono, mono)
    assert (mono * mono).terms == {(8, 14): Fraction(4, 9)}
    # both operands start away from q^0 t^0
    shifted = BiPoly({(5, 3): Fraction(1), (6, 9): Fraction(-7, 2), (9, 4): Fraction(2)})
    assert_product_ok(shifted, x * BiPoly.monomial(1, 3, 2))
    # cancellation down to a sparse product: (1 - q t^2)(1 + q t^2) = 1 - q^2 t^4
    assert (BiPoly({(0, 0): Fraction(1), (1, 2): Fraction(-1)})
            * BiPoly({(0, 0): Fraction(1), (1, 2): Fraction(1)})).terms == {
                (0, 0): Fraction(1), (2, 4): Fraction(-1)}
    # fractions whose product or sum is integral come out as ints
    half = BiPoly.monomial(Fraction(1, 2), 1, 0)
    assert (half * BiPoly.const(Fraction(4))).terms == {(1, 0): 2}
    assert type((half * half.scale(2)).terms[(2, 0)]) is Fraction
    assert type((half + half).terms[(1, 0)]) is int
    assert type(half.scale(Fraction(6)).terms[(1, 0)]) is int


def test_bipoly_rejects_float_coefficients():
    for make in (lambda: BiPoly.const(0.5), lambda: BiPoly.const(0.0),
                 lambda: BiPoly.monomial(1.0, 1, 2),
                 lambda: BiPoly({(0, 0): 2.5}),
                 lambda: BiPoly.const(1).scale(0.5)):
        with pytest.raises(TypeError):
            make()


@pytest.mark.parametrize("nbytes", [1, 2, 3, 8, 9, 16, 17])
def test_kronecker_product_on_slot_width_boundaries(nbytes):
    # big-integer magnitudes around 2^(8n-1), where a product held in
    # n-byte slots would need one more byte; the term loop must be exact
    # on both sides of each
    top = 2 ** (8 * nbytes - 1)
    for c in (top - 1, top, top + 1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                x = BiPoly.monomial(s1 * c, 1, 2)
                y = BiPoly.monomial(s2, 3, 0)
                assert (x * y).terms == {(4, 2): s1 * s2 * c}
    # many terms whose sums reach the bound from neighbouring degrees
    c = (top - 1) // 4
    for signs in ((1, 1, 1, 1), (1, -1, 1, -1), (-1, -1, -1, -1)):
        x = BiPoly({(i, 0): Fraction(s * c) for i, s in enumerate(signs)})
        y = BiPoly({(i, 0): Fraction(s) for i, s in enumerate(signs)})
        assert_product_ok(x, y)
        assert_product_ok(x, x)
        q2, t = BiPoly.monomial(1, 2, 0), BiPoly.monomial(1, 0, 1)
        assert_product_ok(x * t + x, y * q2 + y * t)


# -- cancelling shared factors before an exact comparison -------------------

def test_cancelled_ratio_keeps_only_the_exponent_differences():
    # q^3 t (1-qt)^2 / (1-q)  over  q t^2 (1-qt)^3  is  q^2 / (t (1-qt) (1-q))
    u, v = cancelled_ratio(3, 1, {(1, 1): 2, (1, 0): -1},
                           1, 2, {(1, 1): 3})
    assert u == BiPoly.monomial(1, 2, 0)
    assert v == (BiPoly.monomial(1, 0, 1) * BiPoly({(0, 0): Fraction(1), (1, 1): Fraction(-1)})
                 * BiPoly({(0, 0): Fraction(1), (1, 0): Fraction(-1)}))
    one, also_one = cancelled_ratio(2, 2, {(2, 3): 4}, 2, 2, {(2, 3): 4})
    assert one == also_one == BiPoly.const(1)


def test_qt_equals_cancels_common_factors():
    c = QTFactored(Fraction(3, 2), 3, -2, {(1, 2): 4, (3, 0): -2, (2, 0): 1})
    x = QTFactored(Fraction(-2, 7), 1, 0, {(1, 1): 2, (3, 0): 1, (0, 2): -3})
    # x * c assembled in another order, through a factor that cancels again
    junk = QTFactored(5, -1, 2, {(1, 2): -1, (4, 4): 3})
    y = (c * junk) * (x / junk)
    assert (x * c).equals(y) and y.equals(x * c)
    assert (x * c * QTFactored(1, 2, 1)).equals(QTFactored(1, 2, 1) * y)
    # one exponent off, on either side, is a different function
    off = QTFactored.binomial(1, 2)
    assert not (x * c * off).equals(y)
    assert not (x * c).equals(y * off.inverse())
    assert not (x * c).equals(y * QTFactored.binomial(3, 0, -1))
    assert not (x * c).equals(y.scale(-1))
    assert not (x * c).equals(y * QTFactored(1, 1, 0))
    # (1 - q^2) / (1 - q) is 1 + q, next to shared factors
    plus = QTFactored.binomial(2, 0) * QTFactored.binomial(1, 0, -1)
    u, v = cancelled_ratio(0, 0, (plus * c).factors, 0, 0, c.factors)
    assert u == BiPoly({(0, 0): Fraction(1), (1, 0): Fraction(1)}) * v
    # zero on one side or both
    assert QTFactored.zero().equals(QTFactored.zero())
    assert not (x * c).equals(QTFactored.zero())
    assert not QTFactored.zero().equals(c)


def _binom(a, b, e=1):
    out = BiPoly.const(1)
    for _ in range(e):
        out = out * BiPoly({(0, 0): Fraction(1), (a, b): Fraction(-1)})
    return out


def _over(num, dq, dt, den):
    """num / (q^dq t^dt prod (1 - q^a t^b)^den[a, b]) as a QTCoeff: the
    monomials of num summed, times the inverse denominator."""
    total = QTCoeff.zero()
    for (a, b), c in num.terms.items():
        total = total + QTCoeff.from_qtf(QTFactored(c, a, b))
    return total * QTCoeff.from_qtf(
        QTFactored(1, -dq, -dt, {k: -e for k, e in den.items()}))


def test_qtcoeff_equals_cancels_shared_denominators():
    num = BiPoly({(0, 0): Fraction(2), (1, 3): Fraction(-5, 3), (4, 1): Fraction(1)})
    den = {(1, 1): 3, (2, 0): 1, (0, 3): 2}
    x = _over(num, 2, 1, den)
    # the same value with a q t^2 (1 - q^2)(1 - t^5)^2 more on top and below
    y = _over(num * BiPoly.monomial(1, 1, 2) * _binom(2, 0) * _binom(0, 5, 2),
              3, 3, {(1, 1): 3, (2, 0): 2, (0, 3): 2, (0, 5): 2})
    assert x.equals(y) and y.equals(x)
    # one denominator exponent off by one
    for key in den:
        bumped = dict(den)
        bumped[key] += 1
        z = _over(num, 2, 1, bumped)
        assert not x.equals(z) and not z.equals(x)
    assert not x.equals(_over(num, 3, 1, den))
    assert not x.equals(_over(num, 2, 0, den))
    # zero sides, including a zero remainder under a nontrivial content
    zero = x - x
    assert zero.content.factors and zero.den
    assert zero.equals(QTCoeff.zero()) and QTCoeff.zero().equals(zero)
    assert not x.equals(zero) and not zero.equals(x)


def test_qtcoeff_equals_matches_qt_equals():
    rng = random.Random(5)
    for _ in range(60):
        f1, f2 = _random_qtf(rng), _random_qtf(rng)
        c = _random_qtf(rng)
        assert QTCoeff.from_qtf(f1 * c).equals(QTCoeff.from_qtf(f2 * c)) == \
            (f1 * c).equals(f2 * c)
        assert QTCoeff.from_qtf(f1 * c).equals(QTCoeff.from_qtf(c * f1))


# -- identical factored forms are decided before anything is expanded -------

def expanded_same_value(x, rx, y, ry):
    """The oracle: same_value without the identical-form test, always
    cancelling and expanding."""
    x_zero, y_zero = not (x.coeff and rx.terms), not (y.coeff and ry.terms)
    if x_zero or y_zero:
        return x_zero and y_zero
    u, v = cancelled_ratio(x.qexp, x.texp, x.factors, y.qexp, y.texp, y.factors)
    left, right = _times(rx, u), _times(ry, v)
    sx = x.coeff.numerator * y.coeff.denominator
    sy = y.coeff.numerator * x.coeff.denominator
    if sx != sy:
        left, right = left.scale(sx), right.scale(sy)
    return left == right


def _form(coeff=Fraction(-3, 2), qexp=2, texp=-1, f=((2, 1, 1), (1, 0, -1))):
    """coeff q^qexp t^texp times f(n; m)^s for each (n, m, s) of f, built
    afresh on every call."""
    out = QTFactored(coeff, qexp, texp)
    for n, m, s in f:
        out = out * (f_fun(n, m) if s > 0 else f_fun(n, m).inverse())
    return out


def _rem(terms=((0, 0, 2), (1, 2, -1))):
    return BiPoly({(a, b): c for a, b, c in terms})


def test_identical_forms_are_equal_without_expanding(monkeypatch):
    def expand(*args):
        raise AssertionError("identical forms were expanded")

    monkeypatch.setattr(qtcore, "cancelled_ratio", expand)
    x, y = _form(), _form()
    assert x is not y and x.factors is not y.factors
    assert same_value(x, _rem(), y, _rem())
    assert x.equals(y) and f_fun(3, 2).equals(f_fun(3, 2))
    a = QTCoeff.from_qtf(_form()) + QTCoeff.from_qtf(_form(qexp=3))
    b = QTCoeff.from_qtf(_form()) + QTCoeff.from_qtf(_form(qexp=3))
    assert a.rem.terms != BI_ONE.terms and a.equals(b)
    with pytest.raises(AssertionError, match="expanded"):
        _form().equals(_form(qexp=3))


@pytest.mark.parametrize("other, rem", [
    (_form(coeff=Fraction(3, 2)), _rem()),
    (_form(qexp=1), _rem()),
    (_form(texp=0), _rem()),
    (_form(f=((2, 1, 1), (1, 0, -1), (1, 0, -1))), _rem()),
    (_form(f=((2, 1, 1),)), _rem()),
    (_form(), _rem(((0, 0, 2), (1, 2, 1)))),
    (_form(), _rem(((0, 0, 2),))),
], ids=["coeff", "qexp", "texp", "factor-exponent", "factor-dropped",
        "rem-coeff", "rem-term"])
def test_forms_one_part_apart_are_unequal(other, rem):
    assert not same_value(_form(), _rem(), other, rem)
    assert not same_value(other, rem, _form(), _rem())
    assert not expanded_same_value(_form(), _rem(), other, rem)


def test_one_value_in_two_forms_is_equal_through_the_expansion():
    # (1 - q^2) * 1  against  (1 - q) * (1 + q)
    x = QTFactored.binomial(2, 0)
    y = QTFactored.binomial(1, 0)
    one_plus_q = BiPoly({(0, 0): 1, (1, 0): 1})
    assert same_value(x, BI_ONE, y, one_plus_q)
    assert same_value(y, one_plus_q, x, BI_ONE)
    assert not same_value(x, BI_ONE, y, BiPoly({(0, 0): 1, (1, 0): -1}))


f_args = st.tuples(st.integers(0, 3), st.integers(0, 2), st.sampled_from([1, -1]))
forms = st.tuples(
    st.fractions(-4, 4, max_denominator=4), st.integers(-2, 2), st.integers(-2, 2),
    st.lists(f_args, max_size=3).map(tuple))
rems = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
                max_size=3).map(tuple)


@settings(max_examples=300, deadline=None)
@given(forms, rems, forms, rems,
       st.sampled_from(["drawn", "identical", "moved", "one part drawn"]),
       st.integers(0, 4),
       st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda ab: ab != (0, 0)))
def test_same_value_agrees_with_expanding(xs, xr, ys, yr, how, part, moved):
    """Independent draws; the same draw built twice; the same value with
    one (1 - q^a t^b) moved from the content into the remainder; and the
    same draw with one part (coeff, qexp, texp, f-product or remainder)
    drawn anew."""
    if how == "one part drawn" and part == 4:
        ys = xs
    elif how == "one part drawn":
        ys, yr = xs[:part] + ys[part:part + 1] + xs[part + 1:], xr
    elif how != "drawn":
        ys, yr = xs, xr
    x, rx = _form(*xs), _rem(xr)
    y, ry = _form(*ys), _rem(yr)
    if how == "moved":
        y, ry = y * QTFactored.binomial(*moved, -1), ry * _binomial_poly(*moved)
    got = same_value(x, rx, y, ry)
    assert got == expanded_same_value(x, rx, y, ry)
    assert got == same_value(y, ry, x, rx)
    if how in ("identical", "moved"):
        assert got


# -- one-division point evaluation against the plain Fraction product --------

def plain_value(x: QTFactored, pt: EvalPoint) -> Fraction:
    """The reference: a Fraction product, one factor at a time."""
    if x.coeff == 0:
        return Fraction(0)
    val = x.coeff * pt.q0 ** x.qexp * pt.t0 ** x.texp
    for (a, b), e in x.factors.items():
        val *= (1 - pt.q0 ** a * pt.t0 ** b) ** e
    return val


EVAL_POINTS = sample_points(4, seed=9) + [
    EvalPoint(Fraction(-2, 3), Fraction(5, 2)),
    EvalPoint(Fraction(7, 5), Fraction(-3, 4)),
    EvalPoint(-3, Fraction(-1, 2)),
]


def random_qtf(rng, keys):
    factors = {k: rng.randint(-3, 3) for k in rng.sample(keys, rng.randint(0, 6))}
    return QTFactored(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      rng.randint(-4, 4), rng.randint(-4, 4), factors)


@pytest.mark.parametrize("pt", EVAL_POINTS, ids=repr)
def test_evaluate_matches_the_plain_product(pt):
    rng = random.Random(str(pt))
    keys = [(a, b) for a in range(6) for b in range(6) if (a, b) != (0, 0)]
    vanished = 0
    for _ in range(400):
        x = random_qtf(rng, keys)
        if any(1 == pt.q0 ** a * pt.t0 ** b for a, b in x.factors):
            vanished += 1
            with pytest.raises(VanishingFactor):
                x.evaluate(pt)
            continue
        assert x.evaluate(pt) == plain_value(x, pt)
        assert QTCoeff.from_qtf(x).evaluate(pt) == plain_value(x, pt)
    assert vanished < 400
    for key in ((-1, 2), (3, -1)):  # the package builds no such factor
        with pytest.raises(ValueError):
            QTFactored(2, 0, 0, {key: 1})


def test_evaluate_raises_on_a_vanishing_factor():
    pt = EvalPoint(2, Fraction(1, 2))  # 1 - q t = 0
    for e in (1, -2):
        x = QTFactored(3, -1, 2, {(1, 0): 1, (1, 1): e})
        with pytest.raises(VanishingFactor):
            x.evaluate(pt)
    # a QTCoeff follows the same rule, for either sign of the exponent
    for e in (1, -2):
        with pytest.raises(VanishingFactor):
            QTCoeff.from_qtf(QTFactored.binomial(1, 1, e)).evaluate(pt)
    # a zero weight is 0 whatever its factors
    assert QTFactored.zero().evaluate(pt) == 0


@pytest.mark.parametrize("q0, t0", [
    (Fraction(-2, 3), Fraction(5, 7)), (Fraction(2, 3), Fraction(-3, 5)),
    (Fraction(7, 2), Fraction(4, 3)), (2, Fraction(1, 4)),
])
def test_binomial_numerators_match_the_fraction_formula(q0, t0):
    # B = qd^a td^b (1 - q0^a t0^b), through Fraction powers: the reference
    q0, t0 = Fraction(q0), Fraction(t0)
    pt = EvalPoint(q0, t0)
    vanished = 0
    for a in range(6):
        for b in range(6):
            want = ((1 - q0 ** a * t0 ** b) * Fraction(q0.denominator) ** a
                    * Fraction(t0.denominator) ** b)
            if want == 0:  # (0, 0) everywhere; a = 2b at (2, 1/4)
                vanished += 1
                with pytest.raises(VanishingFactor):
                    pt.binomial(a, b)
                continue
            for _ in range(2):  # computed, then cached
                got = pt.binomial(a, b)
                assert got == want and type(got) is int
    assert vanished == (3 if (q0, t0) == (2, Fraction(1, 4)) else 1)
    for a, b in ((-1, 0), (2, -3)):
        with pytest.raises(ValueError):
            pt.binomial(a, b)


def test_a_product_with_a_unit_scalar_keeps_the_other_scalar():
    x = QTFactored(Fraction(-3, 4), 1, 0, {(1, 0): 2})
    y = QTFactored(1, 0, 2, {(1, 0): -2, (0, 1): 1})
    for p in (x * y, y * x):
        assert p.coeff == Fraction(-3, 4) and type(p.coeff) is Fraction
        assert (p.qexp, p.texp, p.factors) == (1, 2, {(0, 1): 1})
    assert (x * x).coeff == Fraction(9, 16)
    assert (y * y).coeff == 1


def test_callers_cannot_corrupt_cached_binomials():
    cached = _binomial_power(1, 1, 2)
    want = BiPoly({(0, 0): 1, (1, 1): -2, (2, 2): 1})
    with pytest.raises(TypeError):
        cached.terms[(0, 0)] = 5
    for frozen in (_binomial_poly(1, 1), BI_ONE):
        with pytest.raises(TypeError):
            frozen.terms[(3, 3)] = 1
    assert _binomial_power(1, 1, 2) == want and BI_ONE == BiPoly.const(1)


def test_qtfactored_equality_is_equals_only():
    """``==`` raises, also on the same object: factors are not irreducible,
    so only ``equals`` compares values, and identity is no comparison."""
    x = QTFactored.binomial(2, 0)
    for other in (x, QTFactored.binomial(2, 0), 1):
        with pytest.raises(TypeError, match="equals"):
            x == other
        with pytest.raises(TypeError, match="equals"):
            x != other
    with pytest.raises(TypeError):
        hash(x)
    assert x.equals(QTFactored.binomial(2, 0))


# -- weight groups: f-argument counts, exactly and through the f-table --------

def random_counts(rng, top=5):
    fields = rng.sample([(n, m) for n in range(1, top + 1) for m in range(4)],
                        rng.randint(0, 5))
    return tuple((field, rng.choice((-3, -2, -1, 1, 2, 3))) for field in fields)


def test_f_product_is_the_product_of_f_powers():
    rng = random.Random(4)
    for _ in range(50):
        counts = random_counts(rng)
        want = QTFactored.one()
        for (n, m), c in counts:
            f = f_fun(n, m) if c > 0 else f_fun(n, m).inverse()
            for _ in range(abs(c)):
                want = want * f
        assert f_product(counts).equals(want)
    assert f_product(()).equals(QTFactored.one())


@pytest.mark.parametrize("pt", EVAL_POINTS + [EvalPoint(2, Fraction(1, 4))],
                         ids=repr)
def test_f_table_values_match_the_exact_product(pt):
    # at (2, 1/4) the binomial (1 - q^2 t) vanishes: f(n; 0) from n = 3 on,
    # and f(n; 1) from n = 2 on, fall back to the net product
    rng = random.Random(str(pt))
    vanished = 0
    for _ in range(200):
        counts = random_counts(rng, 6)
        try:
            want = f_product(counts).evaluate(pt)
        except VanishingFactor:
            vanished += 1
            with pytest.raises(VanishingFactor):
                pt.f_product(counts)
            continue
        num, den = pt.f_product(counts)
        assert type(num) is int and type(den) is int and den
        assert Fraction(num, den) == want
    assert vanished < 200
    # a vanishing binomial with net exponent 0 cancels: f(3; 0) / f(3; 0)
    cancelled = (((3, 0), 1), ((1, 1), 1), ((3, 0), -1))
    assert Fraction(*pt.f_product(cancelled)) == f_fun(1, 1).evaluate(pt)
