import random
from fractions import Fraction
from math import gcd

import pytest

from qthook import hypergeom
from qthook.dposet import build_banner, build_bird, build_shifted, hook_monomials
from qthook.partitions import Partition as P
from qthook.qtcore import BiPoly, EvalPoint, QTFactored, b_lambda, f_fun
from qthook.series import (
    NO_TRUNC,
    MultiSeries,
    QTCoeff,
    VarSet,
    as_coeff,
    product_of_f,
    series_equals,
)

XYZ = VarSet(["z0", "z1", "z2"])
UNIT = XYZ.monomial({})
EXACT = None


def z(name, k=1):
    return XYZ.monomial({name: k})


def series_f(mono, varset, trunc, ring):
    """F(x) = (tx; q)_inf / (x; q)_inf at x = the monomial, truncated: one
    factor of the sequential product, each f(k; 0) through ``as_coeff``."""
    key = MultiSeries(varset, trunc, ring).keys.pack(mono)
    out = MultiSeries(varset, trunc, ring)
    out.add_groups((f_fun(k, 0), [k * key]) for k in range(trunc // sum(mono) + 1))
    return out


def test_series_f_single_variable():
    s = product_of_f([z("z0")], XYZ, 2, EXACT)
    assert s.coefficient(UNIT).equals(QTCoeff.one())
    assert s.coefficient(z("z0")).equals(QTCoeff.from_qtf(f_fun(1, 0)))
    assert s.coefficient(z("z0", 2)).equals(QTCoeff.from_qtf(f_fun(2, 0)))
    assert len(s.terms) == 3


def test_series_f_degree_two_monomial():
    m = XYZ.monomial({"z0": 1, "z1": 1})
    s = product_of_f([m], XYZ, 3, EXACT)
    # only k = 0, 1 fit under total degree 3
    assert len(s.terms) == 2
    assert s.coefficient(m).equals(QTCoeff.from_qtf(f_fun(1, 0)))


def test_series_f_rejects_unit_and_negative():
    with pytest.raises(ValueError, match="degree >= 1"):
        product_of_f([z("z0"), UNIT], XYZ, 3, EXACT)
    with pytest.raises(ValueError, match="nonnegative"):
        product_of_f([(1, -1, 0)], XYZ, 3, EXACT)


def test_series_f_at_t_equals_q_is_geometric():
    # f(k;0) telescopes to 1 at t = q; permitted only for this check
    pt = EvalPoint(Fraction(2, 3), Fraction(2, 3))
    ring = pt
    s = product_of_f([z("z0")], XYZ, 5, ring)
    for k in range(6):
        assert s.coefficient(z("z0", k)) == 1


def test_mul_and_add_basics():
    s = series_f(z("z0"), XYZ, 3, EXACT)
    one = MultiSeries.constant(1, XYZ, 3, EXACT)
    eq, _ = series_equals(s * one, s)
    assert eq
    prod = series_f(z("z0"), XYZ, 3, EXACT) * series_f(z("z1"), XYZ, 3, EXACT)
    c = prod.coefficient(XYZ.monomial({"z0": 1, "z1": 1}))
    f1 = QTCoeff.from_qtf(f_fun(1, 0) * f_fun(1, 0))
    assert c.equals(f1)
    diff = s + s.scale(-1)
    assert diff.is_zero()


def test_mul_drops_a_coefficient_that_cancels():
    # (1 + z0)(1 - z0) = 1 - z0^2: the two z0 products cancel in the sum
    one_plus = _series(XYZ, 3, EXACT, {UNIT: 1, z("z0"): 1})
    one_minus = _series(XYZ, 3, EXACT, {UNIT: 1, z("z0"): -1})
    prod = one_plus * one_minus
    assert z("z0") not in dict(prod.monomials())
    assert series_equals(prod, _series(XYZ, 3, EXACT,
                                       {UNIT: 1, z("z0", 2): -1}))[0]


def _series(varset, trunc, point, terms):
    s = MultiSeries(varset, trunc, point)
    for mono, c in terms.items():
        s.add_term(mono, c)
    return s


# 1 + 2a + 3b^2 + 5a^2 b, a polynomial in (a, b)
AB = VarSet(["a", "b"])
AB_POLY = _series(AB, NO_TRUNC, EXACT, {(0, 0): 1, (1, 0): 2, (0, 2): 3,
                                        (2, 1): 5})
ZERO_ONE = XYZ.monomial({"z0": 1, "z1": 1})


@pytest.mark.parametrize("images, trunc, point, expected", [
    # unit images at chosen slots: a -> z2, b -> z0
    ([z("z2"), z("z0")], 3, EXACT,
     {UNIT: 1, z("z2"): 2, z("z0", 2): 3,
      XYZ.monomial({"z2": 2, "z0": 1}): 5}),
    # b -> the empty monomial merges 1 and 3b^2; a -> z0 z1 scales with its
    # exponent, so a^2 b lands at degree 4, above the truncation
    ([ZERO_ONE, UNIT], 3, EXACT, {UNIT: 4, ZERO_ONE: 2}),
    ([ZERO_ONE, UNIT], 4, EXACT,
     {UNIT: 4, ZERO_ONE: 2, XYZ.monomial({"z0": 2, "z1": 2}): 5}),
    # an eval-mode series stays one: its values move
    ([z("z2"), z("z0")], 2, EvalPoint(Fraction(2, 3), Fraction(5, 7)),
     {UNIT: 1, z("z2"): 2, z("z0", 2): 3}),
])
def test_substitute(images, trunc, point, expected):
    source = _series(AB, NO_TRUNC, point, dict(AB_POLY.monomials()))
    got = source.substitute(images, XYZ, trunc)
    assert got.point == point and got.trunc == trunc
    assert got.equals(_series(XYZ, trunc, point, expected))


def test_incompatible_operands_are_rejected():
    other_vars = VarSet(["w0", "w1"])
    s = series_f(z("z0"), XYZ, 3, EXACT)
    t = series_f(other_vars.monomial({"w0": 1}), other_vars, 3, EXACT)
    with pytest.raises(ValueError):
        s * t
    with pytest.raises(ValueError):
        s + series_f(z("z0"), XYZ, 2, EXACT)  # truncation mismatch
    from qthook.qtcore import EvalPoint
    from fractions import Fraction
    ring_eval = EvalPoint(Fraction(2, 3), Fraction(3, 5))
    with pytest.raises(ValueError):
        s + series_f(z("z0"), XYZ, 3, ring_eval)  # mode mismatch


def test_coefficient_conversion_by_mode():
    s = series_f(z("z0"), XYZ, 3, EXACT)
    with pytest.raises(TypeError):
        s.add_term(z("z1"), 0.5)
    with pytest.raises(TypeError):
        MultiSeries.constant(0.5, XYZ, 3, EXACT)
    pt = EvalPoint(Fraction(2, 3), Fraction(3, 5))
    f = f_fun(2, 0) * f_fun(1, 1)
    assert as_coeff(f, pt) == f.evaluate(pt)
    assert as_coeff(QTCoeff.from_qtf(f), pt) == f.evaluate(pt)
    assert as_coeff(3, pt) == 3 and as_coeff(Fraction(1, 2), pt) == Fraction(1, 2)
    assert as_coeff(f, EXACT).equals(QTCoeff.from_qtf(f))


def test_qtcoeff_truth_is_nonzero():
    assert not QTCoeff.zero()
    assert QTCoeff.one()
    assert not (QTCoeff.one() - QTCoeff.one())


def test_series_equals_reports_first_mismatch():
    s = series_f(z("z0"), XYZ, 3, EXACT)
    t = series_f(z("z0"), XYZ, 3, EXACT)
    t.add_term(z("z0", 3), QTFactored.one())
    eq, mismatch = series_equals(s, t)
    assert not eq
    assert mismatch["monomial"] == "z0^3"
    eq, mismatch = series_equals(s, s)
    assert eq and mismatch is None


@pytest.mark.parametrize("ring, texts", [
    (EXACT, ("(0)/(1)", "(1/2)/(1)")),
    (EvalPoint(Fraction(2, 3), Fraction(3, 5)), ("0", "1/2")),
], ids=["exact", "eval"])
def test_series_equals_names_the_lex_first_mismatch_not_the_least_key(ring,
                                                                      texts):
    xy = VarSet(["x", "y"])
    s = series_f((1, 1), xy, 4, ring)
    t = _series(xy, 4, ring, dict(s.monomials()))
    t.add_term((1, 0), 1)
    t.add_term((0, 2), Fraction(1, 2))
    assert s.keys.pack((0, 2)) > s.keys.pack((1, 0))  # degree comes first
    eq, mismatch = series_equals(s, t)
    assert not eq
    assert (mismatch["monomial"], mismatch["lhs"], mismatch["rhs"]) == \
        ("y^2", *texts)
    eq, mismatch = series_equals(t, s)
    assert not eq and mismatch["monomial"] == "y^2"


def test_q_difference_relation():
    # (1 - x) F(x) = (1 - t x) F(q x), read off coefficientwise:
    # c_k - c_{k-1} = q^k c_k - t q^{k-1} c_{k-1}
    D = 6
    s = series_f(z("z0"), XYZ, D, EXACT)
    for k in range(1, D + 1):
        ck = s.coefficient(z("z0", k))
        ck1 = s.coefficient(z("z0", k - 1))
        lhs = ck - ck1
        rhs = (ck * QTCoeff.from_qtf(QTFactored(1, k, 0))
               - ck1 * QTCoeff.from_qtf(QTFactored(1, k - 1, 1)))
        assert lhs.equals(rhs), k


def _random_series(rng, varset, trunc, ring):
    s = MultiSeries(varset, trunc, ring)
    for _ in range(rng.randint(1, 6)):
        mono = tuple(rng.randint(0, 2) for _ in varset.names)
        if sum(mono) > trunc:
            continue
        f = QTFactored(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)),
                       rng.randint(0, 1), rng.randint(0, 1),
                       {(1, 0): rng.randint(-1, 1), (0, 1): rng.randint(0, 1)})
        s.add_term(mono, f)
    return s


def test_ring_axioms_on_random_series():
    rng = random.Random(5)
    for _ in range(8):
        a = _random_series(rng, XYZ, 4, EXACT)
        b = _random_series(rng, XYZ, 4, EXACT)
        c = _random_series(rng, XYZ, 4, EXACT)
        eq, _ = series_equals((a * b) * c, a * (b * c))
        assert eq
        eq, _ = series_equals(a * (b + c), a * b + a * c)
        assert eq
        eq, _ = series_equals(a * b, b * a)
        assert eq


def test_exact_and_eval_commute():
    rng = random.Random(11)
    from qthook.qtcore import sample_points
    pts = sample_points(3, seed=2)
    for trial in range(20):
        pt = pts[trial % len(pts)]

        def at_pt(s):
            return _series(XYZ, 4, pt,
                           {m: c.evaluate(pt) for m, c in s.monomials()})

        a = _random_series(rng, XYZ, 4, EXACT)
        b = _random_series(rng, XYZ, 4, EXACT)
        a2, b2 = at_pt(a), at_pt(b)
        eq, _ = series_equals(at_pt(a * b + a), a2 * b2 + a2)
        assert eq


# -- product_of_f against the sequential product of its factors --------------

def product_in_order(monos, varset, trunc, ring):
    """prod F(x^m) multiplied in the order given, one ``series_f`` factor
    at a time: the oracle for the walk over multiplicities."""
    out = MultiSeries.constant(1, varset, trunc, ring)
    for m in monos:
        if sum(m) <= trunc:
            out = out * series_f(m, varset, trunc, ring)
    return out


def assert_same_product(monos, varset, D):
    """product_of_f of ``monos`` in several orders equals the sequential
    oracle at a point, and exactly with the same coefficient texts."""
    rng = random.Random(D)
    orders = [monos, monos[::-1]] + [rng.sample(monos, len(monos)) for _ in range(2)]
    ring = EvalPoint(Fraction(-2, 3), Fraction(5, 7))
    got = product_of_f(monos, varset, D, ring)
    assert len(got.terms) > 50 and got.den > 1
    for order in orders:
        assert series_equals(product_in_order(order, varset, D, ring), got) \
            == (True, None)
        other = product_of_f(order, varset, D, ring)
        assert (other.terms, other.den) == (got.terms, got.den)
    got = product_of_f(monos, varset, D, EXACT)
    for order in orders[:2]:
        ref = product_in_order(order, varset, D, EXACT)
        assert got.terms.keys() == ref.terms.keys()
        assert all(got.terms[m].equals(ref.terms[m]) and
                   got.terms[m].num_den_strings() == ref.terms[m].num_den_strings()
                   for m in got.terms)


@pytest.mark.parametrize("family, D", [("banner", 6), ("bird", 5), ("shifted", 6)])
def test_product_of_f_does_not_depend_on_the_order(family, D):
    poset = {"banner": lambda: build_banner(P([4, 3, 2, 1]), 2),
             "bird": lambda: build_bird(P([3, 2]), P([2, 1]), 2),
             "shifted": lambda: build_shifted(P([5, 3, 2]))}[family]()
    varset = poset.varset
    assert_same_product([varset.monomial(m)
                         for m in hook_monomials(poset).values()], varset, D)


def test_product_of_f_matches_the_sequential_product_on_a_cauchy_kernel():
    # prod F(x_i y_j) over 2 x 3 variables, with a repeated and an
    # over-degree monomial
    xy = VarSet(["x1", "x2", "y1", "y2", "y3"])
    monos = [xy.monomial({x: 1, y: 1}) for x in ("x1", "x2")
             for y in ("y1", "y2", "y3")]
    monos += [monos[0], xy.monomial({"x1": 3, "y2": 4})]
    assert_same_product(monos, xy, 6)


# -- the factored coefficient: tree sums and the display text ----------------

def _random_f_product(rng, sign=1):
    """A random scalar times f-ratios and their inverses.  With ``sign`` 1
    every such term is positive at 0 < q, t < 1, so no partial sum is 0."""
    out = QTFactored(Fraction(sign * rng.randint(1, 9), rng.randint(1, 4)))
    for _ in range(rng.randint(1, 4)):
        f = f_fun(rng.randint(0, 3), rng.randint(0, 2))
        out = out * f if rng.random() < 0.7 else out / f
    return out


def _expand(c, qexp, texp, factors):
    out = BiPoly.monomial(c, qexp, texp)
    for k, e in factors.items():
        for _ in range(e):
            out = out * BiPoly({(0, 0): 1, k: -1})
    return out


def _lifted_text(terms):
    """Text oracle: every term's numerator lifted to the max-exponent
    denominator, expanded one binomial at a time, then summed."""
    dq = max(max(-f.qexp, 0) for f in terms)
    dt = max(max(-f.texp, 0) for f in terms)
    den = {}
    for f in terms:
        for k, e in f.factors.items():
            if e < 0:
                den[k] = max(den.get(k, 0), -e)
    total = BiPoly()
    for f in terms:
        total = total + _expand(f.coeff, f.qexp + dq, f.texp + dt, {
            k: f.factors.get(k, 0) + den.get(k, 0)
            for k in f.factors.keys() | den.keys()})
    return str(total), str(_expand(1, dq, dt, den))


@pytest.mark.parametrize("seed", range(8))
def test_tree_sum_matches_the_sequential_sum(seed):
    rng = random.Random(seed)
    pt = EvalPoint(Fraction(2, 3), Fraction(3, 5))
    for sign in (1, -1):
        terms = [_random_f_product(rng, rng.choice((1, sign)))
                 for _ in range(rng.randint(2, 9))]
        tree = hypergeom._qsum(terms)
        seq = QTCoeff.zero()
        for f in terms:
            seq = seq + QTCoeff.from_qtf(f)
        assert tree.equals(seq) and seq.equals(tree)
        assert tree.evaluate(pt) == seq.evaluate(pt) == sum(
            f.evaluate(pt) for f in terms)
        assert not tree.equals(seq + QTCoeff.from_qtf(terms[0]))
        if sign == 1:
            assert tree.num_den_strings() == _lifted_text(terms)
            assert seq.num_den_strings() == _lifted_text(terms)


def test_a_sum_divides_out_a_shared_denominator():
    # 1/(1-q) - q/(1-q) is 1: the remainder is divided by (1 - q)
    s = QTCoeff.from_qtf(QTFactored.binomial(1, 0, -1)) + QTCoeff.from_qtf(
        QTFactored(-1, 1, 0, {(1, 0): -1}))
    assert s.rem == BiPoly.const(1) and not s.content.factors
    assert s.equals(QTCoeff.one())
    # the display denominator is still the lcm the terms were written over
    assert s.num_den_strings() == ("1-q", "1-q")


def test_operations_leave_their_operands_alone():
    f = f_fun(2, 0)

    def state(c):
        return (c.coeff, c.qexp, c.texp, dict(c.factors))

    before = state(f)
    xs = [QTCoeff.from_qtf(f), QTCoeff.from_qtf(b_lambda(P([2, 1]))),
          QTCoeff.from_qtf(f * f_fun(1, 1)) + QTCoeff.from_qtf(f)]
    assert xs[0].content is f
    kept = [(state(x.content), dict(x.rem.terms), x.dq, x.dt, dict(x.den))
            for x in xs]
    pt = EvalPoint(Fraction(2, 3), Fraction(3, 5))
    for x in xs:
        for y in xs:
            x + y, x * y, x - y, x.equals(y)
        -x, x.num_den_strings(), x.evaluate(pt)
    assert state(f) == before and f_fun(2, 0) is f
    assert [(state(x.content), dict(x.rem.terms), x.dq, x.dt, dict(x.den))
            for x in xs] == kept


# -- eval mode: integer numerators over one denominator ----------------------

EVAL_POINTS = [EvalPoint(Fraction(-2, 3), Fraction(5, 7)),
               EvalPoint(Fraction(2, 3), Fraction(3, 5))]


def _values(s):
    """{monomial: value} of an eval-mode series, after checking its form."""
    assert type(s.den) is int and s.den > 0
    assert all(type(c) is int and c for c in s.terms.values())
    return dict(s.monomials())


def _random_coeff(rng, pt):
    """(a coefficient of any kind add_term takes, its Fraction value)."""
    kind = rng.randrange(3)
    if kind == 0:
        c = rng.randint(-3, 3)
        return c, Fraction(c)
    if kind == 1:
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return c, c
    c = QTFactored(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4)),
                   rng.randint(-1, 2), rng.randint(-1, 2),
                   {(1, 0): rng.randint(-2, 2), (1, 1): rng.randint(-1, 1),
                    (2, 1): rng.randint(-1, 1)})
    return c, c.evaluate(pt)


def _random_pair(rng, pt, trunc=4):
    """An eval-mode series built by add_term, and its {mono: Fraction}."""
    s, ref = MultiSeries(XYZ, trunc, pt), {}
    for _ in range(rng.randint(0, 7)):
        mono = tuple(rng.randint(0, 3) for _ in XYZ.names)
        c, v = _random_coeff(rng, pt)
        s.add_term(mono, c)
        if sum(mono) <= trunc:
            ref[mono] = ref.get(mono, 0) + v
    return s, {m: v for m, v in ref.items() if v}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for m, v in b.items():
        out[m] = out.get(m, 0) + sign * v
    return {m: v for m, v in out.items() if v}


def _ref_mul(a, b, trunc):
    out = {}
    for m1, v1 in a.items():
        for m2, v2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if sum(m) <= trunc:
                out[m] = out.get(m, 0) + v1 * v2
    return {m: v for m, v in out.items() if v}


@pytest.mark.parametrize("pt", EVAL_POINTS, ids=["negative-q", "positive"])
def test_eval_series_match_a_fraction_reference(pt):
    rng = random.Random(14)
    for _ in range(60):
        (a, ra), (b, rb) = _random_pair(rng, pt), _random_pair(rng, pt)
        assert _values(a) == ra and _values(b) == rb
        assert _values(a + b) == _ref_add(ra, rb)
        assert _values(a - b) == _ref_add(ra, rb, -1)
        assert _values(a * b) == _ref_mul(ra, rb, 4)
        c, v = _random_coeff(rng, pt)
        assert _values(a.scale(c)) == {m: x * v for m, x in ra.items() if v}
        for p in (a * b, a.scale(c)):  # gcd(den, *numerators) divided out
            assert gcd(p.den, *p.terms.values()) == 1
        assert _values(a.truncated(2)) == {m: x for m, x in ra.items()
                                           if sum(m) <= 2}
        low = [min((m[i] for m in ra), default=0) for i in range(3)]
        shift = tuple(rng.randint(-lo, 1) for lo in low)
        assert _values(a.shift_monomial(shift)) == {
            tuple(map(sum, zip(m, shift))): x for m, x in ra.items()
            if sum(m) + sum(shift) <= 4}
        images = [rng.choice([z("z0"), z("z1", 2), ZERO_ONE, UNIT])
                  for _ in range(3)]
        want = {}
        for m, x in ra.items():
            new = tuple(sum(e * img[i] for e, img in zip(m, images))
                        for i in range(3))
            if sum(new) <= 5:
                want[new] = want.get(new, 0) + x
        assert _values(a.substitute(images, XYZ, 5)) == {
            m: x for m, x in want.items() if x}
        for m in {(0, 0, 0), (1, 1, 1), *ra}:
            assert a.coefficient(m) == ra.get(m, 0)
            assert type(a.coefficient(m)) is Fraction
        assert series_equals(a + b, b + a) == (True, None)
        assert a.equals(a.scale(Fraction(3, 7)).scale(Fraction(7, 3)))
