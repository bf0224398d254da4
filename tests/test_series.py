import random
from fractions import Fraction

import pytest

from qthook.dposet import build_banner, build_bird, hook_monomials
from qthook.partitions import Partition as P
from qthook.qtcore import EvalPoint, QTFactored, f_fun
from qthook.series import (
    MultiSeries,
    QTCoeff,
    VarSet,
    as_coeff,
    product_of_f,
    series_equals,
    series_f,
)

XYZ = VarSet(["z0", "z1", "z2"])
EXACT = None


def z(name, k=1):
    return XYZ.monomial({name: k})


def test_series_f_single_variable():
    s = series_f(z("z0"), XYZ, 2, EXACT)
    assert s.coefficient(XYZ.unit()).equals(QTCoeff.one())
    assert s.coefficient(z("z0")).equals(QTCoeff.from_qtf(f_fun(1, 0)))
    assert s.coefficient(z("z0", 2)).equals(QTCoeff.from_qtf(f_fun(2, 0)))
    assert len(s.terms) == 3


def test_series_f_degree_two_monomial():
    m = XYZ.monomial({"z0": 1, "z1": 1})
    s = series_f(m, XYZ, 3, EXACT)
    # only k = 0, 1 fit under total degree 3
    assert len(s.terms) == 2
    assert s.coefficient(m).equals(QTCoeff.from_qtf(f_fun(1, 0)))


def test_series_f_rejects_unit_and_negative():
    with pytest.raises(ValueError):
        series_f(XYZ.unit(), XYZ, 3, EXACT)
    with pytest.raises(ValueError):
        series_f((1, -1, 0), XYZ, 3, EXACT)


def test_series_f_at_t_equals_q_is_geometric():
    # f(k;0) telescopes to 1 at t = q; permitted only for this check
    pt = EvalPoint(Fraction(2, 3), Fraction(2, 3))
    ring = pt
    s = series_f(z("z0"), XYZ, 5, ring)
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


def test_q_difference_relation():
    # (1 - x) F(x) = (1 - t x) F(q x), read off coefficientwise:
    # c_k - c_{k-1} = q^k c_k - t q^{k-1} c_{k-1}
    D = 6
    s = series_f(z("z0"), XYZ, D, EXACT)
    for k in range(1, D + 1):
        ck = s.coefficient(z("z0", k))
        ck1 = s.coefficient(z("z0", k - 1))
        lhs = ck - ck1
        rhs = (ck.mul_qtf(QTFactored(1, k, 0))
               - ck1.mul_qtf(QTFactored(1, k - 1, 1)))
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
        ring_e = pt
        a = _random_series(rng, XYZ, 4, EXACT)
        b = _random_series(rng, XYZ, 4, EXACT)
        exact = (a * b + a).evaluate_exact_at(pt)
        a2 = MultiSeries(XYZ, 4, ring_e,
                         {m: c.evaluate(pt) for m, c in a.terms.items()})
        b2 = MultiSeries(XYZ, 4, ring_e,
                         {m: c.evaluate(pt) for m, c in b.terms.items()})
        eq, _ = series_equals(exact, a2 * b2 + a2)
        assert eq


def test_json_dump_shape():
    s = series_f(z("z0"), XYZ, 2, EXACT)
    d = s.to_json()
    assert d["vars"] == ["z0", "z1", "z2"]
    assert d["truncation"] == 2 and d["mode"] == "exact"
    assert all(set(t) == {"exps", "num", "den"} for t in d["terms"])


# -- product_of_f against the same factors in other orders -------------------

def product_in_order(monos, varset, trunc, ring):
    """prod F(x^m) multiplied in the order given: the reference."""
    out = MultiSeries.constant(1, varset, trunc, ring)
    for m in monos:
        out = out * series_f(m, varset, trunc, ring)
    return out


@pytest.mark.parametrize("family, D", [("banner", 6), ("bird", 5)])
def test_product_of_f_does_not_depend_on_the_order(family, D):
    poset = (build_banner(P([4, 3, 2, 1]), 2) if family == "banner"
             else build_bird(P([3, 2]), P([2, 1]), 2))
    varset = poset.varset
    monos = [varset.monomial(m)
             for m in hook_monomials(poset, verify_choices=False).values()]
    rng = random.Random(D)
    orders = [monos, monos[::-1]] + [rng.sample(monos, len(monos)) for _ in range(2)]
    ring = EvalPoint(Fraction(-2, 3), Fraction(5, 7))
    got = product_of_f(monos, varset, D, ring)
    assert len(got.terms) > 50
    for order in orders:
        assert product_of_f(order, varset, D, ring).terms == got.terms
        assert product_in_order(order, varset, D, ring).terms == got.terms
    got = product_of_f(monos, varset, D, EXACT)
    for order in orders[:2]:
        ref = product_in_order(order, varset, D, EXACT)
        assert got.terms.keys() == ref.terms.keys()
        assert all(got.terms[m].num_den_strings() == ref.terms[m].num_den_strings()
                   for m in got.terms)
