import random
from fractions import Fraction

import pytest

from qthook.partitions import Partition, partitions_up_to, is_horizontal_strip
from qthook.qtcore import (
    BiPoly,
    EvalPoint,
    QTFactored,
    b_el,
    b_el_f_form,
    b_lambda,
    b_lambda_f_form,
    b_oa,
    b_cell,
    f_fun,
    f_series_coeff,
    phi_skew,
    psi_skew,
    qt_equals,
    resample_point,
    sample_points,
)

P = Partition


def qtf(coeff=1, q=0, t=0, **kw):
    return QTFactored(coeff, q, t, kw.get("factors"))


def test_f_fun_base_cases():
    assert f_fun(0, 3).is_one()
    assert f_fun(-2, 1).is_zero()
    # f(1, 0) = (1-t)/(1-q), forced by b_{(1)} agreeing with the arm/leg form
    expected = QTFactored.binomial(0, 1) * QTFactored.binomial(1, 0, -1)
    assert qt_equals(f_fun(1, 0), expected)


def test_f_fun_recurrence():
    # f(n, m) = f(n-1, m) * (1 - t^(m+1) q^(n-1)) / (1 - t^m q^n)
    for n in range(1, 9):
        for m in range(0, 5):
            rhs = (f_fun(n - 1, m)
                   * QTFactored.binomial(n - 1, m + 1)
                   * QTFactored.binomial(n, m, -1))
            assert qt_equals(f_fun(n, m), rhs)


def test_f_series_coeffs():
    assert f_series_coeff(0).is_one()
    assert qt_equals(f_series_coeff(1), f_fun(1, 0))
    # (t;q)_2 / (q;q)_2 expanded
    expected = (QTFactored.binomial(0, 1) * QTFactored.binomial(1, 1)
                * QTFactored.binomial(1, 0, -1) * QTFactored.binomial(2, 0, -1))
    assert qt_equals(f_series_coeff(2), expected)


def test_b_lambda_small():
    assert b_lambda(P()).is_one()
    assert qt_equals(b_lambda(P([1])), f_fun(1, 0))
    # explicit 3-cell product for (2,1)
    expected = (QTFactored.binomial(1, 2) * QTFactored.binomial(2, 1, -1)
                * (QTFactored.binomial(0, 1) ** 2)
                * (QTFactored.binomial(1, 0, -1) ** 2))
    assert qt_equals(b_lambda(P([2, 1])), expected)


def test_b_forms_agree_weight_up_to_6():
    for lam in partitions_up_to(6):
        assert qt_equals(b_lambda(lam), b_lambda_f_form(lam)), lam
        assert qt_equals(b_el(lam), b_el_f_form(lam)), lam


def test_leg_parity_partition_is_exhaustive():
    for lam in partitions_up_to(6):
        odd = QTFactored.one()
        for (i, j) in lam.cells():
            if lam.leg(i, j) % 2 == 1:
                odd = odd * b_cell(lam, i, j)
        assert qt_equals(b_lambda(lam), b_el(lam) * odd), lam


def test_b_el_single_row_equals_b():
    for k in range(1, 6):
        assert qt_equals(b_el(P([k])), b_lambda(P([k])))


def test_b_el_one_one():
    assert qt_equals(b_el(P([1, 1])), f_fun(1, 0))


def test_psi_diagonal_is_one():
    for lam in partitions_up_to(4):
        assert qt_equals(psi_skew(lam, lam), QTFactored.one()), lam


def test_phi_single_box():
    assert qt_equals(phi_skew(P([1]), P()), b_lambda(P([1])))


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
            assert qt_equals(lhs, rhs), (lam, mu)


def test_qt_equals_trivial_cases():
    assert qt_equals(f_fun(0, 5), QTFactored.one())
    # (1-q^2)/(1-q) == 1 + q via cross-multiplication
    lhs = QTFactored.binomial(2, 0) * QTFactored.binomial(1, 0, -1)
    ln, ld = lhs.num_den()
    rhs = BiPoly({(0, 0): Fraction(1), (1, 0): Fraction(1)})
    assert ln == rhs * ld


def test_b_lambda_two_formula_example():
    lam = P([2, 1])
    assert qt_equals(b_lambda(lam), b_lambda_f_form(lam))


def test_qt_equals_eval_agrees_with_exact():
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
        exact = qt_equals(f1, g, "exact")
        ev = qt_equals(f1, g, "eval", pts, seed=trial)
        if exact:
            assert ev
        else:
            assert not ev  # 5 rational points make a false match implausible


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
    vanishing = [EvalPoint(2, Fraction(1, 4))]
    assert qt_equals(x, x, "eval", vanishing)
    assert not qt_equals(x, QTFactored.binomial(1, 1), "eval", vanishing)


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
