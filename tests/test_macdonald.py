from fractions import Fraction

import pytest

from qthook.partitions import (
    EMPTY,
    Partition,
    is_horizontal_strip,
    partitions_of,
    partitions_up_to,
)
from qthook.qtcore import EvalPoint, QTFactored, b_lambda, f_fun
from qthook.series import NO_TRUNC, MultiSeries, QTCoeff
from qthook import macdonald
from qthook.macdonald import (
    RatFunc,
    branching_check,
    cauchy_check,
    expand_in_p,
    g_r,
    gmacmahon_check,
    gram_p,
    m_expansion,
    m_product,
    macdonald_p,
    macdonald_q,
    orthonormality_check,
    partition_sum_check,
    pieri_check,
    qp_lemma_check,
    scalar_product,
    skew_p,
    skew_q,
    warnaar_check,
)

from test_negative_controls import _double_q_of_one_box, _drop_last_kernel_factor

P = Partition


def structure_constants(mu: Partition, nu: Partition, n: int) -> dict:
    """Coefficients f^lam_{mu nu} of P_mu P_nu = sum f^lam P_lam."""
    if n < mu.length() + nu.length():
        raise ValueError("need n >= l(mu) + l(nu) for a faithful expansion")
    prod = m_product(macdonald_p(mu, n), macdonald_p(nu, n))
    return expand_in_p(prod, mu.weight() + nu.weight(), n)


def skew_q_via_structure(lam: Partition, mu: Partition, n: int) -> MultiSeries:
    """Q_{lam/mu} = sum_nu f^lam_{mu nu} Q_nu, the defining expansion."""
    d = lam.weight() - mu.weight()
    out = MultiSeries(macdonald.poly_vars(n), NO_TRUNC)
    for nu in partitions_of(d):
        if nu.length() > n:
            continue  # Q_nu vanishes in n variables
        consts = structure_constants(mu, nu, max(n, mu.length() + nu.length(),
                                                 lam.length()))
        c = consts.get(lam)
        if c:
            out = out + macdonald_q(nu, n).scale(c)
    return out


def test_skew_p_base_cases():
    assert skew_p(EMPTY, EMPTY, 3).coefficient((0, 0, 0)).equals(QTCoeff.one())
    s = skew_p(P([1]), EMPTY, 2)
    assert s.coefficient((1, 0)).equals(QTCoeff.one())
    assert s.coefficient((0, 1)).equals(QTCoeff.one())
    # too many rows for the variable count
    assert skew_p(P([1, 1, 1]), EMPTY, 2).is_zero()


def test_strip_chains_match_a_brute_force_enumeration():
    # every sequence mu = nu_0, ..., nu_n = lam of partitions of weight <= 5
    # whose steps are horizontal strips, grown one step at a time
    pool = partitions_up_to(5)
    above = {nu: [k for k in pool if is_horizontal_strip(k, nu)] for nu in pool}
    for mu in pool:
        chains = [(mu,)]
        for n in range(5):
            for lam in pool:
                if not lam.contains(mu):
                    continue
                want = sorted([p.parts for p in c] for c in chains if c[-1] == lam)
                got = sorted([p.parts for p in c]
                             for c in macdonald._strip_chains(lam, mu, n))
                assert got == want, (lam, mu, n)
            chains = [c + (k,) for c in chains for k in above[c[-1]]]


@pytest.mark.parametrize("build", [macdonald_p, macdonald_q])
def test_callers_cannot_corrupt_the_skew_cache(build):
    expected = build(P([1]), 2).coefficient((1, 0))
    build(P([1]), 2).add_term((1, 0), QTCoeff.one())
    again = build(P([1]), 2)
    assert again.coefficient((1, 0)).equals(expected)
    assert again.coefficient((0, 1)).equals(expected)


def test_p_2_coefficient_matches_gram_oracle():
    s = skew_p(P([2]), EMPTY, 2)
    g = gram_p(P([2]), 2)
    assert s.equals(g)
    # classical value (1+q)(1-t)/(1-qt) at x1 x2
    c = s.coefficient((1, 1))
    expected = QTCoeff.from_qtf(
        QTFactored.binomial(2, 0) * QTFactored.binomial(0, 1)
        * (QTFactored.binomial(1, 0) * QTFactored.binomial(1, 1)).inverse())
    assert c.equals(expected)


@pytest.mark.parametrize("fault", ["drop", "change"])
def test_check_symmetric_rejects_a_broken_orbit(fault):
    poly = macdonald_p(P([2, 1]), 3)
    assert macdonald.check_symmetric(poly) is poly
    key = poly.keys.pack((1, 2, 0))
    if fault == "drop":
        del poly.terms[key]
    else:
        poly.terms[key] = poly.terms[key] + QTCoeff.one()
    with pytest.raises(AssertionError):
        macdonald.check_symmetric(poly)


def test_gram_oracle_small_cases():
    assert gram_p(P([1]), 2).equals(skew_p(P([1]), EMPTY, 2))
    # e_2 exactly
    g = gram_p(P([1, 1]), 2)
    assert g.coefficient((1, 1)).equals(QTCoeff.one())
    assert len(g.terms) == 1


@pytest.mark.parametrize("d", range(0, 5))
def test_gram_matches_chains_up_to_4(d):
    for lam in partitions_of(d, None, 4):
        assert gram_p(lam, 4).equals(macdonald_p(lam, 4)), lam
        assert macdonald_p(lam, 4).equals(gram_p(lam, 4)), lam


def test_gram_oracle_mixes_with_qtcoeff_in_either_order():
    m, g = macdonald_p(P([2]), 2), gram_p(P([2]), 2)
    assert g.equals(m) and m.equals(g)
    twice = m.scale(QTFactored(2))
    assert not g.equals(twice) and not twice.equals(g)


def _square_free(s):
    """x1 x2 ... xd, for a homogeneous series s of degree d."""
    d = s.min_total_degree()
    return tuple(int(i < d) for i in range(len(s.varset)))


XS = macdonald.VarSet(["x", "y", "z", "w"])
XS_IMAGES = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)]
SERIES_OPS = {  # name -> (a, b) -> series
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    # by b's coefficient at x1 ... xd, (1+q)(1-t)/(1-qt) for P_2
    "scale": lambda a, b: a.scale(b.coefficient(_square_free(b))),
    "truncated": lambda a, b: a.truncated(4) + b.truncated(4),
    # x3 -> z w in x, y, z, w, truncated at degree 4
    "substitute": lambda a, b: (a.substitute(XS_IMAGES, XS, 4)
                                + b.substitute(XS_IMAGES, XS, 4)),
}


@pytest.mark.parametrize("lam", [P([2]), P([2, 1]), P([1, 1, 1])], ids=str)
@pytest.mark.parametrize("op", SERIES_OPS)
def test_oracle_series_is_an_ordinary_series(op, lam):
    # the oracle's P_lam in either operand place gives what the strip-chain
    # P_lam gives: its coefficients are QTCoeffs like every other series'
    g, m = gram_p(lam, 3), macdonald_p(lam, 3)
    assert g.terms and all(type(c) is QTCoeff for c in g.terms.values())
    want = SERIES_OPS[op](m, m)
    for got in (SERIES_OPS[op](g, m), SERIES_OPS[op](m, g),
                SERIES_OPS[op](g, g)):
        assert got.equals(want) and want.equals(got)


def test_oracle_coordinates_divide_exactly_by_c_lambda():
    # c_(1) = 1 - t does not cancel the denominator 1 - q^2: an error, not a
    # rounded coefficient
    one_q2 = macdonald.BiPoly({(0, 0): 1, (2, 0): -1})
    with pytest.raises(ArithmeticError):
        macdonald._over_c_lambda({P([1]): RatFunc(macdonald.BI_ONE, one_q2)},
                                 P([1]))
    # every coordinate of P_(2,1) is over c_(2,1) = (1 - q t^2)(1 - t)^2,
    # whatever its reduced denominator was
    for nu, c in macdonald._gram_p_basis(3)[P([2, 1])].items():
        assert c.den == {(1, 2): 1, (0, 1): 2}, nu


def _series_p_to_m(d):
    """The p->m rows built as products of power-sum series in d variables."""
    xs = macdonald.poly_vars(d)
    rows = {}
    for lam in partitions_of(d):
        poly = MultiSeries.constant(1, xs, NO_TRUNC)
        for r in lam:
            power_sum = MultiSeries(xs, NO_TRUNC)
            for i in range(d):
                power_sum.add_term(tuple(r * (j == i) for j in range(d)),
                                   QTCoeff.one())
            poly = poly * power_sum
        # the coefficients are integers: any point gives them
        rows[lam] = {mu: c.evaluate(EvalPoint(Fraction(2), Fraction(3)))
                     for mu, c in m_expansion(poly).items()}
    return rows


def _gauss_jordan_inverse(parts, rows):
    """rows inverted by Gauss-Jordan elimination with pivot search."""
    k = len(parts)
    idx = {p: i for i, p in enumerate(parts)}
    a = [[Fraction(0)] * (2 * k) for _ in range(k)]
    for lam in parts:
        for mu, v in rows[lam].items():
            a[idx[lam]][idx[mu]] = Fraction(v)
        a[idx[lam]][k + idx[lam]] = Fraction(1)
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return {mu: {lam: a[idx[mu]][k + idx[lam]] for lam in parts}
            for mu in parts}


@pytest.mark.parametrize("d", range(0, 7))
def test_power_sum_tables_match_series_products_and_elimination(d):
    parts, rows = macdonald._p_to_m_matrix(d)
    _, inverse = macdonald._m_to_p_matrix(d)
    assert sorted(parts, key=lambda p: p.parts) == sorted(
        partitions_of(d), key=lambda p: p.parts)
    want_rows = _series_p_to_m(d)
    want_inverse = _gauss_jordan_inverse(parts, want_rows)
    for lam in parts:
        for mu in parts:
            assert rows[lam].get(mu, 0) == want_rows[lam].get(mu, 0), (lam, mu)
            assert inverse[lam].get(mu, 0) == want_inverse[lam][mu], (lam, mu)
            assert sum(rows[lam].get(nu, 0) * inverse[nu].get(mu, 0)
                       for nu in parts) == (lam == mu), (lam, mu)


def test_oracle_normalizes_with_exact_reciprocals():
    # the denominator 3 + q leads with 3, so both sides are divided by 3
    num = macdonald.BiPoly({(0, 0): 1, (0, 1): 2})
    den = macdonald.BiPoly({(0, 0): 3, (1, 0): 1})
    for r in (macdonald.RatFunc(num, den), macdonald.RatFunc._raw(num, den)):
        assert r.num.terms == {(0, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)}
        assert r.den.terms == {(0, 0): 1, (1, 0): Fraction(1, 3)}
        for c in (*r.num.terms.values(), *r.den.terms.values()):
            assert type(c) in (int, Fraction)
    _, inverse = macdonald._m_to_p_matrix(4)
    assert inverse and all(type(v) is Fraction
                           for row in inverse.values() for v in row.values())


@pytest.mark.parametrize("sign", [1, -1])
def test_ratfunc_sum_over_coprime_denominators(sign):
    # 1/(1-q) +- 1/(1-t) = (1 - t +- (1 - q)) / ((1-q)(1-t))
    one_q = macdonald.BiPoly({(0, 0): 1, (1, 0): -1})
    one_t = macdonald.BiPoly({(0, 0): 1, (0, 1): -1})
    a, b = RatFunc(macdonald.BI_ONE, one_q), RatFunc(macdonald.BI_ONE, one_t)
    got = a + b if sign > 0 else a - b
    want = RatFunc(one_t + one_q.scale(sign), one_q * one_t)
    assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)


def test_ratfunc_zero_absorbs_and_a_cancelled_sum_is_zero():
    one_q = macdonald.BiPoly({(0, 0): 1, (1, 0): -1})
    a = RatFunc(macdonald.BI_ONE, one_q)
    for zero in (a * macdonald.RF_ZERO, macdonald.RF_ZERO * a, a - a):
        assert zero.is_zero() and zero.den.terms == {(0, 0): 1}


def test_g_r():
    assert g_r(0, 3).coefficient((0, 0, 0)).equals(QTCoeff.one())
    g1 = g_r(1, 2)
    f1 = QTCoeff.from_qtf(f_fun(1, 0))
    assert g1.coefficient((1, 0)).equals(f1)
    assert g1.coefficient((0, 1)).equals(f1)
    g2 = g_r(2, 1)
    assert g2.coefficient((2,)).equals(QTCoeff.from_qtf(f_fun(2, 0)))


def test_skew_q_is_b_ratio_times_skew_p():
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(lam.weight()):
            if not lam.contains(mu):
                continue
            sp = skew_p(lam, mu, 3)
            sq = skew_q(lam, mu, 3)
            ratio = b_lambda(lam) / b_lambda(mu)
            assert sq.equals(sp.scale(ratio)), (lam, mu)


def test_skew_q_via_structure_constants():
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(lam.weight()):
            if not lam.contains(mu):
                continue
            direct = skew_q(lam, mu, 3)
            via = skew_q_via_structure(lam, mu, 3)
            assert direct.equals(via), (lam, mu)


def test_structure_constants_needs_enough_variables():
    with pytest.raises(ValueError, match="l\\(mu\\) \\+ l\\(nu\\)"):
        structure_constants(P([1]), P([1]), 1)


def test_structure_constants_basics():
    consts = structure_constants(EMPTY, P([2, 1]), 3)
    assert set(consts) == {P([2, 1])}
    assert consts[P([2, 1])].equals(QTCoeff.one())
    consts = structure_constants(P([1]), P([1]), 2)
    assert set(consts) == {P([2]), P([1, 1])}
    # top coefficient (at mu + nu) is 1 by dominance triangularity
    assert consts[P([2])].equals(QTCoeff.one())
    # the bottom one follows from the Pieri rule:
    # f^{(1,1)} = (b_(1))^{-1} phi_{(1,1)/(1)} = (1-q)(1+t)/(1-qt)
    from qthook.qtcore import phi_skew, b_lambda
    expected = QTCoeff.from_qtf(phi_skew(P([1, 1]), P([1])) / b_lambda(P([1])))
    assert consts[P([1, 1])].equals(expected)
    # grading: each lam has |lam| = |mu| + |nu|
    for lam in consts:
        assert lam.weight() == 2


def test_expansion_is_triangular_with_unit_leading_term():
    for lam in partitions_up_to(4, max_length=3):
        poly = macdonald_p(lam, 3)
        exps = lam.parts + (0,) * (3 - lam.length())
        assert poly.coefficient(exps).equals(QTCoeff.one())
        back = expand_in_p(m_expansion(poly), lam.weight(), 3)
        assert set(back) == {lam}


@pytest.mark.parametrize("kind", ["phi", "psi"])
def test_pieri_small(kind):
    ok, info = pieri_check(EMPTY, 1, 2, kind)
    assert ok, info
    ok, info = pieri_check(P([1]), 0, 2, kind)
    assert ok, info
    ok, info = pieri_check(P([2, 1]), 2, 3, kind)
    assert ok, info


def test_cauchy_small():
    ok, info = cauchy_check(1, 1, 3)
    assert ok, info
    ok, info = cauchy_check(2, 2, 3)
    assert ok, info
    ok, info = cauchy_check(1, 2, 0)
    assert ok, info


def test_branching():
    ok, info = branching_check(P([1]), 1, 1)
    assert ok, info
    ok, info = branching_check(P([2, 1]), 2, 1)
    assert ok, info
    ok, info = branching_check(P([1, 1, 1]), 1, 1)  # both sides zero
    assert ok, info


def test_branching_fails_on_a_wrong_skew(monkeypatch):
    # doubling every P_{lam/mu} with mu nonempty changes the sum over mu but
    # not P_lam itself (mu empty), so the oracle still agrees and the bracket
    # sum reports the mismatch; a uniform doubling would cancel
    real = macdonald.skew_p

    def doubled(lam, mu, n):
        out = real(lam, mu, n)
        return out if mu == EMPTY else out.scale(QTFactored(2))

    monkeypatch.setattr(macdonald, "skew_p", doubled)
    assert branching_check(P([1]), 1, 1) == (False, {
        "bracket": "P", "monomial": "x2_1", "lhs": "(2)/(1)", "rhs": "(1)/(1)"})


def test_branching_fails_on_a_scaled_p(monkeypatch):
    """psi_skew doubled scales every strip-chain P_lam, both sides of the
    branching rule alike; the Gram-Schmidt anchor sees it."""
    real = macdonald.psi_skew
    monkeypatch.setattr(macdonald, "psi_skew",
                        lambda *args: real(*args) * QTFactored(2))
    macdonald._skew_cached.cache_clear()
    try:
        result = branching_check(P([2, 1]), 2, 1)
    finally:
        macdonald._skew_cached.cache_clear()  # no scaled polynomial outlives it
    assert result == (False, {"lam": "2,1", "basis": "Gram-Schmidt"})


def test_qp_lemma():
    ok, info = qp_lemma_check(EMPTY, EMPTY, 1, 1, 3)
    assert ok, info
    ok, info = qp_lemma_check(P([1]), EMPTY, 1, 1, 3)
    assert ok, info
    ok, info = qp_lemma_check(P([1]), P([1]), 2, 2, 3)
    assert ok, info


def test_gmacmahon():
    ok, info = gmacmahon_check(1, P([1]), EMPTY, ([1], [1]), 3)
    assert ok, info
    ok, info = gmacmahon_check(2, EMPTY, EMPTY, ([1, 1], [1, 1]), 3)
    assert ok, info
    ok, info = gmacmahon_check(2, P([1]), EMPTY, ([1, 1], [1, 1]), 3)
    assert ok, info


def test_partition_sum():
    # single +1 step: both sides P_{lam0/lam1}(x^1)
    ok, info = partition_sum_check((1,), P([2]), P([1]), [2], 3)
    assert ok, info
    ok, info = partition_sum_check((-1, 1), EMPTY, EMPTY, [1, 1], 3)
    assert ok, info
    ok, info = partition_sum_check((1, -1), EMPTY, EMPTY, [1, 1], 3)
    assert ok, info


@pytest.mark.parametrize("variant", ["oa", "el", "odd", "even"])
def test_warnaar_single_variable(variant):
    ok, info = warnaar_check(variant, 1, 4)
    assert ok, (variant, info)


def test_warnaar_el_two_vars():
    ok, info = warnaar_check("el", 2, 3)
    assert ok, info


def test_orthonormality_small():
    for lam in partitions_up_to(3, max_length=3):
        for mu in partitions_up_to(3, max_length=3):
            assert orthonormality_check(lam, mu, 3), (lam, mu)


def test_schur_degeneration_at_q_equals_t():
    # P_(2,1) at q = t collapses to the Schur polynomial s_(2,1)
    pts = [EvalPoint(Fraction(2, 3), Fraction(2, 3)),
           EvalPoint(Fraction(3, 5), Fraction(3, 5)),
           EvalPoint(Fraction(5, 2), Fraction(5, 2))]
    poly = macdonald_p(P([2, 1]), 3)
    # s_(2,1) = m_(2,1) + 2 m_(1,1,1)
    for pt in pts:
        xs = [Fraction(1, 2), Fraction(2, 5), Fraction(3, 7)]
        got = Fraction(0)
        for exps, c in poly.monomials():
            term = c.evaluate(pt)
            for x, e in zip(xs, exps):
                term *= x ** e
            got += term
        x1, x2, x3 = xs
        m21 = (x1 ** 2 * x2 + x1 ** 2 * x3 + x2 ** 2 * x1 + x2 ** 2 * x3
               + x3 ** 2 * x1 + x3 ** 2 * x2)
        schur = m21 + 2 * x1 * x2 * x3
        assert got == schur


def test_checks_with_asymmetric_variable_groups():
    ok, info = gmacmahon_check(2, P([1]), P([1]), ([1, 2], [2, 1]), 3)
    assert ok, info
    ok, info = partition_sum_check((-1, 1), P([1]), EMPTY, [2, 2], 3)
    assert ok, info
    ok, info = qp_lemma_check(P([2, 1]), P([1, 1]), 2, 2, 3)
    assert ok, info


# Negative controls: each bracket-sum check must notice a wrong kernel and a
# wrong skew polynomial (two mutations of the negative-control table), not
# only pass on the right ones, and name a monomial.

PS_GROUPS = [("x1_", 1), ("x2_", 1)]
BRACKET_CHECKS = {
    "cauchy": lambda: cauchy_check(2, 2, 4),
    "qp-lemma": lambda: qp_lemma_check(EMPTY, EMPTY, 1, 1, 3),
    "gmacmahon": lambda: gmacmahon_check(2, EMPTY, EMPTY, ([1, 1], [1, 1]), 3),
    "partition-sum": lambda: partition_sum_check((-1, 1), EMPTY, EMPTY,
                                                 [1, 1], 3),
    "bracket-P": lambda: macdonald._bracket_sum_check(
        (-1, 1), EMPTY, EMPTY, PS_GROUPS, 3, "P"),
    "bracket-Q": lambda: macdonald._bracket_sum_check(
        (-1, 1), EMPTY, EMPTY, PS_GROUPS, 3, "Q"),
}


@pytest.mark.parametrize("fault", [_drop_last_kernel_factor,
                                   _double_q_of_one_box])
@pytest.mark.parametrize("name", BRACKET_CHECKS)
def test_bracket_checks_fail_on_a_wrong_side(name, fault, monkeypatch):
    check = BRACKET_CHECKS[name]
    ok, info = check()
    assert ok, info
    fault(monkeypatch)
    ok, info = check()
    assert not ok
    assert "monomial" in info


def test_expand_in_p_names_what_it_cannot_expand(monkeypatch):
    # a P_(1,1) with an extra m_(2) term is not triangular: expanding e_2
    # takes P_(1,1) once and leaves -m_(2) behind; a P_(1,1,1) with extra
    # m_(3) and m_(2,1) terms leaves both, and the lex-largest is named
    real = macdonald.macdonald_p
    extra = {P([1, 1]): [P([2])], P([1, 1, 1]): [P([3]), P([2, 1])]}

    def non_triangular(lam, n):
        out = real(lam, n)
        for mu in extra.get(lam, []):
            for e in macdonald._distinct_permutations(mu, n):
                out.add_term(e, QTCoeff.one())
        return out

    monkeypatch.setattr(macdonald, "macdonald_p", non_triangular)
    for lam, named in ((P([1, 1]), P([2])), (P([1, 1, 1]), P([3]))):
        with pytest.raises(macdonald.NotInPBasis) as err:
            expand_in_p({lam: QTCoeff.one()}, lam.weight(), lam.length())
        assert err.value.args == (named,
                                  "the expansion left a nonzero remainder")


def _same_coords(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(a[k].equals(b[k]) for k in a)


@pytest.mark.parametrize("build", [macdonald_p, macdonald_q])
def test_m_product_matches_the_full_product(build):
    for n in range(1, 5):
        for mu in partitions_up_to(5, max_length=n):
            for r in range(6 - mu.weight()):
                a, b = build(mu, n), g_r(r, n)
                assert _same_coords(m_product(a, b), m_expansion(a * b)), \
                    (mu, r, n)


@pytest.mark.parametrize("d", range(1, 5))
def test_inner_product_with_m_mu_is_the_norm(d):
    # <m_mu, P_mu> = <P_mu, P_mu> = 1 / b_mu (Macdonald VI (6.19)), the
    # norm the Gram-Schmidt oracle reads off its inner-product rows, decided
    # on the factored coefficient
    for mu in partitions_of(d):
        p_mu = m_expansion(macdonald_p(mu, d))
        norm = scalar_product(p_mu, p_mu, d)
        assert scalar_product({mu: QTCoeff.one()}, p_mu, d).equals(norm), mu
        assert norm.equals(QTCoeff.from_qtf(b_lambda(mu).inverse())), mu


def test_gram_matches_chains_at_5():
    for lam in partitions_of(5):
        assert gram_p(lam, 5).equals(macdonald_p(lam, 5)), lam


def _assert_read_only(c):
    for part in (c.rem.terms, c.den, c.content.factors):
        with pytest.raises(TypeError):
            part[1, 1] = 7


@pytest.mark.parametrize("cache", [
    macdonald._p_to_m_matrix, macdonald._m_to_p_matrix,
    macdonald._gram_matrix, macdonald._gram_p_basis,
], ids=["p_to_m", "m_to_p", "gram_matrix", "gram_p_basis"])
def test_callers_cannot_corrupt_the_gram_caches(cache):
    got = cache(3)
    parts, table = got if isinstance(got, tuple) else (None, got)
    assert parts is None or isinstance(parts, tuple)
    for key, value in table.items():
        with pytest.raises(TypeError):
            table[key] = value
        if isinstance(value, QTCoeff):  # a Gram entry
            _assert_read_only(value)
        else:  # a row: read-only as well, and so is every QTCoeff in it
            with pytest.raises(TypeError):
                value[next(iter(value))] = Fraction(7)
            for entry in value.values():
                assert isinstance(entry, (int, Fraction, QTCoeff))
                if isinstance(entry, QTCoeff):
                    _assert_read_only(entry)
    # the oracle's series share the cached entries, read-only as well
    for c in gram_p(P([2, 1]), 3).terms.values():
        _assert_read_only(c)
    assert cache(3) is got
    # the oracle still builds the same P_lam after those attempts
    assert gram_p(P([2, 1]), 3).equals(skew_p(P([2, 1]), EMPTY, 3))
