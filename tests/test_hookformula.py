import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qthook import hookformula
from qthook.partitions import Partition
from qthook.qtcore import (
    EvalPoint,
    QTFactored,
    b_el,
    b_lambda,
    f_fun,
    f_product,
    resampled,
    sample_points,
)
from qthook.dposet import (
    ColoredPoset,
    build_banner,
    build_bird,
    build_shifted,
    fill_order,
)
from qthook.hookformula import (
    bracket_phi,
    bracket_psi,
    epsilon_seq,
    f_d,
    f_nd,
    lhs_macdonald_form,
    lhs_series,
    lhs_terms,
    phi_chain,
    phi_hat,
    rhs_macdonald_form,
    rhs_series,
    traces,
    verify_okada,
    weight_bird,
    weight_closed_form,
    weight_generic,
    weight_shifted,
    weight_via_traces,
)
from qthook.series import MultiSeries, key_layout, mono_str, series_equals

from p_maps import p_partitions, z_monomial

P = Partition
EXACT = None


def zero_pi(poset):
    return {e: 0 for e in poset.elements}


def test_weight_of_zero_partition_is_one():
    for poset in (build_shifted(P([2, 1])),
                  build_bird(P([2, 1]), P([2, 1]), 1),
                  build_banner(P([4, 3, 2, 1]), 2)):
        assert weight_generic(poset, zero_pi(poset)).equals(QTFactored.one())
        assert weight_closed_form(poset, zero_pi(poset)).equals(
            QTFactored.one())


def test_single_box_weight():
    poset = build_shifted(P([1]))
    for k in range(5):
        w = weight_generic(poset, {(1, 1): k})
        assert w.equals(f_fun(k, 0)), k


def test_f_nd_f_d_one_box():
    alpha = P([1])
    for k in range(4):
        pi = {(1, 1): k}
        assert f_nd(alpha, pi).equals(QTFactored.one())
        assert f_d(alpha, pi).equals(f_fun(k, 0))


def test_shifted_weight_formula_small():
    # W = f_D * f_ND against the generic pair product, alpha = (3,1)
    poset = build_shifted(P([3, 1]))
    count = 0
    for pi in p_partitions(poset, 4):
        w1 = weight_generic(poset, pi)
        w2 = weight_shifted(P([3, 1]), pi)
        assert w1.equals(w2), pi
        count += 1
    assert count > 10


def test_bird_weight_formula_exhaustive_small():
    poset = build_bird(P([2, 1]), P([2, 1]), 1)
    for pi in p_partitions(poset, 3):
        w1 = weight_generic(poset, pi)
        w2 = weight_bird(poset, pi)
        assert w1.equals(w2), pi


def test_banner_weight_formula_random():
    poset = build_banner(P([4, 3, 2, 1]), 2)
    rng = random.Random(7)
    pis = list(p_partitions(poset, 5))
    sample = rng.sample(pis, min(50, len(pis)))
    for pi in sample:
        w1 = weight_generic(poset, pi)
        w2 = weight_closed_form(poset, pi)
        assert w1.equals(w2), pi


def _phi_chain_with_middle(middle):
    """A copy of Phi whose middle f-argument at step i is ``middle(i)``."""
    def phi(rho, theta, m, n):
        out = QTFactored.one()
        for i in range(m + 1, n + 1):
            out = out * f_fun(rho[i - 1] - rho[i], 0)
            out = out * f_fun(theta[i - 1] - rho[i], middle(i))
            out = out * f_fun(theta[i] - rho[i - 1], middle(i))
            out = out * f_fun(theta[i] - theta[i - 1], 0)
            out = out / (f_fun(theta[i] - rho[i], i)
                         * f_fun(theta[i] - rho[i], i + 1))
        return out
    return phi


def test_phi_verbatim_convention_fails_cross_check(monkeypatch):
    # the displayed middle argument 0 contradicts the generic weight
    poset = build_bird(P([2, 1]), P([2, 1]), 1)

    def mismatches(middle):
        monkeypatch.setattr(hookformula, "phi_chain",
                            _phi_chain_with_middle(middle))
        return sum(not weight_generic(poset, pi).equals(weight_bird(poset, pi))
                   for pi in p_partitions(poset, 3))

    assert mismatches(lambda i: i) == 0  # the copy is faithful
    bad = mismatches(lambda i: 0)
    assert bad > 0


def test_epsilon_and_trace_example():
    alpha = P([8, 5, 2, 1])
    eps = epsilon_seq(alpha, 10)
    assert eps == (1, 1, -1, -1, 1, -1, -1, 1, -1, -1)
    poset = build_shifted(alpha)
    rng = random.Random(3)
    pis = list(p_partitions(poset, 4))
    for pi in rng.sample(pis, 20):
        tr = traces(alpha, pi, 10)
        assert tr[8] == P() and tr[9] == P() and tr[10] == P()
        # interlacing pattern dictated by eps
        from qthook.partitions import is_horizontal_strip
        for i, e in enumerate(eps, start=1):
            if e == 1:
                assert is_horizontal_strip(tr[i - 1], tr[i])
            else:
                assert is_horizontal_strip(tr[i], tr[i - 1])


def test_bracket_constant_chain():
    lam = P([2, 1])
    chain = [lam] * 4
    eps = (1, 1, 1)
    w = bracket_psi(chain, eps)
    assert w.equals(QTFactored.one())


@pytest.mark.parametrize("family,build,args,D", [
    ("shifted", build_shifted, (P([2, 1]),), 4),
    ("shifted", build_shifted, (P([3, 2]),), 3),
    ("bird", build_bird, (P([2, 1]), P([2, 1]), 1), 3),
    ("banner", build_banner, (P([4, 3, 2, 1]), 2), 3),
])
def test_trace_form_weight_and_monomial(family, build, args, D):
    poset = build(*args)
    for pi in p_partitions(poset, D):
        w, mono = weight_via_traces(poset, pi)
        assert w.equals(weight_generic(poset, pi)), pi
        assert mono == z_monomial(poset, pi), pi


def test_trace_form_larger_horizon_matches():
    poset = build_shifted(P([2, 1]))
    for pi in p_partitions(poset, 3):
        w1, m1 = weight_via_traces(poset, pi)
        w2, m2 = weight_via_traces(poset, pi, horizon=5)
        assert w1.equals(w2)
        assert m1 == m2


def test_both_displays_of_shifted_trace_weight():
    alpha = P([2, 1])
    poset = build_shifted(alpha)
    n = alpha[1]
    eps = epsilon_seq(alpha, n)
    for pi in p_partitions(poset, 4):
        tr = traces(alpha, pi, n)
        lhs = b_el(tr[0]) * bracket_psi(tr, eps)
        rhs = b_el(tr[0]) / b_lambda(tr[0]) * bracket_phi(tr, eps)
        assert lhs.equals(rhs), pi


def test_w_exponent_identities():
    # (|pi[0]| - r(pi[0]'))/2 equals pi_{r-1,r-1} + pi_{r-3,r-3} + ...
    for alpha in (P([2, 1]), P([3, 2]), P([4, 2, 1])):
        poset = build_shifted(alpha)
        r = alpha.length()
        for pi in p_partitions(poset, 3):
            tr0 = traces(alpha, pi, alpha[1])[0]
            lhs = (tr0.weight() - tr0.odd_columns()) // 2
            rhs = sum(pi[(i, i)] for i in range(r - 1, 0, -2))
            assert lhs == rhs, pi


def test_one_box_series_both_sides():
    poset = build_shifted(P([1]))
    lhs = lhs_series(poset, 5, EXACT)
    rhs = rhs_series(poset, 5, EXACT)
    eq, _ = series_equals(lhs, rhs)
    assert eq
    from qthook.series import QTCoeff
    for k in range(6):
        assert lhs.coefficient((k,)).equals(QTCoeff.from_qtf(f_fun(k, 0)))


def test_verify_okada_exact_small():
    report = verify_okada(build_shifted(P([2, 1])), 3, "exact")
    assert report.passed, report.to_dict()
    report = verify_okada(build_bird(P([2, 1]), P([2, 1]), 1), 3, "exact")
    assert report.passed, report.to_dict()


def test_verify_okada_eval_small():
    pts = sample_points(2, seed=11)
    report = verify_okada(build_shifted(P([3, 1])), 3, "eval", pts)
    assert report.passed, report.to_dict()


# f(1; 1) / f(1; 0) = (1 + t)(1 - q)/(1 - qt), a factor that moves a weight
CORRUPTION = (((1, 1), 1), ((1, 0), -1))


def test_corrupted_weight_fails_with_lowest_mismatch():
    poset = build_shifted(P([2, 1]))
    terms, degree = [], key_layout(len(poset.varset), 3).shift
    for counts, monos in lhs_terms(poset, 3):
        for mono in monos:
            bad = counts
            if mono >> degree == 1 and counts:
                bad = counts + CORRUPTION
            terms.append((bad, [mono]))
    lhs = lhs_series(poset, 3, EXACT, terms)
    rhs = rhs_series(poset, 3, EXACT)
    eq, mismatch = series_equals(lhs, rhs)
    assert not eq
    assert mismatch is not None
    # the corruption hits degree-1 monomials; the first mismatch is degree 1
    name = mismatch["monomial"]
    assert "^" not in name and "*" not in name


@pytest.mark.parametrize("poset, D", [
    (build_shifted(P([4, 2, 1])), 6),
    (build_bird(P([3, 2]), P([2, 1]), 2), 5),
    (build_banner(P([4, 3, 2, 1]), 2), 6),
], ids=["shifted", "bird", "banner"])
def test_lhs_groups_expand_to_the_weight_of_each_p_partition(poset, D):
    def key(mono, w):
        return mono, w.coeff, w.qexp, w.texp, tuple(sorted(w.factors.items()))

    groups, unpack = lhs_terms(poset, D), key_layout(len(poset.varset), D).unpack
    grouped = sorted(key(unpack(m), f_product(counts))
                     for counts, monos in groups for m in monos)
    single = sorted(key(poset.varset.monomial(z_monomial(poset, pi)),
                        weight_generic(poset, pi))
                    for pi in p_partitions(poset, D))
    assert grouped == single
    assert len(groups) < len(single) / 2


@pytest.mark.parametrize("poset, D", [
    (build_shifted(P([4, 2, 1])), 6),
    (build_bird(P([3, 2]), P([2, 1]), 2), 5),
    (build_banner(P([9, 6, 3, 2]), 2), 7),
], ids=["shifted", "bird", "banner"])
def test_lhs_groups_are_the_p_partitions_grouped_by_weight(poset, D):
    assert_lhs_groups_by_weight(poset, D)


def assert_lhs_groups_by_weight(poset, D):
    """The same groups, in the same order, as grouping each P-partition in
    enumeration order by its weight_generic weight."""
    def key(w):
        return w.coeff, w.qexp, w.texp, frozenset(w.factors.items())

    by_weight = {}
    for pi in p_partitions(poset, D):
        by_weight.setdefault(key(weight_generic(poset, pi)), []).append(
            poset.varset.monomial(z_monomial(poset, pi)))
    unpack = key_layout(len(poset.varset), D).unpack
    assert [(key(f_product(counts)), [unpack(m) for m in monos])
            for counts, monos in lhs_terms(poset, D)] == list(by_weight.items())


def strict_partitions(length, top, min_length=1):
    return st.sets(st.integers(1, top), min_size=min_length,
                   max_size=length).map(lambda s: P(sorted(s, reverse=True)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.builds(build_shifted, strict_partitions(3, 5)),
    st.builds(build_bird, strict_partitions(2, 4, 2),
              strict_partitions(2, 4, 2), st.integers(1, 2)),
    st.builds(build_banner, strict_partitions(4, 7, 4), st.integers(2, 3)),
), st.integers(0, 7))
def test_lhs_groups_by_weight_on_random_posets(poset, D):
    assert_lhs_groups_by_weight(poset, D)


def series_okada(poset, D, mode, points, seed):
    """(result, points, mismatch) of the series check: series_equals of
    lhs_series and rhs_series at each point, a vanishing point redrawn."""
    terms = hookformula.lhs_terms(poset, D)
    hooks = hookformula.hook_monomials(poset)
    used = []
    for pt, sides in resampled([None] if mode == "exact" else points, seed,
                               lambda pt: (lhs_series(poset, D, pt, terms),
                                           rhs_series(poset, D, pt, hooks))):
        if pt is not None:
            used.append([str(pt.q0), str(pt.t0)])
        equal, mismatch = series_equals(*sides)
        if not equal:
            return "fail", used, mismatch
    return "pass", used, None


@settings(max_examples=60, deadline=None)
@example(build_banner(P([4, 3, 2, 1]), 2), 6, "eval", "corrupt", 4)
@example(build_bird(P([3, 2]), P([2, 1]), 2), 5, "exact", "corrupt", 7)
@example(build_shifted(P([5, 3, 1])), 7, "exact", "drop", 0)
@example(build_shifted(P([3, 2])), 4, "eval", "drop", 3)
@example(build_shifted(P([3, 2])), 4, "exact", "omit", 0)
@given(st.one_of(
    st.builds(build_shifted, strict_partitions(3, 5)),
    st.builds(build_bird, strict_partitions(2, 3, 2),
              strict_partitions(2, 3, 2), st.integers(1, 2)),
    st.builds(build_banner, strict_partitions(4, 6, 4), st.integers(2, 3)),
), st.integers(1, 7), st.sampled_from(["exact", "eval"]),
   st.sampled_from([None, "corrupt", "omit", "drop"]), st.integers(0, 30))
def test_signature_check_agrees_with_the_series_check(poset, D, mode,
                                                      mutation, seed):
    # mode "eval" at a seeded pair of points; one left group's weight moved
    # by CORRUPTION, or the group left out, or the lowest hook dropped, or
    # none of these
    points = sample_points(2, seed) if mode == "eval" else None
    with pytest.MonkeyPatch.context() as mp:
        if mutation in ("corrupt", "omit"):
            real_terms = hookformula.lhs_terms

            def corrupted(poset, D):
                groups = real_terms(poset, D)
                i = seed % len(groups)
                counts, zs = groups.pop(i)
                if mutation == "corrupt":
                    groups.insert(i, (counts + CORRUPTION, zs))
                return groups
            mp.setattr(hookformula, "lhs_terms", corrupted)
        elif mutation == "drop":
            hooks = hookformula.hook_monomials(poset)
            del hooks[min(hooks, key=lambda e: sum(hooks[e].values()))]
            mp.setattr(hookformula, "hook_monomials", lambda *a: dict(hooks))
        report = verify_okada(poset, D, mode, points, seed)
        want = series_okada(poset, D, mode, points, seed)
    assert (report.result, report.points, report.mismatch) == want
    assert (mutation is None) == (report.result == "pass")


def test_lhs_keys_decode_negative_counts(monkeypatch):
    # shifted (3,2) at D = 6: some P-partitions divide by f(2; 0) more often
    # than they multiply by it, so a packed count is a negative digit
    poset, D = build_shifted(P([3, 2])), 6
    decoded = [frozenset(counts) for counts, _ in lhs_terms(poset, D)]
    seen = []  # the counts weight_generic hands f_product, but f(0; m) = 1
    monkeypatch.setattr(hookformula, "f_product", lambda counts: seen.append(
        frozenset(((n, m), c) for (n, m), c in counts if c and n)))
    for pi in p_partitions(poset, D):
        weight_generic(poset, pi)
    assert decoded == list(dict.fromkeys(seen))
    assert any(c < 0 for counts in decoded for _, c in counts)


def test_lhs_terms_asserts_that_partners_come_first(monkeypatch):
    poset = build_shifted(P([3, 1]))
    monkeypatch.setattr(hookformula, "fill_order",
                        lambda p: fill_order(p)[::-1])
    with pytest.raises(AssertionError, match="is filled after"):
        lhs_terms(poset, 3)


def test_eval_mismatch_text_is_the_exact_coefficient_at_the_point():
    poset = build_shifted(P([3, 2]))
    pt = EvalPoint(Fraction(-2, 3), Fraction(5, 7))
    terms, degree = [], key_layout(len(poset.varset), 4).shift
    for counts, monos in lhs_terms(poset, 4):
        for mono in monos:
            if mono >> degree == 2 and counts:
                counts = counts + CORRUPTION
            terms.append((counts, [mono]))
    exact = [lhs_series(poset, 4, EXACT, terms), rhs_series(poset, 4, EXACT)]
    eq, want = series_equals(*exact)
    assert not eq
    eq, got = series_equals(lhs_series(poset, 4, pt, terms),
                            rhs_series(poset, 4, pt))
    assert not eq and got["monomial"] == want["monomial"]
    mono = next(m for m, _ in sorted(exact[0].monomials())
                if mono_str(m, poset.varset) == want["monomial"])
    assert [got["lhs"], got["rhs"]] == \
        [str(side.coefficient(mono).evaluate(pt)) for side in exact]
    assert "/" in got["lhs"] and got["lhs"] != got["rhs"]


def test_eval_mode_evaluates_each_group_once_per_point(monkeypatch):
    poset = build_bird(P([3, 2]), P([2, 1]), 2)
    groups = {"left": [], "right": []}

    def recorded(side, terms):
        def record(*args):
            groups[side] = terms(*args)
            return groups[side]
        return record

    valued = {}  # point -> the counts valued there, in call order
    f_product_at = EvalPoint.f_product

    def counted(pt, counts):
        valued.setdefault(id(pt), []).append(counts)
        return f_product_at(pt, counts)

    monkeypatch.setattr(hookformula, "lhs_terms",
                        recorded("left", hookformula.lhs_terms))
    monkeypatch.setattr(hookformula, "f_product_terms",
                        recorded("right", hookformula.f_product_terms))
    monkeypatch.setattr(EvalPoint, "f_product", counted)
    report = verify_okada(poset, 5, "eval", sample_points(3, seed=2))
    assert report.passed and len(report.points) == 3
    left, right = ([counts for counts, _ in groups[side]]
                   for side in ("left", "right"))
    assert len(left) > 10 and len(right) > 10
    # every distinct group of either side is valued once per point
    assert len(set(left)) == len(left) and len(set(right)) == len(right)
    assert list(valued.values()) == 3 * [left + right]


def test_a_vanishing_point_is_replaced_as_the_series_check_replaces_it():
    # (1 - q^2 t) vanishes at (2, 1/4) and at (1/2, 4); the f-table meets
    # it in f(n; 0) from n = 3 on and the weights fall back to their net form
    poset = build_shifted(P([3, 2]))
    bad = [EvalPoint(2, Fraction(1, 4)), EvalPoint(Fraction(1, 2), 4)]
    for pt in bad:
        report = verify_okada(poset, 3, "eval", [pt], seed=3)
        assert report.passed and report.points == [["2/3", "3"]]
    report = verify_okada(poset, 3, "eval", bad, seed=3)
    assert report.passed and report.points == [["2/3", "3"], ["5/6", "3/7"]]


def dropped_hook_report(mode, points=None):
    """The hook check of shifted (3,2) at D=4 with its lowest-degree hook
    dropped from the right side: a negative control."""
    poset = build_shifted(P([3, 2]))
    hooks = hookformula.hook_monomials(poset)
    del hooks[min(hooks, key=lambda e: sum(hooks[e].values()))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hookformula, "hook_monomials", lambda *a, **k: hooks)
        return verify_okada(poset, 4, mode, points)


def test_dropped_hook_reports_are_pinned():
    report = dropped_hook_report("exact")
    assert report.result == "fail" and report.points == []
    assert report.mismatch == {"monomial": "z1", "lhs": "(1-t)/(1-q)",
                               "rhs": "(0)/(1)"}
    report = dropped_hook_report("eval", sample_points(2, 0))
    assert report.result == "fail" and report.points == [["6/5", "5/4"]]
    assert report.mismatch == {"monomial": "z1", "lhs": "5/4", "rhs": "0"}


def test_lhs_macdonald_form_shifted():
    poset = build_shifted(P([2, 1]))
    direct = lhs_series(poset, 3, EXACT)
    mac = lhs_macdonald_form(poset, 3)
    eq, info = series_equals(direct, mac)
    assert eq, info


def test_lhs_macdonald_form_bird():
    poset = build_bird(P([2, 1]), P([2, 1]), 1)
    direct = lhs_series(poset, 3, EXACT)
    mac = lhs_macdonald_form(poset, 3)
    eq, info = series_equals(direct, mac)
    assert eq, info


def test_rhs_macdonald_form_bird():
    poset = build_bird(P([2, 1]), P([2, 1]), 1)
    direct = rhs_series(poset, 3, EXACT)
    mac = rhs_macdonald_form(poset, 3)
    eq, info = series_equals(direct, mac)
    assert eq, info


def test_macdonald_forms_banner():
    poset = build_banner(P([4, 3, 2, 1]), 2)
    eq, info = series_equals(lhs_series(poset, 3, EXACT),
                             lhs_macdonald_form(poset, 3))
    assert eq, info
    eq, info = series_equals(rhs_series(poset, 3, EXACT),
                             rhs_macdonald_form(poset, 3))
    assert eq, info


KERNEL_POSETS = [
    build_shifted(P([3, 1])),
    build_shifted(P([5, 3, 1])),
    build_bird(P([3, 2]), P([2, 1]), 1),
    build_bird(P([3, 1]), P([3, 2]), 2),
    build_banner(P([5, 3, 2, 1]), 2),
    build_banner(P([6, 4, 3, 2]), 2),
]


@pytest.mark.parametrize("poset", KERNEL_POSETS, ids=[
    f"{p.family}-" + "-".join(str(v) for v in p.params.values())
    for p in KERNEL_POSETS])
def test_macdonald_forms_with_a_kernel(poset, monkeypatch):
    # alpha (and beta) are no staircase, so some complement part lies below
    # a part and the kernel is a true product of F; a constant 1 must fail
    def both_forms_agree():
        pairs = [(lhs_series(poset, 4, EXACT), lhs_macdonald_form(poset, 4))]
        if poset.family != "shifted":
            pairs.append((rhs_series(poset, 4, EXACT),
                          rhs_macdonald_form(poset, 4)))
        return [series_equals(direct, mac)[0] for direct, mac in pairs]

    assert all(both_forms_agree())
    monkeypatch.setattr(hookformula, "_kernel", lambda poset, al, trunc:
                        MultiSeries.constant(1, poset.varset, trunc))
    assert not any(both_forms_agree())


def test_macdonald_forms_notice_a_doubled_factor(monkeypatch):
    # negative control: each rewrite must really use b_el and f_fun
    monkeypatch.setattr(hookformula, "b_el", lambda lam: b_el(lam).scale(2))
    poset = build_shifted(P([2, 1]))
    eq, _ = series_equals(lhs_series(poset, 3, EXACT),
                          lhs_macdonald_form(poset, 3))
    assert not eq
    monkeypatch.undo()
    monkeypatch.setattr(hookformula, "f_fun", lambda n, m: f_fun(n, m).scale(2))
    for poset in (build_bird(P([2, 1]), P([2, 1]), 1),
                  build_banner(P([4, 3, 2, 1]), 2)):
        eq, _ = series_equals(rhs_series(poset, 3, EXACT),
                              rhs_macdonald_form(poset, 3))
        assert not eq, poset.family


def test_composition_warnaar_even_gives_product_form():
    # LHS-ShiftedShapes + Cor-Warnaar-even reproduces the hook product
    from qthook.dposet import _alias_tables, _mono_mul
    from qthook.hookformula import _kernel_f_args
    from qthook.series import product_of_f

    alpha = P([2, 1])
    poset = build_shifted(alpha)
    al = _alias_tables(poset)
    D = 3
    monos = poset.varset.monomial
    kernel = [monos(arg) for arg in _kernel_f_args(al["zt"], alpha, al["n"])]
    # product side of Cor-Warnaar-even at x_i = z~_{alpha_i}, w = w-alias
    r = alpha.length()
    product_side = [monos(al["zt"][alpha[i]]) for i in range(1, r + 1)]
    product_side += [monos(_mono_mul(_mono_mul(al["w"], al["zt"][alpha[i]]),
                                     al["zt"][alpha[j]]))
                     for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    out = (product_of_f(kernel, poset.varset, D, EXACT)
           * product_of_f(product_side, poset.varset, D, EXACT))
    eq, info = series_equals(out, rhs_series(poset, D, EXACT))
    assert eq, info


def test_worked_bird_example_from_figure():
    # the figure instance with beta = (4,2): trace form against the pair
    # product, horizon m = n = 4
    poset = build_bird(P([4, 3]), P([4, 2]), 2)
    count = 0
    for pi in p_partitions(poset, 3):
        w, mono = weight_via_traces(poset, pi, horizon=4)
        assert w.equals(weight_generic(poset, pi)), pi
        assert mono == z_monomial(poset, pi)
        count += 1
    assert count > 50


def test_okada_on_longer_tails():
    from qthook.qtcore import sample_points
    from qthook.dposet import build_banner

    pts = sample_points(2, 5)
    for poset in (build_bird(P([3, 2]), P([3, 1]), 3),
                  build_banner(P([5, 3, 2, 1]), 3)):
        report = verify_okada(poset, 3, "eval", pts, seed=5)
        assert report.passed, report.to_dict()


def test_okada_reports_the_replacement_point():
    # f(n; 0) carries (1 - q^2 t) from n = 3 on, which vanishes at (2, 1/4)
    poset = build_shifted(P([3, 2]))
    report = verify_okada(poset, 4, "eval", [EvalPoint(2, Fraction(1, 4))])
    assert report.passed, report.to_dict()
    assert len(report.points) == 1 and report.points[0] != ["2", "1/4"]


def test_weight_plan_is_built_once_per_poset(monkeypatch):
    built = []
    adjacency = ColoredPoset.top_tree_adjacency
    monkeypatch.setattr(ColoredPoset, "top_tree_adjacency",
                        lambda poset: built.append(poset) or adjacency(poset))
    poset = build_bird(P([3, 2]), P([2, 1]), 2)
    pis = list(p_partitions(poset, 4))
    for pi in pis:
        weight_generic(poset, pi)
    assert len(pis) > 20 and built == [poset]
    plan = poset._weight_plan
    assert isinstance(plan, tuple) and len(plan) == 3
    assert all(isinstance(pair, tuple) for part in plan for pair in part)
    assert all(isinstance(part, tuple) for part in plan)


@pytest.mark.parametrize("colors, message", [
    # the chain (1,1) > (1,2) > ...
    ({(1, 1): "z0", (1, 2): "z1", (1, 3): "z1"}, "odd-rank parity"),
    ({(1, 1): "z0", (1, 2): "z0"}, "hat parity"),
    # a diamond over (1,1), whose two upper covers keep it out of the top
    # tree, with the chain (2,2) below it in the same color
    ({(0, 0): "z0", (0, 1): "z1", (1, 0): "z2", (1, 1): "z3", (2, 2): "z3"},
     "even-rank parity"),
])
def test_weight_plan_rejects_a_wrong_coloring(colors, message):
    # one order block, colored against the d-complete rules
    poset = ColoredPoset("custom", {}, list(colors), lambda e: {1}, colors.get)
    with pytest.raises(AssertionError, match=message):
        weight_generic(poset, zero_pi(poset))


def test_phi_tilde_pair():
    from qthook.hookformula import phi_hat, phi_tilde
    from qthook.dposet import _alias_tables

    poset = build_bird(P([2, 1]), P([2, 1]), 1)
    al = _alias_tables(poset)
    rho = {0: 2, 1: 1}
    theta = {0: 2, 1: 4}
    value, mono = phi_tilde(rho, theta, 0, 1, al["xt"])
    assert value.equals(phi_hat(rho, theta, 0, 1))
    # x~_1 carries exponent rho1+theta1-rho0-theta0 = 1
    assert mono == {"zm1": 1}


# -- weight_generic against the pair walk it replaced --------------------------

def pair_walk_weight(poset, pi):
    """The generic weight one plan pair at a time, each pair's f-factors
    added as it comes: the reference weight_generic must reproduce."""
    adjacent, equal, hat = hookformula._weight_plan(poset)
    exps = {}
    for x, y, e in equal:
        n = pi[x] - pi[y]
        if n < 0:
            raise ZeroDivisionError(f"f({n}; {e}) = 0 divides")
        for m in (e, e - 1):
            for k, v in f_fun(n, m).factors.items():
                exps[k] = exps.get(k, 0) - v
    for x, y, m in adjacent:
        n = pi[x] - pi[y]
        if n < 0:
            return QTFactored.zero()
        for k, v in f_fun(n, m).factors.items():
            exps[k] = exps.get(k, 0) + v
    for x, m in hat:
        n = pi[x]
        if n < 0:
            return QTFactored.zero()
        for k, v in f_fun(n, m).factors.items():
            exps[k] = exps.get(k, 0) + v
    return QTFactored(1, 0, 0, exps)


def weight_outcome(weigh, poset, pi):
    try:
        w = weigh(poset, pi)
    except ZeroDivisionError:
        return "raises"
    return (w.coeff, w.qexp, w.texp, tuple(sorted(w.factors.items())))


WEIGHT_POSETS = [
    (build_shifted(P([3, 2])), 8),
    (build_shifted(P([4, 2, 1])), 7),
    (build_bird(P([3, 2]), P([2, 1]), 2), 6),
    (build_banner(P([4, 3, 2, 1]), 2), 7),
]


@pytest.mark.parametrize("poset, D", WEIGHT_POSETS,
                         ids=[p.family for p, _ in WEIGHT_POSETS])
def test_weight_generic_matches_the_pair_walk(poset, D):
    pis = list(p_partitions(poset, D))
    assert len(pis) > 50
    for pi in pis:
        assert weight_generic(poset, pi).factors == \
            pair_walk_weight(poset, pi).factors
        assert weight_outcome(weight_generic, poset, pi) == \
            weight_outcome(pair_walk_weight, poset, pi)
    # off P-partitions both give zero, or both raise ZeroDivisionError
    rng = random.Random(D)
    outcomes = set()
    for _ in range(300):
        pi = {e: rng.randint(0, 3) for e in poset.elements}
        got = weight_outcome(weight_generic, poset, pi)
        assert got == weight_outcome(pair_walk_weight, poset, pi)
        outcomes.add(got if got == "raises" or got[0] == 0 else "weight")
    assert {"raises", (0, 0, 0, ())} <= outcomes
