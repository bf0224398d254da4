"""One negative-control table: every check of ``verify all`` can fail.

A check that cannot fail is a pass that checked nothing.  Each row applies
one mutation to the code a check relies on and asserts that the check's
report ends in "fail" (mutation analysis: DeMillo, Lipton & Sayward, "Hints
on test data selection", IEEE Computer, 1978).  No mutation scales both
sides of an identity alike: such a factor can cancel and leave a check
blind.  The skew cache is emptied before and after each row, so every skew
polynomial a row builds carries the mutation and none outlives it.
"""

from fractions import Fraction

import pytest

from qthook import hookformula, hypergeom, macdonald, suites
from qthook.partitions import EMPTY, Partition
from qthook.qtcore import QTFactored


def _scaled(module, attr, factor):
    """``module.attr`` with its value multiplied by ``factor``."""
    real = getattr(module, attr)
    return lambda mp: mp.setattr(module, attr,
                                 lambda *args: real(*args) * factor)


def _drop_last_rhs_summand(mp):
    """The sums of ``hypergeom`` lose their last RHS summand (``hookformula``
    keeps its own ``bounded_tuples`` binding)."""
    real = hypergeom.bounded_tuples
    mp.setattr(hypergeom, "bounded_tuples",
               lambda *args, **kw: real(*args, **kw)[:-1])


def _drop_last_kernel_factor(mp):
    real = macdonald.product_of_f
    mp.setattr(macdonald, "product_of_f",
               lambda monos, *rest: real(monos[:-1], *rest))


def _double_q_of_one_box(mp):
    real = macdonald.skew_q

    def doubled(lam, mu, n):
        out = real(lam, mu, n)
        one_box = (lam, mu) == (Partition([1]), EMPTY)
        return out.scale(QTFactored(2)) if one_box else out

    mp.setattr(macdonald, "skew_q", doubled)


def _drop_lowest_hook(mp):
    real = hookformula.hook_monomials

    def dropped(poset):
        hooks = dict(real(poset))
        del hooks[min(hooks, key=lambda e: sum(hooks[e].values()))]
        return hooks

    mp.setattr(hookformula, "hook_monomials", dropped)


def _corrupt_one_lhs_group(mp):
    """One weight group of the left side times f(1; 0) = (1 - t)/(1 - q),
    which is 1 at no sample point (they have q0 != t0)."""
    real = hookformula.lhs_terms

    def corrupted(poset, trunc):
        groups = real(poset, trunc)
        counts, keys = groups[-1]
        groups[-1] = (counts + (((1, 0), 1),), keys)
        return groups

    mp.setattr(hookformula, "lhs_terms", corrupted)


TWO = QTFactored(2)

# identity -> the one mutation that must turn its report to "fail"
IDENTITY_MUTATIONS = {
    # rhs = prefactor * w_series, so this scales one side by 9/8
    "gasper": _scaled(hypergeom, "w_series", Fraction(9, 8)),
    "lemma": _scaled(hypergeom, "phi_chain", TWO),
    "general": _drop_last_rhs_summand,
    "birds-final": _scaled(hypergeom, "phi_chain", TWO),
    "banners-final": _drop_last_rhs_summand,
    "pieri": _scaled(macdonald, "phi_skew", TWO),
    "cauchy": _drop_last_kernel_factor,
    # scales every P_lam, both sides of the rule alike: the Gram-Schmidt
    # anchor is what fails
    "branching": _scaled(macdonald, "psi_skew", TWO),
    "qp-lemma": _double_q_of_one_box,
    "gmacmahon": _drop_last_kernel_factor,
    "partition-sum": _double_q_of_one_box,
    "warnaar-oa": _scaled(macdonald, "b_oa", TWO),
    "warnaar-el": _scaled(macdonald, "b_el", TWO),
    "warnaar-odd": _scaled(macdonald, "b_el", TWO),
    "warnaar-even": _scaled(macdonald, "b_el", TWO),
}

# family -> its first desk instance (exact mode), and its first eval one,
# each of which must fail without its lowest hook
HOOK_CASES, EVAL_HOOK_CASES = {}, {}
for case in suites.DESK_HOOKS:
    (EVAL_HOOK_CASES if case[-1] == "eval" else HOOK_CASES).setdefault(
        case[0], case)


@pytest.fixture
def cold_skew_cache():
    macdonald._skew_cached.cache_clear()
    yield
    macdonald._skew_cached.cache_clear()


def test_every_identity_has_a_row():
    assert sorted(IDENTITY_MUTATIONS) == sorted(suites.IDENTITY_NAMES)


@pytest.mark.parametrize("name", IDENTITY_MUTATIONS)
def test_identity_fails_under_its_mutation(name, monkeypatch, cold_skew_cache):
    IDENTITY_MUTATIONS[name](monkeypatch)
    report = suites.run_identity(name)
    assert report.result == "fail", report.to_dict()


def _run_desk_hook(case):
    family, alpha, beta, f, degree, mode = case
    return suites.run_hook(family, Partition.parse(alpha),
                           Partition.parse(beta) if beta else None,
                           f, degree, mode, 3, 0)


def test_every_family_has_a_row_in_each_mode():
    assert sorted(HOOK_CASES) == sorted(EVAL_HOOK_CASES) == \
        ["banner", "bird", "shifted"]


@pytest.mark.parametrize("family", HOOK_CASES)
def test_hook_fails_without_its_lowest_hook(family, monkeypatch):
    _drop_lowest_hook(monkeypatch)
    report = _run_desk_hook(HOOK_CASES[family])
    assert report.result == "fail", report.to_dict()


@pytest.mark.parametrize("family", EVAL_HOOK_CASES)
def test_eval_hook_fails_without_its_lowest_hook(family, monkeypatch):
    _drop_lowest_hook(monkeypatch)
    report = _run_desk_hook(EVAL_HOOK_CASES[family])
    assert report.result == "fail", report.to_dict()


@pytest.mark.parametrize("mode", ["exact", "eval"])
def test_hook_fails_with_one_left_group_corrupted(mode, monkeypatch):
    _corrupt_one_lhs_group(monkeypatch)
    report = _run_desk_hook((HOOK_CASES if mode == "exact"
                             else EVAL_HOOK_CASES)["banner"])
    assert report.result == "fail", report.to_dict()
