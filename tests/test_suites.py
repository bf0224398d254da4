"""The failure path of the identity sweeps behind ``qthook verify identity``.

Each sweep's underlying check is forced to fail at its k-th call.  The
report must name that case in its mismatch, and the sweep must stop there.
"""

import itertools
import json

import pytest

from qthook import hypergeom, macdonald, suites
from qthook.qtcore import QTFactored

# identity -> (module, name of the check it runs per case)
CHECKS = {
    "lemma": (hypergeom, "lemma_check"),
    "general": (hypergeom, "general_check"),
    "birds-final": (hypergeom, "birds_final_check"),
    "banners-final": (hypergeom, "banners_final_check"),
    "pieri": (macdonald, "pieri_check"),
    "cauchy": (macdonald, "cauchy_check"),
    "branching": (macdonald, "branching_check"),
    "qp-lemma": (macdonald, "qp_lemma_check"),
    "gmacmahon": (macdonald, "gmacmahon_check"),
    "partition-sum": (macdonald, "partition_sum_check"),
    "warnaar-oa": (macdonald, "warnaar_check"),
    "warnaar-el": (macdonald, "warnaar_check"),
    "warnaar-odd": (macdonald, "warnaar_check"),
    "warnaar-even": (macdonald, "warnaar_check"),
}

# The hypergeom checks return a bool; the macdonald ones (ok, info), and a
# forced failure's info is {"call": k, "args": repr(args)}.
# (identity, k, mismatch as JSON, calls made); seed 3.
FORCED = [
    ("lemma", 1, {"params": [0, 0, 0, 0, 0]}, 1),
    ("lemma", 2, {"params": [0, 0, 0, 0, 1]}, 2),
    ("general", 1, {"params": [0, 0, 0, 0, 0, []]}, 1),
    ("general", 2, {"params": [0, 0, 0, 0, 1, []]}, 2),
    ("birds-final", 1, {"params": [0, 0, 1, [1]]}, 1),
    ("birds-final", 2, {"params": [0, 1, 1, [1]]}, 2),
    ("banners-final", 1, {"params": [[0, 0, 0, 0], [1]]}, 1),
    ("banners-final", 2, {"params": [[1, 1, 0, 0], [1]]}, 2),
    ("pieri", 1, {"args": "(Partition([]), 0, 4, 'phi')", "call": 1}, 1),
    ("pieri", 2, {"args": "(Partition([]), 1, 4, 'phi')", "call": 2}, 2),
    ("cauchy", 1, {"args": "(2, 2, 4)", "call": 1}, 1),
    ("cauchy", 2, None, 1),  # one case only: the sweep passes
    ("branching", 1, {"args": "(Partition([]), 2, 1)", "call": 1, "lam": ""},
     1),
    ("branching", 2,
     {"args": "(Partition([1]), 2, 1)", "call": 2, "lam": "1"}, 2),
    ("qp-lemma", 1, {"args": "(Partition([]), Partition([]), 2, 2, 3)",
                     "call": 1, "mu": "", "nu": ""}, 1),
    ("qp-lemma", 2, {"args": "(Partition([]), Partition([1]), 2, 2, 3)",
                     "call": 2, "mu": "", "nu": "1"}, 2),
    ("gmacmahon", 1,
     {"args": "(2, Partition([]), Partition([]), ([1, 1], [1, 1]), 3)",
      "call": 1, "mu0": "", "muT": ""}, 1),
    ("gmacmahon", 2,
     {"args": "(2, Partition([]), Partition([1]), ([1, 1], [1, 1]), 3)",
      "call": 2, "mu0": "", "muT": "1"}, 2),
    ("partition-sum", 1, {"args": "((1,), Partition([]), Partition([]), [1], 3)",
                          "call": 1, "eps": [1]}, 1),
    ("partition-sum", 2,
     {"args": "((1,), Partition([]), Partition([1]), [1], 3)",
      "call": 2, "eps": [1]}, 2),
    ("warnaar-oa", 1, {"args": "('oa', 1, 4)", "call": 1}, 1),
    ("warnaar-oa", 2, {"args": "('oa', 2, 4)", "call": 2}, 2),
    ("warnaar-el", 1, {"args": "('el', 1, 4)", "call": 1}, 1),
    ("warnaar-el", 2, {"args": "('el', 2, 4)", "call": 2}, 2),
    ("warnaar-odd", 1, {"args": "('odd', 1, 4)", "call": 1}, 1),
    ("warnaar-odd", 2, {"args": "('odd', 2, 4)", "call": 2}, 2),
    ("warnaar-even", 1, {"args": "('even', 1, 4)", "call": 1}, 1),
    ("warnaar-even", 2, {"args": "('even', 2, 4)", "call": 2}, 2),
]


def _fail_at(monkeypatch, module, attr, k, failure):
    """Patch ``module.attr`` to return ``failure(args)`` at its k-th call and
    to run the real check otherwise; returns the call counter."""
    real = getattr(module, attr)
    calls = [0]

    def forced(*args, **kwargs):
        calls[0] += 1
        if calls[0] == k:
            return failure(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, forced)
    return calls


def _mismatch_json(report):
    return json.loads(json.dumps(report.to_dict()))["mismatch"]


def test_forced_cases_cover_every_sweep():
    assert {name for name, *_ in FORCED} == set(CHECKS)
    assert set(CHECKS) == set(suites.IDENTITY_NAMES) - {"gasper"}


@pytest.mark.parametrize("name, k, mismatch, calls", FORCED,
                         ids=[f"{n}-k{k}" for n, k, *_ in FORCED])
def test_sweep_stops_at_first_failure(name, k, mismatch, calls, monkeypatch):
    module, attr = CHECKS[name]
    if module is hypergeom:
        failure = lambda args: False  # noqa: E731
    else:
        failure = lambda args: (False, {"call": k, "args": repr(args)})  # noqa: E731
    counter = _fail_at(monkeypatch, module, attr, k, failure)
    report = suites.run_identity(name, seed=3)
    assert report.check == name
    assert report.result == ("pass" if mismatch is None else "fail")
    assert _mismatch_json(report) == mismatch
    assert counter[0] == calls


@pytest.mark.parametrize("name", ["birds-final", "banners-final"])
def test_b_ratio_display_failure(name, monkeypatch):
    counter = _fail_at(monkeypatch, hypergeom, "b_ratio_checks", 1,
                       lambda args: False)
    report = suites.run_identity(name, seed=3)
    assert report.result == "fail"
    assert _mismatch_json(report) == {"params": "b-ratio display"}
    assert counter[0] == 1


# A b-ratio that is wrong on some shapes ends both closing identities in a
# fail.  A uniform scaling of b_el would leave the check blind: the display
# is a ratio of two b_el values, so the factor cancels.  The birds display
# compares b_lambda with its f-ratio form, and a mutation of either side
# reaches it.
B_RATIO_MUTATIONS = [("b_lambda", lambda lam: QTFactored.binomial(1, 1, lam[2])),
                     ("b_lambda_f_form",
                      lambda lam: QTFactored.binomial(1, 1, lam[2])),
                     ("b_el", lambda lam: QTFactored.binomial(1, 0, lam[4]))]


@pytest.mark.parametrize("name", ["birds-final", "banners-final"])
@pytest.mark.parametrize("attr, factor", B_RATIO_MUTATIONS,
                         ids=[attr for attr, _ in B_RATIO_MUTATIONS])
def test_b_ratio_display_fails_on_a_wrong_b(name, attr, factor, monkeypatch):
    real = getattr(hypergeom, attr)
    monkeypatch.setattr(hypergeom, attr, lambda lam: real(lam) * factor(lam))
    report = suites.run_identity(name, seed=3)
    assert report.result == "fail"
    assert _mismatch_json(report) == {"params": "b-ratio display"}


# Negative controls: doubling a coefficient the check relies on must turn the
# sweep's report to "fail".  A first, unmutated run fills the skew cache, so
# every skew polynomial keeps its real coefficients and none built with the
# doubled one outlives the test.
MUTATIONS = [("pieri", "phi_skew"), ("pieri", "psi_skew"),
             ("warnaar-oa", "b_oa"), ("warnaar-el", "b_el"),
             ("warnaar-odd", "b_el"), ("warnaar-even", "b_el")]


@pytest.mark.parametrize("name, attr", MUTATIONS,
                         ids=[f"{n}-{a}" for n, a in MUTATIONS])
def test_sweep_fails_on_a_doubled_coefficient(name, attr, monkeypatch):
    assert suites.run_identity(name).result == "pass"
    misses = macdonald._skew_cached.cache_info().misses
    real = getattr(macdonald, attr)
    monkeypatch.setattr(macdonald, attr,
                        lambda *args: real(*args) * QTFactored(2))
    report = suites.run_identity(name)
    assert report.result == "fail"
    assert report.mismatch is not None
    assert macdonald._skew_cached.cache_info().misses == misses


def test_pieri_fails_on_a_scaled_p_basis(monkeypatch):
    """With psi_skew doubled and a cold skew cache every P_lam is scaled, so
    the P-basis expansion meets a leading coefficient other than 1: the sweep
    reports a fail, not an internal error."""
    real = macdonald.psi_skew
    monkeypatch.setattr(macdonald, "psi_skew",
                        lambda *args: real(*args) * QTFactored(2))
    macdonald._skew_cached.cache_clear()
    try:
        report = suites.run_identity("pieri")
    finally:
        macdonald._skew_cached.cache_clear()  # no scaled polynomial outlives it
    assert report.result == "fail"
    # the first case already fails: P_() is 2^4 in four variables
    assert _mismatch_json(report) == {
        "lam": "", "mu": "", "r": 0, "kind": "phi",
        "reason": "P_lam has a leading coefficient other than 1"}


def _drop_last_rhs_summand(monkeypatch):
    """The sums of ``hypergeom`` lose their last RHS summand (``hookformula``
    keeps its own ``bounded_tuples`` binding)."""
    real = hypergeom.bounded_tuples
    monkeypatch.setattr(hypergeom, "bounded_tuples",
                        lambda *args, **kw: real(*args, **kw)[:-1])


@pytest.mark.parametrize("name", ["lemma", "general", "birds-final",
                                  "banners-final"])
def test_sweep_fails_without_its_last_rhs_summand(name, monkeypatch):
    _drop_last_rhs_summand(monkeypatch)
    assert suites.run_identity(name).result == "fail"


def test_every_general_case_fails_without_its_last_rhs_summand(monkeypatch):
    _drop_last_rhs_summand(monkeypatch)
    cases = [(m, n, k0, rho0, theta0, list(gamma))
             for m in range(3) for n in (1, 2)
             for k0, rho0, theta0 in itertools.combinations_with_replacement(range(3), 3)
             if k0 < rho0
             for gamma in itertools.product(range(4), repeat=n)]
    assert len(cases) == 240
    assert not any(hypergeom.general_check(*case) for case in cases)
