"""Every argument guard a public function checks itself raises, with its
message, on a bad argument: one row per guard."""

import pytest

from qthook import hookformula, hypergeom, macdonald, qtcore, series, suites
from qthook.dposet import (ColoredPoset, build_family, build_shifted,
                           hook_monomials_closed_form)
from qthook.partitions import Partition as P


def _poset(colors, family="custom"):
    """A one-block poset on the cells of ``colors`` (cell -> color)."""
    return ColoredPoset(family, {"alpha": P([1])}, list(colors),
                        lambda e: {1}, colors.get)


ONE_CELL = {(1, 1): "z0"}
S = series.VarSet(["x", "y"])

GUARDS = [  # (call, exception, message)
    (lambda: build_family("hexagon", P([1])), ValueError, "unknown family"),
    (lambda: _poset({(1, 1): "z0", (2, 0): "z0"}), ValueError,
     "2 maximal elements"),
    # (1,2) is covered by (0,2) at rank 2 and by (1,0) at rank 1
    (lambda: _poset(dict.fromkeys([(0, 0), (0, 1), (0, 2), (1, 0), (1, 2)],
                                  "z0")), ValueError, "rank is not well"),
    (lambda: hook_monomials_closed_form(_poset(ONE_CELL)), ValueError,
     "no closed form"),
    (lambda: hookformula.weight_closed_form(_poset(ONE_CELL), {}), ValueError,
     "no closed form"),
    (lambda: hookformula.epsilon_seq(P([3, 1]), 2), ValueError, "n >= alpha_1"),
    (lambda: hookformula.bracket_psi([P([1])], (1,)), ValueError,
     "chain length"),
    (lambda: hookformula.bracket_psi([P([1]), P([2])], (1,)), ValueError,
     "not compatible with eps at step 1"),
    (lambda: hookformula.bracket_phi([P([2]), P([1])], (-1,)), ValueError,
     "not compatible with eps at step 1"),
    (lambda: hookformula.rhs_macdonald_form(build_shifted(P([2, 1])), 2),
     ValueError, "no Macdonald RHS"),
    (lambda: hookformula.verify_okada(build_shifted(P([1])), 1, "eval"),
     ValueError, "eval mode requires points"),
    (lambda: hypergeom.general_both_sides(1, 1, 2, 1, 3, [0]), ValueError,
     "k0 <= rho0"),
    (lambda: hypergeom.general_both_sides(1, 2, 0, 1, 1, [0]), ValueError,
     "gamma must have length n"),
    (lambda: hypergeom.birds_final_both_sides(2, 1, 1, [0]), ValueError,
     "rho0 <= theta0"),
    (lambda: hypergeom.birds_final_both_sides(0, 1, 2, [0]), ValueError,
     "r must have length f"),
    (lambda: hypergeom.banners_final_both_sides(P([1] * 5), 2, [0]),
     ValueError, "at most 4 parts"),
    (lambda: hypergeom.banners_final_both_sides(P([1]), 2, []), ValueError,
     "r must have length f - 1"),
    (lambda: macdonald.skew_p(P([1]), P([2]), 2), ValueError,
     "is not contained"),
    (lambda: macdonald.structure_constants(P([1]), P([1]), 1), ValueError,
     "l\\(mu\\) \\+ l\\(nu\\)"),
    (lambda: macdonald.gram_p(P([7]), 1), ValueError, "budget"),
    (lambda: macdonald.gram_p(P([1, 1]), 1), ValueError, "l\\(lam\\) <= n"),
    (lambda: macdonald.pieri_check(P([1, 1]), 1, 1, "phi"), ValueError,
     "l\\(mu\\) <= n"),
    (lambda: macdonald.pieri_check(P([1]), 1, 2, "chi"), ValueError,
     "unknown Pieri kind"),
    (lambda: macdonald.warnaar_check("oa", 0, 2), ValueError, "n >= 1"),
    (lambda: macdonald.warnaar_check("odd-legs", 1, 2), ValueError,
     "unknown variant"),
    (lambda: qtcore.f_fun(1, -1), ValueError, "m >= 0"),
    (lambda: qtcore.QTFactored.zero().inverse(), ZeroDivisionError,
     "inverse of zero"),
    (lambda: qtcore.phi_chain({0: 1, 1: 2}, {0: 3, 1: 4}, 0, 1), ValueError,
     "rho must decrease"),
    (lambda: qtcore.phi_chain({0: 2, 1: 1}, {0: 4, 1: 3}, 0, 1), ValueError,
     "theta must increase"),
    (lambda: qtcore.phi_chain({0: 5, 1: 1}, {0: 4, 1: 6}, 0, 1), ValueError,
     "rho_m <= theta_m"),
    (lambda: series.VarSet(["x", "x"]), ValueError, "duplicate"),
    (lambda: series.MultiSeries.constant(1, S, 3).shift_monomial((-1, 0)),
     ValueError, "drives \\(0, 0\\) negative"),
    (lambda: series.series_f((2, -1), S, 3), ValueError, "nonnegative"),
    (lambda: P([1])[0], IndexError, "1-indexed"),
    (lambda: P([2, 1]).sub_rectangle(2, 2), ValueError, "cannot remove"),
    (lambda: suites.run_identity("hexagon"), ValueError, "unknown identity"),
]


@pytest.mark.parametrize("call, exc, message", GUARDS,
                         ids=[f"guard{i}" for i in range(len(GUARDS))])
def test_argument_guard_raises(call, exc, message):
    with pytest.raises(exc, match=message):
        call()
