from fractions import Fraction

import pytest

from qthook.polyops import divexact_bipoly, gcd_bipoly
from qthook.qtcore import BiPoly

F = Fraction


def test_divexact_rational_divisor_non_integral_quotient():
    # (2/3) q (1 - t) / (3 (1 - t)) = (2/9) q
    p = BiPoly({(1, 0): F(2, 3), (1, 1): F(-2, 3)})
    d = BiPoly({(0, 0): F(3), (0, 1): F(-3)})
    quot = divexact_bipoly(p, d)
    assert quot == BiPoly({(1, 0): F(2, 9)})
    assert all(type(c) is Fraction for c in quot.terms.values())


def test_divexact_divisor_with_denominators():
    # (1 - q t)(3 + q) / ((1/2)(1 - q t)) = 6 + 2q
    d = BiPoly({(0, 0): F(1, 2), (1, 1): F(-1, 2)})
    p = BiPoly({(0, 0): F(1), (1, 1): F(-1)}) * BiPoly({(0, 0): F(3), (1, 0): F(1)})
    assert divexact_bipoly(p, d) == BiPoly({(0, 0): F(6), (1, 0): F(2)})
    assert divexact_bipoly(d, d) == BiPoly({(0, 0): F(1)})
    assert divexact_bipoly(BiPoly(), d) == BiPoly()


@pytest.mark.parametrize("p, d", [
    (BiPoly({(0, 0): F(1), (0, 1): F(1)}), BiPoly({(0, 0): F(1), (0, 1): F(-1)})),
    (BiPoly({(0, 0): F(1), (2, 0): F(1)}), BiPoly({(1, 0): F(1)})),
    (BiPoly({(0, 0): F(1)}), BiPoly({(0, 1): F(2, 3)})),
])
def test_divexact_inexact_raises(p, d):
    with pytest.raises(ArithmeticError):
        divexact_bipoly(p, d)


def test_divexact_zero_divisor_raises():
    with pytest.raises(ZeroDivisionError):
        divexact_bipoly(BiPoly({(1, 0): F(1)}), BiPoly())
    with pytest.raises(ZeroDivisionError):
        divexact_bipoly(BiPoly(), BiPoly())


def test_gcd_with_zero_is_the_other_operand():
    p = BiPoly({(0, 0): F(1), (1, 1): F(-1, 2)})
    assert gcd_bipoly(p, BiPoly()) == p
    assert gcd_bipoly(BiPoly(), p) == p
