"""Exact arithmetic layer: polynomials and rational functions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_spectra.exact import (
    Polynomial,
    RationalFunction,
    poly_gcd,
    square_free_part,
)

F = Fraction
X = Polynomial.x()


def poly(*coeffs):
    return Polynomial(coeffs)


class TestPolynomial:
    def test_derivative_power_rule(self):
        assert poly(-1, 0, 1).derivative() == poly(0, 2)

    def test_product_difference_of_squares(self):
        assert poly(-1, 1) * poly(1, 1) == poly(-1, 0, 1)

    def test_eval_at_root(self):
        assert poly(0, -2, 0, 1)(F(0)) == 0

    def test_derivative_of_constant(self):
        assert poly(7).derivative() == Polynomial.zero()

    def test_eval_exact_fraction(self):
        assert poly(1, 1)(F(1, 2)) == F(3, 2)

    def test_divmod(self):
        q, r = poly(-1, 0, 0, 1).divmod(poly(-1, 1))
        assert q == poly(1, 1, 1)
        assert r == Polynomial.zero()

    def test_pow(self):
        assert poly(0, 1) ** 3 == poly(0, 0, 0, 1)

    def test_zero_handling(self):
        assert poly(0, 0).is_zero()
        assert poly().degree == -1

    def test_str(self):
        assert str(poly(-1, 0, 1)) == "x^2 - 1"


class TestGcd:
    def test_common_factor(self):
        assert poly_gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)

    def test_coprime(self):
        assert poly_gcd(poly(-1, 0, 1), poly(1, 0, 1)) == Polynomial.one()

    def test_euclidean_steps(self):
        # x^3 - 2x = x (x^2 - 2), so the gcd with x^2 - 2 is x^2 - 2
        assert poly_gcd(poly(0, -2, 0, 1), poly(-2, 0, 1)) == poly(-2, 0, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Polynomial.zero(), Polynomial.zero())

    def test_square_free_part(self):
        p = poly(-1, 1) ** 3 * poly(1, 1)
        assert square_free_part(p) == (poly(-1, 1) * poly(1, 1)).monic()


small_polys = st.builds(
    Polynomial,
    st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=9),
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


@settings(max_examples=60, deadline=None)
@given(p=small_polys, q=small_polys, r=nonzero_polys)
def test_gcd_multiplicative(p, q, r):
    if p.is_zero() and q.is_zero():
        return
    lhs = poly_gcd(p * r, q * r)
    rhs = (r * poly_gcd(p, q)).monic()
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(p=nonzero_polys, q=nonzero_polys)
def test_log_derivative_additive(p, q):
    f = RationalFunction(p)
    g = RationalFunction(q)
    assert (f * g).log_derivative() == f.log_derivative() + g.log_derivative()


@settings(max_examples=60, deadline=None)
@given(p=small_polys, q=nonzero_polys)
def test_canonical_form_idempotent(p, q):
    f = RationalFunction(p, q)
    again = RationalFunction(f.num, f.den)
    assert f == again
    assert f.den.is_zero() or f.den.leading() == 1


tiny_polys = st.builds(
    Polynomial,
    st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=4),
)


def _at(p: Polynomial, f: RationalFunction) -> RationalFunction:
    acc = RationalFunction(Polynomial.zero())
    for c in reversed(p.coeffs):
        acc = acc * f + RationalFunction(Polynomial.constant(c))
    return acc


@settings(max_examples=60, deadline=None)
@given(p=tiny_polys, q=tiny_polys, r=tiny_polys, s=tiny_polys)
def test_compose_matches_horner_in_rational_functions(p, q, r, s):
    # homogeneous composition must give the canonical form of num(g) / den(g)
    # whatever the degrees of the outer numerator and denominator
    if q.is_zero() or s.is_zero():
        return
    outer, inner = RationalFunction(p, q), RationalFunction(r, s)
    den_at = _at(outer.den, inner)
    if den_at.is_zero():
        with pytest.raises(ZeroDivisionError):
            outer.compose(inner)
        return
    assert outer.compose(inner) == _at(outer.num, inner) / den_at


class TestRationalFunction:
    def test_reciprocal(self):
        f = RationalFunction(poly(0, 1), poly(-1, 0, 1))  # z / (z^2 - 1)
        assert f.reciprocal() == RationalFunction(poly(-1, 0, 1), poly(0, 1))

    def test_add_partial_fractions(self):
        f = RationalFunction(Polynomial.one(), poly(-1, 1))
        g = RationalFunction(Polynomial.one(), poly(1, 1))
        assert f + g == RationalFunction(poly(0, 2), poly(-1, 0, 1))

    def test_derivative_quotient_rule(self):
        f = RationalFunction(poly(0, 1), poly(-4, 0, 1))  # z / (z^2 - 4)
        expected = RationalFunction(poly(-4, 0, -1), poly(-4, 0, 1) ** 2)
        assert f.derivative() == expected

    def test_compose_involution(self):
        inv = RationalFunction(Polynomial.one(), poly(0, 1))
        assert inv.compose(inv) == RationalFunction.x()

    def test_compose_hand_expansion(self):
        outer = RationalFunction(poly(-1, 0, 1))  # y^2 - 1
        inner = RationalFunction(poly(-1, 0, 1), poly(0, 1))  # (z^2-1)/z
        expected = RationalFunction(poly(1, 0, -3, 0, 1), poly(0, 0, 1))
        assert outer.compose(inner) == expected

    def test_compose_identity(self):
        f = RationalFunction(poly(1, 2), poly(-3, 0, 1))
        assert f.compose(RationalFunction.x()) == f

    def test_compose_geometric(self):
        # f(t) = t/(1-t) composed with itself: t/(1-2t)
        f = RationalFunction(poly(0, 1), poly(1, -1))
        assert f.compose(f) == RationalFunction(poly(0, 1), poly(1, -2))

    def test_compose_pole_at_constant(self):
        outer = RationalFunction(Polynomial.one(), poly(-1, 1))  # 1/(z-1)
        with pytest.raises(ZeroDivisionError):
            outer.compose(RationalFunction(Polynomial.constant(1)))

    def test_log_derivative_of_poly(self):
        f = RationalFunction(poly(-1, 0, 1))
        assert f.log_derivative() == RationalFunction(poly(0, 2), poly(-1, 0, 1))

    def test_log_derivative_zg(self):
        # z * G for G = z/(z^2 - N), N = 4: log-derivative is 2/z - 2z/(z^2-4)
        g = RationalFunction(poly(0, 1), poly(-4, 0, 1))
        zg = RationalFunction.x() * g
        two_over_z = RationalFunction(poly(2), poly(0, 1))
        expected = two_over_z - RationalFunction(poly(0, 2), poly(-4, 0, 1))
        assert zg.log_derivative() == expected

    def test_log_derivative_constant(self):
        assert RationalFunction(poly(5)).log_derivative() == RationalFunction(poly())

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(poly(1)) / RationalFunction(poly())

    def test_json_round_trip(self):
        f = RationalFunction(poly(F(1, 2), 1), poly(-1, 0, 1))
        assert RationalFunction.from_json(f.to_json()) == f
