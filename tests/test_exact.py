"""Exact arithmetic layer: polynomials and rational functions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_spectra import exact
from cyclic_spectra.exact import (
    Polynomial,
    RationalFunction,
    homogeneous_compose,
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

    def test_pow(self):
        assert poly(0, 1) ** 3 == poly(0, 0, 0, 1)

    def test_zero_handling(self):
        assert poly(0, 0).is_zero()
        assert poly().degree == -1

    def test_str(self):
        assert str(poly(-1, 0, 1)) == "x^2 - 1"

    def test_integral_content_is_an_int(self):
        half = poly(F(3, 2), F(1, 2))
        assert type(half._content) is Fraction and half._content == F(1, 2)
        # Fraction contents whose product, scale or quotient is integral
        for p in (half * poly(2, 4), half.scale(2), poly(F(4, 2), F(6, 1)), half.monic()):
            assert type(p._content) is int
        assert type(Polynomial.zero()._content) is int

    def test_int_and_fraction_inputs_compare_and_hash_equal(self):
        a, b = poly(2, 0, 4), poly(F(2), F(0), F(8, 2))
        assert a == b and hash(a) == hash(b)
        assert type(b._content) is int
        # the same polynomial reached through a non-integral content
        c = poly(F(1, 3), 0, F(2, 3)).scale(6)
        assert c == a and hash(c) == hash(a)

    def test_reads_are_fractions_on_integer_content(self):
        # so that dividing a read coefficient by an int stays exact
        p = poly(3, 0, 2)
        assert type(p._content) is int
        assert all(type(c) is Fraction for c in p.coeffs)
        assert type(p.leading()) is Fraction
        assert p.leading() / 4 == F(1, 2) and type(p.leading() / 4) is Fraction


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


def _reference_divmod(a, b):
    """Long division of Fraction coefficient lists, constant term first."""
    a, q = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _reference_poly_gcd(p, q):
    """Monic gcd by the Euclidean algorithm over the rationals."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd undefined for two zero polynomials")
    a, b = list(p.coeffs), list(q.coeffs)
    while b:
        a, b = b, _reference_divmod(a, b)[1]
    return Polynomial(c / a[-1] for c in a)


def _first_prime():
    return next(exact._primes_below(exact._PRIME_LIMIT))


def _primes_used(monkeypatch):
    """Record every prime that poly_gcd draws."""
    drawn, primes_below = [], exact._primes_below

    def spy(limit):
        for prime in primes_below(limit):
            drawn.append(prime)
            yield prime

    monkeypatch.setattr(exact, "_primes_below", spy)
    return drawn


def test_interleaved_prime_generators_read_the_sieve(monkeypatch):
    # two generators share one list that grows lazily: whichever reads past
    # its end extends it, and both must give every prime 3 mod 4 in range
    limit = 1 << 12
    composite = set()
    for d in range(2, 64):
        composite.update(range(d * d, limit, d))
    expected = [q for q in range(limit - 1, limit // 2, -4) if q not in composite]
    monkeypatch.setattr(exact, "_PRIMES", {})
    a, b = exact._primes_below(limit), exact._primes_below(limit)
    got_a = list(itertools.islice(a, 3))
    got_b = list(itertools.islice(b, 5))
    got_a += list(itertools.islice(a, 4))
    got_b += list(b)
    got_a += list(a)
    assert got_a == got_b == expected == exact._PRIMES[limit]


class TestModularGcd:
    def test_both_leading_coefficients_divisible_by_the_first_prime(self, monkeypatch):
        # modulo p both factors p x + 1 vanish to constants, so the images
        # x + 2 and x + 3 are coprime; p divides gamma and must be skipped
        p = _first_prime()
        drawn = _primes_used(monkeypatch)
        a = poly(1, p) * poly(2, 1)
        b = poly(1, p) * poly(3, 1)
        assert poly_gcd(a, b) == poly(F(1, p), 1)
        assert drawn[0] == p and len(drawn) >= 2

    def test_one_leading_coefficient_divisible_by_the_first_prime(self, monkeypatch):
        # p divides lc(a) only, so p is not skipped; one prime suffices
        p = _first_prime()
        drawn = _primes_used(monkeypatch)
        a = poly(1, p) * poly(-5, 1)
        b = poly(-5, 1) * poly(7, 2, 1)
        assert poly_gcd(a, b) == poly(-5, 1)
        assert drawn == [p]

    def test_congruent_roots_have_gcd_one(self):
        # x - a and x - b with a = b mod p share a root modulo p only
        p = _first_prime()
        assert poly_gcd(poly(-3, 1), poly(-3 - p, 1)) == Polynomial.one()

    def test_unlucky_first_prime_restarts_on_the_lower_degree(self, monkeypatch):
        # modulo p the gcd is (x - 3)(x - 5), of degree 2; over Q it is x - 5
        p = _first_prime()
        drawn = _primes_used(monkeypatch)
        a = poly(-3, 1) * poly(-5, 1) * poly(1, 0, 1)
        b = poly(-3 - p, 1) * poly(-5, 1)
        assert poly_gcd(a, b) == poly(-5, 1)
        assert drawn[0] == p and len(drawn) >= 2

    def test_large_coefficients_need_four_primes(self, monkeypatch):
        # lifting a coefficient of 2^70 takes a modulus above 2^71: four
        # primes below 2^22, each image but the last failing trial division
        drawn = _primes_used(monkeypatch)
        g = poly(3**44, -(2**70), 1)
        assert poly_gcd(g * poly(1, 1), g * poly(-1, 0, 7)) == g
        assert len(drawn) == 4

    def test_unlucky_later_prime_is_dropped(self, monkeypatch):
        # the first image has the right degree but cannot be lifted yet; the
        # second prime has a spurious common root and must not join the CRT
        p, q = list(itertools.islice(exact._primes_below(exact._PRIME_LIMIT), 2))
        drawn = _primes_used(monkeypatch)
        g = poly(3**44, -(2**70), 1)
        assert poly_gcd(g * poly(-3, 1), g * poly(-3 - q, 1)) == g
        assert drawn[:2] == [p, q] and len(drawn) == 5

    def test_trial_division_is_exact_only(self):
        # coefficient lists, constant term first; b = 2x + 1
        b = [1, 2]
        # x^2 + 1: lc(b) = 2 does not divide the top coefficient 1
        assert exact._quotient([1, 0, 1], b) is None
        # 2x^2 + 3x + 2 = (2x + 1)(x + 1) + 1: every step exact, remainder 1
        assert exact._quotient([2, 3, 2], b) is None
        # (2x + 1)(x - 3) = 2x^2 - 5x - 3
        assert exact._quotient([-3, -5, 2], b) == [-3, 1]

    def test_large_coefficients_and_content(self):
        g = poly(F(3**44, 5), 2**70 + 1, F(7, 3))
        a = g * poly(F(1, 2), 1) * poly(0, 1)
        b = g * poly(-9, 0, 1) * 11
        assert poly_gcd(a, b) == g.monic()
        assert poly_gcd(a, b) == _reference_poly_gcd(a, b)


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
fraction_polys = st.builds(Polynomial, st.lists(fractions, min_size=0, max_size=6))


@settings(max_examples=200, deadline=None)
@given(p=fraction_polys, q=fraction_polys, r=fraction_polys, same=st.booleans())
def test_gcd_matches_euclid(p, q, r, same):
    # a planted common factor r; zero, constant and equal inputs included
    a, b = p * r, (p if same else q) * r
    if a.is_zero() and b.is_zero():
        with pytest.raises(ValueError):
            poly_gcd(a, b)
        return
    assert poly_gcd(a, b) == _reference_poly_gcd(a, b)


@settings(max_examples=200, deadline=None)
@given(p=fraction_polys, q=fraction_polys, r=fraction_polys)
def test_gcd_carries_its_cofactors(p, q, r):
    # a planted common factor r; g (p/g) = p and g (q/g) = q exactly
    a, b = p * r, q * r
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    assert g == _reference_poly_gcd(a, b)
    a_over, b_over = g.cofactors
    assert g * a_over == a and g * b_over == b


def _assert_canonical(f: RationalFunction) -> None:
    assert f.den.leading() == 1
    assert poly_gcd(f.num, f.den) == Polynomial.one()


@settings(max_examples=100, deadline=None)
@given(
    p=fraction_polys,
    q=fraction_polys.filter(lambda q: not q.is_zero()),
    c=fractions.filter(bool),
)
def test_canonical_by_construction_matches_canonical_form(p, q, c):
    # negation, reciprocal and scaling take no gcd and keep a reduced
    # quotient reduced: each must give the canonical form of its raw
    # numerator and denominator
    f = RationalFunction(p, q)
    assert f.den.leading() == 1  # reading f reduces it
    results = [
        (-f, RationalFunction(-p, q)),
        (f * c, RationalFunction(p.scale(c), q)),
        (c * f, RationalFunction(p.scale(c), q)),
        (f * 0, RationalFunction(Polynomial.zero(), q)),
    ]
    if not p.is_zero():
        results.append((f.reciprocal(), RationalFunction(q, p)))
    assert all(got._reduced for got, _ in results)
    for got, expected in results:
        assert got == expected
        _assert_canonical(got)


def test_canonical_form_divides_out_no_gcd_again():
    # the gcd's trial division already yields p/g and q/g, so canonical forms
    # and square-free parts need no polynomial division of their own
    g = poly(-5, 1) * poly(2, 0, 1)
    p, q = poly(1, 0, 1), poly(3, 2)
    f = RationalFunction(g * p, g * q)
    square_free = square_free_part(poly(-1, 1) ** 3 * poly(1, 1))
    assert f.num == poly(F(1, 2), 0, F(1, 2)) and f.den == poly(F(3, 2), 1)
    assert square_free == poly(-1, 0, 1)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@settings(max_examples=100, deadline=None)
@given(a=st.lists(fractions, max_size=7), b=st.lists(fractions, max_size=5), x=fractions)
def test_arithmetic_matches_fraction_lists(a, b, x):
    # the integer core against schoolbook arithmetic on Fraction coefficients
    pa, pb = Polynomial(a), Polynomial(b)
    assert pa.coeffs == _trim(a) and pb.coeffs == _trim(b)
    n = max(len(a), len(b))
    a_pad, b_pad = a + [F(0)] * (n - len(a)), b + [F(0)] * (n - len(b))
    assert (pa + pb).coeffs == _trim(s + t for s, t in zip(a_pad, b_pad))
    assert (pa - pb).coeffs == _trim(s - t for s, t in zip(a_pad, b_pad))
    prod = [F(0)] * (len(a) + len(b))
    for i, s in enumerate(a):
        for j, t in enumerate(b):
            prod[i + j] += s * t
    assert (pa * pb).coeffs == _trim(prod)
    assert pa.scale(x).coeffs == _trim(x * s for s in a)
    assert pa.derivative().coeffs == _trim(k * s for k, s in enumerate(a))[1:]
    assert pa(x) == sum(s * x**k for k, s in enumerate(a))
    num, den = Polynomial(b[:3]), Polynomial(b[2:5])
    expected = Polynomial.zero()
    for k, c in enumerate(pa.coeffs):
        expected = expected + num**k * den ** (pa.degree - k) * c
    assert homogeneous_compose(pa, num, den) == expected


@settings(max_examples=100, deadline=None)
@given(a=st.lists(fractions, max_size=6), b=st.lists(fractions, max_size=5), x=fractions)
def test_content_is_an_int_exactly_when_integral(a, b, x):
    # one stored form: a Fraction content only with a denominator above 1
    pa, pb = Polynomial(a), Polynomial(b)
    results = [pa, pb, pa + pb, pa - pb, -pa, pa * pb, pa.scale(x), pa.derivative(),
               pa.monic(), pa**2]
    if not (pa.is_zero() and pb.is_zero()):
        g = poly_gcd(pa, pb)
        results += [g, *g.cofactors]
    for p in results:
        c = p._content
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


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


def _reduced(f: RationalFunction) -> RationalFunction:
    """A fresh quotient equal to f, read once so that it holds its canonical form."""
    g = RationalFunction(f.num, f.den)
    assert g.den.leading() == 1
    return g


def _chain() -> RationalFunction:
    """(x^2 - 1)/(2x - 2) * 1/(3x) + 1/(3x) = (x + 3)/(6x), never read."""
    f = RationalFunction(poly(-1, 0, 1), poly(-2, 2))
    g = RationalFunction(poly(1), poly(0, 3))
    return f * g + g


class TestLazyForm:
    """Arithmetic keeps the quotient as built; reading it reduces it once."""

    def test_unreduced_equals_its_reduction(self):
        f, r = _chain(), _reduced(_chain())
        assert (f._reduced, r._reduced) == (False, True)
        assert f == r and r == f and f == _chain()
        assert f != r + RationalFunction(poly(1))
        assert not f._reduced  # equality took no gcd
        assert hash(f) == hash(r)

    def test_printed_forms_are_canonical(self):
        r = _reduced(_chain())
        assert r.num == poly(F(1, 2), F(1, 6)) and r.den == poly(0, 1)
        assert str(_chain()) == str(r) == "(1/6*x + 1/2) / (x)"
        assert repr(_chain()) == repr(r)
        assert _chain().to_json() == r.to_json()

    def test_removable_pole_is_no_pole(self):
        assert RationalFunction(poly(-1, 0, 1), poly(-1, 1))(1) == 2

    def test_cancelled_numerator_is_zero(self):
        x = RationalFunction(poly(0, 0, 1), poly(0, 1))  # x^2 / x
        assert ((x - x) / x).is_zero()
        assert (x - x) / x == RationalFunction(Polynomial.zero())

    def test_compose_reads_reduced_inputs(self):
        outer = _chain()
        inner = RationalFunction(poly(1, 1), poly(0, 1)) * RationalFunction(poly(0, 2), poly(0, 1))
        expected = _reduced(outer).compose(_reduced(inner))
        got = outer.compose(inner)
        assert got == expected
        assert str(got) == str(expected)
