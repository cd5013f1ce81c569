"""Exact arithmetic: dense rational polynomials and rational functions.

A polynomial is held as an integer or rational content times a primitive
integer polynomial, so products, quotients and gcds run on integers, and its
coefficients read back as exact `fractions.Fraction`s.  A rational function
keeps the quotient its arithmetic builds and is reduced to canonical form
once, when first read; equality is decided by cross-multiplication, so an
identity is checked exactly without a gcd.  Results are bit-reproducible.
Floating point enters only when an isolated irrational eigenvalue is
reported (see `transforms`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]

#: the modular algorithms, `poly_gcd` here and `transforms.char_poly`, work
#: modulo primes below this; `char_poly` needs them this small so that its
#: float64 matrix products stay exact
_PRIME_LIMIT = 1 << 22


#: the primes `_primes_below(limit)` has found so far, per limit.  A list
#: grows only when a generator reads past its end, so nothing is built at
#: import; its entries depend only on the limit, so sharing it changes no result
_PRIMES: dict[int, list[int]] = {}


def _primes_below(limit: int) -> Iterator[int]:
    """The primes q = 3 mod 4 between limit/2 and limit, largest first.

    limit is a power of two.  As q - 1 = 2d with d odd, q passes the strong
    probable-prime test to base b when b^d = +-1 mod q; to the bases 2, 3, 5
    the test is exact below 25,326,001.  Every generator reads one shared list
    per limit, so a prime is found once per process, not once per call.
    """
    primes = _PRIMES.setdefault(limit, [])
    i = 0
    while True:
        if i == len(primes):
            start = primes[-1] - 4 if primes else limit - 1
            for q in range(start, limit // 2, -4):
                if all(pow(b, q // 2, q) in (1, q - 1) for b in (2, 3, 5)):
                    primes.append(q)
                    break
            else:
                return
        yield primes[i]
        i += 1


def _coerce(value: Scalar) -> Scalar:
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _canonical(c: Scalar) -> Scalar:
    """c as a content is held: an int when integral, else a Fraction."""
    return c.numerator if c.denominator == 1 else c


def _reciprocal(k: int) -> Scalar:
    """1/k in canonical form, for a positive integer k."""
    return 1 if k == 1 else Fraction(1, k)


def _split(ints: list[int], scale: Scalar) -> tuple[Scalar, tuple[int, ...]]:
    """(content, primitive part) of scale * sum ints[i] x^i; ints is consumed."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints or not scale:
        return 0, ()
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [c // g for c in ints]
    return _canonical(scale * g), tuple(ints)


class Polynomial:
    """Dense univariate polynomial over the rationals.

    ``coeffs[i]`` is the coefficient of ``x**i``; the top coefficient is kept
    nonzero.  The zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.

    The polynomial is stored as ``_content * sum _prim[i] x**i``: the integers
    ``_prim`` are coprime with a positive last entry, and the zero polynomial
    has content 0 and no entries.  The content is an int when integral, else
    a Fraction, so each polynomial has one stored form and integer polynomials
    multiply in ints.  ``coeffs`` multiplies them out on demand, as Fractions.
    """

    __slots__ = ("_content", "_prim")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_coerce(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        content, prim = _split(
            [c.numerator * (den // c.denominator) for c in cs], _reciprocal(den)
        )
        object.__setattr__(self, "_content", content)
        object.__setattr__(self, "_prim", prim)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _make(cls, content: Scalar, prim: tuple[int, ...]) -> "Polynomial":
        """The polynomial content * prim, for a prim already primitive and a
        content in canonical form."""
        p = object.__new__(cls)
        object.__setattr__(p, "_content", content)
        object.__setattr__(p, "_prim", prim)
        return p

    @classmethod
    def _from_ints(cls, ints: list[int], scale: Scalar) -> "Polynomial":
        return cls._make(*_split(ints, scale))

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    # ------------------------------------------------------------------
    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        c = self._content
        return tuple(Fraction(c * a) for a in self._prim)

    @property
    def degree(self) -> int:
        return len(self._prim) - 1

    def is_zero(self) -> bool:
        return not self._prim

    def leading(self) -> Fraction:
        if not self._prim:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._content * self._prim[-1])

    # ------------------------------------------------------------------
    # ring operations
    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, over the common denominator of the contents."""
        if not other._prim:
            return self
        ca, cb = self._content, sign * other._content
        if not self._prim:
            return Polynomial._make(cb, other._prim)
        den = math.lcm(ca.denominator, cb.denominator)
        fa = ca.numerator * (den // ca.denominator)
        fb = cb.numerator * (den // cb.denominator)
        a, b = self._prim, other._prim
        if len(a) < len(b):
            fa, fb, a, b = fb, fa, b, a
        out = [fa * c for c in a]
        for i, c in enumerate(b):
            out[i] += fb * c
        return Polynomial._from_ints(out, _reciprocal(den))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(-self._content, self._prim)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self._prim or not other._prim:
            return Polynomial.zero()
        # Gauss's lemma: a product of primitive polynomials is primitive
        return Polynomial._make(
            _canonical(self._content * other._content),
            tuple(_mul_ints(self._prim, other._prim)),
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: Scalar) -> "Polynomial":
        c = _coerce(c)
        if c == 0:
            return Polynomial.zero()
        return Polynomial._make(_canonical(self._content * c), self._prim)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "Polynomial":
        ints = [k * c for k, c in enumerate(self._prim)][1:]
        return Polynomial._from_ints(ints, self._content)

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate exactly: for x = n/d, Horner on d^deg p(n/d) in integers."""
        x = _coerce(x)
        if not self._prim:
            return 0
        n, d = x.numerator, x.denominator
        acc, d_power = 0, 1
        for c in reversed(self._prim):
            acc = acc * n + c * d_power
            d_power *= d
        c = self._content
        return Fraction(c.numerator * acc, c.denominator * (d_power // d))

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return Polynomial._make(_reciprocal(self._prim[-1]), self._prim)

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self._prim == other._prim
            and self._content == other._content
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        cs = self.coeffs
        parts = []
        for k in range(self.degree, -1, -1):
            c = cs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                term = xk if mag == 1 else f"{mag}*{xk}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# integer polynomials as coefficient lists, constant term first

def _mul_ints(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b):
                out[i + j] += c * e
    return out


def _quotient(a, b) -> list[int] | None:
    """a / b in Z[x] if b divides a there, else None.

    Long division over the integers: it stops at the first top coefficient
    that lc(b) does not divide, and at a nonzero remainder.
    """
    n, lc = len(b) - 1, b[-1]
    rem, q = list(a), [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        t, r = divmod(rem.pop(), lc)
        if r:
            return None
        q[k] = t
        if t:
            rem[k:] = [c - t * e for c, e in zip(rem[k:], b)]
    return None if any(rem) else q


# ----------------------------------------------------------------------
# greatest common divisors

class _Gcd(Polynomial):
    """A monic gcd g of p and q that carries the cofactors (p/g, q/g)."""

    __slots__ = ("cofactors",)

    @classmethod
    def _proven(
        cls, prim: tuple[int, ...], p_over_g: Polynomial, q_over_g: Polynomial
    ) -> "_Gcd":
        g = cls._make(_reciprocal(prim[-1]), prim)
        object.__setattr__(g, "cofactors", (p_over_g, q_over_g))
        return g


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor, by Brown's modular algorithm over Z.

    The gcd of the primitive parts a, b is found modulo primes that do not
    divide gamma = gcd(lc a, lc b); for those, the degree of the gcd mod p is
    at least that of the gcd over Q.  A constant gcd mod p therefore proves
    the gcd 1.  Otherwise each monic image, scaled to leading coefficient
    gamma, is joined to the earlier ones by the CRT, a prime whose image has
    too high a degree is dropped, and a lower degree restarts the join.  The
    candidate, the primitive part of the symmetric lift, is returned once
    trial division over Z proves that it divides a and b.  ArithmeticError is
    raised if the primes run out.

    The result also carries, as ``.cofactors``, the exact quotients p/g and
    q/g; for a nontrivial g they are the quotients of that trial division.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd undefined for two zero polynomials")
    if p.is_zero() or q.is_zero():
        s = p + q
        lc = Polynomial.constant(s.leading())
        return _Gcd._proven(
            s._prim, p if p.is_zero() else lc, q if q.is_zero() else lc
        )
    a, b = p._prim, q._prim
    if len(a) == 1 or len(b) == 1:
        return _Gcd._proven((1,), p, q)
    gamma = math.gcd(a[-1], b[-1])
    size, image, modulus = min(len(a), len(b)) + 1, [], 1
    for prime in _primes_below(_PRIME_LIMIT):
        if gamma % prime == 0:
            continue
        g = _gcd_mod(a, b, prime)
        if len(g) == 1:
            return _Gcd._proven((1,), p, q)
        if len(g) > size:
            continue
        g = [gamma * c % prime for c in g]
        if len(g) < size:
            size, image, modulus = len(g), g, prime
        else:
            inverse = pow(modulus, -1, prime)
            image = [h + modulus * ((c - h) * inverse % prime) for h, c in zip(image, g)]
            modulus *= prime
        _, candidate = _split(
            [c - modulus if 2 * c > modulus else c for c in image], 1
        )
        a_over = _quotient(a, candidate)
        b_over = None if a_over is None else _quotient(b, candidate)
        if b_over is not None:
            # Gauss's lemma: the quotients of primitive polynomials are
            # primitive, and their leading coefficients are positive
            lc = candidate[-1]
            return _Gcd._proven(
                candidate,
                Polynomial._make(_canonical(p._content * lc), tuple(a_over)),
                Polynomial._make(_canonical(q._content * lc), tuple(b_over)),
            )
    raise ArithmeticError("poly_gcd ran out of primes")


def _gcd_mod(a, b, p: int) -> list[int]:
    """Monic gcd of a and b modulo the prime p, constant term first.

    Neither a nor b may vanish modulo p, which holds for primitive inputs.
    """
    a, b = [c % p for c in a], [c % p for c in b]
    while not a[-1]:
        a.pop()
    while not b[-1]:
        b.pop()
    while b:
        inverse = pow(b[-1], -1, p)
        b = [c * inverse % p for c in b]
        n = len(b) - 1
        while len(a) > n:
            t = a.pop()
            if t:
                k = len(a) - n
                a[k:] = [(c - t * e) % p for c, e in zip(a[k:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


def square_free_part(p: Polynomial) -> Polynomial:
    """p with all repeated roots reduced to multiplicity one (monic)."""
    if p.is_zero():
        raise ValueError("square-free part of zero polynomial")
    if p.degree <= 0:
        return Polynomial.one()
    return poly_gcd(p, p.derivative()).cofactors[0].monic()


class RationalFunction:
    """Quotient of polynomials, reduced once, when first read.

    Arithmetic builds the quotient from the stored numerator and denominator
    and takes no gcd.  Reading ``num`` or ``den`` reduces it, once, to the
    canonical form: coprime, with a monic denominator.  Equality is decided
    exactly without a gcd, by cross-multiplication, so identities between
    transforms can be asserted with ``==``.
    """

    __slots__ = ("_num", "_den", "_reduced")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Polynomial.zero(), Polynomial.one()
        self._set(num, den, num.is_zero())

    def _set(self, num: Polynomial, den: Polynomial, reduced: bool) -> None:
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_reduced", reduced)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _make(cls, num: Polynomial, den: Polynomial, reduced: bool) -> "RationalFunction":
        """num/den with no gcd taken; reduced marks num, den as already canonical."""
        f = object.__new__(cls)
        f._set(num, den, reduced)
        return f

    def _reduce(self) -> None:
        num, den = poly_gcd(self._num, self._den).cofactors
        lc = den.leading()
        if lc != 1:
            num, den = num.scale(1 / lc), den.scale(1 / lc)
        self._set(num, den, True)

    @property
    def num(self) -> Polynomial:
        """The numerator of the canonical form."""
        if not self._reduced:
            self._reduce()
        return self._num

    @property
    def den(self) -> Polynomial:
        """The denominator of the canonical form: monic, coprime to ``num``."""
        if not self._reduced:
            self._reduce()
        return self._den

    # ------------------------------------------------------------------
    @classmethod
    def x(cls) -> "RationalFunction":
        return cls(Polynomial.x())

    def is_zero(self) -> bool:
        return self._num.is_zero()

    # ------------------------------------------------------------------
    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        a, b, c, d = self._num, self._den, other._num, other._den
        return RationalFunction(a * d + c * b, b * d)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._make(-self._num, self._den, self._reduced)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return RationalFunction(Polynomial.zero())
            return RationalFunction._make(self._num.scale(other), self._den, self._reduced)
        return RationalFunction(self._num * other._num, self._den * other._den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self._num * other._den, self._den * other._num)

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero rational function")
        if not self._reduced:
            return RationalFunction(self._den, self._num)
        s = 1 / self._num.leading()
        return RationalFunction._make(self._den.scale(s), self._num.scale(s), True)

    def derivative(self) -> "RationalFunction":
        n, d = self._num, self._den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def log_derivative(self) -> "RationalFunction":
        """f'/f.  For a polynomial p this is the sum of 1/(x - root)."""
        if self.is_zero():
            raise ZeroDivisionError("log-derivative of zero")
        n, d = self._num, self._den
        return RationalFunction(
            n.derivative() * d - n * d.derivative(), n * d
        )

    def compose(self, inner: "RationalFunction") -> "RationalFunction":
        """self(inner(z)), exact.

        Both sides are read reduced, so repeated composition does not grow
        in degree.  Raises ZeroDivisionError("pole at composition point")
        when the inner function is a constant at which the outer has a pole.
        """
        num = homogeneous_compose(self.num, inner.num, inner.den)
        den = homogeneous_compose(self.den, inner.num, inner.den)
        if den.is_zero():
            raise ZeroDivisionError("pole at composition point")
        # p(f)/q(f) = inner.den^(deg q - deg p) * num / den
        shift = self.den.degree - self.num.degree
        if shift >= 0:
            num = num * inner.den**shift
        else:
            den = den * inner.den**-shift
        return RationalFunction(num, den)

    def __call__(self, x):
        """The value at x of the reduced quotient, so a removable pole is no pole."""
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return False
        return self._num * other._den == other._num * self._den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Exact serialization: coefficients as fraction strings."""
        return {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        num = Polynomial([Fraction(s) for s in data["num"]])
        den = Polynomial([Fraction(s) for s in data["den"]])
        return cls(num, den)


def homogeneous_compose(p: Polynomial, num: Polynomial, den: Polynomial) -> Polynomial:
    """den^deg(p) * p(num/den) = sum_k c_k num^k den^(d-k), assembled by Horner."""
    if p.is_zero():
        return Polynomial.zero()
    acc = Polynomial.constant(p.leading())
    den_power = Polynomial.one()
    for c in reversed(p.coeffs[:-1]):
        den_power = den_power * den
        acc = acc * num + den_power.scale(c)
    return acc
