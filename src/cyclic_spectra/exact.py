"""Exact arithmetic: dense rational polynomials and rational functions.

Coefficients are `fractions.Fraction` throughout, so every identity in the
calculus is checked exactly and results are bit-reproducible.  Floating point
enters only when an isolated irrational eigenvalue is reported (see
`transforms`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Polynomial:
    """Dense univariate polynomial over the rationals.

    ``coeffs[i]`` is the coefficient of ``x**i``; the top coefficient is kept
    nonzero.  The zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Polynomial is immutable")

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
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # ------------------------------------------------------------------
    # ring operations
    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return Polynomial(cs)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero()
        cs = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    cs[i + j] += ai * bj
        return Polynomial(cs)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: Scalar) -> "Polynomial":
        c = _coerce(c)
        if c == 0:
            return Polynomial.zero()
        return Polynomial(tuple(c * a for a in self.coeffs))

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
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate exactly by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lc = self.leading()
        return self if lc == 1 else self.scale(1 / lc)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(self.degree - other.degree + 1, 0)
        rem = list(self.coeffs)
        d, lc = other.degree, other.leading()
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            factor = rem[-1] / lc
            q[k] = factor
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= factor * c
            rem.pop()
        return Polynomial(q), Polynomial(rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
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


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd undefined for two zero polynomials")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def square_free_part(p: Polynomial) -> Polynomial:
    """p with all repeated roots reduced to multiplicity one (monic)."""
    if p.is_zero():
        raise ValueError("square-free part of zero polynomial")
    if p.degree <= 0:
        return Polynomial.one()
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


class RationalFunction:
    """Quotient of polynomials in canonical form: coprime, monic denominator.

    Canonicalization makes equality structural, so identities between
    transforms can be asserted with ``==``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Polynomial.zero(), Polynomial.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lc = den.leading()
            if lc != 1:
                num, den = num.scale(1 / lc), den.scale(1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def x(cls) -> "RationalFunction":
        return cls(Polynomial.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # ------------------------------------------------------------------
    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num.scale(other), self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero rational function")
        return RationalFunction(self.den, self.num)

    def derivative(self) -> "RationalFunction":
        n, d = self.num, self.den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def log_derivative(self) -> "RationalFunction":
        """f'/f.  For a polynomial p this is the sum of 1/(x - root)."""
        if self.is_zero():
            raise ZeroDivisionError("log-derivative of zero")
        n, d = self.num, self.den
        return RationalFunction(
            n.derivative() * d - n * d.derivative(), n * d
        )

    def compose(self, inner: "RationalFunction") -> "RationalFunction":
        """self(inner(z)), exact.

        Raises ZeroDivisionError("pole at composition point") when the inner
        function is a constant at which the outer has a pole.
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
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

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
