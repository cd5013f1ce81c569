"""Spectral transforms of rooted graphs as exact rational functions.

The symbolic layer (characteristic polynomials, Green function, trace
resolvent and its renormalized form, additive transform) is exact over the
rationals, and so is the step that turns a transform into a spectrum: roots
are isolated in exact rational intervals and multiplicities are certified by
exact gcds.  Floating point enters only when an irrational
eigenvalue is reported as the float of its interval midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import Polynomial, RationalFunction, poly_gcd, square_free_part
from .graphs import RootedGraph, adjacency_rows, delete_root

#: exact characteristic polynomials only up to this size; beyond it use the
#: float eigensolver in `models`
EXACT_CHARPOLY_CAP = 512


# ----------------------------------------------------------------------
# characteristic polynomials

def char_poly(rows: list[list[int]]) -> Polynomial:
    """det(xI - A) for an integer matrix, by exact Faddeev-LeVerrier."""
    n = len(rows)
    if n > EXACT_CHARPOLY_CAP:
        raise ValueError(f"matrix size {n} exceeds exact cap {EXACT_CHARPOLY_CAP}")
    if n == 0:
        return Polynomial.one()
    a = np.array(rows, dtype=object)
    m = np.zeros((n, n), dtype=object)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    c = 1
    ident = np.identity(n, dtype=object)
    for k in range(1, n + 1):
        m = a.dot(m) + c * ident
        t = int((a * m.T).sum())
        if t % k:
            raise ArithmeticError("Faddeev-LeVerrier divisibility failed")
        c = -(t // k)
        coeffs[n - k] = c
    return Polynomial(coeffs)


@dataclass(frozen=True)
class RootedSpectralData:
    """Characteristic polynomial pair of a rooted graph (or abstract element).

    phi is det(xI - A); phi_minus_root the same with the root deleted.
    """

    phi: Polynomial
    phi_minus_root: Polynomial
    dim: int

    def __post_init__(self):
        if self.phi.degree != self.dim:
            raise ValueError("phi degree must equal dim")
        if self.phi_minus_root.degree != self.dim - 1:
            raise ValueError("phi_minus_root degree must equal dim - 1")


def spectral_data(g: RootedGraph) -> RootedSpectralData:
    phi = char_poly(adjacency_rows(g.graph))
    phi_minus = char_poly(adjacency_rows(delete_root(g)))
    return RootedSpectralData(phi, phi_minus, g.n)


# ----------------------------------------------------------------------
# transforms

def green(sd: RootedSpectralData) -> RationalFunction:
    """Root-vector resolvent entry: phi_minus_root / phi."""
    return RationalFunction(sd.phi_minus_root, sd.phi)


def cauchy(sd: RootedSpectralData) -> RationalFunction:
    """Trace of the resolvent: phi' / phi."""
    return RationalFunction(sd.phi).log_derivative()


def renormalized_cauchy(sd: RootedSpectralData) -> RationalFunction:
    """cauchy minus dim/z, dropping the order-zero trace term."""
    return cauchy(sd) - RationalFunction(
        Polynomial.constant(sd.dim), Polynomial.x()
    )


def h_transform(sd: RootedSpectralData) -> RationalFunction:
    """renormalized_cauchy + d/dz log(z G); additive under the star product."""
    one_over_z = RationalFunction(Polynomial.one(), Polynomial.x())
    return renormalized_cauchy(sd) + one_over_z + green(sd).log_derivative()


def laurent_at_infinity(f: RationalFunction, order: int) -> tuple[Fraction, ...]:
    """Expansion of f at infinity in w = 1/z.

    Returns order+1 coefficients; index k holds the coefficient of z**(-k).
    Requires deg num <= deg den.
    """
    if f.is_zero():
        return (Fraction(0),) * (order + 1)
    m, p = f.den.degree, f.num.degree
    if p > m:
        raise ValueError("not proper at infinity")
    k = order + 1
    num_w = [Fraction(0)] * k
    den_w = [Fraction(0)] * k
    for i, c in enumerate(f.num.coeffs):
        if m - i < k:
            num_w[m - i] = c
    for i, c in enumerate(f.den.coeffs):
        if m - i < k:
            den_w[m - i] = c
    # power series division num_w / den_w; den_w[0] = leading coeff of den
    lead = den_w[0]
    out = [Fraction(0)] * k
    for n in range(k):
        s = num_w[n]
        for j in range(1, n + 1):
            s -= den_w[j] * out[n - j]
        out[n] = s / lead
    return tuple(out)


# ----------------------------------------------------------------------
# exact real root isolation (square-free input)

def _divisors(n: int, cap: int = 10**9) -> list[int] | None:
    n = abs(n)
    if n == 0 or n > cap:
        return None
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _rational_roots(p: Polynomial) -> list[Fraction]:
    """All rational roots of p, found by the rational root theorem."""
    roots = []
    if p.coefficient(0) == 0:
        roots.append(Fraction(0))
        while p.coefficient(0) == 0 and p.degree > 0:
            p = p // Polynomial.x()
    if p.degree <= 0:
        return roots
    # clear denominators to a primitive integer polynomial
    lcm = 1
    for c in p.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in p.coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    ints = [c // g for c in ints]
    nums = _divisors(ints[0])
    dens = _divisors(ints[-1])
    if nums is None or dens is None:
        return roots  # constants too large; bisection finds the rest
    seen = set()
    for a in nums:
        for b in dens:
            for cand in (Fraction(a, b), Fraction(-a, b)):
                if cand not in seen:
                    seen.add(cand)
                    if p(cand) == 0:
                        roots.append(cand)
    return sorted(roots)


def _sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _variations(chain: list[Polynomial], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class IsolatedRoot:
    """A real root in the exact interval [lo, hi]; lo == hi for a rational root."""

    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> Fraction | None:
        return self.lo if self.lo == self.hi else None

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def value(self) -> float:
        return float(self.midpoint)


def isolate_real_roots(p: Polynomial) -> list[IsolatedRoot]:
    """All real roots of p, each reported once (input need not be square-free).

    Rational roots are found exactly.  Each irrational root gets an interval,
    found by Sturm bisection, whose ends round to the same double, that holds
    no other root of p and has no root of p at either end.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    p = square_free_part(p)
    if p.degree <= 0:
        return []
    rational = _rational_roots(p)
    for r in rational:
        p = p // Polynomial((-r, 1))
    roots = [IsolatedRoot(r, r) for r in rational]
    if p.degree >= 1:
        roots.extend(_isolate_irrational(p, rational))
    return sorted(roots, key=lambda r: r.lo)


def _isolate_irrational(p: Polynomial, rational: list[Fraction]) -> list[IsolatedRoot]:
    # p square-free; Sturm counts the roots in half-open intervals (a, b]
    chain = _sturm_chain(p)
    bound = Fraction(1) + max(abs(c) for c in p.coeffs) / abs(p.leading())
    lo, hi = -bound, bound
    total = _variations(chain, lo) - _variations(chain, hi)
    stack = [(lo, hi, total)]
    isolated: list[tuple[Fraction, Fraction]] = []
    while stack:
        a, b, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            isolated.append((a, b))
            continue
        mid = (a + b) / 2
        left = _variations(chain, a) - _variations(chain, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, count - left))
    return [_refine(p, a, b, rational) for a, b in isolated]


def _refine(p: Polynomial, a: Fraction, b: Fraction, avoid: list[Fraction]) -> IsolatedRoot:
    """Bisect (a, b], which holds one root of p, on the sign of p.

    Stops once both ends round to the same double, so the root does too, a
    is not a root of p and no point of `avoid` lies in [a, b].  Zero hits are
    rational roots the scan in `_rational_roots` skipped.
    """
    fa, fb = p(a), p(b)
    if fb == 0:
        return IsolatedRoot(b, b)
    while float(a) != float(b) or fa == 0 or any(a <= r <= b for r in avoid):
        mid = (a + b) / 2
        fm = p(mid)
        if fm == 0:
            return IsolatedRoot(mid, mid)
        if (fm > 0) == (fb > 0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return IsolatedRoot(a, b)


# ----------------------------------------------------------------------
# spectrum extraction

@dataclass(frozen=True)
class SpectrumReport:
    """Multiset of (eigenvalue, multiplicity) pairs, increasing, summing to dim."""

    entries: tuple[tuple[float, int], ...]
    dim: int

    def __post_init__(self):
        if sum(m for _, m in self.entries) != self.dim:
            raise ValueError("multiplicities do not sum to dim")
        values = [v for v, _ in self.entries]
        if any(b - a <= 0 for a, b in zip(values, values[1:])):
            raise ValueError("eigenvalues must be strictly increasing")


def extract_spectrum(rc: RationalFunction, dim: int) -> SpectrumReport:
    """Recover eigenvalues and multiplicities from a renormalized trace resolvent.

    t = rc + dim/z is the trace resolvent phi'/phi = sum of m/(z - lambda):
    its poles are the eigenvalues, 0 included, and the residue at each is the
    multiplicity m.  The residue is read exactly at a rational pole and at the
    interval midpoint of an irrational one, rounded to m, and certified
    exactly: at a rational pole it must equal m; an irrational pole must be a
    root of gcd(t.den, t.num - m t.den'), whose roots are the poles with
    residue m (Rothstein-Trager).  The multiplicities must sum to dim.
    """
    t = rc + RationalFunction(Polynomial.constant(dim), Polynomial.x())
    if t.num.degree >= t.den.degree:
        raise ValueError("not a trace resolvent: must vanish at infinity")
    roots = isolate_real_roots(t.den)
    if len(roots) != t.den.degree:
        raise ValueError("not a trace resolvent: poles must be real and simple")
    den_prime = t.den.derivative()
    gcds: dict[int, Polynomial] = {}
    entries = []
    for root in roots:
        residue = t.num(root.midpoint) / den_prime(root.midpoint)
        m = round(residue)
        if root.exact is not None:
            certified = residue == m
        else:
            if m not in gcds:
                gcds[m] = poly_gcd(t.den, t.num - den_prime * m)
            certified = gcds[m](root.lo) * gcds[m](root.hi) < 0
        if not certified:
            raise ValueError(f"non-integer residue {float(residue)} at pole {root.value}")
        if m < 1:
            raise ValueError(f"non-positive multiplicity {m} at pole {root.value}")
        entries.append((root.value, m))
    return SpectrumReport(tuple(entries), dim)

