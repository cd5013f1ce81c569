"""Spectral transforms of rooted graphs as exact rational functions.

The symbolic layer (characteristic polynomials, Green function, reciprocal
Green function, trace resolvent and its renormalized form, additive transform)
is exact over the rationals.  Floating point is confined to the final root
isolation step that turns a transform into a spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import Polynomial, RationalFunction, TruncatedSeries, square_free_part
from .graphs import RootedGraph, adjacency_rows, delete_root

#: exact characteristic polynomials only up to this size; beyond it use the
#: float eigensolver in `models`
EXACT_CHARPOLY_CAP = 512

ROOT_WIDTH = Fraction(1, 10**12)
ROOT_DEDUP = 1e-9
RESIDUE_TOL = 1e-6


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


def f_transform(sd: RootedSpectralData) -> RationalFunction:
    """Reciprocal Green function phi / phi_minus_root."""
    return RationalFunction(sd.phi, sd.phi_minus_root)


def cauchy(sd: RootedSpectralData) -> RationalFunction:
    """Trace of the resolvent: phi' / phi."""
    return RationalFunction.from_poly(sd.phi).log_derivative()


def renormalized_cauchy(sd: RootedSpectralData) -> RationalFunction:
    """cauchy minus dim/z, dropping the order-zero trace term."""
    return cauchy(sd) - RationalFunction(
        Polynomial.constant(sd.dim), Polynomial.x()
    )


def h_transform(sd: RootedSpectralData) -> RationalFunction:
    """renormalized_cauchy + d/dz log(z G); additive under the star product."""
    one_over_z = RationalFunction(Polynomial.one(), Polynomial.x())
    return renormalized_cauchy(sd) + one_over_z + green(sd).log_derivative()


def laurent_at_infinity(f: RationalFunction, order: int) -> TruncatedSeries:
    """Expansion of f at infinity in w = 1/z.

    Returns a series whose coefficient k is the coefficient of z**(-k),
    for k = 0..order (order+1 coefficients).  Requires deg num <= deg den.
    """
    if f.is_zero():
        return TruncatedSeries.zero(order + 1)
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
    return TruncatedSeries(out, k)


def trace_moments_from_transform(rc: RationalFunction, count: int) -> list[Fraction]:
    """Moments w_1..w_count read off a renormalized trace resolvent."""
    series = laurent_at_infinity(rc, count + 1)
    return [series.coefficient(n + 1) for n in range(1, count + 1)]


def vacuum_moments_from_green(g: RationalFunction, count: int) -> list[Fraction]:
    """Moments m_1..m_count read off a Green function (coefficient of 1/z is 1)."""
    series = laurent_at_infinity(g, count + 1)
    if series.coefficient(1) != 1:
        raise ValueError("not a Green function: 1/z coefficient != 1")
    return [series.coefficient(n + 1) for n in range(1, count + 1)]


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
        return roots  # constants too large; fall back to numeric isolation
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
    value: float
    exact: Fraction | None = None


def isolate_real_roots(p: Polynomial) -> list[IsolatedRoot]:
    """All real roots of p, each reported once (input need not be square-free).

    Rational roots are found exactly; irrational ones are isolated by Sturm
    bisection to width 1e-12 and polished by one Newton step in doubles.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    p = square_free_part(p)
    if p.degree <= 0:
        return []
    roots = [IsolatedRoot(float(r), r) for r in _rational_roots(p)]
    for r in roots:
        p = p // Polynomial((-r.exact, 1))
    if p.degree >= 1:
        roots.extend(_isolate_irrational(p))
    return sorted(roots, key=lambda r: r.value)


def _isolate_irrational(p: Polynomial) -> list[IsolatedRoot]:
    # p square-free with no rational roots: Sturm evaluations never hit zero
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
    out = []
    for a, b in isolated:
        # exact bisection on the sign of p down to the target width; exact
        # zero hits can still occur when the rational-root scan was skipped
        fa = p(a)
        if fa == 0:
            out.append(IsolatedRoot(float(a), a))
            continue
        hit = None
        while b - a > ROOT_WIDTH:
            mid = (a + b) / 2
            fm = p(mid)
            if fm == 0:
                hit = mid
                break
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        if hit is not None:
            out.append(IsolatedRoot(float(hit), hit))
            continue
        x = float((a + b) / 2)
        x = _newton_polish(p, x)
        out.append(IsolatedRoot(x))
    return out


def _newton_polish(p: Polynomial, x: float) -> float:
    dp = p.derivative()
    fx = p(x)
    dfx = dp(x)
    if dfx != 0.0 and math.isfinite(fx) and math.isfinite(dfx):
        step = fx / dfx
        if abs(step) < 1e-6:
            x -= step
    return x


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

    def multiplicity_of(self, value: float, tol: float = 1e-9) -> int:
        for v, m in self.entries:
            if abs(v - value) <= tol:
                return m
        return 0

    def nonzero_entries(self, tol: float = 1e-9) -> list[tuple[float, int]]:
        return [(v, m) for v, m in self.entries if abs(v) > tol]


def _simple_pole_residue(rc: RationalFunction, root: IsolatedRoot):
    if root.exact is not None:
        quot, rem = rc.den.divmod(Polynomial((-root.exact, 1)))
        if not rem.is_zero():
            raise AssertionError("exact root does not divide denominator")
        denom = quot(root.exact)
        if denom == 0:
            return math.inf  # multiple pole; caller rejects
        return rc.num(root.exact) / denom
    d = rc.den.derivative()(root.value)
    if d == 0.0:
        return math.inf
    return rc.num(root.value) / d


def extract_spectrum(rc: RationalFunction, dim: int) -> SpectrumReport:
    """Recover eigenvalues and multiplicities from a renormalized trace resolvent.

    Nonzero eigenvalues are the poles; each multiplicity is the residue there,
    and the zero multiplicity is dim plus the residue at zero.
    """
    if rc.is_zero():
        return SpectrumReport(((0.0, dim),), dim)
    if rc.num.degree >= rc.den.degree:
        raise ValueError("not a trace resolvent: must vanish at infinity")
    roots = isolate_real_roots(rc.den)
    found = sum(1 for _ in roots)
    if found < square_free_part(rc.den).degree:
        raise ValueError("denominator has non-real poles; not a trace resolvent")
    entries = []
    zero_residue = 0
    total = 0
    for root in roots:
        res = _simple_pole_residue(rc, root)
        r = float(res)
        nearest = round(r)
        if not math.isfinite(r) or abs(r - nearest) > RESIDUE_TOL:
            raise ValueError(f"non-integer residue {res} at pole {root.value}")
        if root.exact == 0 or (root.exact is None and abs(root.value) <= ROOT_DEDUP):
            zero_residue = nearest
        else:
            if nearest < 1:
                raise ValueError(f"non-positive multiplicity at pole {root.value}")
            entries.append((float(root.value), nearest))
            total += nearest
    zero_mult = dim + zero_residue
    if zero_mult < 0 or total + zero_mult != dim:
        raise ValueError(
            f"multiplicity sum mismatch: {total} nonzero + {zero_mult} zero != {dim}"
        )
    if zero_mult > 0:
        entries.append((0.0, zero_mult))
    entries.sort()
    return SpectrumReport(tuple(entries), dim)


# ----------------------------------------------------------------------
# Green function factorization

@dataclass(frozen=True)
class GreenFactorization:
    """Poles with state weights, and interlacing zeros, of a Green function."""

    poles: tuple[tuple[float, Fraction | float], ...]
    zeros: tuple[float, ...]


def factorize_green(g: RationalFunction) -> GreenFactorization:
    """Partial-fraction data of a Green function; checks weights and interlacing."""
    if g.is_zero():
        raise ValueError("not a Green function: zero")
    if g.num.degree != g.den.degree - 1:
        raise ValueError("not a Green function: wrong degree at infinity")
    pole_roots = isolate_real_roots(g.den)
    if len(pole_roots) < g.den.degree:
        raise ValueError("not a Green function: non-real poles")
    poles = []
    weight_sum = Fraction(0)
    exact_sum = True
    for root in pole_roots:
        w = _simple_pole_residue(g, root)
        wf = float(w)
        if not math.isfinite(wf) or wf <= 0:
            raise ValueError(f"not a Green function: weight {w} at pole {root.value}")
        poles.append((float(root.value), w))
        if isinstance(w, Fraction):
            weight_sum += w
        else:
            exact_sum = False
    if exact_sum:
        if weight_sum != 1:
            raise ValueError(f"not a Green function: weights sum to {weight_sum}")
    else:
        if abs(sum(float(w) for _, w in poles) - 1.0) > 1e-9:
            raise ValueError("not a Green function: weights do not sum to 1")
    if g.num.degree >= 1:
        zero_roots = isolate_real_roots(g.num)
    else:
        zero_roots = []
    if len(zero_roots) != g.num.degree:
        raise ValueError("not a Green function: non-real zeros")
    zeros = [float(r.value) for r in zero_roots]
    pole_values = [v for v, _ in poles]
    for lo, hi, z in zip(pole_values, pole_values[1:], zeros):
        if not lo < z < hi:
            raise ValueError("not a Green function: zeros do not interlace poles")
    return GreenFactorization(tuple(poles), tuple(zeros))
