"""Spectral transforms of rooted graphs as exact rational functions.

The symbolic layer (characteristic polynomials, Green function, trace
resolvent and its renormalized form) is exact over the rationals, and so is
the step that turns a transform into a spectrum: roots are isolated in exact
rational intervals and multiplicities are certified by exact gcds.  Floating
point enters only when an eigenvalue that is not dyadic is reported as the
double that both ends of its interval round to, and as a guess of where a
root lies, which picks the points where exact signs are taken but decides
nothing.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact import (
    _PRIME_LIMIT,
    Polynomial,
    RationalFunction,
    _primes_below,
    poly_gcd,
    square_free_part,
)
from .graphs import EXACT_CHARPOLY_CAP, RootedGraph, adjacency

#: float64 residue matrices ((graph, prime) pairs x n x n) held at once by
#: `char_poly`
_BATCH_ENTRIES = 1 << 16

#: float64 holds every integer below this exactly
_EXACT_FLOAT = 1 << 53

#: float Newton steps that `_float_guess` takes at most, and doubles that
#: `_certify` tries before the root is bisected instead
_NEWTON_STEPS = 40
_CERTIFY_STEPS = 8

#: Horner's rule in float64 computes p(x) to within this (twice the unit
#: roundoff) times the sum of |f_i| |x|^j over its partial values f_i, to
#: first order (Higham, Accuracy and Stability of Numerical Algorithms, 5.1)
_EPS_BOUND = 2.0**-52


# ----------------------------------------------------------------------
# characteristic polynomials

def char_poly(graphs: Sequence[RootedGraph]) -> list[tuple[Polynomial, Polynomial]]:
    """(det(xI - A), det(xI - A')) for the adjacency matrix A of each rooted
    graph, where A' is A without the root's row and column, by multimodular
    Faddeev-LeVerrier.

    By Cramer's rule det(xI - A') is the (r, r) entry of adj(xI - A) =
    sum_k M_(k+1) x^(n-1-k), and the recurrence forms each M_(k+1) anyway, so
    one run gives both.  Results are in input order; the graphs of one size
    run as one stack.

    The coefficient of x^(n-k) is, up to sign, e_k of the eigenvalues, and
    |e_k(lambda)| <= e_k(|lambda|) <= binom(n, k) (sum |lambda| / n)^k by
    Maclaurin's inequality.  Cauchy-Schwarz gives sum |lambda| <=
    sqrt(n sum |lambda|^2), and sum |lambda|^2 = tr A^2 = F for F = 2|E|, so
    the coefficient is at most binom(n, k) (F/n)^(k/2).  A' has at most the
    edges of A, so binom(n - 1, k) (F/(n - 1))^(k/2) covers det(xI - A').
    Each graph runs modulo its own primes, whose product exceeds twice its
    bound, and its polynomials are joined by the CRT.  They must also agree
    modulo the next prime, which the CRT did not use; otherwise
    ArithmeticError is raised.
    """
    for g in graphs:
        if g.n > EXACT_CHARPOLY_CAP:
            raise ValueError(f"matrix size {g.n} exceeds exact cap {EXACT_CHARPOLY_CAP}")
    out: list = [None] * len(graphs)
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        groups.setdefault(g.n, []).append(i)
    for n, members in groups.items():
        group = [graphs[i] for i in members]
        primes, by_edges = [], {}  # F = 2|E| -> its primes, within this call
        for g in group:
            f = 2 * len(g.graph.edges)
            if f not in by_edges:
                bound = max(_coefficient_bound(n, f), _coefficient_bound(n - 1, f))
                by_edges[f] = _primes_above(2 * bound)
            primes.append(by_edges[f])
        for i, ps, res in zip(members, primes, _leverrier_residues(group, primes)):
            coeffs = _crt_checked(ps, res)
            out[i] = (Polynomial._from_ints(coeffs[: n + 1], 1),
                      Polynomial._from_ints(coeffs[n + 1 :], 1))
    return out


def _coefficient_bound(n: int, f: int) -> int:
    """An integer above binom(n, k) (f/n)^(k/2) for every k <= n."""
    return max(math.isqrt(math.comb(n, k) ** 2 * f**k // n**k) + 1 for k in range(n + 1))


def _primes_above(limit: int) -> list[int]:
    """The first primes whose product exceeds limit, then the check prime."""
    primes, modulus = [], 1
    for p in _primes_below(_PRIME_LIMIT):
        primes.append(p)
        if modulus > limit:
            return primes
        modulus *= p
    raise ValueError("matrix entries too large for the primes of char_poly")


def _crt_checked(primes: list[int], residues: list[list[int]]) -> list[int]:
    """The symmetric CRT lift of the rows residues[j] modulo primes[j] over
    every prime but the last; the last prime's row must equal the lift modulo
    it, compared once per graph.

    Garner's mixed radix lifts whole rows: a lift c modulo m = p_1 ... p_(j-1)
    becomes c + m ((r_j - c) m^-1 mod p_j).  With one CRT prime, the usual
    case, there is no such step.  Residues are the least nonnegative ones.
    """
    *crt, check = primes
    *rows, check_row = residues
    coeffs, modulus = rows[0], crt[0]
    for p, row in zip(crt[1:], rows[1:]):
        inverse = pow(modulus, -1, p)
        coeffs = [c + modulus * ((r - c) * inverse % p) for c, r in zip(coeffs, row)]
        modulus *= p
    half = modulus // 2
    coeffs = [c - modulus if c > half else c for c in coeffs]
    if [c % check for c in coeffs] != check_row:
        raise ArithmeticError("Faddeev-LeVerrier residues disagree modulo the check prime")
    return coeffs


def _leverrier_residues(
    graphs: list[RootedGraph], primes: list[list[int]]
) -> list[list[list[int]]]:
    """For rooted graphs G_i of n vertices with adjacency matrices A_i,
    out[i][j] holds the residues modulo primes[i][j] of det(xI - A_i), then
    of det(xI - A_i') for A_i' without the root's row and column, each
    constant term first.

    Faddeev-LeVerrier: with P = A M_k, c_k = -tr(P)/k and M_(k+1) = P + c_k I,
    starting from M_1 = I; (M_(k+1))_rr is the coefficient of x^(n-1-k) in
    det(xI - A').  The (graph, prime) pairs run in chunks of stacked float64
    matrices, and every value the loop forms is a nonnegative integer below
    2^53, so exact in float64.  Each chunk keeps `bound`, a Python int that
    no entry of the stack exceeds.  Every A of the chunk has 0/1 entries and
    row sums at most `rows`, so a product's entries are at most bound * rows
    and its trace at most bound * rows * n; adding c_k < p to the diagonal
    raises the bound by p - 1.  The stack is reduced modulo p only before a product
    whose trace could reach 2^53, and the bound drops to p - 1.  In between,
    only the trace is reduced before it is multiplied by the inverse of k
    (both below p), and the minor's diagonal entry as it is read.  A reduced
    stack can always take a product, since n (n - 1) (p - 1) < 2^53 for
    p < _PRIME_LIMIT and n <= EXACT_CHARPOLY_CAP.
    """
    n = graphs[0].n
    pairs = [(i, p) for i, ps in enumerate(primes) for p in ps]
    inverses = {p: [pow(k, -1, p) for k in range(1, n + 1)] for p in {p for _, p in pairs}}
    out: list[list[list[int]]] = [[] for _ in graphs]
    step = max(1, _BATCH_ENTRIES // (n * n))
    # 0/1 entries are their own residues modulo every prime
    a = np.zeros((len(graphs), n, n), dtype=np.uint8)
    for i, g in enumerate(graphs):
        a[i] = adjacency(g.graph)
    degrees = a.sum(axis=2, dtype=np.int64).max(axis=1).tolist()
    for start in range(0, len(pairs), step):
        chunk = pairs[start : start + step]
        batch = [p for _, p in chunk]
        ps = np.array(batch, dtype=np.float64)
        inv = np.array([inverses[p] for p in batch], dtype=np.float64).T
        am = a[[i for i, _ in chunk]].astype(np.float64)
        rows = max(degrees[i] for i, _ in chunk)
        top = max(batch) - 1
        stack, minor = np.arange(len(chunk)), np.array([graphs[i].root for i, _ in chunk])
        prod, bound = am.copy(), 1
        coeffs = np.ones((len(chunk), 2 * n + 1))  # M_1 = I gives x^(n-1) in the minor
        for k in range(1, n + 1):
            diagonal = prod.reshape(len(chunk), n * n)[:, :: n + 1]  # a view
            c = -(diagonal.sum(axis=1) % ps) * inv[k - 1] % ps
            coeffs[:, n - k] = c
            if k < n:
                diagonal += c[:, None]
                bound += top
                coeffs[:, 2 * n - k] = diagonal[stack, minor] % ps
                if bound * rows * n >= _EXACT_FLOAT:
                    prod %= ps[:, None, None]
                    bound = top
                prod = np.matmul(am, prod)
                bound *= rows
        for (i, _), row in zip(chunk, coeffs.astype(np.int64).tolist()):
            out[i].append(row)
    return out


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


def spectral_data(graphs: Sequence[RootedGraph]) -> list[RootedSpectralData]:
    """The characteristic polynomial pair of each rooted graph, in input order,
    from one batched `char_poly` run."""
    pairs = char_poly(graphs)
    return [RootedSpectralData(phi, minus, g.n) for g, (phi, minus) in zip(graphs, pairs)]


# ----------------------------------------------------------------------
# transforms

def green(sd: RootedSpectralData) -> RationalFunction:
    """Root-vector resolvent entry: phi_minus_root / phi."""
    return RationalFunction(sd.phi_minus_root, sd.phi)


def renormalized_trace(p: Polynomial, d: int) -> RationalFunction:
    """p'/p - d/z, as the one quotient (z p' - d p) / (z p); for p = phi of
    an element of d vertices, its trace resolvent less the order-zero term."""
    z = Polynomial.x()
    return RationalFunction(z * p.derivative() - p.scale(d), z * p)


def renormalized_cauchy(sd: RootedSpectralData) -> RationalFunction:
    """The renormalized trace resolvent rc = phi'/phi - dim/z."""
    return renormalized_trace(sd.phi, sd.dim)


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
# exact real root isolation: Descartes bisection over the integers

@dataclass(frozen=True, order=True)
class IsolatedRoot:
    """A real root in the exact interval [lo, hi]: lo == hi for a root found
    exactly, else both ends round to the same double, the root's value.  A
    root beyond the float range has no double and raises ValueError."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        try:
            float(self.lo)
        except OverflowError:
            raise ValueError("root beyond the float range") from None

    @property
    def exact(self) -> Fraction | None:
        return self.lo if self.lo == self.hi else None

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def value(self) -> float:
        return float(self.lo)

    def is_root_of(self, f: Polynomial) -> bool:
        """Whether f is 0 here, for an f whose roots are all roots of the
        polynomial this root was isolated from, and simple where it vanishes:
        exactly at a dyadic root, else by a sign change over the interval."""
        if f.degree == 0:
            return False
        if self.exact is not None:
            return f(self.exact) == 0
        return f(self.lo) * f(self.hi) < 0


def isolate_real_roots(p: Polynomial) -> list[IsolatedRoot]:
    """All real roots of p, each reported once (input need not be square-free).

    Vincent-Collins-Akritas bisection: the primitive integer part a of the
    square-free part of p has its roots in (-2^k, 2^k), and each side is
    halved until Descartes' rule of signs isolates every root.  `_refine`
    then narrows each interval by exact signs at points a float guess picks.
    A root that is a double, so every integer root, is found exactly.  Each
    other root gets an interval whose ends round to the same double, that
    holds no other root of p and has no root of p at either end.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    p = square_free_part(p)
    if p.degree <= 0:
        return []
    a = list(p._prim)
    # Cauchy's bound: |x| < 1 + max |a_i / a_d| <= 2^k
    k = max(c.bit_length() for c in a) - a[-1].bit_length() + 2
    roots = [IsolatedRoot(Fraction(0), Fraction(0))] if a[0] == 0 else []
    for sign in (1, -1):
        q = [(c * sign**i) << (k * i) for i, c in enumerate(a)]  # p(sign 2^k x)
        for c, j, exact in _descartes_bisect(q):
            if exact:
                x = Fraction((sign * c) << k, 1 << j)
                roots.append(IsolatedRoot(x, x))
            else:
                lo, hi = sorted(((sign * c) << k, (sign * (c + 1)) << k))
                roots.append(_refine(a, lo, hi, j))
    return sorted(roots)


def _descartes_bisect(q: list[int]) -> Iterator[tuple[int, int, bool]]:
    """The roots of the square-free q in (0, 1).

    Yields (c, j, False) for an interval (c/2^j, (c+1)/2^j) that holds exactly
    one root and (c, j, True) for a root at c/2^j.  Each node keeps q mapped
    so that its interval is (0, 1); the roots there are counted by the sign
    variations of (x + 1)^d q(1/(x + 1)), exactly when the count is 0 or 1.
    The count is the same for q and for q divided by x or by 1 - x, so a root
    at an end of the interval needs no division.
    """
    stack = [(q, 0, 0)]
    while stack:
        q, c, j = stack.pop()
        count = _sign_variations(_taylor_shift(q[::-1]))
        if count == 1:
            yield c, j, False
        elif count > 1:
            d = len(q) - 1
            left = [b << (d - i) for i, b in enumerate(q)]  # 2^d q(x/2)
            right = _taylor_shift(left)  # 2^d q((x + 1)/2)
            if right[0] == 0:
                yield 2 * c + 1, j + 1, True
            stack.append((left, 2 * c, j + 1))
            stack.append((right, 2 * c + 1, j + 1))


def _taylor_shift(a: list[int]) -> list[int]:
    """Coefficients of a(x + 1), by O(d^2) integer additions."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _sign_variations(a: list[int]) -> int:
    signs = [c > 0 for c in a if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sign_at(a: list[int], n: int, e: int) -> int:
    """Sign of sum a_i x^i at x = n/2^e."""
    acc = _scaled_value(a, n, e)
    return (acc > 0) - (acc < 0)


def _scaled_value(a: list[int], n: int, e: int) -> int:
    """2^(e d) times sum a_i x^i at x = n/2^e, for d = len(a) - 1, by Horner."""
    acc = 0
    for i, c in enumerate(reversed(a)):
        acc = acc * n + (c << (e * i))
    return acc


def _refine(a: list[int], lo: int, hi: int, e: int) -> IsolatedRoot:
    """The one root of p = sum a_i x^i in (lo/2^e, hi/2^e), refined.

    Returns an interval whose ends round to the same double, so the root does
    too, and neither of which is a root of p; a root that is a double comes
    back exact.  s is the sign of p just right of lo; at a root lo that is
    the sign of p'(lo), which is not 0 as p is square-free.  `_certify`
    proves the root's double from a float guess with a few exact signs; only
    when it fails is the interval bisected, about 50 exact signs from a
    Descartes interval.
    """
    s = _sign_at(a, lo, e)
    lo_root = s == 0
    if lo_root:
        s = _sign_at([i * c for i, c in enumerate(a)][1:], lo, e)
    root = _certify(a, lo, hi, e, s)
    if root is not None:
        return root
    hi_root = _sign_at(a, hi, e) == 0
    while lo_root or hi_root or _double(lo, e) != _double(hi, e):
        mid, lo, hi, e = lo + hi, 2 * lo, 2 * hi, e + 1
        sm = _sign_at(a, mid, e)
        if sm == 0:
            x = Fraction(mid, 1 << e)
            return IsolatedRoot(x, x)
        if sm == s:
            lo, lo_root = mid, False
        else:
            hi, hi_root = mid, False
    return IsolatedRoot(Fraction(lo, 1 << e), Fraction(hi, 1 << e))


def _double(n: int, e: int) -> float:
    """n/2^e rounded to a double, infinite beyond the float range."""
    try:
        return n / (1 << e)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _certify(a: list[int], lo: int, hi: int, e: int, s: int) -> IsolatedRoot | None:
    """The root of p = sum a_i x^i in (lo/2^e, hi/2^e), where p has sign s
    left of the root, proved by exact signs at points a float guess chose;
    None when the proof fails.

    The interval holds no other root, so at a double D strictly inside it,
    p(D) = 0 makes D the root, and else the sign of p(D) tells the root's
    side.  E, 1023/2048 of the way from D to the next double on that side,
    rounds to D, and opposite signs of p at D and E put the root in (D, E),
    which rounds to D as well.  Else D moves on, by the secant step through
    the exact values at D and E or at least to that next double.
    """
    x = _float_guess(a, lo, hi, e, s)
    if x is None:
        return None
    d = len(a) - 1

    def inside(n: int, m: int) -> bool:  # lo/2^e < n/2^m < hi/2^e
        return lo << m < n << e < hi << m

    for _ in range(_CERTIFY_STEPS):
        if not math.isfinite(x):
            return None
        n, m = _dyadic(x)
        if not inside(n, m):
            return None
        v = _scaled_value(a, n, m)
        if v == 0:
            return IsolatedRoot(Fraction(n, 1 << m), Fraction(n, 1 << m))
        right = (v > 0) == (s > 0)  # the root is right of D
        step = math.nextafter(x, math.inf if right else -math.inf) - x
        if not math.isfinite(step):
            return None
        n1, m1 = _dyadic(x + step)
        k = max(m, m1) + 11
        edge = 1025 * (n << (k - m - 11)) + 1023 * (n1 << (k - m1 - 11))
        if not inside(edge, k):
            return None
        w = _scaled_value(a, edge, k)
        if w and (w > 0) != (v > 0):
            ends = sorted((n << (k - m), edge))
            return IsolatedRoot(Fraction(ends[0], 1 << k), Fraction(ends[1], 1 << k))
        v <<= (k - m) * d  # p(D) on the scale of w = 2^(k d) p(E)
        if v == w:
            return None
        try:
            x += max(1.0, v / (v - w) * 1023 / 2048) * step
        except OverflowError:
            return None
    return None


def _dyadic(x: float) -> tuple[int, int]:
    """(n, m) with x = n/2^m."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def _float_guess(a: list[int], lo: int, hi: int, e: int, s: int) -> float | None:
    """A float guess of the root of p = sum a_i x^i in (lo/2^e, hi/2^e), where
    p has sign s left of the root; None if the float work overflows.

    Newton's method in floats from the midpoint, kept in a bracket that the
    float signs of p narrow, bisecting it when a step would leave it.  It
    stops once a step is within a unit in the last place, or once |p(x)| is
    within the rounding error bound of Horner's rule, below which the float
    value carries no sign, and after _NEWTON_STEPS steps at most.
    """
    shift = max(0, max(c.bit_length() for c in a) - 1000)  # keeps the floats finite
    try:
        coeffs = [c / (1 << shift) for c in reversed(a)]
        lo_f, hi_f = lo / (1 << e), hi / (1 << e)
    except OverflowError:
        return None
    x = (lo_f + hi_f) / 2
    for _ in range(_NEWTON_STEPS):
        f = df = bound = 0.0
        ax = abs(x)
        for c in coeffs:
            df = df * x + f
            f = f * x + c
            bound = bound * ax + abs(f)
        if not (math.isfinite(f) and math.isfinite(df)):
            return None
        if abs(f) <= _EPS_BOUND * bound:
            break
        if (f > 0) == (s > 0):
            lo_f = x
        else:
            hi_f = x
        if not (df and lo_f < (nxt := x - f / df) < hi_f):
            nxt = (lo_f + hi_f) / 2
        done = abs(nxt - x) <= math.ulp(x)
        x = nxt
        if done:
            break
    return x


# ----------------------------------------------------------------------
# spectrum extraction

@dataclass(frozen=True)
class SpectrumReport:
    """An exact route's spectrum of an element of dim vertices: rows of
    (IsolatedRoot, multiplicity), sorted by root.  `entries` views each row as
    its printed double; reports with equal entries and dim are equal.
    Multiplicities that do not sum to dim, or doubles that do not strictly
    increase (two distinct roots may round to one), raise ArithmeticError.
    """

    rows: tuple[tuple[IsolatedRoot, int], ...] = field(compare=False)
    dim: int
    entries: tuple[tuple[float, int], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((root.value, m) for root, m in self.rows))
        if sum(m for _, m in self.rows) != self.dim:
            raise ArithmeticError("multiplicities do not sum to dim")
        if any(b <= a for (a, _), (b, _) in zip(self.entries, self.entries[1:])):
            raise ArithmeticError("eigenvalues must be strictly increasing")


def extract_spectrum(rc: RationalFunction, dim: int) -> SpectrumReport:
    """Recover eigenvalues and multiplicities from a renormalized trace resolvent.

    t = rc + dim/z is the trace resolvent phi'/phi = sum of m/(z - lambda):
    its poles are the eigenvalues, 0 included, and the residue at each is the
    multiplicity m.  The residue is read exactly at a pole found exactly and
    at the interval midpoint of any other, rounded to m, and certified
    exactly: at an exact pole it must equal m; any other pole must be a root
    of gcd(t.den, t.num - m t.den'), whose roots are the poles with residue m
    (Rothstein-Trager).  The multiplicities must sum to dim.

    Every way rc fails to be a renormalized trace resolvent raises
    ArithmeticError, as the exact core does: a pipeline failure, not bad input.
    """
    t = rc + RationalFunction(Polynomial.constant(dim), Polynomial.x())
    if t.num.degree >= t.den.degree:
        raise ArithmeticError("not a trace resolvent: must vanish at infinity")
    roots = isolate_real_roots(t.den)
    if len(roots) != t.den.degree:
        raise ArithmeticError("not a trace resolvent: poles must be real and simple")
    den_prime = t.den.derivative()
    gcds: dict[int, Polynomial] = {}
    rows = []
    for root in roots:
        residue = t.num(root.midpoint) / den_prime(root.midpoint)
        m = round(residue)
        if root.exact is not None:
            certified = residue == m
        else:
            if m not in gcds:
                gcds[m] = poly_gcd(t.den, t.num - den_prime * m)
            certified = root.is_root_of(gcds[m])
        if not certified:
            raise ArithmeticError(f"non-integer residue {float(residue)} at pole {root.value}")
        if m < 1:
            raise ArithmeticError(f"non-positive multiplicity {m} at pole {root.value}")
        rows.append((root, m))
    return SpectrumReport(tuple(rows), dim)

