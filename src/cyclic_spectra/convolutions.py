"""Convolution identities for star and comb products.

All identities are stated and checked at the level of exact rational functions
or integer polynomials; the checkers return structured certificates so a
failing identity pinpoints the mismatching object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .exact import Polynomial, RationalFunction, homogeneous_compose, poly_gcd
from .transforms import (
    IsolatedRoot,
    RootedSpectralData,
    SpectrumReport,
    green,
    isolate_real_roots,
    renormalized_cauchy,
    renormalized_trace,
)

_Z = RationalFunction.x()
_ONE_OVER_Z = RationalFunction(Polynomial.one(), Polynomial.x())


class TransformPair(NamedTuple):
    """The (renormalized trace resolvent, Green function) pair of one element."""

    rc: RationalFunction
    green: RationalFunction


def transform_pair(sd: RootedSpectralData) -> TransformPair:
    return TransformPair(renormalized_cauchy(sd), green(sd))


# ----------------------------------------------------------------------
# star product / additive convolution

def h_transform(sd: RootedSpectralData) -> RationalFunction:
    """h = rc + 1/z + G'/G in closed form: with G = psi/phi for psi = phi_(G-r),
    h = psi'/psi - (dim - 1)/z = rc(G - r).  The star product's G - r is the
    disjoint union of its factors' (Schwenk), so psi multiplies and h adds."""
    return renormalized_trace(sd.phi_minus_root, sd.dim - 1)


def cyclic_boolean_sum(terms: Sequence[tuple[RootedSpectralData, int]]) -> TransformPair:
    """Transforms of a sum of cyclic-Boolean independent elements.

    Term (sd_i, n_i) is n_i copies of one element.  With N = sum n_i,
    F = sum n_i F_i - (N - 1) z and h = sum n_i h_i, so rc = h - 1/z - G'/G.
    Each n_i must be >= 1, and there must be at least one term.
    """
    if min((n for _, n in terms), default=0) < 1:
        raise ValueError("fold count must be >= 1")
    count = sum(n for _, n in terms)
    f = -(count - 1) * _Z
    h = -_ONE_OVER_Z
    for sd, n in terms:
        f = f + n * RationalFunction(sd.phi, sd.phi_minus_root)
        h = h + n * h_transform(sd)
    g = f.reciprocal()
    return TransformPair(h - g.log_derivative(), g)


def nfold_star_transforms(sd: RootedSpectralData, n: int) -> TransformPair:
    """Transforms of the n-fold star power, in closed form (no iteration)."""
    return cyclic_boolean_sum(((sd, n),))


def star_power_spectra(sd: RootedSpectralData, ns: Sequence[int]) -> Iterator[SpectrumReport]:
    """Spectrum of the n-fold star power of one element, for each n in ns.

    With psi = phi_(G-r), g = gcd(phi, psi), P = phi/g and Q = psi/g, the fold
    F_n = n F - (n - 1) z of F = P/Q = 1/G gives the characteristic polynomial
    phi_n = psi^(n-1) g S_n = g^n Q^(n-1) S_n, for S_n = n P - (n - 1) z Q,
    monic of degree deg P (Schwenk).  So a root of g of multiplicity m counts
    n m times, a root of Q n - 1 times and a root of S_n once, summed where
    they coincide.  Q shares no root with S_n, since S_n = n P there and P and
    Q are coprime.  The roots of g with their multiplicities, the roots of Q
    and gcd(Q, g) are found once per element; per n, only S_n is built, its
    roots isolated, and gcd(S_n, g) tested over each root's interval.

    G = Q/P is the Cauchy transform of the root's spectral measure, so Q is
    square-free with one zero between consecutive poles, F' >= 1, and S_n has
    one simple root on each of the deg P branches of F.  Anything else raises
    ArithmeticError, as `transforms.extract_spectrum` does: an S_n that is not
    monic of degree deg P, fewer than deg P real roots, multiplicities that do
    not sum to n (d - 1) + 1, or two roots whose values round to one double.
    """
    if min(ns, default=1) < 1:
        raise ValueError("fold count must be >= 1")
    g = poly_gcd(sd.phi, sd.phi_minus_root)
    p, q = g.cofactors
    zq = Polynomial.x() * q
    g_roots = isolate_real_roots(g)
    shared = poly_gcd(q, g)
    g_base = [
        (mu, m, mu.is_root_of(shared)) for mu, m in zip(g_roots, _multiplicities(g, g_roots))
    ]
    # a root of Q counts n - 1 times, so only from n = 2 on
    q_roots = isolate_real_roots(q) if max(ns, default=1) > 1 else []
    q_only = [mu for mu in q_roots if not mu.is_root_of(shared)]
    for n in ns:
        s = p.scale(n) - zq.scale(n - 1)
        if s.degree != p.degree or s.leading() != 1:
            raise ArithmeticError(f"S_{n} is not monic of degree {p.degree}")
        roots = isolate_real_roots(s)
        if len(roots) != s.degree:
            raise ArithmeticError(f"S_{n} has {len(roots)} real roots, not {s.degree}")
        common = poly_gcd(s, g)
        entries = [(root.value, 1) for root in roots if not root.is_root_of(common)]
        entries += [(mu.value, n - 1) for mu in q_only if n > 1]
        entries += [
            (mu.value, n * m + (n - 1) * in_q + mu.is_root_of(common)) for mu, m, in_q in g_base
        ]
        try:
            report = SpectrumReport(tuple(sorted(entries)), n * (sd.dim - 1) + 1)
        except ValueError as exc:  # the multiplicities or the rounded roots
            raise ArithmeticError(*exc.args) from exc
        yield report


def _multiplicities(p: Polynomial, roots: list[IsolatedRoot]) -> list[int]:
    """The multiplicity in p of each of its distinct roots, isolated together.

    Yun's square-free factorization p = c a_1 a_2^2 a_3^3 ... gives each a_i
    square-free, so a root of p has multiplicity i where a_i vanishes on it.
    """
    out = [0] * len(roots)
    b, c = poly_gcd(p, p.derivative()).cofactors
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, c - b.derivative())
        b, c = a.cofactors
        for k, root in enumerate(roots):
            if root.is_root_of(a):
                out[k] = i
        i += 1
    return out


def star_char_poly(
    sd1: RootedSpectralData, sd2: RootedSpectralData
) -> RootedSpectralData:
    """Characteristic polynomial pair of the star product, from the factors."""
    phi = (
        sd1.phi * sd2.phi_minus_root
        + sd1.phi_minus_root * sd2.phi
        - Polynomial.x() * sd1.phi_minus_root * sd2.phi_minus_root
    )
    phi_minus = sd1.phi_minus_root * sd2.phi_minus_root
    return RootedSpectralData(phi, phi_minus, sd1.dim + sd2.dim - 1)


# ----------------------------------------------------------------------
# comb product / ordered convolution

def comb_char_poly(
    sd_g: RootedSpectralData, sd_h: RootedSpectralData
) -> RootedSpectralData:
    """Characteristic polynomial pair of the comb product g |> h.

    phi is phi_{h-root}^d * phi_g(F_h), assembled directly as a polynomial;
    the root-deleted polynomial follows the splitting recursion, which trades
    phi_g for phi_{g-root} and appends one more root-deleted copy of h.
    """
    phi = homogeneous_compose(sd_g.phi, sd_h.phi, sd_h.phi_minus_root)
    phi_minus = (
        homogeneous_compose(sd_g.phi_minus_root, sd_h.phi, sd_h.phi_minus_root)
        * sd_h.phi_minus_root
    )
    return RootedSpectralData(phi, phi_minus, sd_g.dim * sd_h.dim)


def cyclic_monotone_sum(
    rc_g: RationalFunction, d_g: int, pair_h: TransformPair
) -> RationalFunction:
    """Renormalized trace resolvent of the comb product g |> h.

    A cyclic-monotone sum with the base g (d_g vertices) below and d_g copies
    of the attached h above; g enters through composition with F_h = 1/G_h:
    rc = d_g * rc_h + F_h' * rc_g(F_h).
    """
    f_h = pair_h.green.reciprocal()
    return d_g * pair_h.rc + f_h.derivative() * rc_g.compose(f_h)


def nfold_comb_transforms(sd: RootedSpectralData, n: int) -> RationalFunction:
    """Renormalized trace resolvent of the n-fold comb power (left fold)."""
    if n < 1:
        raise ValueError("fold count must be >= 1")
    pair = transform_pair(sd)
    # reading G_h reduces it here, once, so each step's F_h = 1/G_h is canonical
    pair.green.den
    rc, dim = pair.rc, sd.dim
    for _ in range(n - 1):
        rc = cyclic_monotone_sum(rc, dim, pair)
        dim *= sd.dim
    return rc


# ----------------------------------------------------------------------
# identity checkers with certificates

@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one exact identity check; falsy when the sides differ."""

    name: str
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _compare(name: str, lhs, rhs) -> IdentityCheck:
    if lhs == rhs:
        return IdentityCheck(name, True)
    return IdentityCheck(name, False, detail=f"lhs={lhs} rhs={rhs}")


def star_cauchy_identity_check(
    sd1: RootedSpectralData,
    sd2: RootedSpectralData,
    product_sd: RootedSpectralData,
) -> IdentityCheck:
    """Star-product identity for both transforms, checked exactly.

    The (rc, G) pair of the product must equal the cyclic-Boolean sum of the
    factors, computed by `cyclic_boolean_sum`, the fold that `limits clt` runs.
    """
    lhs = transform_pair(product_sd)
    rhs = cyclic_boolean_sum(((sd1, 1), (sd2, 1)))
    return _compare("star-cauchy", lhs, rhs)


def h_additivity_check(
    sd1: RootedSpectralData,
    sd2: RootedSpectralData,
    product_sd: RootedSpectralData,
) -> IdentityCheck:
    """h of the product by its definition, rc + 1/z + G'/G, against the factors'."""
    rc, g = transform_pair(product_sd)
    lhs = rc + _ONE_OVER_Z + g.log_derivative()
    rhs = h_transform(sd1) + h_transform(sd2)
    return _compare("h-additivity", lhs, rhs)


def _compare_char_polys(
    name: str, predicted: RootedSpectralData, product_sd: RootedSpectralData
) -> IdentityCheck:
    if predicted.phi != product_sd.phi:
        return IdentityCheck(
            name, False, detail=f"phi mismatch: {predicted.phi} vs {product_sd.phi}"
        )
    return _compare(name, predicted.phi_minus_root, product_sd.phi_minus_root)


def schwenk_star_check(
    sd1: RootedSpectralData,
    sd2: RootedSpectralData,
    product_sd: RootedSpectralData,
) -> IdentityCheck:
    return _compare_char_polys("schwenk-star", star_char_poly(sd1, sd2), product_sd)


def schwenk_comb_check(
    sd_g: RootedSpectralData,
    sd_h: RootedSpectralData,
    product_sd: RootedSpectralData,
) -> IdentityCheck:
    return _compare_char_polys("schwenk-comb", comb_char_poly(sd_g, sd_h), product_sd)


def comb_trace_check(
    sd_g: RootedSpectralData,
    sd_h: RootedSpectralData,
    product_sd: RootedSpectralData,
) -> IdentityCheck:
    lhs = renormalized_cauchy(product_sd)
    rhs = cyclic_monotone_sum(renormalized_cauchy(sd_g), sd_g.dim, transform_pair(sd_h))
    return _compare("comb-trace", lhs, rhs)
