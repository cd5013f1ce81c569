"""Limit theorems and the infinite-divisibility classifier.

Covers the central-limit behavior of iterated star powers (spectral gap), the
trace-moment limits of iterated comb powers as sums over ordered set
partitions (computed by a circular-run recursion, with no enumeration, from
one `models.MomentData`, and resummed with one row of alpha_k(d, N) per N), the
integer moment table of the two-point comb limit with every recursion weight
checked against a Lucas polynomial, and the classification of additively
divisible trace spectra, with an exact check that the n-th root of a divisible
two-point element, folded n times, gives the element back.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .convolutions import (
    nfold_star_transforms,
    star_power_spectra,
    transform_pair,
)
from .exact import Polynomial
from .models import MomentData
from .transforms import (
    RootedSpectralData,
    SpectrumReport,
    laurent_at_infinity,
    renormalized_cauchy,
)

BETA_CAP = 200


# ----------------------------------------------------------------------
# central limit behavior of star powers

def cb_clt_limits(k: int, alpha: Fraction) -> tuple[int, Fraction]:
    """Limiting (state, trace) moments of order k for normalized sums.

    The trace limit of the variance is alpha, the summand's own trace
    variance.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    phi_limit = 1 if k % 2 == 0 else 0
    if k % 2 == 1:
        omega_limit = Fraction(0)
    elif k == 2:
        omega_limit = alpha
    else:
        omega_limit = Fraction(2)
    return phi_limit, omega_limit


@dataclass(frozen=True)
class CLTLimitReport:
    """Limit of one normalized-sum moment with its finite-size trajectory."""

    k: int
    phi_limit: int
    omega_limit: Fraction
    finite_n_values: tuple[tuple[int, float], ...]


def clt_report(
    sd: RootedSpectralData, root_degree: int, k_max: int, n_values: Sequence[int]
) -> tuple[CLTLimitReport, ...]:
    """Finite-size trace moments of normalized star-power sums against their limit.

    One report per order k = 1..k_max.  Moments come from the exact
    convolution pipeline: `nfold_star_transforms`, the closed-form
    cyclic-Boolean fold, once per sample size, so the sizes can reach the
    hundreds; only the final normalization is floating point.
    """
    if root_degree < 1:
        raise ValueError("root must have positive degree")
    alpha = laurent_at_infinity(renormalized_cauchy(sd), 3)[3] / root_degree
    series = [
        laurent_at_infinity(nfold_star_transforms(sd, n).rc, k_max + 1) for n in n_values
    ]
    reports = []
    for k in range(1, k_max + 1):
        rows = tuple(
            (n, float(moments[k + 1]) / (root_degree * n) ** (k / 2))
            for n, moments in zip(n_values, series)
        )
        reports.append(CLTLimitReport(k, *cb_clt_limits(k, alpha), rows))
    return tuple(reports)


@dataclass(frozen=True)
class GapRow:
    n: int
    largest: float
    smallest: float
    largest_mult: int
    smallest_mult: int
    bulk_max: float


def spectral_gap_report(
    sd: RootedSpectralData, root_degree: int, n_max: int
) -> list[GapRow]:
    """Spectra of n-fold star powers rescaled by 1/sqrt(deg * n), per n.

    Spectra come from `star_power_spectra`, the closed form of the n-fold
    power; only the final square root is floating point.
    """
    if root_degree < 1:
        raise ValueError("root must have positive degree")
    rows = []
    ns = range(1, n_max + 1)
    for n, report in zip(ns, star_power_spectra(sd, ns)):
        scale = 1.0 / math.sqrt(root_degree * n)
        scaled = [(v * scale, m) for v, m in report.entries]
        largest, l_mult = scaled[-1]
        smallest, s_mult = scaled[0]
        bulk = [abs(v) for v, _ in scaled[1:-1]]
        rows.append(
            GapRow(n, largest, smallest, l_mult, s_mult, max(bulk, default=0.0))
        )
    return rows


# ----------------------------------------------------------------------
# comb power moments via ordered set partitions

def alpha_row(d: int, n: int, k_max: int) -> list[int]:
    """alpha_k(d, n) for k = 0..k_max: the sum of d^(j_1 - 1) over increasing
    k-tuples from {1..n}, so 1 at k = 0 and 0 when n < k.

    For k >= 1 this is sum_(i>=k) binom(n, i) (d - 1)^(i-k), computed as
    (d^n - sum_(i<k) binom(n, i) (d - 1)^i) / (d - 1)^k, the partial sum
    growing by one term from each k to the next.
    """
    if d < 2:
        raise ValueError("factor dimension must be >= 2")
    if k_max < 0 or n < 0:
        raise ValueError("negative arguments")
    row, num = [1], d**n
    for k in range(1, k_max + 1):
        num -= math.comb(n, k - 1) * (d - 1) ** (k - 1)
        q, r = divmod(num, (d - 1) ** k)
        if r:
            raise AssertionError("non-integer alpha_k")
        row.append(q)
    return row


def _line_run_weights(length: int, psi: Sequence) -> list[list]:
    """lw[L][m]: weighted count of 0/1 lines of length L with m ones, where
    each maximal run of ones of length j carries weight psi[j-1]."""
    lw = [[0] * (length + 1) for _ in range(length + 1)]
    lw[0][0] = 1
    for ln in range(1, length + 1):
        for m in range(0, ln + 1):
            total = lw[ln - 1][m]  # last position empty
            for j in range(1, m + 1):  # run of length j at the right end
                if j == ln:
                    if m == j:
                        total += psi[j - 1]
                else:
                    total += psi[j - 1] * lw[ln - j - 1][m - j]
            lw[ln][m] = total
    return lw


def _circle_block_weights(s: int, psi: Sequence, lw: list[list]) -> list:
    """w[m]: total arc weight of proper nonempty subsets of the s-cycle with m
    elements, each subset weighted by the product of psi over its maximal arcs;
    lw is `_line_run_weights` of length at least s - 1."""
    w = [0] * s
    for m in range(1, s):
        total = lw[s - 1][m]  # subsets avoiding a fixed base point
        for j in range(1, min(m, s - 1) + 1):
            rest = s - j - 2
            if rest >= 0:
                total += j * psi[j - 1] * lw[rest][m - j]
            elif m == j:  # arc covers all but one point
                total += j * psi[j - 1]
        w[m] = total
    return w


def ordered_partition_moment_sums(k: int, m: MomentData) -> list[list[int | Fraction]]:
    """v[s][p] for p <= s <= k: the sum of the partition moments over ordered
    set partitions of [s] with exactly p blocks, computed by a circular-run
    recursion (no enumeration, so k may exceed enumeration caps).

    The moment of an ordered partition is the cyclic-monotone trace moment
    (`models.eval_cyclic_monotone_word`) of the word that labels each element
    with its block's position, every letter read from the one table m: the
    last block's maximal circular arcs each give a state moment of their
    length, and the last block left reads the trace table.
    """
    if len(m.phi) < k:
        raise ValueError("moment tables too short")
    lw = _line_run_weights(k, m.phi)
    v = [[0]]
    for s in range(1, k + 1):
        w = _circle_block_weights(s, m.phi, lw)
        # a last block of j elements leaves s - j >= p - 1 to the other blocks
        v.append([0, m.omega[s - 1]] + [
            sum(w[j] * v[s - j][p - 1] for j in range(1, s - p + 2))
            for p in range(2, s + 1)
        ])
    return v


def finite_n_comb_moment(alphas: Sequence[int], sums: Sequence) -> int | Fraction:
    """Exact trace moment of order len(sums) - 1 of the n-fold ordered iid
    sum of d-dimensional elements; sums is that row of
    `ordered_partition_moment_sums` and alphas is `alpha_row(d, n, k)` for
    some k >= len(sums) - 1."""
    return sum(alphas[p] * v for p, v in enumerate(sums) if p)


def comb_limit_moment(d: int, sums: Sequence) -> Fraction:
    """Limit of d^-n times the finite-n moments, from the same row."""
    return sum((v / Fraction(d - 1) ** p for p, v in enumerate(sums) if p), start=Fraction(0))


# ----------------------------------------------------------------------
# two-point comb limit moments (exact integer tables)

@dataclass(frozen=True)
class BetaTable:
    """Even limit moments beta_0..beta_n with the block-count refinement gamma."""

    values: tuple[int, ...]

    def __post_init__(self):
        if self.values[0] != 1:
            raise ValueError("beta_0 must be 1")

    @cached_property
    def gamma(self) -> tuple[tuple[int, ...], ...]:
        """gamma[n][k - 1] refines beta_n by block count k, 1 <= k <= n.

        Weighted subsets of the cycle per block count, built on first read;
        the block counts must resum to beta_n, or the read raises.
        """
        gamma: list[tuple[int, ...]] = [()]
        columns: list[list[int]] = []  # columns[j] = [gamma[j + 1][j], gamma[j + 2][j], ...]
        for n in range(1, len(self.values)):
            w = _beta_weights(n)
            row = [2] + [
                sum(map(operator.mul, w[k - 1 : n], columns[k - 2]))
                for k in range(2, n + 1)
            ]
            columns.append([])
            for column, entry in zip(columns, row):
                column.append(entry)
            gamma.append(tuple(row))
            if sum(row) != self.values[n]:
                raise AssertionError(
                    f"block-count routes disagree at n={n}: {sum(row)} vs {self.values[n]}"
                )
        return tuple(gamma)


def _beta_weights(n: int) -> list[int]:
    """The integer weights w(n, el) = binom(n+el, n-el) * 2n / (n+el), el < n,
    from w(n, 0) = 2 by the ratio of consecutive binomials,
    w(n, el+1) = w(n, el) (n+el)(n-el) / ((2el+1)(2el+2)), each step exact."""
    row = [2]
    for el in range(n - 1):
        q, r = divmod(row[-1] * ((n + el) * (n - el)), (2 * el + 1) * (2 * el + 2))
        if r:
            raise AssertionError("non-integer recursion coefficient")
        row.append(q)
    return row


def _lucas_polynomials() -> Iterator[list[int]]:
    """Coefficient lists, lowest degree first, of L_0 = 2, L_1 = x and
    L_(m+1) = x L_m + L_(m-1)."""
    prev, cur = [2], [0, 1]
    while True:
        yield prev
        prev, cur = cur, [a + b for a, b in zip([0] + cur, prev + [0, 0])]


def beta_table(n_max: int) -> BetaTable:
    """Moment table by the direct recursion, every weight checked independently.

    beta_n = sum_(el < n) w(n, el) beta_el with w(n, el) from the binomial
    formula, one row per n (`_beta_weights`).  The same w(n, el) is the
    coefficient of x^(2 el) in the Lucas polynomial L_(2n), whose leading
    coefficient is 1, so the recursion says E[L_(2n)(X)] = 2 beta_n for the
    limit law.  Every weight is compared with the coefficient that the
    three-term recurrence builds, and a mismatch raises, so a returned table
    rests on two routes to each weight.
    """
    if not 0 <= n_max <= BETA_CAP:
        raise ValueError(f"n_max out of range 0..{BETA_CAP}")
    beta = [1]
    even_lucas = itertools.islice(_lucas_polynomials(), 2, None, 2)  # L_2, L_4, ...
    for n, lucas in zip(range(1, n_max + 1), even_lucas):
        # w[el] is the recursion weight of beta_el in beta_n, el < n
        w = _beta_weights(n)
        if w != lucas[0 : 2 * n : 2]:
            el = next(el for el in range(n) if w[el] != lucas[2 * el])
            raise AssertionError(
                f"weight routes disagree at n={n}: binomial w({n}, {el}) = {w[el]}, "
                f"Lucas L_{2 * n} coefficient {lucas[2 * el]}"
            )
        beta.append(sum(map(operator.mul, w, beta)))
    return BetaTable(tuple(beta))


def carleman_check(n_max: int) -> tuple[bool, list[float]]:
    """Verify beta_n <= (11 n)^(2n) exactly; also return the divergent
    partial sums of beta_n^(-1/2n)."""
    table = beta_table(n_max)
    partial = []
    acc = 0.0
    for n in range(1, n_max + 1):
        if table.values[n] > (11 * n) ** (2 * n):
            return False, partial
        # beta_n ** (-1 / 2n) by logs: beta_n overflows a float from n = 142
        acc += math.exp(-math.log(table.values[n]) / (2 * n))
        partial.append(acc)
    return True, partial


# ----------------------------------------------------------------------
# infinite divisibility

@dataclass(frozen=True)
class IDVerdict:
    divisible: bool
    case: str  # zero | one_nonzero | two_nonzero | none
    alpha: float | None = None
    beta: float | None = None
    reason: str = ""


def cb_id_classify(spectrum: SpectrumReport, weights: Sequence) -> IDVerdict:
    """Classify a (trace spectrum, state weights) pair for divisibility.

    weights[i] is the state weight of spectrum.entries[i]; they must be
    nonnegative and sum to one.  Eigenvalues and weights are taken as exact
    rationals and the verdict is decided with ==; alpha and beta are reported
    as floats.
    """
    if len(weights) != len(spectrum.entries):
        raise ValueError("one weight per spectrum entry required")
    wts = [Fraction(w) for w in weights]
    if any(w < 0 for w in wts) or sum(wts) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    nonzero = [
        (Fraction(v), m, w)
        for (v, m), w in zip(spectrum.entries, wts)
        if v != 0
    ]
    if not nonzero:
        return IDVerdict(True, "zero")
    if len(nonzero) == 1:
        v, m, w = nonzero[0]
        if m != 1:
            return IDVerdict(False, "none", reason="single eigenvalue not simple")
        if w != 1:
            return IDVerdict(
                False, "none", reason="state not concentrated on the eigenvalue"
            )
        return IDVerdict(True, "one_nonzero", alpha=float(v))
    if len(nonzero) == 2:
        (a, ma, wa), (b, mb, wb) = nonzero
        if ma != 1 or mb != 1:
            return IDVerdict(False, "none", reason="eigenvalues not simple")
        if a * b >= 0:
            return IDVerdict(False, "none", reason="eigenvalues have equal signs")
        if wa != -a / (b - a) or wb != b / (b - a):
            return IDVerdict(False, "none", reason="state weights off the line")
        return IDVerdict(True, "two_nonzero", alpha=float(a), beta=float(b))
    return IDVerdict(False, "none", reason="more than two non-zero eigenvalues")


def two_point_element(s: Fraction, q: Fraction) -> RootedSpectralData:
    """The two-point element with eigenvalue sum s and product q (q < 0),
    state weights on the divisible line: characteristic pair
    (z^2 - s z + q, z)."""
    return RootedSpectralData(Polynomial((q, -s, 1)), Polynomial.x(), 2)


def nth_root_round_trip(alpha, beta, n: int) -> bool:
    """Exact check that the n-th additive root of a divisible two-point
    (alpha, beta) element, folded n times, reproduces the element.

    The root is the two-point element with eigenvalue sum (alpha + beta)/n and
    product alpha beta/n, built exactly by `two_point_element`.
    """
    a, b = Fraction(alpha), Fraction(beta)
    if a * b >= 0:
        raise ValueError("eigenvalues must have opposite signs")
    if n < 1:
        raise ValueError("n must be >= 1")
    root = two_point_element((a + b) / n, a * b / n)
    return nfold_star_transforms(root, n) == transform_pair(two_point_element(a + b, a * b))
