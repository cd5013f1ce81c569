"""Cyclic-Boolean cumulants: univariate cumulants by coefficient recurrences,
partitioned moments on the free-product word algebra, and Moebius-defined
cumulants.

Everything reads one `models.MomentData`, an element's state and trace
moment tables held as ints where integral, so integer tables run the
recurrences and the lattice in integer arithmetic.  Partitioned moments read
it for every independent copy of the element, with a partition's labels,
counted from 1, as the word's letters, each of power one.
Multivariate cumulants come from one lattice sum, written once for both
functionals: a sum of cumulants over a family of partitions gathers integer
Moebius coefficients per refinement, so each partitioned moment is evaluated
once.  The coefficients depend on the family alone, so `moment_cumulant_check`
builds those of CI(n) once per call for all its tables, and returns one
`IdentityCheck`, as the other identity checks do, per table.  The Boolean
cumulant B_pi is `partition_cumulant(m, pi, "phi")`.  The interval / rotation
case split is a reference in the tests.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from .convolutions import IdentityCheck
from .models import MixedWord, MomentData, _merge_runs, eval_cyclic_boolean_word
from .partitions import SetPartition, enumerate_partitions, moebius, refinements

LATTICE_CAP = 8


def boolean_cumulants(m: MomentData) -> list[int | Fraction]:
    """b_1..b_K, the coefficients of B = M / (1 + M).

    Comparing coefficients in B (1 + M) = M gives
    b_n = m_n - sum_{j<n} b_j m_{n-j}.
    """
    bs: list[int | Fraction] = []
    for n, m_n in enumerate(m.phi, start=1):
        bs.append(m_n - sum(bs[j - 1] * m.phi[n - j - 1] for j in range(1, n)))
    return bs


def _cyclic_from_boolean(m: MomentData, bs: Sequence[int | Fraction]) -> list[int | Fraction]:
    # coefficients of C = M-hat - z M B': c_n = omega_n - sum_{j<n} j b_j m_{n-j}
    return [
        w_n - sum(j * bs[j - 1] * m.phi[n - j - 1] for j in range(1, n))
        for n, w_n in enumerate(m.omega, start=1)
    ]


def cyclic_boolean_cumulants(m: MomentData) -> list[int | Fraction]:
    """c_1..c_K of the linearizing trace-side transform C = M-hat - z M B'.

    c_1 is the first trace moment, c_2 the trace variance.
    """
    return _cyclic_from_boolean(m, boolean_cumulants(m))


def h_coefficients(m: MomentData) -> list[int | Fraction]:
    """Expansion coefficients of the additive transform: h_n = c_n - n b_n."""
    bs = boolean_cumulants(m)
    cs = _cyclic_from_boolean(m, bs)
    return [c - n * b for n, (b, c) in enumerate(zip(bs, cs), start=1)]


# ----------------------------------------------------------------------
# multivariate layer

def _lattice_coefficients(pis: Iterable[SetPartition]) -> dict[SetPartition, int]:
    """The nonzero integer coefficients c(rho) = sum_{pi in pis, pi >= rho}
    mu(rho, pi), which regroup the Moebius inversions of the partitioned
    moments over pis as one sum over rho.  They depend on pis alone, not on
    the moment table."""
    coefficients: Counter[SetPartition] = Counter()
    for pi in pis:
        if pi.n > LATTICE_CAP:
            raise ValueError(f"ground set {pi.n} exceeds lattice cap {LATTICE_CAP}")
        for rho in refinements(pi):
            coefficients[rho] += moebius(rho, pi)
    return {rho: c for rho, c in coefficients.items() if c}


def _lattice_sum(
    coefficients: dict[SetPartition, int], ms: Sequence[MomentData], functional: str
) -> list[int | Fraction]:
    """sum_rho c(rho) m_rho for each table m, each partitioned moment evaluated
    once.

    The partitioned moment m_rho (omega_rho or phi_rho, by functional) is the
    product functional on the word whose letters are the labels of rho, each
    block a separate independent copy of the element m.  The word depends on
    rho alone, so each is built once per call and read for every table.
    """
    shortest = min((len(m.phi) for m in ms), default=math.inf)
    terms = []
    for rho, c in coefficients.items():
        if rho.n > shortest:
            raise ValueError(f"moment tables too short for total power {rho.n}")
        letters = _merge_runs((label + 1, 1) for label in rho.labels)
        terms.append((c, MixedWord(tuple(map(tuple, letters))), len(rho)))
    return [
        sum((c * eval_cyclic_boolean_word(word, [m] * k, functional) for c, word, k in terms), 0)
        for m in ms
    ]


def partition_cumulant(
    m: MomentData, pi: SetPartition, functional: str = "omega"
) -> int | Fraction:
    """Moebius inversion of the partitioned moments over the refinements of pi.

    On the trace side ("omega") this is the partitioned cyclic-Boolean
    cumulant, by the defining lattice sum; on the state side ("phi") it is
    the Boolean cumulant B_pi.
    """
    [value] = _lattice_sum(_lattice_coefficients([pi]), [m], functional)
    return value


def _moment_cumulant_outcome(
    m: MomentData, n: int, cis: Sequence[SetPartition], rhs: int | Fraction
) -> IdentityCheck:
    lhs = m.omega[n - 1]
    if lhs != rhs:
        return IdentityCheck(
            "moment-cumulant", False, f"lattice resummation differs: lhs={lhs} rhs={rhs}"
        )
    bs = boolean_cumulants(m)
    recursion = _cyclic_from_boolean(m, bs)[n - 1] + sum(
        math.prod(bs[len(b) - 1] for b in pi.blocks) for pi in cis if len(pi) > 1
    )
    if recursion != lhs:
        return IdentityCheck(
            "moment-cumulant", False, f"univariate recursion differs: lhs={lhs} rhs={recursion}"
        )
    return IdentityCheck("moment-cumulant", True)


def moment_cumulant_check(ms: Sequence[MomentData], n: int) -> list[IdentityCheck]:
    """Check, for each table, that the cyclic-interval cumulants of order n
    resum to the trace moment omega_n; one IdentityCheck per table.

    Also verifies the single-variable recursion splitting the moment into the
    top cumulant plus Boolean contributions of the proper cyclic intervals.
    CI(n) and its Moebius coefficients are built once per call and serve
    every table.
    """
    if n > LATTICE_CAP:  # before CI(n) is built: CI(20) has a million members
        raise ValueError(f"ground set {n} exceeds lattice cap {LATTICE_CAP}")
    if any(n > len(m.omega) for m in ms):
        raise ValueError(f"moment tables too short for total power {n}")
    cis = enumerate_partitions(n, "CI")
    rhss = _lattice_sum(_lattice_coefficients(cis), ms, "omega")
    return [_moment_cumulant_outcome(m, n, cis, rhs) for m, rhs in zip(ms, rhss)]
