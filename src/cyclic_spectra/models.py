"""Ground-truth machinery: dense eigensolver, tensor operator models, and
rule-based evaluators for mixed moments under the two independences.

The two word evaluators are the only implementation of each moment rule:
`cumulants` reads its partitioned moments through the cyclic-Boolean one, and
the comb-limit sums over ordered set partitions in `limits` are tested against
the cyclic-monotone one.

The tensor models are defined by their Kronecker embeddings, which the tests
compare against. The `verify mixed-words` suite never builds those products:
`OperatorModel.word_moments` multiplies each slot's small factors on their own
and reads a word's trace and vacuum entry as products over the slots, by the
mixed-product property (A⊗B)(C⊗D) = AC⊗BD.

One type, `MomentData`, carries every state and trace moment table, with
ints where integral: `matrix_power_moments` builds one, and the word rules
(one per algebra), `cumulants` and `limits` read it.

Everything here is deliberately independent of the transform pipeline so that
the two sides can arbitrate each other in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

CLUSTER_TOL = 1e-8


# ----------------------------------------------------------------------
# dense symmetric eigensolver (LAPACK)

def _symmetric_matrix(m, dtype) -> np.ndarray:
    """m as an ndarray of dtype, checked to be square and symmetric."""
    a = np.asarray(m, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not (a == a.T).all():
        raise ValueError("matrix must be symmetric")
    return a


def eigensolve(m: np.ndarray) -> tuple[tuple[float, int], ...]:
    """(eigenvalue, multiplicity) rows, increasing, from LAPACK's symmetric
    solver, with values within CLUSTER_TOL of their neighbour clustered.

    ``eigvalsh`` reads only one triangle, so a non-symmetric matrix is rejected
    here instead of being solved as if it were symmetric.
    """
    values = np.linalg.eigvalsh(_symmetric_matrix(m, float))
    # a cluster ends where the next value lies more than CLUSTER_TOL above it
    ends = np.flatnonzero(np.diff(values) > CLUSTER_TOL) + 1
    return tuple((float(c.mean()), len(c)) for c in np.split(values, ends) if len(c))


# ----------------------------------------------------------------------
# tensor operator models

def _rank_one_projector(dim: int) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=object)
    p[0, 0] = 1
    return p


def _identity(dim: int) -> np.ndarray:
    return np.identity(dim, dtype=object)


# the factor of an embedded operator on each slot below the operator's own
_BELOW_SLOT = {"boolean": _rank_one_projector, "monotone": _identity}


@dataclass(frozen=True)
class OperatorModel:
    """Tensor-product model over factors with distinguished coordinate 0.

    An operator embedded at slot i is a Kronecker product with one factor per
    slot, and `_factors` is the only definition of those factors: the Boolean
    embedding puts rank-one projectors on every other slot, the monotone one
    keeps identities below slot i and projectors above it. boolean_embed and
    monotone_embed build the full matrix; word_moments never does.
    """

    dims: tuple[int, ...]

    def _factors(self, i: int, a, kind: str) -> list[np.ndarray]:
        a = _symmetric_matrix(a, object)
        if a.shape[0] != self.dims[i]:
            raise ValueError(f"operator dim {a.shape[0]} != slot dim {self.dims[i]}")
        if kind not in _BELOW_SLOT:
            raise ValueError("kind must be 'boolean' or 'monotone'")
        below = _BELOW_SLOT[kind]
        return [
            below(d) if j < i else a if j == i else _rank_one_projector(d)
            for j, d in enumerate(self.dims)
        ]

    def _chain(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        out = factors[0]
        for f in factors[1:]:
            out = np.kron(out, f)
        return out

    def boolean_embed(self, i: int, a) -> np.ndarray:
        return self._chain(self._factors(i, a, "boolean"))

    def monotone_embed(self, i: int, a) -> np.ndarray:
        return self._chain(self._factors(i, a, "monotone"))

    def word_moments(self, ops: Sequence[tuple[int, object]], kind: str) -> tuple:
        """(trace, [0, 0] entry) of the product of the operators ops, each a
        (slot, matrix) pair embedded by kind, evaluated one slot at a time.

        By the mixed-product property the product of Kronecker products is the
        Kronecker product of the per-slot products, and the trace and the
        vacuum entry of a Kronecker product are the products of its factors'.
        """
        if not ops:
            raise ValueError("a word needs at least one operator")
        slots = None
        for i, a in ops:
            factors = self._factors(i, a, kind)
            slots = factors if slots is None else [p.dot(f) for p, f in zip(slots, factors)]
        return math.prod(p.trace() for p in slots), math.prod(p[0, 0] for p in slots)


def _exact(x) -> int | Fraction:
    """x as an exact scalar: an int when it is integral, otherwise a Fraction."""
    if type(x) is int:  # the common entry; building a Fraction from it costs more
        return x
    q = Fraction(x)
    return int(q.numerator) if q.denominator == 1 else q


@dataclass(frozen=True)
class MomentData:
    """State and trace moment tables of one element, index k-1 for power k,
    each entry stored by `_exact`."""

    phi: tuple[int | Fraction, ...]
    omega: tuple[int | Fraction, ...]

    def __init__(self, phi: Iterable, omega: Iterable):
        object.__setattr__(self, "phi", tuple(map(_exact, phi)))
        object.__setattr__(self, "omega", tuple(map(_exact, omega)))
        if len(self.phi) != len(self.omega):
            raise ValueError("phi and omega tables must have equal length")
        if not self.phi:
            raise ValueError("need at least one moment")


def matrix_power_moments(a, count: int) -> MomentData:
    """Vacuum and trace moment tables for powers 1..count of one matrix.

    The vacuum moment of power k is the [0, 0] entry of a^k.  Entries are
    Python objects, so int and Fraction matrices give exact values.
    """
    m = _symmetric_matrix(a, object)
    powers = list(itertools.accumulate(itertools.repeat(m, count), np.dot))
    return MomentData([p[0, 0] for p in powers], [p.trace() for p in powers])


# ----------------------------------------------------------------------
# abstract mixed words

@dataclass(frozen=True)
class MixedWord:
    """Alternating word: letters (algebra index from 1, power), adjacent indices distinct."""

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for (i, p), (j, _) in zip(self.letters, self.letters[1:]):
            if i == j:
                raise ValueError("adjacent letters must use distinct algebras")
        if any(i < 1 for i, _ in self.letters):
            raise ValueError("algebra indices start at 1")
        if any(p < 1 for _, p in self.letters):
            raise ValueError("powers must be positive")


def _merge_runs(letters: Iterable[Sequence[int]]) -> list[list[int]]:
    out: list[list[int]] = []
    for idx, power in letters:
        if out and out[-1][0] == idx:
            out[-1][1] += power
        else:
            out.append([idx, power])
    return out


def _moment(tables: Sequence[MomentData], idx: int, power: int, functional: str):
    """The phi or omega moment of algebra idx at the given power."""
    table = getattr(tables[idx - 1], functional)
    if power > len(table):
        raise ValueError(f"moment table too short for power {power}")
    return table[power - 1]


def eval_cyclic_boolean_word(
    word: MixedWord, tables: Sequence[MomentData], functional: str = "omega"
):
    """Mixed moment of an alternating word under full factorization rules;
    algebra i reads tables[i - 1].

    phi-words factor into single-letter state moments. omega-words first merge
    matching end letters cyclically; a single remaining letter uses the trace
    table, and longer words factor like phi-words.
    """
    letters = word.letters
    if functional == "omega":
        letters = _merge_cyclic(letters)
        if len(letters) == 1:
            return _moment(tables, *letters[0], "omega")
    elif functional != "phi":
        raise ValueError("functional must be 'phi' or 'omega'")
    return math.prod(_moment(tables, idx, power, "phi") for idx, power in letters)


def eval_cyclic_monotone_word(
    word: MixedWord, tables: Sequence[MomentData], functional: str = "omega"
):
    """Mixed moment of a word over an ordered family, by local-maximum peeling;
    algebra i reads tables[i - 1].

    Each step removes one letter whose index is a strict local maximum
    (boundary conventions: minus infinity for phi-words, wrap-around for
    omega-words) and multiplies in its state moment; the last letter left is
    read from the state table (phi) or the trace table (omega).
    """
    letters = [list(l) for l in word.letters]
    if functional == "phi":
        prod = 1
        while len(letters) > 1:
            p = _linear_local_max(letters)
            idx, power = letters.pop(p)
            prod *= _moment(tables, idx, power, "phi")
            letters = _merge_runs(letters)
        return prod * _moment(tables, *letters[0], "phi")
    if functional != "omega":
        raise ValueError("functional must be 'phi' or 'omega'")
    prod = 1
    while True:
        letters = _merge_cyclic(letters)
        if len(letters) == 1:
            break
        p = _cyclic_local_max(letters)
        idx, power = letters.pop(p)
        prod *= _moment(tables, idx, power, "phi")
    return prod * _moment(tables, *letters[0], "omega")


def _linear_local_max(letters: list[list[int]]) -> int:
    n = len(letters)
    for p in range(n):
        left = letters[p - 1][0] if p > 0 else None
        right = letters[p + 1][0] if p < n - 1 else None
        v = letters[p][0]
        if (left is None or left < v) and (right is None or right < v):
            return p
    raise AssertionError("no local maximum in alternating word")


def _cyclic_local_max(letters: list[list[int]]) -> int:
    n = len(letters)
    for p in range(n):
        v = letters[p][0]
        if letters[(p - 1) % n][0] < v and letters[(p + 1) % n][0] < v:
            return p
    raise AssertionError("no cyclic local maximum")


def _merge_cyclic(letters: Iterable[Sequence[int]]) -> list[list[int]]:
    letters = _merge_runs(letters)
    while len(letters) > 1 and letters[0][0] == letters[-1][0]:
        last = letters.pop()
        letters[0][1] += last[1]
    return letters


def model_tables(
    model: OperatorModel, tables: Sequence[MomentData], kind: str
) -> list[MomentData]:
    """The moment tables of the embedded operators, one per slot.

    tables[i] is `matrix_power_moments` of the operator in slot i, so one set
    of tables serves both kinds.  For the ordered embedding the trace picks up
    one full factor dimension per slot below the operator, so the omega table
    of 0-based slot i carries prod(dims[:i]); vector-state moments never do.
    """
    if kind not in ("boolean", "monotone"):
        raise ValueError("kind must be 'boolean' or 'monotone'")
    if kind == "boolean":
        return list(tables)
    return [
        MomentData(m.phi, [math.prod(model.dims[:i]) * w for w in m.omega])
        for i, m in enumerate(tables)
    ]
