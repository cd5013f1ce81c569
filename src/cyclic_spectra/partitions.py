"""Set partitions, interval and cyclic-interval partitions, and Moebius
inversion on the partition lattice.

Ground sets are {1, .., n}.  A SetPartition is its restricted growth string:
labels[i] is the block of element i + 1, with blocks numbered from 0 in order
of first occurrence, so equality, hashing and order are structural and every
label tuple is a partition.  Cyclic-interval partitions are built from their
separating gaps straight into labels; a partition is a cyclic interval when a
walk around the circle leaves each block exactly once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations, product
from typing import Hashable, Iterable, Iterator

SP_CAP = 14
INTERVAL_CAP = 20


@dataclass(frozen=True, order=True)
class SetPartition:
    labels: tuple[int, ...]

    def __init__(self, labels: Iterable[Hashable]):
        first: dict[Hashable, int] = {}
        object.__setattr__(
            self, "labels", tuple(first.setdefault(x, len(first)) for x in labels)
        )

    @property
    def n(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return max(self.labels, default=-1) + 1

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, each sorted, in order of their minima."""
        out: list[list[int]] = [[] for _ in range(len(self))]
        for x, k in enumerate(self.labels, start=1):
            out[k].append(x)
        return tuple(map(tuple, out))


def top(n: int) -> SetPartition:
    return SetPartition((0,) * n)


def _coarsening(rho: SetPartition, pi: SetPartition) -> dict[int, int] | None:
    """The map from rho's blocks to the pi blocks holding them; None unless rho <= pi."""
    if rho.n != pi.n:
        raise ValueError("ground sets differ")
    image: dict[int, int] = {}
    for r, p in zip(rho.labels, pi.labels):
        if image.setdefault(r, p) != p:
            return None
    return image


def is_cyclic_interval(p: SetPartition) -> bool:
    """True when every block is a circular arc: walking the circle
    1, 2, .., n, 1 leaves each block exactly once (top is never left)."""
    labels = p.labels
    exits = sum(a != b for a, b in zip(labels, labels[1:] + labels[:1]))
    return exits in (0, len(p))


# ----------------------------------------------------------------------
# enumeration

def _growth_strings(n: int) -> list[tuple[int, ...]]:
    """The restricted growth strings of length n, in lexicographic order."""
    strings: list[tuple[int, ...]] = [()]
    for _ in range(n):
        strings = [s + (k,) for s in strings for k in range(max(s, default=-1) + 2)]
    return strings


def _interval_partitions(n: int) -> Iterator[SetPartition]:
    for cuts in product((0, 1), repeat=n - 1):
        yield SetPartition(accumulate((0, *cuts)))


def _cyclic_interval_partitions(n: int) -> Iterator[SetPartition]:
    # gap g cuts between elements g and g + 1 (gap n between n and 1); element
    # x lies in the arc after the last gap below it, and past the last gap the
    # walk wraps into the first arc
    yield top(n)
    for size in range(2, n + 1):
        for gaps in combinations(range(1, n + 1), size):
            yield SetPartition(bisect_left(gaps, x) % size for x in range(1, n + 1))


_FAMILIES = {
    "SP": (SP_CAP, lambda n: map(SetPartition, _growth_strings(n))),
    "Int": (INTERVAL_CAP, _interval_partitions),
    "CI": (INTERVAL_CAP, _cyclic_interval_partitions),
}


def enumerate_partitions(n: int, family: str) -> list[SetPartition]:
    """Duplicate-free enumeration of SP / Int / CI over {1..n}, ordered by labels."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    cap, generate = _FAMILIES[family]
    if not 1 <= n <= cap:
        raise ValueError(f"n={n} out of range for {family}")
    return sorted(generate(n))


# ----------------------------------------------------------------------
# Moebius function and lattice sums

def moebius(rho: SetPartition, pi: SetPartition) -> int:
    """Moebius function of the partition lattice between comparable elements.

    Equals the product over blocks B of pi of (-1)^(k-1) (k-1)! with k the
    number of rho-blocks inside B.
    """
    image = _coarsening(rho, pi)
    if image is None:
        raise ValueError("arguments must satisfy rho <= pi")
    out = 1
    for k in Counter(image.values()).values():
        out *= (-1) ** (k - 1) * math.factorial(k - 1)
    return out


def refinements(pi: SetPartition) -> Iterator[SetPartition]:
    """All partitions rho <= pi: one growth string per block of pi, composed."""
    blocks = pi.blocks
    for choice in product(*(_growth_strings(len(b)) for b in blocks)):
        labels = [0] * pi.n
        offset = 0
        for block, local in zip(blocks, choice):
            for x, k in zip(block, local):
                labels[x - 1] = offset + k
            offset += len(block)
        yield SetPartition(labels)
