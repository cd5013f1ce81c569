"""Set partitions, interval and cyclic-interval partitions, and Moebius
inversion on the partition lattice.

Ground sets are {1, .., n}.  Blocks of a SetPartition are canonically ordered
by their minima, so equality is structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

SP_CAP = 14
INTERVAL_CAP = 20


@dataclass(frozen=True)
class SetPartition:
    n: int
    blocks: tuple[frozenset[int], ...]

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        bs = tuple(sorted((frozenset(b) for b in blocks), key=min))
        seen: set[int] = set()
        for b in bs:
            if not b:
                raise ValueError("empty block")
            if seen & b:
                raise ValueError("blocks must be disjoint")
            seen |= b
        if seen != set(range(1, n + 1)):
            raise ValueError(f"blocks must cover 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", bs)

    def __len__(self) -> int:
        return len(self.blocks)


def top(n: int) -> SetPartition:
    return SetPartition(n, [range(1, n + 1)])


def refines(rho: SetPartition, pi: SetPartition) -> bool:
    """rho <= pi in refinement order."""
    if rho.n != pi.n:
        raise ValueError("ground sets differ")
    return all(any(b <= c for c in pi.blocks) for b in rho.blocks)


# ----------------------------------------------------------------------
# enumeration

def _set_partitions(n: int) -> Iterator[SetPartition]:
    return (SetPartition(n, blocks) for blocks in _partitions_of_block(range(1, n + 1)))


def _interval_partitions(n: int) -> Iterator[SetPartition]:
    def rec(start: int, blocks: list[list[int]]):
        if start > n:
            yield SetPartition(n, [list(b) for b in blocks])
            return
        for end in range(start, n + 1):
            blocks.append(list(range(start, end + 1)))
            yield from rec(end + 1, blocks)
            blocks.pop()

    yield from rec(1, [])


def _cyclic_interval_partitions(n: int) -> Iterator[SetPartition]:
    yield top(n)
    gaps = list(range(1, n + 1))
    for size in range(2, n + 1):
        for combo in combinations(gaps, size):
            yield CircularSeparatorSet(n, frozenset(combo)).to_partition()


_FAMILY_CAPS = {"SP": SP_CAP, "Int": INTERVAL_CAP, "CI": INTERVAL_CAP}


def enumerate_partitions(n: int, family: str) -> list[SetPartition]:
    """Duplicate-free enumeration of SP / Int / CI over {1..n}.

    Ordering is fixed (lexicographic in the canonical block encoding) so
    golden outputs are stable.
    """
    if family not in _FAMILY_CAPS:
        raise ValueError(f"unknown family {family!r}")
    if not 1 <= n <= _FAMILY_CAPS[family]:
        raise ValueError(f"n={n} out of range for {family}")
    gens = {
        "SP": _set_partitions,
        "Int": _interval_partitions,
        "CI": _cyclic_interval_partitions,
    }
    return sorted(gens[family](n), key=lambda p: tuple(tuple(sorted(b)) for b in p.blocks))


# ----------------------------------------------------------------------
# cyclic-interval structure

@dataclass(frozen=True)
class CircularSeparatorSet:
    """Cyclic-interval partition encoded by its separating gaps.

    Gap g cuts between elements g and g+1 (gap n wraps to 1).  The empty set
    encodes the one-block partition; otherwise at least two gaps are needed.
    """

    n: int
    gaps: frozenset[int]

    def __post_init__(self):
        if self.gaps and len(self.gaps) < 2:
            raise ValueError("separator set must be empty or have size >= 2")
        if any(not 1 <= g <= self.n for g in self.gaps):
            raise ValueError("gap out of range")

    def to_partition(self) -> SetPartition:
        if not self.gaps:
            return top(self.n)
        cuts = sorted(self.gaps)
        blocks = []
        for a, b in zip(cuts, cuts[1:] + [cuts[0] + self.n]):
            blocks.append([(x - 1) % self.n + 1 for x in range(a + 1, b + 1)])
        return SetPartition(self.n, blocks)


def separator_gaps(p: SetPartition) -> frozenset[int]:
    """Gaps whose two endpoints lie in different blocks."""
    block_index = {}
    for k, b in enumerate(p.blocks):
        for x in b:
            block_index[x] = k
    return frozenset(
        g
        for g in range(1, p.n + 1)
        if block_index[g] != block_index[g % p.n + 1]
    )


def is_cyclic_interval(p: SetPartition) -> bool:
    """True when every block is a circular arc."""
    gaps = separator_gaps(p)
    if not gaps:
        return True
    return CircularSeparatorSet(p.n, gaps).to_partition() == p


def rotate_partition(p: SetPartition, r: int) -> SetPartition:
    """Left rotation: element i is relabeled to i - r (cyclically)."""
    n = p.n
    return SetPartition(
        n, [[(x - 1 - r) % n + 1 for x in b] for b in p.blocks]
    )


def is_interval_partition(p: SetPartition) -> bool:
    return all(max(b) - min(b) + 1 == len(b) for b in p.blocks)


def rotate_to_interval(p: SetPartition) -> tuple[int, SetPartition]:
    """Minimal left rotation turning a cyclic-interval partition into intervals."""
    if not is_cyclic_interval(p):
        raise ValueError("not a cyclic-interval partition")
    for r in range(p.n):
        q = rotate_partition(p, r)
        if is_interval_partition(q):
            return r, q
    raise AssertionError("unreachable: cyclic-interval partition has a rotation")


# ----------------------------------------------------------------------
# Moebius function and lattice sums

def moebius(rho: SetPartition, pi: SetPartition) -> int:
    """Moebius function of the partition lattice between comparable elements.

    Equals the product over blocks B of pi of (-1)^(k-1) (k-1)! with k the
    number of rho-blocks inside B.
    """
    if not refines(rho, pi):
        raise ValueError("arguments must satisfy rho <= pi")
    out = 1
    for c in pi.blocks:
        k = sum(1 for b in rho.blocks if b <= c)
        out *= (-1) ** (k - 1) * math.factorial(k - 1)
    return out


def _partitions_of_block(block: Sequence[int]) -> Iterator[tuple[frozenset[int], ...]]:
    """Every set partition of block, by restricted growth strings."""
    items = sorted(block)

    def rec(pos: int, blocks: list[list[int]]):
        if pos == len(items):
            yield tuple(frozenset(b) for b in blocks)
            return
        x = items[pos]
        for b in blocks:
            b.append(x)
            yield from rec(pos + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(pos + 1, blocks)
        blocks.pop()

    return rec(0, [])


def refinements(pi: SetPartition) -> Iterator[SetPartition]:
    """All partitions rho <= pi, by partitioning each block independently."""
    per_block = [_partitions_of_block(b) for b in pi.blocks]
    for choice in product(*per_block):
        yield SetPartition(pi.n, [b for part in choice for b in part])
