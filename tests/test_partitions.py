"""Partition families, cyclic-interval structure, Moebius function."""

import math

import pytest

from cyclic_spectra.partitions import (
    SetPartition,
    enumerate_partitions,
    is_cyclic_interval,
    moebius,
    refinements,
    top,
)
from rotation import is_interval_partition, rotate_partition, rotate_to_interval


def refines(rho, pi):
    """Reference order: rho <= pi when each block of rho lies in one block of pi."""
    return all(len({pi.labels[x - 1] for x in block}) == 1 for block in rho.blocks)


class TestCounts:
    def test_cyclic_interval_counts(self):
        for n in range(1, 13):
            assert len(enumerate_partitions(n, "CI")) == 2**n - n

    def test_interval_counts(self):
        for n in range(1, 13):
            assert len(enumerate_partitions(n, "Int")) == 2 ** (n - 1)

    def test_bell_numbers(self):
        bells = [1, 2, 5, 15, 52, 203, 877]
        for n, b in enumerate(bells, start=1):
            assert len(enumerate_partitions(n, "SP")) == b

    def test_ordered_bell_numbers(self):
        # each set partition with k blocks has k! orders of its blocks
        fubini = [1, 3, 13, 75, 541]
        for n, b in enumerate(fubini, start=1):
            parts = enumerate_partitions(n, "SP")
            assert sum(math.factorial(len(p)) for p in parts) == b

    def test_no_duplicates(self):
        for family in ("SP", "Int", "CI"):
            items = enumerate_partitions(5, family)
            assert len(items) == len(set(items))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0, "SP")
        with pytest.raises(ValueError):
            enumerate_partitions(21, "CI")
        with pytest.raises(ValueError):
            enumerate_partitions(3, "NC")

    def test_separator_count_formula(self):
        # 1 + sum_{k>=2} C(n, k) subsets reproduce the CI count
        for n in range(1, 17):
            count = 1 + sum(math.comb(n, k) for k in range(2, n + 1))
            assert count == 2**n - n


class TestCyclicIntervals:
    def test_figure_example(self):
        p = SetPartition("aabbbbbcdefghia")
        assert p.blocks == (
            (1, 2, 15), (3, 4, 5, 6, 7), (8,), (9,), (10,), (11,), (12,), (13,), (14,)
        )
        assert len(p) == 9 and p.n == 15
        assert is_cyclic_interval(p)

    def test_crossing_rejected(self):
        assert not is_cyclic_interval(SetPartition("abab"))

    def test_top_is_cyclic_interval(self):
        for n in range(1, 8):
            assert is_cyclic_interval(top(n))
            assert rotate_to_interval(top(n)) == (0, top(n))

    def test_membership_matches_rotation_bruteforce(self):
        for n in range(1, 9):
            for p in enumerate_partitions(n, "SP"):
                brute = any(
                    is_interval_partition(rotate_partition(p, r)) for r in range(n)
                )
                assert is_cyclic_interval(p) == brute

    def test_rotation_is_minimal(self):
        for n in range(2, 8):
            for p in enumerate_partitions(n, "CI"):
                r, rotated = rotate_to_interval(p)
                assert is_interval_partition(rotated)
                for smaller in range(r):
                    assert not is_interval_partition(rotate_partition(p, smaller))

    def test_rotate_non_ci_rejected(self):
        with pytest.raises(ValueError):
            rotate_to_interval(SetPartition("abab"))

    def test_enumeration_matches_filter(self):
        for n in range(1, 9):
            from_filter = {
                p for p in enumerate_partitions(n, "SP") if is_cyclic_interval(p)
            }
            assert from_filter == set(enumerate_partitions(n, "CI"))


class TestCanonicalForm:
    def test_any_labelling_is_renumbered(self):
        assert SetPartition("bab") == SetPartition((1, 2, 1))
        assert SetPartition("bab").labels == (0, 1, 0)
        assert hash(SetPartition("xyzx")) == hash(SetPartition((5, 3, 4, 5)))

    def test_blocks_ordered_by_minima(self):
        p = SetPartition("cabca")
        assert p.blocks == ((1, 4), (2, 5), (3,))
        assert len(p) == 3 and p.n == 5
        assert top(4).blocks == ((1, 2, 3, 4),) and len(top(4)) == 1

    def test_enumeration_ordered_by_labels(self):
        for family in ("SP", "Int", "CI"):
            items = enumerate_partitions(5, family)
            assert [p.labels for p in items] == sorted(p.labels for p in items)


class TestMoebius:
    def test_full_interval(self):
        assert moebius(SetPartition("abc"), top(3)) == 2

    def test_reflexive(self):
        p = SetPartition("aabb")
        assert moebius(p, p) == 1

    def test_two_elements(self):
        assert moebius(SetPartition("ab"), top(2)) == -1

    def test_incomparable_rejected(self):
        with pytest.raises(ValueError):
            moebius(SetPartition("aab"), SetPartition("abb"))

    def test_ground_sets_differ_rejected(self):
        with pytest.raises(ValueError, match="ground sets differ"):
            moebius(top(2), top(3))

    def test_recursive_definition(self):
        # sum over sigma in [rho, pi] of mu(sigma, pi) is delta(rho, pi)
        for n in range(1, 7):
            all_parts = enumerate_partitions(n, "SP")
            pi = top(n)
            for rho in all_parts:
                total = sum(
                    moebius(sigma, pi)
                    for sigma in all_parts
                    if refines(rho, sigma) and refines(sigma, pi)
                )
                assert total == (1 if rho == pi else 0)

    def test_refinements_complete(self):
        for n in range(1, 7):
            assert set(refinements(top(n))) == set(enumerate_partitions(n, "SP"))

