"""Rotation reference shared by the tests: cyclic intervals are the partitions
that some rotation of [n] turns into intervals."""

from cyclic_spectra.partitions import SetPartition


def rotate_partition(p, r):
    """Left rotation: element i is relabeled to i - r (cyclically)."""
    return SetPartition(p.labels[r:] + p.labels[:r])


def is_interval_partition(p):
    return all(a <= b for a, b in zip(p.labels, p.labels[1:]))


def interval_rotations(p):
    """(r, rotated) for each left rotation r that turns p into intervals."""
    return [
        (r, q) for r in range(p.n) if is_interval_partition(q := rotate_partition(p, r))
    ]


def rotate_to_interval(p):
    """Minimal left rotation turning a cyclic-interval partition into intervals."""
    rotations = interval_rotations(p)
    if not rotations:
        raise ValueError("not a cyclic-interval partition")
    return rotations[0]
