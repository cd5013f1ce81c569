"""Root-first adjacency reference shared by the tests: the state moments at
the root r are the [0, 0] moments of the adjacency matrix with r moved to
coordinate 0."""

import numpy as np

from cyclic_spectra.graphs import adjacency


def root_first_adjacency(g):
    """The adjacency matrix of the rooted graph g, with the root first and the
    other vertices in increasing order."""
    perm = [g.root] + [v for v in range(g.n) if v != g.root]
    return adjacency(g.graph)[np.ix_(perm, perm)]
