"""Graph construction, products, named families, and I/O round trips."""

import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_spectra.graphs import (
    Graph,
    RootedGraph,
    adjacency,
    comb_product,
    complete,
    delete_root,
    format_graph_text,
    friendship,
    graph_from_json,
    graph_to_json,
    named,
    nfold_star,
    parse_graph_text,
    star,
    star_product,
)
from cyclic_spectra.verify import random_rooted_graph


def k2():
    return complete(2)


class TestBasics:
    def test_adjacency_k2(self):
        assert adjacency(k2().graph).tolist() == [[0, 1], [1, 0]]

    def test_adjacency_k3(self):
        a = adjacency(complete(3).graph)
        assert a.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_adjacency_path3(self):
        assert adjacency(star(2).graph).tolist() == [[0, 1, 1], [1, 0, 0], [1, 0, 0]]

    def test_no_loops(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_bad_root(self):
        with pytest.raises(ValueError):
            RootedGraph(Graph(2, [(0, 1)]), 5)


class TestNamed:
    def test_complete(self):
        g = named("complete:2")
        assert g.n == 2 and g.graph.edges == frozenset({(0, 1)})

    def test_star(self):
        g = named("star:5")
        assert g.n == 6 and g.root_degree() == 5

    def test_friendship(self):
        g = named("friendship:2")
        assert g.n == 5 and g.root_degree() == 4
        assert len(g.graph.edges) == 6

    def test_path_rooted_at_endpoint(self):
        g = named("path:4")
        assert g.n == 4 and g.root_degree() == 1

    def test_bad_specs(self):
        for spec in ("star:0", "complete:-1", "bogus:3", "star"):
            with pytest.raises(ValueError):
                named(spec)

    @pytest.mark.parametrize(
        "spec", ["complete:25000", "star:20000", "friendship:10000", "path:20001"]
    )
    def test_over_the_vertex_cap_builds_no_edge(self, spec):
        # VERTEX_CAP is checked before the family's edges exist: complete:25000
        # built about 312M edge tuples first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"'{spec}': vertex count .* exceeds cap 20000"):
                named(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18


    @pytest.mark.parametrize("spec", ["complete:513", "star:512", "friendship:256", "path:3000"])
    def test_over_the_exact_cap_builds_no_edge(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"'{spec}': matrix size .* exceeds exact cap 512"):
                named(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18

    def test_at_the_exact_cap(self):
        for spec, n in (("star:511", 512), ("friendship:255", 511), ("path:512", 512)):
            assert named(spec).n == n


class TestStarProduct:
    def test_two_edges_give_path(self):
        p = star_product(k2(), k2())
        assert p.n == 3
        assert p.graph.edges == frozenset({(0, 1), (0, 2)})
        assert p.root == 0

    def test_nfold_star_of_k2_is_star_graph(self):
        for n in (1, 2, 5):
            g = nfold_star(k2(), n)
            expected = star(n)
            assert g.graph.edges == expected.graph.edges
            assert g.root == expected.root

    def test_nfold_star_of_k3_is_friendship(self):
        for n in (1, 2, 4):
            g = nfold_star(complete(3), n)
            expected = friendship(n)
            assert adjacency(g.graph).tolist() == adjacency(expected.graph).tolist()

    def test_counts(self):
        rng = random.Random(7)
        for _ in range(20):
            g1 = random_rooted_graph(rng, 6)
            g2 = random_rooted_graph(rng, 6)
            p = star_product(g1, g2)
            assert p.n == g1.n + g2.n - 1
            assert len(p.graph.edges) == len(g1.graph.edges) + len(g2.graph.edges)

    def test_associativity_exact(self):
        rng = random.Random(11)
        for _ in range(10):
            a = random_rooted_graph(rng, 5)
            b = random_rooted_graph(rng, 5)
            c = random_rooted_graph(rng, 5)
            left = star_product(star_product(a, b), c)
            right = star_product(a, star_product(b, c))
            assert left.graph.edges == right.graph.edges
            assert left.root == right.root


def _reference_nfold_star(g, n):
    """The n-fold star power as n - 1 iterated star products."""
    out = g
    for _ in range(n - 1):
        out = star_product(out, g)
    return out


class TestNfoldStar:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_iterated_fold(self, data):
        m = data.draw(st.integers(1, 8))
        root = data.draw(st.integers(0, m - 1))
        p = data.draw(st.floats(0, 1))
        rng = data.draw(st.randoms(use_true_random=False))
        n = data.draw(st.integers(1, 12))
        edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < p]
        g = RootedGraph(Graph(m, edges), root)
        got, expected = nfold_star(g, n), _reference_nfold_star(g, n)
        assert (got.n, got.root) == (expected.n, expected.root)
        assert got.graph.edges == expected.graph.edges

    def test_one_fold_is_the_base_graph(self):
        g = RootedGraph(Graph(5, [(0, 3), (1, 3), (2, 4), (3, 4)]), 3)
        assert nfold_star(g, 1) == g

    def test_edge_count(self):
        rng = random.Random(5)
        for n in (1, 2, 7, 30):
            g = random_rooted_graph(rng, 7)
            assert len(nfold_star(g, n).graph.edges) == n * len(g.graph.edges)

    def test_fold_below_one_rejected(self):
        with pytest.raises(ValueError, match="fold count"):
            nfold_star(k2(), 0)


class TestCombProduct:
    def test_comb_k2_k2_is_p4(self):
        p = comb_product(k2(), k2())
        assert p.n == 4
        assert p.graph.degree(p.root) == 2  # interior vertex of the path
        degrees = sorted(p.graph.degree(v) for v in range(4))
        assert degrees == [1, 1, 2, 2]

    def test_triple_comb_size(self):
        p = comb_product(k2(), comb_product(k2(), k2()))
        assert p.n == 8

    def test_kronecker_identity(self):
        rng = random.Random(3)
        for _ in range(15):
            g1 = random_rooted_graph(rng, 5)
            g2 = random_rooted_graph(rng, 5)
            p = comb_product(g1, g2)
            a1 = adjacency(g1.graph)
            a2 = adjacency(g2.graph)
            proj = np.zeros((g2.n, g2.n), dtype=np.int64)
            proj[g2.root, g2.root] = 1
            expected = np.kron(a1, proj) + np.kron(np.identity(g1.n, dtype=np.int64), a2)
            assert np.array_equal(adjacency(p.graph), expected)

    def test_associativity_exact(self):
        rng = random.Random(13)
        for _ in range(10):
            a = random_rooted_graph(rng, 4)
            b = random_rooted_graph(rng, 4)
            c = random_rooted_graph(rng, 4)
            left = comb_product(comb_product(a, b), c)
            right = comb_product(a, comb_product(b, c))
            assert left.graph.edges == right.graph.edges
            assert left.root == right.root


class TestDeleteRoot:
    def test_k2(self):
        g = delete_root(k2())
        assert g.n == 1 and not g.edges

    def test_star_center(self):
        g = delete_root(star(4))
        assert g.n == 4 and not g.edges

    def test_single_vertex_gives_empty_graph(self):
        g = delete_root(RootedGraph(Graph(1), 0))
        assert g.n == 0

    def test_star_product_split(self):
        rng = random.Random(23)
        for _ in range(10):
            g1 = random_rooted_graph(rng, 6)
            g2 = random_rooted_graph(rng, 6)
            left = delete_root(star_product(g1, g2))
            h1, h2 = delete_root(g1), delete_root(g2)
            # the disjoint union, with the vertices of h2 shifted past h1
            edges = h1.edges | {(i + h1.n, j + h1.n) for i, j in h2.edges}
            assert left.n == h1.n + h2.n and left.edges == edges


class TestIO:
    def test_text_round_trip(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_rooted_graph(rng, 7)
            assert parse_graph_text(format_graph_text(g)) == g

    def test_json_round_trip(self):
        rng = random.Random(6)
        for _ in range(10):
            g = random_rooted_graph(rng, 7)
            assert graph_from_json(graph_to_json(g)) == g

    @pytest.mark.parametrize("data, field", [
        ({"n": 2.9, "root": 0.5, "edges": [[0.2, 1.7]]}, "edges"),
        ({"n": 2.0, "root": 0, "edges": [[0, 1]]}, "n"),
        ({"n": 2, "root": 0.5, "edges": [[0, 1]]}, "root"),
        ({"n": 2, "root": False, "edges": [[0, 1]]}, "root"),
        ({"n": True, "root": 0, "edges": []}, "n"),
        ({"n": 2, "root": 0, "edges": [[False, True]]}, "edges"),
        ({"n": "3", "root": 0, "edges": []}, "n"),
        ({"n": 2, "root": 0, "edges": [["0", 1]]}, "edges"),
    ])
    def test_json_values_must_be_integers(self, data, field):
        with pytest.raises(ValueError, match=f"field '{field}' must hold integers"):
            graph_from_json(data)

    def test_text_format_shape(self):
        text = format_graph_text(k2())
        assert text.splitlines()[0] == "n 2 root 0"
        assert text.splitlines()[1] == "0 1"

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_graph_text("vertices 3\n0 1\n")

    @pytest.mark.parametrize("text, token", [
        ("n 1_0 root +0\n0 1\n", "1_0"),  # int() reads 10
        ("n \u0663 root 0\n0 1\n", "\u0663"),  # an Arabic-Indic 3
        ("n 3 root +0\n0 1\n", "+0"),
        ("n 3 root 0\n0 -1\n", "-1"),
        ("n 3 root 0\n0 1_0\n", "1_0"),
        ("n 3 root 0\n\uff10 1\n", "\uff10"),  # a fullwidth 0
    ])
    def test_text_values_must_be_ascii_digits(self, text, token):
        message = f"non-negative ASCII integers, got {token!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_graph_text(text)
