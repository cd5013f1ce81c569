"""Finite simple graphs, rooted graphs, named families, star and comb products."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

#: hard cap on the vertices of any graph, products included; it bounds only
#: the graph objects (the oracle is capped by `spectrum --oracle-max`, exact
#: characteristic polynomials by EXACT_CHARPOLY_CAP)
VERTEX_CAP = 20_000

#: largest graph `transforms.char_poly` accepts, and so the largest named
#: family `named` builds
EXACT_CHARPOLY_CAP = 512


def _normalize_edges(n: int, edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    out = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        out.add((min(i, j), max(i, j)))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("negative vertex count")
        if n > VERTEX_CAP:
            raise ValueError(f"vertex count {n} exceeds cap {VERTEX_CAP}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _normalize_edges(n, edges))

    def degree(self, v: int) -> int:
        return sum(1 for i, j in self.edges if v in (i, j))


@dataclass(frozen=True)
class RootedGraph:
    graph: Graph
    root: int

    def __post_init__(self):
        if not (0 <= self.root < self.graph.n):
            raise ValueError(f"root {self.root} out of range")

    @property
    def n(self) -> int:
        return self.graph.n

    def root_degree(self) -> int:
        return self.graph.degree(self.root)


def adjacency(g: Graph) -> np.ndarray:
    """Symmetric 0/1 int64 adjacency matrix."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j in g.edges:
        a[i, j] = 1
        a[j, i] = 1
    return a


def delete_root(g: RootedGraph) -> Graph:
    """Induced subgraph on the non-root vertices, relabeled order-preservingly."""
    keep = [v for v in range(g.n) if v != g.root]
    index = {v: k for k, v in enumerate(keep)}
    edges = [
        (index[i], index[j])
        for i, j in g.graph.edges
        if i != g.root and j != g.root
    ]
    return Graph(g.n - 1, edges)


# ----------------------------------------------------------------------
# products

def star_product(g1: RootedGraph, g2: RootedGraph) -> RootedGraph:
    """Glue the two graphs at their roots.

    Labeling: g1 keeps its labels; the non-root vertices of g2 are appended in
    increasing order.  With this convention iterated products associate as
    exact matrix equalities.
    """
    n1 = g1.n

    def relabel2(v: int) -> int:
        if v == g2.root:
            return g1.root
        return n1 + v - (1 if v > g2.root else 0)

    edges = list(g1.graph.edges)
    edges += [(relabel2(i), relabel2(j)) for i, j in g2.graph.edges]
    return RootedGraph(Graph(n1 + g2.n - 1, edges), g1.root)


def comb_product(g1: RootedGraph, g2: RootedGraph) -> RootedGraph:
    """Attach a copy of g2 (at its root) to every vertex of g1.

    Vertex (x1, x2) is labeled x1 * n2 + x2 (row-major), which makes the
    adjacency equal to A1 (x) P2 + I1 (x) A2 in Kronecker indexing.
    """
    n1, n2 = g1.n, g2.n
    if n1 * n2 > VERTEX_CAP:
        raise ValueError(f"comb product size {n1 * n2} exceeds cap {VERTEX_CAP}")
    edges = []
    for i, j in g1.graph.edges:
        edges.append((i * n2 + g2.root, j * n2 + g2.root))
    for x in range(n1):
        for i, j in g2.graph.edges:
            edges.append((x * n2 + i, x * n2 + j))
    return RootedGraph(Graph(n1 * n2, edges), g1.root * n2 + g2.root)


def nfold_star(g: RootedGraph, n: int) -> RootedGraph:
    """The n-fold star power of g, built in one pass.

    Copy c >= 1 of g gets the labels that folding `star_product` n - 1 times
    gives it: its root is g's root, and vertex v != root becomes
    m + (c - 1)(m - 1) + v - [v > root] for m = g.n.
    """
    if n < 1:
        raise ValueError("fold count must be >= 1")
    m, root = g.n, g.root
    edges = list(g.graph.edges)
    for c in range(1, n):
        label = [m + (c - 1) * (m - 1) + v - (v > root) for v in range(m)]
        label[root] = root
        edges += [(label[i], label[j]) for i, j in g.graph.edges]
    return RootedGraph(Graph(n * (m - 1) + 1, edges), root)


def nfold_comb(g: RootedGraph, n: int) -> RootedGraph:
    if n < 1:
        raise ValueError("fold count must be >= 1")
    out = g
    for _ in range(n - 1):
        out = comb_product(out, g)
    return out


# ----------------------------------------------------------------------
# named families; each hands Graph its edges as a generator, so that
# VERTEX_CAP is checked before any edge exists

def complete(d: int) -> RootedGraph:
    if d < 1:
        raise ValueError("complete graph needs at least one vertex")
    return RootedGraph(Graph(d, ((i, j) for i in range(d) for j in range(i + 1, d))), 0)


def star(n: int) -> RootedGraph:
    """Star graph on n+1 vertices, rooted at the center."""
    if n < 1:
        raise ValueError("star graph needs at least one ray")
    return RootedGraph(Graph(n + 1, ((0, i) for i in range(1, n + 1))), 0)


def friendship(n: int) -> RootedGraph:
    """n triangles sharing one hub vertex, rooted at the hub."""
    if n < 1:
        raise ValueError("friendship graph needs at least one triangle")
    spokes = ((0, i) for i in range(1, 2 * n + 1))
    edges = chain(spokes, ((2 * i - 1, 2 * i) for i in range(1, n + 1)))
    return RootedGraph(Graph(2 * n + 1, edges), 0)


def path(n: int) -> RootedGraph:
    """Path on n vertices, rooted at an endpoint."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return RootedGraph(Graph(n, ((i, i + 1) for i in range(n - 1))), 0)


#: each named family's builder, and its vertex count at a parameter
_FAMILIES = {
    "complete": (complete, lambda d: d),
    "star": (star, lambda n: n + 1),
    "friendship": (friendship, lambda n: 2 * n + 1),
    "path": (path, lambda n: n),
}


def named(spec: str) -> RootedGraph:
    """Build a named family from a 'name:param' string, e.g. 'complete:3'.

    Every family is read through exact characteristic polynomials, so one of
    more than EXACT_CHARPOLY_CAP vertices raises ValueError from its spec,
    before any edge is built; above VERTEX_CAP the Graph's own check speaks.
    """
    name, _, arg = spec.partition(":")
    if name not in _FAMILIES:
        raise ValueError(f"bad graph family spec {spec!r}: unknown family {name!r}")
    build, vertices = _FAMILIES[name]
    try:
        k = int(arg)
        n = vertices(k)
        if EXACT_CHARPOLY_CAP < n <= VERTEX_CAP:
            raise ValueError(f"matrix size {n} exceeds exact cap {EXACT_CHARPOLY_CAP}")
        return build(k)
    except ValueError as exc:  # a bad size, or one above a cap
        raise ValueError(f"bad graph family spec {spec!r}: {exc}") from exc


# ----------------------------------------------------------------------
# I/O: edge-list text and JSON, both bit-exact round trips

def format_graph_text(g: RootedGraph) -> str:
    lines = [f"n {g.n} root {g.root}"]
    lines += [f"{i} {j}" for i, j in sorted(g.graph.edges)]
    return "\n".join(lines) + "\n"


def _text_int(
    token: str, rule: str = "graph file values must be non-negative ASCII integers"
) -> int:
    """token as an int if it is ASCII digits only, else ValueError naming rule;
    int() also takes signs, underscores and the digits of other scripts."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{rule}, got {token!r}")
    return int(token)


def parse_graph_text(text: str) -> RootedGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "n" or head[2] != "root":
        raise ValueError(f"bad header {lines[0]!r}")
    n, root = _text_int(head[1]), _text_int(head[3])
    edges = []
    for ln in lines[1:]:
        i, j = ln.split()
        edges.append((_text_int(i), _text_int(j)))
    return RootedGraph(Graph(n, edges), root)


def graph_to_json(g: RootedGraph) -> dict:
    return {
        "n": g.n,
        "root": g.root,
        "edges": [list(e) for e in sorted(g.graph.edges)],
    }


def _json_int(value, field: str) -> int:
    """value if it is a JSON integer; a float, string or bool is rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"graph JSON field {field!r} must hold integers, got {value!r}")
    return value


def graph_from_json(data: dict | str) -> RootedGraph:
    if isinstance(data, str):
        data = json.loads(data)
    try:
        edges = [(_json_int(i, "edges"), _json_int(j, "edges")) for i, j in data["edges"]]
        n, root = _json_int(data["n"], "n"), _json_int(data["root"], "root")
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"graph JSON must be an object with n, root and edges: {exc!r}"
        ) from exc
    return RootedGraph(Graph(n, edges), root)
