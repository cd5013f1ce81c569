"""Transforms: characteristic polynomials, Green functions, Laurent expansion
and spectrum extraction."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_spectra import cli, transforms
from cyclic_spectra.convolutions import (
    h_transform,
    nfold_comb_transforms,
    nfold_star_transforms,
)
from cyclic_spectra.cumulants import h_coefficients
from cyclic_spectra.exact import Polynomial, RationalFunction, poly_gcd
from cyclic_spectra.graphs import (
    Graph,
    RootedGraph,
    adjacency,
    complete,
    delete_root,
    friendship,
    named,
    nfold_comb,
    nfold_star,
    path,
    star,
)
from cyclic_spectra.models import eigensolve, matrix_power_moments
from cyclic_spectra.transforms import (
    char_poly,
    extract_spectrum,
    green,
    isolate_real_roots,
    laurent_at_infinity,
    renormalized_cauchy,
    spectral_data,
)
from cyclic_spectra.verify import random_rooted_graph
from rooted import root_first_adjacency

F = Fraction


def poly(*coeffs):
    return Polynomial(coeffs)


def ratfun(num, den=None):
    return RationalFunction(num, den)


class TestSpectralData:
    def test_k2(self):
        sd = spectral_data([complete(2)])[0]
        assert sd.phi == poly(-1, 0, 1)
        assert sd.phi_minus_root == poly(0, 1)
        assert sd.dim == 2

    def test_k3(self):
        sd = spectral_data([complete(3)])[0]
        assert sd.phi == poly(-2, -3, 0, 1)
        assert sd.phi_minus_root == poly(-1, 0, 1)

    def test_single_vertex(self):
        sd = spectral_data([RootedGraph(Graph(1), 0)])[0]
        assert sd.phi == poly(0, 1)
        assert sd.phi_minus_root == Polynomial.one()


def _reference_char_poly(rows):
    """det(xI - A) by Faddeev-LeVerrier over object-dtype Python ints."""
    n = len(rows)
    if n == 0:
        return Polynomial.one()
    a = np.array(rows, dtype=object)
    m = np.zeros((n, n), dtype=object)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    c = 1
    ident = np.identity(n, dtype=object)
    for k in range(1, n + 1):
        m = a.dot(m) + c * ident
        t = int((a * m.T).sum())
        assert t % k == 0
        c = -(t // k)
        coeffs[n - k] = c
    return Polynomial(coeffs)


def _path_char_poly(n):
    """phi(P_n) = x phi(P_(n-1)) - phi(P_(n-2)), from phi(P_0) = 1."""
    prev, cur = Polynomial.one(), Polynomial.x()
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, Polynomial.x() * cur - prev
    return cur


def _graph(n, edges, root=0):
    return RootedGraph(Graph(n, edges), root)


def _random_graph(rng, n):
    """A graph on n vertices with edge probability drawn from 0.1, 0.5, 0.9,
    rooted at a random vertex."""
    p = rng.choice((0.1, 0.5, 0.9))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return _graph(n, edges, rng.randrange(n))


def _reference_pair(g):
    """(phi_G, phi_(G-r)) by _reference_char_poly."""
    return (
        _reference_char_poly(adjacency(g.graph).tolist()),
        _reference_char_poly(adjacency(delete_root(g)).tolist()),
    )


class TestCharPoly:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.randoms(use_true_random=False))
    def test_matches_reference_on_symmetric_matrices(self, n, rng):
        g = _random_graph(rng, n)
        assert char_poly([g]) == [_reference_pair(g)]

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_complete_graph(self, n):
        # spectrum {n - 1, -1 x (n - 1)}
        expected = poly(-(n - 1), 1) * poly(1, 1) ** (n - 1)
        assert char_poly([complete(n)])[0][0] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 40])
    def test_path(self, n):
        # rooted at an endpoint, so G - r is the path on n - 1 vertices
        assert char_poly([named(f"path:{n}")]) == [(_path_char_poly(n), _path_char_poly(n - 1))]

    @pytest.mark.parametrize("n", [3, 4, 9, 40])
    def test_cycle(self, n):
        # phi(C_n) = phi(P_n) - phi(P_(n-2)) - 2, from 2 T_n(x/2) - 2
        g = _graph(n, [(i, (i + 1) % n) for i in range(n)])
        expected = _path_char_poly(n) - _path_char_poly(n - 2) - poly(2)
        assert char_poly([g]) == [(expected, _path_char_poly(n - 1))]

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_empty_graph(self, n):
        assert char_poly([_graph(n, [])]) == [(Polynomial.x() ** n, Polynomial.x() ** (n - 1))]

    def test_one_dimension(self):
        assert char_poly([_graph(1, [])]) == [(poly(0, 1), Polynomial.one())]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=5), st.randoms(use_true_random=False))
    def test_batch_matches_reference_in_input_order(self, sizes, rng):
        # mixed sizes, each rooted anywhere
        graphs = [_random_graph(rng, n) for n in sizes]
        assert char_poly(graphs) == [_reference_pair(g) for g in graphs]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 9), st.randoms(use_true_random=False))
    def test_bound_covers_every_coefficient_with_no_more_primes(self, n, entry, rng):
        # binom(n, k) (F/n)^(k/2) against the Hadamard bound binom(n, k) D^k
        rows = [[rng.randint(-entry, entry) for _ in range(n)] for _ in range(n)]
        f = sum(v * v for row in rows for v in row)
        bound = transforms._coefficient_bound(n, f)
        assert all(abs(c) <= bound for c in _reference_char_poly(rows).coeffs)
        minor = _reference_char_poly([row[1:] for row in rows[1:]])
        assert all(abs(c) <= transforms._coefficient_bound(n - 1, f) for c in minor.coeffs)
        delta = max(sum(abs(v) for v in row) for row in rows)
        hadamard = max(math.comb(n, k) * delta**k for k in range(n + 1))
        assert bound <= hadamard + 1
        primes = transforms._primes_above
        assert len(primes(2 * bound)) <= len(primes(2 * hadamard))

    def test_bound_once_per_size_and_edge_count(self, monkeypatch):
        # three 5-vertex graphs with F = 2, one with F = 4, and a 6-vertex
        # graph with F = 2: one bound pair, for n and n - 1, per (n, F)
        calls, bound = [], transforms._coefficient_bound

        def spy(n, f):
            calls.append((n, f))
            return bound(n, f)

        monkeypatch.setattr(transforms, "_coefficient_bound", spy)
        graphs = [
            _graph(5, [(0, 1)]), _graph(5, [(1, 2)]), _graph(5, [(2, 3), (3, 4)]),
            _graph(5, [(3, 4)]), _graph(6, [(0, 5)]),
        ]
        assert char_poly(graphs) == [_reference_pair(g) for g in graphs]
        assert sorted(calls) == [(4, 2), (4, 4), (5, 2), (5, 2), (5, 4), (6, 2)]

    def test_adjacency_once_per_graph(self, monkeypatch):
        # three rooted K_64 take 11 primes each, 33 (graph, prime) pairs in
        # chunks of 16 64 x 64 matrices, so the second and third graphs each
        # span two chunks
        built, build = [], transforms.adjacency

        def spy(graph):
            built.append(graph.n)
            return build(graph)

        monkeypatch.setattr(transforms, "adjacency", spy)
        graphs = [RootedGraph(complete(64).graph, r) for r in (0, 31, 63)]
        phi = poly(-63, 1) * poly(1, 1) ** 63
        minus = poly(-62, 1) * poly(1, 1) ** 62
        assert char_poly(graphs) == [(phi, minus)] * 3
        assert built == [64] * 3

    def test_complete_graph_needs_most_primes(self, monkeypatch):
        # K_40 has F = 2|E| = 1560, so the bound is max_k binom(40, k)
        # 39^(k/2) ~ 2^112: six primes below 2^22 and the check prime
        g = complete(40)
        seen = []
        residues = transforms._leverrier_residues

        def spy(graphs, primes):
            seen.append([len(ps) for ps in primes])
            return residues(graphs, primes)

        monkeypatch.setattr(transforms, "_leverrier_residues", spy)
        assert char_poly([g]) == [_reference_pair(g)]
        assert seen == [[7]]

    @pytest.mark.parametrize("prime_index", [0, 1, 2])
    def test_corrupt_residue_fails_the_check_prime(self, monkeypatch, prime_index):
        # K_16 has F/n = 15 and bound max_k binom(16, k) 15^(k/2) ~ 2^35:
        # two primes for the CRT, then the check prime
        g = complete(16)
        assert char_poly([g]) == [_reference_pair(g)]
        residues = transforms._leverrier_residues

        def corrupt(graphs, primes):
            assert [len(ps) for ps in primes] == [3]
            out = residues(graphs, primes)
            out[0][prime_index][3] = (out[0][prime_index][3] + 1) % primes[0][prime_index]
            return out

        monkeypatch.setattr(transforms, "_leverrier_residues", corrupt)
        with pytest.raises(ArithmeticError, match="check prime"):
            char_poly([g])

    @pytest.mark.parametrize("n, density, crt_counts", [(5, 0.5, [1]), (48, 0.9, range(3, 20))])
    def test_corrupt_check_prime_residue_fails(self, monkeypatch, n, density, crt_counts):
        # the lift is compared with the check prime's row once per graph; a
        # residue of that row off by one must fail it, both where the lift is
        # one symmetric lift (one CRT prime) and where it is a mixed-radix lift
        # over several
        rng = random.Random(n)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        g = _graph(n, edges, rng.randrange(n))
        residues, crt_primes = transforms._leverrier_residues, []

        def spy(graphs, primes):
            crt_primes.append(len(primes[0]) - 1)
            return residues(graphs, primes)

        monkeypatch.setattr(transforms, "_leverrier_residues", spy)
        assert char_poly([g]) == [_reference_pair(g)]
        assert len(crt_primes) == 1 and crt_primes[0] in crt_counts
        for column in (0, n // 2, n, n + 1, 2 * n):
            def corrupt(graphs, primes, column=column):
                out = residues(graphs, primes)
                out[0][-1][column] = (out[0][-1][column] + 1) % primes[0][-1]
                return out

            monkeypatch.setattr(transforms, "_leverrier_residues", corrupt)
            with pytest.raises(ArithmeticError, match="check prime"):
                char_poly([g])

    def test_corrupt_residue_in_a_batch_fails_the_check_prime(self, monkeypatch):
        # one residue of the last of three 5-vertex graphs is off by one
        graphs = [_graph(5, [(0, 1)]), _graph(5, []), _graph(5, [(1, 2)])]
        residues = transforms._leverrier_residues

        def corrupt(graphs, primes):
            out = residues(graphs, primes)
            out[-1][0][2] = (out[-1][0][2] + 1) % primes[-1][0]
            return out

        monkeypatch.setattr(transforms, "_leverrier_residues", corrupt)
        with pytest.raises(ArithmeticError, match="check prime"):
            char_poly(graphs)

    def test_primes_are_every_prime_3_mod_4_in_range(self):
        # a sieve of Eratosthenes up to the limit; the probable-prime test must
        # agree on every q = 3 mod 4 in (limit/2, limit), pseudoprimes included
        limit = transforms._PRIME_LIMIT
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for d in range(2, math.isqrt(limit) + 1):
            if sieve[d]:
                sieve[d * d :: d] = False
        expected = [q for q in range(limit - 1, limit // 2, -4) if sieve[q]]
        assert list(transforms._primes_below(limit)) == expected

    def test_float_products_stay_exact_up_to_the_cap(self):
        # p < _PRIME_LIMIT: a stack reduced to [0, p) takes one product whose
        # trace is at most n (n - 1) (p - 1), and a reduced trace times an
        # inverse is at most (p - 1)^2; both are at most n (p - 1)^2 < 2^53
        p_max = transforms._PRIME_LIMIT - 1
        cap = transforms.EXACT_CHARPOLY_CAP
        assert cap * (p_max - 1) ** 2 < 2**53
        assert cap * (cap - 1) * (p_max - 1) < 2**53

    def test_above_cap_raises(self, monkeypatch):
        # every size is checked before any graph of the batch runs
        def refuse(graphs, primes):
            raise AssertionError("a Faddeev-LeVerrier run started")

        monkeypatch.setattr(transforms, "_leverrier_residues", refuse)
        n = transforms.EXACT_CHARPOLY_CAP + 1
        with pytest.raises(ValueError, match=f"matrix size {n} exceeds exact cap"):
            char_poly([complete(2), _graph(n, [])])


class TestRootedCharPoly:
    """spectral_data reads phi_(G-r) off the adjugate of the run for phi_G."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.randoms(use_true_random=False))
    def test_minor_matches_the_deleted_root(self, n, rng):
        g = _random_graph(rng, n)
        sd = spectral_data([g])[0]
        assert (sd.phi, sd.phi_minus_root) == _reference_pair(g)

    def test_one_leverrier_run_per_graph(self, monkeypatch):
        # each graph is in exactly one run, with every graph of its size
        seen = []
        residues = transforms._leverrier_residues

        def spy(graphs, primes):
            seen.append((graphs[0].n, len(graphs)))
            return residues(graphs, primes)

        monkeypatch.setattr(transforms, "_leverrier_residues", spy)
        graphs = [
            RootedGraph(Graph(1), 0), complete(4), friendship(3), star(3), nfold_star(star(3), 3)
        ]
        assert [sd.dim for sd in spectral_data(graphs)] == [g.n for g in graphs]
        assert seen == [(1, 1), (4, 2), (7, 1), (10, 1)]

    @pytest.mark.parametrize("prime_index", [0, 1, 2])
    def test_corrupt_minor_residue_fails_the_check_prime(self, monkeypatch, prime_index):
        # K_16 rooted at 4: two primes for the CRT, then the check prime;
        # columns n + 1 .. 2n hold the minor, constant term first
        n = 16
        g = RootedGraph(complete(n).graph, 4)
        assert spectral_data([g])[0].phi_minus_root == _reference_pair(g)[1]
        residues = transforms._leverrier_residues

        def corrupt(graphs, primes):
            assert [len(ps) for ps in primes] == [3]
            out = residues(graphs, primes)
            mod_p = out[0][prime_index]
            mod_p[n + 1 + 3] = (mod_p[n + 1 + 3] + 1) % primes[0][prime_index]
            return out

        monkeypatch.setattr(transforms, "_leverrier_residues", corrupt)
        with pytest.raises(ArithmeticError, match="check prime"):
            spectral_data([g])


def _leverrier_residues_every_step(graphs, primes):
    """Reference for `transforms._leverrier_residues`: the same recurrence and
    layout, over int64 one (graph, prime) pair at a time, with every entry
    reduced modulo p at every step."""
    out = []
    for g, ps in zip(graphs, primes):
        n, a, ident = g.n, adjacency(g.graph), np.identity(g.n, dtype=np.int64)
        rows = []
        for p in ps:
            phi, minor = [0] * n + [1], [0] * (n - 1) + [1]
            m = ident
            for k in range(1, n + 1):
                prod = a @ m % p
                c = -int(prod.trace()) * pow(k, -1, p) % p
                phi[n - k] = c
                m = (prod + c * ident) % p
                if k < n:
                    minor[n - 1 - k] = int(m[g.root, g.root])
            rows.append(phi + minor)
        out.append(rows)
    return out


class _MatmulSpy:
    """numpy, but every matmul records the largest entry of its right operand
    and of its result, and its largest trace, as exact ints."""

    def __init__(self):
        self.seen = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x, y):
        out = np.matmul(x, y)
        traces = out.diagonal(axis1=1, axis2=2).astype(np.int64).sum(axis=1)
        self.seen.append((int(y.max()), int(out.max()), int(traces.max())))
        return out


class TestReductionSchedule:
    """`_leverrier_residues` reduces its float64 stack modulo p only when the
    next product's trace could reach 2^53."""

    def test_complete_graph_rooted(self):
        # rows = n - 1, the most frequent reductions: phi(K_n) = (x - n + 1)
        # (x + 1)^(n - 1), and K_n less any vertex is K_(n - 1)
        n = 40
        g = RootedGraph(complete(n).graph, 13)
        phi = poly(-(n - 1), 1) * poly(1, 1) ** (n - 1)
        minus = poly(-(n - 2), 1) * poly(1, 1) ** (n - 2)
        assert char_poly([g]) == [(phi, minus)]

    def test_long_path_rooted_at_the_end_and_the_middle(self):
        # rows = 2, about 20 steps between reductions; P_n less its middle
        # vertex m is P_m and P_(n - 1 - m)
        n, m = 200, 83
        end, middle = path(n), RootedGraph(path(n).graph, m)
        expected = [
            (_path_char_poly(n), _path_char_poly(n - 1)),
            (_path_char_poly(n), _path_char_poly(m) * _path_char_poly(n - 1 - m)),
        ]
        assert char_poly([end, middle]) == expected

    @pytest.mark.parametrize("n", [1, 2, 63, 150])
    def test_star(self, n):
        # phi(K_(1,n)) = x^(n - 1) (x^2 - n); the center leaves n isolated
        # vertices, a leaf leaves K_(1,n-1)
        phi = Polynomial.x() ** (n - 1) * poly(-n, 0, 1)
        leaf = RootedGraph(star(n).graph, n)
        minus_leaf = Polynomial.x() ** (n - 2) * poly(-(n - 1), 0, 1) if n > 1 else poly(0, 1)
        assert char_poly([star(n), leaf]) == [(phi, Polynomial.x() ** n), (phi, minus_leaf)]

    def test_matches_a_reduce_every_step_reference(self, monkeypatch):
        # 60 seeded rooted graphs, a few sizes, so that chunks mix degrees
        rng = random.Random(2053)
        graphs = [_random_graph(rng, rng.choice((1, 2, 5, 16, 31, 47, 64))) for _ in range(60)]
        runs, residues = [], transforms._leverrier_residues

        def compare(graphs, primes):
            out = residues(graphs, primes)
            runs.append(out == _leverrier_residues_every_step(graphs, primes))
            return out

        monkeypatch.setattr(transforms, "_leverrier_residues", compare)
        char_poly(graphs)
        assert len(runs) == 7 and all(runs)

    def test_no_float_reaches_2_to_the_53(self, monkeypatch):
        # every product's operand, result and trace, on K_64 (reduced most
        # often) and P_200 (least often); the stack is left unreduced at
        # some steps, so the schedule is not reduce-every-step
        spy = _MatmulSpy()
        monkeypatch.setattr(transforms, "np", spy)
        g1, g2 = RootedGraph(complete(64).graph, 9), path(200)
        assert char_poly([g1, g2]) == [
            (poly(-63, 1) * poly(1, 1) ** 63, poly(-62, 1) * poly(1, 1) ** 62),
            (_path_char_poly(200), _path_char_poly(199)),
        ]
        assert spy.seen
        assert max(max(seen) for seen in spy.seen) < 2**53
        assert max(operand for operand, _, _ in spy.seen) >= transforms._PRIME_LIMIT


class TestGreen:
    def test_k2(self):
        sd = spectral_data([complete(2)])[0]
        assert green(sd) == ratfun(poly(0, 1), poly(-1, 0, 1))

    def test_k3_partial_fractions(self):
        sd = spectral_data([complete(3)])[0]
        g = green(sd)
        # (1/3) (2/(z+1) + 1/(z-2))
        third = F(1, 3)
        expected = RationalFunction(poly(2 * third), poly(1, 1)) + RationalFunction(
            poly(third), poly(-2, 1)
        )
        assert g == expected

    def test_single_vertex(self):
        sd = spectral_data([RootedGraph(Graph(1), 0)])[0]
        assert green(sd) == ratfun(Polynomial.one(), poly(0, 1))


class TestCauchy:
    def test_rc_k2(self):
        sd = spectral_data([complete(2)])[0]
        # 1/(z-1) + 1/(z+1) - 2/z = 2/(z^3 - z)
        assert renormalized_cauchy(sd) == ratfun(poly(2), poly(0, -1, 0, 1))

    def test_rc_single_vertex(self):
        sd = spectral_data([RootedGraph(Graph(1), 0)])[0]
        assert renormalized_cauchy(sd).is_zero()

    def test_rc_is_log_derivative_minus_dim_over_z(self):
        sd = spectral_data([friendship(2)])[0]
        dim_over_z = ratfun(Polynomial.constant(sd.dim), poly(0, 1))
        assert renormalized_cauchy(sd) == RationalFunction(sd.phi).log_derivative() - dim_over_z


def _h_by_definition(sd):
    """rc + 1/z + G'/G, the sum that h_transform has in closed form."""
    one_over_z = ratfun(Polynomial.one(), poly(0, 1))
    return renormalized_cauchy(sd) + one_over_z + green(sd).log_derivative()


class TestHTransform:
    def test_k2_vanishes(self):
        assert h_transform(spectral_data([complete(2)])[0]).is_zero()

    def test_single_vertex(self):
        assert h_transform(spectral_data([RootedGraph(Graph(1), 0)])[0]).is_zero()

    def test_closed_form_is_the_definition(self):
        # h = rc(G - r), also where phi and psi share a factor
        rng = random.Random(21)
        graphs = [RootedGraph(Graph(1), 0), complete(2)]
        graphs += [random_rooted_graph(rng, 8) for _ in range(200)]
        sds = spectral_data(graphs)
        for sd in sds:
            assert h_transform(sd) == _h_by_definition(sd)
        assert any(poly_gcd(sd.phi, sd.phi_minus_root).degree > 0 for sd in sds)

    def test_series_is_the_cumulant_route(self):
        # the Laurent coefficients of the closed form against h_n = c_n - n b_n
        # from the graph's moment tables
        rng = random.Random(5)
        order = 8
        for _ in range(50):
            g = random_rooted_graph(rng, 8)
            moments = matrix_power_moments(root_first_adjacency(g), order)
            series = laurent_at_infinity(h_transform(spectral_data([g])[0]), order + 1)
            assert list(series[2:]) == h_coefficients(moments)

    def test_leading_coefficients(self):
        # h_1 = w_1 - m_1 and h_2 = w_2 + m_1^2 - 2 m_2 for any small graph
        rng = random.Random(2)
        for _ in range(12):
            g = random_rooted_graph(rng, 6)
            sd = spectral_data([g])[0]
            h = h_transform(sd)
            series = laurent_at_infinity(h, 4)
            a = adjacency(g.graph)
            w1, w2 = int(a.trace()), int((a @ a).trace())
            m1 = int(a[g.root, g.root])
            m2 = int((a @ a)[g.root, g.root])
            assert series[2] == w1 - m1
            assert series[3] == w2 + m1 * m1 - 2 * m2


def _assert_laurent_ring_ops(f, g, order):
    """Expansions at infinity add and multiply (the product truncated) like f, g."""
    sf, sg = laurent_at_infinity(f, order), laurent_at_infinity(g, order)
    product = [sum(sf[i] * sg[n - i] for i in range(n + 1)) for n in range(order + 1)]
    assert laurent_at_infinity(f + g, order) == tuple(a + b for a, b in zip(sf, sg))
    assert laurent_at_infinity(f * g, order) == tuple(product)


class TestLaurent:
    def test_fractions_on_integer_content(self):
        # 1/(2z - 1) has integer contents; the series must stay exact
        f = RationalFunction(Polynomial.one(), Polynomial((-1, 2)))
        series = laurent_at_infinity(f, 4)
        assert all(type(c) is Fraction for c in series)
        assert series == (0, F(1, 2), F(1, 4), F(1, 8), F(1, 16))

    def test_geometric(self):
        f = ratfun(poly(0, 1), poly(-1, 0, 1))
        series = laurent_at_infinity(f, 6)
        assert [series[k] for k in range(7)] == [0, 1, 0, 1, 0, 1, 0]

    def test_rc_k2_trace_moments(self):
        sd = spectral_data([complete(2)])[0]
        series = laurent_at_infinity(renormalized_cauchy(sd), 6)
        assert [series[k] for k in range(2, 7)] == [0, 2, 0, 2, 0]

    def test_one_over_z(self):
        series = laurent_at_infinity(ratfun(Polynomial.one(), poly(0, 1)), 4)
        assert [series[k] for k in range(5)] == [0, 1, 0, 0, 0]

    def test_past_order_raises(self):
        series = laurent_at_infinity(ratfun(Polynomial.one(), poly(0, 1)), 4)
        with pytest.raises(IndexError):
            series[5]

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            laurent_at_infinity(ratfun(poly(0, 0, 1), poly(0, 1)), 4)

    def test_ring_homomorphism(self):
        rng = random.Random(9)
        for _ in range(10):
            g1 = random_rooted_graph(rng, 6)
            g2 = random_rooted_graph(rng, 6)
            f1 = green(spectral_data([g1])[0])
            f2 = green(spectral_data([g2])[0])
            _assert_laurent_ring_ops(f1, f2, 10)

    def test_green_moments_are_walk_counts(self):
        rng = random.Random(10)
        for _ in range(10):
            g = random_rooted_graph(rng, 7)
            sd = spectral_data([g])[0]
            series = laurent_at_infinity(green(sd), 13)
            walks = matrix_power_moments(root_first_adjacency(g), 12).phi
            for n in range(1, 13):
                assert series[n + 1] == walks[n - 1]

    def test_rc_moments_are_traces(self):
        rng = random.Random(14)
        for _ in range(10):
            g = random_rooted_graph(rng, 7)
            sd = spectral_data([g])[0]
            series = laurent_at_infinity(renormalized_cauchy(sd), 13)
            traces = matrix_power_moments(adjacency(g.graph), 12).omega
            for n in range(1, 13):
                assert series[n + 1] == traces[n - 1]


class TestSchurIdentity:
    def test_phi_factorization(self):
        # phi = F * phi_minus_root as exact rational functions
        rng = random.Random(4)
        for _ in range(100):
            g = random_rooted_graph(rng, 8)
            sd = spectral_data([g])[0]
            lhs = RationalFunction(sd.phi)
            rhs = green(sd).reciprocal() * RationalFunction(sd.phi_minus_root)
            assert lhs == rhs


class TestRootIsolation:
    def test_rational_and_irrational(self):
        p = poly(-2, 0, 1) * poly(-1, 1)  # roots: -sqrt(2), 1, sqrt(2)
        roots = isolate_real_roots(p)
        values = [r.value for r in roots]
        assert len(values) == 3
        assert abs(values[0] + math.sqrt(2)) < 1e-11
        assert roots[1].exact == 1
        assert abs(values[2] - math.sqrt(2)) < 1e-11

    def test_rational_root_detection(self):
        p = poly(F(-1, 2), 1) * poly(3, 1)  # roots 1/2 and -3
        roots = isolate_real_roots(p)
        assert [r.exact for r in roots] == [F(-3), F(1, 2)]

    def test_no_real_roots(self):
        assert isolate_real_roots(poly(1, 0, 1)) == []

    def test_is_root_of(self):
        # roots -sqrt(2), 1/3, 1, sqrt(2): the dyadic 1 is exact, the others are not
        p = poly(-2, 0, 1) * poly(F(-1, 3), 1) * poly(-1, 1)
        roots = isolate_real_roots(p)
        assert [r.exact for r in roots] == [None, None, 1, None]
        assert [r.is_root_of(poly(-2, 0, 1)) for r in roots] == [True, False, False, True]
        assert [r.is_root_of(poly(F(-1, 3), 1)) for r in roots] == [False, True, False, False]
        assert [r.is_root_of(poly(-1, 1)) for r in roots] == [False, False, True, False]
        assert not any(r.is_root_of(Polynomial.constant(3)) for r in roots)

    def test_irrational_root_interval(self):
        (neg, pos) = isolate_real_roots(poly(-2, 0, 1))
        for root in (neg, pos):
            assert root.exact is None and root.lo < root.hi
            assert float(root.lo) == float(root.hi) == root.value
        assert pos.lo**2 < 2 < pos.hi**2 and neg.hi**2 < 2 < neg.lo**2
        assert pos.value == math.sqrt(2) == -neg.value  # correctly rounded

    def test_close_roots_beside_an_exact_root_exclude_it(self):
        # p has roots 1 and 1 +- d, d = sqrt(2) 1e-17: all three round to the
        # double 1.0, and only the root 1 itself may touch the point 1
        p = poly(-1, 1) * poly(1 - F(2, 10**34), -2, 1)
        below, one, above = isolate_real_roots(p)
        assert one.exact == 1
        assert below.hi < 1 and (1 - below.hi) ** 2 < F(2, 10**34) < (1 - below.lo) ** 2
        assert 1 < above.lo and (above.lo - 1) ** 2 < F(2, 10**34) < (above.hi - 1) ** 2

    def test_no_interval_ends_on_a_root(self):
        # bisection isolates sqrt 2 in (1, 2) and -sqrt 2 in (-16, 0),
        # intervals with the dyadic roots 0, 1 and 2 at their ends
        p = poly(0, 1) * poly(-1, 1) * poly(-2, 1) * poly(-2, 0, 1)
        roots = isolate_real_roots(p)
        assert [r.exact for r in roots] == [None, 0, 1, None, 2]
        for root in (roots[0], roots[3]):
            assert p(root.lo) * p(root.hi) < 0
            assert (root.lo**2 - 2) * (root.hi**2 - 2) < 0

    def test_non_dyadic_rational_root_gets_an_interval(self):
        p = poly(-1, 3) * poly(-2, 0, 1)
        _, third, _ = isolate_real_roots(p)
        assert third.exact is None and third.lo < F(1, 3) < third.hi
        assert third.value == float(F(1, 3))


def _irreducible(b: int, c: int) -> bool:
    disc = b * b - 4 * c
    return disc < 0 or math.isqrt(disc) ** 2 != disc


def _above(root, y: Fraction) -> bool:
    """Whether a known root, a Fraction or (b, c, s) for the root
    (-b + s sqrt(b^2 - 4c)) / 2 of x^2 + b x + c, lies above y."""
    if isinstance(root, Fraction):
        return root > y
    b, c, s = root
    t, disc = 2 * y + b, b * b - 4 * c  # root > y  <=>  s sqrt(disc) > t
    if s > 0:
        return t < 0 or disc > t * t
    return t < 0 and disc < t * t


@settings(max_examples=100, deadline=None)
@given(
    rationals=st.sets(
        st.builds(
            Fraction,
            st.integers(-40, 40),
            st.sampled_from([1, 2, 4, 8, 16, 3, 5, 6, 7, 9, 12]),
        ),
        max_size=6,
    ),
    quadratics=st.sets(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda bc: _irreducible(*bc)),
        max_size=3,
    ),
)
def test_isolation_finds_every_known_root(rationals, quadratics):
    p = Polynomial.one()
    for r in rationals:
        p = p * poly(-r, 1)
    for b, c in quadratics:
        p = p * poly(c, b, 1)
    known = list(rationals) + [
        (b, c, s) for b, c in quadratics if b * b > 4 * c for s in (-1, 1)
    ]
    roots = isolate_real_roots(p)
    assert len(roots) == len(known)
    assert all(a.hi <= b.lo for a, b in zip(roots, roots[1:]))
    for root in roots:
        if root.exact is not None:
            assert root.exact in rationals
            continue
        inside = [k for k in known if _above(k, root.lo) and not _above(k, root.hi)]
        assert len(inside) == 1
        assert p(root.lo) != 0 and p(root.hi) != 0
        if isinstance(inside[0], Fraction):
            assert inside[0].denominator & (inside[0].denominator - 1)  # not dyadic
            assert root.value == float(inside[0])
        else:  # both ends round to one double, so the root does too
            assert float(root.lo) == float(root.hi) == root.value


def _assert_matches_oracle(rc, g):
    """The spectrum read from rc has the multiplicities and eigenvalues of g."""
    report = extract_spectrum(rc, g.n)
    oracle = eigensolve(adjacency(g.graph).astype(float))
    assert [m for _, m in report.entries] == [m for _, m in oracle.entries]
    for (a, _), (b, _) in zip(report.entries, oracle.entries):
        assert abs(a - b) < 1e-9


class TestExtractSpectrum:
    def test_star_graphs(self):
        for n in (2, 4, 9, 25):
            # 1/(z - sqrt n) + 1/(z + sqrt n) - 2/z = 2n / (z^3 - n z)
            rc = ratfun(poly(2 * n), poly(0, -n, 0, 1))
            report = extract_spectrum(rc, n + 1)
            expected = sorted({-math.sqrt(n): 1, 0.0: n - 1, math.sqrt(n): 1}.items())
            assert [m for _, m in report.entries] == [m for _, m in expected]
            for (v, _), (ev, _) in zip(report.entries, expected):
                assert abs(v - ev) < 1e-9

    def test_friendship(self):
        for n in (2, 3, 10):
            sd = spectral_data([friendship(n)])[0]
            report = extract_spectrum(renormalized_cauchy(sd), 2 * n + 1)
            s = math.sqrt(1 + 8 * n)
            expected = (((1 - s) / 2, 1), (-1.0, n), (1.0, n - 1), ((1 + s) / 2, 1))
            for value, mult in expected:
                assert [m for v, m in report.entries if abs(v - value) <= 1e-9] == [mult]

    def test_zero_transform(self):
        report = extract_spectrum(RationalFunction(Polynomial.zero()), 3)
        assert report.entries == ((0.0, 3),)

    def test_oracle_agreement_small_graphs(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_rooted_graph(rng, 10)
            _assert_matches_oracle(renormalized_cauchy(spectral_data([g])[0]), g)

    def test_non_integer_residue_rejected(self):
        rc = ratfun(poly(F(1, 2)), poly(-1, 1))  # residue 1/2 at pole 1
        with pytest.raises(ArithmeticError):
            extract_spectrum(rc, 2)

    @pytest.mark.parametrize(
        "num",
        [
            poly(1),  # residues -+1/(2 sqrt 2) at -+sqrt 2
            poly(0, F(2001, 1000)),  # residue 1.0005 at both poles
        ],
    )
    def test_non_integer_residue_at_irrational_pole_rejected(self, num):
        rc = ratfun(num, poly(-2, 0, 1))
        with pytest.raises(ArithmeticError, match="non-integer residue"):
            extract_spectrum(rc, 3)

    def test_pole_at_a_non_dyadic_rational_is_certified_by_gcd(self, monkeypatch):
        # t = rc + 2/z = 1/z + 1/(z - 1/3); 1/3 is not a bisection point
        calls, poly_gcd = [], transforms.poly_gcd

        def gcd(*args):
            calls.append(args)
            return poly_gcd(*args)

        monkeypatch.setattr(transforms, "poly_gcd", gcd)
        report = extract_spectrum(ratfun(poly(F(1, 3)), poly(0, F(-1, 3), 1)), 2)
        assert report.entries == ((0.0, 1), (float(F(1, 3)), 1))
        assert len(calls) == 1

    def test_double_pole_at_a_non_dyadic_rational_rejected(self):
        # t = rc + 1/z = 1/z + 1/(z - 1/3)^2; isolation takes the square-free
        # part of t.den first, since Descartes' count never falls below 2 on
        # an interval around a non-dyadic double root, so without that gcd
        # this call does not end
        rc = ratfun(poly(1), poly(F(-1, 3), 1) ** 2)
        with pytest.raises(ArithmeticError, match="poles must be real and simple"):
            extract_spectrum(rc, 1)

    def test_non_integer_residue_at_non_dyadic_rational_pole_rejected(self):
        # t = rc + 1/z = 1/z + (1/2)/(z - 1/3)
        rc = ratfun(poly(F(1, 2)), poly(F(-1, 3), 1))
        with pytest.raises(ArithmeticError, match="non-integer residue"):
            extract_spectrum(rc, 1)

    @pytest.mark.parametrize("rc, dim, match", [
        (ratfun(poly(1), poly(1)), 1, "must vanish at infinity"),  # t = 1 + 1/z
        (ratfun(poly(1), poly(-1, 1)), 1, "do not sum to dim"),  # t = 1/z + 1/(z - 1)
    ])
    def test_improper_and_wrong_sum_are_pipeline_failures(self, rc, dim, match):
        # SpectrumReport raises ValueError for bad input; from the pipeline
        # its sum to dim fails as ArithmeticError, the exit-3 class
        with pytest.raises(ArithmeticError, match=match):
            extract_spectrum(rc, dim)

    def test_non_real_poles_rejected(self):
        # t = rc + 1/z = 1/z - 2/(z^2 + 1) has residue 1 at its only real pole
        rc = ratfun(poly(-2), poly(1, 0, 1))
        with pytest.raises(ArithmeticError, match="real and simple"):
            extract_spectrum(rc, 1)

    @pytest.mark.parametrize(
        "family, fold",
        [
            (family, fold)
            for family, n in (
                ("complete:2", 2), ("complete:3", 3), ("path:3", 3), ("path:4", 4), ("star:3", 4)
            )
            for fold in range(1, 7)
            if n**fold <= 81
        ],
    )
    def test_comb_powers_match_oracle(self, family, fold):
        # every comb power of these factors with at most 81 vertices; the
        # folds complete:2 ^ 6, path:3 ^ 4 and path:4 ^ 3 once failed with a
        # float residue check
        base = named(family)
        rc = nfold_comb_transforms(spectral_data([base])[0], fold)
        _assert_matches_oracle(rc, nfold_comb(base, fold))

    def test_random_star_and_comb_powers_match_oracle(self):
        # seeded random factors of at most 5 vertices; every star and comb
        # power of at most 27 vertices must match the dense eigensolver
        rng = random.Random(27)
        for _ in range(50):
            base = random_rooted_graph(rng, 5)
            sd = spectral_data([base])[0]
            for rc_of, build, dim in (
                (
                    lambda k: nfold_star_transforms(sd, k).rc,
                    nfold_star,
                    lambda k: k * (base.n - 1) + 1,
                ),
                (lambda k: nfold_comb_transforms(sd, k), nfold_comb, lambda k: base.n**k),
            ):
                fold = 1
                while dim(fold) <= 27:
                    _assert_matches_oracle(rc_of(fold), build(base, fold))
                    fold += 1

    def test_erdos_renyi_file_graph_through_the_cli(self, tmp_path, capsys):
        # a generic graph of 22 vertices: the gcds of its trace resolvent, with
        # large coefficients, dominate the pipeline
        rng = random.Random(2204)
        n = 22
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        path = tmp_path / "er_22.txt"
        path.write_text("\n".join([f"n {n} root 0"] + [f"{i} {j}" for i, j in edges]) + "\n")
        assert cli.main(["spectrum", "--family", str(path)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        oracle = eigensolve(adjacency(Graph(n, edges)).astype(float))
        assert [m for _, m, _ in rows] == [m for _, m in oracle.entries]
        for (a, _, _), (b, _) in zip(rows, oracle.entries):
            assert abs(a - b) < 1e-9


class TestSeriesVsRational:
    def test_series_ops_match_laurent(self):
        sd = spectral_data([star(3)])[0]
        g = green(sd)
        f = renormalized_cauchy(sd)
        _assert_laurent_ring_ops(g, f, 12)
