"""Oracle layer: tensor embeddings, LAPACK eigensolver, word evaluators."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cyclic_spectra.graphs import RootedGraph, adjacency, complete, friendship, nfold_star, star
from cyclic_spectra.models import (
    MixedWord,
    MomentData,
    OperatorModel,
    eigensolve,
    eval_cyclic_boolean_word,
    eval_cyclic_monotone_word,
    matrix_power_moments,
    model_tables,
)
from cyclic_spectra.verify import random_symmetric_int_matrix, run_suite
from kronecker import kron_word_moments
from rooted import root_first_adjacency

F = Fraction


class TestEmbeddings:
    def test_boolean_embed_trace(self):
        model = OperatorModel((2, 3))
        a = np.array([[1, 2], [2, -1]], dtype=object)
        big = model.boolean_embed(0, a)
        assert big.trace() == a.trace()

    def test_monotone_embed_trace_factor(self):
        model = OperatorModel((4, 2))
        b = np.array([[0, 1], [1, 3]], dtype=object)
        big = model.monotone_embed(1, b)
        assert big.trace() == 4 * b.trace()

    def test_projector_compression(self):
        # P a P = phi(a) P at the matrix level
        a = np.array([[2, 5], [5, -3]], dtype=object)
        p = np.zeros((2, 2), dtype=object)
        p[0, 0] = 1
        assert (p.dot(a).dot(p) == a[0, 0] * p).all()

    def test_dimension_mismatch(self):
        model = OperatorModel((2, 2))
        with pytest.raises(ValueError):
            model.boolean_embed(0, np.zeros((3, 3), dtype=object))


class TestSlotwiseModel:
    def test_matches_kronecker_model(self):
        # adjacent letters may share a slot, so products within a slot are tested too
        rng = random.Random(31)
        for _ in range(400):
            dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            model = OperatorModel(dims)
            ops = []
            for _ in range(rng.randint(1, 6)):
                slot = rng.randrange(len(dims))
                ops.append((slot, random_symmetric_int_matrix(rng, dims[slot], 2)))
            for kind in ("boolean", "monotone"):
                assert model.word_moments(ops, kind) == kron_word_moments(model, ops, kind)

    def test_rejects_unknown_kind_and_empty_word(self):
        model = OperatorModel((2,))
        with pytest.raises(ValueError):
            model.word_moments([(0, [[1, 0], [0, 1]])], "free")
        with pytest.raises(ValueError):
            model.word_moments([], "boolean")

    def test_mixed_words_suite_builds_no_kronecker_product(self, monkeypatch):
        def refuse(self, factors):
            raise AssertionError("Kronecker product built")

        monkeypatch.setattr(OperatorModel, "_chain", refuse)
        with pytest.raises(AssertionError):
            OperatorModel((2, 2)).boolean_embed(0, [[0, 1], [1, 0]])
        result = run_suite("mixed-words", trials=50)
        assert (result.passed, result.failed) == (50, 0)


class TestEigensolve:
    def test_star_4(self):
        report = eigensolve(adjacency(star(4).graph).astype(float))
        assert [m for _, m in report] == [1, 3, 1]
        assert abs(report[0][0] + 2) < 1e-9
        assert abs(report[2][0] - 2) < 1e-9

    def test_friendship_2(self):
        report = eigensolve(adjacency(friendship(2).graph).astype(float))
        s = math.sqrt(17)
        expect = [((1 - s) / 2, 1), (-1.0, 2), (1.0, 1), ((1 + s) / 2, 1)]
        assert [m for _, m in report] == [m for _, m in expect]
        for (v, _), (ev, _) in zip(report, expect):
            assert abs(v - ev) < 1e-9

    def test_zero_matrix(self):
        report = eigensolve(np.zeros((4, 4)))
        assert report == ((0.0, 4),)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_trace_consistency(self):
        rng = random.Random(8)
        for _ in range(5):
            m = np.array(random_symmetric_int_matrix(rng, 6), dtype=float)
            report = eigensolve(m)
            traces = matrix_power_moments(np.array(m, dtype=object), 12).omega
            for k in range(1, 13):
                via_powers = float(traces[k - 1])
                via_eigs = sum(mult * value**k for value, mult in report)
                scale = max(1.0, abs(via_powers))
                assert abs(via_powers - via_eigs) / scale < 1e-6


class TestMoments:
    def test_k2_trace(self):
        a = np.array(adjacency(complete(2).graph), dtype=object)
        assert matrix_power_moments(a, 4).omega[3] == 2

    def test_k3_odd_trace(self):
        a = np.array(adjacency(complete(3).graph), dtype=object)
        assert matrix_power_moments(a, 3).omega[2] == 6

    def test_int64_input_does_not_overflow(self):
        a = np.array([[0, 2**20], [2**20, 0]])
        assert a.dtype == np.int64
        m = matrix_power_moments(a, 4)
        assert (m.omega[3], m.phi[3]) == (2 * 2**80, 2**80)

    def test_vacuum_is_degree(self):
        for g in (complete(3), star(4), friendship(2), RootedGraph(star(4).graph, 2)):
            a = root_first_adjacency(g)
            assert matrix_power_moments(a, 2).phi[1] == g.root_degree()

    def test_entries_are_exact_scalars(self):
        # ints stay ints, integral Fractions become ints, the rest stay Fractions
        m = MomentData([3, F(4, 2), F(1, 3)], [-7, F(-6, 3), F(5, 2)])
        assert m.phi == (3, 2, F(1, 3)) and m.omega == (-7, -2, F(5, 2))
        assert [type(x) for x in m.phi + m.omega] == [int, int, F, int, int, F]
        halves = matrix_power_moments(np.array([[F(1, 2), 1], [1, 0]], dtype=object), 3)
        assert [type(x) for x in halves.phi] == [F, F, F] and halves.omega[1] == F(9, 4)
        ints = matrix_power_moments(np.array([[0, 2], [2, 1]]), 6)
        assert {type(x) for x in ints.phi + ints.omega} == {int}

    def test_tables_of_unequal_length_or_empty_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            MomentData([1, 2], [1])
        with pytest.raises(ValueError, match="at least one moment"):
            MomentData([], [])


def word(*letters):
    return MixedWord(tuple(letters))


class MarkerTables:
    """Three algebras with distinctive marker moments, so factorization
    mistakes show up; phi(i, p) and omega(i, p) read algebra i at power p."""

    length = 9

    def setup_method(self):
        self.tables = [
            MomentData(
                [(i + 1) * 100 + p for p in range(1, self.length + 1)],
                [(i + 1) * 10000 + p for p in range(1, self.length + 1)],
            )
            for i in range(3)
        ]

    def phi(self, i, p):
        return self.tables[i - 1].phi[p - 1]

    def omega(self, i, p):
        return self.tables[i - 1].omega[p - 1]


class TestBooleanWords(MarkerTables):

    def test_cyclic_merge(self):
        # indices b a b c b with powers 1 2 1 2 1; ends merge into power 2
        w = word((2, 1), (1, 2), (2, 1), (3, 2), (2, 1))
        got = eval_cyclic_boolean_word(w, self.tables, "omega")
        expected = (
            self.phi(2, 2) * self.phi(1, 2) * self.phi(2, 1) * self.phi(3, 2)
        )
        assert got == expected

    def test_phi_factorizes_fully(self):
        w = word((2, 1), (1, 2), (2, 1), (3, 2), (2, 1))
        got = eval_cyclic_boolean_word(w, self.tables, "phi")
        expected = (
            self.phi(2, 1) ** 3 * self.phi(1, 2) * self.phi(3, 2)
        )
        assert got == expected

    def test_single_letter_uses_trace(self):
        w = word((1, 3))
        assert eval_cyclic_boolean_word(w, self.tables, "omega") == self.omega(1, 3)

    def test_adjacent_equal_rejected(self):
        with pytest.raises(ValueError):
            word((1, 1), (1, 2))

    def test_algebra_index_below_one_rejected(self):
        # index 0 would read tables[-1], the last algebra's table
        for letters in (((0, 2),), ((1, 1), (0, 1)), ((-1, 1),)):
            with pytest.raises(ValueError, match="algebra indices start at 1"):
                MixedWord(letters)

    def test_table_shorter_than_the_power_rejected(self):
        with pytest.raises(ValueError, match="too short for power 10"):
            eval_cyclic_boolean_word(word((1, 10)), self.tables, "omega")


class TestMonotoneWords(MarkerTables):
    length = 11

    def test_phi_peeling(self):
        # b a^2 b a c^2 b with order a < b < c
        w = word((2, 1), (1, 2), (2, 1), (1, 1), (3, 2), (2, 1))
        got = eval_cyclic_monotone_word(w, self.tables, "phi")
        expected = self.phi(3, 2) * self.phi(2, 1) ** 3 * self.phi(1, 3)
        assert got == expected

    def test_omega_peeling(self):
        w = word((2, 1), (1, 2), (2, 1), (1, 1), (3, 2), (2, 1))
        got = eval_cyclic_monotone_word(w, self.tables, "omega")
        expected = (
            self.phi(3, 2) * self.phi(2, 1) * self.phi(2, 2) * self.omega(1, 3)
        )
        assert got == expected

    def test_single_letter(self):
        assert (
            eval_cyclic_monotone_word(word((2, 5)), self.tables, "omega")
            == self.omega(2, 5)
        )

    def test_peel_order_invariance(self):
        # peeling the leftmost or the rightmost local maximum must agree
        rng = random.Random(17)
        from cyclic_spectra.models import _merge_cyclic

        def eval_rightmost(w):
            letters = [list(l) for l in w.letters]
            prod = F(1)
            while True:
                letters = _merge_cyclic(letters)
                if len(letters) == 1:
                    break
                n = len(letters)
                best = None
                for p in range(n - 1, -1, -1):
                    v = letters[p][0]
                    if letters[(p - 1) % n][0] < v and letters[(p + 1) % n][0] < v:
                        best = p
                        break
                idx, power = letters.pop(best)
                prod *= self.phi(idx, power)
            return prod * self.omega(letters[0][0], letters[0][1])

        for _ in range(200):
            length = rng.randint(1, 7)
            indices = [rng.randint(1, 3)]
            while len(indices) < length:
                nxt = rng.randint(1, 3)
                if nxt != indices[-1]:
                    indices.append(nxt)
            letters = tuple((i, rng.randint(1, 2)) for i in indices)
            w = MixedWord(letters)
            assert eval_cyclic_monotone_word(w, self.tables, "omega") == eval_rightmost(w)


class TestWordsAgainstTensorModels:
    def _run(self, kind, evaluator, seed, trials=60):
        rng = random.Random(seed)
        for _ in range(trials):
            dims = tuple(rng.randint(2, 3) for _ in range(3))
            model = OperatorModel(dims)
            mats = [
                np.array(random_symmetric_int_matrix(rng, d, 2), dtype=object)
                for d in dims
            ]
            tables = [matrix_power_moments(a, 24) for a in mats]
            embedded = model_tables(model, tables, kind)
            length = rng.randint(1, 6)
            indices = [rng.randint(1, 3)]
            while len(indices) < length:
                nxt = rng.randint(1, 3)
                if nxt != indices[-1]:
                    indices.append(nxt)
            w = MixedWord(tuple((i, rng.randint(1, 3)) for i in indices))
            ops = [
                (idx - 1, np.linalg.matrix_power(mats[idx - 1], power))
                for idx, power in w.letters
            ]
            trace, vacuum = kron_word_moments(model, ops, kind)
            assert evaluator(w, embedded, "omega") == trace
            assert evaluator(w, embedded, "phi") == vacuum

    def test_boolean_words_match_model(self):
        self._run("boolean", eval_cyclic_boolean_word, seed=100)

    def test_monotone_words_match_model(self):
        self._run("monotone", eval_cyclic_monotone_word, seed=200)

    def test_star_power_tensor_spectrum(self):
        # nonzero spectrum of the full tensor sum matches the star-product graph
        base = complete(2)
        for n in (2, 4, 6):
            model = OperatorModel((2,) * n)
            a = np.array(adjacency(base.graph), dtype=object)
            big = sum(model.boolean_embed(i, a) for i in range(n))
            tensor = eigensolve(np.array(big, dtype=float))
            direct = eigensolve(adjacency(nfold_star(base, n).graph).astype(float))
            t_nonzero = [(v, m) for v, m in tensor if abs(v) > 1e-9]
            d_nonzero = [(v, m) for v, m in direct if abs(v) > 1e-9]
            assert [m for _, m in t_nonzero] == [m for _, m in d_nonzero]
            for (a_val, _), (b_val, _) in zip(t_nonzero, d_nonzero):
                assert abs(a_val - b_val) < 1e-9

    def test_star_power_tensor_traces_k3(self):
        base = complete(3)
        a = np.array(adjacency(base.graph), dtype=object)
        for n in (2, 3):
            model = OperatorModel((3,) * n)
            big = sum(model.boolean_embed(i, a) for i in range(n))
            graph_adj = np.array(
                adjacency(nfold_star(base, n).graph), dtype=object
            )
            assert matrix_power_moments(big, 12).omega == matrix_power_moments(graph_adj, 12).omega
