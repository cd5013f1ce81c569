"""Cumulant transforms, partitioned cumulants, vanishing and additivity."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cyclic_spectra import cumulants
from cyclic_spectra.cumulants import (
    LATTICE_CAP,
    boolean_cumulants,
    cyclic_boolean_cumulants,
    h_coefficients,
    moment_cumulant_check,
    partition_cumulant,
)
from cyclic_spectra.exact import Polynomial
from cyclic_spectra.models import MomentData, OperatorModel, matrix_power_moments
from cyclic_spectra.partitions import (
    SetPartition,
    enumerate_partitions,
    is_cyclic_interval,
    moebius,
    refinements,
    top,
)
from cyclic_spectra.verify import random_symmetric_int_matrix
from rotation import interval_rotations, is_interval_partition, rotate_to_interval

F = Fraction

K2_PHI = [0, 1, 0, 1, 0, 1, 0, 1]
K2_OMEGA = [0, 2, 0, 2, 0, 2, 0, 2]


def k2_data(order=8):
    return MomentData(K2_PHI[:order], K2_OMEGA[:order])


def random_moment_data(rng, order=8, bound=4):
    phi = [F(rng.randint(-bound, bound)) for _ in range(order)]
    omega = [F(rng.randint(-bound, bound)) for _ in range(order)]
    return MomentData(phi, omega)


def _series(values):
    """The generating polynomial sum_n values[n-1] z^n."""
    return Polynomial([0, *values])


def _truncate(p, order):
    return Polynomial(p.coeffs[: order + 1])


def partitioned_moment(m, pi, functional="omega"):
    """omega_pi (or phi_pi) of one table: the lattice sum whose one
    coefficient is c(pi) = 1."""
    [value] = cumulants._lattice_sum({pi: 1}, [m], functional)
    return value


def partition_cumulant_case_split(m, pi):
    """Reference: the same cumulant through the case split.  It is zero off the
    cyclic intervals, the top one by the moment recursion, and otherwise the
    Boolean cumulant of the rotation into intervals."""
    n = pi.n
    if not is_cyclic_interval(pi):
        return F(0)
    if pi == top(n):
        total = partitioned_moment(m, pi, "omega")
        for rho in enumerate_partitions(n, "CI"):
            if rho != pi:
                total -= partition_cumulant_case_split(m, rho)
        return total
    _, rotated = rotate_to_interval(pi)
    return partition_cumulant(m, rotated, "phi")


class TestUnivariate:
    def test_boolean_cumulants_k2(self):
        bs = boolean_cumulants(k2_data())
        assert bs == [0, 1, 0, 0, 0, 0, 0, 0]

    def test_zero_data(self):
        data = MomentData([0] * 6, [0] * 6)
        assert boolean_cumulants(data) == [0] * 6
        assert cyclic_boolean_cumulants(data) == [0] * 6

    def test_first_cumulants_general(self):
        rng = random.Random(1)
        for _ in range(20):
            m = random_moment_data(rng)
            bs = boolean_cumulants(m)
            cs = cyclic_boolean_cumulants(m)
            hs = h_coefficients(m)
            assert bs[0] == m.phi[0]
            assert cs[0] == m.omega[0]
            assert cs[1] == m.omega[1] - m.phi[0] ** 2
            assert hs[0] == m.omega[0] - m.phi[0]
            assert hs[1] == m.omega[1] + m.phi[0] ** 2 - 2 * m.phi[1]

    def test_k2_cyclic_cumulants(self):
        cs = cyclic_boolean_cumulants(k2_data())
        assert cs == [0, 2, 0, 0, 0, 0, 0, 0]

    def test_k2_h_vanishes(self):
        assert h_coefficients(k2_data()) == [0] * 8

    def test_phi_zero_gives_omega(self):
        rng = random.Random(2)
        for _ in range(10):
            omega = [F(rng.randint(-4, 4)) for _ in range(8)]
            m = MomentData([0] * 8, omega)
            assert h_coefficients(m) == list(m.omega)
            assert cyclic_boolean_cumulants(m) == list(m.omega)

    def test_generating_function_identity(self):
        # B (1 + M) = M and M-hat = C + z M B' coefficientwise up to z^K, for
        # arbitrary rational inputs, with the products formed as polynomials
        rng = random.Random(3)
        for _ in range(25):
            m = random_moment_data(rng, order=32)
            series_m, series_mhat = _series(m.phi), _series(m.omega)
            b = _series(boolean_cumulants(m))
            c = _series(cyclic_boolean_cumulants(m))
            z_b_prime = Polynomial.x() * b.derivative()
            order = len(m.phi)
            assert _truncate(b * (Polynomial.one() + series_m), order) == series_m
            assert series_mhat == _truncate(c + series_m * z_b_prime, order)


class TestPartitionedMoments:
    def setup_method(self):
        self.data = MomentData(
            [F(p + 3) for p in range(8)], [F(10 * p + 7) for p in range(8)]
        )

    def test_labels_are_the_word(self):
        # the kernel's labels index the copies, so any labelling gives the same word
        pi = SetPartition("xyxzz")
        for functional in ("phi", "omega"):
            assert partitioned_moment(self.data, pi, functional=functional) == (
                partitioned_moment(self.data, SetPartition((7, 1, 7, 3, 3)),
                                   functional=functional)
            )
        # letters x y x zz: the ends differ, so the trace factors into states
        assert partitioned_moment(self.data, pi) == self.data.phi[0] ** 3 * self.data.phi[1]

    def test_single_block_single_variable(self):
        for n in range(1, 6):
            got = partitioned_moment(self.data, top(n))
            assert got == self.data.omega[n - 1]

    def test_alternating_ends_differ(self):
        pi = SetPartition("abc")
        got = partitioned_moment(self.data, pi)
        assert got == self.data.phi[0] ** 3

    def test_cyclic_wrap_case(self):
        # word (1,2,1): ends share a copy, so the trace joins them
        pi = SetPartition("aba")
        got = partitioned_moment(self.data, pi)
        assert got == self.data.phi[1] * self.data.phi[0]

    def test_tables_shorter_than_the_word_rejected(self):
        with pytest.raises(ValueError, match="too short for total power 9"):
            partitioned_moment(self.data, SetPartition(range(9)))

    def test_phi_functional(self):
        pi = SetPartition("aba")
        got = partitioned_moment(self.data, pi, functional="phi")
        assert got == self.data.phi[0] ** 3


class TestPartitionCumulants:
    def _model_data(self, rng):
        dim = rng.randint(2, 3)
        mat = random_symmetric_int_matrix(rng, dim)
        return matrix_power_moments(mat, 10)

    def test_vanishing_outside_cyclic_intervals(self):
        rng = random.Random(5)
        for trial in range(20):
            data = self._model_data(rng)
            for n in range(2, 7):
                for pi in enumerate_partitions(n, "SP"):
                    if not is_cyclic_interval(pi):
                        assert partition_cumulant(data, pi) == 0

    def test_interval_case_matches_boolean(self):
        rng = random.Random(6)
        for _ in range(10):
            data = self._model_data(rng)
            for n in range(2, 7):
                for pi in enumerate_partitions(n, "Int"):
                    if pi == top(n):
                        continue
                    assert partition_cumulant(data, pi) == partition_cumulant(
                        data, pi, "phi"
                    )

    def test_case_split_matches_lattice_sum(self):
        rng = random.Random(7)
        for _ in range(8):
            data = self._model_data(rng)
            for n in range(1, 6):
                for pi in enumerate_partitions(n, "SP"):
                    assert partition_cumulant(data, pi) == partition_cumulant_case_split(
                        data, pi
                    )

    def test_top_cumulant_matches_series(self):
        rng = random.Random(8)
        for _ in range(10):
            data = self._model_data(rng)
            cs = cyclic_boolean_cumulants(data)
            for n in range(1, 8):
                assert partition_cumulant(data, top(n)) == cs[n - 1]

    @pytest.mark.parametrize("functional", [
        pytest.param("omega", id="partition_cumulant"),
        pytest.param("phi", id="boolean_partition_cumulant"),
    ])
    def test_lattice_cap(self, functional):
        data = MomentData([1] * (LATTICE_CAP + 1), [1] * (LATTICE_CAP + 1))
        with pytest.raises(ValueError, match="exceeds lattice cap"):
            partition_cumulant(data, top(LATTICE_CAP + 1), functional)

    def test_lattice_cap_of_the_check(self, monkeypatch):
        # the check rejects n before it enumerates CI(n)
        monkeypatch.setattr(cumulants, "enumerate_partitions", None)
        data = MomentData([1] * 20, [1] * 20)
        with pytest.raises(ValueError, match="exceeds lattice cap"):
            moment_cumulant_check([data], 20)

    def test_short_table_rejected_by_the_check(self, monkeypatch):
        # a table shorter than n is a ValueError, raised before CI(n) is built,
        # whichever of the tables is short
        monkeypatch.setattr(cumulants, "enumerate_partitions", None)
        short = MomentData([1, 2], [1, 2])
        for tables in ([short], [k2_data(), short], [short, k2_data()]):
            with pytest.raises(ValueError, match="moment tables too short"):
                moment_cumulant_check(tables, 3)

    def test_rotation_choice_invariant(self):
        # for wrap-around partitions every interval-producing rotation gives
        # the same single-variable cumulant
        rng = random.Random(9)
        data = self._model_data(rng)
        for n in range(3, 7):
            for pi in enumerate_partitions(n, "CI"):
                if pi == top(n) or is_interval_partition(pi):
                    continue
                rotations = interval_rotations(pi)
                # one rotation per block: each starts at the first element of an arc
                assert len(rotations) == len(pi)
                values = {
                    partition_cumulant(data, rotated, "phi") for _, rotated in rotations
                }
                assert len(values) == 1
                assert values.pop() == partition_cumulant(data, pi)


class TestMomentCumulant:
    def test_k2_n4(self):
        [outcome] = moment_cumulant_check([k2_data()], 4)
        assert outcome

    def test_n1(self):
        [outcome] = moment_cumulant_check([k2_data()], 1)
        assert outcome

    def test_models_up_to_8(self):
        rng = random.Random(10)
        tables = []
        for _ in range(5):
            dim = rng.randint(2, 3)
            mat = random_symmetric_int_matrix(rng, dim)
            tables.append(matrix_power_moments(mat, 8))
        for n in range(1, 9):
            outcomes = moment_cumulant_check(tables, n)
            assert len(outcomes) == 5 and all(outcomes)

    def test_int_and_fraction_tables_agree(self):
        # one table as ints and as Fractions, and the element halved, whose
        # moments and cumulants of order n scale by 2^-n, on the Fraction path
        rng = random.Random(11)
        tables = []
        for _ in range(5):
            ints = matrix_power_moments(random_symmetric_int_matrix(rng, 3), 8)
            fractions = MomentData(map(F, ints.phi), map(F, ints.omega))
            halved = MomentData(
                (F(x, 2**n) for n, x in enumerate(ints.phi, 1)),
                (F(x, 2**n) for n, x in enumerate(ints.omega, 1)),
            )
            assert cyclic_boolean_cumulants(fractions) == cyclic_boolean_cumulants(ints)
            assert cyclic_boolean_cumulants(halved) == [
                F(c, 2**n) for n, c in enumerate(cyclic_boolean_cumulants(ints), 1)
            ]
            tables += [ints, fractions, halved]
        for n in range(1, 9):
            outcomes = moment_cumulant_check(tables, n)
            assert len(outcomes) == 15 and all(outcomes)

    @pytest.mark.parametrize("n", range(1, LATTICE_CAP + 1))
    def test_coefficient_table_matches_the_per_pi_sum(self, n):
        # the table holds the nonzero sums of mu(rho, pi) over pi in CI(n),
        # pi >= rho; they sum to 1, because sum_{rho <= pi} mu(rho, pi)
        # vanishes unless pi is the bottom partition, which is a cyclic interval
        cis = enumerate_partitions(n, "CI")
        reference = Counter()
        for pi in cis:
            for rho in refinements(pi):
                reference[rho] += moebius(rho, pi)
        table = cumulants._lattice_coefficients(cis)
        assert table == {rho: c for rho, c in reference.items() if c}
        assert sum(table.values()) == 1

    def test_each_partitioned_moment_evaluated_once(self, monkeypatch):
        # the check gathers integer coefficients over all of CI(8) first, so no
        # refinement is evaluated twice and none beyond the Bell(8) partitions;
        # a partition's word is its labels, run-length encoded, so distinct
        # refinements have distinct words
        seen = []
        original = cumulants.eval_cyclic_boolean_word

        def counted(word, tables, functional="omega"):
            seen.append((word, functional))
            return original(word, tables, functional)

        monkeypatch.setattr(cumulants, "eval_cyclic_boolean_word", counted)
        rng = random.Random(10)
        data = matrix_power_moments(random_symmetric_int_matrix(rng, 3), 8)
        assert moment_cumulant_check([data], 8)[0]
        assert len(seen) == len(set(seen))
        assert len(seen) <= len(enumerate_partitions(8, "SP")) == 4140

    def test_each_word_built_once_per_call(self, monkeypatch):
        # the word of rho depends on rho alone, so one call over several tables
        # builds one word per distinct rho, not one per (table, rho)
        built = []
        original = cumulants.MixedWord

        def counted(letters):
            built.append(letters)
            return original(letters)

        monkeypatch.setattr(cumulants, "MixedWord", counted)
        rng = random.Random(11)
        tables = [
            matrix_power_moments(random_symmetric_int_matrix(rng, 3), 6) for _ in range(4)
        ]
        assert all(moment_cumulant_check(tables, 6))
        rhos = cumulants._lattice_coefficients(enumerate_partitions(6, "CI"))
        assert len(built) == len(set(built)) == len(rhos)

    def test_perturbed_rejected(self, monkeypatch):
        # the Moebius coefficients over CI(n) sum to 1, so adding 1 to every
        # partitioned moment moves the resummed side by 1
        original = cumulants.eval_cyclic_boolean_word

        def perturbed(word, tables, functional="omega"):
            return original(word, tables, functional) + 1

        monkeypatch.setattr(cumulants, "eval_cyclic_boolean_word", perturbed)
        [outcome] = moment_cumulant_check([k2_data()], 4)
        assert not outcome
        assert outcome.detail.startswith("lattice resummation differs")


class TestAdditivity:
    def test_cumulant_additivity_on_tensor_models(self):
        # c_n of an independent sum equals the sum of the factor c_n's,
        # with the sum realized by explicit tensor embeddings
        rng = random.Random(12)
        for _ in range(20):
            dims = (rng.randint(2, 3), rng.randint(2, 3))
            model = OperatorModel(dims)
            mats = [
                np.array(random_symmetric_int_matrix(rng, d), dtype=object)
                for d in dims
            ]
            big = model.boolean_embed(0, mats[0]) + model.boolean_embed(1, mats[1])
            order = 8
            cs_sum = cyclic_boolean_cumulants(matrix_power_moments(big, order))
            parts = [cyclic_boolean_cumulants(matrix_power_moments(mat, order)) for mat in mats]
            for n in range(order):
                assert cs_sum[n] == parts[0][n] + parts[1][n]
