"""Limit theorems, comb-power moments, moment tables, divisibility classifier."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cyclic_spectra import limits
from cyclic_spectra.convolutions import (
    nfold_comb_transforms,
    nfold_star_transforms,
    transform_pair,
)
from cyclic_spectra.exact import Polynomial, RationalFunction
from cyclic_spectra.graphs import complete
from cyclic_spectra.limits import (
    BETA_CAP,
    alpha_row,
    beta_table,
    carleman_check,
    cb_clt_limits,
    cb_id_classify,
    comb_limit_moment,
    finite_n_comb_moment,
    nth_root_round_trip,
    ordered_partition_moment_sums,
    spectral_gap_report,
    two_point_element,
)
from cyclic_spectra.models import (
    MixedWord,
    MomentData,
    OperatorModel,
    _merge_runs,
    eval_cyclic_monotone_word,
    matrix_power_moments,
)
from cyclic_spectra.partitions import enumerate_partitions
from cyclic_spectra.transforms import laurent_at_infinity, spectral_data
from cyclic_spectra.verify import random_rooted_graph
from rooted import root_first_adjacency

F = Fraction

K2_PSI = [F(0) if k % 2 else F(1) for k in range(1, 21)]
K2 = MomentData(K2_PSI, [2 * x for x in K2_PSI])


def alpha_k_by_least_index(d, n, k):
    """Reference: the tuples with least index j number binom(n - j, k - 1),
    so alpha_k is sum_(j=1..n) d^(j-1) binom(n - j, k - 1); 1 at k = 0."""
    if k == 0:
        return 1
    return sum(d ** (j - 1) * math.comb(n - j, k - 1) for j in range(1, n + 1))


class TestCltLimits:
    def test_odd(self):
        assert cb_clt_limits(3, F(3)) == (0, 0)
        assert cb_clt_limits(7, F(3)) == (0, 0)

    def test_even_beyond_two(self):
        assert cb_clt_limits(4, F(3)) == (1, 2)
        assert cb_clt_limits(10, F(3)) == (1, 2)

    def test_variance_keeps_summand_trace(self):
        assert cb_clt_limits(2, alpha=F(3)) == (1, F(3))

    def test_finite_n_fourth_moment_rate(self):
        # K3 star powers: trace of the normalized fourth power approaches 2
        # at rate 5/(2N), well inside the 5/N envelope
        sd = spectral_data([complete(3)])[0]
        deg = 2
        for n in list(range(1, 21)) + [50, 100, 200, 400]:
            pair = nfold_star_transforms(sd, n)
            series = laurent_at_infinity(pair.rc, 5)
            w4 = series[5]
            scaled = w4 / (deg * n) ** 2
            assert abs(scaled - 2) <= F(5, n)
            assert scaled - 2 == F(5, 2 * n)

    def test_pipeline_matches_closed_form_power_sums(self):
        # trace moments of friendship graphs: hub pair satisfies
        # p_k = p_{k-1} + 2N p_{k-2}, plus the +-1 bulk
        sd = spectral_data([complete(3)])[0]
        for n in (1, 2, 5, 17, 60):
            pair = nfold_star_transforms(sd, n)
            series = laurent_at_infinity(pair.rc, 9)
            p = [2, 1]  # power sums of the two hub eigenvalues
            for k in range(2, 9):
                p.append(p[-1] + 2 * n * p[-2])
            for k in range(1, 9):
                bulk = n * (-1) ** k + (n - 1)
                assert series[k + 1] == p[k] + bulk


class TestCltReport:
    def test_trace_variance_constant(self):
        from cyclic_spectra.limits import clt_report

        report = clt_report(spectral_data([complete(3)])[0], 2, 2, [1, 5, 25, 125])[1]
        assert report.omega_limit == F(3)
        assert all(v == 3.0 for _, v in report.finite_n_values)

    def test_fourth_moment_converges(self):
        from cyclic_spectra.limits import clt_report

        report = clt_report(spectral_data([complete(3)])[0], 2, 4, [2, 8, 32, 128])[3]
        assert report.omega_limit == F(2)
        errors = [abs(v - 2) for _, v in report.finite_n_values]
        assert errors == sorted(errors, reverse=True)

    def test_fold_below_one_rejected(self):
        from cyclic_spectra.limits import clt_report

        with pytest.raises(ValueError, match="fold count"):
            clt_report(spectral_data([complete(3)])[0], 2, 2, [4, 0])

    def test_root_degree_zero_rejected(self, monkeypatch):
        # a usage error, not the ZeroDivisionError of the normalization, and
        # raised before any exact work
        from cyclic_spectra.limits import clt_report

        def refuse(*args):
            raise AssertionError("exact work before the degree check")

        monkeypatch.setattr(limits, "renormalized_cauchy", refuse)
        monkeypatch.setattr(limits, "nfold_star_transforms", refuse)
        with pytest.raises(ValueError, match="root must have positive degree"):
            clt_report(spectral_data([complete(3)])[0], 0, 6, [1])


class TestSpectralGap:
    def test_k2_exact(self):
        rows = spectral_gap_report(spectral_data([complete(2)])[0], 1, 12)
        for row in rows:
            assert abs(row.largest - 1.0) < 1e-9
            assert abs(row.smallest + 1.0) < 1e-9
            assert row.largest_mult == 1 and row.smallest_mult == 1
            assert row.bulk_max < 1e-9

    def test_k3_rates(self):
        rows = spectral_gap_report(spectral_data([complete(3)])[0], 2, 40)
        errors = []
        for row in rows:
            n = row.n
            assert abs(row.largest - (math.sqrt(1 + 1 / (8 * n)) + 1 / (2 * math.sqrt(2 * n)))) < 1e-9
            if n >= 2:  # at n = 1 the +1 branch is empty, so there is no bulk
                assert abs(row.bulk_max - 1 / math.sqrt(2 * n)) < 1e-9
            assert row.bulk_max <= 2 / math.sqrt(2 * n) + 1e-12
            errors.append(abs(row.largest - 1.0))
        assert errors == sorted(errors, reverse=True)

    def test_extremes_simple_and_converging(self):
        rng = random.Random(99)
        g = random_rooted_graph(rng, 4)
        while g.root_degree() == 0:
            g = random_rooted_graph(rng, 4)
        rows = spectral_gap_report(spectral_data([g])[0], g.root_degree(), 256)
        errors = [abs(row.largest - 1.0) for row in rows[3:]]
        assert errors[-1] < errors[0]
        assert rows[-1].bulk_max < rows[3].bulk_max
        assert rows[-1].largest_mult == 1 and rows[-1].smallest_mult == 1
        assert abs(rows[-1].largest - 1.0) < 0.01


class TestAlpha:
    def test_geometric_base(self):
        for d in (2, 3, 5):
            for n in range(0, 8):
                assert alpha_row(d, n, 1) == [1, sum(d ** (j - 1) for j in range(1, n + 1))]

    def test_vanishes_below_diagonal(self):
        for d in (2, 3):
            for n in range(0, 6):
                assert alpha_row(d, n, 6)[n + 1 :] == [0] * (6 - n)

    def test_brute_force(self):
        from itertools import combinations

        for d in (2, 3):
            for n in range(0, 7):
                row = alpha_row(d, n, 4)
                for k in range(1, 5):
                    brute = sum(
                        d ** (tup[0] - 1)
                        for tup in combinations(range(1, n + 1), k)
                    )
                    assert row[k] == brute

    def test_peeling_recursion(self):
        # for k >= 2, peeling the largest index j leaves a (k - 1)-tuple from
        # {1..j - 1} with the same least index
        for d in (2, 3, 5):
            for n in range(0, 13):
                for k in range(2, 7):
                    peeled = sum(alpha_row(d, j - 1, k)[k - 1] for j in range(k, n + 1))
                    assert alpha_row(d, n, k)[k] == peeled

    def test_closed_form_matches_least_index_sum(self):
        for d in range(2, 6):
            for n in range(30):
                expected = [alpha_k_by_least_index(d, n, k) for k in range(12)]
                assert alpha_row(d, n, 11) == expected

    def test_normalized_limit(self):
        d, k = 2, 3
        value = alpha_row(d, 40, k)[k] / Fraction(d) ** 40
        assert abs(float(value) - 1 / (d - 1) ** k) < 1e-9


def ordered_partition_moment(blocks, m):
    """Trace moment of an ordered set partition: the cyclic-monotone moment of
    the word that labels each element with its block's position, every block
    an independent copy of m."""
    label = {x: pos for pos, block in enumerate(blocks, start=1) for x in block}
    letters = _merge_runs((label[x], 1) for x in sorted(label))
    word = MixedWord(tuple(map(tuple, letters)))
    return eval_cyclic_monotone_word(word, [m] * len(blocks))


class TestOmegaOfOrderedPartition:
    def test_single_block(self):
        assert ordered_partition_moment([(1, 2, 3, 4)], K2) == 2

    def test_three_letter_example(self):
        blocks = [(1, 3), (2,)]
        m = MomentData([p + 3 for p in range(6)], [10 * p + 7 for p in range(6)])
        # peel {2}: one arc of size 1, then the remaining pair is one circle
        assert ordered_partition_moment(blocks, m) == m.phi[0] * m.omega[1]
        assert ordered_partition_moment(blocks, K2) == 0

    def test_six_letter_example(self):
        blocks = [(3,), (2, 4, 6), (1, 5)]
        m = MomentData([p + 3 for p in range(8)], [10 * p + 7 for p in range(8)])
        expected = m.phi[0] ** 2 * m.phi[2] * m.omega[0]
        assert ordered_partition_moment(blocks, m) == expected

    def test_moment_sums_match_enumeration(self):
        # every order of the blocks of every set partition of [k]
        rng = random.Random(3)
        for _ in range(6):
            psi = [F(rng.randint(-3, 3)) for _ in range(8)]
            tr = [F(rng.randint(-3, 3)) for _ in range(8)]
            m = MomentData(psi, tr)
            sums = ordered_partition_moment_sums(6, m)
            for k in range(1, 7):
                brute = [F(0)] * (k + 1)
                for sp in enumerate_partitions(k, "SP"):
                    for blocks in itertools.permutations(sp.blocks):
                        brute[len(blocks)] += ordered_partition_moment(blocks, m)
                assert sums[k][1:] == brute[1:]


class TestFiniteNMoments:
    def test_first_moment(self):
        psi = [F(p + 2) for p in range(8)]
        tr = [F(3 * p + 1) for p in range(8)]
        sums = ordered_partition_moment_sums(1, MomentData(psi, tr))
        for d in (2, 3):
            for n in range(0, 7):
                alphas = alpha_row(d, n, 1)
                assert finite_n_comb_moment(alphas, sums[1]) == alphas[1] * tr[0]

    def test_second_moment_closed_form(self):
        psi = [F(p + 2) for p in range(8)]
        tr = [F(3 * p + 1) for p in range(8)]
        sums = ordered_partition_moment_sums(2, MomentData(psi, tr))
        for d in (2, 3, 4):
            for n in range(1, 8):
                nd = F(d**n - 1, d - 1)
                expected = F(2, d - 1) * (nd - n) * tr[0] * psi[0] + nd * tr[1]
                assert finite_n_comb_moment(alpha_row(d, n, 2), sums[2]) == expected

    def test_third_moment_closed_form(self):
        psi = [F(p + 2) for p in range(8)]
        tr = [F(3 * p + 1) for p in range(8)]
        sums = ordered_partition_moment_sums(3, MomentData(psi, tr))
        for d in (2, 3):
            for n in range(1, 8):
                nd = F(d**n - 1, d - 1)
                x = F(1, d - 1)
                expected = (
                    6 * ((nd - n) * x * x - F(n * (n - 1), 2) * x) * tr[0] * psi[0] ** 2
                    + 3 * x * (nd - n) * (tr[1] * psi[0] + tr[0] * psi[1])
                    + nd * tr[2]
                )
                assert finite_n_comb_moment(alpha_row(d, n, 3), sums[3]) == expected

    def test_matches_tensor_model_d2(self):
        a = np.array([[0, 1], [1, 0]], dtype=object)
        sums = ordered_partition_moment_sums(6, K2)
        for n in range(1, 9):
            model = OperatorModel((2,) * n)
            big = sum(model.monotone_embed(i, a) for i in range(n))
            traces = matrix_power_moments(big, 6).omega
            alphas = alpha_row(2, n, 6)
            for k in range(1, 7):
                assert finite_n_comb_moment(alphas, sums[k]) == traces[k - 1]

    def test_matches_tensor_model_d3(self):
        rng = random.Random(8)
        mat = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
        a = np.array(mat, dtype=object)
        sums = ordered_partition_moment_sums(6, matrix_power_moments(a, 8))
        for n in range(1, 6):
            model = OperatorModel((3,) * n)
            big = sum(model.monotone_embed(i, a) for i in range(n))
            traces = matrix_power_moments(big, 6).omega
            alphas = alpha_row(3, n, 6)
            for k in range(1, 7):
                assert finite_n_comb_moment(alphas, sums[k]) == traces[k - 1]

    def test_matches_the_comb_fold(self):
        # row k resummed against coefficient k + 1 of the n-fold comb's rc
        rng = random.Random(13)
        for _ in range(20):
            g = random_rooted_graph(rng, 4)
            sums = ordered_partition_moment_sums(6, matrix_power_moments(root_first_adjacency(g), 6))
            sd = spectral_data([g])[0]
            for n in range(1, 4):
                series = laurent_at_infinity(nfold_comb_transforms(sd, n), 7)
                alphas = alpha_row(g.n, n, 6)
                for k in range(1, 7):
                    assert finite_n_comb_moment(alphas, sums[k]) == series[k + 1]

    def test_scaled_convergence(self):
        sums = ordered_partition_moment_sums(6, K2)
        for d in (2, 3):
            for k in range(1, 7):
                limit = comb_limit_moment(d, sums[k])
                if limit == 0:
                    continue
                n = 30
                scaled = finite_n_comb_moment(alpha_row(d, n, k), sums[k]) / F(d) ** n
                assert abs(scaled - limit) <= abs(limit) * F(1, 100)


class TestBetaTable:
    def test_published_values(self):
        table = beta_table(7)
        assert table.values == (1, 2, 10, 80, 874, 12092, 202384, 3973580)

    def test_gamma_first_column(self):
        table = beta_table(10)
        for n in range(1, 11):
            assert table.gamma[n][0] == 2

    def test_routes_agree_to_50(self):
        table = beta_table(50)
        for n in range(1, 51):
            assert sum(table.gamma[n]) == table.values[n]

    def test_comb_limit_matches_beta(self):
        table = beta_table(7)
        sums = ordered_partition_moment_sums(14, K2)
        for n in range(1, 8):
            assert comb_limit_moment(2, sums[2 * n]) == table.values[n]
        for k in (1, 3, 5, 7):
            assert comb_limit_moment(2, sums[k]) == 0

    def test_gamma_matches_block_count_sums(self):
        table = beta_table(5)
        sums = ordered_partition_moment_sums(10, K2)
        for n in range(1, 6):
            assert tuple(sums[2 * n][1 : n + 1]) == table.gamma[n]
            assert all(v == 0 for v in sums[2 * n][n + 1 :])

    def test_carleman(self):
        ok, partial = carleman_check(50)
        assert ok
        assert partial == sorted(partial)
        assert partial[-1] > partial[0]

    def test_carleman_at_cap(self):
        # beta_n overflows a float from n = 142 on; the sums must not
        ok, partial = carleman_check(BETA_CAP)
        assert ok
        assert len(partial) == BETA_CAP == 200
        assert all(a < b for a, b in zip(partial, partial[1:]))

    def test_matches_per_term_weights_to_60(self):
        # the two recursions as first written, each weight a fresh math.comb
        def weight(n, el):
            return math.comb(n + el, n - el) * 2 * n // (n + el)

        beta = [1]
        for n in range(1, 61):
            beta.append(sum(weight(n, el) * beta[el] for el in range(n)))
        table = {}
        for n in range(1, 61):
            table[(n, 1)] = 2
            for k in range(2, n + 1):
                table[(n, k)] = sum(
                    weight(n, el) * table[(el, k - 1)] for el in range(k - 1, n)
                )
        got = beta_table(60)
        assert got.values == tuple(beta)
        for n in range(1, 61):
            assert got.gamma[n] == tuple(table[(n, k)] for k in range(1, n + 1))

    def test_routes_disagreeing_raise(self, monkeypatch):
        # the direct route alone weighs beta_0, so this corrupts only it
        exact = limits._beta_weights
        monkeypatch.setattr(
            limits, "_beta_weights",
            lambda n: [w + (n == 3 and el == 0) for el, w in enumerate(exact(n))],
        )
        with pytest.raises(AssertionError, match="routes disagree at n=3"):
            beta_table(5)
        assert beta_table(2).values == (1, 2, 10)

    @pytest.mark.parametrize("n, el", [(10, 5), (200, 199), (150, 0)])
    def test_wrong_weight_raises(self, monkeypatch, n, el):
        # the binomial weights are checked against L_2n, so no weight is free
        exact = limits._beta_weights
        monkeypatch.setattr(
            limits, "_beta_weights",
            lambda m: [w + (m == n and k == el) for k, w in enumerate(exact(m))],
        )
        with pytest.raises(AssertionError, match=f"routes disagree at n={n}"):
            beta_table(BETA_CAP)

    def test_weights_are_lucas_coefficients(self):
        # L_0 = 2, L_1 = x, L_(m+1) = x L_m + L_(m-1), lowest degree first
        lucas = [(2,), (0, 1)]
        while len(lucas) <= 2 * BETA_CAP:
            shifted = (0,) + lucas[-1]
            lower = lucas[-2] + (0,) * (len(shifted) - len(lucas[-2]))
            lucas.append(tuple(a + b for a, b in zip(shifted, lower)))
        for n in range(1, BETA_CAP + 1):
            assert lucas[2 * n][2 * n] == 1
            weights = limits._beta_weights(n)
            for el in range(n):
                assert lucas[2 * n][2 * el] == weights[el]
                assert lucas[2 * n][2 * el + 1] == 0

    def test_weights_match_the_binomial_closed_form(self):
        # each row is built by ratios; math.comb gives every weight on its own
        for n in range(1, BETA_CAP + 1):
            assert limits._beta_weights(n) == [
                math.comb(n + el, n - el) * 2 * n // (n + el) for el in range(n)
            ]

    def test_mutated_ratio_step_raises(self, monkeypatch):
        # a step whose product is off by one leaves a remainder; divmod is
        # read from the module's globals before the builtins
        monkeypatch.setattr(
            limits, "divmod", lambda a, b: divmod(a + 1, b), raising=False
        )
        with pytest.raises(AssertionError, match="non-integer recursion coefficient"):
            limits._beta_weights(10)
        with pytest.raises(AssertionError, match="non-integer recursion coefficient"):
            beta_table(5)

    def test_gamma_built_on_first_read(self):
        # test_matches_per_term_weights_to_60 checks the rows on a fresh table
        table = beta_table(60)
        assert "gamma" not in vars(table)
        assert table.gamma is table.gamma
        assert len(table.gamma) == 61 and table.gamma[60][0] == 2

    def test_gamma_sum_check_raises(self):
        # a table whose values do not resum from gamma fails on the read
        table = limits.BetaTable((1, 2, 11))
        with pytest.raises(AssertionError, match="routes disagree at n=2"):
            table.gamma

    def test_table_at_cap_pinned(self):
        # digests of the table and the Carleman sums when both recursions built it
        values = beta_table(BETA_CAP).values
        digest = hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()
        assert digest == (
            "38cc6ba5cd11015487e0a8dc5c87757276bb1d61bac4109809aa175525101ab1"
        )
        ok, partial = carleman_check(BETA_CAP)
        hexes = "\n".join(x.hex() for x in partial)
        assert ok and hashlib.sha256(hexes.encode()).hexdigest() == (
            "e4b634f02bfd707c9d9ebdfd7465332555c422ffe6c5d66490c53a80f2492b8d"
        )

    def test_bounds_small_cases(self):
        table = beta_table(7)
        assert table.values[1] == 2 <= 11**2
        assert table.values[7] == 3973580 <= 77**14


class TestIDClassifier:
    def test_k2_divisible(self):
        spectrum = ((-1.0, 1), (1.0, 1))
        verdict = cb_id_classify(spectrum, [0.5, 0.5])
        assert verdict.divisible and verdict.case == "two_nonzero"

    def test_same_sign_rejected(self):
        spectrum = ((2.0, 1), (3.0, 1))
        verdict = cb_id_classify(spectrum, [F(-2, 1) / (3 - 2) * 0 + F(1, 2), F(1, 2)])
        assert not verdict.divisible

    def test_zero_operator(self):
        spectrum = ((0.0, 3),)
        verdict = cb_id_classify(spectrum, [1.0])
        assert verdict.divisible and verdict.case == "zero"

    def test_one_nonzero(self):
        spectrum = ((0.0, 2), (5.0, 1))
        assert cb_id_classify(spectrum, [0.0, 1.0]).divisible
        assert not cb_id_classify(spectrum, [0.5, 0.5]).divisible

    def test_wrong_weights_rejected(self):
        spectrum = ((-1.0, 1), (2.0, 1))
        good = cb_id_classify(spectrum, [F(1, 3), F(2, 3)])
        bad = cb_id_classify(spectrum, [0.5, 0.5])
        assert good.divisible and not bad.divisible

    def test_multiplicity_rejected(self):
        spectrum = ((-1.0, 2), (1.0, 1))
        verdict = cb_id_classify(spectrum, [F(2, 3), F(1, 3)])
        assert not verdict.divisible

    def test_weight_validation(self):
        spectrum = ((-1.0, 1), (1.0, 1))
        with pytest.raises(ValueError):
            cb_id_classify(spectrum, [0.9, 0.9])

    def test_decided_exactly(self):
        # a tiny eigenvalue is not zero, and weights a hair off the line or
        # off a total of one are rejected
        spectrum = ((-1, 1), (F(1, 10**10), 1), (1, 1))
        verdict = cb_id_classify(spectrum, [F(1, 2), 0, F(1, 2)])
        assert not verdict.divisible
        assert verdict.reason == "more than two non-zero eigenvalues"
        pair = ((-1, 1), (2, 1))
        eps = F(1, 10**12)
        assert not cb_id_classify(pair, [F(1, 3) + eps, F(2, 3) - eps]).divisible
        with pytest.raises(ValueError):
            cb_id_classify(pair, [F(1, 3), F(2, 3) + eps])


class TestNthRoot:
    def test_same_sign_rejected(self):
        for alpha, beta in ((1, 2), (-1, -2), (0, 3), (-2, 0)):
            with pytest.raises(ValueError, match="opposite signs"):
                nth_root_round_trip(alpha, beta, 3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_fold_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            nth_root_round_trip(-1, 2, n)

    def test_round_trips_exact(self):
        rng = random.Random(31)
        pairs = []
        while len(pairs) < 10:
            a = F(rng.randint(-8, -1), rng.randint(1, 4))
            b = F(rng.randint(1, 8), rng.randint(1, 4))
            pairs.append((a, b))
        for a, b in pairs:
            for n in range(1, 7):
                assert nth_root_round_trip(a, b, n)

    def test_root_transforms_expand_to_moments(self):
        # the exact transform pair carries the root's power sums, which obey
        # p_k = s p_{k-1} - q p_{k-2} for the eigenvalue sum s and product q
        s, q = F(-1 + 2, 3), F(-1 * 2, 3)  # the cube root of (-1, 2)
        pair = transform_pair(two_point_element(s, q))
        series = laurent_at_infinity(pair.rc, 7)
        p = [F(2), s]
        for _ in range(2, 7):
            p.append(s * p[-1] - q * p[-2])
        for k in range(1, 7):
            assert series[k + 1] == p[k]

    def test_two_point_transforms_closed_form(self):
        # rc = (s z - 2q) / (z (z^2 - s z + q)) and G = z / (z^2 - s z + q)
        z = Polynomial.x()
        for s in (F(0), F(1), F(-3, 2), F(5, 7), F(-8)):
            for q in (F(-1), F(-1, 3), F(-9, 4), F(-12)):
                quad = Polynomial((q, -s, 1))
                pair = transform_pair(two_point_element(s, q))
                assert pair.rc == RationalFunction(Polynomial((-2 * q, s)), z * quad)
                assert pair.green == RationalFunction(z, quad)
