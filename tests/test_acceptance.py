"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from cyclic_spectra.convolutions import (
    comb_trace_check,
    h_additivity_check,
    nfold_star_transforms,
    schwenk_comb_check,
    schwenk_star_check,
    star_cauchy_identity_check,
)
from cyclic_spectra.cumulants import (
    cyclic_boolean_cumulants,
    moment_cumulant_check,
    partition_cumulant,
)
from cyclic_spectra.graphs import (
    adjacency,
    comb_product,
    complete,
    path,
    star_product,
)
from cyclic_spectra.limits import (
    alpha_row,
    beta_table,
    carleman_check,
    cb_id_classify,
    comb_limit_moment,
    finite_n_comb_moment,
    nth_root_round_trip,
    ordered_partition_moment_sums,
    spectral_gap_report,
)
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
from cyclic_spectra.partitions import (
    enumerate_partitions,
    is_cyclic_interval,
)
from cyclic_spectra.transforms import (
    SpectrumReport,
    extract_spectrum,
    laurent_at_infinity,
    renormalized_cauchy,
    spectral_data,
)
from cyclic_spectra.verify import random_rooted_graph, random_symmetric_int_matrix
from kronecker import kron_word_moments

F = Fraction

EIG_TOL = 1e-9

K2_PSI = [F(0) if k % 2 else F(1) for k in range(1, 21)]
K2 = MomentData(K2_PSI, [2 * x for x in K2_PSI])


def merge_expected(entries):
    """Collapse duplicate expected eigenvalues, dropping zero multiplicities."""
    out = {}
    for value, mult in entries:
        if mult > 0:
            key = min((k for k in out if abs(k - value) < EIG_TOL), default=value)
            out[key] = out.get(key, 0) + mult
    return sorted(out.items())


def assert_spectrum_matches(report: SpectrumReport, expected) -> None:
    expected = merge_expected(expected)
    assert [m for _, m in report.entries] == [m for _, m in expected]
    for (got, _), (want, _) in zip(report.entries, expected):
        assert abs(got - want) <= EIG_TOL


def test_criterion_01_star_spectra():
    sd = spectral_data([complete(2)])[0]
    worst = 0.0
    for n in (2, 4, 9, 16, 25, 64):
        t0 = time.perf_counter()
        pair = nfold_star_transforms(sd, n)
        report = extract_spectrum(pair.rc, n + 1)
        elapsed = time.perf_counter() - t0
        root = math.sqrt(n)
        assert_spectrum_matches(report, [(-root, 1), (0.0, n - 1), (root, 1)])
        assert elapsed < 1.0
        worst = max(worst, elapsed)
    print(f"\nACCEPTANCE 1 PASS - star spectra exact for N in 2..64, "
          f"worst runtime {worst:.3f}s")


def test_criterion_02_friendship_spectra():
    sd = spectral_data([complete(3)])[0]
    worst = 0.0
    for n in range(1, 51):
        t0 = time.perf_counter()
        pair = nfold_star_transforms(sd, n)
        report = extract_spectrum(pair.rc, 2 * n + 1)
        elapsed = time.perf_counter() - t0
        s = math.sqrt(1 + 8 * n)
        expected = [((1 - s) / 2, 1), (-1.0, n), (1.0, n - 1), ((1 + s) / 2, 1)]
        assert_spectrum_matches(report, expected)
        assert elapsed < 1.0
        worst = max(worst, elapsed)
    print(f"\nACCEPTANCE 2 PASS - friendship spectra exact for N in 1..50, "
          f"worst runtime {worst:.3f}s")


def test_criterion_03_symbolic_identity_suite():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    star_checks = (h_additivity_check, schwenk_star_check, star_cauchy_identity_check)
    comb_checks = (schwenk_comb_check, comb_trace_check)
    for trial in range(100):
        g1 = random_rooted_graph(rng, 8)
        g2 = random_rooted_graph(rng, 8)
        sd1, sd2 = spectral_data([g1, g2])
        product_sd = spectral_data([star_product(g1, g2)])[0]
        for check in star_checks:
            outcome = check(sd1, sd2, product_sd)
            assert outcome, f"trial {trial}: {outcome.name}: {outcome.detail}"
        h1 = random_rooted_graph(rng, 5)
        h2 = random_rooted_graph(rng, 4)
        sdh1, sdh2 = spectral_data([h1, h2])
        comb_sd = spectral_data([comb_product(h1, h2)])[0]
        for check in comb_checks:
            outcome = check(sdh1, sdh2, comb_sd)
            assert outcome, f"trial {trial}: {outcome.name}: {outcome.detail}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS - 5 identities x 100 random pairs, exact, "
          f"{elapsed:.1f}s")


def test_criterion_04_oracle_equivalence():
    from cyclic_spectra.graphs import nfold_star

    corpus = []
    sd2, sd3 = spectral_data([complete(2), complete(3)])
    for n in (2, 4, 9, 16, 25, 64, 199):
        pair = nfold_star_transforms(sd2, n)
        corpus.append((pair.rc, n + 1, nfold_star(complete(2), n)))
    for n in (1, 5, 10, 20, 35, 50):
        pair = nfold_star_transforms(sd3, n)
        corpus.append((pair.rc, 2 * n + 1, nfold_star(complete(3), n)))
    for n in range(2, 11):
        g = path(n)
        corpus.append((renormalized_cauchy(spectral_data([g])[0]), n, g))
    rng = random.Random(77)
    for _ in range(20):
        g = random_rooted_graph(rng, 10)
        corpus.append((renormalized_cauchy(spectral_data([g])[0]), g.n, g))
    largest = 0
    for rc, dim, graph in corpus:
        assert dim <= 200
        largest = max(largest, dim)
        pipeline = extract_spectrum(rc, dim)
        oracle = eigensolve(adjacency(graph.graph).astype(float))
        assert [m for _, m in pipeline.entries] == [m for _, m in oracle]
        for (a, _), (b, _) in zip(pipeline.entries, oracle):
            assert abs(a - b) <= EIG_TOL
    print(f"\nACCEPTANCE 4 PASS - pipeline matches eigensolver on "
          f"{len(corpus)} graphs up to {largest} vertices")


def test_criterion_05_partition_counts():
    for n in range(1, 17):
        ci = enumerate_partitions(n, "CI")
        assert len(ci) == 2**n - n
        assert len(set(ci)) == 2**n - n
        ints = enumerate_partitions(n, "Int")
        assert len(ints) == 2 ** (n - 1)
        assert len(set(ints)) == 2 ** (n - 1)
    print("\nACCEPTANCE 5 PASS - |CI(n)| = 2^n - n and |Int(n)| = 2^(n-1) "
          "for n <= 16, enumerations duplicate-free")


def test_criterion_06_cumulant_suite():
    rng = random.Random(606)
    models = []
    for _ in range(20):
        dim = rng.randint(2, 3)
        mat = random_symmetric_int_matrix(rng, dim)
        models.append(matrix_power_moments(mat, 8))
    # vanishing outside cyclic intervals, n <= 6, all partitions, 20 models
    non_ci = {
        n: [p for p in enumerate_partitions(n, "SP") if not is_cyclic_interval(p)]
        for n in range(2, 7)
    }
    for data in models:
        for n, parts in non_ci.items():
            for pi in parts:
                assert partition_cumulant(data, pi) == 0
    # moment-cumulant resummation up to n = 8, one check per n over 6 models
    for n in range(1, 9):
        outcomes = moment_cumulant_check(models[:6], n)
        assert len(outcomes) == 6 and all(outcomes)
    # additivity of the trace-side cumulants under independent sums
    for _ in range(20):
        dims = (rng.randint(2, 3), rng.randint(2, 3))
        model = OperatorModel(dims)
        mats = [np.array(random_symmetric_int_matrix(rng, d), dtype=object) for d in dims]
        big = model.boolean_embed(0, mats[0]) + model.boolean_embed(1, mats[1])
        order = 8
        cs_sum = cyclic_boolean_cumulants(matrix_power_moments(big, order))
        cs_parts = [cyclic_boolean_cumulants(matrix_power_moments(mat, order)) for mat in mats]
        for n in range(order):
            assert cs_sum[n] == cs_parts[0][n] + cs_parts[1][n]
    print("\nACCEPTANCE 6 PASS - cumulant vanishing (n<=6, 20 models), "
          "moment resummation (n<=8), additivity (n<=8) all exact")


def _alternating_index_tuples(length, algebras):
    tuples = [(i,) for i in range(1, algebras + 1)]
    for _ in range(length - 1):
        tuples = [t + (i,) for t in tuples for i in range(1, algebras + 1) if i != t[-1]]
    return tuples


def test_criterion_07_mixed_word_oracle():
    # exhaustive pass: every alternating word of length <= 6 over 3 algebras
    rng = random.Random(707)
    dims = (2, 2, 2)
    model = OperatorModel(dims)
    mats = [np.array(random_symmetric_int_matrix(rng, d, 2), dtype=object) for d in dims]
    tables = [matrix_power_moments(a, 12) for a in mats]
    checked = 0
    for kind, evaluator in (
        ("boolean", eval_cyclic_boolean_word),
        ("monotone", eval_cyclic_monotone_word),
    ):
        embedded = model_tables(model, tables, kind)
        for length in range(1, 7):
            for indices in _alternating_index_tuples(length, 3):
                word = MixedWord(tuple((i, 1) for i in indices))
                ops = [(idx - 1, mats[idx - 1]) for idx in indices]
                trace, vacuum = kron_word_moments(model, ops, kind)
                assert evaluator(word, embedded, "omega") == trace
                assert evaluator(word, embedded, "phi") == vacuum
                checked += 1
    # 200 seeded randomized trials with random models and per-letter powers
    from cyclic_spectra.verify import run_suite

    result = run_suite("mixed-words", trials=200, seed=707)
    assert result.failed == 0
    print(f"\nACCEPTANCE 7 PASS - {checked} exhaustive words + 200 random "
          "trials match tensor traces exactly")


def test_criterion_08_beta_table():
    t0 = time.perf_counter()
    table = beta_table(50)  # raises internally if the two routes disagree
    assert table.values[1:8] == (2, 10, 80, 874, 12092, 202384, 3973580)
    for n in range(1, 51):
        assert sum(table.gamma[n]) == table.values[n]
        assert table.values[n] <= (11 * n) ** (2 * n)
    ok, partial = carleman_check(50)
    assert ok and partial == sorted(partial)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 8 PASS - beta values, dual recursion to n=50, "
          f"Carleman bound, {elapsed:.2f}s")


def test_criterion_09_comb_limit_moments():
    # one triangle of ordered-partition sums serves every check below
    sums = ordered_partition_moment_sums(14, K2)
    # exact agreement with the tensor model, d = 2, N <= 8, k <= 6
    a = np.array([[0, 1], [1, 0]], dtype=object)
    for n in range(1, 9):
        model = OperatorModel((2,) * n)
        big = sum(model.monotone_embed(i, a) for i in range(n))
        power = None
        alphas = alpha_row(2, n, 6)
        for k in range(1, 7):
            power = big if power is None else power.dot(big)
            assert finite_n_comb_moment(alphas, sums[k]) == power.trace()
    # even limits reproduce the integer moment table
    table = beta_table(7)
    for n in range(1, 8):
        assert comb_limit_moment(2, sums[2 * n]) == table.values[n]
    # scaled finite-N values within 1% of the limit at N = 30
    alphas = alpha_row(2, 30, 10)
    for k in range(1, 11):
        limit = comb_limit_moment(2, sums[k])
        scaled = finite_n_comb_moment(alphas, sums[k]) / F(2) ** 30
        if limit == 0:
            assert scaled == 0
        else:
            assert abs(scaled - limit) <= abs(limit) * F(1, 100)
    print("\nACCEPTANCE 9 PASS - comb moments match tensor traces (N<=8), "
          "even limits equal the integer table, 1% convergence at N=30")


def test_criterion_10_clt_behavior():
    sd = spectral_data([complete(3)])[0]
    # pipeline trace moments equal the closed-form friendship power sums
    for n in (1, 2, 5, 20, 100, 400):
        series = laurent_at_infinity(nfold_star_transforms(sd, n).rc, 9)
        p = [2, 1]
        for _ in range(2, 9):
            p.append(p[-1] + 2 * n * p[-2])
        for k in range(1, 9):
            assert series[k + 1] == p[k] + n * (-1) ** k + (n - 1)
    # fourth-moment convergence at rate 5/N through N = 400
    for n in range(1, 401):
        w4 = laurent_at_infinity(nfold_star_transforms(sd, n).rc, 5)[5]
        assert abs(w4 / (2 * n) ** 2 - 2) <= F(5, n)
    # spectral gap: bulk bounded by 2/sqrt(2N)
    rows = spectral_gap_report(sd, 2, 64)
    for row in rows:
        assert row.bulk_max <= 2 / math.sqrt(2 * row.n) + 1e-12
        if row.n >= 3:
            assert row.largest_mult == 1 and row.smallest_mult == 1
    print("\nACCEPTANCE 10 PASS - pipeline matches closed forms to N=400, "
          "|w4(s_N)-2| <= 5/N, bulk <= 2/sqrt(2N)")


def test_criterion_11_id_classifier():
    # the 2x2 exchange matrix with the first coordinate state is divisible
    verdict = cb_id_classify(((-1.0, 1), (1.0, 1)), [0.5, 0.5])
    assert verdict.divisible and verdict.case == "two_nonzero"
    # equal-sign two-point spectra are rejected
    for (a, b) in ((2.0, 3.0), (-4.0, -1.0)):
        weights = [-a / (b - a), b / (b - a)]
        if min(weights) < 0:
            weights = [0.5, 0.5]
        spectrum = ((min(a, b), 1), (max(a, b), 1))
        assert not cb_id_classify(spectrum, weights).divisible
    # symbolic n-th root round trips, 10 rational pairs, n <= 6
    rng = random.Random(1111)
    pairs = []
    while len(pairs) < 10:
        alpha = F(-rng.randint(1, 9), rng.randint(1, 5))
        beta = F(rng.randint(1, 9), rng.randint(1, 5))
        if (alpha, beta) not in pairs:
            pairs.append((alpha, beta))
    for alpha, beta in pairs:
        for n in range(1, 7):
            assert nth_root_round_trip(alpha, beta, n)
    print("\nACCEPTANCE 11 PASS - divisibility trichotomy enforced, "
          "10 rational root round trips exact for n <= 6")
