"""Convolution identities against the exact graph oracle."""

import random
from functools import reduce

import pytest

from cyclic_spectra import convolutions, exact
from cyclic_spectra.convolutions import (
    comb_char_poly,
    comb_trace_check,
    cyclic_boolean_sum,
    cyclic_monotone_sum,
    h_additivity_check,
    nfold_comb_transforms,
    nfold_star_transforms,
    schwenk_comb_check,
    schwenk_star_check,
    star_cauchy_identity_check,
    star_char_poly,
    star_power_spectra,
    transform_pair,
)
from cyclic_spectra.exact import Polynomial, RationalFunction
from cyclic_spectra.graphs import (
    Graph,
    RootedGraph,
    comb_product,
    complete,
    friendship,
    nfold_comb,
    path,
    star,
    star_product,
)
from cyclic_spectra.transforms import (
    RootedSpectralData,
    SpectrumReport,
    extract_spectrum,
    green,
    renormalized_cauchy,
    spectral_data,
)
from cyclic_spectra.verify import random_rooted_graph


def poly(*coeffs):
    return Polynomial(coeffs)


def sd_k2():
    return spectral_data([complete(2)])[0]


def sd_vertex():
    return spectral_data([RootedGraph(Graph(1), 0)])[0]


class TestBooleanFSum:
    # F of a cyclic-Boolean sum is F1 + F2 - z
    def test_two_edges(self):
        # z - 2/z = (z^2 - 2)/z
        f = cyclic_boolean_sum([(sd_k2(), 1), (sd_k2(), 1)]).green.reciprocal()
        assert f == RationalFunction(poly(-2, 0, 1), poly(0, 1))

    def test_neutral_element(self):
        total = cyclic_boolean_sum([(sd_k2(), 1), (sd_vertex(), 1)])
        assert total.green.reciprocal() == green(sd_k2()).reciprocal()

    def test_nfold_closed_form(self):
        # left fold; each partial sum's data is its star power's, by Schwenk
        sd = sd_k2()
        partial, iterated = sd, transform_pair(sd)
        for n in range(1, 17):
            closed = RationalFunction(poly(-n, 0, 1), poly(0, 1))  # z - n/z
            assert iterated.green.reciprocal() == closed
            assert nfold_star_transforms(sd_k2(), n).green == closed.reciprocal()
            iterated = cyclic_boolean_sum([(partial, 1), (sd, 1)])
            partial = star_char_poly(partial, sd)
            assert transform_pair(partial) == iterated


class TestCyclicBooleanSum:
    def test_k2_pair_gives_star2(self):
        total = cyclic_boolean_sum([(sd_k2(), 1), (sd_k2(), 1)])
        # 4 / (z (z^2 - 2))
        assert total.rc == RationalFunction(poly(4), poly(0, -2, 0, 1))

    def test_neutral(self):
        pair = transform_pair(sd_k2())
        total = cyclic_boolean_sum([(sd_k2(), 1), (sd_vertex(), 1)])
        assert total.rc == pair.rc
        assert total.green == pair.green

    def test_friendship_from_k3(self):
        for n in (1, 2, 3, 7):
            total = nfold_star_transforms(spectral_data([complete(3)])[0], n)
            direct = spectral_data([friendship(n)])[0]
            assert total.rc == renormalized_cauchy(direct)
            assert total.green == green(direct)

    def test_left_fold_matches_closed_form(self):
        for base in (complete(2), complete(3)):
            sd = spectral_data([base])[0]
            partial = sd
            for n in range(2, 9):
                acc = cyclic_boolean_sum([(partial, 1), (sd, 1)])
                partial = star_char_poly(partial, sd)
                assert transform_pair(partial) == acc
                closed = nfold_star_transforms(sd, n)
                assert acc.rc == closed.rc
                assert acc.green == closed.green

    def test_nfold_matches_one_copy_terms(self):
        for base in (complete(2), complete(3), star(3), friendship(2)):
            sd = spectral_data([base])[0]
            for n in [1, 2, 3, 5, 8, 2]:
                assert nfold_star_transforms(sd, n) == cyclic_boolean_sum([(sd, 1)] * n)

    def test_mixed_terms_match_star_product(self):
        # copies above 1 over distinct elements: K2 twice, K3 once, P3 three times
        bases = [(complete(2), 2), (complete(3), 1), (path(3), 3)]
        sds = spectral_data([g for g, _ in bases])
        product = reduce(star_product, [g for g, n in bases for _ in range(n)])
        total = cyclic_boolean_sum([(sd, n) for sd, (_, n) in zip(sds, bases)])
        assert total == transform_pair(spectral_data([product])[0])

    def test_mixed_terms_match_star_product_on_corpus(self):
        rng = random.Random(7)
        for _ in range(30):
            graphs = [random_rooted_graph(rng, 5) for _ in range(rng.randint(1, 3))]
            copies = [rng.randint(1, 3) for _ in graphs]
            product = reduce(star_product, [g for g, n in zip(graphs, copies) for _ in range(n)])
            total = cyclic_boolean_sum(list(zip(spectral_data(graphs), copies)))
            assert total == transform_pair(spectral_data([product])[0])

    def test_reject_fold_below_one(self):
        # every count must be >= 1, and an empty sum has none
        for ns in ([0], [2, -1], range(0, 3)):
            with pytest.raises(ValueError, match="fold count"):
                cyclic_boolean_sum([(sd_k2(), n) for n in ns])
            with pytest.raises(ValueError, match="fold count"):
                nfold_star_transforms(sd_k2(), min(ns))
        with pytest.raises(ValueError, match="fold count"):
            cyclic_boolean_sum([])

    def test_matches_star_product_on_corpus(self):
        rng = random.Random(42)
        for _ in range(60):
            g1 = random_rooted_graph(rng, 8)
            g2 = random_rooted_graph(rng, 8)
            sd1, sd2 = spectral_data([g1, g2])
            total = cyclic_boolean_sum([(sd1, 1), (sd2, 1)])
            product_sd = spectral_data([star_product(g1, g2)])[0]
            assert total.rc == renormalized_cauchy(product_sd)
            assert total.green == green(product_sd)


def folded_spectrum(sd: RootedSpectralData, n: int) -> SpectrumReport:
    """The reference route: fold the transforms n times, then read the
    spectrum off the trace resolvent's poles and residues."""
    return extract_spectrum(nfold_star_transforms(sd, n).rc, n * (sd.dim - 1) + 1)


class TestStarPowerSpectra:
    # every star base of the README and the benchmark, and the special cases:
    # star:3 has psi = z^3; complete:3 has g = z + 1, whose root -1 is also a
    # zero of S_1; the path rooted at its middle and the two components below
    # the root have a disconnected G - r; a lone vertex has psi = 1, and a
    # root of degree 0 has g = psi
    BASES = {
        "complete:2": complete(2),
        "complete:3": complete(3),
        "complete:5": complete(5),
        "star:3": star(3),
        "friendship:2": friendship(2),
        "friendship:3": friendship(3),
        "path:4": path(4),
        "path:3 rooted at its middle": RootedGraph(path(3).graph, 1),
        "lone vertex": RootedGraph(Graph(1), 0),
        "root of degree 0": RootedGraph(Graph(4, [(1, 2), (2, 3)]), 0),
        "two components below the root": RootedGraph(
            Graph(6, [(0, 1), (0, 3), (1, 2), (3, 4), (4, 5), (3, 5)]), 0
        ),
    }

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_matches_the_fold_on_named_bases(self, name):
        [sd] = spectral_data([self.BASES[name]])
        ns = range(1, 65)
        for n, report in zip(ns, star_power_spectra(sd, ns)):
            assert report == folded_spectrum(sd, n), n

    def test_matches_the_fold_on_random_bases(self):
        rng = random.Random(2929)
        bases = [random_rooted_graph(rng, rng.randint(2, 10)) for _ in range(240)]
        ns = (1, 2, 3, 7)
        for g, sd in zip(bases, spectral_data(bases)):
            for n, report in zip(ns, star_power_spectra(sd, ns)):
                assert report == folded_spectrum(sd, n), (g, n)

    def test_special_cases(self):
        names = ("star:3", "complete:3", "lone vertex")
        spectra = {
            name: list(star_power_spectra(sd, (1, 2, 5)))
            for name, sd in zip(names, spectral_data([self.BASES[name] for name in names]))
        }
        # psi = z^3 has the root 0 of multiplicity 3, two of it in g = z^2
        # and one in Q = z: multiplicity 2n + (n - 1) = 3n - 1
        assert [dict(r.entries)[0.0] for r in spectra["star:3"]] == [2, 5, 14]
        # -1 is a root of g = z + 1 and of S_1 = (z - 2)(z + 1): n + [n = 1]
        assert [dict(r.entries)[-1.0] for r in spectra["complete:3"]] == [2, 2, 5]
        assert [r.entries for r in spectra["lone vertex"]] == [((0.0, 1),)] * 3

    def test_rejects_fold_below_one(self, monkeypatch):
        # before any per-element work
        def refuse(*args):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr(convolutions, "poly_gcd", refuse)
        for ns in ([0], [2, -1]):
            with pytest.raises(ValueError, match="fold count"):
                list(star_power_spectra(sd_k2(), ns))

    @pytest.mark.parametrize("phi, psi, message", [
        # S_1 = P = z^2 + 1
        ((1, 0, 1), (0, 1), "S_1 has 0 real roots, not 2"),
        # g = z^2 + 1 has no real root to carry its multiplicity
        ((0, 1, 0, 1), (1, 0, 1), "multiplicities do not sum to dim"),
    ])
    def test_rejects_an_element_that_is_no_graph(self, phi, psi, message):
        sd = RootedSpectralData(Polynomial(phi), Polynomial(psi), len(phi) - 1)
        with pytest.raises(ArithmeticError, match=message):
            list(star_power_spectra(sd, [1]))


class TestStarCharPoly:
    def test_k2_pair(self):
        out = star_char_poly(sd_k2(), sd_k2())
        assert out.phi == poly(0, -2, 0, 1)
        assert out.phi_minus_root == poly(0, 0, 1)

    def test_neutral(self):
        out = star_char_poly(sd_k2(), sd_vertex())
        assert out.phi == sd_k2().phi

    def test_friendship_2(self):
        sd3 = spectral_data([complete(3)])[0]
        out = star_char_poly(sd3, sd3)
        expected = poly(-1, 1) * poly(1, 1) ** 2 * poly(-4, -1, 1)
        assert out.phi == expected
        assert out.phi == spectral_data([friendship(2)])[0].phi


class TestMonotoneCompose:
    def test_p4(self):
        f = green(sd_k2()).reciprocal()
        composed = f.compose(f)
        p4 = comb_product(complete(2), complete(2))
        assert composed == green(spectral_data([p4])[0]).reciprocal()

    def test_identity(self):
        f = green(sd_k2()).reciprocal()
        assert f.compose(RationalFunction.x()) == f

    def test_associativity(self):
        f = green(sd_k2()).reciprocal()
        lhs = f.compose(f).compose(f)
        rhs = f.compose(f.compose(f))
        assert lhs == rhs


class TestCombCharPoly:
    def test_p4(self):
        out = comb_char_poly(sd_k2(), sd_k2())
        assert out.phi == poly(1, 0, -3, 0, 1)
        assert out.dim == 4

    def test_neutral(self):
        out = comb_char_poly(sd_k2(), sd_vertex())
        assert out.phi == sd_k2().phi
        assert out.phi_minus_root == sd_k2().phi_minus_root

    def test_threefold(self):
        sd = sd_k2()
        predicted = comb_char_poly(sd_k2(), comb_char_poly(sd_k2(), sd_k2()))
        oracle = spectral_data([nfold_comb(complete(2), 3)])[0]
        assert predicted.phi == oracle.phi
        assert predicted.phi_minus_root == oracle.phi_minus_root

    def test_matches_oracle_on_corpus(self):
        rng = random.Random(43)
        for _ in range(40):
            g1 = random_rooted_graph(rng, 5)
            g2 = random_rooted_graph(rng, 4)
            predicted = comb_char_poly(*spectral_data([g1, g2]))
            oracle = spectral_data([comb_product(g1, g2)])[0]
            assert predicted.phi == oracle.phi
            assert predicted.phi_minus_root == oracle.phi_minus_root


def comb_step(sd_g: RootedSpectralData, sd_h: RootedSpectralData) -> RationalFunction:
    return cyclic_monotone_sum(renormalized_cauchy(sd_g), sd_g.dim, transform_pair(sd_h))


class TestCyclicMonotoneSum:
    def test_comb_trace_identity_p4(self):
        sd = sd_k2()
        p4_sd = spectral_data([comb_product(complete(2), complete(2))])[0]
        assert comb_step(sd, sd) == renormalized_cauchy(p4_sd)

    def test_inner_zero(self):
        outer = transform_pair(sd_k2())
        assert cyclic_monotone_sum(RationalFunction(poly()), 1, outer) == outer.rc

    def test_outer_trivial(self):
        # a comb with one-vertex teeth is the base graph
        inner = renormalized_cauchy(sd_k2())
        outer = transform_pair(sd_vertex())
        total = cyclic_monotone_sum(inner, 2, outer)
        assert total == inner

    def test_printed_first_term_is_a_misprint(self):
        # The first term of the trace identity must weight the attached
        # factor, not the base one; with distinct factors the wrong reading
        # fails while the corrected form matches the oracle exactly.
        sd_g = spectral_data([complete(3)])[0]
        sd_h = sd_k2()
        product = spectral_data([comb_product(complete(3), complete(2))])[0]
        f_h = green(sd_h).reciprocal()
        rc_g = renormalized_cauchy(sd_g)
        wrong = sd_g.dim * rc_g + f_h.derivative() * rc_g.compose(f_h)
        assert wrong != renormalized_cauchy(product)
        assert comb_step(sd_g, sd_h) == renormalized_cauchy(product)

    def test_matches_oracle_on_corpus(self):
        rng = random.Random(44)
        for _ in range(40):
            g1 = random_rooted_graph(rng, 5)
            g2 = random_rooted_graph(rng, 4)
            lhs = comb_step(*spectral_data([g1, g2]))
            rhs = renormalized_cauchy(spectral_data([comb_product(g1, g2)])[0])
            assert lhs == rhs


class TestIdentityCheckers:
    def test_star_cauchy_true(self):
        k2, k3 = complete(2), complete(3)
        assert star_cauchy_identity_check(
            sd_k2(), sd_k2(), spectral_data([star_product(k2, k2)])[0]
        )
        assert star_cauchy_identity_check(
            spectral_data([k3])[0], sd_k2(), spectral_data([star_product(k3, k2)])[0]
        )

    def test_star_cauchy_corrupted(self):
        # perturbing one root-deleted polynomial while keeping the true
        # product data must be caught, with a structured certificate
        good = sd_k2()
        bad = RootedSpectralData(good.phi, poly(1, 1), good.dim)
        product_sd = spectral_data([star_product(complete(2), complete(2))])[0]
        outcome = star_cauchy_identity_check(good, bad, product_sd)
        assert not outcome
        assert outcome.detail
        assert outcome.name == "star-cauchy"

    def test_passing_star_checks_take_no_gcd(self, monkeypatch):
        # each check needs one yes/no answer, which cross-multiplication
        # decides over Q[x]; no quotient is reduced on the way
        g1, g2 = complete(3), path(4)
        sds = spectral_data([g1, g2, star_product(g1, g2)])
        calls = []
        gcd = exact.poly_gcd

        def counted(p, q):
            calls.append((p, q))
            return gcd(p, q)

        monkeypatch.setattr(exact, "poly_gcd", counted)
        assert h_additivity_check(*sds)
        assert star_cauchy_identity_check(*sds)
        assert calls == []

    def test_h_additivity_on_corpus(self):
        rng = random.Random(46)
        for _ in range(100):
            g1 = random_rooted_graph(rng, 8)
            g2 = random_rooted_graph(rng, 8)
            sd1, sd2 = spectral_data([g1, g2])
            product_sd = spectral_data([star_product(g1, g2)])[0]
            assert h_additivity_check(sd1, sd2, product_sd)
            assert schwenk_star_check(sd1, sd2, product_sd)
            assert star_cauchy_identity_check(sd1, sd2, product_sd)

    def test_comb_checks_on_corpus(self):
        rng = random.Random(47)
        for _ in range(30):
            g1 = random_rooted_graph(rng, 5)
            g2 = random_rooted_graph(rng, 4)
            sd1, sd2 = spectral_data([g1, g2])
            product_sd = spectral_data([comb_product(g1, g2)])[0]
            assert schwenk_comb_check(sd1, sd2, product_sd)
            assert comb_trace_check(sd1, sd2, product_sd)


class TestNfoldComb:
    def test_transforms_match_oracle(self):
        # K2 plus two bases whose root is unlike their other vertices: an end
        # of path:3 and the centre of star:3
        for base in (complete(2), path(3), star(3)):
            sd = spectral_data([base])[0]
            for n in (1, 2, 3):
                oracle = spectral_data([nfold_comb(base, n)])[0]
                assert nfold_comb_transforms(sd, n) == renormalized_cauchy(oracle)
