"""Command-line interface: output schemas, exit codes, determinism."""

import ast
import hashlib
import json
import math
import random
import shlex
import sys
from pathlib import Path

import pytest

from cyclic_spectra import cli, verify
from cyclic_spectra.cli import main
from cyclic_spectra.graphs import graph_from_json
from cyclic_spectra.transforms import RootedSpectralData
from cyclic_spectra.verify import (
    STAR_SUITES,
    SUITES,
    SuiteResult,
    random_rooted_graph,
    random_symmetric_int_matrix,
)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run(capsys, *args)
    return code, json.loads(out)


def _details_digest(certificate: dict) -> str:
    """sha256 of a certificate's failure details, one per line: a failing
    identity prints both sides in canonical form."""
    details = "\n".join(f["detail"] for f in certificate["failures"])
    return hashlib.sha256(details.encode()).hexdigest()


def _moment_cumulant_order(seed: int, t: int) -> int:
    """The order n that trial t of `verify moment-cumulant` draws from its own
    generator: after the dimension and the matrix."""
    rng = random.Random(f"moment-cumulant/{seed}/{t}")
    random_symmetric_int_matrix(rng, rng.randint(2, 3))
    return rng.randint(1, 5)


class TestSpectrum:
    def test_star_of_k2_fold_9(self, capsys):
        code, data = run_json(
            capsys, "spectrum", "--family", "star-of", "complete:2",
            "--fold", "9", "--product", "star",
        )
        assert code == 0
        entries = [(v, m) for v, m, _ in data["rows"]]
        assert [m for _, m in entries] == [1, 8, 1]
        assert abs(entries[0][0] + 3) < 1e-9
        assert abs(entries[2][0] - 3) < 1e-9

    def test_friendship_3(self, capsys):
        code, data = run_json(capsys, "spectrum", "--family", "friendship:3")
        assert code == 0
        entries = [(v, m) for v, m, _ in data["rows"]]
        assert [m for _, m in entries] == [1, 3, 2, 1]
        assert abs(entries[0][0] + 2) < 1e-9  # (1 - sqrt(25)) / 2
        assert abs(entries[3][0] - 3) < 1e-9

    def test_comb_fold_1(self, capsys):
        code, data = run_json(
            capsys, "spectrum", "--family", "complete:2", "--fold", "1",
            "--product", "comb",
        )
        assert code == 0
        entries = [(v, m) for v, m, _ in data["rows"]]
        assert [m for _, m in entries] == [1, 1]
        assert abs(entries[0][0] + 1) < 1e-9 and abs(entries[1][0] - 1) < 1e-9

    def test_oracle_column_filled(self, capsys):
        code, data = run_json(capsys, "spectrum", "--family", "star:6")
        assert code == 0
        assert "oracle" in data
        assert all(diff is not None and diff < 1e-9 for _, _, diff in data["rows"])

    def test_above_oracle_cap_builds_no_product_graph(self, capsys, monkeypatch):
        from cyclic_spectra import graphs

        def refuse(*args):
            raise AssertionError("product graph built above the oracle cap")

        monkeypatch.setattr(graphs, "nfold_star", refuse)
        monkeypatch.setattr(graphs, "nfold_comb", refuse)
        for family, fold, product, mults in (
            ("complete:3", 20, "star", [1, 20, 19, 1]),
            ("complete:2", 4, "comb", [1] * 16),
        ):
            code, data = run_json(
                capsys, "spectrum", "--family", f"{product}-of", family,
                "--fold", str(fold), "--product", product, "--oracle-max", "10",
            )
            assert code == 0
            assert "oracle" not in data
            assert [m for _, m, _ in data["rows"]] == mults

    def test_parse_error_exit_2(self, capsys):
        code, _ = run(capsys, "spectrum", "--family", "bogus:3")
        assert code == 2

    def test_fold_below_one_exit_2(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("spectral data built for a bad --fold")

        monkeypatch.setattr(cli, "spectral_data", refuse)
        for bad in ("0", "-2"):
            code = main(["spectrum", "--family", "complete:3", "--fold", bad])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "--fold: must be at least 1" in captured.err

    def test_oracle_max_below_zero_exit_2(self, capsys):
        code = main(["spectrum", "--family", "complete:3", "--oracle-max", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--oracle-max: must be at least 0" in captured.err
        code, data = run_json(
            capsys, "spectrum", "--family", "complete:3", "--oracle-max", "0"
        )
        assert code == 0 and "oracle" not in data

    def test_family_word_chooses_product(self, capsys):
        code, data = run_json(
            capsys, "spectrum", "--family", "comb-of", "complete:2", "--fold", "3",
        )
        assert code == 0
        assert data["product"] == "comb" and data["dim"] == 8
        assert [m for _, m, _ in data["rows"]] == [1] * 8
        assert all(diff < 1e-9 for _, _, diff in data["rows"])

    def test_family_word_contradicting_product_exit_2(self, capsys):
        code, out = run(
            capsys, "spectrum", "--family", "star-of", "complete:2", "--fold", "3",
            "--product", "comb",
        )
        assert code == 2 and out == ""

    def test_comb_fold_3(self, capsys):
        code, data = run_json(
            capsys, "spectrum", "--family", "comb-of", "path:4", "--fold", "3",
            "--product", "comb",
        )
        assert code == 0 and "mismatch" not in data
        assert sum(m for _, m, _ in data["rows"]) == 64
        assert [m for _, m, _ in data["rows"]] == [m for _, m in data["oracle"]]
        assert all(diff < 1e-9 for _, _, diff in data["rows"])


class TestVerify:
    def test_h_additivity(self, capsys):
        code, data = run_json(
            capsys, "verify", "h-additivity", "--trials", "6", "--max-vertices", "6",
        )
        assert code == 0
        assert data["passed"] == 6 and data["failed"] == 0

    def test_schwenk_comb(self, capsys):
        code, data = run_json(capsys, "verify", "schwenk-comb", "--trials", "4")
        assert code == 0 and data["failed"] == 0

    def test_mixed_words(self, capsys):
        code, data = run_json(capsys, "verify", "mixed-words", "--trials", "12")
        assert code == 0 and data["failed"] == 0

    def test_unknown_suite(self, capsys):
        code, _ = run(capsys, "verify", "nonsense")
        assert code == 2

    def test_trials_below_one_exit_2(self, capsys):
        for bad in ("0", "-3"):
            code = main(["verify", "h-additivity", "--trials", bad])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "--trials: must be at least 1" in captured.err

    def test_max_vertices_below_two_exit_2(self, capsys):
        for bad in ("1", "0"):
            code = main(["verify", "h-additivity", "--trials", "2", "--max-vertices", bad])
            err = capsys.readouterr().err
            assert code == 2
            assert "--max-vertices: must be at least 2" in err

    @pytest.fixture
    def suite_calls(self, monkeypatch):
        # stands in for run_suite: a trial at the cap would take minutes
        calls = []

        def fake(name, trials, max_vertices, seed):
            calls.append((name, max_vertices))
            return SuiteResult(name, trials, passed=trials)

        monkeypatch.setattr(cli, "run_suite", fake)
        return calls

    @pytest.mark.parametrize("suite", STAR_SUITES)
    def test_max_vertices_at_star_cap(self, capsys, suite_calls, suite):
        # two factors of 256 vertices star into 511 <= EXACT_CHARPOLY_CAP
        code, data = run_json(capsys, "verify", suite, "--trials", "1", "--max-vertices", "256")
        assert code == 0 and data["passed"] == 1
        assert suite_calls == [(suite, 256)]

    @pytest.mark.parametrize("suite", STAR_SUITES)
    def test_max_vertices_above_star_cap_exit_2(self, capsys, suite_calls, suite):
        code = main(["verify", suite, "--trials", "1", "--max-vertices", "257"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--max-vertices: must be at most 256" in captured.err
        assert "exact cap of 512 vertices" in captured.err
        assert suite_calls == []

    def test_suites_without_star_products_ignore_the_cap(self, capsys, suite_calls):
        others = sorted(set(SUITES) - set(STAR_SUITES))
        for suite in others:
            code, _ = run(capsys, "verify", suite, "--trials", "1", "--max-vertices", "257")
            assert code == 0
        assert suite_calls == [(suite, 257) for suite in others]

    def test_pair_suites_run_in_chunks(self, monkeypatch):
        # each chunk of trials shares one spectral_data call; chunking changes
        # no certificate, because each trial draws from its own generator
        whole = verify.run_suite("schwenk-comb", trials=7, seed=4)
        sizes = []
        batch = verify.spectral_data

        def counted(graphs):
            sizes.append(len(graphs))
            return batch(graphs)

        monkeypatch.setattr(verify, "spectral_data", counted)
        monkeypatch.setattr(verify, "PAIR_CHUNK", 3)
        assert verify.run_suite("schwenk-comb", trials=7, seed=4) == whole
        assert sizes == [9, 9, 3]

    def test_moment_cumulant_builds_each_table_once_per_n(self, monkeypatch):
        # one chunk of 100 trials draws n from 1..5 and checks each n's group
        # with one call, so CI(n)'s coefficients are built once per distinct n
        from cyclic_spectra import cumulants
        from cyclic_spectra.partitions import enumerate_partitions

        calls = []
        walk = cumulants.refinements

        def counted(pi):
            calls.append(pi)
            return walk(pi)

        monkeypatch.setattr(cumulants, "refinements", counted)
        result = verify.run_suite("moment-cumulant", 100)
        assert result.passed == 100
        drawn = {_moment_cumulant_order(0, t) for t in range(100)}
        assert len(calls) == sum(len(enumerate_partitions(n, "CI")) for n in drawn) <= 47


class TestCumulants:
    def test_k2_table(self, capsys):
        code, data = run_json(
            capsys, "cumulants", "--phi", "0,1", "--omega", "0,2", "--order", "8",
        )
        assert code == 0
        rows = {n: (c, h, b) for n, c, h, b in data["rows"]}
        assert rows[2] == ("2", "0", "1")
        assert all(rows[n][0] == "0" for n in (1, 3, 4, 5, 6, 7, 8))

    def test_order_64_digest(self, capsys):
        # pins the whole exact table, digits and formatting included
        code, out = run(
            capsys, "cumulants", "--phi", "1,2,5", "--omega", "3,1", "--order", "64",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ca1cabfd9f4f8b24973db65ca44bdcaae17767786c57f947619926c6a9414d30"
        )

    def test_csv_format(self, capsys):
        code, out = run(
            capsys, "cumulants", "--phi", "0,1", "--omega", "0,2",
            "--order", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,c_n,h_n,b_n"
        assert lines[2] == "2,2,0,1"

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_order_below_one_exit_2(self, capsys, order):
        code = main(["cumulants", "--phi", "1", "--omega", "1", "--order", order])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "argument --order: must be at least 1" in captured.err


class TestLimits:
    def test_beta(self, capsys):
        code, data = run_json(capsys, "limits", "beta", "--n", "7")
        assert code == 0
        assert [row[1] for row in data["rows"]] == [
            "1", "2", "10", "80", "874", "12092", "202384", "3973580",
        ]

    def test_clt(self, capsys):
        code, data = run_json(
            capsys, "limits", "clt", "--n", "5", "--family", "complete:3",
            "--n-max", "64",
        )
        assert code == 0
        limits_by_k = {k: (p, o) for k, n, v, p, o in data["rows"]}
        assert limits_by_k[2] == (1, "3")  # trace variance stays at alpha
        assert limits_by_k[4] == (1, "2")
        assert limits_by_k[5] == (0, "0")
        k2_values = [v for k, n, v, _, _ in data["rows"] if k == 2]
        assert all(v == 3.0 for v in k2_values)
        k4_values = [(n, v) for k, n, v, _, _ in data["rows"] if k == 4]
        assert abs(k4_values[-1][1] - 2) < abs(k4_values[0][1] - 2)

    def test_carleman(self, capsys):
        code, data = run_json(capsys, "limits", "carleman", "--n", "20")
        assert code == 0 and data["bound_holds"]

    def test_beta_at_cap_digest(self, capsys):
        code, out = run(capsys, "limits", "beta", "--n", "200")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "501bf61a94fab0bd1166259ffff7258eebe3f82234be6a91dd627be72e700c6d"
        )


class TestIdcheck:
    def test_divisible(self, capsys):
        code, data = run_json(
            capsys, "idcheck", "--spectrum", "-1:1,1:1", "--weights", "0.5,0.5",
        )
        assert code == 0
        assert data["divisible"] and data["case"] == "two_nonzero"

    def test_same_sign(self, capsys):
        code, data = run_json(
            capsys, "idcheck", "--spectrum", "2:1,3:1", "--weights", "0.4,0.6",
        )
        assert code == 0
        assert not data["divisible"]

    def test_bad_weights_exit_2(self, capsys):
        code, _ = run(capsys, "idcheck", "--spectrum", "-1:1,1:1", "--weights", "0.9,0.9")
        assert code == 2

    def test_tiny_eigenvalue_is_not_zero(self, capsys):
        code, data = run_json(
            capsys, "idcheck", "--spectrum", "-1:1,1/10000000000:1,1:1",
            "--weights", "1/2,0,1/2",
        )
        assert code == 0
        assert not data["divisible"]
        assert data["reason"] == "more than two non-zero eigenvalues"

    def test_weights_a_hair_above_one_exit_2(self, capsys):
        code, _ = run(
            capsys, "idcheck", "--spectrum", "-1:1,1:1",
            "--weights", "1/2,500000000001/1000000000000",
        )
        assert code == 2

    @pytest.mark.parametrize("spectrum", ["-1:0,1:1", "-1:-1,1:2"])
    def test_multiplicity_below_one_exit_2(self, capsys, spectrum):
        code = main(["idcheck", "--spectrum", spectrum, "--weights", "0,1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "multiplicity must be at least 1" in captured.err

    @pytest.mark.parametrize("spectrum, token", [
        ("-1:1,1:1_0", "1_0"),  # ran with multiplicity 10
        ("-1:1,1:+1", "+1"),
        ("-1:1,1:\u0661", "\u0661"),  # an Arabic-Indic digit
    ])
    def test_non_ascii_multiplicity_exit_2(self, capsys, spectrum, token):
        code = main(["idcheck", "--spectrum", spectrum, "--weights", "0.5,0.5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: multiplicity must be at least 1, in ASCII digits, got {token!r}\n"
        )

    @pytest.mark.parametrize("value", ["1e400", "-1e400", "2e308"])
    def test_eigenvalue_beyond_the_float_report_exit_2(self, capsys, value):
        # the verdict reports alpha as a float, which exited 3 on overflow
        code = main(["idcheck", "--spectrum", f"{value}:1", "--weights", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: eigenvalue {value!r} is beyond the largest float\n"

    @pytest.mark.parametrize("spectrum, weights, value", [
        ("1e-400:1", "1", "1e-400"),
        ("-1e-400:1,1e-400:1", "0.5,0.5", "-1e-400"),
    ])
    def test_eigenvalue_below_the_float_report_exit_2(self, capsys, spectrum, weights, value):
        # the verdict reported these nonzero eigenvalues as alpha 0.0 and beta 0.0
        code = main(["idcheck", "--spectrum", spectrum, "--weights", weights])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: eigenvalue {value!r} is nonzero but below the smallest float\n"
        )

    def test_smallest_subnormal_eigenvalue_is_reported(self, capsys):
        tiny = repr(5e-324)
        code, data = run_json(capsys, "idcheck", "--spectrum", f"{tiny}:1", "--weights", "1")
        assert code == 0
        assert data["alpha"] == 5e-324

    def test_largest_float_eigenvalue_is_reported(self, capsys):
        largest = repr(sys.float_info.max)
        code, data = run_json(capsys, "idcheck", "--spectrum", f"{largest}:1", "--weights", "1")
        assert code == 0
        assert data["alpha"] == sys.float_info.max


class TestDeterminism:
    def test_verify_byte_identical(self, capsys):
        _, first = run(capsys, "verify", "h-additivity", "--trials", "5", "--seed", "3")
        _, second = run(capsys, "verify", "h-additivity", "--trials", "5", "--seed", "3")
        assert first == second

    def test_spectrum_byte_identical(self, capsys):
        _, first = run(capsys, "spectrum", "--family", "friendship:4")
        _, second = run(capsys, "spectrum", "--family", "friendship:4")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out = run(
            capsys, "limits", "beta", "--n", "3", "--output", str(target),
        )
        assert code == 0 and out == ""
        data = json.loads(target.read_text())
        assert data["schema"] == "cyclic-spectra/1"

    def test_output_into_missing_directory_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code = main(["limits", "beta", "--n", "3", "--output", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


# sha256 of the stdout of commands whose output holds no BLAS or libm float,
# so a change to the exact pipeline must leave them byte-identical on every
# platform
GOLDEN_STDOUT = {
    "verify h-additivity --trials 100":
        "152b501ed49e3ea5ac40de4b5cb82678e9092c471c4c17db1ece9b4237206b2b",
    "verify schwenk-star --trials 100":
        "03fa2276613a60430bf32c297653edbcfc72c716ac9fc3481d41932fd01ebb93",
    "verify schwenk-comb --trials 100":
        "3481f365295fd94319f5b6fa249091b2301dd2e7aa3ec7d3fd75f2d23f208e8d",
    "verify comb-trace --trials 100":
        "49b939cf2af6e771b81e92634bd893fbeede1a665114e03d0ba524ee3b702b11",
    "verify star-cauchy --trials 100":
        "f2a95e75bd2b38f157b211f41ea1c3fb1b8adc1013e18fbc07a0d6c8fdbe748c",
    "verify moment-cumulant --trials 100":
        "593cc123e352e045b507062ac9c218608fffd42767cf0d22c4c2f248b62cef71",
    "verify mixed-words --trials 200":
        "35b8cf81d0c39ae9a23c3d974516c9525c7376aa98d901cae8f293edaceb2c93",
    "verify schwenk-star --trials 10 --max-vertices 32":
        "8dddf1c918e4e12ad5bb989a6bdfe7e304a52ab16c1ee1923164ed0cb9621bbb",
    "limits gap --family complete:3 --n-max 64":
        "c7a156ef9d0b9fd3c8a7b3065ede6c2c7c24d5abeb6e216509591af2881771fc",
    "limits comb --family path:3 --k-max 7 --n-max 9":
        "743b1866ecc2cbc5556ea79e583b0401ebba779d646adf0fe98c3adad225f89f",
    "spectrum --family star-of complete:2 --fold 9 --product star --oracle-max 0":
        "e73a37acd14cb6c09a3a8a8d6f3895f611ed0c4114a213b46e3f84f1d6212e85",
    "spectrum --family friendship:3 --oracle-max 0":
        "d5ad579f04cfa3fd323e7c82593dd016ef23a97dbcd3684ef0d3ef732cd1091b",
    "spectrum --family star-of complete:3 --fold 200 --product star --oracle-max 0":
        "5f40097416b0a5221e7b4b975055ae48b1f70c1eafcc771f25dc7d51af642892",
    "spectrum --family star-of star:3 --fold 100 --product star --oracle-max 0":
        "77f19ad7d0fbda6de79de2aa4e711a186137faafc1d51ffdc4ba9d799a07d1ac",
    "spectrum --family star-of complete:3 --fold 1000 --product star --oracle-max 0":
        "0f3a44db404ac37bfcebba6d6c644381550ef2145492054e8b0cf79754f24cce",
    "spectrum --family star-of friendship:3 --fold 300 --product star --oracle-max 0":
        "c69369e978eac310094a213bdb25019addb4f3f5524117149aa5b2065f6b6dce",
    "spectrum --family comb-of complete:2 --fold 1 --product comb --oracle-max 0":
        "db93acf7dac1ea90140f1e6d74fad34e4238694f0d5a5bbfb1e7bd94adbf3487",
    "spectrum --family comb-of complete:2 --fold 2 --product comb --oracle-max 0":
        "6db19554dbe66fc116ec134b427ec74cbbe46fb94ce4383543c0d69dd3ed06a6",
    "spectrum --family comb-of complete:2 --fold 3 --product comb --oracle-max 0":
        "476d4419ab68e7440d61859b7c517270bf5d011337ccc3bfa62639911a19a32d",
    "spectrum --family comb-of complete:2 --fold 4 --product comb --oracle-max 0":
        "3f3350a51cf8aedd7782be948528996d42c3b7a0ba6295e69f4a61e95954407a",
    "spectrum --family comb-of complete:2 --fold 5 --product comb --oracle-max 0":
        "9cb9e690ae04accc7498e9d2959d381c22e2d18abc47de6de1478aa280ce5d43",
    "spectrum --family comb-of complete:2 --fold 6 --product comb --oracle-max 0":
        "ba3cd8982b551d52299d553eb11c3dddf0f4f7c6dd482bdf00a0cb6155805f5b",
    "spectrum --family comb-of complete:3 --fold 1 --product comb --oracle-max 0":
        "3cd92fbce2a3e17e4dcac15c076d8fd3d448b693eb9bc51112967780c00bce18",
    "spectrum --family comb-of complete:3 --fold 2 --product comb --oracle-max 0":
        "04ea2c7b726edd7ec09b36463907c1fcb1135fe0c6807e4ffcf196e6a981479c",
    "spectrum --family comb-of complete:3 --fold 3 --product comb --oracle-max 0":
        "6889b433e7f947232cce2089df23b8d1b2fe2ee2a724e08e91d6d4f3da7b99d2",
    "spectrum --family comb-of complete:3 --fold 4 --product comb --oracle-max 0":
        "f6b7f1dfc0d2b2c61d98e673dd1b92e34f3592374c192bc6420ffde44c47cdb5",
    "spectrum --family comb-of path:3 --fold 1 --product comb --oracle-max 0":
        "10271efb36e47d3ae57f9ec8054ee60265f0bb8d9bc5cb7a1894c9587492af05",
    "spectrum --family comb-of path:3 --fold 2 --product comb --oracle-max 0":
        "7fde18b64d5d5548a9cbb7f8e9a64edf287c6c2816d6ebc89b14e448319319f3",
    "spectrum --family comb-of path:3 --fold 3 --product comb --oracle-max 0":
        "76389aedd0a74946a1acd75fae45a817b028da60e7ddc9bac47b18e27a4964ce",
    "spectrum --family comb-of path:3 --fold 4 --product comb --oracle-max 0":
        "dbd189a280f019490909a62d7a122cedd7abad5c15b9688e50fabcffb8971735",
    "spectrum --family comb-of path:4 --fold 1 --product comb --oracle-max 0":
        "17b2dc219118981228498a8c9642d554744e185cc978457c40e81db67f023fbb",
    "spectrum --family comb-of path:4 --fold 2 --product comb --oracle-max 0":
        "2b620621a50264d3019d9c874fcd7292b32da537e98b86fa5e8d9e99238abfb9",
    "spectrum --family comb-of path:4 --fold 3 --product comb --oracle-max 0":
        "e05d2e319c46c08eb1e7e69e2867f8c8ac9f7fa25ed88a702e7af0ffba95df35",
    "spectrum --family comb-of star:3 --fold 1 --product comb --oracle-max 0":
        "7ea9ffed7fb78b08f880e1cef752566da36fdec106e9d06880948d2616528f3f",
    "spectrum --family comb-of star:3 --fold 2 --product comb --oracle-max 0":
        "ba754cb6701e34c310482f8c524e892860c4d73a37c7f3697763a3b481db43ed",
    "spectrum --family comb-of star:3 --fold 3 --product comb --oracle-max 0":
        "e86e35b708a1be42623797fa3825dddd1616cd9067a05e913857660486f6db5a",
}


class TestGoldenStdout:
    @pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
    def test_stdout_digest(self, capsys, command):
        code, out = run(capsys, *shlex.split(command))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


# sha256 of the stdout of the table commands and of the CSV form of each
# command kind, recorded before the commands shared one output envelope.
# `limits carleman` and `limits clt` print floats from libm's exp, log and pow,
# so their digests hold for a correctly rounding libm such as glibc's on x86-64.
GOLDEN_ENVELOPE = {
    "limits carleman --n 200":
        "a08d4f61fc252d7973b5d351f21082d9907effe3c41d45c0334a76f69474ba13",
    "limits clt --family complete:3 --n 6 --n-max 256":
        "731b4bdc2176189ff13a05eca5c877eb0b17db3c23e97ddc97637868584a795a",
    "idcheck --spectrum -1:1,1:1 --weights 0.5,0.5":
        "ba6c24753beb7d77f773733b0e145d0ec5e57126ffdd060a0e6fa1701c793a1e",
    "idcheck --spectrum 1:1,2:1 --weights 0.5,0.5":
        "76664008c3721fba657225fd5cb9f5689a2639f4a18c6b7e2c5fdc22a99858ca",
    "spectrum --family star:3 --format csv --oracle-max 0":
        "c21a1f60124ed985be76bcc46a565c3b077e775c1d800d72cbda2321eb4b7344",
    "spectrum --family comb-of path:3 --fold 2 --format csv --oracle-max 0":
        "c10d6b37091e612319c3c287cbc8c8b0c88f5b72537abd3cf3b63a446f00afc1",
    "verify h-additivity --trials 5 --format csv":
        "28587e6416ec8804ea5acefb8b53bc2710aeb210a582ba9f9e4c3388d7c089aa",
    "cumulants --phi 1,2,5 --omega 3,1 --order 16 --format csv":
        "8ec7f44c06c2d245fe02cbf2845ff0d7669cf6e3492de2fdc943ae924e989cc3",
    "limits beta --n 9 --format csv":
        "c8241128438a9b195862d8d8a741b7fc0722302731e24164e77310ab99227784",
    "limits carleman --n 20 --format csv":
        "4c8a7217fab6e406453c99db2e17053fdc3cd2e2ff4487c45f2434df76dd9091",
    "limits clt --family complete:3 --n 4 --n-max 16 --format csv":
        "d6662af47009816dc5fc142a71ddcdb6317caf1743a1714f404756f17b7bbfcf",
    "limits comb --family path:3 --k-max 3 --n-max 4 --format csv":
        "19737cd10a670823deaf396bf9e1be4061ac1f1eee16038b9568da3f262f61cf",
    "limits gap --family complete:3 --n-max 8 --format csv":
        "8524e710a95f587d3cda7735ec8c978813804a96fa2e43adab9782ec01e7d2e3",
    "idcheck --spectrum -1:1,1:1 --weights 0.5,0.5 --format csv":
        "e7eace9c2df9e768db309dbd354d6a23c06651c3318225ea301abc34285c6fe9",
    "idcheck --spectrum 1:1,2:1 --weights 0.5,0.5 --format csv":
        "450a1c58c254180a3649d9a356c5b5110430fd904a56535318eec23bdab684e2",
}


class TestGoldenEnvelope:
    @pytest.mark.parametrize("command", sorted(GOLDEN_ENVELOPE))
    def test_stdout_digest(self, capsys, command):
        code, out = run(capsys, *shlex.split(command))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ENVELOPE[command]


class TestExitRoute:
    """`main` alone maps exceptions to exit codes."""

    @staticmethod
    def _holders(matches) -> set[str]:
        """Top-level statements of cli.py that hold a node for which matches
        is true: a function by its name, any other statement as '<module>'."""
        tree = ast.parse(Path(cli.__file__).read_text())
        return {
            stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"
            for stmt in tree.body
            for node in ast.walk(stmt)
            if matches(node)
        }

    def test_try_only_in_main_and_the_fraction_parser(self):
        assert self._holders(lambda n: isinstance(n, ast.Try)) <= {"main", "_fraction"}

    def test_exit_usage_returned_only_by_main(self):
        def returns_usage(node):
            return isinstance(node, ast.Return) and "EXIT_USAGE" in ast.unparse(node)

        assert self._holders(returns_usage) == {"main"}

    def test_gap_over_the_exact_cap_exit_2(self, capsys, tmp_path):
        # the cap is an input limit, as it is for `spectrum` and `limits clt`
        target = tmp_path / "path600.txt"
        target.write_text("n 600 root 0\n" + "\n".join(f"{i} {i + 1}" for i in range(599)))
        for table in (["gap", "--n-max", "2"], ["clt", "--n", "2", "--n-max", "2"]):
            code = main(["limits", table[0], "--family", str(target), *table[1:]])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == "error: matrix size 600 exceeds exact cap 512\n"

    def test_every_exact_command_over_the_cap_exit_2(self, capsys, monkeypatch, tmp_path):
        # the cap is checked on the graph, before any Faddeev-LeVerrier run
        from cyclic_spectra import transforms

        def refuse(graphs, primes):
            raise AssertionError("a Faddeev-LeVerrier run started")

        monkeypatch.setattr(transforms, "_leverrier_residues", refuse)
        target = tmp_path / "path513.txt"
        target.write_text("n 513 root 0\n" + "\n".join(f"{i} {i + 1}" for i in range(512)))
        for argv in (
            ["spectrum", "--family", str(target)],
            ["limits", "gap", "--family", str(target), "--n-max", "2"],
            ["limits", "clt", "--family", str(target), "--n", "2", "--n-max", "2"],
            ["limits", "comb", "--family", str(target), "--k-max", "2", "--n-max", "2"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == "error: matrix size 513 exceeds exact cap 512\n"

    def test_family_over_the_vertex_cap_exit_2(self, capsys):
        # complete:25000 built about 312M edges first, and died of MemoryError
        code = main(["spectrum", "--family", "complete:25000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: bad graph family spec 'complete:25000': "
            "vertex count 25000 exceeds cap 20000\n"
        )

    def test_family_over_the_exact_cap_builds_no_edge(self, capsys, monkeypatch):
        # complete:1000 took about a second to build before char_poly refused it,
        # and complete:3000 about 1 GB
        from cyclic_spectra import graphs

        def refuse(d):
            raise AssertionError(f"complete:{d} built")

        monkeypatch.setitem(graphs._FAMILIES, "complete", (refuse, lambda d: d))
        for argv in (
            ["spectrum", "--family", "complete:1000"],
            ["spectrum", "--family", "comb-of", "complete:1000", "--fold", "2"],
            ["limits", "gap", "--family", "complete:1000", "--n-max", "2"],
            ["limits", "clt", "--family", "complete:1000", "--n", "2", "--n-max", "2"],
            ["limits", "comb", "--family", "complete:1000", "--k-max", "2", "--n-max", "2"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == (
                "error: bad graph family spec 'complete:1000': "
                "matrix size 1000 exceeds exact cap 512\n"
            )
        # at the cap the family is built
        code = main(["spectrum", "--family", "complete:512"])
        assert code == 3 and capsys.readouterr().err == "error: complete:512 built\n"

    @pytest.mark.parametrize("argv", [
        ["cumulants", "--phi", "1/0", "--omega", "1"],
        ["cumulants", "--phi", "1", "--omega", "2,1/0"],
        ["idcheck", "--spectrum", "-1:1,1:1", "--weights", "1/0,1"],
        ["idcheck", "--spectrum", "1/0:1", "--weights", "1"],
    ])
    def test_zero_denominator_exit_2(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: zero denominator in '")

    @pytest.mark.parametrize("phi", [",", ",,"])
    def test_empty_moment_list_exit_2(self, capsys, phi):
        code = main(["cumulants", "--phi", phi, "--omega", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: empty moment list\n"


class TestLimitsTables:
    def test_comb_report_rows(self, capsys):
        code, data = run_json(
            capsys, "limits", "comb", "--k-max", "2", "--n-max", "4",
        )
        assert code == 0
        assert data["columns"] == ["N", "k", "value", "limit", "abs_err"]
        k2_rows = [r for r in data["rows"] if r[1] == 2]
        assert [r[2] for r in k2_rows] == ["1", "3/2", "7/4", "15/8"]
        assert all(r[3] == "2" for r in k2_rows)
        errs = [r[4] for r in k2_rows]
        assert errs == sorted(errs, reverse=True)

    def test_comb_builds_one_triangle(self, capsys, monkeypatch):
        # the ordered-partition sums are built once, at --k-max, and every
        # row of the table reads one row of them
        from cyclic_spectra import limits

        orders, build = [], limits.ordered_partition_moment_sums

        def spy(k, m):
            orders.append(k)
            return build(k, m)

        monkeypatch.setattr(limits, "ordered_partition_moment_sums", spy)
        monkeypatch.setattr(cli, "ordered_partition_moment_sums", spy)
        code, data = run_json(
            capsys, "limits", "comb", "--family", "complete:2",
            "--k-max", "6", "--n-max", "12",
        )
        assert code == 0 and len(data["rows"]) == 6 * 12
        assert orders == [6]

    def test_comb_builds_one_alpha_row_per_n(self, capsys, monkeypatch):
        # alpha_p(d, N) does not depend on the order k, so every k reads the
        # one row of N, built at --k-max
        from cyclic_spectra import limits

        calls, build = [], limits.alpha_row

        def spy(d, n, k_max):
            calls.append((d, n, k_max))
            return build(d, n, k_max)

        monkeypatch.setattr(cli, "alpha_row", spy)
        code, data = run_json(
            capsys, "limits", "comb", "--family", "complete:2",
            "--k-max", "6", "--n-max", "12",
        )
        assert code == 0 and len(data["rows"]) == 6 * 12
        assert calls == [(2, n, 6) for n in range(1, 13)]

    def test_gap_report(self, capsys):
        code, data = run_json(
            capsys, "limits", "gap", "--family", "complete:3", "--n-max", "6",
        )
        assert code == 0
        assert all(r[5] <= 2 / math.sqrt(2 * r[0]) + 1e-12 for r in data["rows"])

    def test_gap_root_of_degree_0_exit_2(self, capsys):
        code = main(["limits", "gap", "--family", "complete:1", "--n-max", "2"])
        assert code == 2
        assert "root must have positive degree" in capsys.readouterr().err

    def test_clt_root_of_degree_0_exit_2(self, capsys):
        code = main(["limits", "clt", "--family", "complete:1"])
        assert code == 2
        assert "root must have positive degree" in capsys.readouterr().err

    def test_comb_base_of_one_vertex_exit_2(self, capsys):
        code = main(["limits", "comb", "--family", "complete:1"])
        assert code == 2
        assert "at least 2 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["carleman", "--n", "0"],
            ["clt", "--n", "0"],
            ["gap", "--n-max", "0"],
            ["comb", "--k-max", "0", "--n-max", "0"],
            ["beta", "--n", "0"],
        ],
    )
    def test_empty_range_exit_2(self, capsys, argv):
        code = main(["limits", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "must be at least 1" in captured.err


class TestGraphFileInput:
    def test_spectrum_from_text_file(self, capsys, tmp_path):
        from cyclic_spectra.graphs import format_graph_text, star

        target = tmp_path / "g.txt"
        target.write_text(format_graph_text(star(4)))
        code, data = run_json(capsys, "spectrum", "--family", str(target))
        assert code == 0
        assert [m for _, m, _ in data["rows"]] == [1, 3, 1]

    def test_spectrum_from_json_file(self, capsys, tmp_path):
        import json as json_mod

        from cyclic_spectra.graphs import graph_to_json, star

        target = tmp_path / "g.json"
        target.write_text(json_mod.dumps(graph_to_json(star(4))))
        code, data = run_json(capsys, "spectrum", "--family", str(target))
        assert code == 0
        assert [m for _, m, _ in data["rows"]] == [1, 3, 1]

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"root": 0, "edges": []}',
            '{"n": 2, "edges": [[0, 1]]}',
            '{"n": 2, "root": 0}',
        ],
    )
    def test_malformed_json_exit_2(self, capsys, tmp_path, text):
        target = tmp_path / "g.json"
        target.write_text(text)
        code = main(["spectrum", "--family", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "graph JSON must be an object" in captured.err

    @pytest.mark.parametrize("text, field", [
        ('{"n": 2.9, "root": 0.5, "edges": [[0.2, 1.7]]}', "edges"),
        ('{"n": 2, "root": false, "edges": [[0, 1]]}', "root"),
        ('{"n": "3", "root": 0, "edges": [[0, 1]]}', "n"),
    ])
    def test_non_integer_json_exit_2(self, capsys, tmp_path, text, field):
        target = tmp_path / "g.json"
        target.write_text(text)
        code = main(["spectrum", "--family", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"field '{field}' must hold integers" in captured.err

    @pytest.mark.parametrize("header, token", [
        ("n 1_0 root +0", "1_0"),  # ran as a 10-vertex graph
        ("n \u0663 root 0", "\u0663"),  # an Arabic-Indic digit; ran with dim 3
    ])
    def test_non_ascii_integer_text_exit_2(self, capsys, tmp_path, header, token):
        target = tmp_path / "g.txt"
        target.write_text(f"{header}\n0 1\n", encoding="utf-8")
        code = main(["spectrum", "--family", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"non-negative ASCII integers, got {token!r}" in captured.err

    @pytest.mark.parametrize("root, named", [(2, "path:3"), (1, "star:2")])
    def test_comb_rows_of_a_rooted_file_graph(self, capsys, tmp_path, root, named):
        # the comb base is read at its root: P3 rooted at an end is path:3,
        # and rooted at its middle vertex it is star:2
        from cyclic_spectra.graphs import RootedGraph, format_graph_text, path

        target = tmp_path / "p3.txt"
        target.write_text(format_graph_text(RootedGraph(path(3).graph, root)))
        table = ("limits", "comb", "--k-max", "5", "--n-max", "6", "--family")
        code, data = run_json(capsys, *table, str(target))
        assert code == 0
        code, expected = run_json(capsys, *table, named)
        assert code == 0
        assert data["rows"] == expected["rows"]

    @pytest.mark.parametrize("root", [1, 3, 4])
    def test_comb_matches_the_moment_table_of_the_root_first_matrix(
        self, capsys, tmp_path, root
    ):
        # the table once read psi and tr(A^k) from matrix powers; the Laurent
        # coefficients of green and rc must give the same rows
        from fractions import Fraction

        from cyclic_spectra.graphs import Graph, RootedGraph, format_graph_text
        from cyclic_spectra.limits import (
            alpha_row,
            comb_limit_moment,
            finite_n_comb_moment,
            ordered_partition_moment_sums,
        )
        from cyclic_spectra.models import matrix_power_moments
        from rooted import root_first_adjacency

        g = RootedGraph(Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (3, 4)]), root)
        target = tmp_path / "g.txt"
        target.write_text(format_graph_text(g))
        k_max, n_max = 5, 6
        code, data = run_json(
            capsys, "limits", "comb", "--family", str(target),
            "--k-max", str(k_max), "--n-max", str(n_max),
        )
        assert code == 0
        moments = matrix_power_moments(root_first_adjacency(g), k_max)
        sums = ordered_partition_moment_sums(k_max, moments)
        expected = []
        for k in range(1, k_max + 1):
            limit = comb_limit_moment(g.n, sums[k])
            for n in range(1, n_max + 1):
                value = finite_n_comb_moment(alpha_row(g.n, n, k), sums[k]) / Fraction(g.n) ** n
                expected.append([n, k, str(value), str(limit), abs(float(value - limit))])
        assert data["rows"] == expected

    def test_directory_family_exit_2(self, capsys, tmp_path):
        code = main(["spectrum", "--family", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")


class TestCertificates:
    def test_spectrum_mismatch_exit_3(self, capsys, monkeypatch):
        # a corrupted oracle must surface as exit 3 with a mismatch field
        from cyclic_spectra import cli as cli_mod
        from cyclic_spectra.transforms import SpectrumReport

        def bogus_eigensolve(matrix):
            n = matrix.shape[0]
            return SpectrumReport(((float(n), n),), n)

        monkeypatch.setattr(cli_mod, "eigensolve", bogus_eigensolve)
        code, data = run_json(capsys, "spectrum", "--family", "star:3")
        assert code == 3
        assert "mismatch" in data

    @staticmethod
    def _failing_spectra(sd, ns):
        raise ArithmeticError("non-integer residue 0.5 at pole 1.0")

    def test_extraction_failure_exit_3(self, capsys, monkeypatch):
        from cyclic_spectra import cli as cli_mod

        monkeypatch.setattr(cli_mod, "star_power_spectra", self._failing_spectra)
        code = main(["spectrum", "--family", "star:3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "non-integer residue" in captured.err

    def test_gap_extraction_failure_exit_3(self, capsys, monkeypatch):
        from cyclic_spectra import limits as limits_mod

        monkeypatch.setattr(limits_mod, "star_power_spectra", self._failing_spectra)
        code = main(["limits", "gap", "--family", "star:3", "--n-max", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "non-integer residue" in captured.err

    def test_comb_extraction_failure_exit_3(self, capsys, monkeypatch):
        # comb spectra are still read off the trace resolvent
        from cyclic_spectra import cli as cli_mod

        def failing_extract(rc, dim):
            raise ArithmeticError("non-integer residue 0.5 at pole 1.0")

        monkeypatch.setattr(cli_mod, "extract_spectrum", failing_extract)
        code = main(["spectrum", "--family", "comb-of", "path:3", "--fold", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "non-integer residue" in captured.err

    # (text in star_power_spectra, its mutant, the fold of complete:3 that
    # shows it, the guard that must catch it)
    STAR_SPECTRA_MUTANTS = {
        "multiplicity off by one": (
            "n * m + (n - 1) * in_q", "n * m + (n - 1) * in_q + 1", "1",
            "multiplicities do not sum to dim",
        ),
        # the root -1 of g = z + 1 is also a root of S_1 = (z - 2)(z + 1)
        "coincidence test dropped": (
            "common = poly_gcd(s, g)", "common = Polynomial.one()", "1",
            "eigenvalues must be strictly increasing",
        ),
        "sign flip on (n - 1) z Q": (
            "p.scale(n) - zq.scale(n - 1)", "p.scale(n) + zq.scale(n - 1)", "2",
            "S_2 is not monic of degree 2",
        ),
    }

    @pytest.mark.parametrize("mutant", sorted(STAR_SPECTRA_MUTANTS))
    def test_star_spectra_mutant_exit_3(self, capsys, monkeypatch, mutant):
        import inspect

        from cyclic_spectra import convolutions, limits

        text, replacement, fold, message = self.STAR_SPECTRA_MUTANTS[mutant]
        source = inspect.getsource(convolutions.star_power_spectra)
        assert source.count(text) == 1, "the mutant no longer applies"
        namespace = dict(vars(convolutions))
        exec(source.replace(text, replacement), namespace)
        monkeypatch.setattr(cli, "star_power_spectra", namespace["star_power_spectra"])
        monkeypatch.setattr(limits, "star_power_spectra", namespace["star_power_spectra"])
        for argv in (
            ["spectrum", "--family", "complete:3", "--fold", fold, "--oracle-max", "0"],
            ["limits", "gap", "--family", "complete:3", "--n-max", "2"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_star_spectra_neither_fold_nor_extract(self, capsys, monkeypatch):
        from cyclic_spectra import convolutions, limits, transforms

        def refuse(*args):
            raise AssertionError("a star power was folded or extracted")

        for module in (cli, convolutions, limits, transforms):
            for name in ("cyclic_boolean_sum", "nfold_star_transforms", "extract_spectrum"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        for argv in (
            ["spectrum", "--family", "star-of", "complete:3", "--fold", "3", "--product", "star"],
            ["limits", "gap", "--family", "complete:3", "--n-max", "8"],
        ):
            code, out = run(capsys, *argv)
            assert code == 0 and out

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "complete:3"],
        ["verify", "h-additivity", "--trials", "2"],
    ])
    def test_exact_core_failure_exit_3(self, capsys, monkeypatch, argv):
        # an ArithmeticError raised after parsing is a pipeline failure
        from cyclic_spectra import transforms

        residues = transforms._leverrier_residues

        def corrupt(graphs, primes):
            # one residue of the last graph of each run
            out = residues(graphs, primes)
            out[-1][0][0] = (out[-1][0][0] + 1) % primes[-1][0]
            return out

        monkeypatch.setattr(transforms, "_leverrier_residues", corrupt)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: Faddeev-LeVerrier residues disagree modulo the check prime\n"
        )

    def test_identity_check_failure_exit_3(self, capsys, monkeypatch):
        # a wrong moment-table weight fails the Lucas check inside beta_table
        from cyclic_spectra import limits as limits_mod

        exact = limits_mod._beta_weights
        monkeypatch.setattr(
            limits_mod, "_beta_weights",
            lambda n: [w + (n == 10 and el == 5) for el, w in enumerate(exact(n))],
        )
        code = main(["limits", "beta", "--n", "12"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "routes disagree at n=10" in captured.err

    def test_star_cauchy_checks_the_cli_fold(self, tmp_path, capsys, monkeypatch):
        # limits clt folds star powers with cyclic_boolean_sum, so a corrupted
        # fold must fail the star-cauchy suite and change the clt table
        from cyclic_spectra import convolutions
        from cyclic_spectra.exact import Polynomial, RationalFunction

        clt = ["limits", "clt", "--family", "complete:3"]
        code, clean = run(capsys, *clt)
        assert code == 0
        fold = convolutions.cyclic_boolean_sum
        offset = RationalFunction(Polynomial.one(), Polynomial((0, 0, 1)))

        def corrupt(terms):
            pair = fold(terms)
            return convolutions.TransformPair(pair.rc + offset, pair.green)

        monkeypatch.setattr(convolutions, "cyclic_boolean_sum", corrupt)
        code, corrupted = run(capsys, *clt)
        assert code == 0 and corrupted != clean
        cert = tmp_path / "cert.json"
        code = main([
            "verify", "star-cauchy", "--trials", "5", "--certificate", str(cert),
        ])
        capsys.readouterr()
        assert code == 3
        data = json.loads(cert.read_text())
        assert data["suite"] == "star-cauchy"
        assert [f["identity"] for f in data["failures"]] == ["star-cauchy"] * 5
        assert _details_digest(data) == (
            "79c7a3e50f7afcc0539a40c13ef2ff69dee81434f1c3c701e1faeebfd6cc52a1"
        )

    def test_h_additivity_checks_the_transforms(self, tmp_path, capsys, monkeypatch):
        # the suite must fail when h_transform is wrong on every element
        from cyclic_spectra import convolutions
        from cyclic_spectra.exact import Polynomial, RationalFunction

        h = convolutions.h_transform
        offset = RationalFunction(Polynomial.one(), Polynomial((0, 0, 1)))
        monkeypatch.setattr(convolutions, "h_transform", lambda sd: h(sd) + offset)
        cert = tmp_path / "cert.json"
        code = main([
            "verify", "h-additivity", "--trials", "5", "--certificate", str(cert),
        ])
        capsys.readouterr()
        assert code == 3
        data = json.loads(cert.read_text())
        assert data["suite"] == "h-additivity"
        assert [f["identity"] for f in data["failures"]] == ["h-additivity"] * 5
        assert _details_digest(data) == (
            "d2669622d98c6ce0f07e035440683b7c76fecc602b48dd608708053e48f2ec8f"
        )

    def test_star_cauchy_checks_the_closed_form_h(self, tmp_path, capsys, monkeypatch):
        # the fold reads each factor's h from h_transform, so a wrong closed
        # form must fail the star-cauchy suite as well as h-additivity
        from cyclic_spectra import convolutions
        from cyclic_spectra.exact import Polynomial, RationalFunction

        h = convolutions.h_transform
        offset = RationalFunction(Polynomial.one(), Polynomial((0, 0, 1)))
        monkeypatch.setattr(convolutions, "h_transform", lambda sd: h(sd) + offset)
        cert = tmp_path / "cert.json"
        code = main([
            "verify", "star-cauchy", "--trials", "5", "--certificate", str(cert),
        ])
        capsys.readouterr()
        assert code == 3
        data = json.loads(cert.read_text())
        assert data["suite"] == "star-cauchy"
        assert [f["identity"] for f in data["failures"]] == ["star-cauchy"] * 5
        assert _details_digest(data) == (
            "dac4139ce3eb87336f77441a23d18895c2a7fa492ec110f6f5bb822ee2aab943"
        )

    def test_comb_trace_checks_the_cli_fold(self, tmp_path, capsys, monkeypatch):
        # spectrum folds comb powers with cyclic_monotone_sum, so a corrupted
        # step must fail the comb-trace suite
        from cyclic_spectra import convolutions
        from cyclic_spectra.exact import Polynomial, RationalFunction

        step = convolutions.cyclic_monotone_sum
        offset = RationalFunction(Polynomial.one(), Polynomial((0, 0, 1)))

        def corrupt(rc_g, d_g, pair_h):
            return step(rc_g, d_g, pair_h) + offset

        monkeypatch.setattr(convolutions, "cyclic_monotone_sum", corrupt)
        cert = tmp_path / "cert.json"
        code = main([
            "verify", "comb-trace", "--trials", "5", "--certificate", str(cert),
        ])
        capsys.readouterr()
        assert code == 3
        data = json.loads(cert.read_text())
        assert data["suite"] == "comb-trace"
        assert [f["identity"] for f in data["failures"]] == ["comb-trace"] * 5
        assert _details_digest(data) == (
            "01f7a01808328fe87edc3553a53c5547f2b2732cb7b6b22baf83b161191637ef"
        )

    def test_moment_cumulant_checks_the_lattice_sum(self, tmp_path, capsys, monkeypatch):
        # the Moebius coefficients over CI(n) sum to 1, so a partitioned moment
        # off by one everywhere must fail every trial
        from cyclic_spectra import cumulants

        exact = cumulants.eval_cyclic_boolean_word
        monkeypatch.setattr(
            cumulants, "eval_cyclic_boolean_word",
            lambda word, tables, functional="omega": exact(word, tables, functional) + 1,
        )
        cert = tmp_path / "cert.json"
        code = main([
            "verify", "moment-cumulant", "--trials", "5", "--certificate", str(cert),
        ])
        capsys.readouterr()
        assert code == 3
        data = json.loads(cert.read_text())
        assert data["suite"] == "moment-cumulant"
        assert [f["trial"] for f in data["failures"]] == list(range(5))
        assert all(
            f["detail"].startswith("lattice resummation differs") for f in data["failures"]
        )

    def test_moment_cumulant_failures_keep_their_trials(self, tmp_path, capsys, monkeypatch):
        # the suite checks each chunk grouped by n; a partitioned moment off by
        # one at n = 3 alone must fail exactly the trials that drew n = 3, in
        # trial order, across two full chunks and a partial one; a partition
        # of [n] has a word of total power n
        from cyclic_spectra import cumulants

        exact = cumulants.eval_cyclic_boolean_word
        monkeypatch.setattr(
            cumulants, "eval_cyclic_boolean_word",
            lambda word, tables, functional="omega": exact(word, tables, functional)
            + (sum(power for _, power in word.letters) == 3),
        )
        cert = tmp_path / "cert.json"
        code = main([
            "verify", "moment-cumulant", "--trials", "250", "--certificate", str(cert),
        ])
        capsys.readouterr()
        assert code == 3
        failed = [f["trial"] for f in json.loads(cert.read_text())["failures"]]
        expected = [t for t in range(250) if _moment_cumulant_order(0, t) == 3]
        assert failed == expected and 0 < len(expected) < 250

    @pytest.mark.parametrize("rule, functional, prefix", [
        pytest.param("eval_cyclic_monotone_word", "omega", "monotone omega", id="monotone"),
        pytest.param("eval_cyclic_boolean_word", "phi", "boolean phi", id="boolean"),
    ])
    def test_mixed_words_checks_the_word_rules(
        self, tmp_path, capsys, monkeypatch, rule, functional, prefix
    ):
        # a word rule off by one in one functional must fail every trial
        # against the tensor model
        exact = getattr(verify, rule)

        def off_by_one(word, tables, which):
            value = exact(word, tables, which)
            return value + 1 if which == functional else value

        monkeypatch.setattr(verify, rule, off_by_one)
        cert = tmp_path / "cert.json"
        code = main([
            "verify", "mixed-words", "--trials", "20", "--certificate", str(cert),
        ])
        capsys.readouterr()
        assert code == 3
        data = json.loads(cert.read_text())
        assert data["suite"] == "mixed-words"
        assert [f["trial"] for f in data["failures"]] == list(range(20))
        assert all(f["detail"].startswith(prefix) for f in data["failures"])

    def test_mismatch_certificate_parses(self, tmp_path, capsys, monkeypatch):
        # corrupt one suite on purpose by registering a failing trial that
        # records its first random draw, so the replay can be checked
        from cyclic_spectra import verify as verify_mod

        def always_fail(rngs, mv):
            return [{"ok": False, "detail": repr(rng.random())} for rng in rngs]

        monkeypatch.setitem(verify_mod.SUITES, "synthetic", always_fail)
        cert = tmp_path / "cert.json"
        code = main([
            "verify", "synthetic", "--trials", "3", "--seed", "5",
            "--max-vertices", "4", "--certificate", str(cert),
        ])
        capsys.readouterr()
        assert code == 3
        data = json.loads(cert.read_text())
        assert data["suite"] == "synthetic"
        assert (data["seed"], data["trials"], data["max_vertices"]) == (5, 3, 4)
        assert len(data["failures"]) == 3
        for failure in data["failures"]:
            rng = random.Random(f"{data['suite']}/{data['seed']}/{failure['trial']}")
            assert failure["detail"] == repr(rng.random())

    @pytest.mark.parametrize("suite, check, caps", [
        pytest.param("schwenk-star", "schwenk_star_check", (math.inf,) * 2, id="star"),
        pytest.param("schwenk-comb", "schwenk_comb_check", verify.COMB_FACTOR_CAPS, id="comb"),
    ])
    def test_failing_pair_trial_carries_its_graphs(
        self, tmp_path, capsys, monkeypatch, suite, check, caps
    ):
        # a doubled phi_(G-r) of the first factor fails every trial; each
        # certificate's graphs are the pair that trial t draws from its seed
        exact = getattr(verify, check)

        def wrong_minor(sd1, sd2, product_sd):
            sd1 = RootedSpectralData(sd1.phi, sd1.phi_minus_root * 2, sd1.dim)
            return exact(sd1, sd2, product_sd)

        monkeypatch.setattr(verify, check, wrong_minor)
        cert = tmp_path / "cert.json"
        code = main([
            "verify", suite, "--trials", "4", "--seed", "3", "--max-vertices", "6",
            "--certificate", str(cert),
        ])
        capsys.readouterr()
        assert code == 3
        data = json.loads(cert.read_text())
        assert [f["trial"] for f in data["failures"]] == [0, 1, 2, 3]
        for failure in data["failures"]:
            rng = random.Random(f"{suite}/3/{failure['trial']}")
            drawn = [random_rooted_graph(rng, min(6, cap)) for cap in caps]
            assert [graph_from_json(g) for g in failure["graphs"]] == drawn


class TestReadme:
    def test_every_example_exits_0(self, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        examples = [
            shlex.split(line)[1:]
            for line in readme.read_text().splitlines()
            if line.startswith("cyclic-spectra ")
        ]
        assert examples
        for argv in examples:
            code, _ = run(capsys, *argv)
            assert code == 0, argv
