"""Command-line front end: spectrum | verify | cumulants | limits | idcheck.

Output is machine-readable (JSON or CSV) and deterministic for a fixed seed;
every command writes it through `_emit`, in one envelope.
Exit codes: 0 success, 2 argument/parse error, 3 identity or pipeline mismatch.
Commands raise and `main` alone maps the exception to its exit code:
ValueError and OSError exit 2, ArithmeticError (a failed spectrum extraction
or CRT check prime) and AssertionError (a failed internal identity check) exit 3.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import graphs
from .convolutions import nfold_comb_transforms, star_power_spectra
from .cumulants import boolean_cumulants, cyclic_boolean_cumulants, h_coefficients
from .limits import (
    alpha_row,
    beta_table,
    carleman_check,
    cb_id_classify,
    clt_report,
    comb_limit_moment,
    finite_n_comb_moment,
    ordered_partition_moment_sums,
    spectral_gap_report,
)
from .models import MomentData, eigensolve
from .transforms import (
    EXACT_CHARPOLY_CAP,
    SpectrumReport,
    extract_spectrum,
    green,
    laurent_at_infinity,
    renormalized_cauchy,
    spectral_data,
)
from .verify import STAR_FACTOR_CAP, STAR_SUITES, SUITES, run_suite

SCHEMA = "cyclic-spectra/1"
ORACLE_VERTEX_LIMIT = 512

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3


def _emit(args, fields: dict, columns: list[str] | None = None, rows=()) -> None:
    """Write {"schema", "command", fields..., "columns", "rows"} to stdout or --output.

    JSON prints the whole payload; CSV prints the table, or, for a command
    without one, a key,value line per field.
    """
    payload = {"schema": SCHEMA, "command": args.command, **fields}
    if columns:
        payload |= {"columns": columns, "rows": rows}
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [columns, *rows] if rows
            else [[key, payload[key]] for key in sorted(payload) if key != "schema"]
        )
        text = buf.getvalue().rstrip("\n")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


_PRODUCT_WORDS = {"star-of": "star", "comb-of": "comb"}


def _parse_graph_arg(tokens: list[str]) -> tuple[graphs.RootedGraph, str]:
    """--family accepts 'name:param' or 'star-of/comb-of name:param'."""
    if len(tokens) == 2 and tokens[0] in _PRODUCT_WORDS:
        return graphs.named(tokens[1]), tokens[1]
    if len(tokens) == 1:
        if os.path.exists(tokens[0]):
            with open(tokens[0]) as fh:
                text = fh.read()
            if tokens[0].endswith(".json"):
                return graphs.graph_from_json(text), tokens[0]
            return graphs.parse_graph_text(text), tokens[0]
        return graphs.named(tokens[0]), tokens[0]
    raise ValueError(f"bad --family specification: {' '.join(tokens)}")


def _product(args) -> str:
    """The product named by the 'star-of'/'comb-of' word or by --product."""
    word = _PRODUCT_WORDS.get(args.family[0]) if len(args.family) == 2 else None
    if word and args.product and word != args.product:
        raise ValueError(f"--family {args.family[0]} contradicts --product {args.product}")
    return word or args.product or "star"


def cmd_spectrum(args) -> int:
    base, label = _parse_graph_arg(args.family)
    product = _product(args)
    [sd] = spectral_data([base])
    fold = args.fold
    if product == "star":
        [report] = star_power_spectra(sd, [fold])
        build_product = graphs.nfold_star
    else:
        report = extract_spectrum(nfold_comb_transforms(sd, fold), sd.dim**fold)
        build_product = graphs.nfold_comb
    dim = report.dim
    fields = {"family": label, "fold": fold, "product": product, "dim": dim}
    diffs = [None] * len(report.entries)
    status = EXIT_OK
    if dim <= args.oracle_max:
        product_graph = build_product(base, fold)
        oracle = eigensolve(graphs.adjacency(product_graph.graph).astype(float))
        fields["oracle"] = oracle.entries
        if [m for _, m in oracle.entries] != [m for _, m in report.entries]:
            status = EXIT_MISMATCH
            fields["mismatch"] = "multiplicity structure differs"
        else:
            diffs = [abs(a - b) for (a, _), (b, _) in zip(report.entries, oracle.entries)]
            if max(diffs, default=0.0) > 1e-9:
                status = EXIT_MISMATCH
                fields["mismatch"] = f"max eigenvalue diff {max(diffs)}"
    rows = [[v, m, d] for (v, m), d in zip(report.entries, diffs)]
    _emit(args, fields, ["eigenvalue", "multiplicity", "oracle_diff"], rows)
    return status


def cmd_verify(args) -> int:
    result = run_suite(
        args.suite,
        trials=args.trials,
        max_vertices=args.max_vertices,
        seed=args.seed,
    )
    _emit(
        args,
        {"suite": args.suite, "trials": result.trials, "passed": result.passed,
         "failed": result.failed},
        ["trial", "ok", "detail"],
        [[c["trial"], c["ok"], c["detail"]] for c in result.certificates],
    )
    if result.failed:
        cert_path = args.certificate or "mismatch_certificate.json"
        with open(cert_path, "w") as fh:
            json.dump(
                {
                    "schema": SCHEMA,
                    "suite": args.suite,
                    # trial t reruns alone from random.Random(f"{suite}/{seed}/{t}")
                    "seed": args.seed,
                    "trials": args.trials,
                    "max_vertices": args.max_vertices,
                    "failures": [c for c in result.certificates if not c["ok"]],
                },
                fh,
                indent=2,
                sort_keys=True,
            )
        print(f"mismatch certificate written to {cert_path}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _fraction(text: str) -> Fraction:
    """A rational literal; a zero denominator is a parse error like any other."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _moment_table(text: str, order: int) -> list[Fraction]:
    """Comma-separated rationals, repeated periodically to order terms, so
    '0,1' encodes an alternating sequence."""
    values = [_fraction(tok) for tok in text.split(",") if tok]
    if not values:
        raise ValueError("empty moment list")
    return [values[n % len(values)] for n in range(order)]


def cmd_cumulants(args) -> int:
    order = args.order
    data = MomentData(_moment_table(args.phi, order), _moment_table(args.omega, order))
    bs = boolean_cumulants(data)
    cs = cyclic_boolean_cumulants(data)
    hs = h_coefficients(data)
    rows = [[n + 1, str(cs[n]), str(hs[n]), str(bs[n])] for n in range(order)]
    _emit(args, {"order": order}, ["n", "c_n", "h_n", "b_n"], rows)
    return EXIT_OK


def _star_base(family: str) -> tuple[graphs.RootedGraph, str, int]:
    """Base graph of a star-power table, its label and its root degree."""
    base, label = _parse_graph_arg([family])
    deg = base.root_degree()
    if deg < 1:
        raise ValueError("root must have positive degree")
    return base, label, deg


def cmd_limits(args) -> int:
    fields = {"table": args.table}
    if args.table == "comb":
        base, fields["family"] = _parse_graph_arg([args.family])
        if base.n < 2:
            raise ValueError("comb base must have at least 2 vertices")
        [sd] = spectral_data([base])
        # green = sum_k psi_k z^(-k-1) and rc = sum_(k>=1) tr(A^k) z^(-k-1);
        # the table reads orders 1..k_max
        moments = MomentData(
            laurent_at_infinity(green(sd), args.k_max + 1)[2:],
            laurent_at_infinity(renormalized_cauchy(sd), args.k_max + 1)[2:],
        )
        d = sd.dim
        sums = ordered_partition_moment_sums(args.k_max, moments)
        # alpha_p(d, N) does not depend on the order k: one row per N
        alphas = {n: alpha_row(d, n, args.k_max) for n in range(1, args.n_max + 1)}
        columns = ["N", "k", "value", "limit", "abs_err"]
        rows = []
        for k in range(1, args.k_max + 1):
            limit = comb_limit_moment(d, sums[k])
            for n in range(1, args.n_max + 1):
                value = finite_n_comb_moment(alphas[n], sums[k]) / Fraction(d) ** n
                rows.append([n, k, str(value), str(limit), abs(float(value - limit))])
    elif args.table == "gap":
        base, fields["family"], deg = _star_base(args.family)
        columns = ["N", "largest", "smallest", "largest_mult", "smallest_mult", "bulk_max"]
        rows = [
            [r.n, r.largest, r.smallest, r.largest_mult, r.smallest_mult, r.bulk_max]
            for r in spectral_gap_report(spectral_data([base])[0], deg, args.n_max)
        ]
    elif args.table == "beta":
        columns = ["n", "beta_n"]
        rows = [[n, str(v)] for n, v in enumerate(beta_table(args.n).values)]
    elif args.table == "carleman":
        bound_holds, partial = carleman_check(args.n)
        fields["bound_holds"] = bound_holds
        columns = ["n", "partial_sum"]
        rows = [[n + 1, s] for n, s in enumerate(partial)]
    else:  # clt
        base, fields["family"], deg = _star_base(args.family)
        [sd] = spectral_data([base])
        sizes = [n for n in (1, 2, 4, 8, 16, 32, 64, 128, 256) if n <= args.n_max]
        columns = ["k", "N", "omega_value", "phi_limit", "omega_limit"]
        rows = [
            [report.k, n, value, report.phi_limit, str(report.omega_limit)]
            for report in clt_report(sd, deg, args.n, sizes)
            for n, value in report.finite_n_values
        ]
    _emit(args, fields, columns, rows)
    return EXIT_OK


_MULTIPLICITY_RULE = "multiplicity must be at least 1, in ASCII digits"


def _parse_spectrum(text: str) -> SpectrumReport:
    """value:multiplicity pairs; the verdict reports values as floats, so each must fit one."""
    entries = []
    for chunk in text.split(","):
        value, _, mult = chunk.partition(":")
        v = _fraction(value)
        if abs(v) > sys.float_info.max:
            raise ValueError(f"eigenvalue {value!r} is beyond the largest float")
        if v and not float(v):
            raise ValueError(f"eigenvalue {value!r} is nonzero but below the smallest float")
        m = graphs._text_int(mult, _MULTIPLICITY_RULE)
        if m < 1:
            raise ValueError(f"{_MULTIPLICITY_RULE}, got {mult!r}")
        entries.append((v, m))
    entries.sort()
    dim = sum(m for _, m in entries)
    return SpectrumReport(tuple(entries), dim)


def cmd_idcheck(args) -> int:
    spectrum = _parse_spectrum(args.spectrum)
    verdict = cb_id_classify(spectrum, [_fraction(w) for w in args.weights.split(",")])
    fields = {"divisible": verdict.divisible, "case": verdict.case, "reason": verdict.reason,
              "alpha": verdict.alpha, "beta": verdict.beta}
    _emit(args, {key: value for key, value in fields.items() if value is not None})
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type: an int no smaller than low."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic-spectra",
        description="Exact spectral calculus for star and comb products of rooted graphs",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", help="write output to a file instead of stdout")
    # accept the output flags on either side of the subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("json", "csv"), default=argparse.SUPPRESS
    )
    shared.add_argument("--output", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="spectrum of an iterated product", parents=[shared])
    sp.add_argument("--family", nargs="+", required=True,
                    help="graph family 'name:param', a file path, or 'star-of name:param'")
    sp.add_argument("--fold", type=_int_at_least(1), default=1)
    sp.add_argument("--product", choices=("star", "comb"),
                    help="product for a bare family (default star); "
                         "'star-of'/'comb-of' choose it themselves")
    sp.add_argument("--oracle-max", type=_int_at_least(0), default=ORACLE_VERTEX_LIMIT,
                    help="run the dense eigensolver when the product has at most this many vertices")
    sp.set_defaults(func=cmd_spectrum)

    vf = sub.add_parser("verify", help="run a randomized identity suite", parents=[shared])
    vf.add_argument("suite", choices=sorted(SUITES))
    vf.add_argument("--trials", type=_int_at_least(1), default=100)
    vf.add_argument("--max-vertices", type=_int_at_least(2), default=8)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--certificate", help="where to write the mismatch certificate")
    vf.set_defaults(func=cmd_verify)

    cm = sub.add_parser("cumulants", help="cumulant tables from moment sequences", parents=[shared])
    cm.add_argument("--phi", required=True, help="comma-separated state moments")
    cm.add_argument("--omega", required=True, help="comma-separated trace moments")
    cm.add_argument("--order", type=_int_at_least(1), default=8)
    cm.set_defaults(func=cmd_cumulants)

    lm = sub.add_parser("limits", help="limit tables", parents=[shared])
    lm.add_argument("table", choices=("beta", "carleman", "clt", "comb", "gap"))
    lm.add_argument("--n", type=_int_at_least(1), default=7)
    lm.add_argument("--family", default="complete:2",
                    help="base rooted graph for comb/gap tables")
    lm.add_argument("--k-max", type=_int_at_least(1), default=6)
    lm.add_argument("--n-max", type=_int_at_least(1), default=12)
    lm.set_defaults(func=cmd_limits)

    ic = sub.add_parser("idcheck", help="classify a spectrum for divisibility", parents=[shared])
    ic.add_argument("--spectrum", required=True, help="'value:mult,value:mult,...'")
    ic.add_argument("--weights", required=True, help="state weights per entry")
    ic.set_defaults(func=cmd_idcheck)
    return parser


_VALUE_FLAGS = ("--spectrum", "--weights", "--phi", "--omega")


def _join_negative_values(argv: list[str]) -> list[str]:
    # let values like "-1:1,1:1" follow their flag without confusing argparse
    out = []
    skip = False
    for tok, nxt in zip(argv, argv[1:] + [""]):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and nxt.startswith("-"):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(list(argv)))
        star_suite = args.command == "verify" and args.suite in STAR_SUITES
        if star_suite and args.max_vertices > STAR_FACTOR_CAP:
            parser.error(
                f"argument --max-vertices: must be at most {STAR_FACTOR_CAP} for "
                f"{args.suite}, whose star products must stay within the exact "
                f"cap of {EXACT_CHARPOLY_CAP} vertices"
            )
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # the pipeline failed (a spectrum extraction or a CRT check prime), or an
    # internal identity check did (e.g. a moment-table weight)
    except (ArithmeticError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
