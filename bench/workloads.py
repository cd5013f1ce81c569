"""The benchmark's workloads: fixed lists of cyclic-spectra CLI commands.

Each command carries the check its output must pass (see checks.py). Only the
``generic`` workload depends on the seed: it draws Erdos-Renyi graphs and
hands them to the CLI as files, alternating edge-list text and JSON.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("star", "comb", "generic", "verify")

# Failures present when the benchmark was defined, with the error text they
# raise. They stay in their workloads and count as failed commands.
KNOWN_FAILURES = {
    "spectrum --family comb-of complete:2 --fold 6 --product comb": "non-integer residue",
    "spectrum --family comb-of path:3 --fold 4 --product comb": "non-integer residue",
    "spectrum --family comb-of path:4 --fold 3 --product comb": "non-integer residue",
    "limits carleman --n 200": "OverflowError",
}

# sha256 of the stdout of the exact tables, recorded when the benchmark was
# defined. These outputs are deterministic, so any change in them is an error.
DIGESTS = {
    "cumulants --phi 1,2,5 --omega 3,1 --order 64":
        "ca1cabfd9f4f8b24973db65ca44bdcaae17767786c57f947619926c6a9414d30",
    "limits comb --family complete:2 --k-max 6 --n-max 12":
        "8ac4169f88fcfccaf29f980d43e4befafb65e759787662cd78340195a68dd0ee",
    "limits beta --n 200":
        "501bf61a94fab0bd1166259ffff7258eebe3f82234be6a91dd627be72e700c6d",
    "idcheck":
        "ba6c24753beb7d77f773733b0e145d0ec5e57126ffdd060a0e6fa1701c793a1e",
}

GENERIC_SIZES = tuple(range(10, 23, 2))
GENERIC_EDGE_PROBABILITY = 0.3
VERIFY_SUITES = (
    "h-additivity", "schwenk-star", "schwenk-comb", "comb-trace",
    "star-cauchy", "moment-cumulant",
)
COMB_BASES = ("complete:2", "complete:3", "path:3", "path:4", "star:3")
COMB_MAX_VERTICES = 81


@dataclass(frozen=True)
class RootedInput:
    """A rooted graph as the benchmark sees it, independent of the package."""

    n: int
    root: int
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv, the group its time counts to, and its check.

    ``group`` is ``spectrum``, ``verify`` or ``tables``. ``check`` names the
    kind of output check, with its parameters in ``expect``.
    """

    name: str
    argv: tuple[str, ...]
    group: str
    check: str
    expect: dict = field(default_factory=dict)


def named_graph(spec: str) -> RootedInput:
    """The package's named families, rebuilt here so references are independent."""
    name, _, arg = spec.partition(":")
    k = int(arg)
    if name == "complete":
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        return RootedInput(k, 0, tuple(edges))
    if name == "path":
        return RootedInput(k, 0, tuple((i, i + 1) for i in range(k - 1)))
    if name == "star":
        return RootedInput(k + 1, 0, tuple((0, i) for i in range(1, k + 1)))
    if name == "friendship":
        edges = [(0, i) for i in range(1, 2 * k + 1)]
        edges += [(2 * i - 1, 2 * i) for i in range(1, k + 1)]
        return RootedInput(2 * k + 1, 0, tuple(edges))
    raise ValueError(f"unknown family {spec!r}")


def _spectrum(base_spec: str, fold: int, product: str) -> Command:
    argv = ("spectrum", "--family", f"{product}-of", base_spec,
            "--fold", str(fold), "--product", product)
    return Command(
        " ".join(argv), argv, "spectrum", "spectrum",
        {"base": named_graph(base_spec), "fold": fold, "product": product},
    )


def _star_commands() -> list[Command]:
    return [
        _spectrum("complete:2", 9, "star"),
        Command(  # the README form of a fold-1 spectrum
            "spectrum --family friendship:3", ("spectrum", "--family", "friendship:3"),
            "spectrum", "spectrum",
            {"base": named_graph("friendship:3"), "fold": 1, "product": "star"},
        ),
        _spectrum("complete:3", 200, "star"),
        _spectrum("star:3", 100, "star"),
        _spectrum("complete:3", 1000, "star"),
        _spectrum("friendship:3", 300, "star"),
        Command(
            "limits gap --family complete:3 --n-max 64",
            ("limits", "gap", "--family", "complete:3", "--n-max", "64"),
            "tables", "gap", {"base": named_graph("complete:3"), "n_max": 64},
        ),
        Command(
            "limits clt --family complete:3 --n 6 --n-max 256",
            ("limits", "clt", "--family", "complete:3", "--n", "6", "--n-max", "256"),
            "tables", "clt",
            {"base": named_graph("complete:3"), "k_max": 6, "n_max": 256},
        ),
    ]


def _comb_commands() -> list[Command]:
    out = []
    for spec in COMB_BASES:
        n = named_graph(spec).n
        fold = 1
        while n**fold <= COMB_MAX_VERTICES:
            out.append(_spectrum(spec, fold, "comb"))
            fold += 1
    return out


def generic_graphs(seed: int) -> list[RootedInput]:
    """Erdos-Renyi graphs with a random root, one per size, drawn from the seed."""
    rng = random.Random(seed)
    graphs = []
    for n in GENERIC_SIZES:
        edges = tuple(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < GENERIC_EDGE_PROBABILITY
        )
        graphs.append(RootedInput(n, rng.randrange(n), edges))
    return graphs


def _generic_path(inputs: Path, index: int, g: RootedInput) -> Path:
    suffix = "txt" if index % 2 == 0 else "json"
    return inputs / f"er_{g.n}.{suffix}"


def write_inputs(workload: str, seed: int, inputs: Path) -> None:
    """Write the files a workload's commands read (only ``generic`` has any)."""
    if workload != "generic":
        return
    inputs.mkdir(parents=True, exist_ok=True)
    for index, g in enumerate(generic_graphs(seed)):
        path = _generic_path(inputs, index, g)
        if path.suffix == ".json":
            text = json.dumps({"n": g.n, "root": g.root, "edges": [list(e) for e in g.edges]})
        else:
            text = "\n".join([f"n {g.n} root {g.root}"] + [f"{i} {j}" for i, j in g.edges])
        path.write_text(text + "\n")


def _generic_commands(seed: int, inputs: Path) -> list[Command]:
    out = []
    for index, g in enumerate(generic_graphs(seed)):
        path = _generic_path(inputs, index, g)
        out.append(Command(
            f"spectrum er_{g.n}{path.suffix}",
            ("spectrum", "--family", str(path)),
            "spectrum", "spectrum", {"base": g, "fold": 1, "product": "star"},
        ))
    return out


def _verify_commands() -> list[Command]:
    out = []
    for suite in VERIFY_SUITES:
        out.append(Command(
            f"verify {suite} --trials 100", ("verify", suite, "--trials", "100"),
            "verify", "verify", {"trials": 100},
        ))
    out.append(Command(
        "verify mixed-words --trials 200", ("verify", "mixed-words", "--trials", "200"),
        "verify", "verify", {"trials": 200},
    ))
    out.append(Command(
        "verify schwenk-star --trials 10 --max-vertices 32",
        ("verify", "schwenk-star", "--trials", "10", "--max-vertices", "32"),
        "verify", "verify", {"trials": 10},
    ))
    tables = [
        ("cumulants --phi 1,2,5 --omega 3,1 --order 64",
         ("cumulants", "--phi", "1,2,5", "--omega", "3,1", "--order", "64")),
        ("limits comb --family complete:2 --k-max 6 --n-max 12",
         ("limits", "comb", "--family", "complete:2", "--k-max", "6", "--n-max", "12")),
        ("limits beta --n 200", ("limits", "beta", "--n", "200")),
    ]
    for name, argv in tables:
        out.append(Command(name, argv, "tables", "digest", {"sha256": DIGESTS[name]}))
    out.append(Command(
        "limits carleman --n 200", ("limits", "carleman", "--n", "200"),
        "tables", "carleman", {"n": 200},
    ))
    out.append(Command(
        "idcheck", ("idcheck", "--spectrum", "-1:1,1:1", "--weights", "0.5,0.5"),
        "tables", "digest", {"sha256": DIGESTS["idcheck"]},
    ))
    return out


def commands(workload: str, seed: int, inputs: Path) -> list[Command]:
    """The workload's command list; ``inputs`` is where write_inputs put files."""
    if workload == "star":
        return _star_commands()
    if workload == "comb":
        return _comb_commands()
    if workload == "generic":
        return _generic_commands(seed, inputs)
    if workload == "verify":
        return _verify_commands()
    raise ValueError(f"unknown workload {workload!r}")
