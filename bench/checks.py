"""Output checks, against references computed here and not by the package.

Spectra are checked against ``numpy.linalg.eigvalsh`` of the product
adjacency, which this module builds itself: multiplicities must match after
clustering at 1e-8 and eigenvalues must agree to 1e-9, the README's
guarantee. Exact tables are compared by sha256 digest; float tables within
the tolerances below.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

from workloads import Command, RootedInput

CLUSTER_TOL = 1e-8
EIG_TOL = 1e-9
TABLE_TOL = 1e-9  # gap, clt and carleman values, relative to their scale
DIGITS_CAP = 16.0  # an exact match reads as 16 digits


def adjacency(g: RootedInput) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def product_adjacency(g: RootedInput, fold: int, product: str) -> np.ndarray:
    """Adjacency of the fold-th star or comb power, up to vertex labelling."""
    a = adjacency(g)
    if product == "star":
        # every copy keeps its non-root vertices; all share one root
        keep = [v for v in range(g.n) if v != g.root]
        block, links = a[np.ix_(keep, keep)], a[g.root, keep]
        size = len(keep)
        m = np.zeros((1 + fold * size, 1 + fold * size))
        for copy in range(fold):
            lo = 1 + copy * size
            m[lo:lo + size, lo:lo + size] = block
            m[0, lo:lo + size] = m[lo:lo + size, 0] = links
        return m
    # comb: a copy of g hangs at its root from every vertex, A (x) P + I (x) A
    proj = np.zeros((g.n, g.n))
    proj[g.root, g.root] = 1.0
    m = a
    for _ in range(fold - 1):
        m = np.kron(m, proj) + np.kron(np.identity(m.shape[0]), a)
    return m


def clustered(values: np.ndarray) -> list[tuple[float, int]]:
    """(mean, count) of runs of sorted values whose neighbours lie within 1e-8."""
    out = []
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] - values[j] <= CLUSTER_TOL:
            j += 1
        out.append((float(values[i:j + 1].mean()), j - i + 1))
        i = j + 1
    return out


class References:
    """Reference eigenvalues, computed on first use and kept for the run."""

    def __init__(self):
        self._eig: dict = {}

    def eigenvalues(self, g: RootedInput, fold: int, product: str) -> np.ndarray:
        key = (g, fold, product)
        if key not in self._eig:
            self._eig[key] = np.linalg.eigvalsh(product_adjacency(g, fold, product))
        return self._eig[key]


class CheckError(Exception):
    """The output disagrees with the reference."""


def check(cmd: Command, stdout: str, refs: References) -> float | None:
    """Raise CheckError unless stdout is right; return the eigenvalue digits
    of a spectrum (None for other commands)."""
    if cmd.check == "digest":
        got = hashlib.sha256(stdout.encode()).hexdigest()
        if got != cmd.expect["sha256"]:
            raise CheckError(f"digest {got} != recorded {cmd.expect['sha256']}")
        return None
    payload = json.loads(stdout)
    if cmd.check == "spectrum":
        return _check_spectrum(payload, cmd.expect, refs)
    if cmd.check == "verify":
        trials = cmd.expect["trials"]
        if (payload["trials"], payload["passed"], payload["failed"]) != (trials, trials, 0):
            raise CheckError(f"verify passed {payload['passed']} of {payload['trials']}")
        return None
    if cmd.check == "gap":
        _check_gap(payload, cmd.expect, refs)
    elif cmd.check == "clt":
        _check_clt(payload, cmd.expect, refs)
    elif cmd.check == "carleman":
        _check_carleman(payload, cmd.expect["n"])
    else:
        raise ValueError(f"unknown check {cmd.check!r}")
    return None


def _check_spectrum(payload: dict, expect: dict, refs: References) -> float:
    ref = clustered(refs.eigenvalues(expect["base"], expect["fold"], expect["product"]))
    rows = payload["rows"]
    if [m for _, m, _ in rows] != [m for _, m in ref]:
        raise CheckError(
            f"multiplicities {[m for _, m, _ in rows]} != reference {[m for _, m in ref]}"
        )
    err = max(abs(v - r) for (v, _, _), (r, _) in zip(rows, ref))
    if err > EIG_TOL:
        raise CheckError(f"max eigenvalue error {err:.3g} > {EIG_TOL}")
    return min(DIGITS_CAP, -math.log10(err)) if err > 0 else DIGITS_CAP


def _close(got: float, want: float, scale: float = 1.0) -> bool:
    return abs(got - want) <= TABLE_TOL * max(1.0, scale)


def _root_degree(g: RootedInput) -> int:
    return sum(1 for e in g.edges if g.root in e)


def _check_gap(payload: dict, expect: dict, refs: References) -> None:
    g = expect["base"]
    deg = _root_degree(g)
    rows = payload["rows"]
    if len(rows) != expect["n_max"]:
        raise CheckError(f"{len(rows)} gap rows, expected {expect['n_max']}")
    for n, largest, smallest, l_mult, s_mult, bulk in rows:
        scale = 1.0 / math.sqrt(deg * n)
        ref = [(v * scale, m) for v, m in clustered(refs.eigenvalues(g, n, "star"))]
        want_bulk = max((abs(v) for v, _ in ref[1:-1]), default=0.0)
        if (l_mult, s_mult) != (ref[-1][1], ref[0][1]) or not (
            _close(largest, ref[-1][0]) and _close(smallest, ref[0][0])
            and _close(bulk, want_bulk)
        ):
            raise CheckError(f"gap row N={n} differs from the reference")


def _check_clt(payload: dict, expect: dict, refs: References) -> None:
    g = expect["base"]
    deg = _root_degree(g)
    sizes = [n for n in (1, 2, 4, 8, 16, 32, 64, 128, 256) if n <= expect["n_max"]]
    want_keys = [(k, n) for k in range(1, expect["k_max"] + 1) for n in sizes]
    rows = payload["rows"]
    if [(k, n) for k, n, *_ in rows] != want_keys:
        raise CheckError("clt rows are not the expected (k, N) grid")
    alpha = Fraction(2 * len(g.edges), deg)  # Tr(A^2) / deg of the base graph
    for k, n, value, phi_limit, omega_limit in rows:
        lam = refs.eigenvalues(g, n, "star")
        norm = (deg * n) ** (k / 2)
        want = float(np.sum(lam**k)) / norm
        scale = float(np.sum(np.abs(lam) ** k)) / norm
        want_omega = "0" if k % 2 else (str(alpha) if k == 2 else "2")
        if not _close(value, want, scale) or phi_limit != (1 - k % 2) or omega_limit != want_omega:
            raise CheckError(f"clt row k={k} N={n} differs from the reference")


def beta_values(n_max: int) -> list[int]:
    """beta_n of the two-point comb limit by the direct convolution recursion."""
    beta = [1]
    for n in range(1, n_max + 1):
        beta.append(sum(
            math.comb(n + el, n - el) * 2 * n // (n + el) * beta[el] for el in range(n)
        ))
    return beta


def _check_carleman(payload: dict, n_max: int) -> None:
    beta = beta_values(n_max)
    if payload["bound_holds"] is not all(beta[n] <= (11 * n) ** (2 * n) for n in range(1, n_max + 1)):
        raise CheckError("carleman bound_holds differs from the reference")
    acc = 0.0
    rows = payload["rows"]
    if [n for n, _ in rows] != list(range(1, n_max + 1)):
        raise CheckError("carleman rows are not n = 1..n_max")
    for n, partial in rows:
        acc += math.exp(-math.log(beta[n]) / (2 * n))
        if not _close(partial, acc, acc):
            raise CheckError(f"carleman partial sum at n={n} differs from the reference")
