"""Seeded randomized identity suites shared by the CLI and the test suite.

Corpora are Erdos-Renyi graphs (edge probability 1/2) with a random root, so
every run with the same seed checks the same instances.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .convolutions import (
    comb_trace_check,
    h_additivity_check,
    schwenk_comb_check,
    schwenk_star_check,
    star_cauchy_identity_check,
)
from .cumulants import moment_cumulant_check
from .graphs import Graph, RootedGraph, comb_product, graph_to_json, star_product
from .models import (
    MixedWord,
    OperatorModel,
    eval_cyclic_boolean_word,
    eval_cyclic_monotone_word,
    matrix_power_moments,
    model_tables,
)
from .transforms import EXACT_CHARPOLY_CAP, spectral_data


def random_rooted_graph(rng: random.Random, max_vertices: int) -> RootedGraph:
    n = rng.randint(2, max_vertices)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    return RootedGraph(Graph(n, edges), rng.randrange(n))


def random_symmetric_int_matrix(rng: random.Random, dim: int, bound: int = 2) -> list[list[int]]:
    m = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            v = rng.randint(-bound, bound)
            m[i][j] = v
            m[j][i] = v
    return m


@dataclass
class SuiteResult:
    suite: str
    trials: int
    passed: int = 0
    failed: int = 0
    certificates: list[dict] = field(default_factory=list)


# the comb product multiplies vertex counts, so keep its factors small enough
# for the exact characteristic polynomial of the product
COMB_FACTOR_CAPS = (5, 4)

# the star product of two factors of this many vertices has EXACT_CHARPOLY_CAP
# vertices or fewer; its suites reject a larger max_vertices up front
STAR_SUITES = ("h-additivity", "schwenk-star", "star-cauchy")
STAR_FACTOR_CAP = (EXACT_CHARPOLY_CAP + 1) // 2


#: the pair suites and moment-cumulant draw, build and check this many trials
#: at a time, with one `spectral_data` call per chunk, or one
#: `moment_cumulant_check` call per n in the chunk, so their memory does not
#: grow with --trials
PAIR_CHUNK = 100


def _chunks(rngs: Iterable[random.Random]) -> Iterator[list[random.Random]]:
    rngs = iter(rngs)
    while chunk := list(itertools.islice(rngs, PAIR_CHUNK)):
        yield chunk


def _pair_trials(
    rngs: Iterable[random.Random], max_vertices: int, product, check, caps=(math.inf, math.inf)
) -> Iterator[dict]:
    """Check one identity on a random pair of rooted graphs and their product,
    one pair per generator, in chunks of PAIR_CHUNK generators."""
    for chunk in _chunks(rngs):
        pairs = [
            tuple(random_rooted_graph(rng, min(max_vertices, cap)) for cap in caps)
            for rng in chunk
        ]
        sds = spectral_data([g for g1, g2 in pairs for g in (g1, g2, product(g1, g2))])
        for t, pair in enumerate(pairs):
            outcome = check(*sds[3 * t : 3 * t + 3])
            if outcome:
                yield {"ok": True, "detail": ""}
            else:
                yield {
                    "ok": False,
                    "detail": outcome.detail,
                    "identity": outcome.name,
                    "graphs": [graph_to_json(g) for g in pair],
                }


def _moment_cumulant_trials(rngs: Iterable[random.Random]) -> Iterator[dict]:
    """Check the moment-cumulant resummation of order n on the moment table of
    a random matrix, one (matrix, n) per generator. A chunk of PAIR_CHUNK
    generators checks the tables of each n in one call, which builds CI(n)
    and its coefficients once."""
    for chunk in _chunks(rngs):
        tables, ns = [], []
        for rng in chunk:
            dim = rng.randint(2, 3)
            tables.append(matrix_power_moments(random_symmetric_int_matrix(rng, dim), 8))
            ns.append(rng.randint(1, 5))
        outcomes = [None] * len(chunk)
        for n in sorted(set(ns)):
            group = [t for t, k in enumerate(ns) if k == n]
            for t, outcome in zip(group, moment_cumulant_check([tables[t] for t in group], n)):
                outcomes[t] = outcome
        for outcome in outcomes:
            yield {"ok": outcome.ok, "detail": outcome.detail}


def _random_alternating_indices(rng: random.Random, length: int, algebras: int) -> list[int]:
    out = [rng.randint(1, algebras)]
    while len(out) < length:
        nxt = rng.randint(1, algebras)
        if nxt != out[-1]:
            out.append(nxt)
    return out


def _mixed_words_trial(rng: random.Random) -> dict:
    algebras = 3
    dims = tuple(rng.randint(2, 3) for _ in range(algebras))
    model = OperatorModel(dims)
    mats = [
        np.array(random_symmetric_int_matrix(rng, d, 1), dtype=object) for d in dims
    ]
    length = rng.randint(1, 6)
    indices = _random_alternating_indices(rng, length, algebras)
    powers = [rng.randint(1, 3) for _ in indices]
    word = MixedWord(tuple(zip(indices, powers)))
    # merging letters never asks for a power above the word's total
    tables = [matrix_power_moments(a, sum(powers)) for a in mats]
    ops = [
        (idx - 1, np.linalg.matrix_power(mats[idx - 1], power)) for idx, power in word.letters
    ]
    for kind, evaluator in (
        ("boolean", eval_cyclic_boolean_word),
        ("monotone", eval_cyclic_monotone_word),
    ):
        embedded = model_tables(model, tables, kind)
        model_trace, model_vacuum = model.word_moments(ops, kind)
        got_omega = evaluator(word, embedded, "omega")
        got_phi = evaluator(word, embedded, "phi")
        if got_omega != model_trace:
            return {
                "ok": False,
                "detail": f"{kind} omega: rules={got_omega} model={model_trace} word={word.letters}",
            }
        if got_phi != model_vacuum:
            return {
                "ok": False,
                "detail": f"{kind} phi: rules={got_phi} model={model_vacuum} word={word.letters}",
            }
    return {"ok": True, "detail": ""}


#: each suite maps one generator per trial, and --max-vertices, to one
#: certificate per trial
SUITES: dict[str, Callable[[Iterable[random.Random], int], Iterable[dict]]] = {
    "h-additivity": lambda rngs, mv: _pair_trials(rngs, mv, star_product, h_additivity_check),
    "schwenk-star": lambda rngs, mv: _pair_trials(rngs, mv, star_product, schwenk_star_check),
    "schwenk-comb": lambda rngs, mv: _pair_trials(
        rngs, mv, comb_product, schwenk_comb_check, COMB_FACTOR_CAPS
    ),
    "comb-trace": lambda rngs, mv: _pair_trials(
        rngs, mv, comb_product, comb_trace_check, COMB_FACTOR_CAPS
    ),
    "star-cauchy": lambda rngs, mv: _pair_trials(
        rngs, mv, star_product, star_cauchy_identity_check
    ),
    "moment-cumulant": lambda rngs, mv: _moment_cumulant_trials(rngs),
    "mixed-words": lambda rngs, mv: [_mixed_words_trial(rng) for rng in rngs],
}


def run_suite(
    name: str,
    trials: int = 100,
    max_vertices: int = 8,
    seed: int = 0,
) -> SuiteResult:
    """Run one named identity suite over a seeded corpus.

    Trial t of suite name draws from random.Random(f"{name}/{seed}/{t}"), so
    any single trial can be rerun alone, and suites at one seed draw distinct
    corpora. A str seed is hashed with sha512, so it is stable across runs.
    """
    rngs = (random.Random(f"{name}/{seed}/{t}") for t in range(trials))
    result = SuiteResult(suite=name, trials=trials)
    for index, cert in enumerate(SUITES[name](rngs, max_vertices)):
        cert["trial"] = index
        if cert["ok"]:
            result.passed += 1
        else:
            result.failed += 1
        result.certificates.append(cert)
    return result
