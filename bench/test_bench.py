"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cyclic_spectra.cli as cli  # noqa: E402
import cyclic_spectra.exact as exact  # noqa: E402
import workloads  # noqa: E402
from checks import References  # noqa: E402
from run import best_of_passes, classify, pass_metrics  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from worker import run_commands  # noqa: E402


def test_self_times_of_a_nested_span_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("cli.main", 11.0, 12.0, -1, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(self_times(spans)) == 11.0  # the root spans' total


def test_overlapping_children_are_covered_once():
    spans = [
        Span("p", 0.0, 10.0, -1, 0),
        Span("c1", 1.0, 4.0, 0, 0),
        Span("c2", 3.0, 6.0, 0, 0),
        Span("c3", 8.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def _one_per_workload(tmp_path: Path) -> list[workloads.Command]:
    workloads.write_inputs("generic", 0, tmp_path)
    picks = {
        "star": "spectrum --family star-of complete:2 --fold 9 --product star",
        "comb": "spectrum --family comb-of complete:2 --fold 3 --product comb",
        "generic": "spectrum er_10.txt",
        "verify": "verify schwenk-star --trials 100",
    }
    out = []
    for name, pick in picks.items():
        (cmd,) = [c for c in workloads.commands(name, 0, tmp_path) if c.name == pick]
        out.append(cmd)
    return out


def test_tracing_leaves_stdout_byte_identical(tmp_path):
    cmds = _one_per_workload(tmp_path)
    original_gcd = exact.poly_gcd
    plain = run_commands(cmds)
    with Tracer() as tracer:
        traced = run_commands(cmds, tracer)
    assert [r["stdout"] for r in traced] == [r["stdout"] for r in plain]
    assert all(r["exit"] == 0 for r in plain + traced)
    # poly_gcd is reached through RationalFunction, i.e. by its name in exact
    assert tracer.counts["exact.gcd_calls"] > 0
    assert tracer.metrics()["transforms.isolate_degree_max"] > 0
    assert exact.poly_gcd is original_gcd  # the package is restored


def test_forced_failures_count_into_failed_share(monkeypatch):
    def broken(args):
        raise RuntimeError("forced")

    monkeypatch.setattr(cli, "cmd_idcheck", broken)
    good = workloads.Command(
        "spectrum --family friendship:3", ("spectrum", "--family", "friendship:3"),
        "spectrum", "spectrum",
        {"base": workloads.named_graph("friendship:3"), "fold": 1, "product": "star"},
    )
    usage = workloads.Command(
        "spectrum --family nosuch:3", ("spectrum", "--family", "nosuch:3"),
        "spectrum", "spectrum", {},
    )
    raises = workloads.Command(
        "idcheck", ("idcheck", "--spectrum", "1:1", "--weights", "1"), "tables", "digest",
        {"sha256": "0" * 64},
    )
    wrong = workloads.Command(
        "cumulants", ("cumulants", "--phi", "0,1", "--omega", "0,2"), "tables", "digest",
        {"sha256": "0" * 64},
    )
    cmds = [good, usage, raises, wrong]
    outcomes = classify(cmds, {"commands": run_commands(cmds)}, References())
    assert [o["status"] for o in outcomes] == ["ok", "failed", "failed", "wrong"]
    assert outcomes[2]["error"] == "RuntimeError: forced"
    assert pass_metrics(outcomes)["failed_share"] == 3 / 4


def test_best_of_passes_takes_each_command_at_its_best_and_keeps_failures():
    def outcome(name, wall, status="ok", digits=None):
        return {"command": name, "group": "spectrum", "wall_s": wall,
                "status": status, "digits": digits}

    passes = [
        [outcome("a", 3.0, digits=14.0), outcome("b", 1.0), outcome("c", 5.0, "failed")],
        [outcome("a", 2.0, digits=12.0), outcome("b", 1.5, "wrong"), outcome("c", 4.0, "failed")],
    ]
    best = best_of_passes(passes)
    assert [o["wall_s"] for o in best] == [2.0, 1.0, 4.0]
    assert [o["status"] for o in best] == ["ok", "wrong", "failed"]
    assert best[0]["digits"] == 12.0
    assert pass_metrics(best)["wall_s"] == 7.0
    assert pass_metrics(best)["failed_share"] == 2 / 3
