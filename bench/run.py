"""The cyclic-spectra benchmark: time the CLI end to end, or trace its layers.

Run from the repository root:

    python3 bench/run.py --workload star --seed 0 --seconds 30 --trace 0

A run measures whole passes over the workload's fixed command list, each pass
in a fresh interpreter (worker.py) whose working directory is a new temporary
directory under .bench_work/. It makes at least MIN_PASSES passes, and more
while one more still fits in --seconds. Outputs are checked against references
computed here (checks.py) after the passes, outside the timed region.

--trace 0 prints the end-to-end metrics. A command's time is its best wall
time over the run's passes: on a shared host the CPU's speed floor holds
steady while its typical speed drifts (README.md, "Noise"). setup_s is the
median of interpreter imports spread over the run. --trace 1 runs one
untraced and one traced pass and prints the per-layer metrics of the traced
one, with the tracing overhead. Metric names and units come from
BENCHMARK.json. The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads
from checks import CheckError, References, check

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 4
SETUP_REPEATS = 3  # at the start of a run and again after every pass
IMPORT_CLI = [sys.executable, "-c", "import cyclic_spectra.cli"]
RUN_LIMIT_S = 170  # the whole run, set-up and checks included
# Units of the end-to-end metrics, including those that only the report shows.
UNITS = {
    "setup_s": "s", "wall_s": "s", "spectrum_s": "s", "tables_s": "s",
    "verify_trials_per_s": "1/s", "failed_share": "ratio", "eig_digits_min": "digits",
    "peak_rss_mb": "MiB",
}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or "unknown"


def measure_setup(env: dict, cwd: Path) -> list[float]:
    """Wall times for fresh interpreters to import cyclic_spectra.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(IMPORT_CLI, env=env, cwd=cwd, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_pass(args, env: dict, run_dir: Path, index: int, deadline: float,
             spans: Path | None = None) -> dict:
    """One pass of the workload in a fresh worker process."""
    pass_dir = run_dir / f"pass{index}"
    pass_dir.mkdir()
    out = pass_dir / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--inputs", str(run_dir / "inputs"), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    subprocess.run(cmd, env=env, cwd=pass_dir, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text())


def classify(cmds, result: dict, refs: References) -> list[dict]:
    """Outcome of each command: ok, failed (loudly) or wrong (bad output)."""
    outcomes = []
    for cmd, r in zip(cmds, result["commands"]):
        outcome = {"command": cmd.name, "group": cmd.group, "wall_s": r["wall_s"]}
        if r["exception"] is not None or r["exit"] != 0:
            error = r["exception"] or (r["stderr"].strip().splitlines() or [f"exit {r['exit']}"])[-1]
            known = workloads.KNOWN_FAILURES.get(cmd.name)
            outcome.update(status="failed", error=error,
                           known=known is not None and known in error)
        else:
            try:
                digits = check(cmd, r["stdout"], refs)
            except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
                outcome.update(status="wrong", error=f"{type(exc).__name__}: {exc}")
            else:
                outcome.update(status="ok", digits=digits)
        if cmd.check == "verify" and outcome["status"] == "ok":
            outcome["trials"] = cmd.expect["trials"]
        outcomes.append(outcome)
    return outcomes


def pass_metrics(outcomes: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of one pass that apply to its workload."""
    def wall(group=None):
        return sum(o["wall_s"] for o in outcomes if group in (None, o["group"]))

    groups = {o["group"] for o in outcomes}
    m = {"wall_s": wall()}
    if "spectrum" in groups:
        m["spectrum_s"] = wall("spectrum")
        digits = [o["digits"] for o in outcomes if o["status"] == "ok" and o.get("digits") is not None]
        if digits:
            m["eig_digits_min"] = min(digits)
    if "tables" in groups:
        m["tables_s"] = wall("tables")
    if "verify" in groups:
        m["verify_trials_per_s"] = sum(o.get("trials", 0) for o in outcomes) / wall("verify")
    m["failed_share"] = sum(o["status"] != "ok" for o in outcomes) / len(outcomes)
    return m


def best_of_passes(outcomes: list[list[dict]]) -> list[dict]:
    """One outcome per command: its best wall time over the passes.

    A command that was not ok in some pass keeps that pass's outcome, and the
    smallest digit count of any pass, so a failure in one pass is not hidden.
    """
    merged = []
    for column in zip(*outcomes):
        worst = next((o for o in column if o["status"] != "ok"), column[0])
        best = dict(worst, wall_s=min(o["wall_s"] for o in column))
        digits = [o["digits"] for o in column if o.get("digits") is not None]
        if best["status"] == "ok" and digits:
            best["digits"] = min(digits)
        merged.append(best)
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cyclic_spectra" / "cli.py").is_file():
        return _fail("run from the repository root: src/cyclic_spectra is missing")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S

    env = {k: v for k, v in os.environ.items() if k != "CYCLIC_SPECTRA_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        workloads.write_inputs(args.workload, args.seed, run_dir / "inputs")
        cmds = workloads.commands(args.workload, args.seed, run_dir / "inputs")
        try:
            if args.trace:
                plain = run_pass(args, env, run_dir, 0, deadline)
                spans = work / f"spans-{args.workload}-{args.seed}.jsonl"
                passes = [plain, run_pass(args, env, run_dir, 1, deadline, spans)]
            else:
                subprocess.run(IMPORT_CLI, env=env, cwd=run_dir, check=True)  # bytecode caches
                setup = measure_setup(env, run_dir)
                passes, start = [], time.monotonic()
                while True:
                    passes.append(run_pass(args, env, run_dir, len(passes), deadline))
                    setup += measure_setup(env, run_dir)
                    last = sum(c["wall_s"] for c in passes[-1]["commands"])
                    if (len(passes) >= MIN_PASSES
                            and time.monotonic() - start + last > args.seconds):
                        break
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            return _fail(f"a pass did not complete: {exc}")
        refs = References()
        outcomes = [classify(cmds, p, refs) for p in passes]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    flat = [o for pass_outcomes in outcomes for o in pass_outcomes]
    result = {
        "correct": not any(o["status"] == "wrong" for o in flat),
        "attempted": len(flat),
        "failed": sum(o["status"] != "ok" for o in flat),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "git_sha": _git_sha(root), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "failures": sorted({(o["command"], o["status"], o["error"], o.get("known", False))
                            for o in flat if o["status"] != "ok"}),
        "command_wall_s": {  # best over the untraced passes
            cmd.name: min(p[i]["wall_s"] for p in outcomes[:len(outcomes) - args.trace])
            for i, cmd in enumerate(cmds)
        },
    }
    if args.trace:
        report.update(_trace_report(passes))
        wanted, found = spec["per_layer"], report["layers"]
    else:
        found = pass_metrics(best_of_passes(outcomes))
        found["setup_s"] = statistics.median(setup)
        found["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        report["pass_wall_s"] = [sum(o["wall_s"] for o in p) for p in outcomes]
        report["command_pass_wall_s"] = {
            cmd.name: [p[i]["wall_s"] for p in outcomes] for i, cmd in enumerate(cmds)
        }
        report["setup_samples"] = len(setup)
        report["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(found.items())}
        wanted = spec["end_to_end"]
    print(json.dumps(report, indent=1, default=list))
    missing = [m["name"] for m in wanted if m["name"] not in found]
    if missing:
        return _fail(f"metrics not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(result))
    return 0


def _trace_report(passes: list[dict]) -> dict:
    """Per-layer metrics of the traced pass and the closure of its time account."""
    plain, traced = passes
    plain_wall = sum(c["wall_s"] for c in plain["commands"])
    traced_wall = sum(c["wall_s"] for c in traced["commands"])
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced_wall - plain_wall
    self_sum = sum(v for k, v in traced["layers"].items() if k.endswith("_s"))
    outside = traced_wall - traced["span_root_s"]
    if abs(self_sum + outside - traced_wall) > 1e-6 * max(1.0, traced_wall):
        raise AssertionError("span self times do not add up to the traced wall time")
    return {
        "layers": layers, "span_count": traced["span_count"],
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "span_self_sum_s": self_sum, "outside_spans_s": outside,
    }


if __name__ == "__main__":
    # On SIGTERM, unwind: subprocess.run then kills and waits for the worker,
    # and main's finally removes the run's files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
