"""One pass of a workload: run its commands through ``cyclic_spectra.cli.main``.

run.py starts this script in a fresh interpreter for every pass, so module
caches such as ``limits.alpha_k`` start cold, as they do for a user's CLI
call. Commands run one after another on one thread: a closed loop with one
client. What each command printed, returned and raised goes to ``--out`` as
JSON; with ``--spans`` the pass is traced and the spans are written there.

    python3 bench/worker.py --workload star --seed 0 --inputs DIR --out FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def run_commands(cmds, tracer=None) -> list[dict]:
    """Run each command in-process and record its output and wall time."""
    from cyclic_spectra import cli

    results = []
    for index, cmd in enumerate(cmds):
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # garbage of earlier commands is not this command's cost
        if tracer is not None:
            tracer.command = index
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(cmd.argv))
        except Exception as exc:  # an escaping exception is a failed command
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        results.append({
            "name": cmd.name, "wall_s": wall, "exit": code, "exception": error,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
        })
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    import cyclic_spectra.cli  # noqa: F401  -- import cost is setup_s, not a command's

    cmds = workloads.commands(args.workload, args.seed, args.inputs)
    report: dict = {}
    if args.spans is None:
        report["commands"] = run_commands(cmds)
    else:
        from spans import Tracer

        with Tracer() as tracer:
            report["commands"] = run_commands(cmds, tracer)
        tracer.write(args.spans)
        report["layers"] = tracer.metrics()
        report["span_root_s"] = tracer.root_time()
        report["span_count"] = len(tracer.spans)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
