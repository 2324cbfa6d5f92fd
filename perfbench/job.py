"""One worker process of a run: set-up, then rounds of a workload's commands.

    python3 perfbench/job.py --workload report --rounds 1 [--spans PATH]

Imports ``sqrtnfa`` from the checkout's ``src/``, builds the workload's
inputs (set-up; with ``--rounds 0`` that is all it does), then runs its
CLI commands ``--rounds`` times in-process through ``sqrtnfa.cli.main``
(the job), checking each round's outputs.
Untraced, a :class:`speed.Sampler` runs from set-up to the last round, so
that every time comes with the host's speed over the same interval.  With
``--spans`` the rounds run traced, without the sampler, and the spans are
written to PATH.  Prints one JSON object with the timings, the process's
peak RSS and the op counts.
"""

from __future__ import annotations

from time import perf_counter

# set-up is timed from here, before any other import
T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench" / "work"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402


def timing(wall_s: float, before: tuple[int, float], after: tuple[int, float]) -> dict:
    """An interval's wall time, the part of it not spent sampling
    (``busy_s``), and the reference calls sampled in it."""
    ref_calls, ref_s = after[0] - before[0], after[1] - before[1]
    return {"wall_s": wall_s, "busy_s": wall_s - ref_s, "ref_calls": ref_calls, "ref_s": ref_s}


def run_commands(commands, tracer=None, sampler=None, first_op=0) -> dict:
    """Run the commands once through the CLI, then check them.

    Returns the wall time of the round, the timing of each command, peak
    RSS (taken before the checks), attempted and failed op counts.  A
    command that raises counts all its ops as failed.
    """
    from sqrtnfa.cli import main

    sampler = sampler or speed.Sampler()
    outputs, command_timings = [], []
    t0 = perf_counter()
    for op, command in enumerate(commands, first_op):
        before = sampler.reading()
        t_command = perf_counter()
        stdout = io.StringIO()
        call = functools.partial(main, list(command.argv))
        try:
            with contextlib.redirect_stdout(stdout):
                code = tracer.root(op, call) if tracer else call()
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = None
        command_timings.append(timing(perf_counter() - t_command, before, sampler.reading()))
        outputs.append((code, stdout.getvalue()))
    wall_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(c.check(code, out) for c, (code, out) in zip(commands, outputs))
    return {
        "wall_s": wall_s,
        "commands": command_timings,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(c.ops for c in commands),
        "failed": failed,
        "t0": t0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    sampler = speed.Sampler()
    if not args.spans:
        sampler.start()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import sqrtnfa.cli  # noqa: F401
    from sqrtnfa.config import effective_budget
    from sqrtnfa.kernels import NUMBA_AVAILABLE

    import tracing
    import workloads

    commands = workloads.build(args.workload, WORKDIR)
    setup = timing(perf_counter() - T_START, (0, 0.0), sampler.reading())
    budget = workloads.budget_arg(commands)
    machine = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": NUMBA_AVAILABLE,
        "budget_arg": budget,
        "effective_budget": effective_budget(budget),
    }
    if args.rounds == 0:
        sampler.stop()
        print(json.dumps({"setup": setup, "machine": machine}))
        return 0

    tracer = tracing.Tracer() if args.spans else None
    if tracer:
        tracer.install()
    try:
        rounds = [
            run_commands(commands, tracer, sampler, first_op=k * len(commands))
            for k in range(args.rounds)
        ]
    finally:
        sampler.stop()
        if tracer:
            tracer.uninstall()
    result = {
        "setup": setup,
        "rounds": [{"wall_s": r["wall_s"], "commands": r["commands"]} for r in rounds],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "machine": machine,
    }
    if tracer:
        result["layers"] = tracer.summary()
        header = {"workload": args.workload, "rounds": args.rounds,
                  "wall_s": [r["wall_s"] for r in rounds]}
        tracer.write(args.spans, rounds[0]["t0"], header)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
