"""Benchmark of the sqrtnfa CLI: one workload, in fresh worker processes.

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``report``, ``cube`` and ``random-equiv``.
Their inputs are the same for every ``--seed``; the seed names the run's
span files.
A run starts worker processes (``perfbench/job.py``) one after another, a
closed loop of one client, for ``--seconds`` seconds: a worker is started
while the last one's duration still fits, and at least MIN_WORKERS are.
Each worker does set-up (import ``sqrtnfa`` from ``src/`` and make the
inputs), then ROUNDS[workload] rounds of the workload's CLI commands through
``sqrtnfa.cli.main``, in that one process with no added threads, and checks
every output.

``--trace 0`` reports the end-to-end metrics.  The host this benchmark was
written on runs the same code up to 2.4 times as slowly in phases of seconds to
minutes, so times are scaled to a reference host speed sampled during the
same interval (see speed.py).  ``wall_s`` is the job at that speed: per
command, its time over all rounds scaled by the host speed sampled while
it ran, divided by the rounds; summed over commands.  ``setup_s`` is the
median set-up at that speed, over the untraced workers and the
SETUP_ONLY_WORKERS that set up and stop, started before each of them.
``peak_rss_mb`` is the
median over workers of the process's peak RSS.  The table also gives the
unscaled times and the host's slowdown.
``--trace 1`` alternates untraced and traced workers and reports the
per-layer metrics of tracing.py, plus the tracing overhead: mean traced
minus mean untraced round time, both unscaled (traced workers do not
sample).  Traced workers write their spans to ``.perfbench/spans/``.

Stdout ends with a human-readable table, a ``{"machine": ...}`` line, and
the result line ``{"correct", "attempted", "failed", "metrics"}``.  An op
(one report, one sqrt command, one random-equiv trial) whose output is
wrong counts as failed; ``fail_ratio`` = failed / attempted.  Without
``src/sqrtnfa``, or when a worker crashes, the command exits non-zero and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench" / "spans"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Rounds of the commands per worker: a round takes about 6 s on report,
# 3 s on cube and 2 s on random-equiv on a quiet 2-core host.
ROUNDS = {"report": 1, "cube": 2, "random-equiv": 3}
# whatever --seconds says, so that peak RSS has a median of three
MIN_WORKERS = 3
# Workers that only set up, started before each untraced worker: set-up
# takes about 0.1 to 0.3 s and is timed once per process, and its median
# over a run needs more samples than there are workers.
SETUP_ONLY_WORKERS = 2
# a worker still running this long after the start fails the run,
# which must end within 180 s
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, rounds: int, spans: Path | None, started: float) -> dict:
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--rounds", str(rounds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker still running after {exc.timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pooled(timings) -> dict:
    return {key: sum(t[key] for t in timings) for key in ("wall_s", "busy_s", "ref_calls", "ref_s")}


def at_reference_speed(timing: dict, fallback: dict) -> float:
    """An interval's busy time at the reference speed, scaled by the
    reference calls sampled in it, or by ``fallback``'s when it was too
    short to be sampled at all."""
    ref = timing if timing["ref_calls"] else fallback
    return speed.scaled(timing["busy_s"], ref["ref_s"], ref["ref_calls"])


def summarize(untraced: list[dict], traced: list[dict], setups: list[dict]) -> tuple[dict, list[str]]:
    """Metrics of one run and the table lines that describe them.
    ``setups`` are the set-up timings of every untraced worker, including
    those that only set up."""
    lines = []
    rounds = [rnd for w in untraced for rnd in w["rounds"]]
    per_command = [pooled(timings) for timings in zip(*(rnd["commands"] for rnd in rounds))]
    sampled = pooled(per_command + setups)
    if not traced:
        wall_s = sum(at_reference_speed(c, sampled) for c in per_command) / len(rounds)
        setup_s = statistics.median(at_reference_speed(s, sampled) for s in setups)
        peak_rss_mb = statistics.median(w["peak_rss_mb"] for w in untraced)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        slowdown = sampled["ref_s"] / sampled["ref_calls"] / speed.REF_NOMINAL_S
        lines.append(f"{'wall_s':<12} {wall_s:12.6f} s   at reference speed, {len(rounds)} rounds")
        lines.append(f"{'peak_rss_mb':<12} {peak_rss_mb:12.6f} MB  median of {len(untraced)} workers")
        lines.append(f"{'setup_s':<12} {setup_s:12.6f} s   at reference speed, median of {len(setups)} set-ups")
        lines.append(
            f"  unscaled medians: round {statistics.median(r['wall_s'] for r in rounds):.6f} s, "
            f"set-up {statistics.median(s['wall_s'] for s in setups):.6f} s; "
            f"host ran {slowdown:.3f} x slower than the reference speed"
        )
        return metrics, lines

    traced_walls = [rnd["wall_s"] for w in traced for rnd in w["rounds"]]
    overhead_s = statistics.mean(traced_walls) - statistics.mean(
        pooled(rnd["commands"])["busy_s"] for rnd in rounds
    )
    values = tracing.layer_metrics(
        [w["layers"] for w in traced], len(traced_walls), statistics.mean(traced_walls), overhead_s
    )
    metrics = {
        name: {"value": value, "unit": tracing.LAYER_METRICS[name][0]}
        for name, value in values.items()
    }
    wall = values["trace.wall_s"]
    parts = 0.0
    for name, (unit, moves) in tracing.LAYER_METRICS.items():
        value = values[name]
        share = ""
        if unit == "s" and name not in ("trace.wall_s", "trace.overhead_s"):
            parts += value
            share = f"{100 * value / wall:6.2f} %"
        lines.append(f"{name:<34} {value:14.4f} {unit:<5} {share:>8}  -> {moves}")
    lines.append(
        f"self times sum to {parts:.6f} s of trace.wall_s {wall:.6f} s over "
        f"{len(traced_walls)} traced and {len(rounds)} untraced rounds"
    )
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqrtnfa CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqrtnfa" / "__init__.py").is_file():
        print(f"error: no sqrtnfa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    load_at_start = os.getloadavg()[0]
    if args.trace:
        for stale in SPANS_DIR.glob(f"{args.workload}-seed{args.seed}-worker*.jsonl"):
            stale.unlink()
    workers: dict[bool, list[dict]] = {False: [], True: []}
    setups: list[dict] = []
    last_s = 0.0
    try:
        while (
            len(workers[False]) + len(workers[True]) < MIN_WORKERS
            or (args.trace and not workers[True])
            or time.monotonic() - started + last_s <= args.seconds
        ):
            k = len(workers[False]) + len(workers[True])
            traced = bool(args.trace and k % 2)
            spans = SPANS_DIR / f"{args.workload}-seed{args.seed}-worker{k}.jsonl"
            t_worker = time.monotonic()
            if not traced:
                for _ in range(SETUP_ONLY_WORKERS):
                    setups.append(run_worker(args.workload, 0, None, started)["setup"])
            worker = run_worker(args.workload, ROUNDS[args.workload],
                                spans if traced else None, started)
            workers[traced].append(worker)
            if not traced:
                setups.append(worker["setup"])
            last_s = time.monotonic() - t_worker
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every = workers[False] + workers[True]
    attempted = sum(w["attempted"] for w in every)
    failed = sum(w["failed"] for w in every)
    metrics, lines = summarize(workers[False], workers[True], setups)
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": load_at_start,
        "ref_nominal_s": speed.REF_NOMINAL_S,
        **every[0]["machine"],
    }

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"workers={len(every)} elapsed_s={time.monotonic() - started:.1f}")
    print(f"fail_ratio   {failed / attempted:.6f}     ({failed} of {attempted} ops failed)")
    print("\n".join(lines))
    print(json.dumps({"machine": machine}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
