"""Smoke test of the benchmark at tiny sizes; run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

The sizes are ``report --n 6``, ``sqrt`` on witness(6) and ``random-equiv
--trials 5``: seven ops in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import sqrtnfa.cli  # noqa: E402
import sqrtnfa.sqrt  # noqa: E402

import job  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_OPS = 1 + 1 + 5


def tiny_commands(workdir: Path, digests=workloads.CUBE_SHA256):
    return (
        workloads.report_commands(sizes=(6,))
        + workloads.cube_commands(workdir, sizes=(6,), digests=digests)
        + workloads.equiv_commands(trials=5, chunks=1)
    )


def tiny_worker(workdir: Path, tracer=None) -> dict:
    """What one worker of a run reports, for one round of the tiny
    commands; untraced, the host's speed is sampled as job.py does."""
    sampler = speed.Sampler()
    if tracer is None:
        sampler.start()
    try:
        t0 = time.perf_counter()
        commands = tiny_commands(workdir)
        setup = job.timing(time.perf_counter() - t0, (0, 0.0), sampler.reading())
        if tracer:
            tracer.install()
        try:
            rnd = job.run_commands(commands, tracer, sampler)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        sampler.stop()
    worker = {
        "setup": setup,
        "rounds": [{"wall_s": rnd["wall_s"], "commands": rnd["commands"]}],
        "peak_rss_mb": rnd["peak_rss_mb"],
        "attempted": rnd["attempted"],
        "failed": rnd["failed"],
    }
    if tracer:
        worker["layers"] = tracer.summary()
    return worker


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_end_to_end_metrics_match_the_benchmark_file(tmp_path):
    worker = tiny_worker(tmp_path)
    assert (worker["attempted"], worker["failed"]) == (TINY_OPS, 0)
    metrics, _lines = run.summarize([worker], [], [worker["setup"]])
    assert {name: m["unit"] for name, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    sampled = sum(t["ref_calls"] for t in worker["rounds"][0]["commands"])
    assert sampled > 0


def test_times_scale_by_the_host_speed_sampled_with_them():
    # ten reference calls took twice their nominal time: the host ran at
    # half the reference speed, so 2 s busy are 1 s at that speed
    timing = {"wall_s": 2.02, "busy_s": 2.0, "ref_calls": 10,
              "ref_s": 20 * speed.REF_NOMINAL_S}
    assert abs(run.at_reference_speed(timing, fallback=None) - 1.0) < 1e-12
    unsampled = dict(timing, ref_calls=0, ref_s=0.0)
    assert abs(run.at_reference_speed(unsampled, fallback=timing) - 1.0) < 1e-12


def test_traced_run_reports_every_layer_metric(tmp_path):
    untraced = tiny_worker(tmp_path)
    tracer = tracing.Tracer()
    traced = tiny_worker(tmp_path, tracer)
    # uninstall restores every public name the tracer replaced
    assert sqrtnfa.cli.sqrt_nfa is sqrtnfa.sqrt.sqrt_nfa
    assert traced["failed"] == 0

    metrics, _lines = run.summarize([untraced], [traced], [untraced["setup"]])
    assert {name: m["unit"] for name, m in metrics.items()} == declared("per_layer")
    values = {name: m["value"] for name, m in metrics.items()}
    parts = sum(v for name, v in values.items()
                if metrics[name]["unit"] == "s" and name not in ("trace.wall_s", "trace.overhead_s"))
    assert abs(parts - traced["rounds"][0]["wall_s"]) < 1e-9
    assert values["trace.wall_s"] == traced["rounds"][0]["wall_s"]
    assert values["fooling.certify_s"] > 0 and values["sqrt.sqrt_nfa_s"] > 0
    for count in ("nfa.member_calls", "fooling.cond2_checked", "kernels.table_cells",
                  "kernels.words_tabulated", "nfa.determinize_calls", "oracle.fn_states"):
        assert values[count] > 0, count
    assert values["sqrt.cube_transitions"] >= 8 * 6**4
    assert values["cases.budget_used"] == 6**6 / workloads.REPORT_BUDGET

    spans = tmp_path / "spans.jsonl"
    tracer.write(spans, 0.0, {"workload": "tiny"})
    records = [json.loads(line) for line in spans.read_text().splitlines()[1:]]
    assert {r["name"] for r in records if r["parent"] is None} == {tracing.ROOT_SPAN}
    assert {r["op"] for r in records} == {0, 1, 2}


def test_doctored_cube_digest_counts_as_failed(tmp_path):
    commands = tiny_commands(tmp_path, digests={6: "0" * 64})
    rep = job.run_commands(commands)
    assert (rep["attempted"], rep["failed"]) == (TINY_OPS, 1)


def test_checks_reject_doctored_outputs(tmp_path):
    good = "n=6\nupper_bound_states=216\ncertified_lower_bound=216\n" \
           "previous_bound=60\ncase_check=pass\n"
    assert workloads.check_report(6, 0, good) == 0
    assert workloads.check_report(6, 0, good.replace("=216\nprev", "=215\nprev")) == 1
    assert workloads.check_report(6, 1, good) == 1

    assert workloads.check_equiv(5, 0, "all 5 trials agree\n") == 0
    two_failed = 'trial 1 seed=8 failed: word "l0"\ntrial 3 seed=10 failed: word ""\n' \
                 "2 of 5 trials failed\n"
    assert workloads.check_equiv(5, 1, two_failed) == 2
    assert workloads.check_equiv(5, 2, "") == 5
    assert workloads.check_equiv(5, None, "all 5 trials agree\n") == 5


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cube", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
