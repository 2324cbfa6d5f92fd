"""The benchmark's workloads: CLI commands made from a seed, and their checks.

Each workload is a list of ``sqrtnfa`` CLI invocations.  An *op* is one
``report``, one ``sqrt`` command or one ``random-equiv`` trial; every
command knows how many ops it stands for and counts how many of them
produced a wrong output.  Why each workload exists:

- ``report`` carries the paper's headline result (cube upper bound equal to
  the fooling-set lower bound n^3).  Most of its time is certification
  (``fooling`` plus per-word ``nfa.member``), then the n^6 tables.
- ``cube`` is the construction alone on witness automata: ``textio`` and
  ``sqrt``/``Nfa``.  It never calls ``fooling`` or ``kernels``, so a change
  to those is predicted to leave it unchanged.
- ``random-equiv`` runs 500 tiny automata through the cube, the subset
  construction, the function automaton and the accept tables, so fixed
  per-call costs dominate.  It stays at ``--max-states 4``: at 5 the CLI
  exits 2 with "accept tables support at most 64 states, got 125".

Every workload runs the same inputs whatever the benchmark's seed.  The
cost of one random-equiv trial is heavy-tailed: in one set of 1000 trials
drawn from a seed, a single trial doubled peak RSS (40 to 80 MB) and added
70% to the wall time, so trial sets drawn from the seed spread both metrics
by more than any bound the benchmark could set.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPORT_SIZES = (6, 8, 10, 12)
# The default budget of 1,000,000 refuses n = 12, whose case table has
# 12**6 = 2,985,984 cells.
REPORT_BUDGET = 4_000_000

CUBE_SIZES = (14, 16)
# sha256 of the text `sqrtnfa sqrt` emits for witness(n), recorded when this
# benchmark was written.  Emission is canonical, so the text must stay
# byte-identical.
CUBE_SHA256 = {
    6: "13067ca0a3b7f27c16170d7dd44915696c3a49de837a77d06e4a394d5a0386a1",
    14: "9ff5037cb039e70b1bf0938f1e545941e0c23833e0471833148ddd5803cc0f23",
    16: "508f9518229b74e18f71fef595eeb472017df5d9e4c4290917e588ffd628cdef",
}

# trial seeds 0..499, the automata of the 500-trial acceptance test
EQUIV_TRIALS = 500
EQUIV_CHUNKS = 10
EQUIV_MAX_STATES = 4
EQUIV_ALPHABET = 3

WORKLOADS = ("report", "cube", "random-equiv")

_TRIAL_FAILED = re.compile(r"^trial (\d+) seed=\d+ failed:", re.MULTILINE)


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the ops it stands for, and its output check.

    ``check(exit_code, stdout)`` returns how many of the ``ops`` failed;
    ``exit_code`` is None when the CLI raised instead of returning.
    """

    argv: tuple[str, ...]
    ops: int
    check: Callable[[int | None, str], int]


def _key_values(stdout: str) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    return {key.strip(): value.strip() for key, value in pairs}


def check_report(n: int, exit_code: int | None, stdout: str) -> int:
    fields = _key_values(stdout)
    expected = {
        "n": str(n),
        "upper_bound_states": str(n**3),
        "certified_lower_bound": str(n**3),
        "previous_bound": str((n - 1) * (n - 2) * (n - 3)),
        "case_check": "pass",
    }
    ok = exit_code == 0 and all(fields.get(k) == v for k, v in expected.items())
    return 0 if ok else 1


def check_cube(n: int, out_path: Path, digest: str, exit_code: int | None) -> int:
    if exit_code != 0 or not out_path.is_file():
        return 1
    text = out_path.read_bytes()
    ok = (
        text.startswith(f"states {n**3}\n".encode())
        and text.count(b"\ntrans ") == 8 * n**4
        and hashlib.sha256(text).hexdigest() == digest
    )
    return 0 if ok else 1


def check_equiv(trials: int, exit_code: int | None, stdout: str) -> int:
    failed = {int(m.group(1)) for m in _TRIAL_FAILED.finditer(stdout)}
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if exit_code == 0 and not failed and last == f"all {trials} trials agree":
        return 0
    if exit_code == 1 and failed and last == f"{len(failed)} of {trials} trials failed":
        return len(failed)
    # no trustworthy per-trial verdict: every trial counts as failed
    return trials


def report_commands(sizes=REPORT_SIZES) -> list[Command]:
    """``sqrtnfa report --n N --budget REPORT_BUDGET`` for each size,
    smallest first."""
    return [
        Command(
            ("report", "--n", str(n), "--budget", str(REPORT_BUDGET)),
            1,
            lambda code, out, n=n: check_report(n, code, out),
        )
        for n in sizes
    ]


def cube_commands(workdir: Path, sizes=CUBE_SIZES, digests=CUBE_SHA256) -> list[Command]:
    """``sqrtnfa sqrt`` on witness files, which this writes into ``workdir``,
    smallest first."""
    from sqrtnfa import emit_nfa, witness

    workdir.mkdir(parents=True, exist_ok=True)
    commands = []
    for n in sizes:
        src, out = workdir / f"witness{n}.nfa", workdir / f"cube{n}.nfa"
        src.write_text(emit_nfa(witness(n)), encoding="utf-8")
        out.unlink(missing_ok=True)
        commands.append(
            Command(
                ("sqrt", "--in", str(src), "--out", str(out)),
                1,
                lambda code, _out, n=n, out=out: check_cube(n, out, digests[n], code),
            )
        )
    return commands


def equiv_commands(trials=EQUIV_TRIALS, chunks=EQUIV_CHUNKS) -> list[Command]:
    """``sqrtnfa random-equiv`` over the trials with seeds 0..trials-1.
    Trial k of a command uses seed base + k, so ``chunks`` commands of
    trials/chunks trials each, with consecutive base seeds, run exactly the
    trials of one command; each shorter command is scaled by the host
    speed sampled while it ran (see speed.py)."""
    size = trials // chunks
    if size * chunks != trials:
        raise ValueError(f"{trials} trials do not split into {chunks} chunks")
    return [
        Command(
            (
                "random-equiv",
                "--trials", str(size),
                "--max-states", str(EQUIV_MAX_STATES),
                "--alphabet", str(EQUIV_ALPHABET),
                "--seed", str(k * size),
            ),
            size,
            lambda code, out: check_equiv(size, code, out),
        )
        for k in range(chunks)
    ]


def build(workload: str, workdir: Path) -> list[Command]:
    """The workload's commands.  Report and cube run the witness family in a
    fixed order, because the order of the sizes moves peak RSS by up to 6%."""
    if workload == "report":
        return report_commands()
    if workload == "cube":
        return cube_commands(workdir)
    if workload == "random-equiv":
        return equiv_commands()
    raise ValueError(f"unknown workload {workload!r}")


def budget_arg(commands: list[Command]) -> int | None:
    """The ``--budget`` the commands pass, None for the CLI default."""
    for command in commands:
        if "--budget" in command.argv:
            return int(command.argv[command.argv.index("--budget") + 1])
    return None
