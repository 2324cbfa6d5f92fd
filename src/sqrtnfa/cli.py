"""Command-line surface tying the library together.

Exit codes are stable across subcommands: 0 means every requested check
passed (or the queried membership is true), 1 means a mathematical check
failed (membership false, violation, counterexample), 2 means a usage or
format problem, and 3 means a configured budget was exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .cases import verify_cases
from .config import DEFAULT_BUDGET, charge, check_int
from .errors import BudgetExceededError, FormatError, VerificationError
from .fooling import FoolingSet, certify_lower_bound, verify_fooling
from .nfa import (
    Nfa,
    Word,
    accept_table,
    determinize,
    dfa_accept_table,
    dfa_to_nfa,
    difference_witness,
    equivalent,
    member,
    square_accept_table,
)
from .oracle import RandomSpec, random_nfa, sqrt_dfa, sqrt_member_direct
from .sqrt import sqrt_nfa, triple_labels
from .textio import emit_nfa, parse_nfa
from .witness import witness
from .words import rank_to_word

TRIANGLE_WORD_LENGTH = 6


@dataclass(frozen=True)
class Report:
    """Reproduction summary for one witness size.

    All fields except ``timings`` are pure functions of ``n`` for a
    passing run; ``previous_bound`` is the best general lower bound known
    before the cubic one, (n-1)(n-2)(n-3).
    """

    n: int
    upper_bound_states: int
    certified_lower_bound: int
    previous_bound: int
    case_check: str
    timings: dict[str, float] = field(compare=False)

    def __post_init__(self):
        if self.certified_lower_bound > self.upper_bound_states:
            raise ValueError("certified lower bound exceeds the upper bound")
        if self.case_check not in ("pass", "fail"):
            raise ValueError(f"case_check must be pass or fail, got {self.case_check!r}")


def run_report(n: int, budget: int | None = None) -> Report:
    """Build the witness, construct its cube, certify the lower bound, and
    validate the case table; raises :class:`VerificationError` on the first
    failed check, so a Report in hand means every check ran and passed.
    """
    timings: dict[str, float] = {}
    t_total = time.perf_counter()

    t = time.perf_counter()
    auto = witness(n)
    timings["witness"] = time.perf_counter() - t

    t = time.perf_counter()
    cube = sqrt_nfa(auto, budget)
    timings["sqrt"] = time.perf_counter() - t

    t = time.perf_counter()
    certificate = certify_lower_bound(n, budget)
    timings["certify"] = time.perf_counter() - t
    if not certificate.certified:
        raise VerificationError(
            f"fooling set for n={n} not certified: {certificate.violation}"
        )

    t = time.perf_counter()
    counterexample = verify_cases(n, budget=budget)
    timings["verify_cases"] = time.perf_counter() - t
    if counterexample is not None:
        raise VerificationError(
            f"case table disagrees with the square truth table at {counterexample}"
        )

    timings["total"] = time.perf_counter() - t_total
    return Report(
        n=n,
        upper_bound_states=cube.n_states,
        certified_lower_bound=certificate.bound,
        previous_bound=(n - 1) * (n - 2) * (n - 3),
        case_check="pass",
        timings=timings,
    )


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_nfa(path: str) -> Nfa:
    return parse_nfa(_read_text(path))


def _parse_word(nfa: Nfa, text: str) -> Word:
    return tuple(nfa.letter_index(name) for name in text.split())


def _format_word(nfa: Nfa, word: Word) -> str:
    return " ".join(nfa.alphabet[a] for a in word)


def _parse_pairs(nfa: Nfa, text: str) -> FoolingSet:
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(";")
        if len(parts) != 2:
            raise FormatError(
                "pair line must be 'x-letters ; y-letters' with one ';'", line_no
            )
        try:
            x = _parse_word(nfa, parts[0])
            y = _parse_word(nfa, parts[1])
        except ValueError as exc:
            raise FormatError(str(exc), line_no) from None
        pairs.append((x, y))
    return FoolingSet(tuple(pairs))


def _cmd_witness(args: argparse.Namespace) -> int:
    _write_text(args.out, emit_nfa(witness(args.n)))
    return 0


def _cmd_sqrt(args: argparse.Namespace) -> int:
    auto = _load_nfa(args.infile)
    cube = sqrt_nfa(auto, args.budget)
    _write_text(args.out, emit_nfa(cube, state_labels=triple_labels(auto.n_states)))
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    auto = _load_nfa(args.infile)
    verdict = args.test(auto, _parse_word(auto, args.word))
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _print_fooling(report) -> int:
    if report.certified:
        print(f"certified: bound={report.bound}")
        print(f"cond1_checked={report.cond1_checked}")
        print(f"cond2_checked={report.cond2_checked}")
        return 0
    v = report.violation
    if v.kind == "cond1":
        print(f"violation: kind=cond1 i={v.i}")
    else:
        print(f"violation: kind=cond2 i={v.i} j={v.j}")
    return 1


def _cmd_check_fooling(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n is not None:
        if args.infile or args.pairs or args.mode:
            parser.error("--n cannot be combined with --in/--pairs/--mode")
        return _print_fooling(certify_lower_bound(args.n, args.budget))
    if not (args.infile and args.pairs and args.mode):
        parser.error("either --n, or all of --in, --pairs and --mode are required")
    auto = _load_nfa(args.infile)
    candidate = _parse_pairs(auto, _read_text(args.pairs))
    # condition 2 may examine every unordered pair of the candidate set
    charge("fooling set cross pairs", len(candidate) * (len(candidate) - 1) // 2, args.budget)
    oracle = partial(sqrt_member_direct if args.mode == "sqrt" else member, auto)
    return _print_fooling(verify_fooling(candidate, oracle))


def _cmd_verify_cases(args: argparse.Namespace) -> int:
    counterexample = verify_cases(args.n, budget=args.budget)
    if counterexample is None:
        print(f"verified: all {args.n**6} pairs agree")
        return 0
    x1, x2 = counterexample
    print(f"counterexample: X1={x1} X2={x2}")
    return 1


def _triangle_mismatch(auto: Nfa, cube: Nfa, fn_dfa, budget: int | None) -> Word | None:
    """First word of length <= 6 where the three membership routes split."""
    direct = square_accept_table(auto, TRIANGLE_WORD_LENGTH, budget)
    via_cube = accept_table(cube, TRIANGLE_WORD_LENGTH, budget)
    via_fn = dfa_accept_table(fn_dfa, TRIANGLE_WORD_LENGTH, budget)
    agree = (direct == via_cube) & (direct == via_fn)
    if agree.all():
        return None
    return rank_to_word(len(auto.alphabet), int(np.argmin(agree)))


def _cmd_random_equiv(args: argparse.Namespace) -> int:
    check_int(args.trials, "--trials", 1)
    spec = RandomSpec(seed=args.seed, max_states=args.max_states, alphabet_size=args.alphabet)
    # random_nfa draws one coin per (source, letter, target): refuse the
    # largest automaton the spec allows before any trial draws it
    draws = spec.max_states**2 * spec.alphabet_size
    charge("random automaton transition draws", draws, args.budget)
    failures = 0
    for trial in range(args.trials):
        seed = args.seed + trial
        auto = random_nfa(replace(spec, seed=seed))
        cube = sqrt_nfa(auto, args.budget)
        det = determinize(auto, args.budget)
        fn_dfa = sqrt_dfa(det, budget=args.budget)
        fn_nfa = dfa_to_nfa(fn_dfa)
        if not equivalent(cube, fn_nfa, args.budget):
            word = difference_witness(cube, fn_nfa, args.budget)
        else:
            word = _triangle_mismatch(auto, cube, fn_dfa, args.budget)
        if word is not None:
            print(f'trial {trial} seed={seed} failed: word "{_format_word(auto, word)}"')
            failures += 1
    if failures:
        print(f"{failures} of {args.trials} trials failed")
        return 1
    print(f"all {args.trials} trials agree")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = run_report(args.n, budget=args.budget)
    t = report.timings
    print(f"square-root state complexity report (n={report.n})")
    print(f"  upper bound, cube construction   : {report.upper_bound_states}")
    print(f"  certified lower bound, fooling   : {report.certified_lower_bound}")
    print(f"  previous best bound (n-1)(n-2)(n-3): {report.previous_bound}")
    print(f"  case table check                 : {report.case_check}")
    print(
        "  times: witness {witness:.3f}s, cube {sqrt:.3f}s, certify {certify:.3f}s, "
        "cases {verify_cases:.3f}s, total {total:.3f}s".format(**t)
    )
    print()
    print(f"n={report.n}")
    print(f"upper_bound_states={report.upper_bound_states}")
    print(f"certified_lower_bound={report.certified_lower_bound}")
    print(f"previous_bound={report.previous_bound}")
    print(f"case_check={report.case_check}")
    for phase in ("witness", "sqrt", "certify", "verify_cases", "total"):
        print(f"time_{phase}={t[phase]:.6f}")
    return 0


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the state/pair budget (default from SQRTNFA_BUDGET or "
        f"{DEFAULT_BUDGET})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqrtnfa",
        description="square-root operation on regular languages: cube construction, "
        "witness family, and fooling-set certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="emit the n-state witness automaton")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("sqrt", help="emit the cube automaton for an input NFA")
    p.add_argument("--in", dest="infile", required=True, help="input path, - for stdin")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    _add_budget(p)
    p.set_defaults(func=_cmd_sqrt)

    for name, test, help_text in (
        ("member", member, "test word membership on an NFA"),
        ("sqrt-member", sqrt_member_direct, "test whether the doubled word is accepted"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--word", required=True, help="whitespace-separated letter names")
        p.set_defaults(func=_cmd_member, test=test)

    p = sub.add_parser("check-fooling", help="verify a fooling set certificate")
    p.add_argument("--n", type=int, default=None, help="use the canonical witness set")
    p.add_argument("--in", dest="infile", default=None, help="automaton for custom sets")
    p.add_argument("--pairs", default=None, help="pairs file: 'x-letters ; y-letters'")
    p.add_argument("--mode", choices=("sqrt", "plain"), default=None)
    _add_budget(p)
    p.set_defaults(func=_cmd_check_fooling, needs_parser=True)

    p = sub.add_parser(
        "verify-cases", help="check the case table against the square truth table"
    )
    p.add_argument("--n", type=int, required=True)
    _add_budget(p)
    p.set_defaults(func=_cmd_verify_cases)

    p = sub.add_parser(
        "random-equiv", help="cube construction vs function-automaton on random NFAs"
    )
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-states", type=int, default=4)
    p.add_argument("--alphabet", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    _add_budget(p)
    p.set_defaults(func=_cmd_random_equiv)

    p = sub.add_parser("report", help="full reproduction report for one n")
    p.add_argument("--n", type=int, required=True)
    _add_budget(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "needs_parser", False):
            return args.func(args, parser)
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
