import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc
from itertools import compress, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtnfa import (
    Dfa,
    FormatError,
    RandomSpec,
    Report,
    TripleCodec,
    cli,
    determinize,
    difference_witness,
    emit_nfa,
    equivalent,
    main,
    member,
    nfa,
    parse_nfa,
    random_nfa,
    relation_dfa,
    run_report,
    sqrt_dfa,
    sqrt_nfa,
    textio,
    witness,
    witness_fooling_set,
)
from sqrtnfa.nfa import _product, _square_walk, _walk, explore
from sqrtnfa.oracle import _function_walk
from sqrtnfa.sqrt import triple_labels
from sqrtnfa.config import BUDGET_ENV
from sqrtnfa import fooling, kernels
from sqrtnfa.fooling import _witness_grid
from sqrtnfa.kernels import _Grid, orbit_cells
from conftest import make_nfa, mutant, nfas


@pytest.fixture()
def w6_file(tmp_path, witness6):
    path = tmp_path / "w6.nfa"
    path.write_text(emit_nfa(witness6), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWitnessCommand:
    def test_stdout_output_parses_back(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "6")
        assert code == 0
        assert parse_nfa(out) == witness(6)

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "out.nfa"
        code, out, _ = run(capsys, "witness", "--n", "6", "--out", str(target))
        assert code == 0 and out == ""
        assert parse_nfa(target.read_text()) == witness(6)

    def test_too_small_is_usage_error(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "5")
        assert code == 2 and "needs n >= 6" in err


class TestSqrtCommand:
    def test_cube_with_labels(self, capsys, w6_file, cube6):
        code, out, _ = run(capsys, "sqrt", "--in", w6_file)
        assert code == 0
        assert "# state 0 = (0, 0, 0)" in out
        assert "# state 215 = (5, 5, 5)" in out
        assert parse_nfa(out) == cube6

    def test_budget_exit_code(self, capsys, w6_file):
        code, _, err = run(capsys, "sqrt", "--in", w6_file, "--budget", "100")
        assert code == 3 and "budget" in err.lower()

    def test_transition_budget_exit_code(self, capsys, tmp_path):
        complete = "".join(f"trans {p} a {q}\n" for p in range(4) for q in range(4))
        path = tmp_path / "complete4.nfa"
        path.write_text(f"states 4\nalphabet a\ninitial 0\nfinal 3\n{complete}")
        code, out, err = run(capsys, "sqrt", "--in", str(path), "--budget", "1000")
        assert code == 3 and out == ""
        assert "cube construction transitions: needs 1024" in err

    def test_a_budget_below_the_input_states_names_them(self, capsys, w6_file):
        code, out, err = run(capsys, "sqrt", "--in", w6_file, "--budget", "5")
        assert (code, out) == (3, "")
        assert err == "budget exceeded: input automaton states: needs 6, exceeds budget 5\n"

    def test_stdin_roundtrip(self, capsys, monkeypatch):
        small = "states 1\nalphabet a\ninitial 0\nfinal 0\ntrans 0 a 0\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(small))
        code, out, _ = run(capsys, "sqrt", "--in", "-")
        assert code == 0
        assert parse_nfa(out).n_states == 1

    def test_the_writer_holds_one_block_at_a_time(self):
        # the labelled cube of witness(16) is 13.6 million characters, never held whole
        cube, labels = sqrt_nfa(witness(16)), triple_labels(16)
        length = sum(map(len, textio._pieces(cube, labels)))
        tracemalloc.start()
        try:
            cli._write_pieces(os.devnull, textio._pieces(cube, labels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < length / 4

    def test_a_bad_label_leaves_the_out_file_untouched(
        self, capsys, monkeypatch, w6_file, tmp_path
    ):
        message = "label of state 0 contains a line break"
        with pytest.raises(ValueError, match=f"^{message}$"):
            textio._pieces(witness(6), {0: "x\ny"})  # at the call, before any piece
        target = tmp_path / "cube.nfa"
        target.write_text("kept\n")
        monkeypatch.setattr(cli, "triple_labels", lambda n: {0: "x\ny"})
        code, out, err = run(capsys, "sqrt", "--in", w6_file, "--out", str(target))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert target.read_text() == "kept\n"

    def test_a_wide_letter_field_exits_3_and_writes_nothing(self, capsys, monkeypatch, tmp_path):
        # 1,000 letters, one of them 10,000 bytes long: the input still parses
        # (per line), and the cube's line tables are refused before any write
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        names = [f"l{i}" for i in range(999)] + ["x" * 10_000]
        source = tmp_path / "wide.nfa"
        source.write_text(
            f"states 2\nalphabet {' '.join(names)}\ninitial 0\nfinal 1\n"
            f"trans 0 {names[-1]} 1\ntrans 1 l0 0\n"
        )
        target = tmp_path / "cube.nfa"
        code, out, err = run(capsys, "sqrt", "--in", str(source), "--out", str(target))
        assert (code, out) == (3, "")
        assert err.startswith("budget exceeded: emitted letter field padding: needs ")
        assert err.endswith(", exceeds budget 1000000\n")
        assert not target.exists()

    @pytest.mark.parametrize("command", [["sqrt", "--in", "W6"], ["witness", "--n", "6"]])
    def test_a_directory_as_out_is_a_usage_error(self, capsys, w6_file, tmp_path, command):
        argv = [w6_file if arg == "W6" else arg for arg in command]
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


class TestMembership:
    def test_member_true(self, capsys, w6_file):
        word = "a[2,3,5] b[2,3,5] a[2,3,5] b[2,3,5]"
        code, out, _ = run(capsys, "member", "--in", w6_file, "--word", word)
        assert code == 0 and out.strip() == "true"

    def test_member_false(self, capsys, w6_file):
        code, out, _ = run(capsys, "member", "--in", w6_file, "--word", "a[0,0,0]")
        assert code == 1 and out.strip() == "false"

    def test_member_empty_word(self, capsys, w6_file):
        code, out, _ = run(capsys, "member", "--in", w6_file, "--word", "")
        assert code == 1 and out.strip() == "false"

    def test_sqrt_member(self, capsys, w6_file):
        code, out, _ = run(
            capsys, "sqrt-member", "--in", w6_file, "--word", "a[2,3,5] b[2,3,5]"
        )
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(
            capsys, "sqrt-member", "--in", w6_file, "--word", "a[0,1,1] b[0,2,2]"
        )
        assert code == 1 and out.strip() == "false"

    def test_the_parser_is_built_once_and_reads_the_test_when_run(
        self, capsys, monkeypatch, w6_file
    ):
        # the cached parser holds no test function: one replaced after it
        # was built is the one sqrt-member runs
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "sqrt_member_direct", lambda auto, word: True)
        argv = ("--in", w6_file, "--word", "a[0,1,1] b[0,2,2]")
        assert run(capsys, "sqrt-member", *argv)[:2] == (0, "true\n")
        assert run(capsys, "member", *argv)[:2] == (1, "false\n")

    def test_unknown_letter_is_usage_error(self, capsys, w6_file):
        code, _, err = run(capsys, "member", "--in", w6_file, "--word", "zz")
        assert code == 2 and "unknown letter" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "member", "--in", str(tmp_path / "nope"), "--word", "")
        assert code == 2


class TestInputStates:
    """An automaton file's state count is charged before anything is sized
    by it; the budget comes from --budget where the command has one, else
    from the environment."""

    # the most states whose transition keys fit in int64 is about 3 * 10**9
    HUGE = "states 1000000000\nalphabet a\ninitial 0\nfinal 999999999\ntrans 0 a 0\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["member", "--word", "a"],
            ["sqrt-member", "--word", "a"],
            ["check-fooling", "--pairs", "-", "--mode", "sqrt"],
            ["sqrt"],
        ],
        ids=lambda command: command[0],
    )
    def test_a_huge_state_count_is_refused(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        path = tmp_path / "huge.nfa"
        path.write_text(self.HUGE)
        code, out, err = run(capsys, *command, "--in", str(path))
        assert (code, out) == (3, "")
        assert err == (
            "budget exceeded: input automaton states: "
            "needs 1000000000, exceeds budget 1000000\n"
        )

    @pytest.mark.parametrize(
        "command",
        [["member", "--word", "a"], ["sqrt"]],
        ids=lambda command: command[0],
    )
    def test_keys_past_int64_are_a_usage_error(self, capsys, monkeypatch, tmp_path, command):
        # refused whatever the budget; under the default budget the parent
        # refused this file on its state count (exit 3)
        monkeypatch.setenv(BUDGET_ENV, str(2**40))
        path = tmp_path / "past-the-key-limit.nfa"
        path.write_text("states 4294967296\nalphabet a\ninitial 0\nfinal 0\ntrans 0 a 0\n")
        code, out, err = run(capsys, *command, "--in", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: transition keys need n*n*sigma below 2**63, "
            "but n = 4294967296 and sigma = 1 give 18446744073709551616\n"
        )

    def test_the_budget_variable_bounds_member(self, capsys, monkeypatch, w6_file):
        argv = ("member", "--in", w6_file, "--word", "a[2,3,5] b[2,3,5] a[2,3,5] b[2,3,5]")
        monkeypatch.setenv(BUDGET_ENV, "6")
        assert run(capsys, *argv) == (0, "true\n", "")
        monkeypatch.setenv(BUDGET_ENV, "5")
        assert run(capsys, *argv) == (
            3, "", "budget exceeded: input automaton states: needs 6, exceeds budget 5\n"
        )


class TestCheckFooling:
    def test_canonical_set_certifies(self, capsys):
        code, out, _ = run(capsys, "check-fooling", "--n", "6")
        assert code == 0
        assert "certified: bound=216" in out
        assert "cond2_checked=23220" in out

    def test_doctored_pairs_file(self, capsys, w6_file, tmp_path):
        pairs = tmp_path / "doctored.pairs"
        pairs.write_text("a[0,1,1] ; b[0,1,1]\na[0,1,1] ; b[0,2,2]\n")
        code, out, _ = run(
            capsys, "check-fooling", "--in", w6_file,
            "--pairs", str(pairs), "--mode", "sqrt",
        )
        assert code == 1
        assert "violation: kind=cond1 i=2" in out

    def test_plain_mode_uses_undoubled_words(self, capsys, w6_file, tmp_path):
        # the squared diagonal word is in L itself, so plain mode certifies
        pairs = tmp_path / "plain.pairs"
        pairs.write_text("a[2,3,5] b[2,3,5] ; a[2,3,5] b[2,3,5]\n")
        code, out, _ = run(
            capsys, "check-fooling", "--in", w6_file,
            "--pairs", str(pairs), "--mode", "plain",
        )
        assert code == 0 and "certified: bound=1" in out

    def test_pairs_file_comments_and_blanks(self, capsys, w6_file, tmp_path):
        pairs = tmp_path / "c.pairs"
        pairs.write_text("# comment\n\na[2,3,5] ; b[2,3,5]  # diagonal\n")
        code, out, _ = run(
            capsys, "check-fooling", "--in", w6_file,
            "--pairs", str(pairs), "--mode", "sqrt",
        )
        assert code == 0 and "certified: bound=1" in out

    def test_bad_pair_line_is_format_error(self, capsys, w6_file, tmp_path):
        pairs = tmp_path / "bad.pairs"
        pairs.write_text("a[0,0,0] b[0,0,0]\n")  # no separator
        code, _, err = run(
            capsys, "check-fooling", "--in", w6_file,
            "--pairs", str(pairs), "--mode", "sqrt",
        )
        assert code == 2 and "line 1" in err

    def test_unknown_letter_in_pairs_is_format_error(self, capsys, w6_file, tmp_path):
        pairs = tmp_path / "bad.pairs"
        pairs.write_text("a[0,0,0] ; zz\n")
        code, _, err = run(
            capsys, "check-fooling", "--in", w6_file,
            "--pairs", str(pairs), "--mode", "sqrt",
        )
        assert code == 2 and "unknown letter" in err

    def test_the_canonical_pairs_of_witness_20_parse_into_the_canonical_set(self):
        # 16,000 lines, 32,000 names looked up among 16,000 letters
        n = 20
        lines = (f"a[{p},{q},{r}] ; b[{p},{q},{r}]\n" for p, q, r in product(range(n), repeat=3))
        assert cli._parse_pairs(witness(n), "".join(lines)) == witness_fooling_set(n)
        for line in ("a[0,0,0] ; a[20,0,0]\n", "c[0,0,0] ; b[0,0,0]\n"):
            with pytest.raises(FormatError, match=r"unknown letter '[ac]\[[0-9,]+\]'"):
                cli._parse_pairs(witness(n), line)

    def test_budget_caps_the_cross_pairs(self, capsys, w6_file, tmp_path):
        pairs = tmp_path / "canonical.pairs"
        lines = (f"a[{p},{q},{r}] ; b[{p},{q},{r}]\n" for p, q, r in product(range(6), repeat=3))
        pairs.write_text("".join(lines))
        argv = ["check-fooling", "--in", w6_file, "--pairs", str(pairs), "--mode", "sqrt"]
        code, out, err = run(capsys, *argv, "--budget", "23219")
        assert (code, out) == (3, "")
        assert err == (
            "budget exceeded: fooling set cross pairs: needs 23220, exceeds budget 23219\n"
        )
        code, out, _ = run(capsys, *argv, "--budget", "23220")
        assert code == 0
        assert out == "certified: bound=216\ncond1_checked=216\ncond2_checked=23220\n"

    def test_n_and_in_conflict(self, capsys, w6_file):
        with pytest.raises(SystemExit) as info:
            main(["check-fooling", "--n", "6", "--in", w6_file])
        assert info.value.code == 2

    def test_in_without_mode_is_usage_error(self, capsys, w6_file, tmp_path):
        pairs = tmp_path / "p.pairs"
        pairs.write_text("a[0,0,0] ; b[0,0,0]\n")
        with pytest.raises(SystemExit) as info:
            main(["check-fooling", "--in", w6_file, "--pairs", str(pairs)])
        assert info.value.code == 2

    def test_usage_errors_name_the_subcommand(self, capsys, w6_file):
        with pytest.raises(SystemExit):
            main(["check-fooling", "--n", "6", "--in", w6_file])
        err = capsys.readouterr().err
        assert err.startswith("usage: sqrtnfa check-fooling ")
        assert err.endswith(
            "sqrtnfa check-fooling: error: --n cannot be combined with --in/--pairs/--mode\n"
        )


class TestVerifyCases:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "verify-cases", "--n", "6")
        assert code == 0
        assert "verified: all 46656 pairs agree" in out

    def test_drop_case_mutation_finds_counterexample(self, capsys):
        with mutant("drop_case=3"):
            code, out, err = run(capsys, "verify-cases", "--n", "6")
        assert (code, out, err) == (1, "counterexample: X1=(0, 0, 1) X2=(0, 0, 1)\n", "")

    def test_identity_mutation_finds_counterexample(self, capsys):
        with mutant("identity_l=True"):
            code, out, _ = run(capsys, "verify-cases", "--n", "6")
        assert code == 1 and "counterexample" in out

    def test_the_mutate_flag_is_gone(self):
        # damaged tables are test mutants (conftest.py), not a CLI option
        with pytest.raises(SystemExit) as info:
            main(["verify-cases", "--n", "6", "--mutate", "drop-case=3"])
        assert info.value.code == 2

    def test_budget_exit(self, capsys):
        code, _, err = run(capsys, "verify-cases", "--n", "6", "--budget", "100")
        assert code == 3

    def test_default_budget_covers_the_cells_read(self, capsys, monkeypatch):
        # 12^6 pairs, but one cell per orbit read: 163,967 < 1,000,000
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        code, out, err = run(capsys, "verify-cases", "--n", "12")
        assert (code, out, err) == (0, "verified: all 2985984 pairs agree\n", "")


class TestRandomEquiv:
    def test_trials_agree(self, capsys):
        code, out, _ = run(
            capsys, "random-equiv", "--trials", "10",
            "--max-states", "4", "--alphabet", "3", "--seed", "7",
        )
        assert code == 0 and "all 10 trials agree" in out

    def test_budget_reaches_the_product_walk(self, capsys, monkeypatch):
        # at 3 and 4 states a phase charged before the walk of the three
        # routes (most often the cube's transitions) bound first on every
        # seed checked, so spy on the budget it is handed
        real, budgets = cli._first_split, []

        def spy(walks, cap, what):
            budgets.append(cap)
            return real(walks, cap, what)

        monkeypatch.setattr(cli, "_first_split", spy)
        argv = ("random-equiv", "--trials", "4", "--seed", "0")
        assert run(capsys, *argv, "--budget", "54321")[:2] == (0, "all 4 trials agree\n")
        assert run(capsys, *argv)[0] == 0
        assert budgets == [54321] * 4 + [None] * 4

    def test_the_relation_dfa_can_be_the_binding_phase(self, capsys):
        # seed 66 at 5 states: every phase before it fits 1,448 units, and
        # the walk of the three routes numbers the relation DFA's 1,449
        # states, one triple per relation
        argv = ("random-equiv", "--trials", "1", "--max-states", "5", "--seed", "66")
        code, out, err = run(capsys, *argv, "--budget", "1448")
        assert (code, out) == (3, "")
        assert err == "budget exceeded: square-root route triples: needs 1449, exceeds budget 1448\n"
        assert run(capsys, *argv, "--budget", "1449")[:2] == (0, "all 1 trials agree\n")

    def test_the_function_maps_are_charged_as_route_triples(self, capsys):
        # seed 15 at 4 states: the function automaton and the relation DFA
        # both have 1,311 states.  The trial steps the maps inside its walk
        # and builds no function automaton, so the phase refusing 1,310 is
        # the walk's
        argv = ("random-equiv", "--trials", "1", "--seed", "15")
        code, out, err = run(capsys, *argv, "--budget", "1310")
        assert (code, out) == (3, "")
        assert err == "budget exceeded: square-root route triples: needs 1311, exceeds budget 1310\n"
        assert run(capsys, *argv, "--budget", "1311")[:2] == (0, "all 1 trials agree\n")

    def test_ten_letters_fit_the_default_budget(self, capsys, monkeypatch):
        # no table of the 1,111,111 words of length <= 6 over ten letters
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        argv = ("random-equiv", "--trials", "5", "--seed", "0", "--alphabet", "10")
        assert run(capsys, *argv)[:2] == (0, "all 5 trials agree\n")

    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_no_trials_is_a_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "random-equiv", "--trials", trials, "--seed", "0")
        assert code == 2 and "trials agree" not in out
        assert f"--trials {trials} out of range" in err

    def test_five_states_past_the_old_cap(self, capsys):
        # 125-state cubes fit with no state cap
        code, out, _ = run(
            capsys, "random-equiv", "--trials", "20", "--max-states", "5", "--seed", "0"
        )
        assert code == 0 and "all 20 trials agree" in out

    def test_oversized_automata_are_refused_before_any_draw(self, capsys, monkeypatch):
        def no_draw(spec):
            raise AssertionError("random_nfa called")

        monkeypatch.setattr(cli, "random_nfa", no_draw)
        code, out, err = run(
            capsys, "random-equiv", "--trials", "1", "--seed", "3",
            "--max-states", "800", "--budget", "1000",
        )
        assert code == 3 and out == ""
        assert "random automaton transition draws: needs 1920000, exceeds budget 1000" in err
        # a bad argument is still a usage error, whatever the budget
        code, _, err = run(
            capsys, "random-equiv", "--trials", "1", "--seed", "-1",
            "--max-states", "800", "--budget", "1000",
        )
        assert code == 2 and "seed -1 out of range" in err

    def test_runs_as_a_module(self):
        # python -m once ran nothing and exited 0: cli.py had no __main__ guard
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        module = (sys.executable, "-m", "sqrtnfa.cli", "random-equiv", "--seed", "0", "--trials")
        done = subprocess.run((*module, "3"), capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (0, "all 3 trials agree\n")
        done = subprocess.run((*module, "0"), capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (2, "")
        assert "error: --trials 0 out of range" in done.stderr
        # the package runs too, with no runpy warning: sqrtnfa.cli is not run twice
        package = (sys.executable, "-m", "sqrtnfa", "random-equiv", "--seed", "0", "--trials")
        done = subprocess.run((*package, "3"), capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (0, "all 3 trials agree\n", "")

    def test_seed_is_required(self):
        with pytest.raises(SystemExit) as info:
            main(["random-equiv", "--trials", "2"])
        assert info.value.code == 2

    def test_a_cube_that_loses_a_final_state_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sqrt_nfa", losing_a_final_state(cli.sqrt_nfa))
        code, out, err = run(capsys, "random-equiv", "--trials", "5", "--seed", "0")
        assert (code, err) == (1, "")
        assert out == 'trial 2 seed=2 failed: word "l0 l1"\n1 of 5 trials failed\n'

    def test_a_direct_route_wrong_past_length_6_fails(self, capsys, monkeypatch):
        # the direct route also accepts every word of length 7, so the walk
        # splits at the least length-7 word outside the square root: the
        # words of length <= 6 all agree
        monkeypatch.setattr(cli, "_square_walk", accepting_at_length(cli._square_walk, 7))
        code, out, err = run(capsys, "random-equiv", "--trials", "5", "--seed", "0")
        assert (code, err) == (1, "")
        zeros = " ".join(["l0"] * 7)
        words = [zeros, zeros, zeros, "l0 l0 l0 l0 l0 l1 l0", zeros]
        lines = [f'trial {t} seed={t} failed: word "{words[t]}"' for t in range(5)]
        assert out.splitlines() == [*lines, "5 of 5 trials failed"]

    def test_a_function_route_past_256_states_is_a_usage_error(self, capsys, monkeypatch):
        # the function route's maps are byte strings: a 257-state
        # determinized input is refused before the walk starts
        def wide(auto, budget=None):
            rows = tuple(((s + 1) % 257,) * len(auto.alphabet) for s in range(257))
            return Dfa(257, auto.alphabet, 0, {0}, rows)

        monkeypatch.setattr(cli, "determinize", wide)
        code, out, err = run(capsys, "random-equiv", "--trials", "1", "--seed", "0")
        assert (code, out) == (2, "")
        assert err == "error: sqrt_dfa supports at most 256 states, got 257\n"

    def test_a_function_route_wrong_at_length_4_fails(self, capsys, monkeypatch):
        # the function route alone also accepts every word of length 4:
        # the walk splits at the least length-4 word outside the square root
        monkeypatch.setattr(cli, "_function_walk", accepting_at_length(cli._function_walk, 4))
        code, out, err = run(capsys, "random-equiv", "--trials", "5", "--seed", "0")
        assert (code, err) == (1, "")
        words = ["l0 l0 l0 l0"] * 3 + ["l0 l0 l0 l1", "l0 l0 l0 l0"]
        lines = [f'trial {t} seed={t} failed: word "{words[t]}"' for t in range(5)]
        assert out.splitlines() == [*lines, "5 of 5 trials failed"]

    def test_two_wrong_routes_report_the_least_word(self, capsys, monkeypatch):
        # trial 2's lossy cube first rejects "l0 l1" (see above); with the
        # direct route also wrong, the one walk reports whichever word
        # comes first length-lex: the direct route's "l0" at length 1, the
        # cube's "l0 l1" against the direct route's "l0 l0 l0" at length 3
        real_square = cli._square_walk
        monkeypatch.setattr(cli, "sqrt_nfa", losing_a_final_state(cli.sqrt_nfa))
        argv = ("random-equiv", "--trials", "5", "--seed", "0")
        for length, words in (
            (1, ["l0", "l0", "l0", None, "l0"]),
            (3, ["l0 l0 l0", "l0 l0 l0", "l0 l1", "l0 l1 l0", "l0 l0 l0"]),
        ):
            monkeypatch.setattr(cli, "_square_walk", accepting_at_length(real_square, length))
            code, out, err = run(capsys, *argv)
            lines = [
                f'trial {t} seed={t} failed: word "{word}"'
                for t, word in enumerate(words)
                if word is not None
            ]
            assert (code, err) == (1, "")
            assert out.splitlines() == [*lines, f"{len(lines)} of 5 trials failed"]


def losing_a_final_state(sqrt_nfa):
    """``sqrt_nfa`` damaged to drop the least final state of each cube."""

    def lossy(auto, budget=None):
        cube = sqrt_nfa(auto, budget)
        return dataclasses.replace(cube, final=cube.final - {min(cube.final, default=0)})

    return lossy


def accepting_at_length(route_walk, length: int):
    """``route_walk`` (``_square_walk`` or ``_function_walk``) damaged to
    also accept every word of ``length`` letters: its node is (the route's
    node, letters read, capped at 8)."""

    def damaged(auto):
        start, step, accepts = route_walk(auto)
        return (
            (start, 0),
            lambda node: [(x, min(node[1] + 1, 8)) for x in step(node[0])],
            lambda node: accepts(node[0]) or node[1] == length,
        )

    return damaged


@pytest.fixture(scope="module")
def small_scope():
    """Every automaton with 1 or 2 states over 1 or 2 letters: every
    relation, every non-empty initial set, every final set."""
    automata = []
    for n, sigma in product((1, 2), repeat=2):
        triples = list(product(range(n), range(sigma), range(n)))
        sets = [{s for s in range(n) if bits >> s & 1} for bits in range(1 << n)]
        for keep in product((False, True), repeat=len(triples)):
            relation = list(compress(triples, keep))
            for initial, final in product(sets[1:], sets):
                automata.append(make_nfa(n, sigma, relation, initial, final))
    return automata


def unary_orbits():
    """One automaton per orbit of the 28,672 automata with 3 states over
    one letter (every relation, every non-empty initial set, every final
    set) under the 6 permutations of the states: the orbit's least
    (relation, initial, final) as bitmasks, bit 3s + t of a relation
    standing for its pair (s, t)."""
    perms = list(permutations(range(3)))
    # each permutation's image of every set mask and of every relation mask
    sets = [[sum(1 << p[s] for s in range(3) if b >> s & 1) for b in range(8)] for p in perms]
    relations = [
        [sum(1 << 3 * p[k // 3] + p[k % 3] for k in range(9) if b >> k & 1) for b in range(512)]
        for p in perms
    ]
    images = list(zip(relations, sets))
    orbits = {
        min((rel[r], set_[i], set_[f]) for rel, set_ in images)
        for r in range(512)
        for i in range(1, 8)
        for f in range(8)
    }
    return [
        make_nfa(
            3, 1,
            [(k // 3, 0, k % 3) for k in range(9) if r >> k & 1],
            {s for s in range(3) if i >> s & 1},
            {s for s in range(3) if f >> s & 1},
        )
        for r, i, f in sorted(orbits)
    ]


class TestSmallScope:
    """The check of one random-equiv trial, run on every automaton of a
    small scope instead of on random draws."""

    def test_every_small_automaton_agrees_on_all_routes(self, small_scope):
        assert len(small_scope) == 4 + 8 + 192 + 3072
        mismatches = [
            (auto, word)
            for auto in small_scope
            if (word := cli._route_mismatch(auto, None)) is not None
        ]
        assert mismatches == []

    def test_every_three_state_unary_orbit_agrees_on_all_routes(self):
        orbits = unary_orbits()
        assert len(orbits) == 4_976
        assert [auto for auto in orbits if cli._route_mismatch(auto, None) is not None] == []

    def test_a_cube_blind_to_the_midpoint_is_caught(self, small_scope, monkeypatch):
        real = cli.sqrt_nfa

        def midpoint_blind(auto, budget=None):
            # (p, q, f) is final for every q, not only for q = p
            cube = real(auto, budget)
            n, codec = auto.n_states, TripleCodec(auto.n_states)
            final = {
                codec.encode(p, q, f) for p in range(n) for q in range(n) for f in auto.final
            }
            return dataclasses.replace(cube, final=frozenset(final))

        monkeypatch.setattr(cli, "sqrt_nfa", midpoint_blind)
        assert any(cli._route_mismatch(auto, None) is not None for auto in small_scope)


@pytest.mark.parametrize("n", [6])
def test_the_three_routes_agree_on_the_witness(n):
    # the cube, the function route and the direct route on the paper's
    # own hard instance: no word tells them apart
    assert cli._route_mismatch(witness(n), 10**7) is None


def two_equivalences(cube, fn, rel):
    """The check of a random-equiv trial as two exact equivalences, the
    reference for the one walk: the least word splitting the cube from the
    function automaton, else the least splitting the function automaton
    from the relation automaton, else None."""
    if not equivalent(cube, fn):
        return difference_witness(cube, fn)
    if not equivalent(fn, rel):
        return difference_witness(fn, rel)
    return None


def length_lex(word):
    return len(word), word


class TestRouteWalk:
    """The one walk of a trial against the two equivalences it replaced,
    on random automata whose cube or direct route may be damaged."""

    @settings(max_examples=150, deadline=None)
    @given(nfas(), st.data())
    def test_the_walk_fails_exactly_when_an_equivalence_does(self, auto, data):
        cube, fn, rel = sqrt_nfa(auto), sqrt_dfa(determinize(auto)), relation_dfa(auto)
        # toggle a few final cube states, and the acceptance of a few
        # relations: relation i is the relation DFA's state i
        cube_flips = data.draw(st.sets(st.integers(0, cube.n_states - 1), max_size=2))
        rel_flips = data.draw(st.sets(st.integers(0, rel.n_states - 1), max_size=2))
        cube = dataclasses.replace(cube, final=cube.final ^ cube_flips)
        rel = Dfa(rel.n_states, rel.alphabet, 0, rel.final ^ rel_flips, rel.transitions)
        start, successors = _square_walk(auto)[:2]
        relations = explore(start, successors, None, "relations")[0]
        flipped = {relations[i] for i in rel_flips}

        def damaged_square_walk(nfa):
            start, successors, accepts = _square_walk(nfa)
            return start, successors, lambda node: accepts(node) != (node in flipped)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "sqrt_nfa", lambda a, budget=None: cube)
            patch.setattr(cli, "_square_walk", damaged_square_walk)
            word = cli._route_mismatch(auto, None)
        reference = two_equivalences(cube, fn, rel)
        assert (word is None) == (reference is None)
        if word is not None:
            # a word where the routes do not all agree, and the least one:
            # the reference's when only one route is damaged
            assert len({member(cube, word), fn.member(word), rel.member(word)}) == 2
            assert length_lex(word) <= length_lex(reference)
            assert word == reference or (cube_flips and rel_flips)

    @settings(max_examples=100, deadline=None)
    @given(nfas())
    def test_the_walk_numbers_one_triple_per_relation(self, auto):
        assert self.triples(auto) == relation_dfa(auto).n_states

    @settings(max_examples=100, deadline=None)
    @given(nfas())
    def test_the_function_walk_numbers_the_function_automaton_states(self, auto):
        # the trial steps the maps sqrt_dfa numbers, one node per state
        det = determinize(auto)
        start, successors, accepts = _function_walk(det)
        maps = explore(start, successors, None, "maps")[0]
        fn = sqrt_dfa(det)
        assert len(maps) == fn.n_states
        assert {i for i, f in enumerate(maps) if accepts(f)} == fn.final

    def test_the_benchmark_trials_walk_the_relation_dfas(self):
        autos = [random_nfa(RandomSpec(seed=seed)) for seed in range(500)]
        assert sum(map(self.triples, autos)) == 24_504
        assert sum(relation_dfa(auto).n_states for auto in autos) == 24_504

    @pytest.mark.parametrize("damaged", [False, True], ids=["agreeing", "split"])
    def test_a_trial_steps_and_judges_each_triple_once(self, monkeypatch, damaged):
        # counts, not times: each walk's step runs once per expanded triple
        # and its acceptance test once per numbered triple, so no node is
        # stepped or judged again, also when the walk stops at a split
        auto = random_nfa(RandomSpec(seed=3, max_states=4))
        if damaged:
            cube = sqrt_nfa(auto)
            cube = dataclasses.replace(cube, final=cube.final ^ {cube.n_states - 1})
            monkeypatch.setattr(cli, "sqrt_nfa", lambda a, budget=None: cube)
        calls = []

        def counted(make_walk):
            def walk(auto):
                start, step, accepts = make_walk(auto)
                tally = {"step": 0, "accept": 0}
                calls.append(tally)

                def counted_step(node):
                    tally["step"] += 1
                    return step(node)

                def counted_accept(node):
                    tally["accept"] += 1
                    return accepts(node)

                return start, counted_step, counted_accept

            return walk

        for name in ("_walk", "_function_walk", "_square_walk"):
            monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
        walks, real_explore = [], nfa.explore

        def recorded_explore(*args, **kwargs):
            walks.append(real_explore(*args, **kwargs))
            return walks[-1]

        monkeypatch.setattr(nfa, "explore", recorded_explore)
        word = cli._route_mismatch(auto, None)
        # the subset construction's walk, then the trial's
        assert len(walks) == 2
        nodes, rows = walks[-1]
        assert (word is None) == (not damaged) == (len(rows) == len(nodes))
        expected = {"step": len(rows), "accept": len(nodes)}
        assert calls == [expected] * 3
        if not damaged:
            assert len(nodes) == relation_dfa(auto).n_states == 134

    @staticmethod
    def triples(auto):
        walks = (_walk(sqrt_nfa(auto)), _function_walk(determinize(auto)), _square_walk(auto))
        start, successors, _ = _product(*walks)
        return len(explore(start, successors, None, "triples")[0])


class TestReport:
    def test_machine_lines_at_n6(self, capsys):
        code, out, _ = run(capsys, "report", "--n", "6")
        assert code == 0
        for line in (
            "n=6",
            "upper_bound_states=216",
            "certified_lower_bound=216",
            "previous_bound=60",
            "case_check=pass",
        ):
            assert f"\n{line}\n" in out or out.startswith(line)
        assert "time_total=" in out

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "report", "--n", "5")
        assert code == 2

    def test_budget_exit(self, capsys):
        code, _, err = run(capsys, "report", "--n", "6", "--budget", "100")
        assert code == 3

    def test_a_bad_budget_variable_is_a_usage_error(self, capsys, monkeypatch):
        # only a command that charges the budget reads the variable
        monkeypatch.setenv(BUDGET_ENV, "abc")
        code, out, err = run(capsys, "report", "--n", "6")
        assert (code, out) == (2, "")
        assert err == "error: SQRTNFA_BUDGET must be an integer, got 'abc'\n"
        assert run(capsys, "witness", "--n", "6")[0] == 0

    def test_default_budget(self, capsys, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        code, out, _ = run(capsys, "report", "--n", "16")
        assert code == 0 and "certified_lower_bound=4096\n" in out
        # the checks fit at n = 20; the cube's 1,280,000 transitions do not
        code, _, err = run(capsys, "report", "--n", "20")
        assert code == 3 and "cube construction transitions: needs 1280000" in err


class TestRunReport:
    def test_report_values_are_pure_functions_of_n(self):
        first = run_report(6)
        second = run_report(6)
        assert first == second  # timings excluded from comparison
        assert first.upper_bound_states == 216
        assert first.certified_lower_bound == 216
        assert first.previous_bound == 60
        assert first.case_check == "pass"
        assert set(first.timings) == {"witness", "sqrt", "certify", "verify_cases", "total"}

    @pytest.mark.parametrize("n", [6, 12])
    def test_builds_the_witness_and_the_orbit_grid_once(self, monkeypatch, n):
        # the cube and the certificate read one witness(n); the certificate
        # and the case check read one grid, which builds the orbit list once
        grids, lists = [], []
        monkeypatch.setattr(fooling, "_Grid", lambda auto: grids.append(auto) or _Grid(auto))
        monkeypatch.setattr(kernels, "orbit_cells", lambda n: lists.append(n) or orbit_cells(n))
        witness.cache_clear()
        _witness_grid.cache_clear()
        run_report(n, budget=4_000_000)
        assert witness.cache_info().misses == 1
        assert grids == [witness(n)] and lists == [n]

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            Report(
                n=6,
                upper_bound_states=10,
                certified_lower_bound=11,
                previous_bound=60,
                case_check="pass",
                timings={},
            )
        with pytest.raises(ValueError):
            Report(
                n=6,
                upper_bound_states=216,
                certified_lower_bound=216,
                previous_bound=60,
                case_check="maybe",
                timings={},
            )

    def test_domain_error_below_six(self):
        with pytest.raises(ValueError):
            run_report(5)
