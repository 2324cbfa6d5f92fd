import dataclasses
import io
from itertools import product

import pytest

from sqrtnfa import Report, cli, emit_nfa, main, parse_nfa, run_report, witness
from sqrtnfa.config import BUDGET_ENV
from sqrtnfa.kernels import orbit_cells
from conftest import mutant


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

    def test_stdin_roundtrip(self, capsys, monkeypatch):
        small = "states 1\nalphabet a\ninitial 0\nfinal 0\ntrans 0 a 0\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(small))
        code, out, _ = run(capsys, "sqrt", "--in", "-")
        assert code == 0
        assert parse_nfa(out).n_states == 1


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

    def test_unknown_letter_is_usage_error(self, capsys, w6_file):
        code, _, err = run(capsys, "member", "--in", w6_file, "--word", "zz")
        assert code == 2 and "unknown letter" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "member", "--in", str(tmp_path / "nope"), "--word", "")
        assert code == 2


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

    def test_budget_reaches_the_accept_tables(self, capsys):
        # the triangle tables walk the 127 words of length <= 6 over two letters
        argv = ("random-equiv", "--trials", "20", "--seed", "0",
                "--max-states", "2", "--alphabet", "2", "--budget")
        code, _, err = run(capsys, *argv, "126")
        assert code == 3
        assert "word tree words: needs 127, exceeds budget 126" in err
        code, out, _ = run(capsys, *argv, "127")
        assert code == 0 and "all 20 trials agree" in out

    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_no_trials_is_a_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "random-equiv", "--trials", trials, "--seed", "0")
        assert code == 2 and "trials agree" not in out
        assert f"--trials {trials} out of range" in err

    def test_five_states_past_the_old_cap(self, capsys):
        # 125-state cubes: the accept tables have no state cap
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

    def test_seed_is_required(self):
        with pytest.raises(SystemExit) as info:
            main(["random-equiv", "--trials", "2"])
        assert info.value.code == 2

    def test_a_cube_that_loses_a_final_state_fails(self, capsys, monkeypatch):
        real = cli.sqrt_nfa

        def lossy(auto, budget=None):
            cube = real(auto, budget)
            return dataclasses.replace(cube, final=cube.final - {min(cube.final, default=0)})

        monkeypatch.setattr(cli, "sqrt_nfa", lossy)
        code, out, err = run(capsys, "random-equiv", "--trials", "5", "--seed", "0")
        assert (code, err) == (1, "")
        assert out == 'trial 2 seed=2 failed: word "l0 l1"\n1 of 5 trials failed\n'

    def test_a_flipped_square_flag_fails_on_the_triangle(self, capsys, monkeypatch):
        # the cube and the function automaton still agree, so the split
        # shows only in the accept tables, at the last word of length 6
        real = cli.square_accept_table

        def flipped(auto, max_len, budget=None):
            table = real(auto, max_len, budget).copy()
            table[-1] = not table[-1]
            return table

        monkeypatch.setattr(cli, "square_accept_table", flipped)
        code, out, err = run(capsys, "random-equiv", "--trials", "5", "--seed", "0")
        assert (code, err) == (1, "")
        word = " ".join(["l2"] * 6)
        lines = [f'trial {t} seed={t} failed: word "{word}"' for t in range(5)]
        assert out.splitlines() == [*lines, "5 of 5 trials failed"]


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
    def test_builds_the_witness_and_the_orbit_grid_once(self, n):
        # the cube and the certificate read one witness(n); the certificate
        # and the case check read one orbit grid
        witness.cache_clear()
        orbit_cells.cache_clear()
        run_report(n, budget=4_000_000)
        assert witness.cache_info().misses == 1
        assert orbit_cells.cache_info().misses == 1

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
