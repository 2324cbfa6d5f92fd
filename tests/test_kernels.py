import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtnfa import (
    BudgetExceededError,
    Nfa,
    RandomSpec,
    accept_table,
    bounded_equal,
    case_table,
    count_words,
    determinize,
    dfa_accept_table,
    difference_witness,
    member,
    random_nfa,
    sqrt_member_direct,
    sqrt_nfa,
    square_accept_table,
    witness,
    witness_square_table,
)
from sqrtnfa.words import walk_word_tree
from conftest import any_case, iter_words, nfas

class TestAcceptTableOnCube:
    def test_cube_of_4_states_exactly_fits(self, small_random):
        four = next(a for a in small_random if a.n_states == 4)
        cube = sqrt_nfa(four)
        assert cube.n_states == 64
        table = accept_table(cube, 3)
        for rank, word in enumerate(iter_words(len(cube.alphabet), 3)):
            assert table[rank] == member(cube, word), word

    def test_cube_of_5_states(self):
        five = next(
            a
            for seed in range(100)
            if (a := random_nfa(RandomSpec(seed=seed, max_states=5))).n_states == 5
        )
        cube = sqrt_nfa(five)
        assert cube.n_states == 125
        table = accept_table(cube, 3)
        assert table.any()
        for rank, word in enumerate(iter_words(len(cube.alphabet), 3)):
            assert table[rank] == member(cube, word), word


class TestWitnessSquareTable:
    def test_against_plain_member_exhaustively(self, witness6):
        table = witness_square_table(6)
        assert table.shape == (216, 216) and table.dtype == np.bool_
        for x1 in range(216):
            for x2 in range(216):
                word = (x1, 216 + x2, x1, 216 + x2)
                assert table[x1, x2] == member(witness6, word), (x1, x2)

    def test_cells_at_the_largest_n_match_member(self):
        # flat indices up to 32^3 - 1 = 32767, the top of their 16-bit range
        n = 32
        auto = witness(n)
        rng = np.random.Generator(np.random.PCG64(32))
        x1 = np.r_[0, n**3 - 1, n**3 - 1, rng.integers(0, n**3, 300)]
        x2 = np.r_[n**3 - 1, 0, n**3 - 1, rng.integers(0, n**3, 300)]
        # pairs on the diagonal are accepted, so both answers occur
        x2[-100:] = x1[-100:]
        table = witness_square_table(n, x1, x2)
        cases = case_table(n, x1=x1, x2=x2)
        assert table.any() and not table.all()
        for a, b, t, c in zip(x1.tolist(), x2.tolist(), table, cases):
            assert t == member(auto, (a, n**3 + b) * 2), (a, b)
            triples = [(x // (n * n), (x // n) % n, x % n) for x in (a, b)]
            assert c == (any_case(*triples, n) or 0), (a, b)

    def test_size_guards(self):
        with pytest.raises(ValueError):
            witness_square_table(5)
        with pytest.raises(ValueError):
            witness_square_table(33)


class TestTableForms:
    def test_whole_tables_check_the_budget(self, monkeypatch):
        monkeypatch.setenv("SQRTNFA_BUDGET", "1000")
        with pytest.raises(BudgetExceededError, match="witness_square_table"):
            witness_square_table(6)
        with pytest.raises(BudgetExceededError, match="case_table"):
            case_table(6)

    def test_cell_form_matches_whole_table(self):
        rows = np.array([[0], [17], [215]])
        cols = np.arange(216)[None, :]
        truth = witness_square_table(6)[rows, cols]
        claimed = case_table(6)[rows, cols]
        assert (witness_square_table(6, rows, cols) == truth).all()
        assert (case_table(6, rows, cols) == claimed).all()

    @pytest.mark.parametrize("x1, x2", [([-1], [0]), ([216], [0]), ([0], [-1]), ([3], [216])])
    def test_flat_indices_out_of_range_rejected(self, x1, x2):
        # the parent wrapped -1 to the pivot of state 31 and read 216 as a
        # payload (6, 0, 0): a silent answer for a cell that does not exist
        with pytest.raises(ValueError, match=r"index -?\d+ out of range 0\.\.215"):
            witness_square_table(6, x1, x2)
        with pytest.raises(ValueError, match=r"index -?\d+ out of range 0\.\.215"):
            case_table(6, x1=x1, x2=x2)

    def test_flat_indices_must_be_integers(self):
        with pytest.raises(ValueError, match="must be integers"):
            witness_square_table(6, [0.5], [0])
        with pytest.raises(ValueError, match="must be integers"):
            case_table(6, x1=np.array([True]), x2=[0])

    def test_index_arrays_come_in_pairs(self):
        with pytest.raises(ValueError, match="both index arrays"):
            witness_square_table(6, np.arange(3))
        with pytest.raises(ValueError, match="both index arrays"):
            case_table(6, x2=np.arange(3))


class TestCaseTable:
    def test_against_scalar_predicates_sampled(self):
        table = case_table(6)
        assert table.dtype == np.uint8
        rng = np.random.Generator(np.random.PCG64(5))
        codec_pairs = [(int(rng.integers(216)), int(rng.integers(216))) for _ in range(2000)]
        codec_pairs += [(i, i) for i in range(216)]
        for x1, x2 in codec_pairs:
            t1 = (x1 // 36, (x1 // 6) % 6, x1 % 6)
            t2 = (x2 // 36, (x2 // 6) % 6, x2 % 6)
            expected = any_case(t1, t2, 6) or 0
            assert table[x1, x2] == expected, (t1, t2)


class TestAcceptTables:
    def test_accept_table_matches_member(self, small_random):
        for auto in small_random[:25]:
            table = accept_table(auto, 4)
            sigma = len(auto.alphabet)
            assert table.shape == (count_words(sigma, 4),)
            for rank, word in enumerate(iter_words(sigma, 4)):
                assert table[rank] == member(auto, word), (auto, word)

    def test_square_accept_matches_direct(self, small_random):
        for auto in small_random[:25]:
            table = square_accept_table(auto, 4)
            sigma = len(auto.alphabet)
            for rank, word in enumerate(iter_words(sigma, 4)):
                assert table[rank] == sqrt_member_direct(auto, word), (auto, word)

    def test_dfa_accept_matches_run(self, small_random):
        for auto in small_random[:25]:
            dfa = determinize(auto)
            table = dfa_accept_table(dfa, 4)
            for rank, word in enumerate(iter_words(len(dfa.alphabet), 4)):
                assert table[rank] == dfa.member(word)

    def test_zero_length_tables(self):
        one = Nfa(1, ("x",), frozenset({0}), frozenset({0}), ((0, 0, 0),))
        assert accept_table(one, 0).tolist() == [True]
        assert square_accept_table(one, 0).tolist() == [True]
        assert dfa_accept_table(determinize(one), 0).tolist() == [True]

    def test_negative_length_rejected(self):
        one = Nfa(1, ("x",), frozenset({0}), frozenset({0}), ())
        with pytest.raises(ValueError):
            accept_table(one, -1)
        with pytest.raises(ValueError):
            square_accept_table(one, -1)
        with pytest.raises(ValueError):
            dfa_accept_table(determinize(one), -1)

    def test_no_state_cap(self):
        big = Nfa(65, ("x",), frozenset({0}), frozenset(), ())
        # a path through states 62..66, past 64 states
        path = Nfa(
            67,
            ("x", "y"),
            frozenset({62}),
            frozenset({64, 66}),
            tuple((s, s % 2, s + 1) for s in range(62, 66)),
        )
        for auto in (big, path):
            direct, square = accept_table(auto, 2), square_accept_table(auto, 2)
            for rank, word in enumerate(iter_words(len(auto.alphabet), 2)):
                assert direct[rank] == member(auto, word), word
                assert square[rank] == member(auto, word + word), word
        assert direct.any() and square.any()  # the path's tables accept some words


class TestWordTreeWalk:
    @settings(max_examples=150, deadline=None)
    @given(nfas())
    def test_tables_match_scalar_routes(self, auto):
        dfa = determinize(auto)
        sigma = len(auto.alphabet)
        direct = accept_table(auto, 3)
        square = square_accept_table(auto, 3)
        via_dfa = dfa_accept_table(dfa, 3)
        for rank, word in enumerate(iter_words(sigma, 3)):
            assert direct[rank] == member(auto, word), word
            assert square[rank] == member(auto, word + word), word
            assert via_dfa[rank] == dfa.member(word), word

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bounded_equal_is_first_difference(self, data):
        a = data.draw(nfas())
        b = data.draw(nfas(sigma=len(a.alphabet)))
        for max_len in range(-1, 4):
            expected = next(
                (
                    w
                    for w in iter_words(len(a.alphabet), max(max_len, 0))
                    if member(a, w) != member(b, w)
                ),
                None,
            )
            assert bounded_equal(a, b, max_len) == expected, max_len
            # the product route finds the same first difference, or none this short
            exact = difference_witness(a, b)
            if expected is not None:
                assert exact == expected, max_len
            else:
                assert exact is None or len(exact) > max_len, max_len

    def test_word_tree_checks_the_budget(self, monkeypatch):
        monkeypatch.setenv("SQRTNFA_BUDGET", "1000")
        auto = random_nfa(RandomSpec(seed=3))
        assert count_words(len(auto.alphabet), 9) == 29_524
        with pytest.raises(BudgetExceededError, match="word tree words: needs 29524"):
            accept_table(auto, 9)
        with pytest.raises(BudgetExceededError, match="word tree words"):
            bounded_equal(auto, auto, 9)
        # an explicit budget overrides the environment
        assert accept_table(auto, 9, 29_524).size == 29_524
        assert bounded_equal(auto, auto, 9, 29_524) is None

    def test_each_node_expanded_once(self):
        # one state with a self-loop on the one letter
        calls = []

        def successors(node):
            calls.append(node)
            return [node]

        table = walk_word_tree(0, successors, lambda node: True, 1, 6)
        assert table.tolist() == [True] * 7 and calls == [0]
        calls.clear()
        assert walk_word_tree(0, successors, lambda node: True, 1, 0).tolist() == [True]
        assert calls == []
