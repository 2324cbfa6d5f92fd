import numpy as np
import pytest

from sqrtnfa import (
    Nfa,
    accept_table,
    any_case,
    case_table,
    count_words,
    determinize,
    dfa_accept_table,
    iter_words,
    member,
    sqrt_member_direct,
    sqrt_nfa,
    square_accept_table,
    witness_square_table,
)

class TestAcceptTableOnCube:
    def test_cube_of_4_states_exactly_fits(self, small_random):
        four = next(a for a in small_random if a.n_states == 4)
        cube = sqrt_nfa(four)
        assert cube.n_states == 64
        table = accept_table(cube, 3)
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

    def test_size_guards(self):
        with pytest.raises(ValueError):
            witness_square_table(5)
        with pytest.raises(ValueError):
            witness_square_table(33)


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

    def test_drop_case_validated(self):
        with pytest.raises(ValueError):
            case_table(6, drop_case=8)
        with pytest.raises(ValueError):
            case_table(6, drop_case=-1)

    def test_drop_case_only_removes_that_case(self):
        full = case_table(6)
        for drop in range(1, 8):
            dropped = case_table(6, drop_case=drop)
            changed = full != dropped
            assert (full[changed] == drop).all()
            assert (dropped[full == drop] != drop).all()


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

    def test_size_guard_beyond_64(self):
        big = Nfa(65, ("x",), frozenset({0}), frozenset(), ())
        with pytest.raises(ValueError, match="64"):
            accept_table(big, 2)
        with pytest.raises(ValueError, match="64"):
            square_accept_table(big, 2)
