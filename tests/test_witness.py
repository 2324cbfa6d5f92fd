from itertools import product, starmap

import pytest

from sqrtnfa import (
    FINAL_BLOCK,
    INITIAL_BLOCK,
    Nfa,
    case_holds,
    case_table,
    certify_lower_bound,
    member,
    pairwise_contradiction,
    pivot_l,
    pivot_m,
    reach,
    verify_cases,
    witness,
    witness_alphabet,
    witness_fooling_set,
    witness_square_table,
)
from sqrtnfa.kernels import orbit_count
from conftest import triples


class TestPivots:
    def test_left_pivot_values(self):
        assert [pivot_l(p) for p in range(8)] == [1, 2, 0, 0, 0, 0, 0, 0]

    def test_middle_pivot_values(self):
        assert [pivot_m(p) for p in range(8)] == [3, 3, 3, 4, 5, 3, 3, 3]

    def test_ranges(self):
        for p in range(40):
            assert pivot_l(p) in INITIAL_BLOCK
            assert pivot_m(p) in FINAL_BLOCK

    def test_no_fixed_points(self):
        for p in range(40):
            assert pivot_l(p) != p
            assert pivot_m(p) != p

    @pytest.mark.parametrize("pivot", [pivot_l, pivot_m])
    def test_no_two_cycles_up_to_12(self, pivot):
        for p in range(12):
            for p2 in range(12):
                assert not (p == pivot(p2) and p2 == pivot(p))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pivot_l(-1)
        with pytest.raises(ValueError):
            pivot_m(-2)


class TestAlphabet:
    def test_size_and_order(self):
        names = witness_alphabet(6)
        assert len(names) == 2 * 6**3
        assert names[0] == "a[0,0,0]"
        assert names[1] == "a[0,0,1]"
        assert names[216] == "b[0,0,0]"
        assert names[-1] == "b[5,5,5]"

    def test_flat_index_formula(self):
        names = witness_alphabet(6)
        for p, q, r in ((0, 0, 0), (1, 2, 3), (5, 5, 5)):
            flat = (p * 6 + q) * 6 + r
            assert names[flat] == f"a[{p},{q},{r}]"
            assert names[216 + flat] == f"b[{p},{q},{r}]"

    @pytest.mark.parametrize("n", range(6, 33))
    def test_names_and_order_equal_one_format_per_name(self, n):
        # emitted files and CUBE_SHA256 read both the names and their order
        names = starmap("{}[{},{},{}]".format, product("ab", range(n), range(n), range(n)))
        assert witness_alphabet(n) == tuple(names)


def loop_witness(n):
    """The witness relation built one payload at a time, as the definition
    reads: the reference the array build must equal."""
    cube = n**3
    triples = []
    for p in range(n):
        for q in range(n):
            for r in range(n):
                flat = (p * n + q) * n + r
                triples.append((pivot_l(p), flat, q))
                triples.append((p, flat, r))
                triples.append((q, cube + flat, p))
                triples.append((r, cube + flat, pivot_m(p)))
    names = [f"{kind}[{p},{q},{r}]" for kind in "ab" for p in range(n)
             for q in range(n) for r in range(n)]
    return Nfa(n, tuple(names), INITIAL_BLOCK, FINAL_BLOCK, tuple(triples))


class TestWitnessAutomaton:
    @pytest.mark.parametrize("n", [*range(6, 15), 32])
    def test_array_build_equals_the_loop_reference(self, n):
        # relation, alphabet and blocks: Nfa equality compares every field
        assert witness(n) == loop_witness(n)
        assert witness(n).alphabet == witness_alphabet(n)

    def test_shape(self, witness6):
        assert witness6.n_states == 6
        assert witness6.initial == INITIAL_BLOCK
        assert witness6.final == FINAL_BLOCK
        assert INITIAL_BLOCK & FINAL_BLOCK == frozenset()
        assert len(witness6.transitions) == 4 * 6**3

    def test_each_letter_moves_exactly_its_two_sources(self, witness6):
        n = 6
        for p, q, r in ((0, 2, 4), (3, 1, 5), (5, 5, 5)):
            a_idx = witness6.letter_index(f"a[{p},{q},{r}]")
            b_idx = witness6.letter_index(f"b[{p},{q},{r}]")
            a_moves = {
                (src, dst)
                for src, letter, dst in triples(witness6)
                if letter == a_idx
            }
            b_moves = {
                (src, dst)
                for src, letter, dst in triples(witness6)
                if letter == b_idx
            }
            assert a_moves == {(pivot_l(p), q), (p, r)}
            assert b_moves == {(q, p), (r, pivot_m(p))}

    def test_documented_step_examples(self, witness6):
        a024 = witness6.letter_index("a[0,2,4]")
        b024 = witness6.letter_index("b[0,2,4]")
        assert reach(witness6, {0, 1}, (a024,)) == {2, 4}
        assert reach(witness6, {2}, (b024,)) == {0}
        assert reach(witness6, {4}, (b024,)) == {3}
        assert reach(witness6, {5}, (a024,)) == set()

    def test_squared_pair_reaches_single_final(self, witness6):
        aX = witness6.letter_index("a[2,3,5]")
        bX = witness6.letter_index("b[2,3,5]")
        assert reach(witness6, {0}, (aX, bX, aX, bX)) == {3}

    def test_documented_negative_word(self, witness6):
        a011 = witness6.letter_index("a[0,1,1]")
        b022 = witness6.letter_index("b[0,2,2]")
        assert not member(witness6, (a011, b022, a011, b022))

    def test_blocks_disjoint_for_many_sizes(self):
        for n in range(6, 13):
            auto = witness(n)
            assert auto.initial & auto.final == frozenset()
            assert auto.n_states == n
            assert len(auto.alphabet) == 2 * n**3

    def test_too_small_rejected(self):
        for n in (-1, 0, 1, 5):
            for call in (witness, witness_alphabet):
                with pytest.raises(ValueError, match="needs n >= 6"):
                    call(n)

    def test_size_guard_and_override(self):
        with pytest.raises(ValueError, match="at most 32 states"):
            witness(33)

    @pytest.mark.parametrize(
        "n, message",
        [
            (5, "needs n >= 6"),
            (33, "at most 32 states"),
            pytest.param(6.5, "n 6.5 is not an integer", id="6.5-integer n"),
        ],
    )
    def test_witness_entry_points_share_one_size_check(self, n, message):
        calls = [
            lambda: witness(n),
            lambda: witness_alphabet(n),
            lambda: orbit_count(n),
            lambda: certify_lower_bound(n, budget=1),  # before the n^3 budget check
            lambda: witness_fooling_set(n),
            lambda: witness_square_table(witness(n), [0], [0]),
            lambda: case_table(n, [0], [0]),
            lambda: case_holds(1, (0, 0, 0), (0, 0, 0), n),
            lambda: verify_cases(n),  # before the n^6 budget check
            lambda: pairwise_contradiction(n),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
