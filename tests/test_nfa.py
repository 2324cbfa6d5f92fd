import copy
import dataclasses
import itertools
import math
import pickle
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtnfa import (
    BudgetExceededError,
    Dfa,
    Nfa,
    RandomSpec,
    accept_table,
    determinize,
    dfa_accept_table,
    dfa_to_nfa,
    difference_witness,
    equivalent,
    member,
    random_nfa,
    reach,
    sqrt_member_direct,
    sqrt_nfa,
    square_accept_table,
    witness,
)
from sqrtnfa import nfa
from sqrtnfa.config import check_int
from sqrtnfa.nfa import Relation, _mask, _run, _stepper
from conftest import (
    NFA_AA, first_disagreement, iter_words, make_nfa, nfas, random_word, reachable_triples,
    triples,
)


class TestConstruction:
    def test_transitions_are_sorted_canonically(self):
        a = make_nfa(2, 2, [(1, 0, 0), (0, 1, 1), (0, 0, 1)], {0}, {1})
        assert triples(a) == ((0, 0, 1), (0, 1, 1), (1, 0, 0))

    def test_duplicate_transition_rejected(self):
        with pytest.raises(ValueError, match="duplicate transition"):
            make_nfa(2, 1, [(0, 0, 1), (0, 0, 1)], {0}, {1})

    def test_out_of_range_states_rejected(self):
        with pytest.raises(ValueError):
            make_nfa(2, 1, [(0, 0, 2)], {0}, {1})
        with pytest.raises(ValueError):
            make_nfa(2, 1, [], {2}, {})

    def test_letter_names_validated(self):
        with pytest.raises(ValueError, match="bad letter name"):
            Nfa(1, ("a", "b c"), frozenset({0}), frozenset(), ())
        with pytest.raises(ValueError, match="bad letter name"):
            Nfa(1, ("a#b",), frozenset({0}), frozenset(), ())
        with pytest.raises(ValueError, match="duplicate letter"):
            Nfa(1, ("a", "a"), frozenset({0}), frozenset(), ())

    def test_needs_a_state_and_a_letter(self):
        with pytest.raises(ValueError):
            Nfa(0, ("a",), frozenset(), frozenset(), ())
        with pytest.raises(ValueError):
            Nfa(1, (), frozenset({0}), frozenset(), ())

    @pytest.mark.parametrize(
        "alphabet, message",
        [((), "non-empty"), (("a", "a"), "duplicate letter"), (("a b",), "bad letter name")],
    )
    def test_dfa_alphabet_validated_like_nfa(self, alphabet, message):
        with pytest.raises(ValueError, match=message):
            Dfa(1, alphabet, 0, frozenset(), ((0,) * len(alphabet),))

    def test_dfa_alphabet_stored_as_tuple(self):
        assert Dfa(1, ["a", "b"], 0, frozenset(), ((0, 0),)).alphabet == ("a", "b")

    @pytest.mark.parametrize(
        "triples, message",
        [
            (((0, 0, 1.5),), "transition (0, 0, 1.5) entry 1.5 is not an integer"),
            (((0, 0.5, 1),), "transition (0, 0.5, 1) entry 0.5 is not an integer"),
            (((0, 0, 1), (1.0, 0, 0)), "transition (1.0, 0, 0) entry 1.0 is not an integer"),
            (
                np.array([[0.0, 0.0, 1.5]]),
                "transition (0.0, 0.0, 1.5) entry 0.0 is not an integer",
            ),
            (np.zeros((1, 3)), "transition (0.0, 0.0, 0.0) entry 0.0 is not an integer"),
            (
                np.array([[0, 0, 2**63]], dtype=np.uint64),
                f"transition (0, 0, {2**63}) entry {2**63} out of range",
            ),
        ],
        ids=[f"triples{i}" for i in range(6)],
    )
    def test_non_integer_entries_rejected(self, triples, message):
        # an int64 conversion would truncate 1.5 to 1 and accept the
        # relation; each entry goes through check_int, within int64
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Nfa(2, ("a",), {0}, set(), triples)

    def test_non_integer_dfa_targets_rejected(self):
        # dfa_to_nfa would otherwise truncate the target 1.5 to 1
        with pytest.raises(ValueError, match="target 1.5 is not an integer"):
            Dfa(2, ("a",), 0, {1}, ((1.5,), (0,)))

    @pytest.mark.parametrize("triples", [((),), [[]], ((0, 0),), np.zeros((2, 2), dtype=np.int64)])
    def test_misshapen_relations_rejected(self, triples):
        with pytest.raises(ValueError, match="must be .source, letter, target. triples"):
            Nfa(2, ("a",), {0}, set(), triples)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Nfa(2, ("a",), {0.5}, {1}, ((0, 0, 1),)), "initial state 0.5"),
            (lambda: Nfa(2, ("a",), {0}, {0.5}, ((0, 0, 1),)), "final state 0.5"),
            (lambda: Nfa(2.0, ("a",), {0}, {1}, ()), "state count 2.0"),
            (lambda: Dfa(2, ("a",), 0.5, {1}, ((1,), (0,))), "initial state 0.5"),
            (lambda: Dfa(2, ("a",), 0, {0.5}, ((1,), (0,))), "final state 0.5"),
            (lambda: Dfa(2.0, ("a",), 0, {1}, ((1,), (0,))), "state count 2.0"),
        ],
        ids=["nfa-initial", "nfa-final", "nfa-count", "dfa-initial", "dfa-final", "dfa-count"],
    )
    def test_non_integer_states_rejected(self, build, message):
        # the parent accepted each: a float final state was never reached,
        # and a float initial state broke the first walk with a TypeError
        with pytest.raises(ValueError, match=f"{message} is not an integer"):
            build()

    @pytest.mark.parametrize(
        "rows, outcome",
        [
            (((0, 1), (True, 0)), ((0, 1), (1, 0))),
            (((0, 1), (np.int64(1), 0)), ((0, 1), (1, 0))),
            (([0, 1], [1, 0]), ((0, 1), (1, 0))),
            (((0, 1), (1.0, 0)), "transition target 1.0 is not an integer"),
            (((0, 1), (-1, 0)), "transition target -1 out of range"),
            (((0, 1), (2, 0)), "transition target 2 out of range"),
            (((0, 1), (np.int64(2), 0)), "transition target 2 out of range"),
            (((0, 1), (0,)), "transition table row must cover every letter"),
            (((0, 1),), "transition table must have one row per state"),
            (((0, 5), (0,)), "transition target 5 out of range"),
            (((0,), (0, 7)), "transition table row must cover every letter"),
        ],
        ids=[
            "bool", "int64", "lists", "float", "negative", "too-large", "int64-too-large",
            "short-row", "missing-row", "first-bad-row-entry", "first-bad-row-length",
        ],
    )
    def test_dfa_rows_checked_entry_by_entry(self, rows, outcome):
        # a row's length is checked before its entries, and rows in order
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match=f"^{re.escape(outcome)}$"):
                Dfa(2, ("a", "b"), 0, {1}, rows)
            return
        table = Dfa(2, ("a", "b"), 0, {1}, rows).transitions
        assert table == outcome
        assert type(table) is tuple and {type(row) for row in table} == {tuple}
        assert {type(q) for row in table for q in row} == {int}

    def test_numpy_integer_states_accepted(self):
        a = Nfa(np.int64(2), ("a",), {np.int64(0)}, {np.int8(1)}, ((0, 0, 1),))
        assert member(a, (0,))
        d = Dfa(np.int64(2), ("a",), np.int64(0), {np.int32(1)}, ((1,), (0,)))
        assert d.member((np.int64(0),))

    def test_non_string_letter_names_rejected(self):
        for alphabet in ((1,), ("a", None), (b"a",)):
            with pytest.raises(ValueError, match="bad letter name"):
                Nfa(1, alphabet, {0}, set(), ())
            with pytest.raises(ValueError, match="bad letter name"):
                Dfa(1, alphabet, 0, frozenset(), ((0,) * len(alphabet),))

    def test_letter_index_finds_each_name_and_refuses_any_other_value(self, witness6):
        names = witness6.alphabet
        assert list(map(witness6.letter_index, names)) == list(range(len(names)))
        for value in ("zz", "", "a[6,0,0]", 0, None, b"a[0,0,0]", ["a[0,0,0]"], ("a[0,0,0]",)):
            with pytest.raises(ValueError, match=re.escape(f"unknown letter {value!r}")):
                witness6.letter_index(value)

    def test_targets_returns_empty_for_missing_entries(self):
        assert reach(NFA_AA, {2}, (0,)) == set()
        assert reach(NFA_AA, {0}, (0,)) == {1}

    def test_targets_validates_its_arguments(self):
        assert reach(NFA_AA, {np.int64(0)}, (np.int32(0),)) == {1}
        for state, letter, message in (
            (0, 0.5, "letter index 0.5 is not an integer"),
            (0.5, 0, "state index 0.5 is not an integer"),
            (7, 0, "state index 7 out of range"),
            (-1, 0, "state index -1 out of range"),
            (0, 1, "letter index 1 out of range"),
            (0, -1, "letter index -1 out of range"),
        ):
            with pytest.raises(ValueError, match=message):
                reach(NFA_AA, {state}, (letter,))


class TestArrayRelation:
    """The relation is one sorted int64 array of keys."""

    @settings(max_examples=200)
    @given(st.data(), st.randoms(use_true_random=False))
    def test_tuples_and_array_build_the_same_automaton(self, data, rng):
        a = data.draw(nfas())
        b = data.draw(nfas(sigma=len(a.alphabet), n=a.n_states))
        shuffled = list(triples(a))
        rng.shuffle(shuffled)
        from_tuples = Nfa(a.n_states, a.alphabet, a.initial, a.final, tuple(shuffled))
        rows = np.array(shuffled, dtype=np.int64).reshape(-1, 3)
        from_array = Nfa(a.n_states, a.alphabet, a.initial, a.final, rows)
        assert from_tuples == from_array == a
        assert from_tuples.transitions == from_array.transitions == a.transitions
        assert triples(from_tuples) == triples(from_array) == tuple(sorted(shuffled))
        assert hash(from_tuples) == hash(from_array) == hash(a)
        assert hash(from_tuples.transitions) == hash(a.transitions)
        # keys that are not one contiguous block hash alike
        strided = Relation(np.repeat(a.transitions.keys, 2)[::2], a.n_states, len(a.alphabet))
        assert strided == a.transitions and hash(strided) == hash(a.transitions)
        assert repr(from_tuples) == repr(from_array) == repr(a)
        if shuffled:
            assert triples(from_array)[-1] == max(shuffled)
        assert not from_array.transitions.keys.flags.writeable
        # over one n and sigma, relations are equal exactly when their triples are
        assert (a.transitions == b.transitions) == (triples(a) == triples(b))
        assert (a.transitions != b.transitions) == (triples(a) != triples(b))
        if a.transitions == b.transitions:
            assert hash(a.transitions) == hash(b.transitions)

    @pytest.mark.parametrize(
        "n, triples, message",
        [
            (2, [(0, 0, 1), (0, 0, 2)], r"transition \(0, 0, 2\) has a state out of range"),
            (2, [(1, 0, 0), (-1, 0, 0)], r"transition \(-1, 0, 0\) has a state out of range"),
            (2, [(1, 1, 0), (0, 0, 1)], r"transition \(1, 1, 0\) has a letter out of range"),
            (2, [(1, -1, 0)], r"transition \(1, -1, 0\) has a letter out of range"),
            (2, [(1, 0, 0), (0, 0, 1), (1, 0, 0)], r"duplicate transition \(1, 0, 0\)"),
            # the first bad triple in sorted order is named, whatever its fault
            (2, [(1, 0, 5), (0, 3, 0)], r"transition \(0, 3, 0\) has a letter out of range"),
            (2, [(1, 0, 5), (0, 0, 1), (0, 0, 1)], r"duplicate transition \(0, 0, 1\)"),
            (2, [(1, 0, 1), (1, 0, 1), (0, 9, 9)], r"transition \(0, 9, 9\) has a state out"),
        ],
    )
    def test_errors_are_the_same_for_tuples_and_arrays(self, n, triples, message):
        for given_as in (
            tuple(triples),
            np.array(triples),
            np.array(triples, dtype=np.int32),
        ):
            with pytest.raises(ValueError, match=f"^{message}"):
                Nfa(n, ("a",), {0}, set(), given_as)

    def test_state_numbers_up_to_the_key_limit(self):
        # keys (source * 3 + letter) * n + target pass 2**62 here
        n = 2**30
        rows = [(n - 1, 2, 0), (5, 0, n - 1), (n - 1, 0, 7), (5, 0, 3), (0, 2, n - 2)]
        a = Nfa(n, ("x", "y", "z"), {0}, {n - 1}, tuple(rows))
        assert triples(a) == tuple(sorted(rows))
        reversed_array = np.array(sorted(rows)[::-1])
        assert Nfa(n, ("x", "y", "z"), {0}, {n - 1}, reversed_array) == a
        with pytest.raises(ValueError, match=r"transition \(5, 0, 1073741824\) has a state"):
            Nfa(n, ("x", "y", "z"), {0}, set(), tuple(rows) + ((5, 0, n),))
        with pytest.raises(ValueError, match=r"transition \(5, 3, 1\) has a letter"):
            Nfa(n, ("x", "y", "z"), {0}, set(), tuple(rows) + ((5, 3, 1),))
        with pytest.raises(ValueError, match=r"duplicate transition \(5, 0, 3\)"):
            Nfa(n, ("x", "y", "z"), {0}, set(), tuple(rows) + ((5, 0, 3),))
        # the largest n whose keys fit: its last key is 3 * n * n - 1 < 2**63
        n = math.isqrt((2**63 - 1) // 3)
        last = (n - 1, 2, n - 1)
        b = Nfa(n, ("x", "y", "z"), {0}, {n - 1}, ((0, 0, 0), last))
        assert triples(b)[-1] == last and member(b, (2,)) is False
        assert b.transitions.keys[-1] == 3 * n * n - 1
        with pytest.raises(ValueError, match=r"^transition keys need n\*n\*sigma below 2\*\*63"):
            Nfa(n + 1, ("x", "y", "z"), {0}, set(), ())
        # n * n * sigma = 2**63 exactly is refused too
        with pytest.raises(ValueError, match=r"give 9223372036854775808$"):
            Nfa(2**31, ("x", "y"), {0}, set(), ())

    def test_a_relation_is_repacked_for_another_automaton(self):
        # keys depend on n and sigma: another automaton's relation is
        # decoded, checked and packed again
        a = Nfa(3, ("a", "b"), {0}, {2}, ((0, 1, 2), (2, 0, 1), (1, 1, 1)))
        b = Nfa(5, ("a", "b", "c"), {0}, {2}, a.transitions)
        assert triples(b) == triples(a) == ((0, 1, 2), (1, 1, 1), (2, 0, 1))
        assert b.transitions.keys.tolist() == [7, 21, 31]
        assert member(b, (1,)) and not member(b, (1, 0)) and not member(b, (2,))
        with pytest.raises(ValueError, match=r"^transition \(0, 1, 2\) has a state out of range"):
            Nfa(2, ("a", "b"), {0}, {1}, a.transitions)
        with pytest.raises(ValueError, match=r"^transition \(0, 1, 2\) has a letter out of range"):
            Nfa(3, ("a",), {0}, {1}, a.transitions)

    def test_float_keys_are_refused(self):
        # the parent kept them and member then raised TypeError
        keys = Relation(np.array([1.0]), 2, 1)
        message = "transition (0.0, 0.0, 1.0) entry 0.0 is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Nfa(2, ("a",), {0}, {1}, keys)

    def test_two_dimensional_keys_are_refused(self):
        # the parent kept them and member then raised NotImplementedError
        keys = Relation(np.array([[1]]), 2, 1)
        message = "transitions must be (source, letter, target) triples"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Nfa(2, ("a",), {0}, {1}, keys)

    def test_zero_dimensional_keys_are_refused(self):
        # the parent raised IndexError, and len() of the keys TypeError
        keys = Relation(np.array(1), 2, 1)
        message = "transitions must be (source, letter, target) triples"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Nfa(2, ("a",), {0}, {1}, keys)

    def test_keys_of_another_int_dtype_are_packed_again(self):
        keys = Relation(np.array([1, 3], dtype=np.int32), 2, 1)
        a = Nfa(2, ("a",), {0}, {1}, keys)
        assert a.transitions.keys.dtype == np.int64
        assert triples(a) == ((0, 0, 1), (1, 0, 1)) and member(a, (0, 0))

    def test_unsigned_arrays_are_checked_by_their_maximum(self, monkeypatch):
        # one comparison with 2**63, not one check_int call per entry
        w = witness(12)
        rows = w.transitions.array.astype(np.uint32)
        entries = []

        def spy(value, what, *bounds):
            if what.startswith("transition"):
                entries.append(value)
            return check_int(value, what, *bounds)

        monkeypatch.setattr(nfa, "check_int", spy)
        assert Nfa(w.n_states, w.alphabet, w.initial, w.final, rows) == w
        assert entries == []

    def test_state_numbers_beyond_32_bits(self):
        # keys would pass int64: refused before the relation is read
        n = 2**32
        rows = [(n - 1, 2, 0), (5, 0, n - 1), (n - 1, 0, 7), (5, 0, 3), (0, 2, n - 2)]
        message = (
            r"^transition keys need n\*n\*sigma below 2\*\*63, "
            r"but n = 4294967296 and sigma = 3 give 55340232221128654848$"
        )

        def unread():
            raise AssertionError("the relation was read")
            yield

        packed = Nfa(2**30, ("x", "y", "z"), {0}, set(), ((5, 0, 3),)).transitions
        for given_as in (tuple(rows), np.array(rows), packed, unread()):
            with pytest.raises(ValueError, match=message):
                Nfa(n, ("x", "y", "z"), {0}, {n - 1}, given_as)

    def test_hash_eq_and_repr_read_the_keys_in_place(self):
        # witness(16)'s cube has 524,288 rows, 4 MB of keys: no call
        # decodes or copies them
        cube, twin = sqrt_nfa(witness(16)), sqrt_nfa(witness(16))
        relation = cube.transitions
        assert len(relation) == 8 * 16**4
        calls = {
            "hash": lambda: hash(relation) == hash(twin.transitions) and hash(cube) == hash(twin),
            "eq": lambda: relation == twin.transitions and cube == twin,
            "repr": lambda: repr(relation) == (
                "Relation(524288 transitions, 4096 states, 8192 letters)"
            ),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                assert call(), name
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, name
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            hash(relation)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.01

    @pytest.mark.parametrize("indexed", [False, True])
    def test_copies_keep_a_read_only_relation(self, witness6, indexed):
        # Relation.__reduce__ rebuilds the view, which marks the copied
        # keys read-only again; a built successor index travels along
        cube = sqrt_nfa(witness6)
        words = [(), (0, 216), (7, 216 + 7), (0, 216 + 5), (5, 256, 3, 259)]
        if indexed:
            member(cube, words[1])
        copies = [pickle.loads(pickle.dumps(cube)), copy.deepcopy(cube)]
        expected = [member(cube, w) for w in words]
        assert True in expected and False in expected
        for twin in copies:
            assert twin == cube and hash(twin) == hash(cube)
            assert not twin.transitions.keys.flags.writeable
            assert ("_succ" in twin.__dict__) == indexed
            assert [member(twin, w) for w in words] == expected


class TestReachability:
    def test_reach_epsilon_is_identity(self):
        for states in ({0}, {1, 2}, {0, 1, 2}):
            assert reach(NFA_AA, states, ()) == states

    def test_step_set_unions_successors(self):
        a = make_nfa(3, 1, [(0, 0, 1), (0, 0, 2), (1, 0, 2)], {0}, {2})
        assert reach(a, {0, 1}, (0,)) == {1, 2}

    def test_member_on_aa_language(self):
        assert not member(NFA_AA, ())
        assert not member(NFA_AA, (0,))
        assert member(NFA_AA, (0, 0))
        assert not member(NFA_AA, (0, 0, 0))

    @pytest.mark.parametrize(
        "call, word",
        [
            (lambda w: member(NFA_AA, w), (0, 0)),
            (lambda w: reach(NFA_AA, {0}, w), (0,)),
            (lambda w: sqrt_member_direct(NFA_AA, w), (0,)),
            (lambda w: reachable_triples(NFA_AA, w), (0,)),
            (lambda w: determinize(NFA_AA).member(w), (0, 0)),
        ],
        ids=["member", "reach", "sqrt_member_direct", "reachable_triples", "dfa-member"],
    )
    def test_a_one_shot_word_is_read_once(self, call, word):
        # an iterator's letters are checked and stepped in one reading, so
        # it gets the answer of its tuple, which reading no letter would not
        assert call(word) != call(())
        assert call(iter(word)) == call(word)

    def test_reach_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            reach(NFA_AA, {5}, ())
        with pytest.raises(ValueError):
            reach(NFA_AA, {0}, (3,))
        # the state set is empty after three letters; the fourth is still checked
        with pytest.raises(ValueError, match="letter index 3 out of range"):
            member(NFA_AA, (0, 0, 0, 3))

    def test_non_integer_letters_and_states_rejected(self):
        dfa = Dfa(2, ("a",), 0, {1}, ((1,), (0,)))
        with pytest.raises(ValueError, match="letter index 0.5 is not an integer"):
            reach(NFA_AA, {0}, (0.5,))
        with pytest.raises(ValueError, match="letter index 0.5 is not an integer"):
            dfa.run((0.5,))
        with pytest.raises(ValueError, match="state index 0.5 is not an integer"):
            reach(NFA_AA, {0.5}, (0,))

    @settings(max_examples=200)
    @given(
        nfas(),
        st.lists(st.integers(0, 2), max_size=4),
        st.lists(st.integers(0, 2), max_size=4),
        st.sets(st.integers(0, 3)),
    )
    def test_reach_composition_law(self, a, u_raw, v_raw, s_raw):
        sigma = len(a.alphabet)
        u = tuple(x % sigma for x in u_raw)
        v = tuple(x % sigma for x in v_raw)
        s = {x % a.n_states for x in s_raw}
        assert reach(a, s, u + v) == reach(a, reach(a, s, u), v)


@st.composite
def byte_boundary_nfas(draw):
    """Automata whose packed successor fields are 1 or 2 bytes, full or
    one state over: 7, 8, 9, 16 or 17 states, 1 to 3 letters."""
    n = draw(st.sampled_from([7, 8, 9, 16, 17]))
    sigma = draw(st.integers(1, 3))
    triples = draw(
        st.sets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, sigma - 1), st.integers(0, n - 1)
            ),
            max_size=60,
        )
    )
    return make_nfa(n, sigma, sorted(triples), {0}, {n - 1})


@st.composite
def sparse_wide_nfas(draw):
    """Automata of 65 to 130 states, 1 to 3 letters and at most 20
    transitions, so most states have none; state n - 1 is final, so the
    final mask runs past 64 bits."""
    n = draw(st.integers(65, 130))
    sigma = draw(st.integers(1, 3))
    state = st.integers(0, n - 1)
    triples = draw(st.sets(st.tuples(state, st.integers(0, sigma - 1), state), max_size=20))
    initial = draw(st.sets(state, min_size=1, max_size=5))
    final = draw(st.sets(state, max_size=5)) | {n - 1}
    return make_nfa(n, sigma, sorted(triples), initial, final)


def small_nfa(seed: int) -> Nfa:
    """A random automaton of 1 to 4 states over 3 letters."""
    return random_nfa(RandomSpec(seed=seed, max_states=4, alphabet_size=3))


def wide_nfa(seed: int) -> Nfa:
    """A random 24-state automaton over 3 letters: its state sets span 3 bytes."""
    coins = np.random.default_rng(seed).random((24, 3, 24)) < 0.1
    return make_nfa(24, 3, np.argwhere(coins).tolist(), {0, 9, 17}, {5, 23})


def agrees_under_threads(route, draw=small_nfa) -> None:
    """``route(a)`` on one automaton shared by 6 threads, each a first use
    of its successor index, equals ``route`` on a fresh copy, for the 10
    automata ``draw(seed)``, seeds 0 to 9."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(10):
            expected = route(draw(seed))
            shared = draw(seed)
            results = [None] * 6

            def run(k):
                results[k] = route(shared)

            threads = [threading.Thread(target=run, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert results == [expected] * 6
    finally:
        sys.setswitchinterval(old)


class TestSuccessorIndex:
    """The one successor index, rows for one-letter steps and per-byte
    tables for all-letter steps, against the raw relation."""

    def test_built_on_first_use_only(self, witness6):
        fresh = make_nfa(3, 1, [(0, 0, 1), (0, 0, 2), (1, 0, 2)], {0}, {2})
        assert [f.name for f in dataclasses.fields(Nfa)] == [
            "n_states", "alphabet", "initial", "final", "transitions"
        ]
        assert "_succ" not in sqrt_nfa(witness6).__dict__
        assert "_succ" not in fresh.__dict__
        assert reach(fresh, {0}, (0,)) == {1, 2}
        index = fresh._succ
        assert index.rows == {0: {0: 0b110}}
        assert index.tables == {}
        determinize(fresh)
        assert fresh._succ is index
        # the steps of {0}, {1, 2} and {2}: three columns and their OR
        built = {b: entry for b, entry in enumerate(index.tables[0]) if entry is not None}
        assert built == {0b001: 0b110, 0b010: 0b100, 0b100: 0, 0b110: 0b100}

    def test_columns_built_only_for_states_read(self, witness6):
        cube = sqrt_nfa(witness6)
        accept_table(cube, 1)
        index = cube._succ
        initial = _mask(cube.initial).to_bytes(index.width, "little")
        columns = {
            8 * i + j
            for i, table in index.tables.items()
            for j in range(8)
            if table[1 << j] is not None
        }
        assert columns == set(cube.initial)
        assert sorted(index.tables) == [i for i, byte in enumerate(initial) if byte]
        for i, table in index.tables.items():
            # every slot built holds initial states only
            assert all(entry is None or b & ~initial[i] == 0 for b, entry in enumerate(table))
        assert index.rows == {}

    def test_square_table_steps_on_the_columns(self):
        fresh = make_nfa(3, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 2), (2, 1, 0)], {0}, {2})
        square_accept_table(fresh, 3)
        index = fresh._succ
        assert all(index.tables[0][1 << s] is not None for s in range(3))
        assert index.rows == {}

    @settings(max_examples=200)
    @given(st.one_of(nfas(), byte_boundary_nfas()), st.data())
    def test_packed_step_agrees_with_rows(self, a, data):
        n, sigma = a.n_states, len(a.alphabet)
        width = -(-n // 8)
        index = a._succ
        for s in range(n):
            expected = [0] * sigma
            for src, x, d in triples(a):
                if src == s:
                    expected[x] |= 1 << d
            row = index.row(s)
            assert row == {x: m for x, m in enumerate(expected) if m}
            packed = index.entry(s >> 3, 1 << (s & 7)).to_bytes(sigma * width, "little")
            fields = [packed[x * width : (x + 1) * width] for x in range(sigma)]
            assert [int.from_bytes(f, "little") for f in fields] == expected
            assert [row.get(x, 0) for x in range(sigma)] == expected

        full = (1 << n) - 1
        drawn = data.draw(st.lists(st.integers(0, full), max_size=8))
        masks = [0, full, *drawn]
        step = _stepper(a)
        for mask in masks:
            assert step(mask) == [_run(a, mask, (x,)) for x in range(sigma)]

        # two fresh copies build their entries in opposite orders
        met = {i for mask in masks for i, b in enumerate(mask.to_bytes(width, "little")) if b}
        for order in (masks, masks[::-1]):
            copy = Nfa(a.n_states, a.alphabet, a.initial, a.final, a.transitions)
            step = _stepper(copy)
            for mask in order:
                assert step(mask) == [_run(a, mask, (x,)) for x in range(sigma)]
            tables = copy._succ.tables
            assert set(tables) == met
            assert all(len(table) == 256 for table in tables.values())

    @settings(max_examples=200)
    @given(st.one_of(nfas(), sparse_wide_nfas()))
    def test_rows_and_end_masks_equal_plain_python(self, a):
        expected = [{} for _ in range(a.n_states)]
        for s, x, t in a.transitions.array.tolist():
            expected[s][x] = expected[s].get(x, 0) | 1 << t
        index = a._succ
        assert [index.row(s) for s in range(a.n_states)] == expected
        assert (index.initial, index.final) == (_mask(a.initial), _mask(a.final))

    def test_rows_built_only_for_states_visited(self, witness6):
        cube = sqrt_nfa(witness6)
        a, b = witness6.letter_index("a[2,3,5]"), witness6.letter_index("b[2,3,5]")
        assert member(cube, (a, b))
        after_a = {d for s, x, d in triples(cube) if x == a and s in cube.initial}
        index = cube._succ
        assert set(index.rows) == cube.initial | after_a
        assert index.tables == {}

    def test_index_grows_with_the_relation_not_the_states(self):
        # one transition among 2**21 states: no per-state list or count
        n = 2**21
        a = Nfa(n, ("x",), {0}, {n - 1}, ((0, 0, n - 1),))
        tracemalloc.start()
        try:
            assert member(a, (0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert a._succ.rows == {0: {0: 1 << n - 1}}

    def test_concurrent_first_use_agrees(self):
        words = [w for k in range(4) for w in itertools.product(range(3), repeat=k)]
        agrees_under_threads(lambda a: [member(a, w) for w in words])

    @pytest.mark.parametrize("draw", [small_nfa, wide_nfa], ids=["small", "wide"])
    def test_concurrent_first_use_of_tables_agrees(self, draw):
        agrees_under_threads(lambda a: (determinize(a), accept_table(a, 3).tolist()), draw)

    @settings(max_examples=200)
    @given(nfas(), st.data())
    def test_index_agrees_with_transitions(self, a, data):
        copy = Nfa(a.n_states, a.alphabet, a.initial, a.final, a.transitions)
        sigma = len(a.alphabet)
        for s in range(a.n_states):
            for letter in range(sigma):
                expected = {d for src, x, d in triples(a) if (src, x) == (s, letter)}
                assert reach(a, {s}, (letter,)) == expected

        states = data.draw(st.sets(st.integers(0, a.n_states - 1)))
        word = tuple(data.draw(st.lists(st.integers(0, sigma - 1), max_size=5)))
        current = set(states)
        for letter in word:
            current = {d for src, x, d in triples(a) if x == letter and src in current}
        assert reach(a, states, word) == current

        dfa = determinize(a)
        for length in range(4):
            for w in itertools.product(range(sigma), repeat=length):
                assert dfa.member(w) == member(a, w)

        # both lanes ran; their one index lives outside the dataclass fields
        fields = {f.name for f in dataclasses.fields(Nfa)}
        assert set(a.__dict__) - fields == {"_succ"}
        assert a == copy
        assert hash(a) == hash(copy)
        assert repr(a) == repr(copy)


class TestDeterminize:
    def test_dfa_is_total_and_agrees_on_aa(self):
        dfa = determinize(NFA_AA)
        for row in dfa.transitions:
            assert len(row) == 1
        for k in range(5):
            assert dfa.member((0,) * k) == member(NFA_AA, (0,) * k)

    def test_empty_sink_only_when_needed(self):
        loop = make_nfa(1, 1, [(0, 0, 0)], {0}, {0})
        assert determinize(loop).n_states == 1
        assert determinize(NFA_AA).n_states == 4  # {0},{1},{2},sink

    def test_cap_enforced(self):
        with pytest.raises(BudgetExceededError):
            determinize(NFA_AA, cap=2)

    @pytest.mark.parametrize("word", [(-1,), (2,), (0, -1), (1, 2)])
    def test_bad_letter_index_rejected(self, word):
        # a negative index used to wrap around to the last letter
        dfa = determinize(random_nfa(RandomSpec(seed=3, max_states=3, alphabet_size=2)))
        for call in (dfa.run, dfa.member):
            with pytest.raises(ValueError, match="letter index .* out of range"):
                call(word)

    def test_member_agrees_with_dfa_for_200_random(self, small_random):
        for auto in small_random:
            dfa = determinize(auto)
            sigma = len(auto.alphabet)
            level = [()]
            assert dfa.member(()) == member(auto, ())
            for _ in range(4):
                level = [w + (a,) for w in level for a in range(sigma)]
                for w in level[:30]:
                    assert dfa.member(w) == member(auto, w)


class TestEquivalence:
    def test_equivalent_to_self_through_determinization(self):
        assert equivalent(NFA_AA, determinize(NFA_AA))

    def test_difference_witness_is_shortest(self):
        just_a = make_nfa(2, 1, [(0, 0, 1)], {0}, {1})
        assert difference_witness(NFA_AA, just_a) == (0,)
        assert difference_witness(just_a, just_a) is None

    def test_product_pairs_check_the_budget(self):
        # both accept a*: each side determinizes to 2 or 3 states, but all
        # 6 pairs must be reached to show that none splits
        two = make_nfa(2, 1, [(0, 0, 1), (1, 0, 0)], {0}, {0, 1})
        three = make_nfa(3, 1, [(0, 0, 1), (1, 0, 2), (2, 0, 0)], {0}, {0, 1, 2})
        assert determinize(two, 5).n_states == 2
        assert determinize(three, 5).n_states == 3
        assert difference_witness(two, three, 6) is None
        with pytest.raises(BudgetExceededError, match="equivalence product pairs: needs 6"):
            difference_witness(two, three, 5)

    def test_product_walk_stops_at_the_first_split(self):
        # the cycles split on aa, the 3rd pair, so a 3-pair cap suffices
        two = make_nfa(2, 1, [(0, 0, 1), (1, 0, 0)], {0}, {0})
        three = make_nfa(3, 1, [(0, 0, 1), (1, 0, 2), (2, 0, 0)], {0}, {0})
        assert difference_witness(two, three, 3) == (0, 0)
        assert not equivalent(two, three, 3)
        with pytest.raises(BudgetExceededError, match="equivalence product pairs: needs 3"):
            difference_witness(two, three, 2)

    def test_difference_requires_same_alphabet(self):
        for other in (
            Nfa(1, ("x",), frozenset({0}), frozenset(), ()),
            Dfa(1, ("x",), 0, frozenset(), ((0,),)),
        ):
            with pytest.raises(ValueError, match="alphabet"):
                equivalent(NFA_AA, other)

    def test_equivalent_implies_member_agrees(self, small_random):
        for auto in small_random[:40]:
            mirror = determinize(auto)
            assert equivalent(auto, mirror)
            words = iter_words(len(auto.alphabet), 5)
            assert all(member(auto, w) == mirror.member(w) for w in words)

    def test_inequivalent_pairs_are_caught_both_ways(self, small_random):
        flagged = 0
        for first, second in zip(small_random[:30], small_random[30:60]):
            if first.alphabet != second.alphabet:
                continue
            agree_exact = equivalent(first, second)
            probe = first_disagreement(first, second, 5)
            if probe is not None:
                flagged += 1
                assert not agree_exact
                assert difference_witness(first, second) == probe
        assert flagged > 0  # the pool is varied enough to disagree somewhere


@st.composite
def nfa_pairs(draw):
    """Two drawn automata over one alphabet."""
    sigma = draw(st.integers(1, 3))
    return draw(nfas(sigma)), draw(nfas(sigma))


class TestDfaSide:
    """A ``Dfa`` walks its states where its NFA view walks their singleton
    masks; both are numbered alike, so every walk answers the same."""

    @settings(max_examples=200, deadline=None)
    @given(nfa_pairs(), st.integers(0, 4))
    def test_a_dfa_side_matches_its_nfa_view(self, pair, max_len):
        a, b = pair
        d = determinize(b)
        view = dfa_to_nfa(d)
        word = difference_witness(a, view)
        for x, y in ((a, d), (d, a), (a, view)):
            assert equivalent(x, y) == (word is None)
            assert difference_witness(x, y) == word
        # the split word is member's first disagreement, when it is this short
        short = word is not None and len(word) <= max_len
        assert first_disagreement(a, view, max_len) == (word if short else None)
        assert np.array_equal(accept_table(d, max_len), dfa_accept_table(d, max_len))
        assert np.array_equal(accept_table(d, max_len), accept_table(view, max_len))


def accepted(auto, max_len):
    """The words ``accept_table`` flags, read off its rank order by
    :func:`iter_words`."""
    words = iter_words(len(auto.alphabet), max_len)
    return [w for w, flag in zip(words, accept_table(auto, max_len), strict=True) if flag]


class TestEnumerate:
    def test_empty_language_gives_empty_list(self):
        a = make_nfa(1, 1, [], {0}, set())
        assert accepted(a, 5) == []

    def test_aa_language(self):
        assert accepted(NFA_AA, 3) == [(0, 0)]

    def test_order_is_length_lex(self):
        a = make_nfa(1, 2, [(0, 0, 0), (0, 1, 0)], {0}, {0})
        words = accepted(a, 2)
        assert words == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        # 0(0|1)*: the flags follow the letter order within each length
        b = make_nfa(2, 2, [(0, 0, 1), (1, 0, 1), (1, 1, 1)], {0}, {1})
        assert accepted(b, 2) == [(0,), (0, 0), (0, 1)]

    def test_budget_enforced(self):
        a = make_nfa(1, 2, [(0, 0, 0), (0, 1, 0)], {0}, {0})
        with pytest.raises(BudgetExceededError):
            accept_table(a, 30, budget=100)

    def test_witness_subalphabet_contains_squared_pair(self, witness6):
        aX = witness6.letter_index("a[2,3,5]")
        bX = witness6.letter_index("b[2,3,5]")
        keep = [
            (src, {aX: 0, bX: 1}[letter], dst)
            for src, letter, dst in triples(witness6)
            if letter in (aX, bX)
        ]
        sub = Nfa(
            n_states=6,
            alphabet=("a[2,3,5]", "b[2,3,5]"),
            initial=witness6.initial,
            final=witness6.final,
            transitions=tuple(keep),
        )
        assert (0, 1, 0, 1) in accepted(sub, 4)
