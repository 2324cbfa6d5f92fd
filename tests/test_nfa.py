import dataclasses
import itertools
import sys
import threading

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
    bounded_equal,
    determinize,
    dfa_to_nfa,
    difference_witness,
    enumerate_words,
    equivalent,
    member,
    random_nfa,
    reach,
    sqrt_nfa,
    square_accept_table,
    trim,
    witness,
)
from sqrtnfa.nfa import Relation, _run, _stepper
from conftest import NFA_AA, make_nfa, nfas, random_word


class TestConstruction:
    def test_transitions_are_sorted_canonically(self):
        a = make_nfa(2, 2, [(1, 0, 0), (0, 1, 1), (0, 0, 1)], {0}, {1})
        assert a.transitions == ((0, 0, 1), (0, 1, 1), (1, 0, 0))

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
        "triples",
        [
            ((0, 0, 1.5),),
            ((0, 0.5, 1),),
            ((0, 0, 1), (1.0, 0, 0)),
            np.array([[0.0, 0.0, 1.5]]),
            Relation(np.array([[0.0, 0.0, 1.5]])),
            Relation(np.zeros((1, 3))),
        ],
    )
    def test_non_integer_entries_rejected(self, triples):
        # an int64 conversion would truncate 1.5 to 1 and accept the relation
        with pytest.raises(ValueError, match="not a 64-bit integer"):
            Nfa(2, ("a",), {0}, set(), triples)

    def test_non_integer_dfa_targets_rejected(self):
        # dfa_to_nfa would otherwise truncate the target 1.5 to 1
        with pytest.raises(ValueError, match="target 1.5 is not an integer"):
            Dfa(2, ("a",), 0, {1}, ((1.5,), (0,)))

    @pytest.mark.parametrize("triples", [((),), [[]], ((0, 0),), np.zeros((2, 2), dtype=np.int64)])
    def test_misshapen_relations_rejected(self, triples):
        with pytest.raises(ValueError, match="must be .source, letter, target. triples"):
            Nfa(2, ("a",), {0}, set(), triples)
        with pytest.raises(ValueError, match="must be .source, letter, target. triples"):
            Nfa(2, ("a",), {0}, set(), Relation(np.array(triples)))

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

    def test_targets_returns_empty_for_missing_entries(self):
        assert NFA_AA.targets(2, 0) == ()
        assert NFA_AA.targets(0, 0) == (1,)

    def test_targets_validates_its_arguments(self):
        # an integer letter outside the alphabet has no successors, as documented
        assert NFA_AA.targets(0, 1) == NFA_AA.targets(0, -1) == ()
        assert NFA_AA.targets(np.int64(0), np.int32(0)) == (1,)
        for args, message in (
            ((0, 0.5), "letter index 0.5 is not an integer"),
            ((0.5, 0), "state index 0.5 is not an integer"),
            ((7, 0), "state index 7 out of range"),
            ((-1, 0), "state index -1 out of range"),
        ):
            with pytest.raises(ValueError, match=message):
                NFA_AA.targets(*args)


class TestArrayRelation:
    """The relation is one sorted int64 array behind a tuple-like view."""

    @settings(max_examples=200)
    @given(nfas(), st.randoms(use_true_random=False))
    def test_tuples_and_array_build_the_same_automaton(self, a, rng):
        triples = list(a.transitions)
        rng.shuffle(triples)
        from_tuples = Nfa(a.n_states, a.alphabet, a.initial, a.final, tuple(triples))
        shuffled = np.array(triples, dtype=np.int64).reshape(-1, 3)
        from_array = Nfa(a.n_states, a.alphabet, a.initial, a.final, shuffled)
        assert from_tuples == from_array == a
        assert from_tuples.transitions == from_array.transitions == tuple(sorted(triples))
        assert hash(from_tuples) == hash(from_array) == hash(a)
        assert repr(from_tuples) == repr(from_array) == repr(a)
        assert list(from_array.transitions) == sorted(triples)
        if triples:
            assert from_array.transitions[-1] == max(triples)
        assert not from_array.transitions.array.flags.writeable

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
            Relation(np.array(triples)),
            Relation(np.array(triples, dtype=np.int32)),
        ):
            with pytest.raises(ValueError, match=f"^{message}"):
                Nfa(n, ("a",), {0}, set(), given_as)

    def test_state_numbers_beyond_32_bits(self):
        # a packed (source, letter, target) key would pass 2**63 here
        n = 2**32
        triples = [(n - 1, 2, 0), (5, 0, n - 1), (n - 1, 0, 7), (5, 0, 3), (0, 2, n - 2)]
        a = Nfa(n, ("x", "y", "z"), {0}, {n - 1}, tuple(triples))
        assert a.transitions == tuple(sorted(triples))
        reversed_array = np.array(sorted(triples)[::-1])
        assert Nfa(n, ("x", "y", "z"), {0}, {n - 1}, reversed_array) == a
        with pytest.raises(ValueError, match=r"transition \(5, 0, 4294967296\) has a state"):
            Nfa(n, ("x", "y", "z"), {0}, set(), tuple(triples) + ((5, 0, n),))
        with pytest.raises(ValueError, match=r"transition \(5, 3, 1\) has a letter"):
            Nfa(n, ("x", "y", "z"), {0}, set(), tuple(triples) + ((5, 3, 1),))
        with pytest.raises(ValueError, match=r"duplicate transition \(5, 0, 3\)"):
            Nfa(n, ("x", "y", "z"), {0}, set(), tuple(triples) + ((5, 0, 3),))

    def test_length_builds_no_tuples(self):
        cube = sqrt_nfa(witness(8))
        assert len(cube.transitions) == 8 * 8**4
        assert cube.transitions._tuples is None
        assert cube.transitions[0] == tuple(cube.transitions.array[0].tolist())
        assert cube.transitions._tuples is not None


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


def agrees_under_threads(route) -> None:
    """``route(a)`` on one automaton shared by 6 threads, each a first use
    of its successor index, equals ``route`` on a fresh copy, for 10
    random automata."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(10):
            spec = RandomSpec(seed=seed, max_states=4, alphabet_size=3)
            expected = route(random_nfa(spec))
            shared = random_nfa(spec)
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
    """The one per-state successor index, rows for one-letter steps and
    columns for all-letter steps, against the raw relation."""

    def test_built_on_first_use_only(self, witness6):
        fresh = make_nfa(3, 1, [(0, 0, 1), (0, 0, 2), (1, 0, 2)], {0}, {2})
        assert [f.name for f in dataclasses.fields(Nfa)] == [
            "n_states", "alphabet", "initial", "final", "transitions"
        ]
        assert "_succ" not in sqrt_nfa(witness6).__dict__
        assert "_succ" not in fresh.__dict__
        assert fresh.targets(0, 0) == (1, 2)
        index = fresh._succ
        assert index.rows == [{0: 0b110}, None, None]
        assert index.columns == [None] * 3
        determinize(fresh)
        assert fresh._succ is index
        assert index.columns == [0b110, 0b100, 0]

    def test_columns_built_only_for_states_read(self, witness6):
        cube = sqrt_nfa(witness6)
        accept_table(cube, 1)
        index = cube._succ
        built = [s for s, column in enumerate(index.columns) if column is not None]
        assert built == sorted(cube.initial)
        assert index.rows == [None] * cube.n_states

    def test_square_table_steps_on_the_columns(self):
        fresh = make_nfa(3, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 2), (2, 1, 0)], {0}, {2})
        square_accept_table(fresh, 3)
        index = fresh._succ
        assert None not in index.columns
        assert index.rows == [None] * 3

    @settings(max_examples=200)
    @given(st.one_of(nfas(), byte_boundary_nfas()), st.data())
    def test_packed_step_agrees_with_rows(self, a, data):
        n, sigma = a.n_states, len(a.alphabet)
        width = -(-n // 8)
        index = a._succ
        for s in range(n):
            expected = [0] * sigma
            for src, x, d in a.transitions:
                if src == s:
                    expected[x] |= 1 << d
            row = index.row(s)
            assert row == {x: m for x, m in enumerate(expected) if m}
            packed = index.column(s).to_bytes(sigma * width, "little")
            fields = [packed[x * width : (x + 1) * width] for x in range(sigma)]
            assert [int.from_bytes(f, "little") for f in fields] == expected
            assert [row.get(x, 0) for x in range(sigma)] == expected

        full = (1 << n) - 1
        drawn = data.draw(st.lists(st.integers(0, full), max_size=8))
        step = _stepper(a)
        for mask in [0, full, *drawn]:
            assert step(mask) == [_run(a, mask, (x,)) for x in range(sigma)]

    def test_rows_built_only_for_states_visited(self, witness6):
        cube = sqrt_nfa(witness6)
        a, b = witness6.letter_index("a[2,3,5]"), witness6.letter_index("b[2,3,5]")
        assert member(cube, (a, b))
        after_a = {d for s, x, d in cube.transitions if x == a and s in cube.initial}
        index = cube._succ
        built = {s for s, row in enumerate(index.rows) if row is not None}
        assert built == cube.initial | after_a
        assert index.columns == [None] * cube.n_states

    def test_concurrent_first_use_agrees(self):
        words = [w for k in range(4) for w in itertools.product(range(3), repeat=k)]
        agrees_under_threads(lambda a: [member(a, w) for w in words])

    def test_concurrent_first_use_of_columns_agrees(self):
        agrees_under_threads(lambda a: (determinize(a), accept_table(a, 3).tolist()))

    @settings(max_examples=200)
    @given(nfas(), st.data())
    def test_index_agrees_with_transitions(self, a, data):
        copy = Nfa(a.n_states, a.alphabet, a.initial, a.final, a.transitions)
        sigma = len(a.alphabet)
        for s in range(a.n_states):
            for letter in range(sigma):
                expected = sorted(d for src, x, d in a.transitions if (src, x) == (s, letter))
                assert a.targets(s, letter) == tuple(expected)

        states = data.draw(st.sets(st.integers(0, a.n_states - 1)))
        word = tuple(data.draw(st.lists(st.integers(0, sigma - 1), max_size=5)))
        current = set(states)
        for letter in word:
            current = {d for src, x, d in a.transitions if x == letter and src in current}
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
        dfa_view = dfa_to_nfa(determinize(NFA_AA))
        assert equivalent(NFA_AA, dfa_view)

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
        other = Nfa(1, ("x",), frozenset({0}), frozenset(), ())
        with pytest.raises(ValueError, match="alphabet"):
            equivalent(NFA_AA, other)

    def test_bounded_equal_finds_first_disagreement(self):
        just_a = make_nfa(2, 1, [(0, 0, 1)], {0}, {1})
        assert bounded_equal(NFA_AA, just_a, 4) == (0,)
        assert bounded_equal(NFA_AA, NFA_AA, 6) is None

    def test_equivalent_implies_bounded_equal_none(self, small_random):
        for auto in small_random[:40]:
            mirror = dfa_to_nfa(determinize(auto))
            assert equivalent(auto, mirror)
            assert bounded_equal(auto, mirror, 5) is None

    def test_inequivalent_pairs_are_caught_both_ways(self, small_random):
        flagged = 0
        for first, second in zip(small_random[:30], small_random[30:60]):
            if first.alphabet != second.alphabet:
                continue
            agree_exact = equivalent(first, second)
            probe = bounded_equal(first, second, 5)
            if probe is not None:
                flagged += 1
                assert not agree_exact
        assert flagged > 0  # the pool is varied enough to disagree somewhere


class TestTrim:
    def test_removes_dead_and_unreachable_states(self):
        a = make_nfa(4, 1, [(0, 0, 1), (2, 0, 1), (1, 0, 3)], {0}, {3})
        t = trim(a)
        assert t.n_states == 3  # state 2 unreachable
        assert member(t, (0, 0)) and not member(t, (0,))

    def test_empty_language_trims_to_canonical_one_state(self):
        a = make_nfa(3, 1, [(0, 0, 1)], {0}, set())
        t = trim(a)
        assert t.n_states == 1 and not t.final and not t.transitions

    def test_trim_preserves_member_on_1000_samples(self, small_random):
        rng = np.random.Generator(np.random.PCG64(77))
        checked = 0
        for auto in small_random:
            t = trim(auto)
            for _ in range(5):
                w = random_word(rng, len(auto.alphabet), 5)
                assert member(t, w) == member(auto, w)
                checked += 1
        assert checked == 1000

    def test_trim_keeps_relative_state_order(self):
        a = make_nfa(4, 1, [(0, 0, 2), (2, 0, 3)], {0}, {3})
        t = trim(a)  # drops state 1, keeps 0 < 2 < 3 as 0 < 1 < 2
        assert t.transitions == ((0, 0, 1), (1, 0, 2))


class TestEnumerate:
    def test_empty_language_gives_empty_list(self):
        a = make_nfa(1, 1, [], {0}, set())
        assert enumerate_words(a, 5) == []

    def test_aa_language(self):
        assert enumerate_words(NFA_AA, 3) == [(0, 0)]

    def test_order_is_length_lex(self):
        a = make_nfa(1, 2, [(0, 0, 0), (0, 1, 0)], {0}, {0})
        words = enumerate_words(a, 2)
        assert words == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_budget_enforced(self):
        a = make_nfa(1, 2, [(0, 0, 0), (0, 1, 0)], {0}, {0})
        with pytest.raises(BudgetExceededError):
            enumerate_words(a, 30, budget=100)

    def test_witness_subalphabet_contains_squared_pair(self, witness6):
        aX = witness6.letter_index("a[2,3,5]")
        bX = witness6.letter_index("b[2,3,5]")
        keep = [
            (src, {aX: 0, bX: 1}[letter], dst)
            for src, letter, dst in witness6.transitions
            if letter in (aX, bX)
        ]
        sub = Nfa(
            n_states=6,
            alphabet=("a[2,3,5]", "b[2,3,5]"),
            initial=witness6.initial,
            final=witness6.final,
            transitions=tuple(keep),
        )
        assert (0, 1, 0, 1) in enumerate_words(sub, 4)
