import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtnfa import (
    BudgetExceededError,
    Nfa,
    RandomSpec,
    bounded_equal,
    determinize,
    dfa_to_nfa,
    difference_witness,
    enumerate_words,
    equivalent,
    member,
    random_nfa,
    reach,
    step_set,
    trim,
)
from conftest import random_word


def make_nfa(n, sigma, triples, initial, final):
    return Nfa(
        n_states=n,
        alphabet=tuple(f"l{i}" for i in range(sigma)),
        initial=frozenset(initial),
        final=frozenset(final),
        transitions=tuple(triples),
    )


NFA_AA = make_nfa(3, 1, [(0, 0, 1), (1, 0, 2)], {0}, {2})


@st.composite
def nfas(draw):
    n = draw(st.integers(1, 4))
    sigma = draw(st.integers(1, 3))
    triples = draw(
        st.sets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, sigma - 1), st.integers(0, n - 1)
            ),
            max_size=12,
        )
    )
    initial = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    final = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return make_nfa(n, sigma, sorted(triples), initial, final)


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

    def test_targets_returns_empty_for_missing_entries(self):
        assert NFA_AA.targets(2, 0) == ()
        assert NFA_AA.targets(0, 0) == (1,)


class TestReachability:
    def test_reach_epsilon_is_identity(self):
        for states in ({0}, {1, 2}, {0, 1, 2}):
            assert reach(NFA_AA, states, ()) == states

    def test_step_set_unions_successors(self):
        a = make_nfa(3, 1, [(0, 0, 1), (0, 0, 2), (1, 0, 2)], {0}, {2})
        assert step_set(a, {0, 1}, 0) == {1, 2}

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
