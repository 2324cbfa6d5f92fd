import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from sqrtnfa import (
    BudgetExceededError,
    Dfa,
    Nfa,
    RandomSpec,
    accept_table,
    determinize,
    emit_nfa,
    equivalent,
    member,
    random_nfa,
    relation_dfa,
    sqrt_dfa,
    sqrt_member_direct,
    sqrt_nfa,
    square_accept_table,
)
from conftest import nfas, random_word, tuple_sqrt_dfa


def unary_dfa(cycle, final):
    return Dfa(
        n_states=cycle,
        alphabet=("a",),
        initial=0,
        final=frozenset(final),
        transitions=tuple(((s + 1) % cycle,) for s in range(cycle)),
    )


class TestSqrtMemberDirect:
    def test_epsilon_reduces_to_plain_membership(self, small_random):
        for auto in small_random[:50]:
            assert sqrt_member_direct(auto, ()) == member(auto, ())

    def test_diagonal_witness_words(self, witness6):
        for flat in range(0, 216, 17):
            assert sqrt_member_direct(witness6, (flat, 216 + flat))

    def test_even_square_language_accepts_everything_unary(self):
        # L = (aa)*: ww always has even length, so sqrt(L) = a*
        even = Nfa(2, ("a",), frozenset({0}), frozenset({0}),
                   ((0, 0, 1), (1, 0, 0)))
        for k in range(8):
            assert sqrt_member_direct(even, (0,) * k)


class TestSqrtDfa:
    def test_identity_only_for_full_loop(self):
        result = sqrt_dfa(unary_dfa(1, {0}))
        assert result.n_states == 1
        for k in range(5):
            assert result.member((0,) * k)

    def test_cycle_of_three(self):
        # ww in (aaa)* iff 3 divides 2|w| iff 3 divides |w|
        result = sqrt_dfa(unary_dfa(3, {0}))
        for k in range(12):
            assert result.member((0,) * k) == (k % 3 == 0)

    def test_exact_word_aa(self):
        # {aa}: 0 ->a 1 ->a 2(final) ->a 3(sink); sqrt is {a}
        dfa = Dfa(4, ("a",), 0, frozenset({2}), ((1,), (2,), (3,), (3,)))
        result = sqrt_dfa(dfa)
        got = [result.member((0,) * k) for k in range(6)]
        assert got == [False, True, False, False, False, False]

    def test_start_state_is_identity_function(self):
        dfa = unary_dfa(3, {0})
        # identity accepts iff identity(identity(0)) = 0 is final
        assert sqrt_dfa(dfa).member(())

    def test_seven_state_input_accepted(self):
        assert sqrt_dfa(unary_dfa(7, {0})).n_states == 7

    def test_maps_match_the_tuple_reference_on_seeds_0_to_499(self):
        for seed in range(500):
            det = determinize(random_nfa(RandomSpec(seed=seed)))
            fn, reference = sqrt_dfa(det), tuple_sqrt_dfa(det)
            for name in ("n_states", "alphabet", "initial", "final", "transitions"):
                assert getattr(fn, name) == getattr(reference, name), (seed, name)
            # explore's lists, converted once, by Dfa: a tuple of tuples of int
            assert type(fn.transitions) is tuple
            assert {type(row) for row in fn.transitions} == {tuple}
            assert {type(q) for row in fn.transitions for q in row} == {int}

    def test_up_to_256_states_fit_in_bytes(self):
        fn = sqrt_dfa(unary_dfa(256, {0}))
        assert fn == tuple_sqrt_dfa(unary_dfa(256, {0}))
        assert fn.n_states == 256
        with pytest.raises(ValueError, match="^sqrt_dfa supports at most 256 states, got 257$"):
            sqrt_dfa(unary_dfa(257, {0}))

    def test_budget_on_function_states(self):
        with pytest.raises(BudgetExceededError):
            sqrt_dfa(unary_dfa(5, {0}), budget=3)

    def test_state_count_bounded_by_monoid_size(self, small_random):
        for auto in small_random[:30]:
            det = determinize(auto)
            fn = sqrt_dfa(det)
            assert fn.n_states <= det.n_states**det.n_states

    def test_function_composition_law(self, small_random):
        # the function reached on u+v equals (function of v) applied after
        # (function of u), tracked independently of sqrt_dfa internals
        rng = np.random.Generator(np.random.PCG64(321))
        samples = 0
        for auto in small_random[:50]:
            det = determinize(auto)

            def fn_of(word):
                table = []
                for q in range(det.n_states):
                    s = q
                    for a in word:
                        s = det.transitions[s][a]
                    table.append(s)
                return tuple(table)

            for _ in range(20):
                u = random_word(rng, len(det.alphabet), 3)
                v = random_word(rng, len(det.alphabet), 3)
                fu, fv, fuv = fn_of(u), fn_of(v), fn_of(u + v)
                assert fuv == tuple(fv[fu[q]] for q in range(det.n_states))
                samples += 1
        assert samples == 1000

    def test_language_is_square_root(self, small_random):
        for auto in small_random[:40]:
            det = determinize(auto)
            fn = sqrt_dfa(det)
            sigma = len(det.alphabet)
            level = [()]
            for _ in range(4):
                for w in level:
                    assert fn.member(w) == member(auto, w + w)
                level = [w + (a,) for w in level for a in range(sigma)][:81]


class TestRelationDfa:
    @settings(max_examples=100, deadline=None)
    @given(nfas())
    def test_the_three_routes_accept_one_language(self, a):
        rel = relation_dfa(a)
        assert equivalent(rel, sqrt_dfa(determinize(a)))
        assert equivalent(rel, sqrt_nfa(a))
        # square_accept_table walks the nodes that are rel's states
        for max_len in range(5):
            assert np.array_equal(accept_table(rel, max_len), square_accept_table(a, max_len))


class TestRandomSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomSpec(seed=-1)
        with pytest.raises(ValueError):
            RandomSpec(seed=0, max_states=0)
        with pytest.raises(ValueError):
            RandomSpec(seed=0, alphabet_size=0)


# sha256 of the emitted texts of seeds 0..499, concatenated, for the
# default spec and one other: random_nfa's draw contract, its draw order
# and densities included
PINNED_DRAWS = [
    ({}, "4ce7149b0eb0cfdf4352c1ff60635e2582f8dc39e98c6132e61a28cad5603da2"),
    (
        {"max_states": 5, "alphabet_size": 2},
        "83d537cecf7aaca5818674ffcd31797b64658045eceb0e6c054001f38a95bbe8",
    ),
]


class TestRandomNfa:
    @pytest.mark.parametrize("fields, pinned", PINNED_DRAWS, ids=["default", "5x2"])
    def test_draws_are_pinned(self, fields, pinned):
        digest = hashlib.sha256()
        for seed in range(500):
            digest.update(emit_nfa(random_nfa(RandomSpec(seed=seed, **fields))).encode())
        assert digest.hexdigest() == pinned

    def test_same_seed_same_automaton(self):
        spec = RandomSpec(seed=12345)
        assert random_nfa(spec) == random_nfa(spec)

    def test_different_seeds_differ_somewhere(self):
        autos = {random_nfa(RandomSpec(seed=s)) for s in range(40)}
        assert len(autos) > 30

    def test_initial_never_empty(self):
        # replay each seed's draws: the state count, the n * 3 * n
        # transition uniforms, then the n initial uniforms (density 0.5);
        # state 0 is forced in exactly when every initial draw misses
        forced = []
        for seed in range(300):
            rng = np.random.Generator(np.random.PCG64(seed))
            n = int(rng.integers(1, 5))
            rng.random((n, 3, n))
            drawn = frozenset(np.flatnonzero(rng.random(n) < 0.5).tolist())
            if not drawn:
                forced.append(seed)
            assert random_nfa(RandomSpec(seed=seed)).initial == (drawn or {0})
        assert forced

    def test_state_count_within_bound(self):
        for seed in range(100):
            auto = random_nfa(RandomSpec(seed=seed, max_states=4))
            assert 1 <= auto.n_states <= 4
            assert auto.alphabet == ("l0", "l1", "l2")
