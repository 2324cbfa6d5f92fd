import numpy as np
import pytest

from sqrtnfa import (
    BudgetExceededError,
    Dfa,
    Nfa,
    RandomSpec,
    determinize,
    member,
    random_nfa,
    sqrt_dfa,
    sqrt_member_direct,
)
from conftest import random_word


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


class TestRandomSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomSpec(seed=-1)
        with pytest.raises(ValueError):
            RandomSpec(seed=0, max_states=0)
        with pytest.raises(ValueError):
            RandomSpec(seed=0, alphabet_size=0)
        with pytest.raises(ValueError, match="transition_density"):
            RandomSpec(seed=0, transition_density=0.0)
        with pytest.raises(ValueError, match="transition_density"):
            RandomSpec(seed=0, transition_density=1.5)

    def test_density_one_is_allowed(self):
        RandomSpec(seed=0, transition_density=1.0)


class TestRandomNfa:
    def test_same_seed_same_automaton(self):
        spec = RandomSpec(seed=12345)
        assert random_nfa(spec) == random_nfa(spec)

    def test_different_seeds_differ_somewhere(self):
        autos = {random_nfa(RandomSpec(seed=s)) for s in range(40)}
        assert len(autos) > 30

    def test_full_density_gives_complete_relation(self):
        spec = RandomSpec(
            seed=3,
            max_states=3,
            alphabet_size=2,
            transition_density=1.0,
            initial_density=1.0,
            final_density=1.0,
        )
        auto = random_nfa(spec)
        n = auto.n_states
        assert len(auto.transitions) == n * 2 * n
        assert auto.initial == frozenset(range(n))
        assert auto.final == frozenset(range(n))

    def test_initial_never_empty(self):
        for seed in range(300):
            auto = random_nfa(RandomSpec(seed=seed, initial_density=0.01))
            assert auto.initial

    def test_state_count_within_bound(self):
        for seed in range(100):
            auto = random_nfa(RandomSpec(seed=seed, max_states=4))
            assert 1 <= auto.n_states <= 4
            assert auto.alphabet == ("l0", "l1", "l2")
