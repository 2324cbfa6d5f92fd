import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sqrtnfa import (
    BudgetExceededError,
    Nfa,
    TripleCodec,
    determinize,
    equivalent,
    member,
    reach,
    reachable_triples,
    sqrt_dfa,
    sqrt_member_direct,
    sqrt_nfa,
    textio,
    triple_labels,
    witness,
)
from conftest import NFA_AA, iter_words, make_nfa, nfas, random_word


def sqrt_nfa_reference(nfa: Nfa) -> Nfa:
    """The cube built one transition at a time: the audit reference for
    the array construction."""
    n = nfa.n_states
    codec = TripleCodec(n)
    by_letter: dict[int, list[tuple[int, int]]] = {}
    for src, letter, dst in nfa.transitions:
        by_letter.setdefault(letter, []).append((src, dst))
    triples = []
    for letter, pairs in by_letter.items():
        for q, q2 in pairs:
            for r, r2 in pairs:
                for p in range(n):
                    triples.append((codec.encode(p, q, r), letter, codec.encode(p, q2, r2)))
    return Nfa(
        n_states=n**3,
        alphabet=nfa.alphabet,
        initial=frozenset(codec.encode(p, q0, p) for p in range(n) for q0 in nfa.initial),
        final=frozenset(codec.encode(p, p, f) for p in range(n) for f in nfa.final),
        transitions=tuple(triples),
    )


class TestCodec:
    def test_encode_formula(self):
        codec = TripleCodec(6)
        assert codec.encode(0, 0, 0) == 0
        assert codec.encode(1, 2, 3) == 1 * 36 + 2 * 6 + 3
        assert codec.encode(5, 5, 5) == 215

    def test_bijection_exhaustive(self):
        codec = TripleCodec(5)
        for i in range(125):
            assert codec.encode(*codec.decode(i)) == i
        for p in range(5):
            for q in range(5):
                for r in range(5):
                    assert codec.decode(codec.encode(p, q, r)) == (p, q, r)

    def test_range_checks(self):
        codec = TripleCodec(3)
        with pytest.raises(ValueError):
            codec.encode(3, 0, 0)
        with pytest.raises(ValueError):
            codec.decode(27)

    @settings(max_examples=200)
    @given(st.integers(1, 32), st.sampled_from([np.int64, np.uint16]), st.data())
    def test_split_and_join_on_arrays(self, n, dtype, data):
        codec = TripleCodec(n)
        flat = data.draw(arrays(dtype, st.integers(0, 16), elements=st.integers(0, n**3 - 1)))
        parts = codec.split(flat)
        assert [part.dtype for part in parts] == [flat.dtype] * 3
        assert list(zip(*(part.tolist() for part in parts))) == list(
            map(codec.decode, flat.tolist())
        )
        joined = codec.join(*parts)
        assert joined.dtype == flat.dtype and np.array_equal(joined, flat)
        p, q, r = data.draw(st.tuples(*[st.integers(0, n - 1)] * 3))
        assert codec.join(p, q, r) == codec.encode(p, q, r)


class TestConstruction:
    def test_state_count_is_cubed(self, small_random):
        for auto in small_random[:100]:
            assert sqrt_nfa(auto).n_states == auto.n_states**3

    def test_alphabet_preserved(self, cube6, witness6):
        assert cube6.alphabet == witness6.alphabet

    def test_initial_and_final_sets(self):
        cube = sqrt_nfa(NFA_AA)
        codec = TripleCodec(3)
        assert cube.initial == frozenset(codec.encode(p, 0, p) for p in range(3))
        assert cube.final == frozenset(codec.encode(p, p, 2) for p in range(3))

    def test_first_coordinate_conserved(self, small_random):
        for auto in small_random[:50]:
            n = auto.n_states
            cube = sqrt_nfa(auto)
            for src, _letter, dst in cube.transitions:
                assert src // (n * n) == dst // (n * n)

    def test_transition_rule_on_coordinates(self):
        cube = sqrt_nfa(NFA_AA)
        codec = TripleCodec(3)
        expected = set()
        for p in range(3):
            for q, q2 in ((0, 1), (1, 2)):
                for r, r2 in ((0, 1), (1, 2)):
                    expected.add(
                        (codec.encode(p, q, r), 0, codec.encode(p, q2, r2))
                    )
        assert set(cube.transitions) == expected

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            sqrt_nfa(NFA_AA, budget=26)
        assert sqrt_nfa(NFA_AA, budget=27).n_states == 27

    def test_transition_budget_refusal(self):
        # 64 cube states fit the budget, its 4 * 16**2 transitions do not
        complete = make_nfa(4, 1, [(p, 0, q) for p in range(4) for q in range(4)], {0}, {3})
        with pytest.raises(BudgetExceededError) as info:
            sqrt_nfa(complete, budget=1000)
        assert info.value.what == "cube construction transitions"
        assert info.value.needed == 1024
        assert len(sqrt_nfa(complete, budget=1024).transitions) == 1024

    def test_one_state_loop(self):
        one = make_nfa(1, 1, [(0, 0, 0)], {0}, {0})
        cube = sqrt_nfa(one)
        assert cube.n_states == 1
        for k in range(4):
            assert member(cube, (0,) * k)

    def test_sqrt_of_aa_is_a(self):
        cube = sqrt_nfa(NFA_AA)
        assert [w for w in iter_words(1, 4) if member(cube, w)] == [(0,)]

    def test_witness_cube_accepts_every_diagonal_pair(self, cube6):
        assert cube6.n_states == 216
        assert all(member(cube6, (flat, 216 + flat)) for flat in range(216))


class TestArrayConstruction:
    @settings(max_examples=200)
    @given(nfas())
    def test_equals_the_loop_reference(self, a):
        cube = sqrt_nfa(a)
        assert cube == sqrt_nfa_reference(a)
        assert cube.transitions == sqrt_nfa_reference(a).transitions

    def test_equals_the_loop_reference_on_witnesses(self):
        for n in (6, 7):
            assert sqrt_nfa(witness(n)) == sqrt_nfa_reference(witness(n))

    @settings(max_examples=200)
    @given(nfas())
    def test_language_is_that_of_the_function_automaton(self, a):
        assert equivalent(sqrt_nfa(a), sqrt_dfa(determinize(a)))


class TestPointwiseAgreement:
    def test_member_matches_direct_square_on_random_samples(self, small_random):
        rng = np.random.Generator(np.random.PCG64(4242))
        checked = 0
        for auto in small_random:
            cube = sqrt_nfa(auto)
            for _ in range(50):
                w = random_word(rng, len(auto.alphabet), 5)
                assert member(cube, w) == sqrt_member_direct(auto, w)
                checked += 1
        assert checked == 10_000

    def test_member_matches_direct_square_on_witness(self, witness6, cube6):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(300):
            w = random_word(rng, len(witness6.alphabet), 3)
            assert member(cube6, w) == member(witness6, w + w)


class TestReachableTriples:
    def test_epsilon_gives_initial_triples(self):
        got = reachable_triples(NFA_AA, ())
        assert got == {(p, 0, p) for p in range(3)}

    def test_characterization_formula(self, small_random):
        rng = np.random.Generator(np.random.PCG64(99))
        samples = 0
        for auto in small_random[:40]:
            n = auto.n_states
            for _ in range(25):
                w = random_word(rng, len(auto.alphabet), 4)
                got = reachable_triples(auto, w)
                from_initial = reach(auto, auto.initial, w)
                expected = {
                    (p, q, r)
                    for p in range(n)
                    for q in from_initial
                    for r in reach(auto, {p}, w)
                }
                assert got == expected
                samples += 1
        assert samples == 1000

    def test_witness_midletter_reaches_guessed_midpoints(self, witness6):
        a_idx = witness6.letter_index("a[2,3,5]")
        got = reachable_triples(witness6, (a_idx,))
        # a[2,3,5] moves pivot_l(2)=0 -> 3 and 2 -> 5, so the first-copy
        # coordinate can only be 3 (via 0) or 5 (via 2)
        assert {q for (_p, q, _r) in got} == {3, 5}
        assert (2, 3, 5) in got
        assert all((p, 3, r) in got for (p, _q, r) in got)


def test_triple_labels_cover_all_states():
    labels = triple_labels(3)
    assert len(labels) == 27
    assert labels[0] == "(0, 0, 0)"
    assert labels[26] == "(2, 2, 2)"


@pytest.mark.parametrize("n", range(1, 9))
def test_triple_labels_match_the_codec(n):
    codec = TripleCodec(n)
    reference = {i: str(codec.decode(i)) for i in range(n**3)}
    labels = triple_labels(n)
    assert labels == reference
    assert list(labels) == list(reference)


def test_the_cube_and_its_text_fit_beside_one_key_array():
    # witness(12)'s cube has 165,888 transitions: 1.3 MB of keys, where
    # (source, letter, target) rows took 4 MB.  Building the cube and
    # making its text piece by piece peaked at 3.6 MB (5.9 MB with rows).
    auto = witness(12)
    tracemalloc.start()
    try:
        cube = sqrt_nfa(auto)
        for _piece in textio._pieces(cube):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cube.transitions) == 8 * 12**4
    assert peak < 4_500_000


def test_cube_keys_past_int64_are_refused_before_the_cube_is_built():
    # 1300 states give 1300**3 cube states and keys up to 2 * 1300**6 > 2**63
    auto = Nfa(1300, ("a", "b"), {0}, {1299}, ((0, 0, 1299), (1299, 1, 0)))
    message = r"^transition keys need n\*n\*sigma below 2\*\*63, but n = 2197000000 "
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            sqrt_nfa(auto, budget=10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
