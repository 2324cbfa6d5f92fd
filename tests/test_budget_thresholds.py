"""Every size-driven entry point passes at the budget equal to its
phase's count and refuses one below it, naming the phase; a phase charged
up front refuses before it allocates anything of its size.

``determinize``, ``sqrt_dfa``, ``difference_witness`` and the walk of a
``random-equiv`` trial charge as their exploration grows (through
``nfa.explore``), so only their thresholds are checked here, not their
allocations.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nfas
from sqrtnfa import (
    accept_table,
    certify_lower_bound,
    determinize,
    dfa_accept_table,
    dfa_to_nfa,
    difference_witness,
    equivalent,
    pairwise_contradiction,
    relation_dfa,
    sqrt_dfa,
    sqrt_nfa,
    square_accept_table,
    verify_cases,
    witness,
)
from sqrtnfa.errors import BudgetExceededError
from sqrtnfa.kernels import orbit_count
from sqrtnfa.nfa import _first_split, _square_walk, _walk
from sqrtnfa.oracle import _function_walk

# what a refused call may allocate: its input-sized set-up, never the phase
REFUSAL_PEAK = 1 << 20  # bytes


def refuses(call, phase: str, need: int) -> None:
    """``call(need - 1)`` refuses ``phase``, which needs ``need``."""
    message = f"^{phase}: needs {need}, exceeds budget {need - 1}$"
    with pytest.raises(BudgetExceededError, match=message):
        call(need - 1)


def assert_threshold(call, need: int, phase: str) -> None:
    """``call(budget)`` passes at ``need`` and, when a budget below it
    exists, refuses ``phase`` at ``need - 1``."""
    call(need)
    if need > 1:
        refuses(call, phase, need)


@settings(max_examples=100, deadline=None)
@given(nfas(), st.integers(0, 4))
def test_automaton_phases_refuse_one_below_their_count(a, max_len):
    states, transitions = a.n_states**3, len(sqrt_nfa(a, 10**6).transitions)

    def cube(budget):
        return sqrt_nfa(a, budget)

    # the states are charged first, then the transitions
    cube(max(states, transitions))
    if states > 1:
        refuses(cube, "cube construction states", states)
    if transitions > states:
        refuses(cube, "cube construction transitions", transitions)

    det = determinize(a)
    assert_threshold(lambda b: determinize(a, b), det.n_states, "determinization subset states")
    fn = sqrt_dfa(det)
    assert_threshold(lambda b: sqrt_dfa(det, b), fn.n_states, "square-root DFA states")
    rel = relation_dfa(a)
    assert_threshold(lambda b: relation_dfa(a, b), rel.n_states, "square relation DFA states")
    # a random-equiv trial walks the triples of its three routes, the
    # cube's, the function walk's and the relation walk's: one per relation
    walks = (_walk(sqrt_nfa(a)), _function_walk(det), _square_walk(a))
    phase = "square-root route triples"
    assert_threshold(lambda b: _first_split(walks, b, phase), rel.n_states, phase)
    # the pair (S, {i}) of a's subset S and the determinized state i naming
    # it: one reachable pair per state of det, and none splits
    b = dfa_to_nfa(det)
    assert_threshold(lambda c: equivalent(a, b, c), det.n_states, "equivalence product pairs")
    assert_threshold(
        lambda c: difference_witness(a, b, c), det.n_states, "equivalence product pairs"
    )
    # det as a side walks its own states: the same pairs, charged alike
    assert_threshold(lambda c: equivalent(a, det, c), det.n_states, "equivalence product pairs")
    assert_threshold(
        lambda c: difference_witness(det, a, c), det.n_states, "equivalence product pairs"
    )

    words = sum(len(a.alphabet) ** k for k in range(max_len + 1))
    for table in (
        lambda c: accept_table(a, max_len, c),
        lambda c: square_accept_table(a, max_len, c),
        lambda c: dfa_accept_table(det, max_len, c),
        lambda c: accept_table(det, max_len, c),
    ):
        assert_threshold(table, words, "word tree words")


@pytest.mark.parametrize("n", [6, 7])
def test_witness_phases_refuse_one_below_their_count(n):
    assert_threshold(lambda b: certify_lower_bound(n, b), n**3, "fooling set pairs")
    cells = orbit_count(n)
    assert_threshold(lambda b: verify_cases(n, budget=b), cells, "case verification pairs")
    assert_threshold(
        lambda b: pairwise_contradiction(n, budget=b), cells, "pairwise contradiction pairs"
    )


def traced_peak(call) -> int:
    """Peak bytes traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refused_peak(call, phase: str) -> int:
    def refused():
        with pytest.raises(BudgetExceededError, match=f"^{phase}: needs"):
            call()

    return traced_peak(refused)


def test_a_refused_cube_allocates_nothing_of_its_size():
    auto = witness(16)  # its cube's keys take 4 MiB
    need = len(sqrt_nfa(auto, 10**6).transitions)
    assert traced_peak(lambda: sqrt_nfa(auto, need)) > 4 * REFUSAL_PEAK
    peak = refused_peak(lambda: sqrt_nfa(auto, need - 1), "cube construction transitions")
    assert peak < REFUSAL_PEAK


def test_refused_up_front_phases_allocate_nothing_of_their_size():
    auto = witness(6)
    det = determinize(auto)
    words = sum(len(auto.alphabet) ** k for k in range(4))
    # 512 states over 1024 letters: its packed successor columns are 64 KB
    # each, 32 MB if they were built before the walk is charged
    wide = sqrt_nfa(witness(8))
    wide_words = sum(len(wide.alphabet) ** k for k in range(3))
    cells = orbit_count(32)
    calls = {
        "fooling set pairs": lambda: certify_lower_bound(32, 32**3 - 1),
        "case verification pairs": lambda: verify_cases(32, budget=cells - 1),
        "pairwise contradiction pairs": lambda: pairwise_contradiction(32, budget=cells - 1),
    }
    for phase, call in calls.items():
        assert refused_peak(call, phase) < REFUSAL_PEAK
    for table in (
        lambda: accept_table(auto, 3, words - 1),
        lambda: square_accept_table(auto, 3, words - 1),
        lambda: dfa_accept_table(det, 3, words - 1),
        lambda: accept_table(wide, 2, wide_words - 1),
    ):
        assert refused_peak(table, "word tree words") < REFUSAL_PEAK
