"""Independent routes to square-root membership, plus random test automata.

The cube construction in :mod:`sqrtnfa.sqrt` is the object under study, so
everything here avoids it on purpose: direct membership doubles the word
and runs the original automaton, and its automaton, ``relation_dfa``,
tracks the relation of the word read so far on the NFA; the
function-automaton route, ``sqrt_dfa``, tracks how a whole DFA transforms
under it.  Each automaton is one :func:`sqrtnfa.nfa._explored_dfa` call
over a walk, :func:`sqrtnfa.nfa._square_walk` and :func:`_function_walk`.
Exact equivalence of the three routes is what the equivalence tests and
``random-equiv`` certify; a trial steps the cube and the two walks
together (one walk over the triples of their nodes, see
:func:`sqrtnfa.nfa._first_split`) and builds neither automaton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_int
from .nfa import Dfa, Nfa, Relation, Word, _explored_dfa, _square_walk, member


def sqrt_member_direct(nfa: Nfa, word: Word) -> bool:
    """Square-root membership by definition: does the automaton accept ww?"""
    word = tuple(word)  # read once: an iterator yields its letters once
    return member(nfa, word + word)


def _function_walk(dfa: Dfa):
    """The walk of :func:`sqrtnfa.nfa._walk` for the square root of a DFA's
    language: the function route, the walk :func:`sqrt_dfa` is built from.

    A word's node is the self-map of the DFA's states it induces, a byte
    string whose byte q is the state reached from q; the start node is
    the identity, and reading letter ``a`` post-composes with that
    letter's action, one ``bytes.translate`` through a 256-byte table.
    The map f accepts iff f(f(start)) is final: f(start) is where the
    first copy of the word ends, and applying f again runs the second copy
    from there.  A DFA of more than 256 states does not fit in bytes and
    raises ``ValueError``.
    """
    n = dfa.n_states
    if n > 256:
        raise ValueError(f"sqrt_dfa supports at most 256 states, got {n}")
    # table a maps each state to its successor on letter a
    tables = [bytes(column).ljust(256, b"\0") for column in zip(*dfa.transitions)]
    return (
        bytes(range(n)),  # the identity map
        lambda f: [f.translate(table) for table in tables],
        lambda f: f[f[dfa.initial]] in dfa.final,
    )


def sqrt_dfa(dfa: Dfa, budget: int | None = None) -> Dfa:
    """Deterministic automaton for the square root of a DFA's language,
    laid out by :func:`sqrtnfa.nfa._explored_dfa`: its states are the
    maps :func:`_function_walk` reaches from the identity.

    The state count can explode combinatorially, so ``budget`` caps the
    reachable maps actually materialized.
    """
    return _explored_dfa(*_function_walk(dfa), dfa.alphabet, budget, "square-root DFA states")


def relation_dfa(nfa: Nfa, budget: int | None = None) -> Dfa:
    """Deterministic automaton for the square root of an NFA's language,
    built without determinizing it, laid out by
    :func:`sqrtnfa.nfa._explored_dfa`.

    States are the relations of the words read so far, one successor mask
    per state of ``nfa`` (its transition monoid), and a relation R accepts
    when I·R·R meets F: the direct route, ww run on ``nfa``, as an
    automaton.  ``budget`` caps the reachable relations materialized.
    """
    return _explored_dfa(*_square_walk(nfa), nfa.alphabet, budget, "square relation DFA states")


# inclusion probabilities of random_nfa's draws, part of its draw contract
TRANSITION_DENSITY = 0.3
INITIAL_DENSITY = 0.5
FINAL_DENSITY = 0.5


@dataclass(frozen=True)
class RandomSpec:
    """Parameters for drawing a random NFA; equal specs give equal automata."""

    seed: int
    max_states: int = 4
    alphabet_size: int = 3

    def __post_init__(self):
        for name, low in (("seed", 0), ("max_states", 1), ("alphabet_size", 1)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, low))


def random_nfa(spec: RandomSpec) -> Nfa:
    """Draw a random automaton reproducibly from a PCG64 stream.

    Draw order is part of the contract (changing it changes every seeded
    test): first the state count, uniform on 1..max_states; then one
    uniform per (source, letter, target) triple in lexicographic order,
    kept when below TRANSITION_DENSITY; then one uniform per state for the
    initial set and one per state for the final set, kept when below
    INITIAL_DENSITY and FINAL_DENSITY.  State 0 is forced initial when the
    initial draws all miss, so the automaton is never without a start.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = int(rng.integers(1, spec.max_states + 1))
    letters = tuple(f"l{a}" for a in range(spec.alphabet_size))
    coins = rng.random((n, spec.alphabet_size, n)) < TRANSITION_DENSITY
    initial = frozenset(np.flatnonzero(rng.random(n) < INITIAL_DENSITY).tolist())
    final = frozenset(np.flatnonzero(rng.random(n) < FINAL_DENSITY).tolist())
    if not initial:
        initial = frozenset({0})
    return Nfa(
        n_states=n,
        alphabet=letters,
        initial=initial,
        final=final,
        transitions=Relation(np.flatnonzero(coins), n, spec.alphabet_size),
    )
