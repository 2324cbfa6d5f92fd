"""Independent routes to square-root membership, plus random test automata.

The cube construction in :mod:`sqrtnfa.sqrt` is the object under study, so
everything here avoids it on purpose: direct membership doubles the word
and runs the original automaton, and the function-automaton route tracks
how a whole DFA transforms under the word read so far.  Agreement of the
three routes is what the equivalence tests certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_int
from .nfa import Dfa, Nfa, Word, member
from .words import explore


def sqrt_member_direct(nfa: Nfa, word: Word) -> bool:
    """Square-root membership by definition: does the automaton accept ww?"""
    return member(nfa, tuple(word) + tuple(word))


def sqrt_dfa(dfa: Dfa, budget: int | None = None) -> Dfa:
    """Deterministic automaton for the square root of a DFA's language.

    States are the self-maps of the input DFA reachable from the identity,
    each a tuple whose entry q is the state reached from q by the word
    read so far; reading letter ``a`` post-composes with that letter's
    action.  The map f accepts iff f(f(start)) is final: f(start) is where
    the first copy of the word ends, and applying f again runs the second
    copy from there.

    The state count can explode combinatorially, so ``budget`` caps the
    reachable maps actually materialized.
    """
    # column a maps each state to its successor on letter a
    columns = list(zip(*dfa.transitions))
    order, rows = explore(
        tuple(range(dfa.n_states)),  # the identity map
        lambda f: [tuple(map(col.__getitem__, f)) for col in columns],
        budget,
        "square-root DFA states",
    )
    final = frozenset(
        i for i, f in enumerate(order) if f[f[dfa.initial]] in dfa.final
    )
    return Dfa(
        n_states=len(order),
        alphabet=dfa.alphabet,
        initial=0,
        final=final,
        transitions=tuple(tuple(r) for r in rows),
    )


@dataclass(frozen=True)
class RandomSpec:
    """Parameters for drawing a random NFA; equal specs give equal automata.

    Densities are inclusion probabilities in (0, 1]; zero is rejected
    because it only produces degenerate automata.
    """

    seed: int
    max_states: int = 4
    alphabet_size: int = 3
    transition_density: float = 0.3
    initial_density: float = 0.5
    final_density: float = 0.5

    def __post_init__(self):
        for name, low in (("seed", 0), ("max_states", 1), ("alphabet_size", 1)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, low))
        for name in ("transition_density", "initial_density", "final_density"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")


def random_nfa(spec: RandomSpec) -> Nfa:
    """Draw a random automaton reproducibly from a PCG64 stream.

    Draw order is part of the contract (changing it changes every seeded
    test): first the state count, uniform on 1..max_states; then one
    uniform per (source, letter, target) triple in lexicographic order,
    kept when below the transition density; then one uniform per state for
    the initial set and one per state for the final set.  State 0 is
    forced initial when the initial draws all miss, so the automaton is
    never without a start.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = int(rng.integers(1, spec.max_states + 1))
    letters = tuple(f"l{a}" for a in range(spec.alphabet_size))
    coins = rng.random((n, spec.alphabet_size, n)) < spec.transition_density
    initial = frozenset(np.flatnonzero(rng.random(n) < spec.initial_density).tolist())
    final = frozenset(np.flatnonzero(rng.random(n) < spec.final_density).tolist())
    if not initial:
        initial = frozenset({0})
    return Nfa(
        n_states=n,
        alphabet=letters,
        initial=initial,
        final=final,
        transitions=np.argwhere(coins),
    )
