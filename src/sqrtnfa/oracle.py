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

from .config import effective_budget
from .errors import BudgetExceededError
from .nfa import Dfa, Nfa, Word, member

# a DFA self-map: entry q is the state reached from q by the word read so far
FnState = tuple[int, ...]


def sqrt_member_direct(nfa: Nfa, word: Word) -> bool:
    """Square-root membership by definition: does the automaton accept ww?"""
    return member(nfa, tuple(word) + tuple(word))


def sqrt_dfa(dfa: Dfa, budget: int | None = None) -> Dfa:
    """Deterministic automaton for the square root of a DFA's language.

    States are the self-maps of the input DFA reachable from the identity;
    reading letter ``a`` post-composes with that letter's action.  The map
    f accepts iff f(f(start)) is final: f(start) is where the first copy of
    the word ends, and applying f again runs the second copy from there.

    The state count can explode combinatorially, so ``budget`` caps the
    reachable maps actually materialized.
    """
    budget = effective_budget(budget)
    sigma = len(dfa.alphabet)

    identity: FnState = tuple(range(dfa.n_states))
    index: dict[FnState, int] = {identity: 0}
    order: list[FnState] = [identity]
    rows: list[list[int]] = []
    pos = 0
    while pos < len(order):
        f = order[pos]
        pos += 1
        row = []
        for a in range(sigma):
            g: FnState = tuple(dfa.transitions[f[q]][a] for q in range(dfa.n_states))
            if g not in index:
                if len(order) >= budget:
                    raise BudgetExceededError(
                        "square-root DFA states", len(order) + 1, budget
                    )
                index[g] = len(order)
                order.append(g)
            row.append(index[g])
        rows.append(row)

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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
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
    triples = []
    for src in range(n):
        for a in range(spec.alphabet_size):
            for dst in range(n):
                if rng.random() < spec.transition_density:
                    triples.append((src, a, dst))
    initial = frozenset(
        s for s in range(n) if rng.random() < spec.initial_density
    )
    final = frozenset(s for s in range(n) if rng.random() < spec.final_density)
    if not initial:
        initial = frozenset({0})
    return Nfa(
        n_states=n,
        alphabet=letters,
        initial=initial,
        final=final,
        transitions=tuple(triples),
    )
