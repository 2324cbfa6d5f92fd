"""Cube construction: an n^3-state NFA for the square root of L.

A word w belongs to sqrt(L) iff ww belongs to L.  The constructed
automaton runs over state triples (p, q, r): p is a guessed midpoint that
never changes, q simulates the first copy of w from an initial state, and
r simulates the second copy of w from p.  Acceptance requires q to have
actually arrived at the guessed midpoint p while r reached a final state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import effective_budget
from .errors import BudgetExceededError
from .nfa import Nfa, Word, reach


@dataclass(frozen=True)
class TripleCodec:
    """Bijection between triples over 0..n-1 and flat indices 0..n^3-1."""

    n: int

    def encode(self, p: int, q: int, r: int) -> int:
        if not (0 <= p < self.n and 0 <= q < self.n and 0 <= r < self.n):
            raise ValueError(f"triple ({p},{q},{r}) out of range for n={self.n}")
        return (p * self.n + q) * self.n + r

    def decode(self, index: int) -> tuple[int, int, int]:
        if not 0 <= index < self.n**3:
            raise ValueError(f"index {index} out of range for n={self.n}")
        index, r = divmod(index, self.n)
        p, q = divmod(index, self.n)
        return (p, q, r)


def sqrt_nfa(nfa: Nfa, budget: int | None = None) -> Nfa:
    """Build the n^3-state automaton recognizing sqrt(L(nfa)).

    All n^3 states are materialized (no reachability pruning here; `trim`
    is a separate explicit call), the first coordinate is conserved by
    every transition, and transitions come out sorted, so the construction
    is deterministic.  Both the n^3 states and the n * sum over letters of
    (pairs per letter)^2 transitions must fit the budget.
    """
    n = nfa.n_states
    budget = effective_budget(budget)
    if n**3 > budget:
        raise BudgetExceededError("cube construction states", n**3, budget)
    codec = TripleCodec(n)

    # Per-letter source->targets pairs; each letter's product transitions
    # are built independently from coordinates 2 and 3, which keeps the
    # result sparse when letters touch few states (the witness alphabet
    # has at most two sources per letter).
    by_letter: dict[int, list[tuple[int, int]]] = {}
    for src, letter, dst in nfa.transitions:
        by_letter.setdefault(letter, []).append((src, dst))
    n_transitions = n * sum(len(pairs) ** 2 for pairs in by_letter.values())
    if n_transitions > budget:
        raise BudgetExceededError("cube construction transitions", n_transitions, budget)

    triples = []
    for letter, pairs in by_letter.items():
        for q, q2 in pairs:
            for r, r2 in pairs:
                base_src = q * n + r
                base_dst = q2 * n + r2
                for p in range(n):
                    offset = p * n * n
                    triples.append((offset + base_src, letter, offset + base_dst))

    initial = frozenset(
        codec.encode(p, q0, p) for p in range(n) for q0 in nfa.initial
    )
    final = frozenset(codec.encode(p, p, f) for p in range(n) for f in nfa.final)
    return Nfa(
        n_states=n**3,
        alphabet=nfa.alphabet,
        initial=initial,
        final=final,
        transitions=tuple(triples),
    )


def triple_labels(n: int) -> dict[int, str]:
    """Readable (p,q,r) labels for the cube automaton's flat state indices."""
    codec = TripleCodec(n)
    return {i: str(codec.decode(i)) for i in range(n**3)}


def reachable_triples(nfa: Nfa, word: Word, budget: int | None = None) -> set[tuple[int, int, int]]:
    """Which (p, q, r) states of the cube automaton are live after ``word``.

    Computed by actually running the constructed automaton, so it can be
    cross-checked against the per-coordinate characterization
    q in reach(initial, w) and r in reach({p}, w).
    """
    cube = sqrt_nfa(nfa, budget)
    codec = TripleCodec(nfa.n_states)
    return {codec.decode(i) for i in reach(cube, cube.initial, word)}
