"""Cube construction: an n^3-state NFA for the square root of L.

A word w belongs to sqrt(L) iff ww belongs to L.  The constructed
automaton runs over state triples (p, q, r): p is a guessed midpoint that
never changes, q simulates the first copy of w from an initial state, and
r simulates the second copy of w from p.  Acceptance requires q to have
actually arrived at the guessed midpoint p while r reached a final state.
:class:`TripleCodec` numbers the triples, and the witness payloads too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import charge, check_int
from .nfa import Nfa, Relation, check_key_limit, pack


@dataclass(frozen=True)
class TripleCodec:
    """Bijection between triples over 0..n-1 and flat indices 0..n^3-1;
    ``join`` and ``split`` are ``encode`` and ``decode`` without the checks,
    on ints or numpy arrays alike (``split`` keeps the dtype)."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", check_int(self.n, "triple codec size", 1))

    def join(self, p, q, r):
        return (p * self.n + q) * self.n + r

    def split(self, index):
        pq, r = divmod(index, self.n)
        p, q = divmod(pq, self.n)
        return p, q, r

    def encode(self, p: int, q: int, r: int) -> int:
        return self.join(*(check_int(x, "triple entry", 0, self.n) for x in (p, q, r)))

    def decode(self, index: int) -> tuple[int, int, int]:
        return self.split(check_int(index, "flat triple index", 0, self.n**3))


def sqrt_nfa(nfa: Nfa, budget: int | None = None) -> Nfa:
    """Build the n^3-state automaton recognizing sqrt(L(nfa)).

    All n^3 states are materialized, with no reachability pruning, the
    first coordinate is conserved by every transition, and transitions come out sorted, so the construction
    is deterministic.  Both the n^3 states and the n * sum over letters of
    (pairs per letter)^2 transitions must fit the budget, and the cube's
    transition keys must fit in int64 (see :class:`Relation`), which is
    checked before anything is allocated.

    The relation is built as one array of keys: each letter's
    (q -> q', r -> r') pair products are packed and sorted once, then
    broadcast over the n values of p.  Going from p to p + 1 adds n^2 to
    a source and to its target, so n^2 * (sigma * n^3 + 1) to a key, and
    p leads every source, so the blocks of keys follow in order.
    """
    n, sigma = nfa.n_states, len(nfa.alphabet)
    size = n**3
    budget = charge("cube construction states", size, budget)
    check_key_limit(size, sigma)
    codec = TripleCodec(n)

    # The input's transitions grouped by letter; each letter's products
    # pair only its own transitions, which keeps the result sparse when
    # letters touch few states (the witness alphabet has at most two
    # sources per letter).
    source, letter, target = nfa.transitions.unpack()
    order = np.argsort(letter, kind="stable")
    source, letter, target = source[order], letter[order], target[order]
    counts = np.bincount(letter, minlength=sigma)
    n_transitions = n * int(counts @ counts)
    charge("cube construction transitions", n_transitions, budget)

    # product k pairs transition first[k] (the q coordinate) with
    # transition second[k] (the r coordinate) of the same letter, giving
    # the key of (q*n + r, letter, q'*n + r') for p = 0
    sizes = counts[letter]
    first = np.repeat(np.arange(len(letter)), sizes)
    block_start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    letter_start = np.cumsum(counts) - counts
    second = letter_start[letter[first]] + np.arange(len(first)) - block_start
    products = pack(
        source[first] * n + source[second],
        letter[first],
        target[first] * n + target[second],
        size,
        sigma,
    )
    products.sort()
    keys = np.add.outer(np.arange(n) * (n * n * (sigma * size + 1)), products)

    initial = frozenset(codec.join(p, q0, p) for p in range(n) for q0 in nfa.initial)
    final = frozenset(codec.join(p, p, f) for p in range(n) for f in nfa.final)
    return Nfa(
        n_states=size,
        alphabet=nfa.alphabet,
        initial=initial,
        final=final,
        transitions=Relation(keys.ravel(), size, sigma),
    )


def triple_labels(n: int) -> dict[int, str]:
    """Readable (p,q,r) labels for the cube automaton's flat state indices."""
    codec = TripleCodec(n)
    index = np.arange(codec.n**3)
    p, q, r = codec.split(index)
    labels = map("({}, {}, {})".format, p.tolist(), q.tolist(), r.tolist())
    return dict(zip(index.tolist(), labels))
