"""Core automaton types and language operations.

States are integer indices ``0..n_states-1`` and letters are indices into
an ordered alphabet of distinct names.  NFA transition relations may be
partial and nondeterministic; a missing (state, letter) entry means the
empty successor set, with no implicit sink.  Every operation here is a
pure function of its inputs and automata are immutable after construction,
so shared instances are safe to use concurrently: the successor index is
built on first use, and a concurrent first use can at worst build that
pure index twice.

A set of states is simulated as an int bitmask stepped through ``_succ``;
that one step serves ``reach``, the subset and pair explorations, and the
accept tables, which flag every word up to a length in rank order (see
:mod:`sqrtnfa.words`).  There is no state cap: masks are Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import effective_budget
from .words import Word, explore, rank_to_word, walk_word_tree

Transition = tuple[int, int, int]  # (source, letter, target)


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton over named letters.

    ``transitions`` is an explicit relation of (source, letter, target)
    triples, canonically sorted.  Every walk reads the successor index
    ``_succ``, built on first use: per letter, a dict from source state to
    its successor set as an int bitmask.  It is sparse because witness-style
    alphabets are large (thousands of letters) but touch only a couple of
    states each.
    """

    n_states: int
    alphabet: tuple[str, ...]
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("an automaton needs at least one state")
        object.__setattr__(self, "alphabet", _checked_alphabet(self.alphabet))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        for label, states in (("initial", self.initial), ("final", self.final)):
            for s in states:
                if not 0 <= s < self.n_states:
                    raise ValueError(f"{label} state {s} out of range")
        triples = sorted(self.transitions)
        for i, (src, letter, dst) in enumerate(triples):
            if not 0 <= src < self.n_states or not 0 <= dst < self.n_states:
                raise ValueError(f"transition {(src, letter, dst)} has a state out of range")
            if not 0 <= letter < len(self.alphabet):
                raise ValueError(f"transition {(src, letter, dst)} has a letter out of range")
            if i > 0 and triples[i - 1] == (src, letter, dst):
                raise ValueError(f"duplicate transition {(src, letter, dst)}")
        object.__setattr__(self, "transitions", tuple(triples))

    @cached_property
    def _succ(self) -> list[dict[int, int]]:
        # written to the instance __dict__, not a field: not in ==, hash, repr
        succ: list[dict[int, int]] = [{} for _ in self.alphabet]
        for src, letter, dst in self.transitions:
            row = succ[letter]
            row[src] = row.get(src, 0) | 1 << dst
        return succ

    def letter_index(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise ValueError(f"unknown letter {name!r}") from None

    def targets(self, state: int, letter: int) -> tuple[int, ...]:
        """Ascending successors of one state on one letter (may be empty)."""
        return _states(self._succ[letter].get(state, 0) if 0 <= letter < len(self.alphabet) else 0)


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton: one target per (state, letter).

    ``transitions[s][a]`` is the successor of state ``s`` on letter ``a``;
    totality is enforced, so a sink state must be materialized explicitly
    when needed.
    """

    n_states: int
    alphabet: tuple[str, ...]
    initial: int
    final: frozenset[int]
    transitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("an automaton needs at least one state")
        object.__setattr__(self, "alphabet", _checked_alphabet(self.alphabet))
        if not 0 <= self.initial < self.n_states:
            raise ValueError(f"initial state {self.initial} out of range")
        object.__setattr__(self, "final", frozenset(self.final))
        for s in self.final:
            if not 0 <= s < self.n_states:
                raise ValueError(f"final state {s} out of range")
        if len(self.transitions) != self.n_states:
            raise ValueError("transition table must have one row per state")
        rows = []
        for row in self.transitions:
            if len(row) != len(self.alphabet):
                raise ValueError("transition table row must cover every letter")
            for dst in row:
                if not 0 <= dst < self.n_states:
                    raise ValueError(f"transition target {dst} out of range")
            rows.append(tuple(row))
        object.__setattr__(self, "transitions", tuple(rows))

    def run(self, word: Word) -> int:
        state = self.initial
        for a in word:
            _check_letter(a, self)
            state = self.transitions[state][a]
        return state

    def member(self, word: Word) -> bool:
        return self.run(word) in self.final


def _checked_alphabet(alphabet) -> tuple[str, ...]:
    """The alphabet as a tuple of distinct, non-empty names without
    whitespace or ``#``."""
    alphabet = tuple(alphabet)
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    names: set[str] = set()
    for name in alphabet:
        if not name or name.split() != [name] or "#" in name:
            raise ValueError(f"bad letter name {name!r}")
        if name in names:
            raise ValueError(f"duplicate letter name {name!r}")
        names.add(name)
    return alphabet


def _check_letter(a: int, auto: Nfa | Dfa) -> None:
    if not 0 <= a < len(auto.alphabet):
        raise ValueError(f"letter index {a} out of range")


def _mask(states: set[int] | frozenset[int]) -> int:
    """A set of states as an int bitmask."""
    return sum(1 << s for s in states)


def _states(mask: int) -> tuple[int, ...]:
    """The states of an int bitmask, ascending."""
    bits = bin(mask)[:1:-1]  # binary digits, least significant first
    return tuple(i for i, bit in enumerate(bits) if bit == "1")


def _mask_step(mask: int, succ: dict[int, int]) -> int:
    """Successor set of the state set ``mask`` on one letter's index row."""
    out = 0
    while mask:
        low = mask & -mask
        out |= succ.get(low.bit_length() - 1, 0)
        mask ^= low
    return out


def _stepper(nfa: Nfa):
    """Map a state set's mask to its successor masks, in letter order."""
    succ = nfa._succ
    return lambda mask: [_mask_step(mask, row) for row in succ]


def step_set(nfa: Nfa, states: set[int] | frozenset[int], a: int) -> set[int]:
    """One step of the extended transition function on a set of states."""
    return reach(nfa, states, (a,))


def reach(nfa: Nfa, states: set[int] | frozenset[int], word: Word) -> set[int]:
    """States reachable from ``states`` after reading ``word`` (epsilon = identity)."""
    states = set(states)
    for s in states:
        if not 0 <= s < nfa.n_states:
            raise ValueError(f"state index {s} out of range")
    for a in word:
        _check_letter(a, nfa)
    mask = _mask(states)
    for a in word:
        mask = _mask_step(mask, nfa._succ[a])
    return set(_states(mask))


def member(nfa: Nfa, word: Word) -> bool:
    """Whether the automaton accepts ``word`` from any initial state."""
    return bool(reach(nfa, nfa.initial, word) & nfa.final)


def determinize(nfa: Nfa, cap: int | None = None) -> Dfa:
    """Subset construction over reachable subsets only.

    The empty subset becomes an explicit sink state if (and only if) some
    reachable subset has no successor on some letter, keeping the result
    total.  Raises :class:`BudgetExceededError` when the number of subset
    states would exceed the cap (default from :mod:`sqrtnfa.config`).
    """
    final_mask = _mask(nfa.final)
    order, rows = explore(
        _mask(nfa.initial),
        _stepper(nfa),
        effective_budget(cap),
        "determinization subset states",
    )
    final = frozenset(i for i, subset in enumerate(order) if subset & final_mask)
    return Dfa(
        n_states=len(order),
        alphabet=nfa.alphabet,
        initial=0,
        final=final,
        transitions=tuple(tuple(r) for r in rows),
    )


def dfa_to_nfa(dfa: Dfa) -> Nfa:
    """View a DFA as an NFA with the same language."""
    triples = []
    for s, row in enumerate(dfa.transitions):
        for a, dst in enumerate(row):
            triples.append((s, a, dst))
    return Nfa(
        n_states=dfa.n_states,
        alphabet=dfa.alphabet,
        initial=frozenset({dfa.initial}),
        final=dfa.final,
        transitions=tuple(triples),
    )


def _pair_graph(a: Nfa, b: Nfa):
    """The pairs of state sets one word reaches in ``a`` and in ``b``: the
    start pair, a pair's successors in letter order, and whether a pair
    splits on acceptance."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch between automata")
    step_a, step_b = _stepper(a), _stepper(b)
    fin_a, fin_b = _mask(a.final), _mask(b.final)
    return (
        (_mask(a.initial), _mask(b.initial)),
        lambda ab: list(zip(step_a(ab[0]), step_b(ab[1]))),
        lambda ab: bool(ab[0] & fin_a) != bool(ab[1] & fin_b),
    )


def difference_witness(a: Nfa, b: Nfa, cap: int | None = None) -> Word | None:
    """Shortest word accepted by exactly one automaton, or None when the
    languages coincide.

    The pairs of reached state sets are explored on the fly, breadth first
    in letter order, without determinizing either side, and the walk stops
    at the first pair that splits on acceptance, so ties resolve
    lexicographically.  More pairs than the cap before that raises
    ``BudgetExceededError("equivalence product pairs", ...)``, even when
    each side's determinization would fit.
    """
    start, successors, splits = _pair_graph(a, b)
    budget = effective_budget(cap)
    pairs, rows = explore(start, successors, budget, "equivalence product pairs", stop=splits)
    if not splits(pairs[-1]):
        return None
    # a pair's word is its first parent's word plus the letter: ids are
    # handed out in (parent, letter) order, and the split pair is the last
    words: list[Word] = [()]
    for parent, row in enumerate(rows):
        for letter, child in enumerate(row):
            if child == len(words):
                words.append(words[parent] + (letter,))
    return words[len(pairs) - 1]


def equivalent(a: Nfa, b: Nfa, cap: int | None = None) -> bool:
    """Exact language equality: no reachable pair of state sets splits on
    acceptance (see :func:`difference_witness`).

    There is deliberately no approximate fallback: if the pairs exceed the
    cap, the BudgetExceededError propagates rather than a guess.
    """
    return difference_witness(a, b, cap) is None


def bounded_equal(a: Nfa, b: Nfa, max_len: int, budget: int | None = None) -> Word | None:
    """First word of length <= max_len (length-lex order) where membership
    differs, or None.  The words walked must fit ``budget``.

    This walks the word tree and reads the word off its rank, not off a
    breadth-first numbering, so it is a check on :func:`difference_witness`.
    """
    start, successors, splits = _pair_graph(a, b)
    # a negative max_len still judges the empty word
    table = walk_word_tree(
        start, successors, splits, len(a.alphabet), max(max_len, 0), budget
    )
    return rank_to_word(len(a.alphabet), int(table.argmax())) if table.any() else None


def trim(nfa: Nfa) -> Nfa:
    """Drop states that are unreachable from the initial set or cannot
    reach a final state; surviving states keep their relative order.

    An automaton with empty language trims to the canonical single state
    with no finals.
    """
    forward: dict[int, set[int]] = {}
    backward: dict[int, set[int]] = {}
    for src, _letter, dst in nfa.transitions:
        forward.setdefault(src, set()).add(dst)
        backward.setdefault(dst, set()).add(src)

    def closure(seeds: frozenset[int], edges: dict[int, set[int]]) -> set[int]:
        def succ(s: int | None) -> list[int]:
            return sorted(seeds if s is None else edges.get(s, ()))
        # None leads to the seeds; at most n_states + 1 nodes, so no refusal
        return set(explore(None, succ, nfa.n_states + 1, "trimmed states")[0][1:])

    useful = closure(nfa.initial, forward) & closure(nfa.final, backward)
    if not useful:
        return Nfa(
            n_states=1,
            alphabet=nfa.alphabet,
            initial=frozenset({0}),
            final=frozenset(),
            transitions=(),
        )
    keep = sorted(useful)
    renumber = {old: new for new, old in enumerate(keep)}
    return Nfa(
        n_states=len(keep),
        alphabet=nfa.alphabet,
        initial=frozenset(renumber[s] for s in nfa.initial if s in useful),
        final=frozenset(renumber[s] for s in nfa.final if s in useful),
        transitions=tuple(
            (renumber[src], letter, renumber[dst])
            for src, letter, dst in nfa.transitions
            if src in useful and dst in useful
        ),
    )


def enumerate_words(nfa: Nfa, max_len: int, budget: int | None = None) -> list[Word]:
    """All accepted words of length <= max_len in length-lex order.

    The walk visits every word up to max_len, so the total word count must
    fit the budget.
    """
    # a negative max_len still judges the empty word
    table = accept_table(nfa, max(max_len, 0), budget)
    return [rank_to_word(len(nfa.alphabet), int(r)) for r in table.nonzero()[0]]


def accept_table(nfa: Nfa, max_len: int, budget: int | None = None) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len, rank order.

    Index k of the result corresponds to the k-th word in length-lex
    order (see :mod:`sqrtnfa.words`); a word's node is its reached state
    set as an int mask.
    """
    fin = _mask(nfa.final)
    return walk_word_tree(
        _mask(nfa.initial), _stepper(nfa), lambda m: m & fin, len(nfa.alphabet), max_len, budget
    )


def square_accept_table(nfa: Nfa, max_len: int, budget: int | None = None) -> np.ndarray:
    """Acceptance flag for ww, for every w of length <= max_len, rank order.

    This is the direct square-membership route: it never builds the cube
    automaton.  A word's node is its relation, one successor mask per
    state, and ww is accepted when applying it twice to the initial set
    meets a final state.
    """
    succ = nfa._succ
    init, fin = _mask(nfa.initial), _mask(nfa.final)

    def accepting(rel: tuple[int, ...]) -> int:
        image = dict(enumerate(rel))
        return _mask_step(_mask_step(init, image), image) & fin

    return walk_word_tree(
        tuple(1 << s for s in range(nfa.n_states)),
        lambda rel: [tuple(_mask_step(m, row) for m in rel) for row in succ],
        accepting,
        len(succ),
        max_len,
        budget,
    )


def dfa_accept_table(dfa: Dfa, max_len: int, budget: int | None = None) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len on a DFA."""
    return walk_word_tree(
        dfa.initial,
        dfa.transitions.__getitem__,
        dfa.final.__contains__,
        len(dfa.alphabet),
        max_len,
        budget,
    )
