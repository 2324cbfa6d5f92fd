"""Core automaton types and language operations.

States are integer indices ``0..n_states-1`` and letters are indices into
an ordered alphabet of distinct names.  NFA transition relations may be
partial and nondeterministic; a missing (state, letter) entry means the
empty successor set, with no implicit sink.  Every operation here is a
pure function of its inputs and automata are immutable after construction,
so shared instances are safe to use concurrently: the successor index is
built on first use, and a concurrent first use can at worst build that
pure index twice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .config import effective_budget
from .errors import BudgetExceededError
from .words import Word, rank_to_word, walk_word_tree

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
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        names = set()
        for name in self.alphabet:
            if not name or name.split() != [name] or "#" in name:
                raise ValueError(f"bad letter name {name!r}")
            if name in names:
                raise ValueError(f"duplicate letter name {name!r}")
            names.add(name)
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
        mask = self._succ[letter].get(state, 0) if 0 <= letter < len(self.alphabet) else 0
        bits = bin(mask)[:1:-1]  # binary digits, least significant first
        return tuple(i for i, bit in enumerate(bits) if bit == "1")


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


def _check_letter(a: int, auto: Nfa | Dfa) -> None:
    if not 0 <= a < len(auto.alphabet):
        raise ValueError(f"letter index {a} out of range")


def step_set(nfa: Nfa, states: set[int] | frozenset[int], a: int) -> set[int]:
    """One step of the extended transition function on a set of states."""
    _check_letter(a, nfa)
    out: set[int] = set()
    for s in states:
        if not 0 <= s < nfa.n_states:
            raise ValueError(f"state index {s} out of range")
        out.update(nfa.targets(s, a))
    return out


def reach(nfa: Nfa, states: set[int] | frozenset[int], word: Word) -> set[int]:
    """States reachable from ``states`` after reading ``word`` (epsilon = identity)."""
    current = set(states)
    for s in current:
        if not 0 <= s < nfa.n_states:
            raise ValueError(f"state index {s} out of range")
    for a in word:
        _check_letter(a, nfa)
    for a in word:
        nxt: set[int] = set()
        for s in current:
            nxt.update(nfa.targets(s, a))
        current = nxt
        if not current:
            break
    return current


def member(nfa: Nfa, word: Word) -> bool:
    """Whether the automaton accepts ``word`` from any initial state."""
    return bool(reach(nfa, nfa.initial, word) & nfa.final)


def _mask(states: set[int] | frozenset[int]) -> int:
    """A set of states as an int bitmask."""
    return sum(1 << s for s in states)


def _mask_step(mask: int, succ: dict[int, int]) -> int:
    """Successor set of the state set ``mask`` on one letter's index row."""
    out = 0
    m = mask
    while m:
        low = m & -m
        out |= succ.get(low.bit_length() - 1, 0)
        m ^= low
    return out


def determinize(nfa: Nfa, cap: int | None = None) -> Dfa:
    """Subset construction over reachable subsets only.

    The empty subset becomes an explicit sink state if (and only if) some
    reachable subset has no successor on some letter, keeping the result
    total.  Raises :class:`BudgetExceededError` when the number of subset
    states would exceed the cap (default from :mod:`sqrtnfa.config`).
    """
    cap = effective_budget(cap)
    succ = nfa._succ
    start = _mask(nfa.initial)
    final_mask = _mask(nfa.final)

    index: dict[int, int] = {start: 0}
    order: list[int] = [start]
    rows: list[list[int]] = []
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        row = []
        for a in range(len(nfa.alphabet)):
            nxt = _mask_step(subset, succ[a])
            if nxt not in index:
                if len(index) >= cap:
                    raise BudgetExceededError(
                        "determinization subset states", len(index) + 1, cap
                    )
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(row)

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


def _require_same_alphabet(a: Nfa, b: Nfa) -> None:
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch between automata")


def difference_witness(a: Nfa, b: Nfa, cap: int | None = None) -> Word | None:
    """Shortest word accepted by exactly one automaton, via the product of
    the two determinizations; None when the languages coincide.

    Ties resolve lexicographically because letters are explored in
    alphabet order, so the result is deterministic.
    """
    _require_same_alphabet(a, b)
    da = determinize(a, cap)
    db = determinize(b, cap)
    start = (da.initial, db.initial)
    seen = {start}
    queue: deque[tuple[tuple[int, int], Word]] = deque([(start, ())])
    while queue:
        (sa, sb), word = queue.popleft()
        if (sa in da.final) != (sb in db.final):
            return word
        for letter in range(len(a.alphabet)):
            nxt = (da.transitions[sa][letter], db.transitions[sb][letter])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (letter,)))
    return None


def equivalent(a: Nfa, b: Nfa, cap: int | None = None) -> bool:
    """Exact language equality via determinization + product reachability.

    There is deliberately no approximate fallback: if determinization blows
    the cap, the BudgetExceededError propagates rather than a guess.
    """
    return difference_witness(a, b, cap) is None


def bounded_equal(a: Nfa, b: Nfa, max_len: int) -> Word | None:
    """First word of length <= max_len (length-lex order) where membership
    differs, or None.

    This is a plain walk of the word tree, independent of the
    determinization machinery, so it can serve as an oracle for
    :func:`equivalent`.
    """
    _require_same_alphabet(a, b)
    rows = list(zip(a._succ, b._succ))
    fin_a, fin_b = _mask(a.final), _mask(b.final)
    differs = walk_word_tree(
        (_mask(a.initial), _mask(b.initial)),
        lambda ab: [(_mask_step(ab[0], ra), _mask_step(ab[1], rb)) for ra, rb in rows],
        lambda ab: bool(ab[0] & fin_a) != bool(ab[1] & fin_b),
        len(a.alphabet),
        max(max_len, 0),  # a negative max_len still judges the empty word
    )
    return rank_to_word(len(a.alphabet), int(differs.argmax())) if differs.any() else None


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
        seen = set(seeds)
        queue = deque(seeds)
        while queue:
            s = queue.popleft()
            for t in edges.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return seen

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
    budget = effective_budget(budget)
    sigma = len(nfa.alphabet)
    succ = nfa._succ
    fin = _mask(nfa.final)
    start = _mask(nfa.initial)

    accepted: list[Word] = []
    visited = 1
    if start & fin:
        accepted.append(())
    level: list[tuple[Word, int]] = [((), start)]
    for _ in range(max_len):
        if not level:
            break
        nxt = []
        for word, mask in level:
            if not mask:
                continue
            for a in range(sigma):
                visited += 1
                if visited > budget:
                    raise BudgetExceededError("word enumeration", visited, budget)
                nm = _mask_step(mask, succ[a])
                wa = word + (a,)
                if nm & fin:
                    accepted.append(wa)
                nxt.append((wa, nm))
        level = nxt
    return accepted
