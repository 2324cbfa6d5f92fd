"""Core automaton types and language operations.

States are integer indices ``0..n_states-1`` and letters are indices into
an ordered alphabet of distinct names.  NFA transition relations may be
partial and nondeterministic; a missing (state, letter) entry means the
empty successor set, with no implicit sink.  Every operation here is a
pure function of its inputs and automata are immutable after construction,
so shared instances are safe to use concurrently: a state's successor row
and column are built on first use, and a concurrent first use can at worst
build a pure row or column twice.

An ``Nfa`` holds its relation as one sorted, read-only ``(k, 3)`` int64
array of (source, letter, target) rows, validated with array operations;
``Nfa.transitions`` is a :class:`Relation` view of it that reads like the
tuple of triples.  A set of states is simulated as an int bitmask, stepped
through one per-state successor index, ``_succ``, in one of two forms, one
per access pattern.  A step on one letter (``reach``, ``member``,
``targets``) reads each set state's row, a dict from letter to successor
mask.  A step on every letter at once (``_stepper``: ``determinize``, the
pair walk of ``equivalent``, ``difference_witness`` and ``bounded_equal``,
and ``accept_table`` and ``square_accept_table``, which flag every word up
to a length in rank order, see :mod:`sqrtnfa.words`) ORs each set state's
packed all-letter column and splits the result once.  There is no state
cap: masks are Python ints.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .config import check_int
from .words import Word, explore, rank_to_word, walk_word_tree

Transition = tuple[int, int, int]  # (source, letter, target)


class Relation(Sequence):
    """Read-only view of a transition relation: one sorted ``(k, 3)`` int64
    array of (source, letter, target) rows, duplicate-free.

    ``len`` reads the array.  Iteration, indexing, ``hash`` and ``repr``
    behave as for the tuple of triples, which is built once, on first
    need, and a view equals that tuple.  Wrapping an array marks it
    read-only; an ``Nfa`` validates every relation it is given, a
    ``Relation`` included, so one in an automaton always holds.
    """

    __slots__ = ("array", "_tuples")

    def __init__(self, array: np.ndarray):
        array.flags.writeable = False
        self.array = array
        self._tuples: tuple[Transition, ...] | None = None

    def __reduce__(self):
        return Relation, (self.array,)

    def _triples(self) -> tuple[Transition, ...]:
        if self._tuples is None:
            self._tuples = tuple(map(tuple, self.array.tolist()))
        return self._tuples

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, index):
        return self._triples()[index]

    def __iter__(self):
        return iter(self._triples())

    def __eq__(self, other) -> bool:
        if isinstance(other, Relation):
            return np.array_equal(self.array, other.array)
        if isinstance(other, tuple):
            return self._triples() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._triples())

    def __repr__(self) -> str:
        return repr(self._triples())


class _SuccessorIndex:
    """Per state, its successors in two forms, each built on first use from
    the state's slice of the sorted relation.  A row, for one-letter steps,
    is a dict from letter to successor mask.  A column, for all-letter
    steps, packs every letter's successor mask in one int: byte field
    ``a`` (``width`` = ceil(n/8) bytes, little-endian) holds letter ``a``'s.
    """

    def __init__(self, relation: np.ndarray, n: int, sigma: int):
        self._relation = relation
        self._ends = np.bincount(relation[:, 0], minlength=n).cumsum().tolist()
        self.width = -(-n // 8)
        self.size = sigma * self.width
        self.rows: list[dict[int, int] | None] = [None] * n
        self.columns: list[int | None] = [None] * n

    def _entries(self, state: int) -> list[list[int]]:
        """The state's letters and targets, in relation order."""
        start = self._ends[state - 1] if state else 0
        return self._relation[start : self._ends[state], 1:].T.tolist()

    def row(self, state: int) -> dict[int, int]:
        row = self.rows[state]
        if row is None:
            row = {}
            for a, t in zip(*self._entries(state)):
                row[a] = row.get(a, 0) | 1 << t
            self.rows[state] = row
        return row

    def column(self, state: int) -> int:
        column = self.columns[state]
        if column is None:
            letters, targets = self._entries(state)
            packed, width = bytearray(self.size), self.width
            for a, t in zip(letters, targets):
                packed[a * width + (t >> 3)] |= 1 << (t & 7)
            column = self.columns[state] = int.from_bytes(packed, "little")
        return column


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton over named letters.

    ``transitions`` is an explicit relation of (source, letter, target)
    triples, given as any sequence of triples or a ``(k, 3)`` integer
    array, which is copied, or as a :class:`Relation`, whose array is
    validated like any other and kept without a copy when it is already
    a ``(k, 3)`` int64 array.  It is kept as a
    :class:`Relation` over one sorted int64 array.
    Steps read the successor index ``_succ``, which holds per state a row
    and a column, each built on its first use from that state's slice of
    the relation.  A one-letter step reads rows: dicts from letter to
    successor mask, sparse because witness-style alphabets are large
    (thousands of letters) but each state uses few of them.  A step on
    every letter reads columns: the successor masks on all letters packed
    in one int.
    """

    n_states: int
    alphabet: tuple[str, ...]
    initial: frozenset[int]
    final: frozenset[int]
    transitions: Relation

    def __post_init__(self):
        object.__setattr__(self, "n_states", _checked_state_count(self.n_states))
        object.__setattr__(self, "alphabet", _checked_alphabet(self.alphabet))
        for label in ("initial", "final"):
            states = frozenset(
                check_int(s, f"{label} state", 0, self.n_states) for s in getattr(self, label)
            )
            object.__setattr__(self, label, states)
        relation = self.transitions
        if isinstance(relation, Relation):
            relation = relation.array
            if relation.dtype != np.int64 or relation.shape[1:] != (3,):
                relation = _relation_array(relation)
        else:
            relation = _relation_array(relation)
        relation = _sorted_relation(relation, self.n_states, len(self.alphabet))
        object.__setattr__(self, "transitions", Relation(relation))

    @cached_property
    def _succ(self) -> _SuccessorIndex:
        # written to the instance __dict__, not a field: not in ==, hash, repr
        return _SuccessorIndex(self.transitions.array, self.n_states, len(self.alphabet))

    def letter_index(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise ValueError(f"unknown letter {name!r}") from None

    def targets(self, state: int, letter: int) -> tuple[int, ...]:
        """Ascending successors of one state on one letter (may be empty, and
        is for an integer letter outside the alphabet); a state out of
        range or a non-integer argument raises ``ValueError``."""
        state = check_int(state, "state index", 0, self.n_states)
        letter = check_int(letter, "letter index")
        return _states(self._succ.row(state).get(letter, 0))


_INT64 = range(-(2**63), 2**63)


def _relation_array(transitions) -> np.ndarray:
    """The triples as a fresh ``(k, 3)`` int64 array; an entry that is not
    a 64-bit integer raises ``ValueError``, never a truncated value."""
    if not isinstance(transitions, (np.ndarray, list, tuple)):
        transitions = tuple(transitions)
    if len(transitions) == 0:
        return np.empty((0, 3), dtype=np.int64)
    array = np.array(transitions)
    if array.ndim != 2 or array.shape[1] != 3:
        raise ValueError("transitions must be (source, letter, target) triples")
    if array.dtype.kind not in "bi":
        rows = transitions.tolist() if isinstance(transitions, np.ndarray) else transitions
        for triple in rows:
            if not all(isinstance(x, Integral) and int(x) in _INT64 for x in triple):
                raise ValueError(
                    f"transition {tuple(triple)} has an entry that is not a 64-bit integer"
                )
    return array.astype(np.int64, copy=False)


def _sorted_relation(relation: np.ndarray, n: int, sigma: int) -> np.ndarray:
    """The validated relation, sorted by (source, letter, target).

    Rows that strictly increase in that order are sorted and
    duplicate-free, so a sorted relation is not sorted again.
    """
    if len(relation):
        # as unsigned, a negative entry reads as one above every bound
        src, letter, dst = relation.view(np.uint64).max(axis=0).tolist()
        if max(src, dst) >= n or letter >= sigma:
            raise _first_bad(relation, n, sigma)
    if not _increasing(relation):
        relation = relation[np.lexsort(relation.T[::-1])]
        if not _increasing(relation):
            raise _first_bad(relation, n, sigma)
    return relation


def _increasing(relation: np.ndarray) -> bool:
    """Whether the rows strictly increase in lexicographic order."""
    before, after = relation[:-1].T, relation[1:].T
    rises = after[2] > before[2]
    for column in (1, 0):
        rises = (after[column] > before[column]) | (after[column] == before[column]) & rises
    return bool(rises.all())


def _first_bad(relation: np.ndarray, n: int, sigma: int) -> ValueError:
    """The error for the first triple, in sorted order, with a state out of
    range, else a letter out of range, else equal to the triple before it."""
    rows = relation[np.lexsort(relation.T[::-1])]
    src, letter, dst = rows.T
    bad_state = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    bad_letter = (letter < 0) | (letter >= sigma)
    duplicate = np.r_[False, (rows[1:] == rows[:-1]).all(axis=1)]
    i = int(np.argmax(bad_state | bad_letter | duplicate))
    triple = tuple(rows[i].tolist())
    if bad_state[i]:
        return ValueError(f"transition {triple} has a state out of range")
    if bad_letter[i]:
        return ValueError(f"transition {triple} has a letter out of range")
    return ValueError(f"duplicate transition {triple}")


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
        n = _checked_state_count(self.n_states)
        object.__setattr__(self, "n_states", n)
        object.__setattr__(self, "alphabet", _checked_alphabet(self.alphabet))
        object.__setattr__(self, "initial", check_int(self.initial, "initial state", 0, n))
        final = frozenset(check_int(s, "final state", 0, n) for s in self.final)
        object.__setattr__(self, "final", final)
        if len(self.transitions) != n:
            raise ValueError("transition table must have one row per state")
        rows = []
        for row in self.transitions:
            if len(row) != len(self.alphabet):
                raise ValueError("transition table row must cover every letter")
            rows.append(tuple(check_int(dst, "transition target", 0, n) for dst in row))
        object.__setattr__(self, "transitions", tuple(rows))

    def run(self, word: Word) -> int:
        state, sigma = self.initial, len(self.alphabet)
        for a in word:
            state = self.transitions[state][check_int(a, "letter index", 0, sigma)]
        return state

    def member(self, word: Word) -> bool:
        return self.run(word) in self.final


def _checked_alphabet(alphabet) -> tuple[str, ...]:
    """The alphabet as a tuple of distinct, non-empty names without
    whitespace or ``#``."""
    alphabet = tuple(alphabet)
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    if _plain_names(alphabet):
        return alphabet
    # some name is bad: find the first, one name at a time
    names: set[str] = set()
    for name in alphabet:
        if not isinstance(name, str) or not name or name.split() != [name] or "#" in name:
            raise ValueError(f"bad letter name {name!r}")
        if name in names:
            raise ValueError(f"duplicate letter name {name!r}")
        names.add(name)
    return alphabet


def _plain_names(alphabet: tuple) -> bool:
    """Whether every name is a ``str``, non-empty, free of whitespace and
    ``#``, and distinct, checked in a few passes at C speed: joined by
    spaces, the names split back into themselves exactly when each is
    non-empty and has no whitespace."""
    if set(map(type, alphabet)) != {str}:
        return False
    joined = " ".join(alphabet)
    return (
        "#" not in joined
        and joined.split() == list(alphabet)
        and len(set(alphabet)) == len(alphabet)
    )


def _checked_state_count(n: int) -> int:
    n = check_int(n, "state count")
    if n < 1:
        raise ValueError("an automaton needs at least one state")
    return n


def _mask(states: set[int] | frozenset[int]) -> int:
    """A set of states as an int bitmask."""
    return sum(1 << s for s in states)


def _states(mask: int) -> tuple[int, ...]:
    """The states of an int bitmask, ascending."""
    bits = bin(mask)[:1:-1]  # binary digits, least significant first
    return tuple(i for i, bit in enumerate(bits) if bit == "1")


def _mask_step(mask: int, succ: tuple[int, ...]) -> int:
    """Image of the state set ``mask`` under a relation given as one
    successor mask per state."""
    out = 0
    while mask:
        low = mask & -mask
        out |= succ[low.bit_length() - 1]
        mask ^= low
    return out


def _stepper(nfa: Nfa):
    """Map a state set's mask to its successor masks, in letter order: the
    OR of the set's successor columns, split once into byte fields."""
    index = nfa._succ
    built, build, size, width = index.columns, index.column, index.size, index.width
    fields = [slice(i, i + width) for i in range(0, size, width)]
    from_bytes = int.from_bytes

    def step(mask: int) -> list[int]:
        out = 0
        while mask:
            low = mask & -mask
            state = low.bit_length() - 1
            column = built[state]  # read inline: no call once it is built
            out |= build(state) if column is None else column
            mask ^= low
        packed = out.to_bytes(size, "little")
        return [from_bytes(packed[field], "little") for field in fields]

    return step


def reach(nfa: Nfa, states: set[int] | frozenset[int], word: Word) -> set[int]:
    """States reachable from ``states`` after reading ``word`` (epsilon = identity)."""
    # as ints: a numpy integer would not widen past 64 bits in a mask
    states = {check_int(s, "state index", 0, nfa.n_states) for s in states}
    return set(_states(_run(nfa, _mask(states), word)))


def member(nfa: Nfa, word: Word) -> bool:
    """Whether the automaton accepts ``word`` from any initial state."""
    return bool(_run(nfa, _mask(nfa.initial), word) & _mask(nfa.final))


def _run(nfa: Nfa, mask: int, word: Word) -> int:
    """The state set ``mask`` after reading ``word``, whose letters are all
    checked before the first step."""
    sigma = len(nfa.alphabet)
    for a in word:
        check_int(a, "letter index", 0, sigma)
    row = nfa._succ.row
    for a in word:
        out = 0
        while mask:
            low = mask & -mask
            out |= row(low.bit_length() - 1).get(a, 0)
            mask ^= low
        mask = out
    return mask


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
        cap,
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
    n, sigma = dfa.n_states, len(dfa.alphabet)
    # rows (s, a, transitions[s][a]) in (s, a) order: already sorted
    relation = np.empty((n * sigma, 3), dtype=np.int64)
    relation[:, 0] = np.repeat(np.arange(n), sigma)
    relation[:, 1] = np.tile(np.arange(sigma), n)
    relation[:, 2] = np.ravel(dfa.transitions)
    return Nfa(
        n_states=n,
        alphabet=dfa.alphabet,
        initial=frozenset({dfa.initial}),
        final=dfa.final,
        transitions=Relation(relation),
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
    pairs, rows = explore(start, successors, cap, "equivalence product pairs", stop=splits)
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
    step = _stepper(nfa)
    init, fin = _mask(nfa.initial), _mask(nfa.final)

    def accepting(rel: tuple[int, ...]) -> int:
        return _mask_step(_mask_step(init, rel), rel) & fin

    return walk_word_tree(
        tuple(1 << s for s in range(nfa.n_states)),
        # each state's image stepped on every letter, regrouped by letter
        lambda rel: list(zip(*map(step, rel))),
        accepting,
        len(nfa.alphabet),
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
