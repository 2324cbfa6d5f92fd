"""Core automaton types and language operations.

States are integer indices ``0..n_states-1`` and letters are indices into
an ordered alphabet of distinct names.  NFA transition relations may be
partial and nondeterministic; a missing (state, letter) entry means the
empty successor set, with no implicit sink.  Every operation here is a
pure function of its inputs and automata are immutable after construction,
so shared instances are safe to use concurrently: successor rows and
table entries are built on first use, and a concurrent first use can at
worst build an entry twice.

An ``Nfa`` holds its relation as one sorted, read-only ``(k, 3)`` int64
array of (source, letter, target) rows, validated with array operations;
``Nfa.transitions`` is a :class:`Relation` view of it that reads like the
tuple of triples.  A set of states is simulated as an int bitmask, stepped
through one successor index, ``_succ``, in one of two forms, one per
access pattern.  A step on one letter (``reach``, ``member``, ``targets``)
reads each set state's row, a dict from letter to successor mask.  A step
on every letter at once (``_stepper``: ``determinize``, the product walk
of ``equivalent`` and ``difference_witness``, and ``accept_table`` and
``square_accept_table``, which flag every word up to a length in rank
order, see :mod:`sqrtnfa.words`) ORs one table entry per non-zero byte of
the mask, as in the Method of Four Russians, and splits the result once.
There is no state cap: masks are Python ints.

The word walks (``determinize``, ``accept_table`` and
``dfa_accept_table``) take their start node, successor function and
acceptance test from :func:`_walk`, and so does each side of the product
walk, so both take a ``Dfa``, which steps its states on its transition
table with no NFA view.  ``square_accept_table`` and
:func:`sqrtnfa.oracle.relation_dfa` share :func:`_square_walk`, whose node
is a word's relation.  :func:`_product` steps any number of walks
together, and :func:`_first_split` reads the least word on which they
split off it: two automata's walks for ``difference_witness``, or the
cube's, the function DFA's and the relation walk in one ``random-equiv``
trial.  It is the one place a word is rebuilt from a walk; the acceptance
tables are flags in rank order, never read back into words.  A ``Dfa``
validates a table of plain ``int`` rows in a few C-level passes and
checks any other table entry by entry.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from numbers import Integral

import numpy as np

from .config import check_int
from .words import Word, explore, walk_word_tree

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
    """Successors in two forms, built on first use from the states' slices
    of the sorted relation, in dicts that grow with use, not with n.  A
    row, for one-letter steps, is a state's dict from letter to successor
    mask.  ``tables[i]``, for all-letter steps, has 256 slots; slot b packs
    the successors of the states 8i + j, j a set bit of b, on every letter
    in one int whose byte field a (``width`` = ceil(n/8) bytes,
    little-endian) holds letter a's.  At most 255 entries per 8 states are
    built, each the size of one column, and only for byte values a walk
    meets.
    """

    def __init__(self, relation: np.ndarray, n: int, sigma: int):
        self._relation = relation
        self.width = -(-n // 8)
        self.size = sigma * self.width
        self.rows: dict[int, dict[int, int]] = {}
        self.tables: dict[int, list[int | None]] = {}

    def _entries(self, state: int) -> list[list[int]]:
        """The state's letters and targets, in relation order."""
        sources = self._relation[:, 0].data  # the sorted column, read in place
        start = bisect_left(sources, state)
        end = bisect_right(sources, state, start)
        return self._relation[start:end, 1:].T.tolist()

    def row(self, state: int) -> dict[int, int]:
        try:
            return self.rows[state]
        except KeyError:
            row = {}
            for a, t in zip(*self._entries(state)):
                row[a] = row.get(a, 0) | 1 << t
            self.rows[state] = row
            return row

    def _column(self, state: int) -> int:
        """The state's successors on every letter, packed."""
        letters, targets = self._entries(state)
        packed, width = bytearray(self.size), self.width
        for a, t in zip(letters, targets):
            packed[a * width + (t >> 3)] |= 1 << (t & 7)
        return int.from_bytes(packed, "little")

    def entry(self, i: int, byte: int) -> int:
        """Slot ``byte`` of table ``i``: one state's column or the OR of two slots."""
        table = self.tables.get(i)
        if table is None:
            table = self.tables[i] = [None] * 256
        entry = table[byte]
        if entry is None:
            low = byte & -byte
            if low == byte:
                entry = self._column(8 * i + low.bit_length() - 1)
            else:
                entry = self.entry(i, byte ^ low) | self.entry(i, low)
            table[byte] = entry
        return entry


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton over named letters.

    ``transitions`` is an explicit relation of (source, letter, target)
    triples, given as any sequence of triples or a ``(k, 3)`` integer
    array, which is copied, or as a :class:`Relation`, whose array is
    validated like any other and kept without a copy when it is already
    a ``(k, 3)`` int64 array.  It is kept as a
    :class:`Relation` over one sorted int64 array.
    Steps read the successor index ``_succ``, built on first use.  A
    one-letter step reads rows: dicts from letter to successor mask,
    sparse because witness-style alphabets are large (thousands of
    letters) but each state uses few of them.  A step on every letter
    reads tables: per 8 states, the packed successors of their subsets.
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
    increasing = _increasing(relation)
    if not increasing:
        relation = relation[np.lexsort(relation.T[::-1])]
    # as unsigned, a negative entry reads as one above every bound
    src, letter, dst = (int(c.max(initial=0)) for c in relation.view(np.uint64).T)
    if max(src, dst) >= n or letter >= sigma or not (increasing or _increasing(relation)):
        raise _first_bad(relation, n, sigma)
    return relation


def _increasing(relation: np.ndarray) -> bool:
    """Whether the rows strictly increase in lexicographic order."""
    before, after = relation[:-1].T, relation[1:].T
    rises = after[2] > before[2]
    for column in (1, 0):
        rises = (after[column] > before[column]) | (after[column] == before[column]) & rises
    return bool(rises.all())


def _first_bad(rows: np.ndarray, n: int, sigma: int) -> ValueError:
    """The error for the first of the sorted rows with a state out of range,
    else a letter out of range, else equal to the row before it."""
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
        rows = _plain_rows(self.transitions, n, len(self.alphabet))
        if rows is None:
            # some row is bad, or holds a non-int integer: one entry at a time
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


def _plain_rows(table, n: int, sigma: int) -> tuple[tuple[int, ...], ...] | None:
    """The table's rows as tuples when each is a tuple or list of ``sigma``
    entries of type ``int`` in ``range(n)``, checked in a few passes at C
    speed; otherwise None."""
    if not set(map(type, table)) <= {tuple, list} or set(map(len, table)) != {sigma}:
        return None
    flat = list(chain.from_iterable(table))
    if set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= n:
        return None
    return tuple(map(tuple, table))


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
    OR of one table entry per non-zero byte of the mask, split once into
    byte fields."""
    index = nfa._succ
    table_at, entry, size, width = index.tables.get, index.entry, index.size, index.width
    fields = [slice(i, i + width) for i in range(0, size, width)]
    from_bytes = int.from_bytes

    def step(mask: int) -> list[int]:
        out = 0
        for i, byte in enumerate(mask.to_bytes(width, "little")):
            if byte:
                table = table_at(i)  # read inline: no entry() call once built
                value = None if table is None else table[byte]
                out |= entry(i, byte) if value is None else value
        packed = out.to_bytes(size, "little")
        return [from_bytes(packed[field], "little") for field in fields]

    return step


def _walk(auto: Nfa | Dfa):
    """An automaton's walk on words: its start node, a node's successors
    in letter order, and whether a node accepts.  An ``Nfa``'s nodes are
    state-set masks stepped by :func:`_stepper`; a ``Dfa``'s are its
    states, stepped on its table.  A DFA state d and its singleton mask
    ``1 << d`` are numbered alike by :func:`explore`."""
    if isinstance(auto, Dfa):
        return auto.initial, auto.transitions.__getitem__, auto.final.__contains__
    fin = _mask(auto.final)
    return _mask(auto.initial), _stepper(auto), lambda mask: mask & fin != 0


def _square_walk(nfa: Nfa):
    """The walk of :func:`_walk` for the words w whose square ww the
    automaton accepts.  A word's node is its relation, one successor mask
    per state, and ww is accepted when applying it twice to the initial
    set meets a final state.  Each state set is stepped once per walk."""
    step = cache(_stepper(nfa))
    init, fin = _mask(nfa.initial), _mask(nfa.final)
    return (
        tuple(1 << s for s in range(nfa.n_states)),
        # each state's image stepped on every letter, regrouped by letter
        lambda rel: list(zip(*map(step, rel))),
        lambda rel: _mask_step(_mask_step(init, rel), rel) & fin != 0,
    )


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
    word = tuple(word)  # read once, so an iterator loses no letter to the check
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


def _explored_dfa(start, step, accepting, alphabet, budget, what: str) -> Dfa:
    """The nodes :func:`explore` reaches from ``start`` as a DFA: node i is
    state i, so ``start`` is state 0, a row lists a node's ``step``
    successors in letter order, and a state is final when its node is
    ``accepting``.  More than ``budget`` nodes are refused as ``what``."""
    nodes, rows = explore(start, step, budget, what)
    final = frozenset(i for i, node in enumerate(nodes) if accepting(node))
    return Dfa(len(nodes), alphabet, 0, final, tuple(map(tuple, rows)))


def determinize(nfa: Nfa, cap: int | None = None) -> Dfa:
    """Subset construction over reachable subsets, laid out by :func:`_explored_dfa`.

    The empty subset becomes an explicit sink state if (and only if) some
    reachable subset has no successor on some letter, keeping the result
    total.  Raises :class:`BudgetExceededError` when the number of subset
    states would exceed the cap (default from :mod:`sqrtnfa.config`).
    """
    return _explored_dfa(*_walk(nfa), nfa.alphabet, cap, "determinization subset states")


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


def _product(*walks):
    """The walk (see :func:`_walk`) of the tuples of nodes one word reaches
    in each of ``walks``: the start tuple, a tuple's successors in letter
    order, and whether the walks split on acceptance there, not all
    accepting and not all rejecting."""
    starts, steps, accepts = zip(*walks)
    return (
        starts,
        lambda node: list(zip(*[step(x) for step, x in zip(steps, node)])),
        lambda node: len({accept(x) for accept, x in zip(accepts, node)}) > 1,
    )


def _first_split(walks, cap: int | None, what: str) -> Word | None:
    """The least word, length-lex, on which ``walks`` split on acceptance,
    or None when they agree on every word.

    The tuples of their nodes are explored on the fly, breadth first in
    letter order, and the walk stops at the first tuple that splits; each
    tuple is first reached by its least word, so that word is the answer.
    More tuples than the cap before that raises
    ``BudgetExceededError(what, ...)``.
    """
    start, successors, splits = _product(*walks)
    nodes, rows = explore(start, successors, cap, what, stop=splits)
    if not splits(nodes[-1]):
        return None
    # a node's word is its first parent's word plus the letter: ids are
    # handed out in (parent, letter) order, and the split node is the last
    words: list[Word] = [()]
    for parent, row in enumerate(rows):
        for letter, child in enumerate(row):
            if child == len(words):
                words.append(words[parent] + (letter,))
    return words[len(nodes) - 1]


def difference_witness(a: Nfa | Dfa, b: Nfa | Dfa, cap: int | None = None) -> Word | None:
    """Shortest word accepted by exactly one automaton, or None when the
    languages coincide.

    The pairs of reached state sets (a ``Dfa`` side's are its states) are
    explored by :func:`_first_split`, without determinizing either side,
    so ties resolve lexicographically.  More pairs than the cap before the
    first split raises ``BudgetExceededError("equivalence product pairs",
    ...)``, even when each side's determinization would fit.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch between automata")
    return _first_split((_walk(a), _walk(b)), cap, "equivalence product pairs")


def equivalent(a: Nfa | Dfa, b: Nfa | Dfa, cap: int | None = None) -> bool:
    """Exact language equality: no reachable pair of state sets splits on
    acceptance (see :func:`difference_witness`).

    There is deliberately no approximate fallback: if the pairs exceed the
    cap, the BudgetExceededError propagates rather than a guess.
    """
    return difference_witness(a, b, cap) is None


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


def accept_table(nfa: Nfa | Dfa, max_len: int, budget: int | None = None) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len, rank order.

    Index k of the result corresponds to the k-th word in length-lex
    order (see :mod:`sqrtnfa.words`); a word's node is what it reaches in
    :func:`_walk`: a state set as an int mask, or a DFA state.
    """
    return walk_word_tree(*_walk(nfa), len(nfa.alphabet), max_len, budget)


def square_accept_table(nfa: Nfa, max_len: int, budget: int | None = None) -> np.ndarray:
    """Acceptance flag for ww, for every w of length <= max_len, rank order.

    This is the direct square-membership route: it never builds the cube
    automaton.  A word's node is its relation, as in :func:`_square_walk`.
    """
    return walk_word_tree(*_square_walk(nfa), len(nfa.alphabet), max_len, budget)


def dfa_accept_table(dfa: Dfa, max_len: int, budget: int | None = None) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len on a DFA."""
    return walk_word_tree(*_walk(dfa), len(dfa.alphabet), max_len, budget)
