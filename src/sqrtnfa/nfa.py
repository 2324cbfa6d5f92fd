"""Core automaton types and language operations.

States are integer indices ``0..n_states-1`` and letters are indices into
an ordered alphabet of distinct names.  NFA transition relations may be
partial and nondeterministic; a missing (state, letter) entry means the
empty successor set, with no implicit sink.  Every operation here is a
pure function of its inputs and automata are immutable after construction,
so shared instances are safe to use concurrently: successor rows and
table entries are built on first use, and a concurrent first use can at
worst build an entry twice.

An ``Nfa`` holds its relation as one sorted, read-only int64 array of
keys, one per transition: ``(source * sigma + letter) * n + target``,
so ascending keys are the triples in (source, letter, target) order and
a state's transitions are one run of keys.  The keys are validated with
a few array operations, and an automaton whose keys would pass int64
(n * n * sigma >= 2**63) is refused.  ``Nfa.transitions`` is a
:class:`Relation`: the keys, decoded into rows only on demand.  A set
of states is simulated as an int bitmask, stepped through one successor
index, ``_succ``, in one of two forms, one per access pattern; the
index also holds the masks of the initial and final states, built once
with it.  A step on one letter (``reach``, ``member``) reads each set
state's row, a dict from letter to successor mask, decoded from the
state's run of keys in one numpy pass.  A step on every letter at once
(``_stepper``: ``determinize``, the product walk of ``equivalent`` and
``difference_witness``, and ``accept_table`` and ``square_accept_table``,
which flag every word up to a length in rank order) ORs one table entry
per non-zero byte of the mask, as in the Method of Four Russians, and
cuts the result into one mask per letter with a shift and an AND.  There is no state cap: masks are
Python ints.

A word is a tuple of letter indices.  Rank order is length-lex: rank 0
is the empty word, then every length-1 word in letter order, then
length-2, and so on.  :func:`explore` is the one breadth-first numbering
of reachable nodes; :func:`_word_flags` reads a walk level by level into
flags in rank order.  The word walks (``determinize``, ``accept_table`` and
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
checks its table entry by entry through :func:`~sqrtnfa.config.check_int`,
the one integer test, and keeps it as a tuple of tuples of ``int``.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain

import numpy as np

from .config import charge, check_int, effective_budget

try:
    from operator import call
except ImportError:  # before Python 3.11
    call = lambda function, *args: function(*args)  # noqa: E731

Word = tuple[int, ...]


class Relation:
    """A transition relation over n states and sigma letters,
    duplicate-free and sorted by (source, letter, target).

    It is one sorted, read-only int64 array, ``keys``, of one key
    ``(source * sigma + letter) * n + target`` per transition: ascending
    keys are the triples in that order.  :meth:`unpack` and ``.array``, a
    read-only ``(k, 3)`` array of (source, letter, target) rows, decode
    them on each call; ``len`` reads the keys.  Two relations are equal
    when their n, sigma, key dtype and keys are; ``hash`` reads the keys in place,
    and ``repr`` shows the counts.  An ``Nfa`` over the same n and sigma
    given a ``Relation`` of 1-D int64 keys checks only that they lie in
    range and strictly increase, sorting them first if not; else it
    decodes, checks and packs them again.
    """

    __slots__ = ("keys", "_radix")

    def __init__(self, keys: np.ndarray, n: int, sigma: int):
        keys.flags.writeable = False
        self.keys, self._radix = keys, (n, sigma)

    def __reduce__(self):
        return Relation, (self.keys, *self._radix)

    def unpack(self, rows: slice = slice(None)) -> tuple[np.ndarray, ...]:
        """The sources, letters and targets of the keys in ``rows``."""
        n, sigma = self._radix
        keys = self.keys[rows]
        pairs = keys // n  # a floor division and a product: faster than np.divmod
        source = pairs // sigma
        return source, pairs - source * sigma, keys - pairs * n

    @property
    def array(self) -> np.ndarray:
        array = np.column_stack(self.unpack())
        array.flags.writeable = False
        return array

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self._radix == other._radix
            and self.keys.dtype == other.keys.dtype
            and np.array_equal(self.keys, other.keys)
        )

    def __hash__(self) -> int:
        # a copy only for keys that are not one contiguous block
        return hash((self._radix, zlib.crc32(np.ascontiguousarray(self.keys))))

    def __repr__(self) -> str:
        n, sigma = self._radix
        return f"Relation({self.keys.size} transitions, {n} states, {sigma} letters)"


class _SuccessorIndex:
    """Successors in two forms, built on first use from the states' runs
    of sorted keys, in dicts that grow with use, not with n, and the
    masks of the initial and final states, built with the index.  A
    row, for one-letter steps, is a state's dict from letter to successor
    mask.  ``tables[i]``, for all-letter steps, has 256 slots; slot b packs
    the successors of the states 8i + j, j a set bit of b, on every letter
    in one int whose byte field a (``width`` = ceil(n/8) bytes,
    little-endian) holds letter a's: a state's column sets bit
    ``a * 8 * width + t`` for each of its transitions (a, t).  At most 255
    entries per 8 states are built, each the size of one column, and only
    for byte values a walk meets.

    A row's run of keys is found with ``searchsorted`` and decoded by
    :meth:`Relation.unpack` in one numpy pass: a witness state has
    hundreds to thousands of keys.  A column's run is decoded key by key
    in Python: the all-letter walks run on small automata, whose runs of
    a few keys cost less so.
    """

    def __init__(self, nfa: Nfa):
        n, sigma = nfa.n_states, len(nfa.alphabet)
        self._relation, self._n, self._span = nfa.transitions, n, sigma * n
        self.width = -(-n // 8)
        self.size = sigma * self.width
        self.initial, self.final = _mask(nfa.initial), _mask(nfa.final)
        self.rows: dict[int, dict[int, int]] = {}
        self.tables: dict[int, list[int | None]] = {}

    def _entries(self, state: int) -> list[tuple[int, int]]:
        """The state's (letter, target) pairs, in relation order: its keys
        are those in [state * sigma * n, (state + 1) * sigma * n)."""
        keys, base, n = self._relation.keys.data, state * self._span, self._n  # read in place
        start = bisect_left(keys, base)
        end = bisect_left(keys, base + self._span, start)
        return [divmod(key - base, n) for key in keys[start:end].tolist()]

    def row(self, state: int) -> dict[int, int]:
        try:
            return self.rows[state]
        except KeyError:
            base = state * self._span
            run = np.searchsorted(self._relation.keys, (base, base + self._span)).tolist()
            _, letters, targets = self._relation.unpack(slice(*run))
            row = {}
            for a, t in zip(letters.tolist(), targets.tolist()):
                row[a] = row.get(a, 0) | 1 << t
            self.rows[state] = row
            return row

    def _column(self, state: int) -> int:
        """The state's successors on every letter, packed."""
        column, field = 0, 8 * self.width
        for a, t in self._entries(state):
            column |= 1 << (a * field + t)
        return column

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
    triples, given as any sequence of triples, a ``(k, 3)`` integer array
    or a :class:`Relation`, whose keys are kept without a copy when it
    was packed for the same n and sigma.  Each column's range is checked
    before rows are packed into keys, so a key never overflows; the keys are
    sorted unless they already strictly increase, and one pass checks
    that they are sorted and duplicate-free.  They are kept as a
    :class:`Relation`.  Keys run below n * n * sigma, so an automaton
    with n * n * sigma >= 2**63 is refused with ``ValueError`` before
    its relation is read.
    Steps read the successor index ``_succ``, built on first use.  A
    one-letter step reads rows: dicts from letter to successor mask,
    sparse because witness-style alphabets are large (thousands of
    letters) but each state uses few of them.  A step on every letter
    reads tables: per 8 states, the packed successors of their subsets.
    :meth:`letter_index` reads a dict from letter name to index, built on
    first use; like ``_succ``, it is not a field.
    """

    n_states: int
    alphabet: tuple[str, ...]
    initial: frozenset[int]
    final: frozenset[int]
    transitions: Relation

    def __post_init__(self):
        object.__setattr__(self, "n_states", _checked_state_count(self.n_states))
        object.__setattr__(self, "alphabet", _checked_alphabet(self.alphabet))
        check_key_limit(self.n_states, len(self.alphabet))
        for label in ("initial", "final"):
            states = frozenset(
                check_int(s, f"{label} state", 0, self.n_states) for s in getattr(self, label)
            )
            object.__setattr__(self, label, states)
        relation = _checked_relation(self.transitions, self.n_states, len(self.alphabet))
        object.__setattr__(self, "transitions", relation)

    # both written to the instance __dict__, not fields: not in ==, hash, repr
    @cached_property
    def _succ(self) -> _SuccessorIndex:
        return _SuccessorIndex(self)

    @cached_property
    def _letter_ids(self) -> dict[str, int]:
        return dict(zip(self.alphabet, range(len(self.alphabet))))

    def letter_index(self, name: str) -> int:
        """The index of the letter named ``name``; ``ValueError`` for any
        other value, a name or not."""
        index = self._letter_ids.get(name) if isinstance(name, str) else None
        if index is None:
            raise ValueError(f"unknown letter {name!r}")
        return index


def check_key_limit(n: int, sigma: int) -> None:
    """Refuse ``n`` states and ``sigma`` letters when their transition keys
    (source * sigma + letter) * n + target, which run below n * n * sigma,
    would not all fit in int64."""
    if n * n * sigma >= 2**63:
        raise ValueError(
            f"transition keys need n*n*sigma below 2**63, but n = {n} and "
            f"sigma = {sigma} give {n * n * sigma}"
        )


def pack(source, letter, target, n: int, sigma: int):
    """The keys ``(source * sigma + letter) * n + target`` of transitions
    over n states and sigma letters, on ints or numpy arrays alike,
    unchecked: ascending keys are the transitions in (source, letter,
    target) order."""
    return (source * sigma + letter) * n + target


_NOT_TRIPLES = "transitions must be (source, letter, target) triples"


def _checked_relation(transitions, n: int, sigma: int) -> Relation:
    """The transitions as a validated :class:`Relation` over n states and
    sigma letters.  Its keys are the 1-D int64 keys of a ``Relation``
    packed for this n and sigma, and else packed here from the ``(k, 3)``
    rows, after each column's range is checked; they are sorted only if
    they do not already strictly increase.  Keys that are not 1-D are not
    triples; any other fault is reported by :func:`_first_bad`."""
    keys = transitions.keys if isinstance(transitions, Relation) else None
    if keys is not None and keys.ndim != 1:
        raise ValueError(_NOT_TRIPLES)
    if not (keys is not None and keys.dtype == np.int64 and transitions._radix == (n, sigma)):
        if keys is not None:
            # keys of another dtype or radix are checked as decoded triples
            transitions = transitions.array
        rows = _relation_array(transitions)
        # as unsigned, a negative entry reads as one above every bound
        src, letter, dst = rows.view(np.uint64).max(axis=0, initial=0).tolist()
        if max(src, dst) >= n or letter >= sigma:
            raise _first_bad(rows[np.lexsort(rows.T[::-1])], n, sigma)
        keys = pack(*rows.T, n, sigma)
    increasing = _increasing(keys)
    if not increasing:
        keys = np.sort(keys)
    in_range = not len(keys) or 0 <= keys[0] and keys[-1] < n * n * sigma
    if not (in_range and (increasing or _increasing(keys))):
        raise _first_bad(Relation(keys, n, sigma).array, n, sigma)
    return Relation(keys, n, sigma)


def _relation_array(transitions) -> np.ndarray:
    """The triples as a ``(k, 3)`` int64 array; unless they are of bool or
    signed int dtype, or unsigned with a maximum below 2**63, each entry
    first passes :func:`check_int` within int64."""
    if not isinstance(transitions, (np.ndarray, list, tuple)):
        transitions = tuple(transitions)
    if len(transitions) == 0:
        return np.empty((0, 3), dtype=np.int64)
    array = np.asarray(transitions)
    if array.ndim != 2 or array.shape[1] != 3:
        raise ValueError(_NOT_TRIPLES)
    kind = array.dtype.kind
    if kind not in "bi" and not (kind == "u" and int(array.max()) < 2**63):
        rows = transitions.tolist() if isinstance(transitions, np.ndarray) else transitions
        for triple in rows:
            for x in triple:
                check_int(x, f"transition {tuple(triple)} entry", -(2**63), 2**63)
    return array.astype(np.int64, copy=False)


def _increasing(keys: np.ndarray) -> bool:
    """Whether the keys strictly increase: sorted and duplicate-free."""
    return bool((keys[1:] > keys[:-1]).all())


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
    """The states of an int bitmask, ascending: only its non-zero bytes
    are unpacked, so a sparse mask over many states costs its set bytes."""
    data = np.frombuffer(mask.to_bytes(-(-mask.bit_length() // 8), "little"), np.uint8)
    at = np.flatnonzero(data)
    byte, bit = np.nonzero(np.unpackbits(data[at, None], axis=1, bitorder="little"))
    return tuple((8 * at[byte] + bit).tolist())


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
    OR of one table entry per non-zero byte of the mask, cut into its byte
    fields by one shift and one AND per letter."""
    index = nfa._succ
    table_at, entry, width = index.tables.get, index.entry, index.width
    shifts, full = range(0, 8 * index.size, 8 * width), (1 << 8 * width) - 1

    def step(mask: int) -> list[int]:
        out = 0
        for i, byte in enumerate(mask.to_bytes(width, "little")):
            if byte:
                table = table_at(i)  # read inline: no entry() call once built
                value = None if table is None else table[byte]
                out |= entry(i, byte) if value is None else value
        return [out >> shift & full for shift in shifts]

    return step


def _walk(auto: Nfa | Dfa):
    """An automaton's walk on words: its start node, a node's successors
    in letter order, and whether a node accepts.  An ``Nfa``'s nodes are
    state-set masks stepped by :func:`_stepper`; a ``Dfa``'s are its
    states, stepped on its table.  A DFA state d and its singleton mask
    ``1 << d`` are numbered alike by :func:`explore`."""
    if isinstance(auto, Dfa):
        return auto.initial, auto.transitions.__getitem__, auto.final.__contains__
    init, fin = auto._succ.initial, auto._succ.final
    return init, _stepper(auto), lambda mask: mask & fin != 0


def _square_walk(nfa: Nfa):
    """The walk of :func:`_walk` for the words w whose square ww the
    automaton accepts.  A word's node is its relation, one successor mask
    per state, and ww is accepted when applying it twice to the initial
    set meets a final state.  Each state set is stepped once per walk."""
    step = cache(_stepper(nfa))
    init, fin = nfa._succ.initial, nfa._succ.final
    return (
        tuple(1 << s for s in range(nfa.n_states)),
        # each state's image stepped on every letter, regrouped by letter
        lambda rel: zip(*map(step, rel)),
        lambda rel: _mask_step(_mask_step(init, rel), rel) & fin != 0,
    )


def reach(nfa: Nfa, states: set[int] | frozenset[int], word: Word) -> set[int]:
    """States reachable from ``states`` after reading ``word`` (epsilon = identity)."""
    # as ints: a numpy integer would not widen past 64 bits in a mask
    states = {check_int(s, "state index", 0, nfa.n_states) for s in states}
    return set(_states(_run(nfa, _mask(states), word)))


def member(nfa: Nfa, word: Word) -> bool:
    """Whether the automaton accepts ``word`` from any initial state."""
    index = nfa._succ
    return bool(_run(nfa, index.initial, word) & index.final)


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


def explore(
    start: Hashable,
    successors: Callable[[Hashable], Iterable[Hashable]],
    budget: int | None,
    what: str,
    stop: Callable[[Hashable], object] | None = None,
) -> tuple[list[Hashable], list[list[int]]]:
    """Number every node reachable from ``start`` breadth first: ``(nodes, rows)``.

    ``rows[i]`` holds the ids of ``successors(nodes[i])``, read once in
    letter order, and ids go by first sight, so ``nodes`` grows while it is
    read.  The walk ends early at the first numbered node that satisfies
    ``stop``: it is then ``nodes[-1]`` and the last row ends at its id.
    Only such a stop leaves fewer rows than nodes.  More than ``budget``
    nodes (default from :mod:`sqrtnfa.config`) raises
    ``BudgetExceededError(what, budget + 1, budget)``.
    """
    budget = effective_budget(budget)
    ids = {start: 0}
    nodes = [start]
    rows: list[list[int]] = []
    if stop is not None and stop(start):
        return nodes, rows
    for node in nodes:
        rows.append(row := [])
        for kid in successors(node):
            i = ids.setdefault(kid, len(nodes))
            row.append(i)
            if i == len(nodes):  # first sight
                if i == budget:
                    charge(what, budget + 1, budget)
                nodes.append(kid)
                if stop is not None and stop(kid):
                    return nodes, rows
    return nodes, rows


def _explored_dfa(start, step, accepting, alphabet, budget, what: str) -> Dfa:
    """The nodes :func:`explore` reaches from ``start`` as a DFA: node i is
    state i, so ``start`` is state 0, a row lists a node's ``step``
    successors in letter order, and a state is final when its node is
    ``accepting``.  More than ``budget`` nodes are refused as ``what``."""
    nodes, rows = explore(start, step, budget, what)
    final = frozenset(i for i, node in enumerate(nodes) if accepting(node))
    return Dfa(len(nodes), alphabet, 0, final, rows)


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
    # the key of (s, a, transitions[s][a]) is (s * sigma + a) * n + its
    # target: in (s, a) order, already sorted
    keys = np.arange(n * sigma) * n + np.ravel(dfa.transitions)
    return Nfa(
        n_states=n,
        alphabet=dfa.alphabet,
        initial=frozenset({dfa.initial}),
        final=dfa.final,
        transitions=Relation(keys, n, sigma),
    )


def _product(*walks):
    """The walk (see :func:`_walk`) of the tuples of nodes one word reaches
    in each of ``walks``: the start tuple, a tuple's successors in letter
    order as a ``zip`` to be read once, and whether the walks split on
    acceptance there, not all accepting and not all rejecting."""
    starts, steps, accepts = zip(*walks)
    return (
        starts,
        lambda node: zip(*map(call, steps, node)),
        lambda node: len(set(map(call, accepts, node))) > 1,
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
    if len(rows) == len(nodes):  # not stopped: no split
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


def _word_flags(walk, sigma: int, max_len: int, budget: int | None) -> np.ndarray:
    """Flag of every word of length <= max_len over ``sigma`` letters, in
    rank order, on ``walk`` (see :func:`_walk`).

    Level 0 is the start node, and level k + 1 is each level-k node's
    successors in letter order; each distinct node is stepped and judged
    once.  The 1 + sigma + ... + sigma**max_len words are charged as
    ``word tree words`` before anything is built.
    """
    length = check_int(max_len, "max_len", 0) + 1
    words = length if sigma == 1 else (sigma**length - 1) // (sigma - 1)
    charge("word tree words", words, budget)
    start, successors, accepting = walk
    # a tuple: a step may hand out a one-shot iterator
    step, judge = cache(lambda node: tuple(successors(node))), cache(accepting)
    level, flags = [start], [judge(start)]
    for _ in range(max_len):
        level = list(chain.from_iterable(map(step, level)))
        flags += map(judge, level)
    return np.array(flags, dtype=np.bool_)


def accept_table(nfa: Nfa | Dfa, max_len: int, budget: int | None = None) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len, rank order.

    Index k of the result corresponds to the k-th word in length-lex
    order; a word's node is what it reaches in :func:`_walk`: a state set
    as an int mask, or a DFA state.
    """
    return _word_flags(_walk(nfa), len(nfa.alphabet), max_len, budget)


def square_accept_table(nfa: Nfa, max_len: int, budget: int | None = None) -> np.ndarray:
    """Acceptance flag for ww, for every w of length <= max_len, rank order.

    This is the direct square-membership route: it never builds the cube
    automaton.  A word's node is its relation, as in :func:`_square_walk`.
    """
    return _word_flags(_square_walk(nfa), len(nfa.alphabet), max_len, budget)


def dfa_accept_table(dfa: Dfa, max_len: int, budget: int | None = None) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len on a DFA."""
    return _word_flags(_walk(dfa), len(dfa.alphabet), max_len, budget)
