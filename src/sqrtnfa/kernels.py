"""The witness family's membership tables as numpy arrays.

The square truth table (:func:`witness_square_table`) runs the automaton
it is given, and the case table is cell algebra on the payload
coordinates, split by :meth:`~sqrtnfa.sqrt.TripleCodec.split` off the
flat indices.  Each reads only the cells its two index arrays select.

The checks built on them read the n^3 x n^3 grid on one cell per symmetry
orbit.  States 6..n-1 of the witness are interchangeable: a permutation of
them, with the letters relabelled to match, maps ``witness(n)`` onto
itself, which :func:`check_symmetric` checks at run time, so the square
table is constant on every orbit.  The case table reads a coordinate of
(p1,q1,r1,p2,q2,r2) only through equalities between coordinates, tests
against constants <= 5, and the pivot maps, which are constant on the
states >= 6; so it is too.  The orbits are listed by their canonical
tuples (:func:`orbit_cells`): 163,967 for every n >= 12, instead of n^6
cells (2,985,984 at n = 12).  The canonical tuple is the least cell of its
orbit (the first appearance of a new generic value takes the least one
unused) and the list is in lexicographic order, so the first
representative that hits is the row-major first cell that hits
(:func:`_first_hit`), and no check reads more than the representatives.

What does not depend on n is built once per process.  A canonical tuple
is one of 365 canonical first triples followed by a continuation, and the
continuations depend only on how many generic values the first triple
uses, at most 3; so the list is those blocks (:func:`_orbit_blocks`), and
each n joins its pair block by block, keeping the tuples with at most
n - 6 generic values.  A case verdict is the same at every n that keeps
its tuple, so each is computed once, by the first check that reads it
(:func:`sqrtnfa.cases._case_verdicts`).

A :class:`_Grid` is what the checks of one automaton share: the automaton,
checked symmetric, its letter slots, the orbit pair and the square table
on that pair, each computed once when the grid is built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, reduce

import numpy as np

from .config import charge
from .errors import VerificationError
from .nfa import Nfa, pack
from .sqrt import TripleCodec
from .witness import _PIVOT_L, _PIVOT_M, MIN_STATES, check_witness_n

# there is no numba lane; benchmark run records still read this flag
NUMBA_AVAILABLE = False


# a flat triple index is below MAX_STATES**3 = 2**15, so every index and
# coordinate fits uint16, where numpy divides and compares several times
# faster than in int64
_CELL = np.uint16


def _continuations(start: int) -> tuple[np.ndarray, np.ndarray]:
    """Every canonical way to go on for three coordinates after a prefix
    that uses ``start`` generic values, as three uint8 rows in
    lexicographic order, and the generic values used after each.

    Values 0..5 stand for themselves; the generic values (states >= 6)
    appear as 6, 7, ... in order of first appearance.  The next value is
    one of the 6 constants, a generic value already used, or the next new
    one, so the list grows one coordinate at a time.
    """
    rows: list[np.ndarray] = []
    generic = np.full(1, start, dtype=np.uint8)
    for _ in range(3):
        choices = MIN_STATES + 1 + generic.astype(np.int64)
        parent = np.repeat(np.arange(generic.size), choices)
        starts = np.repeat(np.cumsum(choices) - choices, choices)
        value = (np.arange(parent.size) - starts).astype(np.uint8)
        generic = generic[parent]
        generic += value == MIN_STATES + generic
        rows = [row[parent] for row in rows] + [value]
    return np.stack(rows), generic


@cache
def _orbit_blocks() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The canonical 6-tuples in blocks, one per canonical first triple:
    the four lists of :func:`_continuations` after a prefix with 0, 1, 2
    and 3 generic values, each a pair (rows, generic).  The first list is
    also the 365 canonical first triples (heads) and their counts of
    generic values (tail): block i is head i followed by each continuation
    of list ``tail[i]``.  Every array is read-only: each call gets the
    same ones."""
    tails = tuple(_continuations(start) for start in range(4))
    for pair in tails:
        for array in pair:
            array.flags.writeable = False
    return tails


@cache
def _canonical_tuples() -> tuple[np.ndarray, np.ndarray]:
    """Every canonical 6-tuple (p1,q1,r1,p2,q2,r2), as six uint8 rows in
    lexicographic order, and the number of generic values in each: the
    blocks of :func:`_orbit_blocks` one after another, read-only."""
    tails = _orbit_blocks()
    heads, tail = tails[0]
    rows, generics = zip(*(tails[t] for t in tail.tolist()))
    sizes = [generic.size for generic in generics]
    # one contiguous row per coordinate: a column-major array would make
    # every later row read strided
    columns = np.empty((6, sum(sizes)), dtype=np.uint8)
    columns[:3] = np.repeat(heads, sizes, axis=1)
    np.concatenate(rows, axis=1, out=columns[3:])
    generic = np.concatenate(generics)
    columns.flags.writeable = generic.flags.writeable = False
    return columns, generic


def orbit_count(n: int) -> int:
    """How many cells :func:`orbit_cells` lists, so how many a check on
    them reads: n^6 at n = 6 and 7, at most 163,967 above."""
    check_witness_n(n)
    return int(np.count_nonzero(_orbit_kept(n)))


def _orbit_kept(n: int) -> np.ndarray:
    """Which of the :func:`_canonical_tuples` the orbit list of n keeps:
    those with at most n - 6 generic values."""
    return _canonical_tuples()[1] <= n - MIN_STATES


def orbit_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (x1, x2) of one cell per orbit of the n^3 x n^3 grid
    under the permutations of the states >= 6: the canonical tuples that
    use at most n - 6 generic values, in the order of
    :func:`_canonical_tuples`, as two read-only arrays.  Every call joins
    them block by block from :func:`_orbit_blocks`: ``x1`` repeats each
    joined head once per continuation kept, and ``x2`` chains the four
    joined lists of continuations, each restricted to the n - 6 generic
    values, in head order.  A head whose continuations are all dropped is
    repeated zero times.  A :class:`_Grid` holds the pair its checks read.

    The list audits itself on every build, counting the blocks the pair is
    joined from: an orbit with k generic values has (n-6)(n-7)...(n-5-k)
    cells, every tuple must have 0 <= k <= 6, and the orbits must cover
    exactly n^6 cells, else :class:`VerificationError`.
    """
    check_witness_n(n)
    tails = _orbit_blocks()
    heads, tail = tails[0]
    join = TripleCodec(n).join
    joined, generics = [], []
    for rows, generic in tails:
        keep = generic <= n - MIN_STATES
        joined.append(join(*rows.compress(keep, axis=1).astype(_CELL)))
        generics.append(generic[keep])
    blocks = tail.tolist()
    generic = np.concatenate([generics[t] for t in blocks])
    # counted on the uint8 generics through one scratch array: bincount
    # would first widen them to int64
    same = np.empty(generic.shape, dtype=np.bool_)
    counts = [np.count_nonzero(np.equal(generic, k, out=same)) for k in range(7)]
    cells = sum(c * math.perm(n - MIN_STATES, k) for k, c in enumerate(counts))
    if cells != n**6 or sum(counts) != generic.size:
        raise VerificationError(
            f"the orbits of the {n}-state witness cover {cells} cells, not {n**6}, "
            f"from {sum(counts)} of their {generic.size} tuples"
        )
    x1 = np.repeat(join(*heads.astype(_CELL)), [generics[t].size for t in blocks])
    x2 = np.concatenate([joined[t] for t in blocks])
    x1.flags.writeable = x2.flags.writeable = False
    return x1, x2


def _first_hit(found: np.ndarray) -> int | None:
    """Position of the first orbit representative where ``found`` holds, or
    None: the row-major first cell of the grid where a check constant on
    orbits holds (see the module docstring).

    A two-way check, (X1, X2) and (X2, X1) both hit with X1 != X2, passes
    ``found`` narrowed to the off-diagonal cells where both hit, reading the
    mirror only where the first holds.  The check is symmetric, so a hit
    (x2, x1) below the diagonal mirrors the smaller hit (x1, x2) above it,
    and the first hit has x1 < x2."""
    return int(np.argmax(found)) if found.any() else None


def _flat_cells(n: int, x1, x2, table: str, budget: int | None) -> list[np.ndarray]:
    """Two broadcastable arrays of flat triple indices (p*n + q)*n + r in
    0..n^3-1, checked, as uint16; the cells they select are charged as
    ``<table> cells``."""
    check_witness_n(n)
    cells = []
    for x in map(np.asarray, (x1, x2)):
        if x.size and x.dtype.kind not in "iu":  # np.asarray([]) is float64
            raise ValueError(f"{table}: flat triple indices must be integers, got {x.dtype}")
        if x.size and (x.min() < 0 or x.max() >= n**3):
            bad = x.min() if x.min() < 0 else x.max()
            raise ValueError(
                f"{table}: flat triple index {bad} out of range 0..{n**3 - 1} for n={n}"
            )
        cells.append(x.astype(_CELL, copy=False))
    charge(f"{table} cells", np.broadcast(*cells).size, budget)
    return cells


def _witness_n(auto: Nfa, what: str) -> int:
    """The state count n of ``auto``, checked to be a witness family size
    with ``auto`` over an alphabet of 2n^3 letters; else ``ValueError``."""
    n, sigma = auto.n_states, 2 * auto.n_states**3
    check_witness_n(n)
    if len(auto.alphabet) != sigma:
        raise ValueError(f"{what}: {len(auto.alphabet)} letters, not {sigma}")
    return n


def witness_square_table(auto: Nfa, x1, x2, budget: int | None = None) -> np.ndarray:
    """Boolean table T[x1, x2] = the word a_X1 b_X2 squares into the
    language of ``auto``, an n-state automaton over the alphabet of
    ``witness(n)``, 6 <= n <= 32.  ``x1`` and ``x2`` are broadcastable
    arrays of flat triple indices (p*n + q)*n + r that select the cells;
    their count is charged to ``budget`` before any is computed.

    Each letter's transitions go into k slots, k the most any letter has,
    and the table tracks which slots fire across (a_X1 b_X2)^2: a slot
    fires when its source is initial (on the first letter) or the target
    of a slot that fired on the letter before, and the word is accepted
    when a slot that fires on its last letter has a final target.  Every
    call builds the slots and computes its cells; :class:`_Grid` keeps
    both for the orbit pair."""
    n = _witness_n(auto, "witness_square_table")
    x1, x2 = _flat_cells(n, x1, x2, "witness_square_table", budget)
    return _square_cells(n, _letter_slots(auto), x1, x2)


def _letter_slots(auto: Nfa) -> np.ndarray:
    """Slot i of each letter of ``auto``: its i-th source, target and flag
    (1 for an initial source on an a-letter, a final target on a b-letter),
    as a (3, k, 2n^3) uint8 array; an unused slot holds n."""
    n, sigma = auto.n_states, len(auto.alphabet)
    columns = np.stack(auto.transitions.unpack())
    source, letter, target = columns[:, np.argsort(columns[1], kind="stable")]
    counts = np.bincount(letter, minlength=sigma)
    slot = np.arange(letter.size) - np.repeat(np.cumsum(counts) - counts, counts)
    initial, final = np.isin(source, list(auto.initial)), np.isin(target, list(auto.final))
    slots = np.full((3, counts.max(initial=1), sigma), n, dtype=np.uint8)
    slots[:, slot, letter] = source, target, np.where(letter < n**3, initial, final)
    return slots


def _square_cells(n: int, slots: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """The cells (x1, x2) of the square table of the n-state automaton whose
    :func:`_letter_slots` are ``slots``."""
    sa, da, fa = np.take(slots, x1, axis=2)
    sb, db, fb = np.take(slots[:, :, n**3 :], x2, axis=2)
    fired = fa == 1
    for dst, src in ((da, sb), (db, sa), (da, sb)):
        fired = [reduce(np.logical_or, [f & (d == s) for f, d in zip(fired, dst)]) for s in src]
    return reduce(np.logical_or, [f & (d == 1) for f, d in zip(fired, fb)])


def check_symmetric(auto: Nfa) -> Nfa:
    """``auto``, an automaton over the witness alphabet, if every permutation
    of its states >= 6, with the letters relabelled to match, maps its
    relation, initial and final states onto themselves, as the orbit checks
    assume; checked on the generators (6 7) and (6 7 ... n-1), none at n = 6
    and 7.  Otherwise :class:`VerificationError` names the permutation.  An
    alphabet of other than 2n^3 letters is refused first, with ``ValueError``.
    Every call checks; building a :class:`_Grid` makes one."""
    n, sigma = _witness_n(auto, "check_symmetric"), len(auto.alphabet)
    codec = TripleCodec(n)
    keys = auto.transitions.keys
    source, letter, target = auto.transitions.unpack()
    kind, q, r = codec.split(letter)  # kind is p on a-letters and n + p on b-letters
    names = ("(6 7)", f"({' '.join(map(str, range(6, n)))})")
    perms = (np.r_[0:6, 7, 6, 8:n], np.r_[0:6, 7:n, 6])
    for name, perm in zip(names, perms) if n > 7 else ():
        relabel = codec.join(np.r_[perm, n + perm][kind], perm[q], perm[r])
        mapped = np.sort(pack(perm[source], relabel, perm[target], n, sigma))
        fixed = [frozenset(perm[list(s)].tolist()) for s in (auto.initial, auto.final)]
        if not np.array_equal(mapped, keys) or fixed != [auto.initial, auto.final]:
            raise VerificationError(f"the automaton is not fixed by the permutation {name}")
    return auto


class _Grid(namedtuple("_Grid", "auto slots x1 x2 table")):
    """What the orbit checks of one automaton read, each built once, all
    read-only: ``auto``, an automaton over the witness alphabet that passed
    :func:`check_symmetric`, its :func:`_letter_slots`, the orbit pair
    ``x1, x2`` of :func:`orbit_cells`, and the square ``table`` of ``auto``
    on that pair, the cells :func:`witness_square_table` gives."""

    __slots__ = ()

    def __new__(cls, auto: Nfa):
        n = check_symmetric(auto).n_states
        slots = _letter_slots(auto)
        x1, x2 = orbit_cells(n)
        table = _square_cells(n, slots, x1, x2)
        slots.flags.writeable = table.flags.writeable = False
        return super().__new__(cls, auto, slots, x1, x2, table)


def _case_conditions(p1, q1, r1, p2, q2, r2, l1, m2) -> list[np.ndarray]:
    """The seven acceptance conditions of a_X1 b_X2, in case order, as
    boolean arrays over the cells given by the coordinates and the two
    pivots l1 = pivot_l(p1) and m2 = pivot_m(p2)."""
    return [
        (p1 == p2) & (p1 <= 2) & (r1 == r2) & (r1 == q2),
        (p1 <= 2) & (p2 == l1) & (r1 == q2) & (q1 == r2),
        (p1 == p2) & (q1 == q2) & (r1 == r2),
        (p1 == p2) & (p1 >= 3) & (p1 <= 5) & (r1 == q1) & (q1 == q2),
        (p2 == l1) & (q1 == q2) & (q2 == r2),
        (p1 == m2) & (q1 == r1) & (r1 == r2),
        (p1 == m2) & (r1 == q2) & (q1 == r2) & (p2 >= 3) & (p2 <= 5),
    ]


def _case_ids(p1, q1, r1, p2, q2, r2) -> np.ndarray:
    """Lowest satisfied case id (1..7) per cell of the coordinate arrays, 0
    when none holds: what :func:`case_table` computes after splitting its
    cells, and the orbit checks of :mod:`sqrtnfa.cases` on the canonical
    tuples."""
    conds = _case_conditions(p1, q1, r1, p2, q2, r2, _PIVOT_L[p1], _PIVOT_M[p2])
    ids = [np.uint8(k) for k in range(1, len(conds) + 1)]
    return np.select(conds, ids, default=np.uint8(0))


def case_table(n: int, x1, x2, budget: int | None = None) -> np.ndarray:
    """Lowest satisfied case id (1..7) per letter pair, 0 when none holds.

    ``x1`` and ``x2`` select and charge cells as in :func:`witness_square_table`.
    """
    x1, x2 = _flat_cells(n, x1, x2, "case_table", budget)
    split = TripleCodec(n).split
    return _case_ids(*split(x1), *split(x2))
