"""The witness family's membership tables as numpy arrays.

The square truth table (:func:`witness_square_table`) runs the automaton
it is given, and the case table is cell algebra on the payload
coordinates, split by :meth:`~sqrtnfa.sqrt.TripleCodec.split` off the
orbit pair.  Each reads only the cells its two index arrays select.

The checks built on them (:func:`first_orbit_hit`) read the n^3 x n^3
grid on one cell per symmetry orbit.  States 6..n-1 of the witness are
interchangeable: a permutation of them, with the letters relabelled to
match, maps ``witness(n)`` onto itself, which :func:`check_symmetric`
checks at run time, so the square table is constant on every orbit.  The
case table reads a coordinate of (p1,q1,r1,p2,q2,r2) only through
equalities between coordinates, tests against constants <= 5, and the
pivot maps, which are constant on the states >= 6; so it is too.  The
orbits are listed by their canonical tuples (:func:`orbit_cells`):
163,967 for every n >= 12, instead of n^6 cells (2,985,984 at n = 12).
The canonical tuple is the least cell of its orbit and the list is in
lexicographic order, so the first representative that hits is the
row-major first cell that hits, and no check reads more than the
representatives.

A report builds each of these once.  :func:`orbit_cells` caches
the last list it built, two read-only arrays built from row-contiguous
coordinates; :func:`witness_square_table` keeps the last automaton's table
on exactly those two arrays, so ``verify_cases`` reads the table
``certify_lower_bound`` computed; and :func:`check_symmetric` keeps the last
automaton it passed.  Each is keyed on the identity of immutable or
read-only inputs and holds one of them, so every call returns what a fresh
one would.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache, reduce
from typing import Callable

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


@cache
def _canonical_tuples() -> tuple[np.ndarray, np.ndarray]:
    """Every canonical 6-tuple (p1,q1,r1,p2,q2,r2), as six uint8 rows in
    lexicographic order, and the number of generic values in each.

    Values 0..5 stand for themselves; the generic values (states >= 6)
    appear as 6, 7, ... in order of first appearance.  A tuple's next
    value is one of the 6 constants, a generic value it already uses, or
    the next new one, so the list grows one coordinate at a time.
    """
    rows: list[np.ndarray] = []
    generic = np.zeros(1, dtype=np.uint8)
    for _ in range(6):
        choices = MIN_STATES + 1 + generic.astype(np.int64)
        parent = np.repeat(np.arange(generic.size), choices)
        starts = np.repeat(np.cumsum(choices) - choices, choices)
        value = (np.arange(parent.size) - starts).astype(np.uint8)
        generic = generic[parent]
        generic += value == MIN_STATES + generic
        # one contiguous row per coordinate, stacked once at the end: a
        # column-major array would make every later row read strided
        rows = [row[parent] for row in rows] + [value]
    return np.stack(rows), generic


def orbit_count(n: int) -> int:
    """How many cells :func:`orbit_cells` lists, so how many a check on
    them reads: n^6 at n = 6 and 7, at most 163,967 above."""
    check_witness_n(n)
    return int(np.count_nonzero(_canonical_tuples()[1] <= n - MIN_STATES))


def _orbit_tuples(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical tuples :func:`orbit_cells` joins, and their generics."""
    columns, generic = _canonical_tuples()
    keep = generic <= n - MIN_STATES
    if keep.all():
        return columns, generic
    return columns.compress(keep, axis=1), generic[keep]


@lru_cache(maxsize=1)
def orbit_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (x1, x2) of one cell per orbit of the n^3 x n^3 grid
    under the permutations of the states >= 6: the canonical tuples that
    use at most n - 6 generic values.  The two arrays are read-only, and
    the last pair built is cached, so the checks of one report share it,
    and :func:`witness_square_table` keeps its table on this very pair.

    The list audits itself on every build: an orbit with k generic values
    has (n-6)(n-7)...(n-5-k) cells, and the orbits must cover exactly n^6
    cells, else :class:`VerificationError`.
    """
    check_witness_n(n)
    columns, generic = _orbit_tuples(n)
    counts = np.bincount(generic, minlength=7).tolist()
    cells = sum(c * math.perm(n - MIN_STATES, k) for k, c in enumerate(counts))
    if cells != n**6:
        raise VerificationError(
            f"the orbits of the {n}-state witness cover {cells} cells, not {n**6}"
        )
    join = TripleCodec(n).join
    p1, q1, r1, p2, q2, r2 = columns.astype(_CELL)
    x1, x2 = join(p1, q1, r1), join(p2, q2, r2)
    x1.flags.writeable = x2.flags.writeable = False
    return x1, x2


def first_orbit_hit(
    n: int, hit: Callable[[np.ndarray, np.ndarray], np.ndarray], upper: bool = False
) -> tuple[int, int] | None:
    """Row-major first cell (x1, x2) of the witness grid of n^3 flat
    triples where ``hit`` holds, or None; ``upper`` asks for x1 != x2
    and a hit at (x2, x1) too.

    ``hit(x1, x2)`` maps two arrays of flat indices to a boolean array and
    must be constant on every orbit (see the module docstring).  It is
    evaluated once, on :func:`orbit_cells` (with ``upper``, then on the
    mirrors of the cells that hit), and the first representative that
    hits is the answer, for two reasons:

    1. the representatives come in lexicographic order, and each canonical
       tuple is the lexicographically least cell of its orbit (the first
       appearance of a new generic value takes the least one unused), so
       the first hitting representative is the first hitting cell;
    2. with ``upper`` the test is symmetric: a hit (x2, x1) below the
       diagonal mirrors the smaller hit (x1, x2) above it, so the first
       off-diagonal hit has x1 < x2.
    """
    x1, x2 = orbit_cells(n)
    found = hit(x1, x2)
    if upper:
        found = found & (x1 != x2)
        both = np.flatnonzero(found)
        found[both] = hit(x2[both], x1[both])
    if not found.any():
        return None
    k = int(np.argmax(found))
    return int(x1[k]), int(x2[k])


def _triple_cells(n: int, x1, x2, table: str, budget: int | None):
    """Coordinates (p, q, r) of two checked arrays of flat triple indices,
    read off the canonical tuples on the orbit pair."""
    x1, x2 = _flat_cells(n, x1, x2, table, budget)
    if _is_orbit_pair(n, x1, x2):
        columns = _orbit_tuples(n)[0]
        return [columns[:3], columns[3:]]
    return [TripleCodec(n).split(x) for x in (x1, x2)]


def _flat_cells(n: int, x1, x2, table: str, budget: int | None) -> list[np.ndarray]:
    """Two broadcastable arrays of flat triple indices (p*n + q)*n + r in
    0..n^3-1, checked, as uint16; the cells they select are charged as
    ``<table> cells``."""
    check_witness_n(n)
    cells = []
    for x in map(np.asarray, (x1, x2)):
        if x.dtype.kind not in "iu":
            raise ValueError(f"{table}: flat triple indices must be integers, got {x.dtype}")
        if x.size and (x.min() < 0 or x.max() >= n**3):
            bad = x.min() if x.min() < 0 else x.max()
            raise ValueError(
                f"{table}: flat triple index {bad} out of range 0..{n**3 - 1} for n={n}"
            )
        cells.append(x.astype(_CELL, copy=False))
    charge(f"{table} cells", np.broadcast(*cells).size, budget)
    return cells


# The last automaton witness_square_table read, with its letter slots and,
# once asked for, its table on the orbit pair: (auto, slots, (x1, x2, table)
# or None).  A call on another automaton replaces it.
_last_square: tuple = (None, None, None)


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
    when a slot that fires on its last letter has a final target.

    The slots of the last automaton read are kept, and so is its table on
    the pair :func:`orbit_cells` holds, when ``x1`` and ``x2`` are those two
    arrays themselves: the next call with the same automaton object and the
    same two arrays returns that table, read-only, so the checks of one
    report compute it once (both are immutable, see the module docstring);
    every other call, a mirror or the diagonal among them, computes its table."""
    global _last_square
    n, sigma = auto.n_states, 2 * auto.n_states**3
    check_witness_n(n)
    if len(auto.alphabet) != sigma:
        raise ValueError(f"witness_square_table: {len(auto.alphabet)} letters, not {sigma}")
    x1, x2 = _flat_cells(n, x1, x2, "witness_square_table", budget)
    last, slots, kept = _last_square
    if last is not auto:
        slots, kept = _letter_slots(auto), None
        _last_square = (auto, slots, None)
    if kept is not None and kept[0] is x1 and kept[1] is x2:
        return kept[2]
    table = _square_cells(n, slots, x1, x2)
    if _is_orbit_pair(n, x1, x2):
        table.flags.writeable = False
        _last_square = (auto, slots, (x1, x2, table))
    return table


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


def _is_orbit_pair(n: int, x1: np.ndarray, x2: np.ndarray) -> bool:
    """Whether ``x1`` and ``x2`` are the two arrays ``orbit_cells(n)`` holds;
    only read-only arrays of its length are looked up, so no other call
    builds a list."""
    if x1.flags.writeable or x2.flags.writeable or x1.shape != (orbit_count(n),):
        return False
    rows, cols = orbit_cells(n)
    return x1 is rows and x2 is cols


# the last automaton check_symmetric passed
_last_symmetric: Nfa | None = None


def check_symmetric(auto: Nfa) -> Nfa:
    """``auto``, an automaton over the witness alphabet, if every permutation
    of its states >= 6, with the letters relabelled to match, maps its
    relation, initial and final states onto themselves, as the orbit checks
    assume; checked on the generators (6 7) and (6 7 ... n-1), none at n = 6
    and 7.  Otherwise :class:`VerificationError` names the permutation.

    The last automaton object that passed is kept, and the same object
    passes again without the check: it is immutable, so the check would
    pass again."""
    global _last_symmetric
    if auto is _last_symmetric:
        return auto
    n, sigma = auto.n_states, len(auto.alphabet)
    check_witness_n(n)
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
    _last_symmetric = auto
    return auto


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


def case_table(n: int, x1, x2, budget: int | None = None) -> np.ndarray:
    """Lowest satisfied case id (1..7) per letter pair, 0 when none holds.

    ``x1`` and ``x2`` select and charge cells as in :func:`witness_square_table`.
    """
    (p1, q1, r1), (p2, q2, r2) = _triple_cells(n, x1, x2, "case_table", budget)
    conds = _case_conditions(p1, q1, r1, p2, q2, r2, _PIVOT_L[p1], _PIVOT_M[p2])
    ids = [np.uint8(k) for k in range(1, len(conds) + 1)]
    return np.select(conds, ids, default=np.uint8(0))
