"""The witness family's membership tables as numpy array algebra.

The witness tables (the square truth table and the case table) are cell
algebra on broadcastable arrays of flat triple indices.  Each table is
cross-checked in the test suite against an independent scalar route:
simulation by ``member`` and the case predicates.  Called without index
arrays, a table is built whole, within the budget.

The checks built on them (:func:`first_orbit_hit`) read the n^3 x n^3
grid on one cell per symmetry orbit.  States 6..n-1 of the witness are
interchangeable: a permutation of them, with the letters relabelled to
match, maps ``witness(n)`` onto itself.  Both tables read a coordinate of
(p1,q1,r1,p2,q2,r2) only through equalities between coordinates, tests
against constants <= 5, and the pivot maps, which are constant on the
states >= 6; so a cell's value, and a check's hit, depends only on the
cell's orbit.  The orbits are listed by their canonical tuples
(:func:`orbit_cells`): 163,967 for every n >= 12, instead of n^6 cells
(2,985,984 at n = 12).  The canonical tuple is the least cell of its
orbit and the list is in lexicographic order, so the first representative
that hits is the row-major first cell that hits, and no check reads more
than the representatives.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .config import charge
from .errors import VerificationError
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
    columns = np.zeros((0, 1), dtype=np.uint8)
    generic = np.zeros(1, dtype=np.uint8)
    for _ in range(6):
        choices = MIN_STATES + 1 + generic.astype(np.int64)
        parent = np.repeat(np.arange(generic.size), choices)
        starts = np.repeat(np.cumsum(choices) - choices, choices)
        value = (np.arange(parent.size) - starts).astype(np.uint8)
        generic = generic[parent]
        generic += value == MIN_STATES + generic
        columns = np.vstack([columns[:, parent], value])
    return columns, generic


def orbit_count(n: int) -> int:
    """How many cells :func:`orbit_cells` lists, so how many a check on
    them reads: n^6 at n = 6 and 7, at most 163,967 above."""
    check_witness_n(n)
    return int(np.count_nonzero(_canonical_tuples()[1] <= n - MIN_STATES))


@lru_cache(maxsize=1)
def orbit_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (x1, x2) of one cell per orbit of the n^3 x n^3 grid
    under the permutations of the states >= 6: the canonical tuples that
    use at most n - 6 generic values.  The two arrays are read-only, and
    the last pair built is cached, so the checks of one report share it.

    The list audits itself on every build: an orbit with k generic values
    has (n-6)(n-7)...(n-5-k) cells, and the orbits must cover exactly n^6
    cells, else :class:`VerificationError`.
    """
    check_witness_n(n)
    columns, generic = _canonical_tuples()
    keep = generic <= n - MIN_STATES
    columns = columns[:, keep]
    counts = np.bincount(generic[keep], minlength=7).tolist()
    cells = sum(c * math.perm(n - MIN_STATES, k) for k, c in enumerate(counts))
    if cells != n**6:
        raise VerificationError(
            f"the orbits of the {n}-state witness cover {cells} cells, not {n**6}"
        )
    p1, q1, r1, p2, q2, r2 = columns
    x1, x2 = ((p.astype(_CELL) * n + q) * n + r for p, q, r in ((p1, q1, r1), (p2, q2, r2)))
    x1.flags.writeable = x2.flags.writeable = False
    return x1, x2


def first_orbit_hit(
    n: int, hit: Callable[[np.ndarray, np.ndarray], np.ndarray], upper: bool = False
) -> tuple[int, int] | None:
    """Row-major first cell (x1, x2) of the witness grid of n^3 flat
    triples where ``hit`` holds, or None; ``upper`` keeps only x1 != x2.

    ``hit(x1, x2)`` maps two arrays of flat indices to a boolean array and
    must be constant on every orbit (see the module docstring).  It is
    evaluated once, on :func:`orbit_cells`, and the first representative
    that hits is the answer, for two reasons:

    1. the representatives come in lexicographic order, and each canonical
       tuple is the lexicographically least cell of its orbit (the first
       appearance of a new generic value takes the least one unused), so
       the first hitting representative is the first hitting cell;
    2. with ``upper``, ``hit`` must also be symmetric in its two
       arguments: a hit (x2, x1) below the diagonal mirrors the smaller
       hit (x1, x2) above it, so the first off-diagonal hit has x1 < x2.
    """
    x1, x2 = orbit_cells(n)
    found = hit(x1, x2)
    if upper:
        found = found & (x1 != x2)
    if not found.any():
        return None
    k = int(np.argmax(found))
    return int(x1[k]), int(x2[k])


def _triple_cells(n: int, x1, x2, table: str):
    """Coordinates (p, q, r) of two broadcastable arrays of flat triple
    indices (p*n + q)*n + r in 0..n^3-1; both omitted stand for the whole
    n^3 x n^3 grid, whose n^6 cells must fit the budget."""
    check_witness_n(n)
    if x1 is None and x2 is None:
        charge(f"{table} cells", n**6)
        x1 = np.arange(n**3, dtype=_CELL)[:, None]
        x2 = x1.T
    elif x1 is None or x2 is None:
        raise ValueError("give both index arrays x1 and x2, or neither")
    cells = []
    for x in map(np.asarray, (x1, x2)):
        if x.dtype.kind not in "iu":
            raise ValueError(f"{table}: flat triple indices must be integers, got {x.dtype}")
        if x.size and (x.min() < 0 or x.max() >= n**3):
            bad = x.min() if x.min() < 0 else x.max()
            raise ValueError(
                f"{table}: flat triple index {bad} out of range 0..{n**3 - 1} for n={n}"
            )
        pq, r = np.divmod(x.astype(_CELL, copy=False), _CELL(n))
        cells.append((*np.divmod(pq, _CELL(n)), r))
    return cells


def witness_square_table(n: int, x1=None, x2=None) -> np.ndarray:
    """Boolean table T[x1, x2] = the word a_X1 b_X2 squares into the witness
    language (6 <= n <= 32).  Triples are flat-indexed as (p*n + q)*n + r.

    ``x1`` and ``x2`` are broadcastable arrays of flat indices and select
    the cells returned; omitted, the whole n^3 x n^3 table is built.  It
    tracks, letter by letter, the only states each letter can produce
    while reading (a_X1 b_X2)^2.
    """
    (p1, q1, r1), (p2, q2, r2) = _triple_cells(n, x1, x2, "witness_square_table")
    l1 = _PIVOT_L[p1]
    m2 = _PIVOT_M[p2]
    # membership flags for the only states each letter can produce:
    # after a_X1 the set is within {q1, r1}, after b_X2 within {p2, m2}
    has_q1 = l1 <= 2
    has_r1 = p1 <= 2
    has_p2 = (has_q1 & (q2 == q1)) | (has_r1 & (q2 == r1))
    has_m2 = (has_q1 & (r2 == q1)) | (has_r1 & (r2 == r1))
    has_q1 = (has_p2 & (l1 == p2)) | (has_m2 & (l1 == m2))
    has_r1 = (has_p2 & (p1 == p2)) | (has_m2 & (p1 == m2))
    has_p2 = (has_q1 & (q2 == q1)) | (has_r1 & (q2 == r1))
    has_m2 = (has_q1 & (r2 == q1)) | (has_r1 & (r2 == r1))
    return (has_p2 & (p2 >= 3) & (p2 <= 5)) | (has_m2 & (m2 >= 3) & (m2 <= 5))


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


def case_table(n: int, x1=None, x2=None) -> np.ndarray:
    """Lowest satisfied case id (1..7) per letter pair, 0 when none holds.

    ``x1`` and ``x2`` select cells as in :func:`witness_square_table`.
    """
    (p1, q1, r1), (p2, q2, r2) = _triple_cells(n, x1, x2, "case_table")
    conds = _case_conditions(p1, q1, r1, p2, q2, r2, _PIVOT_L[p1], _PIVOT_M[p2])
    ids = [np.uint8(k) for k in range(1, len(conds) + 1)]
    return np.select(conds, ids, default=np.uint8(0))
