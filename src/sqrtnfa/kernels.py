"""The witness family's membership tables as numpy array algebra.

The witness tables (the square truth table and the case table) are cell
algebra on broadcastable arrays of flat triple indices.  The checks built
on them scan the n^3 x n^3 grid through one driver, :func:`first_hit`,
in row strips of at most 2^22 cells, so no n^6 array is built; called
without index arrays, a table is built whole, within the budget.  Each
table is cross-checked in the test suite against an independent scalar
route: simulation by ``member`` and the case predicates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .config import effective_budget
from .errors import BudgetExceededError
from .witness import MAX_STATES, check_witness_n, pivot_l, pivot_m

# there is no numba lane; benchmark run records still read this flag
NUMBA_AVAILABLE = False


# pivot maps as lookup arrays, indexed by arrays of states
_PIVOT_L = np.array([pivot_l(p) for p in range(MAX_STATES)], dtype=np.int64)
_PIVOT_M = np.array([pivot_m(p) for p in range(MAX_STATES)], dtype=np.int64)


def _row_block(per_row: int) -> int:
    # bound scratch arrays to ~4M entries regardless of n
    return max(1, (1 << 22) // max(per_row, 1))


def first_hit(
    m: int, hit: Callable[[np.ndarray, np.ndarray], np.ndarray], upper: bool = False
) -> tuple[int, int] | None:
    """Row-major first cell (i, j) of the m x m grid where ``hit`` holds, or None.

    ``hit(rows, cols)`` maps a column and a row of flat indices to the
    boolean strip they span.  Strips of whole rows stay within the block
    bound, so no m x m array is built.  ``upper`` scans only j > i.
    """
    idx = np.arange(m, dtype=np.int64)
    i0 = 0
    while i0 < m:
        j0 = i0 if upper else 0
        i1 = min(i0 + _row_block(m - j0), m)
        rows, cols = idx[i0:i1, None], idx[None, j0:]
        strip = hit(rows, cols)
        if upper:
            strip = strip & (cols > rows)
        if strip.any():
            r, c = divmod(int(np.argmax(strip)), m - j0)
            return i0 + r, j0 + c
        i0 = i1
    return None


def _triple_cells(n: int, x1, x2, table: str):
    """Coordinates (p, q, r) of two broadcastable arrays of flat triple
    indices (p*n + q)*n + r; both omitted stand for the whole n^3 x n^3
    grid, whose n^6 cells must fit the budget."""
    check_witness_n(n)
    if x1 is None and x2 is None:
        budget = effective_budget()
        if n**6 > budget:
            raise BudgetExceededError(f"{table} cells", n**6, budget)
        x1 = np.arange(n**3, dtype=np.int64)[:, None]
        x2 = x1.T
    elif x1 is None or x2 is None:
        raise ValueError("give both index arrays x1 and x2, or neither")
    x1, x2 = np.asarray(x1, dtype=np.int64), np.asarray(x2, dtype=np.int64)
    return [(x // (n * n), (x // n) % n, x % n) for x in (x1, x2)]


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


def case_table(
    n: int, drop_case: int = 0, identity_l: bool = False, x1=None, x2=None
) -> np.ndarray:
    """Lowest satisfied case id (1..7) per letter pair, 0 when none holds.

    ``x1`` and ``x2`` select cells as in :func:`witness_square_table`.
    ``drop_case`` removes one case from consideration and ``identity_l``
    replaces the left pivot with the identity map; both exist to let tests
    confirm that damaged predicates are caught against the simulated truth.
    """
    if not 0 <= drop_case <= 7:
        raise ValueError(f"drop_case must be 0..7, got {drop_case}")
    (p1, q1, r1), (p2, q2, r2) = _triple_cells(n, x1, x2, "case_table")
    l1 = p1 if identity_l else _PIVOT_L[p1]
    m2 = _PIVOT_M[p2]
    conds = [
        (p1 == p2) & (p1 <= 2) & (r1 == r2) & (r1 == q2),
        (p1 <= 2) & (p2 == l1) & (r1 == q2) & (q1 == r2),
        (p1 == p2) & (q1 == q2) & (r1 == r2),
        (p1 == p2) & (p1 >= 3) & (p1 <= 5) & (r1 == q1) & (q1 == q2),
        (p2 == l1) & (q1 == q2) & (q2 == r2),
        (p1 == m2) & (q1 == r1) & (r1 == r2),
        (p1 == m2) & (r1 == q2) & (q1 == r2) & (p2 >= 3) & (p2 <= 5),
    ]
    pairs = [
        (cond, np.uint8(k)) for k, cond in enumerate(conds, start=1) if k != drop_case
    ]
    return np.select([c for c, _ in pairs], [v for _, v in pairs], default=np.uint8(0))
