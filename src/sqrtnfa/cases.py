"""Case analysis for two-letter words over the witness alphabet.

A word a_X1 b_X2 belongs to the square root of the witness language
exactly when one of seven structural conditions on the payload triples
holds.  This module states those conditions directly (scalar predicates)
and checks their table form against the square truth table of the witness
automaton for all n^6 payload pairs.  Both checks read one cell per
symmetry orbit (see :mod:`sqrtnfa.kernels`): the case ids on the canonical
tuples, and the budget is charged for the cells read.
"""

from __future__ import annotations

import numpy as np

from .config import charge, check_int
from .fooling import _witness_grid
from .kernels import _Grid, _case_ids, _first_hit, _orbit_tuples, orbit_count
from .witness import FINAL_BLOCK, INITIAL_BLOCK, check_witness_n, pivot_l, pivot_m

# unused here, but perfbench/tracing.py::PATCHES looks them up in this module
from .kernels import case_table, witness_square_table

Triple = tuple[int, int, int]

CASE_COUNT = 7


def case_holds(case: int, x1: Triple, x2: Triple, n: int) -> bool:
    """Whether one numbered acceptance condition holds for the payload pair.

    ``x1`` labels the a-letter and ``x2`` the b-letter of the word
    a_X1 b_X2.  Conditions mention the left pivot of p1 and the middle
    pivot of p2, and read "p1 = i" as p1 lying in the initial block
    (the run may start from any initial state).
    """
    check_witness_n(n)
    p1, q1, r1 = (check_int(v, "x1 entry", 0, n) for v in x1)
    p2, q2, r2 = (check_int(v, "x2 entry", 0, n) for v in x2)
    check_int(case, "case", 1, CASE_COUNT + 1)
    l1 = pivot_l(p1)
    m2 = pivot_m(p2)
    if case == 1:
        return p1 == p2 and p1 in INITIAL_BLOCK and r1 == r2 and r1 == q2
    if case == 2:
        return p1 in INITIAL_BLOCK and p2 == l1 and r1 == q2 and q1 == r2
    if case == 3:
        return p1 == p2 and q1 == q2 and r1 == r2
    if case == 4:
        return p1 == p2 and p1 in FINAL_BLOCK and r1 == q1 and q1 == q2
    if case == 5:
        return p2 == l1 and q1 == q2 and q2 == r2
    if case == 6:
        return p1 == m2 and q1 == r1 and r1 == r2
    # case 7
    return p1 == m2 and r1 == q2 and q1 == r2 and p2 in FINAL_BLOCK


def verify_cases(n: int, budget: int | None = None) -> tuple[Triple, Triple] | None:
    """Compare the case table with the square truth table of ``witness(n)``
    on all n^6 pairs: :func:`_verify_cases` on its grid, built after the
    budget is charged.

    Returns None when every pair agrees, otherwise the lexicographically
    first (X1, X2) where the two tables disagree.  The budget caps the
    cells read, one per orbit: n^6 at n = 6 and 7, at most 163,967 above.
    """
    charge("case verification pairs", orbit_count(n), budget)
    return _verify_cases(_witness_grid(n), budget)


def _verify_cases(grid: _Grid, budget: int | None = None) -> tuple[Triple, Triple] | None:
    """:func:`verify_cases` for the automaton of ``grid``: its square table
    on the orbit pair against the case ids of the canonical tuples the pair
    was joined from, charging the cells read to ``budget``."""
    charge("case verification pairs", grid.x1.size, budget)
    columns = _orbit_tuples(grid.auto.n_states)[0]
    return _payloads(columns, _first_hit(grid.table != (_case_ids(*columns) != 0)))


def pairwise_contradiction(n: int, budget: int | None = None) -> tuple[Triple, Triple] | None:
    """Search for distinct payloads X3 != X4 where a_X3 b_X4 and a_X4 b_X3
    both satisfy some case.

    None means no such pair exists, which is what makes the fooling-set
    argument work: any two distinct pairs cross in at least one rejected
    word.  This re-derives condition 2 from the predicates alone, with no
    automaton simulation involved.  Crossing is symmetric, so the first
    pair has X3 < X4, and a_X4 b_X3 is read only where a_X3 b_X4 holds.
    The budget caps the cells read, as in :func:`verify_cases`.
    """
    charge("pairwise contradiction pairs", orbit_count(n), budget)
    columns = _orbit_tuples(n)[0]
    x3, x4 = columns[:3], columns[3:]
    crossing = (_case_ids(*columns) != 0) & (x3 != x4).any(axis=0)
    both = np.flatnonzero(crossing)
    crossing[both] = _case_ids(*x4[:, both], *x3[:, both]) != 0
    return _payloads(columns, _first_hit(crossing))


def _payloads(columns, k: int | None) -> tuple[Triple, Triple] | None:
    """The payload pair (X1, X2) of canonical tuple ``k``, or None."""
    return None if k is None else (tuple(columns[:3, k].tolist()), tuple(columns[3:, k].tolist()))
