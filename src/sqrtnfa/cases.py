"""Case analysis for two-letter words over the witness alphabet.

A word a_X1 b_X2 belongs to the square root of the witness language
exactly when one of seven structural conditions on the payload triples
holds.  This module states those conditions directly (scalar predicates)
and checks their table form against the closed-form square truth table
for all n^6 payload pairs.  Both checks are one call of
:func:`~sqrtnfa.kernels.first_orbit_hit`, which reads one cell per
symmetry orbit (see :mod:`sqrtnfa.kernels`), and the budget is charged
for the cells read.
"""

from __future__ import annotations

from .config import charge, check_int
from .kernels import case_table, first_orbit_hit, orbit_count, witness_square_table
from .sqrt import TripleCodec
from .witness import FINAL_BLOCK, INITIAL_BLOCK, check_witness_n, pivot_l, pivot_m

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
    """Compare the case table with the square truth table on all n^6 pairs.

    Both sides are closed forms: :func:`~sqrtnfa.kernels.case_table` and
    :func:`~sqrtnfa.kernels.witness_square_table`.  The square truth table
    meets the automaton elsewhere: :func:`~sqrtnfa.fooling.certify_lower_bound`
    compares its diagonal with ``member`` on ``witness(n)``, and the tests
    compare it with ``member`` on sampled and whole grids.

    Returns None when every pair agrees, otherwise the lexicographically
    first (X1, X2) where the two tables disagree.  The budget caps the
    cells read, one per orbit: n^6 at n = 6 and 7, at most 163,967 above.
    """
    charge("case verification pairs", orbit_count(n), budget)

    def mismatch(rows, cols):
        truth = witness_square_table(n, rows, cols)
        return truth != (case_table(n, rows, cols) != 0)

    cell = first_orbit_hit(n, mismatch)
    return None if cell is None else tuple(map(TripleCodec(n).decode, cell))


def pairwise_contradiction(n: int, budget: int | None = None) -> tuple[Triple, Triple] | None:
    """Search for distinct payloads X3 != X4 where a_X3 b_X4 and a_X4 b_X3
    both satisfy some case.

    None means no such pair exists, which is what makes the fooling-set
    argument work: any two distinct pairs cross in at least one rejected
    word.  This re-derives condition 2 from the predicates alone, with no
    automaton simulation involved.  Crossing is symmetric, so the first
    pair has X3 < X4.  The budget caps the cells read, as in
    :func:`verify_cases`.
    """
    charge("pairwise contradiction pairs", orbit_count(n), budget)

    def crossing(rows, cols):
        return (case_table(n, rows, cols) != 0) & (case_table(n, cols, rows) != 0)

    cell = first_orbit_hit(n, crossing, upper=True)
    return None if cell is None else tuple(map(TripleCodec(n).decode, cell))
