"""Case analysis for two-letter words over the witness alphabet.

A word a_X1 b_X2 belongs to the square root of the witness language
exactly when one of seven structural conditions on the payload triples
holds.  This module states those conditions directly (scalar predicates)
and checks them exhaustively against the simulated truth table for all
n^6 payload pairs.
"""

from __future__ import annotations

import numpy as np

from .config import effective_budget
from .errors import BudgetExceededError
from .kernels import case_table, witness_square_table
from .witness import FINAL_BLOCK, INITIAL_BLOCK, MIN_STATES, pivot_l, pivot_m

Triple = tuple[int, int, int]

CASE_COUNT = 7


def _check_triple(x: Triple, n: int, name: str) -> None:
    if len(x) != 3 or not all(0 <= v < n for v in x):
        raise ValueError(f"{name}={x!r} is not a state triple for n={n}")


def _check_n(n: int) -> None:
    if n < MIN_STATES:
        raise ValueError(f"witness family needs at least {MIN_STATES} states, got {n}")


def case_holds(
    case: int,
    x1: Triple,
    x2: Triple,
    n: int,
    identity_l: bool = False,
) -> bool:
    """Whether one numbered acceptance condition holds for the payload pair.

    ``x1`` labels the a-letter and ``x2`` the b-letter of the word
    a_X1 b_X2.  Conditions mention the left pivot of p1 and the middle
    pivot of p2, and read "p1 = i" as p1 lying in the initial block
    (the run may start from any initial state).  ``identity_l`` swaps the
    left pivot for the identity map, a deliberate damage knob for tests,
    never used by the real check.
    """
    _check_n(n)
    _check_triple(x1, n, "x1")
    _check_triple(x2, n, "x2")
    p1, q1, r1 = x1
    p2, q2, r2 = x2
    l1 = p1 if identity_l else pivot_l(p1)
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
    if case == 7:
        return p1 == m2 and r1 == q2 and q1 == r2 and p2 in FINAL_BLOCK
    raise ValueError(f"case must be 1..{CASE_COUNT}, got {case}")


def any_case(
    x1: Triple,
    x2: Triple,
    n: int,
    drop_case: int | None = None,
    identity_l: bool = False,
) -> int | None:
    """Lowest case number that holds for the pair, or None."""
    for case in range(1, CASE_COUNT + 1):
        if case == drop_case:
            continue
        if case_holds(case, x1, x2, n, identity_l=identity_l):
            return case
    return None


def _flat_to_triple(index: int, n: int) -> Triple:
    index, r = divmod(index, n)
    p, q = divmod(index, n)
    return (p, q, r)


def verify_cases(
    n: int,
    drop_case: int | None = None,
    identity_l: bool = False,
    budget: int | None = None,
) -> tuple[Triple, Triple] | None:
    """Compare the case predicates with the simulated truth on all n^6 pairs.

    Returns None when every pair agrees, otherwise the lexicographically
    first (X1, X2) where the predicates and the simulation disagree.  With
    the damage knobs (``drop_case``, ``identity_l``) a counterexample is
    the expected outcome; without them, None is.
    """
    _check_n(n)
    budget = effective_budget(budget)
    if n**6 > budget:
        raise BudgetExceededError("case verification pairs", n**6, budget)
    truth = witness_square_table(n)
    claimed = case_table(n, drop_case=drop_case or 0, identity_l=identity_l)
    mismatch = truth != (claimed != 0)
    if not mismatch.any():
        return None
    flat = int(np.argmax(mismatch))  # row-major argmax = lex-first pair
    x1, x2 = divmod(flat, n**3)
    return (_flat_to_triple(x1, n), _flat_to_triple(x2, n))


def pairwise_contradiction(
    n: int,
    identity_l: bool = False,
    budget: int | None = None,
) -> tuple[Triple, Triple] | None:
    """Search for distinct payloads X3 != X4 where a_X3 b_X4 and a_X4 b_X3
    both satisfy some case.

    None means no such pair exists, which is what makes the fooling-set
    argument work: any two distinct pairs cross in at least one rejected
    word.  This re-derives condition 2 from the predicates alone, with no
    automaton simulation involved.  ``identity_l`` damages the pivot so
    tests can see the search actually bites.
    """
    _check_n(n)
    budget = effective_budget(budget)
    if n**6 > budget:
        raise BudgetExceededError("pairwise contradiction pairs", n**6, budget)
    table = case_table(n, identity_l=identity_l)
    hit = (table != 0) & (table.T != 0)
    np.fill_diagonal(hit, False)
    if not hit.any():
        return None
    flat = int(np.argmax(hit))
    x3, x4 = divmod(flat, n**3)
    return (_flat_to_triple(x3, n), _flat_to_triple(x4, n))
