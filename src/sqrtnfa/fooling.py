"""Executable fooling-set certificates for NFA state lower bounds.

A fooling set for a language L is a list of word pairs (x_i, y_i) such
that every x_i y_i lands in L (condition 1) while for any two distinct
indices at least one cross concatenation x_i y_j or x_j y_i falls outside
L (condition 2).  Any NFA for L then needs at least as many states as the
set has pairs, because distinct pairs cannot share a mid-word state.

:func:`verify_fooling` is deliberately plain Python over a membership
oracle; it is the audit reference for any candidate set.
:func:`certify_lower_bound` checks the canonical witness set faster: it
reads both conditions off the square truth table of the witness automaton
on one cell per symmetry orbit, which the automaton's
:class:`~sqrtnfa.kernels._Grid` holds (see :mod:`sqrtnfa.kernels`):
condition 1 on its diagonal cells, also asked of the scalar oracle, and 2
against its mirror where it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import charge, check_int
from .errors import VerificationError
from .kernels import _Grid, _first_hit, _square_cells
from .nfa import Word, member
from .witness import check_witness_n, witness

Oracle = Callable[[Word], bool]


@dataclass(frozen=True)
class FoolingSet:
    """Ordered list of distinct (x, y) word pairs over letter indices."""

    pairs: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        pairs = tuple((tuple(x), tuple(y)) for x, y in self.pairs)
        if len(set(pairs)) != len(pairs):
            raise ValueError("fooling set pairs must be distinct")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Violation:
    """Why a candidate set failed: which condition and which pair(s).

    Indices are 1-based to match how the pairs are listed in reports and
    input files.  ``j`` is meaningful only for condition 2.
    """

    kind: str  # "cond1" or "cond2"
    i: int
    j: int | None = None

    def __post_init__(self):
        if self.kind not in ("cond1", "cond2"):
            raise ValueError(f"unknown violation kind {self.kind!r}")
        if (self.kind == "cond2") != (self.j is not None):
            raise ValueError("condition 2 violations name two pairs, condition 1 one")
        object.__setattr__(self, "i", check_int(self.i, "violation index i", 1))
        if self.j is not None:
            object.__setattr__(self, "j", check_int(self.j, "violation index j", self.i + 1))


@dataclass(frozen=True)
class FoolingReport:
    """Outcome of verifying a candidate fooling set.

    ``bound`` is the certified NFA state lower bound: the set size when
    certified, 0 otherwise.  ``cond1_checked`` counts membership pairs and
    ``cond2_checked`` counts unordered index pairs examined before success
    or the first violation.
    """

    certified: bool
    bound: int
    violation: Violation | None = None
    cond1_checked: int = 0
    cond2_checked: int = 0


def verify_fooling(candidate: FoolingSet, oracle: Oracle) -> FoolingReport:
    """Check both fooling conditions against a membership oracle.

    Condition 1 runs first over all pairs in order; condition 2 then walks
    unordered index pairs (i, j), i < j, in lexicographic order and stops
    at the first pair where both cross words are inside the language.
    Cross words are tested lazily: x_j y_i is only consulted when x_i y_j
    is already in.

    Doctored example: against a square-membership oracle on the 6-state
    witness automaton, the candidate

        {(a[0,1,1], b[0,1,1]), (a[0,1,1], b[0,2,2])}

    fails condition 1 at its second pair, because a[0,1,1] b[0,2,2]
    repeated twice never reaches a final state.  The verdict is
    ``Violation("cond1", 2)``.
    """
    pairs = candidate.pairs
    for i, (x, y) in enumerate(pairs, start=1):
        if not oracle(x + y):
            return FoolingReport(
                certified=False,
                bound=0,
                violation=Violation("cond1", i),
                cond1_checked=i,
            )
    cond2 = 0
    for i in range(len(pairs)):
        xi, yi = pairs[i]
        for j in range(i + 1, len(pairs)):
            xj, yj = pairs[j]
            cond2 += 1
            if oracle(xi + yj) and oracle(xj + yi):
                return FoolingReport(
                    certified=False,
                    bound=0,
                    violation=Violation("cond2", i + 1, j + 1),
                    cond1_checked=len(pairs),
                    cond2_checked=cond2,
                )
    return FoolingReport(
        certified=True,
        bound=len(pairs),
        violation=None,
        cond1_checked=len(pairs),
        cond2_checked=cond2,
    )


def _witness_pair(cube: int, flat: int) -> tuple[Word, Word]:
    """Pair ``flat`` of the canonical set, (a_X, b_X) for the payload X
    numbered ``flat``: single-letter words of witness alphabet indices,
    whose ``cube`` = n^3 a-letters come first."""
    return (flat,), (cube + flat,)


def witness_fooling_set(n: int) -> FoolingSet:
    """The n^3-pair set {(a_X, b_X)} over all payload triples X, in flat
    triple order, as single-letter words of witness alphabet indices."""
    check_witness_n(n)
    cube = n**3
    return FoolingSet(tuple(_witness_pair(cube, flat) for flat in range(cube)))


@lru_cache(maxsize=1)
def _witness_grid(n: int) -> _Grid:
    """The :class:`~sqrtnfa.kernels._Grid` of ``witness(n)``; the last one
    built is cached, so the certificate and the case check of one report
    read one grid."""
    _witness_grid.cache_clear()  # the last grid is freed before this one is built
    return _Grid(witness(n))


def certify_lower_bound(n: int, budget: int | None = None) -> FoolingReport:
    """Certify that the square root of the witness language needs n^3 NFA
    states, with the same report :func:`verify_fooling` gives for the
    canonical set under the square-membership oracle of ``witness(n)``.

    The budget is charged before the automaton's grid is built; the
    certificate is :func:`_certify` on that grid."""
    check_witness_n(n)
    charge("fooling set pairs", n**3, budget)
    return _certify(_witness_grid(n), budget)


def _certify(grid: _Grid, budget: int | None = None) -> FoolingReport:
    """:func:`certify_lower_bound` for the automaton of ``grid``, which
    passed :func:`~sqrtnfa.kernels.check_symmetric`, charging its n^3 pairs
    to ``budget``.

    Its square truth table T[i, j] = (a_Xi b_Xj)^2 in L is the grid's, on
    the orbit representatives.  Condition 1 reads its diagonal cells, each
    also asked of the oracle: a disagreement raises :class:`VerificationError`.
    Condition 2 for i < j is T[i, j] & T[j, i]: the mirror T[j, i] is
    computed only where T holds off the diagonal."""
    auto, slots, rows, cols, table = grid
    n = auto.n_states
    m = n**3
    charge("fooling set pairs", m, budget)
    on_diagonal = rows == cols
    diagonal, inside = rows[on_diagonal], table[on_diagonal]
    # only the pairs read here are built: the whole set is n^3 of them
    pairs = [_witness_pair(m, i) for i in diagonal.tolist()]
    scalar = [member(auto, 2 * (x + y)) for x, y in pairs]
    mismatch = diagonal[inside != scalar]
    if mismatch.size:
        raise VerificationError(
            f"square table disagrees with the witness automaton at pair {mismatch[0] + 1}"
        )
    if not inside.all():
        i = int(diagonal[np.argmin(inside)]) + 1
        return FoolingReport(
            certified=False, bound=0, violation=Violation("cond1", i), cond1_checked=i
        )

    clash = table & ~on_diagonal
    both = np.flatnonzero(clash)
    clash[both] = _square_cells(n, slots, cols[both], rows[both])
    k = _first_hit(clash)
    if k is None:
        return FoolingReport(
            certified=True, bound=m, cond1_checked=m, cond2_checked=m * (m - 1) // 2
        )
    i, j = int(rows[k]), int(cols[k])
    return FoolingReport(
        certified=False, bound=0, violation=Violation("cond2", i + 1, j + 1),
        cond1_checked=m, cond2_checked=i * m - i * (i + 1) // 2 + (j - i),
    )
