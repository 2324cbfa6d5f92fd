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
(:func:`~sqrtnfa.kernels.witness_square_table`), one cell per symmetry
orbit (see :mod:`sqrtnfa.kernels`), computed once: condition 1 on its
diagonal cells, also asked of the scalar oracle, and 2 against its mirror
where it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import charge, check_int
from .errors import VerificationError
from .kernels import check_symmetric, first_orbit_hit, orbit_cells, witness_square_table
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


def certify_lower_bound(n: int, budget: int | None = None) -> FoolingReport:
    """Certify that the square root of the witness language needs n^3 NFA
    states, with the same report :func:`verify_fooling` gives for the
    canonical set under the square-membership oracle of ``witness(n)``.

    The automaton must pass :func:`~sqrtnfa.kernels.check_symmetric`.  Its
    square truth table T[i, j] = (a_Xi b_Xj)^2 in L is computed once, on the
    orbit representatives, and kept.  Condition 1 reads its diagonal cells,
    each also asked of the oracle: a disagreement raises :class:`VerificationError`.
    Condition 2 for i < j is T[i, j] & T[j, i], read by
    :func:`~sqrtnfa.kernels.first_orbit_hit` from the kept T and, where T
    holds, its mirror."""
    check_witness_n(n)
    m = n**3
    charge("fooling set pairs", m, budget)
    auto = check_symmetric(witness(n))
    rows, cols = orbit_cells(n)
    # the budget counts pairs; the table calls read at most one cell per orbit
    cells = rows.size
    # the table is kept, so clash below reads it again
    on_diagonal = rows == cols
    diagonal, inside = rows[on_diagonal], witness_square_table(auto, rows, cols, cells)[on_diagonal]
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

    hit = first_orbit_hit(
        n, lambda rows, cols: witness_square_table(auto, rows, cols, cells), upper=True
    )
    if hit is None:
        return FoolingReport(
            certified=True, bound=m, cond1_checked=m, cond2_checked=m * (m - 1) // 2
        )
    i, j = hit
    return FoolingReport(
        certified=False, bound=0, violation=Violation("cond2", i + 1, j + 1),
        cond1_checked=m, cond2_checked=i * m - i * (i + 1) // 2 + (j - i),
    )
