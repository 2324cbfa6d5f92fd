"""Hard instance family for the square-root operation.

For n >= 6 this builds an n-state NFA over the structured alphabet
{a[p,q,r], b[p,q,r] : 0 <= p,q,r < n} whose square-root language cannot be
recognized by any NFA with fewer than n^3 states.  Initial states are
{0,1,2} and final states {3,4,5}; the transitions of each letter are
steered by two pivot maps that send any state into the initial block
(``pivot_l``) or the final block (``pivot_m``) while avoiding fixed points
and 2-cycles.  Payloads are numbered as cube states, by ``TripleCodec``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, starmap
from operator import add

import numpy as np

from .config import check_int
from .nfa import Nfa
from .sqrt import TripleCodec

INITIAL_BLOCK = frozenset({0, 1, 2})
FINAL_BLOCK = frozenset({3, 4, 5})

MIN_STATES = 6
MAX_STATES = 32  # 2*n^3 letters; 32 keeps the alphabet under 66k names


def check_witness_n(n: int) -> None:
    """Raise ValueError unless the witness family is defined and supported
    at n: it needs disjoint 3-state initial and final blocks, and its
    alphabet (and every n^3 table over it) is capped at MAX_STATES."""
    check_int(n, "witness family n")
    if n < MIN_STATES:
        raise ValueError(
            f"witness family needs n >= {MIN_STATES} "
            f"(disjoint initial block {{0,1,2}} and final block {{3,4,5}}), got {n}"
        )
    if n > MAX_STATES:
        raise ValueError(
            f"witness family supports at most {MAX_STATES} states "
            f"(witness({n}) would have {2 * n**3} letters), got {n}"
        )


def pivot_l(p: int) -> int:
    """Redirect into the initial block: 0 -> 1, 1 -> 2, everything else -> 0.

    Never a fixed point, and p = pivot_l(p') together with p' = pivot_l(p)
    is unsatisfiable; the lower-bound contradiction leans on both facts.
    """
    return {0: 1, 1: 2}.get(check_int(p, "state", 0), 0)


def pivot_m(p: int) -> int:
    """Redirect into the final block: 3 -> 4, 4 -> 5, everything else -> 3."""
    return {3: 4, 4: 5}.get(check_int(p, "state", 0), 3)


# the pivot maps as lookup arrays, indexed by arrays of states
_PIVOT_L = np.array([pivot_l(p) for p in range(MAX_STATES)], dtype=np.uint16)
_PIVOT_M = np.array([pivot_m(p) for p in range(MAX_STATES)], dtype=np.uint16)


def witness_alphabet(n: int) -> tuple[str, ...]:
    """Canonical alphabet order: all a-letters by lexicographic payload,
    then all b-letters.  The flat payload index of (p,q,r) is p*n^2+q*n+r,
    so letter indices are reproducible across runs and languages.

    The name of letter (kind, p, q, r) is ``f"{kind}[{p},{q},{r}]"``,
    built as a head ``f"{kind}[{p},{q},"`` and a tail ``f"{r}]"`` joined
    by one concatenation: 2n^2 heads and n tails are formatted, not 2n^3
    names.

    Raises ValueError outside 6 <= n <= 32 (see :func:`check_witness_n`).
    """
    check_witness_n(n)
    heads = [f"{kind}[{p},{q}," for kind, p, q in product("ab", range(n), range(n))]
    tails = [f"{r}]" for r in range(n)]
    return tuple(starmap(add, product(heads, tails)))


@lru_cache(maxsize=1)
def witness(n: int) -> Nfa:
    """The n-state automaton whose square root needs n^3 NFA states.

    Per payload X = (p,q,r): letter a[X] carries exactly the transitions
    pivot_l(p) -> q and p -> r; letter b[X] carries exactly q -> p and
    r -> pivot_m(p).  All other entries of the transition relation are
    empty on purpose: runs must die outside the two listed sources.

    The relation is built as one array over the flat payload indices X;
    the automaton is immutable, and the last one built is cached, so the
    cube and the certificate of one report read the same automaton.

    Raises ValueError outside 6 <= n <= 32 (see :func:`check_witness_n`).
    """
    check_witness_n(n)
    x = np.arange(n**3)
    p, q, r = TripleCodec(n).split(x)
    a, b = x, n**3 + x
    relation = np.stack(
        [
            np.concatenate([_PIVOT_L[p], p, q, r]),
            np.concatenate([a, a, b, b]),
            np.concatenate([q, r, p, _PIVOT_M[p]]),
        ],
        axis=1,
    )
    return Nfa(
        n_states=n,
        alphabet=witness_alphabet(n),
        initial=INITIAL_BLOCK,
        final=FINAL_BLOCK,
        transitions=relation,
    )
