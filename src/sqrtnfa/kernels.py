"""Vectorized membership tables as numpy boolean array algebra.

The witness tables (the square truth table and the case table) are
computed on flat triple indices in row strips of bounded size; the accept
tables step the automaton's ``_succ`` masks through the one word-tree walk
of :func:`sqrtnfa.words.walk_word_tree`, which judges each distinct node
once.  Each table is cross-checked in the test suite against an
independent scalar route: ``member``, the case predicates, and the
function-automaton DFA.

Accept tables refuse automata with more than 64 states (the cube of a
4-state automaton fits exactly) with a ``ValueError``.  Nothing in the
walk can overflow, since state sets are Python ints; the cap stays so that
exit codes and the ``random-equiv --max-states 5`` refusal stay stable.
Lifting it is a change of its own.
"""

from __future__ import annotations

import numpy as np

from .nfa import Dfa, Nfa, _mask, _mask_step
from .witness import MAX_STATES, check_witness_n, pivot_l, pivot_m
from .words import walk_word_tree

# there is no numba lane; benchmark run records still read this flag
NUMBA_AVAILABLE = False

MAX_ACCEPT_STATES = 64


def _decode(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates (p, q, r) of flat triple indices (p*n + q)*n + r."""
    return idx // (n * n), (idx // n) % n, idx % n


def _decode_all(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates (p, q, r) of every flat triple index 0..n^3-1."""
    return _decode(np.arange(n**3, dtype=np.int64), n)


# pivot maps as lookup arrays, indexed by arrays of states
_PIVOT_L = np.array([pivot_l(p) for p in range(MAX_STATES)], dtype=np.int64)
_PIVOT_M = np.array([pivot_m(p) for p in range(MAX_STATES)], dtype=np.int64)


def _row_block(per_row: int) -> int:
    # bound scratch arrays to ~4M entries regardless of n
    return max(1, (1 << 22) // max(per_row, 1))


def witness_square_cells(n: int, x1, x2) -> np.ndarray:
    """Entries T[x1, x2] of :func:`witness_square_table` (6 <= n <= 32) for
    broadcastable arrays of flat triple indices, without materializing the
    whole table.

    It tracks, letter by letter, the only states each letter can produce
    while reading (a_X1 b_X2)^2.
    """
    check_witness_n(n)
    p1, q1, r1 = _decode(np.asarray(x1, dtype=np.int64), n)
    p2, q2, r2 = _decode(np.asarray(x2, dtype=np.int64), n)
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


def _check_accept_args(nfa: Nfa, max_len: int) -> None:
    """Validate an accept-table request."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    if nfa.n_states > MAX_ACCEPT_STATES:
        raise ValueError(
            f"accept tables support at most {MAX_ACCEPT_STATES} states, got {nfa.n_states}"
        )


def witness_square_table(n: int) -> np.ndarray:
    """Boolean table T[x1, x2] = the word a_X1 b_X2 squares into the witness
    language, computed by simulating the witness automaton on all four
    letters of (a_X1 b_X2)^2.  Triples are flat-indexed as (p*n + q)*n + r.
    """
    check_witness_n(n)
    m = n**3
    idx = np.arange(m, dtype=np.int64)
    out = np.empty((m, m), dtype=np.bool_)
    block = _row_block(m)
    for i0 in range(0, m, block):
        rows = slice(i0, min(i0 + block, m))
        out[rows] = witness_square_cells(n, idx[rows, None], idx[None, :])
    return out


def case_table(n: int, drop_case: int = 0, identity_l: bool = False) -> np.ndarray:
    """Lowest satisfied case id (1..7) per letter pair, 0 when none holds.

    ``drop_case`` removes one case from consideration and ``identity_l``
    replaces the left pivot with the identity map; both exist to let tests
    confirm that damaged predicates are caught against the simulated truth.
    """
    check_witness_n(n)
    if not 0 <= drop_case <= 7:
        raise ValueError(f"drop_case must be 0..7, got {drop_case}")
    m = n**3
    p, q, r = _decode_all(n)
    left, mid = _PIVOT_L[p], _PIVOT_M[p]
    if identity_l:
        left = p
    p2, q2, r2, m2 = p[None, :], q[None, :], r[None, :], mid[None, :]
    out = np.empty((m, m), dtype=np.uint8)
    block = _row_block(m)
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        rows = slice(i0, i1)
        p1, q1, r1 = p[rows, None], q[rows, None], r[rows, None]
        l1 = left[rows, None]
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
            (cond, np.uint8(k))
            for k, cond in enumerate(conds, start=1)
            if k != drop_case
        ]
        out[rows] = np.select(
            [c for c, _ in pairs], [v for _, v in pairs], default=np.uint8(0)
        )
    return out


def accept_table(nfa: Nfa, max_len: int) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len, rank order.

    Index k of the result corresponds to the k-th word in length-lex
    order (see :mod:`sqrtnfa.words`); a word's node is its reached state
    set as an int mask.
    """
    _check_accept_args(nfa, max_len)
    succ = nfa._succ
    fin = _mask(nfa.final)
    return walk_word_tree(
        _mask(nfa.initial),
        lambda m: [_mask_step(m, row) for row in succ],
        lambda m: m & fin,
        len(succ),
        max_len,
    )


def square_accept_table(nfa: Nfa, max_len: int) -> np.ndarray:
    """Acceptance flag for ww, for every w of length <= max_len, rank order.

    This is the direct square-membership route: it never builds the cube
    automaton.  A word's node is its relation, one successor mask per
    state, and ww is accepted when applying it twice to the initial set
    meets a final state.
    """
    _check_accept_args(nfa, max_len)
    succ = nfa._succ
    init = _mask(nfa.initial)
    fin = _mask(nfa.final)

    def accepting(rel: tuple[int, ...]) -> int:
        image = dict(enumerate(rel))
        return _mask_step(_mask_step(init, image), image) & fin

    return walk_word_tree(
        tuple(1 << s for s in range(nfa.n_states)),
        lambda rel: [tuple(_mask_step(m, row) for m in rel) for row in succ],
        accepting,
        len(succ),
        max_len,
    )


def dfa_accept_table(dfa: Dfa, max_len: int) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len on a DFA."""
    return walk_word_tree(
        dfa.initial,
        dfa.transitions.__getitem__,
        dfa.final.__contains__,
        len(dfa.alphabet),
        max_len,
    )
