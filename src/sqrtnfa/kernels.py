"""Vectorized membership tables as numpy boolean array algebra.

The witness tables (the square truth table and the case table) are
computed on flat triple indices in row strips of bounded size; the accept
tables walk the word tree level by level with per-letter 0/1 relation
matrices.  Each table is cross-checked in the test suite against an
independent scalar route: ``member``, the case predicates, and the
function-automaton DFA.

Accept tables refuse automata with more than 64 states (the cube of a
4-state automaton fits exactly) with a ``ValueError``.
"""

from __future__ import annotations

import numpy as np

from .nfa import Dfa, Nfa
from .words import count_words

# there is no numba lane; benchmark run records still read this flag
NUMBA_AVAILABLE = False

MAX_ACCEPT_STATES = 64


def _letter_relations(nfa: Nfa) -> np.ndarray:
    """Per-letter adjacency matrices as 0/1 uint8, shape (sigma, n, n)."""
    rel = np.zeros((len(nfa.alphabet), nfa.n_states, nfa.n_states), dtype=np.uint8)
    for src, letter, dst in nfa.transitions:
        rel[letter, src, dst] = 1
    return rel


def _decode(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates (p, q, r) of flat triple indices (p*n + q)*n + r."""
    return idx // (n * n), (idx // n) % n, idx % n


def _decode_all(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates (p, q, r) of every flat triple index 0..n^3-1."""
    return _decode(np.arange(n**3, dtype=np.int64), n)


def _pivots(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    left = np.where(p == 0, 1, np.where(p == 1, 2, 0))
    mid = np.where(p == 3, 4, np.where(p == 4, 5, 3))
    return left, mid


def _check_witness_n(n: int) -> None:
    if n < 6:
        raise ValueError(f"witness family needs at least 6 states, got {n}")
    if n > 32:
        raise ValueError(f"witness tables support at most 32 states, got {n}")


def _row_block(per_row: int) -> int:
    # bound scratch arrays to ~4M entries regardless of n
    return max(1, (1 << 22) // max(per_row, 1))


def witness_square_cells(n: int, x1, x2) -> np.ndarray:
    """Entries T[x1, x2] of :func:`witness_square_table` (n >= 6) for
    broadcastable arrays of flat triple indices, without materializing the
    whole table.

    It tracks, letter by letter, the only states each letter can produce
    while reading (a_X1 b_X2)^2.
    """
    p1, q1, r1 = _decode(np.asarray(x1, dtype=np.int64), n)
    p2, q2, r2 = _decode(np.asarray(x2, dtype=np.int64), n)
    l1 = _pivots(p1)[0]
    m2 = _pivots(p2)[1]
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


def _check_accept_args(nfa: Nfa, max_len: int) -> int:
    """Validate an accept-table request; return the number of words."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    total = count_words(len(nfa.alphabet), max_len)
    if nfa.n_states > MAX_ACCEPT_STATES:
        raise ValueError(
            f"accept tables support at most {MAX_ACCEPT_STATES} states, got {nfa.n_states}"
        )
    return total


def witness_square_table(n: int) -> np.ndarray:
    """Boolean table T[x1, x2] = the word a_X1 b_X2 squares into the witness
    language, computed by simulating the witness automaton on all four
    letters of (a_X1 b_X2)^2.  Triples are flat-indexed as (p*n + q)*n + r.
    """
    _check_witness_n(n)
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
    _check_witness_n(n)
    if not 0 <= drop_case <= 7:
        raise ValueError(f"drop_case must be 0..7, got {drop_case}")
    m = n**3
    p, q, r = _decode_all(n)
    left, mid = _pivots(p)
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
    order (see :mod:`sqrtnfa.words`).  The whole word tree is materialized
    level by level, so sigma**max_len must be affordable.
    """
    total = _check_accept_args(nfa, max_len)
    n = nfa.n_states
    sigma = len(nfa.alphabet)
    rel = _letter_relations(nfa)
    fin = np.zeros(n, dtype=np.bool_)
    fin[list(nfa.final)] = True
    cur = np.zeros((1, n), dtype=np.uint8)
    cur[0, list(nfa.initial)] = 1

    out = np.zeros(total, dtype=np.bool_)
    out[0] = bool((cur[0].astype(np.bool_) & fin).any())
    pos = 1
    for _ in range(max_len):
        nxt = np.empty((cur.shape[0] * sigma, n), dtype=np.uint8)
        for a in range(sigma):
            # child of word i on letter a sits at level index i*sigma + a
            nxt[a::sigma] = (cur @ rel[a]) > 0
        out[pos : pos + nxt.shape[0]] = (nxt.astype(np.bool_) & fin).any(axis=1)
        pos += nxt.shape[0]
        cur = nxt
    return out


def square_accept_table(nfa: Nfa, max_len: int) -> np.ndarray:
    """Acceptance flag for ww, for every w of length <= max_len, rank order.

    This is the direct square-membership route: it never builds the cube
    automaton, instead tracking the full per-word reachability relation and
    applying it twice.
    """
    total = _check_accept_args(nfa, max_len)
    n = nfa.n_states
    sigma = len(nfa.alphabet)
    rel = _letter_relations(nfa)
    fin = np.zeros(n, dtype=np.bool_)
    fin[list(nfa.final)] = True
    init = np.zeros(n, dtype=np.uint8)
    init[list(nfa.initial)] = 1

    out = np.zeros(total, dtype=np.bool_)
    out[0] = bool((init.astype(np.bool_) & fin).any())
    # cur[i] is the 0/1 reachability matrix of the i-th word of the level
    cur = np.eye(n, dtype=np.uint8)[None, :, :]
    pos = 1
    for _ in range(max_len):
        nxt = np.empty((cur.shape[0] * sigma, n, n), dtype=np.uint8)
        for a in range(sigma):
            nxt[a::sigma] = (cur @ rel[a]) > 0
        half = (np.matmul(init, nxt) > 0).astype(np.uint8)
        full = np.matmul(half[:, None, :], nxt)[:, 0, :] > 0
        out[pos : pos + nxt.shape[0]] = (full & fin).any(axis=1)
        pos += nxt.shape[0]
        cur = nxt
    return out


def dfa_accept_table(dfa: Dfa, max_len: int) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len on a DFA.

    Plain vectorized table walk, fancy indexing per level.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    sigma = len(dfa.alphabet)
    total = count_words(sigma, max_len)
    trans = np.asarray(dfa.transitions, dtype=np.int64)
    fin = np.zeros(dfa.n_states, dtype=np.bool_)
    fin[list(dfa.final)] = True

    out = np.zeros(total, dtype=np.bool_)
    cur = np.array([dfa.initial], dtype=np.int64)
    out[0] = fin[cur[0]]
    pos = 1
    for _ in range(max_len):
        cur = trans[cur].reshape(-1)
        out[pos : pos + cur.size] = fin[cur]
        pos += cur.size
    return out
