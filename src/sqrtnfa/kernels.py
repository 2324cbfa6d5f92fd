"""Vectorized membership tables with numba and pure-numpy lanes.

Every public function here takes a ``backend`` argument: ``"numba"`` picks
the JIT kernels, ``"numpy"`` the vectorized fallback, and ``None`` defers
to the ``SQRTNFA_NUMBA`` environment variable (unset means numba when it
is importable).  Both lanes compute the same tables through deliberately
different code paths, one as bitmask set simulation and one as boolean
array algebra, so they cross-check each other in the test suite.

Bitmask kernels pack state sets into single machine words, which caps
automata at 64 states; the cube of a 4-state automaton still fits exactly.
"""

from __future__ import annotations

import os

import numpy as np

from .config import NUMBA_ENV
from .nfa import Dfa, Nfa
from .words import count_words

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    NUMBA_AVAILABLE = False

_OFF_TOKENS = frozenset({"0", "false", "no", "off", "numpy"})
_ON_TOKENS = frozenset({"1", "true", "yes", "on", "numba"})

MAX_MASK_STATES = 64


def resolve_backend(backend: str | None = None) -> str:
    """Pick the compute lane: explicit argument beats the environment flag.

    An explicit ``"numba"`` request fails loudly when numba is missing;
    the environment default silently falls back to numpy instead.
    """
    if backend is not None:
        if backend not in ("numba", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "numba" and not NUMBA_AVAILABLE:
            raise RuntimeError("numba backend requested but numba is not importable")
        return backend
    raw = os.environ.get(NUMBA_ENV)
    if raw is not None and raw.strip():
        token = raw.strip().lower()
        if token in _OFF_TOKENS:
            return "numpy"
        if token in _ON_TOKENS:
            if not NUMBA_AVAILABLE:
                raise RuntimeError(
                    f"{NUMBA_ENV}={raw} requests numba but it is not importable"
                )
            return "numba"
        raise ValueError(f"unrecognized {NUMBA_ENV} value {raw!r}")
    return "numba" if NUMBA_AVAILABLE else "numpy"


def transition_masks(nfa: Nfa) -> np.ndarray:
    """Per-(letter, source) successor sets as uint64 bitmasks, shape (sigma, n)."""
    if nfa.n_states > MAX_MASK_STATES:
        raise ValueError(
            f"bitmask kernels support at most {MAX_MASK_STATES} states, got {nfa.n_states}"
        )
    masks = np.zeros((len(nfa.alphabet), nfa.n_states), dtype=np.uint64)
    for src, letter, dst in nfa.transitions:
        masks[letter, src] |= np.uint64(1) << np.uint64(dst)
    return masks


def _letter_relations(nfa: Nfa) -> np.ndarray:
    """Per-letter adjacency matrices as 0/1 uint8, shape (sigma, n, n)."""
    rel = np.zeros((len(nfa.alphabet), nfa.n_states, nfa.n_states), dtype=np.uint8)
    for src, letter, dst in nfa.transitions:
        rel[letter, src, dst] = 1
    return rel


def _state_mask(states, n: int) -> np.uint64:
    mask = np.uint64(0)
    for s in states:
        mask |= np.uint64(1) << np.uint64(s)
    return mask


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


if NUMBA_AVAILABLE:

    @njit(cache=True)
    def _witness_square_numba(n):  # pragma: no cover - measured via dispatch
        m = n * n * n
        one = np.uint64(1)
        out = np.zeros((m, m), dtype=np.bool_)
        start = np.uint64(0b111)  # states 0,1,2
        finals = np.uint64(0b111000)  # states 3,4,5
        for x1 in range(m):
            p1 = x1 // (n * n)
            q1 = (x1 // n) % n
            r1 = x1 % n
            if p1 == 0:
                l1 = 1
            elif p1 == 1:
                l1 = 2
            else:
                l1 = 0
            for x2 in range(m):
                p2 = x2 // (n * n)
                q2 = (x2 // n) % n
                r2 = x2 % n
                if p2 == 3:
                    m2 = 4
                elif p2 == 4:
                    m2 = 5
                else:
                    m2 = 3
                s = start
                # read the word (a_X1 b_X2) twice; each letter moves only
                # its own two labeled states
                for _ in range(2):
                    t = np.uint64(0)
                    if (s >> np.uint64(l1)) & one:
                        t |= one << np.uint64(q1)
                    if (s >> np.uint64(p1)) & one:
                        t |= one << np.uint64(r1)
                    s = np.uint64(0)
                    if (t >> np.uint64(q2)) & one:
                        s |= one << np.uint64(p2)
                    if (t >> np.uint64(r2)) & one:
                        s |= one << np.uint64(m2)
                out[x1, x2] = (s & finals) != 0
        return out

    @njit(cache=True)
    def _case_table_numba(n, drop_case, identity_l):  # pragma: no cover
        m = n * n * n
        out = np.zeros((m, m), dtype=np.uint8)
        for x1 in range(m):
            p1 = x1 // (n * n)
            q1 = (x1 // n) % n
            r1 = x1 % n
            if identity_l:
                l1 = p1
            elif p1 == 0:
                l1 = 1
            elif p1 == 1:
                l1 = 2
            else:
                l1 = 0
            for x2 in range(m):
                p2 = x2 // (n * n)
                q2 = (x2 // n) % n
                r2 = x2 % n
                if p2 == 3:
                    m2 = 4
                elif p2 == 4:
                    m2 = 5
                else:
                    m2 = 3
                c = 0
                if drop_case != 1 and p1 == p2 and p1 <= 2 and r1 == r2 and r1 == q2:
                    c = 1
                elif drop_case != 2 and p1 <= 2 and p2 == l1 and r1 == q2 and q1 == r2:
                    c = 2
                elif drop_case != 3 and p1 == p2 and q1 == q2 and r1 == r2:
                    c = 3
                elif (
                    drop_case != 4
                    and p1 == p2
                    and p1 >= 3
                    and p1 <= 5
                    and r1 == q1
                    and q1 == q2
                ):
                    c = 4
                elif drop_case != 5 and p2 == l1 and q1 == q2 and q2 == r2:
                    c = 5
                elif drop_case != 6 and p1 == m2 and q1 == r1 and r1 == r2:
                    c = 6
                elif (
                    drop_case != 7
                    and p1 == m2
                    and r1 == q2
                    and q1 == r2
                    and p2 >= 3
                    and p2 <= 5
                ):
                    c = 7
                out[x1, x2] = c
        return out

    @njit(cache=True)
    def _accept_table_numba(masks, n, start, finals, sigma, max_len, total):  # pragma: no cover
        one = np.uint64(1)
        out = np.zeros(total, dtype=np.bool_)
        out[0] = (start & finals) != 0
        cur = np.empty(1, dtype=np.uint64)
        cur[0] = start
        pos = 1
        for _ in range(max_len):
            nxt = np.empty(cur.size * sigma, dtype=np.uint64)
            for i in range(cur.size):
                mask = cur[i]
                for a in range(sigma):
                    nm = np.uint64(0)
                    for s in range(n):
                        if (mask >> np.uint64(s)) & one:
                            nm |= masks[a, s]
                    nxt[i * sigma + a] = nm
                    out[pos + i * sigma + a] = (nm & finals) != 0
            pos += nxt.size
            cur = nxt
        return out

    @njit(cache=True)
    def _square_accept_numba(masks, n, start, finals, sigma, max_len, total):  # pragma: no cover
        one = np.uint64(1)
        out = np.zeros(total, dtype=np.bool_)
        out[0] = (start & finals) != 0
        # cur[i, s] = states reachable from s after the i-th word of the level
        cur = np.empty((1, n), dtype=np.uint64)
        for s in range(n):
            cur[0, s] = one << np.uint64(s)
        pos = 1
        for _ in range(max_len):
            nxt = np.empty((cur.shape[0] * sigma, n), dtype=np.uint64)
            for i in range(cur.shape[0]):
                for a in range(sigma):
                    row = i * sigma + a
                    for s in range(n):
                        mask = cur[i, s]
                        nm = np.uint64(0)
                        for t in range(n):
                            if (mask >> np.uint64(t)) & one:
                                nm |= masks[a, t]
                        nxt[row, s] = nm
                    half = np.uint64(0)
                    for s in range(n):
                        if (start >> np.uint64(s)) & one:
                            half |= nxt[row, s]
                    full = np.uint64(0)
                    for t in range(n):
                        if (half >> np.uint64(t)) & one:
                            full |= nxt[row, t]
                    out[pos + row] = (full & finals) != 0
            pos += nxt.shape[0]
            cur = nxt
        return out


def witness_square_cells(n: int, x1, x2) -> np.ndarray:
    """Entries T[x1, x2] of :func:`witness_square_table` (n >= 6) for
    broadcastable arrays of flat triple indices, without materializing the
    whole table.

    This is the numpy lane's array algebra: it tracks, letter by letter,
    the only states each letter can produce while reading (a_X1 b_X2)^2.
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


def _witness_square_numpy(n: int) -> np.ndarray:
    m = n**3
    idx = np.arange(m, dtype=np.int64)
    out = np.empty((m, m), dtype=np.bool_)
    block = _row_block(m)
    for i0 in range(0, m, block):
        rows = slice(i0, min(i0 + block, m))
        out[rows] = witness_square_cells(n, idx[rows, None], idx[None, :])
    return out


def _case_table_numpy(n: int, drop_case: int, identity_l: bool) -> np.ndarray:
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


def _accept_table_numpy(nfa: Nfa, max_len: int, total: int) -> np.ndarray:
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


def _square_accept_numpy(nfa: Nfa, max_len: int, total: int) -> np.ndarray:
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


def witness_square_table(n: int, backend: str | None = None) -> np.ndarray:
    """Boolean table T[x1, x2] = the word a_X1 b_X2 squares into the witness
    language, computed by simulating the witness automaton on all four
    letters of (a_X1 b_X2)^2.  Triples are flat-indexed as (p*n + q)*n + r.
    """
    _check_witness_n(n)
    if resolve_backend(backend) == "numba":
        return _witness_square_numba(n)
    return _witness_square_numpy(n)


def case_table(
    n: int,
    drop_case: int = 0,
    identity_l: bool = False,
    backend: str | None = None,
) -> np.ndarray:
    """Lowest satisfied case id (1..7) per letter pair, 0 when none holds.

    ``drop_case`` removes one case from consideration and ``identity_l``
    replaces the left pivot with the identity map; both exist to let tests
    confirm that damaged predicates are caught against the simulated truth.
    """
    _check_witness_n(n)
    if not 0 <= drop_case <= 7:
        raise ValueError(f"drop_case must be 0..7, got {drop_case}")
    if resolve_backend(backend) == "numba":
        return _case_table_numba(n, drop_case, identity_l)
    return _case_table_numpy(n, drop_case, identity_l)


def accept_table(nfa: Nfa, max_len: int, backend: str | None = None) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len, rank order.

    Index k of the result corresponds to the k-th word in length-lex
    order (see :mod:`sqrtnfa.words`).  The whole word tree is materialized
    level by level, so sigma**max_len must be affordable.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    total = count_words(len(nfa.alphabet), max_len)
    if resolve_backend(backend) == "numba":
        masks = transition_masks(nfa)
        return _accept_table_numba(
            masks,
            nfa.n_states,
            _state_mask(nfa.initial, nfa.n_states),
            _state_mask(nfa.final, nfa.n_states),
            len(nfa.alphabet),
            max_len,
            total,
        )
    if nfa.n_states > MAX_MASK_STATES:
        raise ValueError(
            f"accept tables support at most {MAX_MASK_STATES} states, got {nfa.n_states}"
        )
    return _accept_table_numpy(nfa, max_len, total)


def square_accept_table(nfa: Nfa, max_len: int, backend: str | None = None) -> np.ndarray:
    """Acceptance flag for ww, for every w of length <= max_len, rank order.

    This is the direct square-membership route: it never builds the cube
    automaton, instead tracking the full per-word reachability relation and
    applying it twice.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    total = count_words(len(nfa.alphabet), max_len)
    if resolve_backend(backend) == "numba":
        masks = transition_masks(nfa)
        return _square_accept_numba(
            masks,
            nfa.n_states,
            _state_mask(nfa.initial, nfa.n_states),
            _state_mask(nfa.final, nfa.n_states),
            len(nfa.alphabet),
            max_len,
            total,
        )
    if nfa.n_states > MAX_MASK_STATES:
        raise ValueError(
            f"accept tables support at most {MAX_MASK_STATES} states, got {nfa.n_states}"
        )
    return _square_accept_numpy(nfa, max_len, total)


def dfa_accept_table(dfa: Dfa, max_len: int) -> np.ndarray:
    """Acceptance flag for every word of length <= max_len on a DFA.

    Plain vectorized table walk (fancy indexing per level); deterministic
    automata need no bitmask tricks, so there is a single lane.
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
