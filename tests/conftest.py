from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from sqrtnfa import (
    BudgetExceededError, Dfa, Nfa, RandomSpec, TripleCodec, member, random_nfa, reach,
    sqrt_nfa, witness,
)
from sqrtnfa import cases, fooling, kernels
from sqrtnfa.cases import CASE_COUNT, case_holds
from sqrtnfa.kernels import _case_conditions
from sqrtnfa.witness import _PIVOT_L, _PIVOT_M


@pytest.fixture(scope="session")
def witness6() -> Nfa:
    return witness(6)


@pytest.fixture(scope="session")
def cube6(witness6) -> Nfa:
    return sqrt_nfa(witness6)


@pytest.fixture(scope="session")
def small_random():
    """Deterministic pool of small automata for oracle cross-checks."""
    return [
        random_nfa(RandomSpec(seed=200 + i, max_states=4, alphabet_size=3))
        for i in range(200)
    ]


def random_word(rng: np.random.Generator, sigma: int, max_len: int) -> tuple[int, ...]:
    length = int(rng.integers(0, max_len + 1))
    return tuple(int(rng.integers(0, sigma)) for _ in range(length))


def make_nfa(n, sigma, triples, initial, final):
    return Nfa(
        n_states=n,
        alphabet=tuple(f"l{i}" for i in range(sigma)),
        initial=frozenset(initial),
        final=frozenset(final),
        transitions=tuple(triples),
    )


NFA_AA = make_nfa(3, 1, [(0, 0, 1), (1, 0, 2)], {0}, {2})


def triples(nfa):
    """The automaton's (source, letter, target) triples, sorted, as a
    tuple of int tuples."""
    return tuple(map(tuple, nfa.transitions.array.tolist()))


def reachable_triples(nfa, word):
    """Which (p, q, r) states of the cube automaton are live after
    ``word``, found by running the built cube: the reference for the
    per-coordinate characterization q in reach(initial, w) and r in
    reach({p}, w)."""
    cube = sqrt_nfa(nfa)
    codec = TripleCodec(nfa.n_states)
    return {codec.decode(i) for i in reach(cube, cube.initial, word)}


def with_transitions(auto, extra):
    """``auto`` with the (source, letter, target) triples ``extra`` added."""
    relation = np.unique(np.vstack([auto.transitions.array, extra]), axis=0)
    return Nfa(auto.n_states, auto.alphabet, auto.initial, auto.final, relation)


def doctored_witness(n, skip=()):
    """``witness(n)`` with ``s -b[0,0,0]-> 3`` and ``s -a[1,0,0]-> 0`` added
    for every state s not in ``skip``.  On it, a[0,0,0] b[1,0,0] and
    a[1,0,0] b[0,0,0] both square into the language, so the canonical set
    fails condition 2 at pairs (1, n^2 + 1)."""
    auto = witness(n)
    b000, a100 = auto.letter_index("b[0,0,0]"), auto.letter_index("a[1,0,0]")
    sources = [s for s in range(n) if s not in skip]
    extra = [(s, letter, t) for s in sources for letter, t in ((b000, 3), (a100, 0))]
    return with_transitions(auto, extra)


def iter_words(sigma, max_len):
    """All words of length <= max_len in length-lexicographic order: the
    reference for the rank order of every acceptance table."""
    level = [()]
    yield ()
    for _ in range(max_len):
        level = [w + (a,) for w in level for a in range(sigma)]
        yield from level


def first_disagreement(a, b, max_len):
    """The first word of length <= max_len, in :func:`iter_words` order, on
    which ``member`` tells two automata over one alphabet apart, or None."""
    words = iter_words(len(a.alphabet), max_len)
    return next((w for w in words if member(a, w) != member(b, w)), None)


def any_case(x1, x2, n):
    """Lowest case number that holds for the pair, or None: the scalar
    scan over ``case_holds`` that the case table must equal."""
    for case in range(1, CASE_COUNT + 1):
        if case_holds(case, x1, x2, n):
            return case
    return None


def tuple_sqrt_dfa(dfa: Dfa) -> Dfa:
    """The function automaton with each map a tuple, composed one entry at
    a time and numbered breadth first in letter order: the reference for
    ``sqrt_dfa``, whose maps are byte strings."""
    columns = list(zip(*dfa.transitions))
    start = tuple(range(dfa.n_states))
    ids, maps, rows = {start: 0}, [start], []
    for f in maps:  # grows while it is read: breadth first
        row = []
        for column in columns:
            g = tuple(column[q] for q in f)
            row.append(ids.setdefault(g, len(ids)))
            if len(ids) > len(maps):
                maps.append(g)
        rows.append(tuple(row))
    final = frozenset(i for i, f in enumerate(maps) if f[f[dfa.initial]] in dfa.final)
    return Dfa(len(maps), dfa.alphabet, 0, final, tuple(rows))


def reference_explore(start, successors, budget, what, stop=None):
    """Breadth-first numbering level by level, in two passes per node: the
    node's successors are numbered first, then the first sights among them
    are appended (and judged by ``stop``) in id order.  The reference for
    ``nfa.explore``, with the same ``(nodes, rows)``, the same refusal
    ``BudgetExceededError(what, budget + 1, budget)``, and, when ``stop``
    ends the walk, a last row cut after the stop node's id."""
    ids, nodes, rows = {start: 0}, [start], []
    if stop is not None and stop(start):
        return nodes, rows
    frontier = [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            kids = list(successors(node))
            row = [ids.setdefault(kid, len(ids)) for kid in kids]
            for k, (i, kid) in enumerate(zip(row, kids)):
                if i == len(nodes):
                    if i == budget:
                        raise BudgetExceededError(what, budget + 1, budget)
                    nodes.append(kid)
                    next_frontier.append(kid)
                    if stop is not None and stop(kid):
                        rows.append(row[: k + 1])
                        return nodes, rows
            rows.append(row)
        frontier = next_frontier
    return nodes, rows


@st.composite
def nfas(draw, sigma=None, n=None):
    """Random automata: at most 5 states, 3 letters and 12 triples."""
    if n is None:
        n = draw(st.integers(1, 5))
    if sigma is None:
        sigma = draw(st.integers(1, 3))
    triples = draw(
        st.sets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, sigma - 1), st.integers(0, n - 1)
            ),
            max_size=12,
        )
    )
    initial = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    final = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return make_nfa(n, sigma, sorted(triples), initial, final)


def reference_canonical_tuples():
    """Every canonical 6-tuple, grown one coordinate at a time over the
    whole list: the reference for ``kernels._canonical_tuples``, which
    builds the same six uint8 rows and generic counts in blocks.  A next
    value is one of the 6 constants, a generic value the tuple already
    uses, or the next new one."""
    rows = []
    generic = np.zeros(1, dtype=np.uint8)
    for _ in range(6):
        choices = 7 + generic.astype(np.int64)
        parent = np.repeat(np.arange(generic.size), choices)
        starts = np.repeat(np.cumsum(choices) - choices, choices)
        value = (np.arange(parent.size) - starts).astype(np.uint8)
        generic = generic[parent]
        generic += value == 6 + generic
        rows = [row[parent] for row in rows] + [value]
    return np.stack(rows), generic


def orbit_mask(n, cell, x1, x2):
    """Which cells (x1, x2) of the witness grid lie in the orbit of ``cell``
    = (p1,q1,r1,p2,q2,r2) under the permutations of the states >= 6: the
    same constants 0..5 in the same places, and the same pattern of equal
    coordinates."""
    x1, x2 = np.asarray(x1), np.asarray(x2)
    ys = [c for x in (x1, x2) for c in (x // (n * n), (x // n) % n, x % n)]
    mask = np.ones(np.broadcast(x1, x2).shape, dtype=np.bool_)
    for y, c in zip(ys, cell):
        mask &= (y == c) if c < 6 else (y >= 6)
    for i in range(6):
        for k in range(i + 1, 6):
            mask &= (ys[i] == ys[k]) == (cell[i] == cell[k])
    return mask


def grid(n):
    """Index arrays (x1, x2) of the whole n^3 x n^3 witness grid."""
    return np.arange(n**3)[:, None], np.arange(n**3)[None, :]


def first_pair(hit, n):
    """Row-major first True cell of a whole n^3 x n^3 table, as a pair of
    triples: the reference answer of every witness-table check."""
    if not hit.any():
        return None
    return tuple(
        (x // (n * n), (x // n) % n, x % n) for x in divmod(int(np.argmax(hit)), n**3)
    )


def _mutant(drop=None, identity_l=False):
    """A damaged ``kernels._case_ids``: case ``drop`` never holds, or the
    left pivot is the identity map (l1 = p1).  Built from the same seven
    conditions as the real case ids, so each mutant differs from them only
    by its one damage."""

    def case_ids(p1, q1, r1, p2, q2, r2):
        l1 = p1 if identity_l else _PIVOT_L[p1]
        conds = _case_conditions(p1, q1, r1, p2, q2, r2, l1, _PIVOT_M[p2])
        kept = [(c, np.uint8(k)) for k, c in enumerate(conds, start=1) if k != drop]
        return np.select([c for c, _ in kept], [k for _, k in kept], default=np.uint8(0))

    return case_ids


# the mutation tests of the case checks: each one must be caught
MUTANTS = {f"drop_case={k}": _mutant(drop=k) for k in range(1, 8)}
MUTANTS["identity_l=True"] = _mutant(identity_l=True)


@contextmanager
def mutant(name):
    """The case ids ``case_table``, ``verify_cases`` and
    ``pairwise_contradiction`` read replaced by ``MUTANTS[name]``, in each
    module that looks them up; yields ``case_table``, which then reads them."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (kernels, cases):
            patch.setattr(module, "_case_ids", MUTANTS[name])
        yield kernels.case_table


def damage_square_cells(monkeypatch, square_cells):
    """``kernels._square_cells``, the one function that computes square
    table cells, replaced by ``square_cells`` in each module that looks it
    up: a grid built after this holds the damaged table, the certificate's
    mirror reads it, and so does ``witness_square_table``."""
    for module in (kernels, fooling):
        monkeypatch.setattr(module, "_square_cells", square_cells)
