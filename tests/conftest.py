from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from sqrtnfa import Nfa, RandomSpec, random_nfa, sqrt_nfa, witness
from sqrtnfa import cases
from sqrtnfa.cases import CASE_COUNT, case_holds
from sqrtnfa.kernels import _case_conditions, _triple_cells
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


def iter_words(sigma, max_len):
    """All words of length <= max_len in length-lexicographic order: the
    reference for the rank order of every acceptance table."""
    level = [()]
    yield ()
    for _ in range(max_len):
        level = [w + (a,) for w in level for a in range(sigma)]
        yield from level


def any_case(x1, x2, n):
    """Lowest case number that holds for the pair, or None: the scalar
    scan over ``case_holds`` that the case table must equal."""
    for case in range(1, CASE_COUNT + 1):
        if case_holds(case, x1, x2, n):
            return case
    return None


@st.composite
def nfas(draw, sigma=None):
    """Random automata: at most 5 states, 3 letters and 12 triples."""
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


def first_pair(hit, n):
    """Row-major first True cell of a whole n^3 x n^3 table, as a pair of
    triples: the reference answer of every witness-table check."""
    if not hit.any():
        return None
    return tuple(
        (x // (n * n), (x // n) % n, x % n) for x in divmod(int(np.argmax(hit)), n**3)
    )


def _mutant(drop=None, identity_l=False):
    """A damaged ``case_table``: case ``drop`` never holds, or the left
    pivot is the identity map (l1 = p1).  Built from the same seven
    conditions as the real table, so each mutant differs from it only by
    its one damage."""

    def case_table(n, x1=None, x2=None):
        (p1, q1, r1), (p2, q2, r2) = _triple_cells(n, x1, x2, "case_table")
        l1 = p1 if identity_l else _PIVOT_L[p1]
        conds = _case_conditions(p1, q1, r1, p2, q2, r2, l1, _PIVOT_M[p2])
        kept = [(c, np.uint8(k)) for k, c in enumerate(conds, start=1) if k != drop]
        return np.select([c for c, _ in kept], [k for _, k in kept], default=np.uint8(0))

    return case_table


# the mutation tests of the case checks: each one must be caught
MUTANTS = {f"drop_case={k}": _mutant(drop=k) for k in range(1, 8)}
MUTANTS["identity_l=True"] = _mutant(identity_l=True)


@contextmanager
def mutant(name):
    """``sqrtnfa.cases.case_table``, the table ``verify_cases`` and
    ``pairwise_contradiction`` read, replaced by ``MUTANTS[name]``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cases, "case_table", MUTANTS[name])
        yield MUTANTS[name]
