"""Symmetry reduction of the witness checks.

States 6..n-1 of ``witness(n)`` are interchangeable, so the square truth
table and the case table are constant on the orbits of the n^3 x n^3 grid
under their permutations.  These tests make that lemma executable, check
the orbit enumerator and the fact that each canonical tuple is the least
cell of its orbit, and check the one pass over the representatives
against an argmax over the whole tables.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtnfa import (
    Nfa,
    VerificationError,
    Violation,
    case_table,
    certify_lower_bound,
    pairwise_contradiction,
    verify_cases,
    verify_fooling,
    witness,
    witness_fooling_set,
    witness_square_table,
)
from sqrtnfa import fooling, kernels
from sqrtnfa.config import BUDGET_ENV
from sqrtnfa.kernels import orbit_cells, orbit_count
from conftest import MUTANTS, first_pair, mutant, orbit_mask

ORBITS = 163_967


def flat(triple, n):
    p, q, r = triple
    return (p * n + q) * n + r


def permuted_witness(n, perm):
    """``witness(n)`` with every state s renamed perm[s] and every letter
    renamed to the letter of the same kind whose payload is renamed."""
    auto = witness(n)
    source, letter, target = auto.transitions.array.T
    perm = np.asarray(perm)
    kind, x = divmod(letter, n**3)
    p, q, r = x // (n * n), (x // n) % n, x % n
    letter = kind * n**3 + (perm[p] * n + perm[q]) * n + perm[r]
    relation = np.stack([perm[source], letter, perm[target]], axis=1)
    return Nfa(n, auto.alphabet, auto.initial, auto.final, relation)


def canonical(cell):
    """The orbit's canonical tuple: generic values renumbered 6, 7, ... in
    order of first appearance."""
    names = {}
    return tuple(v if v < 6 else names.setdefault(v, 6 + len(names)) for v in cell)


class TestSymmetryLemma:
    @pytest.mark.parametrize("n", range(7, 15))
    def test_permuting_generic_states_fixes_the_witness(self, n):
        rng = random.Random(n)
        for _ in range(3):
            generic = list(range(6, n))
            rng.shuffle(generic)
            assert permuted_witness(n, list(range(6)) + generic) == witness(n)

    def test_permuting_a_block_state_does_not(self):
        # the lemma is about the states >= 6 only: swapping 5 and 6 moves
        # a final state, and swapping 2 and 6 changes the left pivot's image
        for a, b in ((5, 6), (2, 6)):
            perm = list(range(8))
            perm[a], perm[b] = b, a
            moved = permuted_witness(8, perm)
            assert moved.transitions != witness(8).transitions

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tables_are_constant_on_orbits(self, data):
        n = data.draw(st.integers(8, 14), label="n")
        cell = data.draw(st.lists(st.integers(0, n - 1), min_size=6, max_size=6))
        perm = list(range(6)) + data.draw(st.permutations(range(6, n)), label="perm")
        image = [perm[v] for v in cell]
        x1, x2 = [flat(cell[:3], n)], [flat(cell[3:], n)]
        y1, y2 = [flat(image[:3], n)], [flat(image[3:], n)]
        assert witness_square_table(n, x1, x2) == witness_square_table(n, y1, y2)
        # the damaged tables go through the orbit screen too
        for name, table in [("case_table", case_table), *MUTANTS.items()]:
            assert table(n, x1, x2) == table(n, y1, y2), name


class TestOrbitEnumerator:
    @pytest.mark.parametrize("n", [12, 13, 16, 24, 32])
    def test_count_for_n_at_least_12(self, n):
        x1, x2 = orbit_cells(n)
        assert x1.shape == x2.shape == (ORBITS,)

    def test_canonical_forms_are_canonical_and_unique(self):
        columns, generic = kernels._canonical_tuples()
        assert columns.dtype == np.uint8 and columns.shape == (6, ORBITS)
        rows = list(map(tuple, columns.T.tolist()))
        assert len(set(rows)) == ORBITS
        assert rows == sorted(rows)
        for row, k in zip(rows, generic.tolist()):
            assert canonical(row) == row
            assert len({v for v in row if v >= 6}) == k

    @pytest.mark.parametrize("n", [6, 7])
    def test_whole_grid_when_orbits_are_single_cells(self, n):
        # no two generic states at n = 6 or 7, so every cell is its own orbit
        x1, x2 = orbit_cells(n)
        assert len(x1) == n**6
        cells = x1.astype(np.int64) * n**3 + x2
        assert (np.sort(cells) == np.arange(n**6)).all()

    @pytest.mark.parametrize("n", range(6, 33))
    def test_orbit_sizes_sum_to_the_grid(self, n):
        x1, x2 = orbit_cells(n)
        coords = [c for x in (x1, x2) for c in (x // (n * n), (x // n) % n, x % n)]
        # distinct generic values per representative, counted afresh
        distinct = np.zeros(len(x1), dtype=np.int64)
        for i, c in enumerate(coords):
            first = c >= 6
            for earlier in coords[:i]:
                first &= earlier != c
            distinct += first
        sizes = [math.perm(n - 6, k) for k in distinct.tolist()]
        assert sum(sizes) == n**6

    def test_sampled_cells_have_a_representative(self):
        n = 13
        x1, x2 = orbit_cells(n)
        coords = [c for x in (x1, x2) for c in (x // (n * n), (x // n) % n, x % n)]
        reps = set(zip(*(c.tolist() for c in coords)))
        rng = random.Random(13)
        for _ in range(2000):
            cell = tuple(rng.randrange(n) for _ in range(6))
            assert canonical(cell) in reps, cell

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_canonical_tuple_is_the_least_cell_of_its_orbit(self, data):
        n = data.draw(st.integers(8, 32), label="n")
        cell = data.draw(st.lists(st.integers(0, n - 1), min_size=6, max_size=6))
        perm = list(range(6)) + data.draw(st.permutations(range(6, n)), label="perm")
        image = tuple(perm[v] for v in cell)
        assert canonical(image) == canonical(cell)
        assert canonical(cell) <= image

    def test_the_last_grid_built_is_reused_read_only(self):
        orbit_cells.cache_clear()
        x1, x2 = orbit_cells(9)
        assert orbit_cells(9)[0] is x1
        assert orbit_cells.cache_info().misses == 1
        assert not x1.flags.writeable and not x2.flags.writeable

    @pytest.mark.parametrize("n", range(6, 33))
    def test_count_is_the_length_of_the_list(self, n):
        assert orbit_count(n) == len(orbit_cells(n)[0])

    @pytest.mark.parametrize("damage", ["drop", "repeat"])
    def test_an_incomplete_list_is_refused(self, monkeypatch, damage):
        # the last grid built is cached: clear it, so that this call builds
        # and audits
        orbit_cells.cache_clear()
        columns, generic = kernels._canonical_tuples()
        keep = np.arange(ORBITS) != 1000
        if damage == "drop":
            columns, generic = columns[:, keep], generic[keep]
        else:
            columns, generic = columns[:, np.r_[0, :ORBITS]], generic[np.r_[0, :ORBITS]]
        monkeypatch.setattr(kernels, "_canonical_tuples", lambda: (columns, generic))
        with pytest.raises(VerificationError, match="cover .* cells, not"):
            orbit_cells(12)


def all_checks(n):
    budget = n**6
    checks = [certify_lower_bound(n).violation, verify_cases(n, budget=budget)]
    for name in MUTANTS:
        with mutant(name):
            checks.append(verify_cases(n, budget=budget))
    checks.append(pairwise_contradiction(n, budget=budget))
    with mutant("identity_l=True"):
        checks.append(pairwise_contradiction(n, budget=budget))
    return checks


def whole_grid_checks(n):
    """The same answers as :func:`all_checks`, each the argmax of a whole
    n^3 x n^3 table."""
    truth = witness_square_table(n)
    clash = first_pair(np.triu(truth & truth.T, 1), n)
    checks = [None if clash is None else Violation("cond2", *(flat(x, n) + 1 for x in clash))]
    for table in (case_table, *MUTANTS.values()):
        checks.append(first_pair(truth != (table(n) != 0), n))
    for table in (case_table, MUTANTS["identity_l=True"]):
        claimed = table(n) != 0
        checks.append(first_pair(np.triu(claimed & claimed.T, 1), n))
    return checks


class TestScreenMatchesStrips:
    """The one pass over the representatives against the whole grid.  (The
    class name dates from the row-strip scan that used to be the reference.)"""

    @pytest.mark.parametrize("n", range(6, 13))
    def test_routes_agree(self, monkeypatch, n):
        monkeypatch.setenv(BUDGET_ENV, str(n**6))
        answers = all_checks(n)
        assert answers == whole_grid_checks(n)
        violation, plain, *damaged, clean, crossing = answers
        assert violation is None and plain is None and clean is None
        assert None not in damaged and crossing is not None

    def test_damaged_orbit_is_caught(self, monkeypatch):
        n = 8
        # T[X1, X2] is False and T[X2, X1] True; making the whole orbit of
        # (X1, X2) True breaks condition 2 in each of its two cells
        cell = (0, 7, 6, 2, 6, 7)
        x1, x2 = flat(cell[:3], n), flat(cell[3:], n)
        assert not witness_square_table(n, [x1], [x2])[0]
        assert witness_square_table(n, [x2], [x1])[0]

        def damaged(n, x1, x2):
            return kernels.witness_square_table(n, x1, x2) ^ orbit_mask(n, cell, x1, x2)

        monkeypatch.setattr(fooling, "witness_square_table", damaged)
        idx = np.arange(n**3)
        table = damaged(n, idx[:, None], idx[None, :])
        assert (table != witness_square_table(n)).sum() == 2
        report = certify_lower_bound(n)
        reference = verify_fooling(
            witness_fooling_set(n), lambda w: bool(table[w[0], w[1] - n**3])
        )
        assert not report.certified
        assert report.violation == reference.violation
        assert report == reference
