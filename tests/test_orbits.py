"""Symmetry reduction of the witness checks.

States 6..n-1 of ``witness(n)`` are interchangeable, so the square truth
table and the case table are constant on the orbits of the n^3 x n^3 grid
under their permutations.  These tests make that lemma executable, check
the orbit enumerator and the fact that each canonical tuple is the least
cell of its orbit, and check the one pass over the representatives
against an argmax over the whole tables.
"""

import hashlib
import math
import random
from contextlib import nullcontext

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
    member,
    pairwise_contradiction,
    run_report,
    verify_cases,
    verify_fooling,
    witness,
    witness_fooling_set,
    witness_square_table,
)
from sqrtnfa import kernels
from sqrtnfa.cases import _verify_cases
from sqrtnfa.config import BUDGET_ENV
from sqrtnfa.fooling import _certify, _witness_grid
from sqrtnfa.kernels import _Grid, orbit_cells, orbit_count
from sqrtnfa.sqrt import TripleCodec
from conftest import (
    MUTANTS, damage_square_cells, doctored_witness, first_pair, grid, mutant, orbit_mask,
)

ORBITS = 163_967

# sha256 of x1.tobytes() + x2.tobytes() for orbit_cells(n), recorded from the
# list as the column-major build of the canonical tuples gave it
ORBIT_DIGESTS = {
    6: "1f659a7b102845665bb72fc1d64a499763a1cf1e7dd38770e204383b513d7244",
    7: "67f2129cb7cc3e5bfc0b8139c7dd77364ee340f00fb2c2e63e71d87b9a18062e",
    8: "d135e2a6096caf453ff79c1f0a484ec600e6cbee6a6d121d0f149865e46167ef",
    9: "c80ecd296e1b6f2693d0ec9ac66a3d62a90aa5c2b587bbf64d51bf2780552536",
    12: "a73e6a56733b328469c09a2ed9af3fca1ce5c38a800d358d85484667b41341e0",
    16: "7bb61510ca443338e876f743b6356b80840afaf486a98318e2a6fd660d1a1c7a",
    32: "a36bc339594da5eae1b57828deb135a44e21dfa3683d98ecbe0d09245a0833d5",
}


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
        assert witness_square_table(witness(n), x1, x2) == witness_square_table(witness(n), y1, y2)
        assert case_table(n, x1, x2) == case_table(n, y1, y2)
        # the damaged tables go through the orbit screen too
        for name in MUTANTS:
            with mutant(name) as table:
                assert table(n, x1, x2) == table(n, y1, y2), name


class TestOrbitEnumerator:
    @pytest.mark.parametrize("n", [12, 13, 16, 24, 32])
    def test_count_for_n_at_least_12(self, n):
        x1, x2 = orbit_cells(n)
        assert x1.shape == x2.shape == (ORBITS,)

    def test_canonical_forms_are_canonical_and_unique(self):
        columns, generic = kernels._canonical_tuples()
        assert columns.dtype == np.uint8 and columns.shape == (6, ORBITS)
        assert columns.flags.c_contiguous
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
        # orbit_cells builds on every call; the witness grid of the last n
        # is cached by value and holds the list it built
        grid = _witness_grid(9)
        assert _witness_grid(9) is grid
        assert _witness_grid(10) is not grid and _witness_grid(9) is not grid
        x1, x2 = orbit_cells(9)
        assert x1 is not grid.x1 and np.array_equal(x1, grid.x1) and np.array_equal(x2, grid.x2)
        for built in (x1, x2, grid.x1, grid.x2):
            assert not built.flags.writeable

    @pytest.mark.parametrize("n", sorted(ORBIT_DIGESTS))
    def test_the_list_is_pinned_byte_for_byte(self, n):
        # values, order and dtype: a reordered or retyped list fails here
        x1, x2 = orbit_cells(n)
        assert x1.dtype == x2.dtype == np.uint16
        assert not x1.flags.writeable and not x2.flags.writeable
        digest = hashlib.sha256(x1.tobytes() + x2.tobytes()).hexdigest()
        assert digest == ORBIT_DIGESTS[n]

    @pytest.mark.parametrize("n", range(6, 33))
    def test_count_is_the_length_of_the_list(self, n):
        assert orbit_count(n) == len(orbit_cells(n)[0])

    @pytest.mark.parametrize("damage", ["drop", "repeat"])
    def test_an_incomplete_list_is_refused(self, monkeypatch, damage):
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
    truth = witness_square_table(witness(n), *grid(n))
    clash = first_pair(np.triu(truth & truth.T, 1), n)
    checks = [None if clash is None else Violation("cond2", *(flat(x, n) + 1 for x in clash))]
    tables = [case_table(n, *grid(n))]
    for name in MUTANTS:
        with mutant(name) as table:
            tables.append(table(n, *grid(n)))
    for table in tables:
        checks.append(first_pair(truth != (table != 0), n))
    for table in (tables[0], tables[list(MUTANTS).index("identity_l=True") + 1]):
        claimed = table != 0
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
        assert not witness_square_table(witness(n), [x1], [x2])[0]
        assert witness_square_table(witness(n), [x2], [x1])[0]

        clean = witness_square_table(witness(n), *grid(n))
        square_cells = kernels._square_cells

        def damaged(n, slots, x1, x2):
            return square_cells(n, slots, x1, x2) ^ orbit_mask(n, cell, x1, x2)

        damage_square_cells(monkeypatch, damaged)
        table = witness_square_table(witness(n), *grid(n))
        assert (table != clean).sum() == 2
        report = _certify(_Grid(witness(n)))
        reference = verify_fooling(
            witness_fooling_set(n), lambda w: bool(table[w[0], w[1] - n**3])
        )
        assert not report.certified
        assert report.violation == reference.violation
        assert report == reference


class TestOrbitPairReads:
    """What the checks read on the orbit pair and nowhere else: the case
    table's coordinates, and the crossing's second case table."""

    @pytest.mark.parametrize("n", range(6, 14))
    def test_case_table_on_the_orbit_pair_equals_a_copy(self, n):
        x1, x2 = orbit_cells(n)
        kept = case_table(n, x1, x2)
        assert np.array_equal(kept, case_table(n, x1.copy(), x2.copy()))
        assert kept.dtype == np.uint8

    @pytest.mark.parametrize("mutated", [False, True])
    @pytest.mark.parametrize("n", range(6, 13))
    def test_crossing_matches_the_dense_crossing(self, n, mutated):
        # the dense crossing reads the second case table on every cell
        with mutant("identity_l=True") if mutated else nullcontext(case_table) as table:
            x1, x2 = orbit_cells(n)
            dense = (table(n, x1, x2) != 0) & (table(n, x2, x1) != 0) & (x1 != x2)
            found = pairwise_contradiction(n, budget=n**6)
        assert (found is None) == (not mutated) == (not dense.any())
        if mutated:
            k = np.argmax(dense)
            assert found == tuple(TripleCodec(n).decode(int(x[k])) for x in (x1, x2))


@pytest.fixture
def computed(monkeypatch):
    """The (x1, x2) of every call of ``kernels._square_cells``, the one
    function that computes square table cells, through either module that
    looks it up."""
    pairs = []
    square_cells = kernels._square_cells

    def spy(n, slots, x1, x2):
        pairs.append((x1, x2))
        return square_cells(n, slots, x1, x2)

    damage_square_cells(monkeypatch, spy)
    return pairs


def counted(monkeypatch, name):
    """How many times ``kernels.<name>`` is called from here on, as a list
    that grows by its argument on each call."""
    calls = []
    function = getattr(kernels, name)
    monkeypatch.setattr(kernels, name, lambda arg: calls.append(arg) or function(arg))
    return calls


def fresh(table, auto, x1, x2):
    """Whether ``table`` is the square table of ``auto`` on copies of the
    cells."""
    return np.array_equal(table, witness_square_table(auto, x1.copy(), x2.copy()))


class TestOneTablePerReport:
    """A grid computes the square table on the orbit pair once, for the
    automaton it is built from, and a report builds one grid per n."""

    def test_certify_then_verify_cases_compute_the_table_once(self, computed):
        auto = witness(8)
        grid = _Grid(auto)
        assert _certify(grid).certified
        assert _verify_cases(grid) is None
        assert sum(a is grid.x1 and b is grid.x2 for a, b in computed) == 1
        # an equal automaton that is another object gets its own grid
        twin = Nfa(8, auto.alphabet, auto.initial, auto.final, auto.transitions)
        twin_grid = _Grid(twin)
        assert _verify_cases(twin_grid) is None
        assert sum(a is twin_grid.x1 and b is twin_grid.x2 for a, b in computed) == 1
        assert len(computed) == 3  # the two tables and the certificate's mirror

    def test_a_doctored_automaton_after_a_clean_run_is_judged_afresh(self):
        assert certify_lower_bound(8).certified and verify_cases(8) is None
        with pytest.raises(VerificationError, match=r"permutation \(6 7\)"):
            _certify(_Grid(doctored_witness(8, skip=(6,))))
        assert verify_cases(8) is None
        # symmetric damage passes the check and gets the reference verdict
        auto = doctored_witness(8)
        reference = verify_fooling(witness_fooling_set(8), lambda w: member(auto, w + w))
        assert reference.violation == Violation("cond2", 1, 65)
        assert _certify(_Grid(auto)) == reference
        assert verify_cases(8) is None

    def test_a_kept_table_cannot_be_written(self):
        auto = witness(8)
        grid = _Grid(auto)
        for kept in (grid.table, grid.slots, grid.x1, grid.x2):
            with pytest.raises(ValueError, match="read-only"):
                kept[:] = 0
        assert fresh(grid.table, auto, grid.x1, grid.x2)
        # another automaton on the same two arrays gets its own table
        other = _Grid(doctored_witness(8))
        assert fresh(other.table, other.auto, grid.x1, grid.x2)
        assert not np.array_equal(other.table, grid.table)

    def test_the_mirror_and_the_diagonal_are_never_served(self, computed):
        # nothing is served: the public table computes on every call
        auto = witness(8)
        grid = _Grid(auto)
        x1, x2 = grid.x1, grid.x2
        diagonal = x1[x1 == x2]
        computed.clear()
        for rows, cols in ((x1, x2), (x2, x1), (diagonal, diagonal), (x1, x2)):
            table = witness_square_table(auto, rows, cols)
            assert table.flags.writeable and table is not grid.table
            assert fresh(table, auto, rows, cols)
        # each call and each fresh copy computed
        assert len(computed) == 8

    @pytest.mark.parametrize("n", [8, 12])
    def test_one_report_computes_each_table_once(self, computed, monkeypatch, n):
        # T(x1, x2), whose diagonal cells are condition 1, and T(x2, x1)
        # where T holds off the diagonal: a second pass over the orbit pair
        # fails here before it shows in the benchmark
        symmetric = counted(monkeypatch, "check_symmetric")
        slotted = counted(monkeypatch, "_letter_slots")
        _witness_grid.cache_clear()
        run_report(n, 4_000_000)
        cells = sum(np.broadcast(a, b).size for a, b in computed)
        grid = _witness_grid(n)
        hits = np.count_nonzero(grid.table & (grid.x1 != grid.x2))
        assert hits == {8: 1_237, 12: 1_239}[n]
        assert cells == orbit_count(n) + hits
        assert len(symmetric) == len(slotted) == 1
