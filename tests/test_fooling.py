import random

import numpy as np
import pytest

from sqrtnfa import (
    BudgetExceededError,
    FoolingSet,
    Nfa,
    VerificationError,
    Violation,
    certify_lower_bound,
    member,
    pairwise_contradiction,
    witness,
    witness_fooling_set,
    witness_square_table,
    verify_fooling,
)
from sqrtnfa import fooling, kernels
from sqrtnfa.cases import _verify_cases
from sqrtnfa.fooling import _certify
from sqrtnfa.kernels import _Grid
from conftest import damage_square_cells, doctored_witness, grid, orbit_mask, with_transitions


def oracle_for(language):
    return lambda word: word in language


class TestTypes:
    def test_pairs_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            FoolingSet((((0,), (1,)), ((0,), (1,))))

    def test_violation_shape_enforced(self):
        Violation("cond1", 1)
        Violation("cond2", 1, 2)
        with pytest.raises(ValueError):
            Violation("cond3", 1)
        with pytest.raises(ValueError):
            Violation("cond1", 1, 2)
        with pytest.raises(ValueError):
            Violation("cond2", 1)


class TestVerifyFooling:
    def test_empty_set_certifies_zero(self):
        report = verify_fooling(FoolingSet(()), oracle_for(set()))
        assert report.certified and report.bound == 0
        assert report.cond1_checked == 0 and report.cond2_checked == 0

    def test_single_pair_over_ab(self):
        # L = {ab} with a=0, b=1
        report = verify_fooling(
            FoolingSet((((0,), (1,)),)), oracle_for({(0, 1)})
        )
        assert report.certified and report.bound == 1

    def test_cond1_failure_reports_first_bad_index(self):
        bad = FoolingSet((((0,), (1,)), ((1,), (1,))))
        report = verify_fooling(bad, oracle_for({(0, 1)}))
        assert not report.certified and report.bound == 0
        assert report.violation == Violation("cond1", 2)

    def test_cond2_failure_reports_lex_first_pair(self):
        # L = everything: all crosses are inside, first clash is (1,2)
        pairs = FoolingSet((((0,), (0,)), ((1,), (1,)), ((2,), (2,))))
        report = verify_fooling(pairs, lambda w: True)
        assert report.violation == Violation("cond2", 1, 2)
        assert report.cond2_checked == 1

    def test_all_cond1_checked_before_any_cond2(self):
        # pair 3 breaks condition 1 while pair (1,2) breaks condition 2;
        # the sweep order makes the cond1 report win
        inside = {(0, 0), (1, 1), (0, 1), (1, 0)}
        pairs = FoolingSet((((0,), (0,)), ((1,), (1,)), ((2,), (2,))))
        report = verify_fooling(pairs, oracle_for(inside))
        assert report.violation == Violation("cond1", 3)
        assert report.cond2_checked == 0

    def test_cond2_short_circuits_second_cross(self):
        inside = {(0, 0), (1, 1)}
        calls = []

        def oracle(word):
            calls.append(word)
            return word in inside

        pairs = FoolingSet((((0,), (0,)), ((1,), (1,))))
        report = verify_fooling(pairs, oracle)
        assert report.certified and report.bound == 2
        # cross (0,1) already outside, so (1,0) was never asked
        assert (0, 1) in calls and (1, 0) not in calls

    def test_permutation_keeps_verdict_class(self, witness6):
        base = witness_fooling_set(6).pairs
        scrambled = FoolingSet(base[100:] + base[:100])

        def oracle(word):
            return member(witness6, word + word)

        assert verify_fooling(scrambled, oracle).certified

    def test_cond2_symmetry_of_verdict_class(self):
        inside = {(0, 0), (1, 1), (0, 1), (1, 0)}
        fwd = FoolingSet((((0,), (0,)), ((1,), (1,))))
        rev = FoolingSet((((1,), (1,)), ((0,), (0,))))
        assert not verify_fooling(fwd, oracle_for(inside)).certified
        assert not verify_fooling(rev, oracle_for(inside)).certified


class TestCanonicalSet:
    def test_sizes(self):
        assert len(witness_fooling_set(6)) == 216
        assert len(witness_fooling_set(7)) == 343

    def test_first_pair_and_order(self):
        pairs = witness_fooling_set(6).pairs
        assert pairs[0] == ((0,), (216,))  # a[0,0,0], b[0,0,0]
        assert pairs[1] == ((1,), (217,))
        assert pairs[-1] == ((215,), (431,))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            witness_fooling_set(5)


class TestCertify:
    def test_certifies_216_at_n6(self):
        report = certify_lower_bound(6)
        assert report.certified and report.bound == 216
        assert report.cond1_checked == 216
        assert report.cond2_checked == 216 * 215 // 2

    def test_certified_bound_meets_upper_construction(self, witness6, cube6):
        report = certify_lower_bound(6)
        assert report.bound == cube6.n_states
        assert report.bound > 5 * 4 * 3  # strictly above the older bound

    def test_certifies_32768_at_n32(self):
        # the largest witness: 65,536 letter names, rows of about 4,096 keys
        # per state and one member call per diagonal orbit (365)
        report = certify_lower_bound(32, budget=2**30)
        m = 32**3
        assert report.certified and report.violation is None
        assert report.bound == report.cond1_checked == m == 32768
        assert report.cond2_checked == m * (m - 1) // 2

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            certify_lower_bound(6, budget=215)

    def test_reads_only_the_pairs_it_asks_about(self, monkeypatch):
        # no FoolingSet of all n^3 pairs is built; the words asked of the
        # oracle are the canonical set's pairs, from the same pair function
        asked = []

        def spy(auto, word):
            asked.append(word)
            return member(auto, word)

        def refused(pairs):
            raise AssertionError("FoolingSet built")

        monkeypatch.setattr(fooling, "member", spy)
        monkeypatch.setattr(fooling, "FoolingSet", refused)
        assert certify_lower_bound(8).certified
        monkeypatch.undo()
        squares = {2 * (x + y) for x, y in witness_fooling_set(8).pairs}
        assert 0 < len(asked) == len(set(asked)) and set(asked) <= squares

    def test_agreement_with_case_predicates(self):
        # condition 2 certified exactly when the predicate search finds
        # no contradicting pair
        assert certify_lower_bound(6).certified
        assert pairwise_contradiction(6) is None


def table_cells(table):
    """Stand-in for ``kernels._square_cells`` that reads a given table."""
    return lambda n, slots, x1, x2: table[x1, x2]


def table_oracle(table):
    """Square-membership oracle over canonical pair words, read from a table."""
    m = table.shape[0]
    return lambda word: bool(table[word[0], word[1] - m])


class TestCertifyMatchesReference:
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_equals_verify_fooling(self, n):
        auto = witness(n)
        reference = verify_fooling(
            witness_fooling_set(n), lambda w: member(auto, w + w)
        )
        assert certify_lower_bound(n) == reference

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("closed_at", [None, 8])
    def test_damaged_off_diagonal(self, monkeypatch, seed, closed_at):
        # three seeded clashes T[i, j] = T[j, i] = True; with ``closed_at``
        # each is spread over the orbits of (i, j) and (j, i) at that n, so
        # the damaged table keeps the symmetry the one pass relies on
        n = closed_at or 6
        table = witness_square_table(witness(n), *grid(n))
        m = table.shape[0]
        rng = random.Random(seed)
        for _ in range(3):
            i, j = rng.sample(range(m), 2)
            if closed_at is None:
                table[i, j] = table[j, i] = True
                continue
            for x1, x2 in ((i, j), (j, i)):
                cell = [c for x in (x1, x2) for c in (x // (n * n), (x // n) % n, x % n)]
                table |= orbit_mask(n, cell, *grid(n))
        damage_square_cells(monkeypatch, table_cells(table))
        report = _certify(_Grid(witness(n)))
        reference = verify_fooling(witness_fooling_set(n), table_oracle(table))
        assert not report.certified
        assert report.violation == reference.violation
        assert report.cond2_checked == reference.cond2_checked
        assert report == reference

    @pytest.mark.parametrize("seed", range(3))
    def test_damage_in_one_direction_stays_certified(self, monkeypatch, seed):
        # T[i, j] made True with T[j, i] False: condition 2 reads the mirror
        # at (j, i), so an unswapped read would name (i, j)
        table = witness_square_table(witness(6), *grid(6))
        rng = random.Random(seed)
        for _ in range(3):
            i, j = rng.choice(np.argwhere(~table & ~table.T).tolist())
            table[i, j] = True
        damage_square_cells(monkeypatch, table_cells(table))
        report = _certify(_Grid(witness(6)))
        assert report.certified
        assert report == verify_fooling(witness_fooling_set(6), table_oracle(table))

    def test_cond1_failure_when_table_and_automaton_agree(self, monkeypatch):
        table = witness_square_table(witness(6), *grid(6))
        table[40, 40] = table[90, 90] = False
        oracle = table_oracle(table)
        damage_square_cells(monkeypatch, table_cells(table))
        monkeypatch.setattr(fooling, "member", lambda auto, word: oracle(word))
        report = _certify(_Grid(witness(6)))
        assert report.violation == Violation("cond1", 41)
        assert report == verify_fooling(witness_fooling_set(6), oracle)

    def test_damaged_diagonal_raises(self, monkeypatch):
        table = witness_square_table(witness(6), *grid(6))
        table[40, 40] = False
        damage_square_cells(monkeypatch, table_cells(table))
        with pytest.raises(VerificationError, match="pair 41"):
            _certify(_Grid(witness(6)))

    def test_budget_threshold_is_pair_count(self):
        assert certify_lower_bound(8, budget=512).certified
        with pytest.raises(BudgetExceededError):
            certify_lower_bound(8, budget=511)

    def test_strips_stay_within_block_bound(self, monkeypatch):
        sizes = []
        damage = []
        square_cells = kernels._square_cells

        def recording(n, slots, x1, x2):
            sizes.append(np.broadcast(x1, x2).size)
            table = square_cells(n, slots, x1, x2)
            for cell in damage:
                table = table | orbit_mask(n, cell, x1, x2)
            return table

        def hits(grid):
            # the off-diagonal representatives where T holds
            return np.count_nonzero(grid.table & (grid.x1 != grid.x2))

        damage_square_cells(monkeypatch, recording)
        grid = _Grid(witness(13))
        report = _certify(grid)  # 13^6 cells would be 4.8M
        m = 13**3
        assert report.certified and report.cond2_checked == m * (m - 1) // 2
        # the grid's table on the representatives, whose diagonal is
        # condition 1, then the mirror for condition 2 on the hits alone
        assert sizes == [163_967, hits(grid)] and hits(grid) == 1_239

        # damage closed under the symmetry (two mirrored orbits) is named
        # by the same calls, with no second pass
        damage[:] = [(5, 6, 7, 5, 7, 6), (5, 7, 6, 5, 6, 7)]
        sizes.clear()
        grid = _Grid(witness(13))
        report = _certify(grid)
        i, j = (5 * 13 + 6) * 13 + 7, (5 * 13 + 7) * 13 + 6
        assert report.violation == Violation("cond2", i + 1, j + 1)
        assert sizes == [163_967, hits(grid)] and hits(grid) > 1_239


class TestDoctoredAutomaton:
    """The certificate is checked against the automaton it certifies: a
    damaged automaton gets the reference verdict, or is refused when it
    breaks the symmetry the orbit checks rest on."""

    def test_reference_verdict_at_n6(self):
        # the table used to re-derive the letters by hand, and certified
        # this automaton with bound 216
        auto = doctored_witness(6)
        report = _certify(_Grid(auto))
        reference = verify_fooling(witness_fooling_set(6), lambda w: member(auto, w + w))
        assert report == reference
        assert report.violation == Violation("cond2", 1, 37)
        assert (report.cond1_checked, report.cond2_checked) == (216, 36)

    def test_asymmetric_damage_is_refused(self):
        # the same damage without state 6: the reference verdict is
        # condition 2 at (1, 65), which no orbit check may claim to read;
        # both checks read the grid, whose build refuses it
        auto = doctored_witness(8, skip=(6,))
        reference = verify_fooling(witness_fooling_set(8), lambda w: member(auto, w + w))
        assert reference.violation == Violation("cond2", 1, 65)
        for check in (_certify, _verify_cases):
            with pytest.raises(VerificationError, match=r"permutation \(6 7\)"):
                check(_Grid(auto))

    def test_an_asymmetric_final_set_is_refused(self):
        w8 = witness(8)
        auto = Nfa(8, w8.alphabet, w8.initial, {3, 4, 5, 7}, w8.transitions)
        with pytest.raises(VerificationError, match=r"permutation \(6 7\)"):
            _certify(_Grid(auto))

    def test_damage_the_swap_fixes_is_refused_by_the_cycle(self):
        # a transition out of state 8 is fixed by (6 7) but moved by (6 7 8)
        auto = with_transitions(witness(9), [(8, 0, 0)])
        kernels.check_symmetric(with_transitions(witness(9), [(8, 0, 0), (6, 0, 0), (7, 0, 0)]))
        with pytest.raises(VerificationError, match=r"permutation \(6 7 8\)"):
            kernels.check_symmetric(auto)

    def test_a_wrong_sized_alphabet_is_refused_before_the_symmetry_check(self):
        # five names too many, with a transition on one of them; and 1,000
        # letters, the witness rows on them kept: each once split letters
        # as if the alphabet had 2n^3 of them
        w8 = witness(8)
        extra = Nfa(8, w8.alphabet + tuple(f"x{i}" for i in range(5)), w8.initial, w8.final,
                    [(0, 1025, 0)])
        rows = w8.transitions.array
        short = Nfa(8, w8.alphabet[:1000], w8.initial, w8.final, rows[rows[:, 1] < 1000])
        for auto, letters in ((extra, 1029), (short, 1000)):
            for build in (kernels.check_symmetric, _Grid):
                with pytest.raises(ValueError, match=f": {letters} letters, not 1024$"):
                    build(auto)

    def test_a_b_letter_row_from_an_initial_state_leaves_the_table(self):
        # s -b[0,0,0]-> 0 from the initial state 1: a b-letter's flag is its
        # target's finality, and state 0 is not final, so the square table
        # is witness(6)'s; a flag read off the source instead (an initial
        # state) would mark the row as accepting
        w6 = witness(6)
        auto = with_transitions(w6, [(1, w6.letter_index("b[0,0,0]"), 0)])
        grid = _Grid(auto)
        assert grid.x1.size == 6**6
        m = 6**3
        words = [2 * ((x1,) + (m + x2,)) for x1, x2 in zip(grid.x1.tolist(), grid.x2.tolist())]
        assert grid.table.tolist() == [member(auto, word) for word in words]
        reference = verify_fooling(witness_fooling_set(6), lambda w: member(auto, w + w))
        report = _certify(grid, budget=m)
        for field in ("certified", "bound", "violation", "cond1_checked", "cond2_checked"):
            assert getattr(report, field) == getattr(reference, field), field

    @pytest.mark.parametrize("n", [6, 7, 8, 12])
    def test_the_witness_is_symmetric(self, n):
        assert kernels.check_symmetric(witness(n)) is witness(n)


class TestDoctoredSet:
    def test_documented_violation(self, witness6):
        a011 = witness6.letter_index("a[0,1,1]")
        b011 = witness6.letter_index("b[0,1,1]")
        b022 = witness6.letter_index("b[0,2,2]")
        doctored = FoolingSet((((a011,), (b011,)), ((a011,), (b022,))))

        def oracle(word):
            return member(witness6, word + word)

        report = verify_fooling(doctored, oracle)
        assert not report.certified
        assert report.violation == Violation("cond1", 2)
