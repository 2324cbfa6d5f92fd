import itertools
import tracemalloc

import numpy as np
import pytest

from sqrtnfa import (
    BudgetExceededError,
    CASE_COUNT,
    any_case,
    case_holds,
    case_table,
    member,
    pairwise_contradiction,
    pivot_l,
    pivot_m,
    verify_cases,
    witness_square_table,
)
from sqrtnfa import cases
from conftest import first_pair


def all_triples(n):
    return list(itertools.product(range(n), repeat=3))


class TestCaseHolds:
    def test_diagonal_case_three(self):
        assert case_holds(3, (4, 0, 5), (4, 0, 5), 6)

    def test_documented_case_one(self):
        assert case_holds(1, (1, 0, 2), (1, 2, 2), 6)

    def test_documented_case_two(self):
        assert case_holds(2, (0, 5, 4), (1, 4, 5), 6)

    def test_case_ids_validated(self):
        with pytest.raises(ValueError, match="case 0 out of range"):
            case_holds(0, (0, 0, 0), (0, 0, 0), 6)
        with pytest.raises(ValueError, match="case 8 out of range"):
            case_holds(8, (0, 0, 0), (0, 0, 0), 6)

    def test_triples_validated(self):
        with pytest.raises(ValueError):
            case_holds(1, (6, 0, 0), (0, 0, 0), 6)
        with pytest.raises(ValueError):
            case_holds(1, (0, 0), (0, 0, 0), 6)
        with pytest.raises(ValueError):
            case_holds(1, (0, 0, 0), (0, 0, -1), 6)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            case_holds(1, (0, 0, 0), (0, 0, 0), 5)

    def test_structural_facts_exhaustive_n6(self):
        triples = all_triples(6)
        for x1 in triples:
            for x2 in triples:
                p1 = x1[0]
                p2 = x2[0]
                if case_holds(1, x1, x2, 6) or case_holds(4, x1, x2, 6):
                    assert p1 == p2
                if case_holds(2, x1, x2, 6) or case_holds(5, x1, x2, 6):
                    assert p2 == pivot_l(p1) and p2 in {0, 1, 2}
                if case_holds(6, x1, x2, 6) or case_holds(7, x1, x2, 6):
                    assert p1 == pivot_m(p2) and p1 in {3, 4, 5}


class TestAnyCase:
    def test_diagonal_always_covered_by_low_case(self):
        for x in all_triples(6):
            got = any_case(x, x, 6)
            assert got is not None and got <= 3

    def test_documented_none_pair(self):
        assert any_case((0, 1, 1), (0, 2, 2), 6) is None

    def test_returns_lowest_case(self):
        # (1,2,2)/(1,2,2): case 1 (p in Q0, r1=r2=q2) and case 3 both hold
        assert case_holds(1, (1, 2, 2), (1, 2, 2), 6)
        assert case_holds(3, (1, 2, 2), (1, 2, 2), 6)
        assert any_case((1, 2, 2), (1, 2, 2), 6) == 1

    def test_drop_case_skips(self):
        assert any_case((1, 2, 2), (1, 2, 2), 6, drop_case=1) == 3

    def test_matches_direct_membership_on_sample(self, witness6):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(500):
            x1 = tuple(int(v) for v in rng.integers(0, 6, 3))
            x2 = tuple(int(v) for v in rng.integers(0, 6, 3))
            flat1 = (x1[0] * 6 + x1[1]) * 6 + x1[2]
            flat2 = (x2[0] * 6 + x2[1]) * 6 + x2[2]
            word = (flat1, 216 + flat2)
            covered = any_case(x1, x2, 6) is not None
            assert covered == member(witness6, word + word)


class TestVerifyCases:
    def test_clean_at_n6(self):
        assert verify_cases(6) is None

    def test_every_dropped_case_is_caught(self):
        for k in range(1, CASE_COUNT + 1):
            cx = verify_cases(6, drop_case=k)
            assert cx is not None, f"dropping case {k} went unnoticed"
            x1, x2 = cx
            # the damaged table must disagree exactly where the dropped
            # case was the only cover
            assert any_case(x1, x2, 6) == k
            assert any_case(x1, x2, 6, drop_case=k) is None

    def test_identity_pivot_is_caught(self):
        cx = verify_cases(6, identity_l=True)
        assert cx is not None

    def test_counterexample_is_lexicographically_first(self):
        cx = verify_cases(6, drop_case=3)
        assert cx == ((0, 0, 1), (0, 0, 1))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            verify_cases(6, budget=46_655)


class TestPairwiseContradiction:
    def test_none_at_n6(self):
        assert pairwise_contradiction(6) is None

    def test_identity_pivot_breaks_condition_two(self):
        cx = pairwise_contradiction(6, identity_l=True)
        assert cx is not None
        x3, x4 = cx
        assert x3 != x4
        assert any_case(x3, x4, 6, identity_l=True) is not None
        assert any_case(x4, x3, 6, identity_l=True) is not None

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            pairwise_contradiction(6, budget=1000)


def test_case_table_matches_scalar_any_case_row():
    table = case_table(6)
    for x1 in all_triples(6):
        flat1 = (x1[0] * 6 + x1[1]) * 6 + x1[2]
        for x2 in ((0, 0, 0), (1, 2, 2), (3, 3, 3), (5, 4, 3)):
            flat2 = (x2[0] * 6 + x2[1]) * 6 + x2[2]
            assert table[flat1, flat2] == (any_case(x1, x2, 6) or 0)


MUTATIONS = [{"drop_case": k} for k in range(1, CASE_COUNT + 1)] + [{"identity_l": True}]


def mutation_id(mutation):
    return ",".join(f"{k}={v}" for k, v in mutation.items())


class TestStripScan:
    """The one pass over the orbit representatives finds the same pair as
    an argmax over whole tables.  At n = 6 and 7 every orbit is a single
    cell; from n = 8 on, the answer rests on each canonical tuple being
    the least cell of its orbit.  (The test names date from the row-strip
    scan that these tests once forced into 7-row strips.)"""

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    @pytest.mark.parametrize("mutation", MUTATIONS, ids=mutation_id)
    def test_verify_cases_in_7_row_strips(self, n, mutation):
        claimed = case_table(n, **mutation)
        expected = first_pair(witness_square_table(n) != (claimed != 0), n)
        assert expected is not None
        assert verify_cases(n, **mutation) == expected

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    @pytest.mark.parametrize("identity_l", [False, True])
    def test_pairwise_contradiction_in_7_row_strips(self, n, identity_l):
        table = case_table(n, identity_l=identity_l)
        hit = (table != 0) & (table.T != 0)
        np.fill_diagonal(hit, False)
        expected = first_pair(hit, n)
        assert pairwise_contradiction(n, identity_l=identity_l) == expected

    @pytest.mark.parametrize("check", [verify_cases, pairwise_contradiction])
    def test_peak_memory_is_bounded_by_the_strip(self, check):
        # 16^6 cells would be 16.8M per whole table
        tracemalloc.start()
        try:
            assert check(16, budget=17_000_000) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 56 * 2**20


class TestOrbitPass:
    """Both checks read only the orbit representatives, and charge them."""

    @pytest.mark.parametrize("check", [verify_cases, pairwise_contradiction])
    def test_budget_is_the_cells_read(self, check):
        # n^6 = 4,826,809 cells at n = 13, one per orbit 163,967
        assert check(13, budget=163_967) is None
        with pytest.raises(BudgetExceededError, match="needs 163967, exceeds budget 163966"):
            check(13, budget=163_966)

    @pytest.mark.parametrize("check", [verify_cases, pairwise_contradiction])
    def test_table_calls_read_only_the_representatives(self, monkeypatch, check):
        sizes = []

        def recording(table):
            def call(n, *args):
                sizes.append(np.broadcast(*map(np.asarray, args[-2:])).size)
                return table(n, *args)

            return call

        for name in ("witness_square_table", "case_table"):
            monkeypatch.setattr(cases, name, recording(getattr(cases, name)))
        assert check(13, identity_l=True) is not None
        assert sizes == [163_967, 163_967]


# the parent's screen-plus-scan counterexamples; they are the same for every
# n >= 8, because each lies in the constants 0..5
PINNED_VERIFY_CASES = {
    "drop_case=1": ((0, 0, 1), (0, 1, 1)),
    "drop_case=2": ((0, 0, 1), (1, 1, 0)),
    "drop_case=3": ((0, 0, 1), (0, 0, 1)),
    "drop_case=4": ((3, 0, 0), (3, 0, 1)),
    "drop_case=5": ((0, 0, 1), (1, 0, 0)),
    "drop_case=6": ((3, 0, 0), (0, 1, 0)),
    "drop_case=7": ((3, 0, 1), (5, 1, 0)),
    "identity_l=True": ((0, 0, 0), (1, 0, 0)),
}
PINNED_CROSSING = ((0, 0, 1), (0, 1, 0))


@pytest.mark.parametrize("n", [*range(8, 15), 32])
class TestPinnedCounterexamples:
    @pytest.mark.parametrize("mutation", MUTATIONS, ids=mutation_id)
    def test_verify_cases(self, n, mutation):
        found = verify_cases(n, budget=n**6, **mutation)
        assert found == PINNED_VERIFY_CASES[mutation_id(mutation)]

    def test_pairwise_contradiction(self, n):
        assert pairwise_contradiction(n, identity_l=True, budget=n**6) == PINNED_CROSSING
