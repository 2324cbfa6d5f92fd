import itertools

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
)


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
        with pytest.raises(ValueError, match="case must be"):
            case_holds(0, (0, 0, 0), (0, 0, 0), 6)
        with pytest.raises(ValueError, match="case must be"):
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
