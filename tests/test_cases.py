import hashlib
import inspect
import itertools
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from sqrtnfa import (
    BudgetExceededError,
    TripleCodec,
    case_holds,
    case_table,
    member,
    pairwise_contradiction,
    pivot_l,
    pivot_m,
    verify_cases,
    witness,
    witness_square_table,
)
from sqrtnfa import cases, kernels
from sqrtnfa.cases import CASE_COUNT
from conftest import MUTANTS, any_case, first_pair, grid, mutant


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
            with mutant(f"drop_case={k}"):
                cx = verify_cases(6)
            assert cx is not None, f"dropping case {k} went unnoticed"
            x1, x2 = cx
            # the damaged table must disagree exactly where the dropped
            # case was the only cover
            assert any_case(x1, x2, 6) == k
            others = set(range(1, CASE_COUNT + 1)) - {k}
            assert not any(case_holds(c, x1, x2, 6) for c in others)

    def test_identity_pivot_is_caught(self):
        with mutant("identity_l=True"):
            cx = verify_cases(6)
        assert cx is not None

    def test_counterexample_is_lexicographically_first(self):
        with mutant("drop_case=3"):
            cx = verify_cases(6)
        assert cx == ((0, 0, 1), (0, 0, 1))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            verify_cases(6, budget=46_655)


class TestPairwiseContradiction:
    def test_none_at_n6(self):
        assert pairwise_contradiction(6) is None

    def test_identity_pivot_breaks_condition_two(self):
        with mutant("identity_l=True") as table:
            cx = pairwise_contradiction(6)
            assert cx is not None
            x3, x4 = cx
            assert x3 != x4
            f3, f4 = (TripleCodec(6).encode(*x) for x in (x3, x4))
            assert table(6, [f3, f4], [f4, f3]).all()

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            pairwise_contradiction(6, budget=1000)


def test_case_table_matches_scalar_any_case_row():
    table = case_table(6, *grid(6))
    for x1 in all_triples(6):
        flat1 = (x1[0] * 6 + x1[1]) * 6 + x1[2]
        for x2 in ((0, 0, 0), (1, 2, 2), (3, 3, 3), (5, 4, 3)):
            flat2 = (x2[0] * 6 + x2[1]) * 6 + x2[2]
            assert table[flat1, flat2] == (any_case(x1, x2, 6) or 0)


class TestStripScan:
    """The one pass over the orbit representatives finds the same pair as
    an argmax over whole tables.  At n = 6 and 7 every orbit is a single
    cell; from n = 8 on, the answer rests on each canonical tuple being
    the least cell of its orbit.  (The test names date from the row-strip
    scan that these tests once forced into 7-row strips.)"""

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    @pytest.mark.parametrize("mutation", list(MUTANTS))
    def test_verify_cases_in_7_row_strips(self, n, mutation):
        with mutant(mutation) as damaged:
            claimed = damaged(n, *grid(n))
            expected = first_pair(witness_square_table(witness(n), *grid(n)) != (claimed != 0), n)
            assert expected is not None
            assert verify_cases(n) == expected

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    @pytest.mark.parametrize("identity_l", [False, True])
    def test_pairwise_contradiction_in_7_row_strips(self, n, identity_l):
        with mutant("identity_l=True") if identity_l else nullcontext(case_table) as table:
            claimed = table(n, *grid(n))
            hit = (claimed != 0) & (claimed.T != 0)
            np.fill_diagonal(hit, False)
            expected = first_pair(hit, n)
            assert pairwise_contradiction(n) == expected

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
        # the square cells, of the grid's table, and the case ids, each on
        # the cells they are read at
        sizes = []

        def recording(name, function):
            def call(*args):
                sizes.append((name, np.broadcast(*args[-2:]).size))
                return function(*args)

            return call

        damaged = MUTANTS["identity_l=True"]
        monkeypatch.setattr(kernels, "_case_ids", damaged)
        monkeypatch.setattr(cases, "_case_ids", recording("case ids", damaged))
        monkeypatch.setattr(kernels, "_square_cells", recording("square cells", kernels._square_cells))
        if check is verify_cases:
            assert cases._verify_cases(kernels._Grid(witness(13))) is not None
            assert sizes == [("square cells", 163_967), ("case ids", 163_967)]
            return
        assert check(13) is not None
        # the crossing reads a_X2 b_X1 only where a_X1 b_X2 holds off the diagonal
        x1, x2 = kernels.orbit_cells(13)
        hits = np.count_nonzero((case_table(13, x1, x2) != 0) & (x1 != x2))
        assert sizes == [("case ids", 163_967), ("case ids", hits)] and hits == 1_196


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
    @pytest.mark.parametrize("mutation", list(MUTANTS))
    def test_verify_cases(self, n, mutation):
        with mutant(mutation):
            found = verify_cases(n, budget=n**6)
        assert found == PINNED_VERIFY_CASES[mutation]

    def test_pairwise_contradiction(self, n):
        with mutant("identity_l=True"):
            assert pairwise_contradiction(n, budget=n**6) == PINNED_CROSSING


# sha256 of each whole damaged table that case_table's former damage
# parameters built (``drop_case=k`` and ``identity_l=True``), at n = 6, 7
PINNED_MUTANT_TABLES = {
    (6, "drop_case=1"): "f531b034d157ec7102bf3e6e68e44489e2b8777050a655539fc2603c893a58c9",
    (6, "drop_case=2"): "da9aa4ddcf6c6c07aacc9abaa398120b61fb793831d17e4e253613c3c2a10b88",
    (6, "drop_case=3"): "0195e3f5829854846bc150a54eaeff633462d96c1d917bf36a89fc3633ae650a",
    (6, "drop_case=4"): "8fe3819ac000feadb4be7c53a2610c3ad323d428ec8f50f341594097fab4b553",
    (6, "drop_case=5"): "0f4c89bb4e6e1aaa705807909af0ab214bf91e05ab69c305ae0e56b936b5640a",
    (6, "drop_case=6"): "4d03530dbdbd4c751768124e9e51903fe6b3377775c5deef916c07ef23307779",
    (6, "drop_case=7"): "601a6c634e976ca9a82c688a2903d77dbf2207961af1f84d45d125d5da1234ff",
    (6, "identity_l=True"): "af30c11e87cf802d2b39e8e49da879b7d45d012889f9f9d95c4d48a1a696982c",
    (7, "drop_case=1"): "fa490648e016df62b3601af87e6705bb93a91f9cff7d18fdf85efe299a0d1041",
    (7, "drop_case=2"): "f4597154ff05e144033a13520bafa17244967f2352faca461da829b73debc4b9",
    (7, "drop_case=3"): "3f6aa23275b904f37e4784ddb4ca99f208564ac2f9b552328dedcd3c6d5ac844",
    (7, "drop_case=4"): "9bdbadec57c6d6618036cd61b2419bdc3e85e95780cf904e7b9c00de59fa1de3",
    (7, "drop_case=5"): "25551e0f3e6a0597a70d7d75c9bb12202654b65c7f827923b87f384ebaa82a9e",
    (7, "drop_case=6"): "42efa958ee3eaf62370f654ba929a256146be891c38ad6b207112a2de1f7b27c",
    (7, "drop_case=7"): "606ab156b71a4a9c2ef6e67ebb41af0fdf8d723955f0b162471dfbd9a1e980e6",
    (7, "identity_l=True"): "6c05b9bdc420b9b2741935f3150f5da300d39869a9def6fb5ee13ecaf55c596c",
}


@pytest.mark.parametrize("n, mutation", sorted(PINNED_MUTANT_TABLES))
def test_mutants_reproduce_the_former_damage_parameters(n, mutation):
    with mutant(mutation) as damaged:
        table = damaged(n, *grid(n))
    assert table.dtype == np.uint8 and table.shape == (n**3, n**3)
    digest = hashlib.sha256(table.tobytes()).hexdigest()
    assert digest == PINNED_MUTANT_TABLES[n, mutation]


@pytest.mark.parametrize(
    "function",
    [case_holds, kernels.case_table, verify_cases, pairwise_contradiction],
)
def test_the_library_has_no_damage_parameters(function):
    # the damaged tables are the test mutants of conftest.py
    assert not {"drop_case", "identity_l"} & set(inspect.signature(function).parameters)
