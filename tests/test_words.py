import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtnfa import BudgetExceededError, count_words, determinize, rank_to_word, sqrt_dfa
from sqrtnfa.words import explore, level_offset
from conftest import iter_words, nfas


def test_level_offsets_binary():
    assert [level_offset(2, k) for k in range(5)] == [0, 1, 3, 7, 15]


def test_level_offsets_unary():
    assert [level_offset(1, k) for k in range(4)] == [0, 1, 2, 3]


@pytest.mark.parametrize("sigma", [1, 2])
def test_level_offset_refuses_a_negative_length(sigma):
    with pytest.raises(ValueError, match="^length -3 out of range$"):
        level_offset(sigma, -3)


def test_count_words():
    assert count_words(3, 0) == 1
    assert count_words(3, 2) == 13
    assert count_words(2, 3) == 15


def test_rank_order_matches_iteration():
    words = list(iter_words(2, 3))
    assert words[0] == ()
    assert words[1:3] == [(0,), (1,)]
    assert len(words) == count_words(2, 3)
    for rank, word in enumerate(words):
        assert rank_to_word(2, rank) == word


def test_iter_words_is_length_lex():
    words = list(iter_words(3, 3))
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)


def test_rank_to_word_rejects_negative():
    with pytest.raises(ValueError):
        rank_to_word(2, -1)


@given(st.integers(1, 5), st.lists(st.integers(0, 4), max_size=6))
def test_rank_round_trip(sigma, raw):
    # the words no longer than it include every word ranked below it
    word = tuple(a % sigma for a in raw)
    rank = list(iter_words(sigma, len(word))).index(word)
    assert rank_to_word(sigma, rank) == word


def chain(node):
    """Successors on a 10-node path that ends in a self-loop."""
    return [min(node + 1, 9)]


def test_explore_budget_boundary():
    nodes, rows = explore(0, chain, 10, "chain nodes")
    assert nodes == list(range(10))
    assert rows == [[i + 1] for i in range(9)] + [[9]]
    with pytest.raises(BudgetExceededError) as info:
        explore(0, chain, 9, "chain nodes")
    assert (info.value.what, info.value.needed, info.value.budget) == ("chain nodes", 10, 9)


def test_explore_stops_at_the_first_match():
    nodes, rows = explore(0, chain, 4, "chain nodes", stop=lambda node: node == 3)
    assert nodes == [0, 1, 2, 3]
    assert rows == [[1], [2], [3]]
    assert explore(0, chain, 1, "chain nodes", stop=lambda node: True) == ([0], [])


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_subset_and_function_automata_are_bfs_numbered(auto):
    dfa = determinize(auto)
    for table in (dfa, sqrt_dfa(dfa)):
        # read row-major after the start 0, new ids first appear as 1, 2, 3, ...
        ids = [0] + [i for row in table.transitions for i in row]
        assert table.initial == 0
        assert list(dict.fromkeys(ids)) == list(range(table.n_states))
