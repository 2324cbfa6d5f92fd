import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtnfa import BudgetExceededError, Nfa, accept_table, determinize, sqrt_dfa
from sqrtnfa.nfa import explore
from conftest import iter_words, nfas, reference_explore


def table_size(sigma, max_len):
    """The length of an acceptance table over ``sigma`` letters: the number
    of words of length <= max_len, and the rank of the first longer word."""
    one = Nfa(1, tuple("abcdefghij"[:sigma]), {0}, set(), ())
    return accept_table(one, max_len).size


# level k + 1 of the rank order starts at the size of the table to length k
def test_level_offsets_binary():
    assert [table_size(2, k) for k in range(4)] == [1, 3, 7, 15]


def test_level_offsets_unary():
    assert [table_size(1, k) for k in range(3)] == [1, 2, 3]


@pytest.mark.parametrize("sigma", [1, 2])
def test_level_offset_refuses_a_negative_length(sigma):
    with pytest.raises(ValueError, match="^max_len -3 out of range$"):
        table_size(sigma, -3)


def test_count_words():
    assert table_size(3, 0) == 1
    assert table_size(3, 2) == 13
    assert table_size(2, 3) == 15
    # a numpy length is read as an int: the refused count has no 64-bit wrap
    with pytest.raises(BudgetExceededError) as info:
        table_size(10, np.int64(30))
    assert info.value.what == "word tree words"
    assert info.value.needed == (10**31 - 1) // 9 == int("1" * 31)


def test_rank_order_matches_iteration():
    words = list(iter_words(2, 3))
    assert words[0] == ()
    assert words[1:3] == [(0,), (1,)]
    assert len(words) == table_size(2, 3)


def test_iter_words_is_length_lex():
    words = list(iter_words(3, 3))
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)


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


@st.composite
def successor_graphs(draw):
    """A random graph on nodes 0..n-1, each with up to 3 successors in
    order, a set of stop nodes or None, and a budget."""
    n = draw(st.integers(1, 12))
    graph = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n))
    stops = draw(st.none() | st.sets(st.integers(0, n - 1), max_size=3))
    return graph, stops, draw(st.integers(1, n + 1))


def explored(explore_fn, graph, stops, budget):
    """``explore_fn`` from node 0 of ``graph``, each node's successors
    handed out as an iterator: ``(nodes, rows)`` or the refusal's fields,
    then the nodes expanded and the nodes judged by ``stop``, in call
    order."""
    expanded, judged = [], []

    def successors(node):
        expanded.append(node)
        return iter(graph[node])

    def stop(node):
        judged.append(node)
        return node in stops

    stopper = None if stops is None else stop
    try:
        result = explore_fn(0, successors, budget, "graph nodes", stopper)
    except BudgetExceededError as error:
        result = (error.what, error.needed, error.budget)
    return result, expanded, judged


@settings(max_examples=500, deadline=None)
@given(successor_graphs())
def test_explore_numbers_like_a_two_pass_bfs(case):
    graph, stops, budget = case
    got = explored(explore, *case)
    assert got == explored(reference_explore, *case)
    result, expanded, judged = got
    if result[0] == "graph nodes":
        assert result == ("graph nodes", budget + 1, budget)
        return
    nodes, rows = result
    assert expanded == nodes[: len(rows)]
    if stops is not None:
        assert judged == nodes
    if stops and nodes[-1] in stops:
        # the walk stopped there: the last row ends at the stop node
        assert len(rows) < len(nodes)
        assert rows == [] or rows[-1][-1] == len(nodes) - 1
    else:
        assert len(rows) == len(nodes)


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_subset_and_function_automata_are_bfs_numbered(auto):
    dfa = determinize(auto)
    for table in (dfa, sqrt_dfa(dfa)):
        # read row-major after the start 0, new ids first appear as 1, 2, 3, ...
        ids = [0] + [i for row in table.transitions for i in row]
        assert table.initial == 0
        assert list(dict.fromkeys(ids)) == list(range(table.n_states))
