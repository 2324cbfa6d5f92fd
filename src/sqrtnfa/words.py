"""Length-lexicographic order of words over an indexed alphabet.

Words are tuples of letter indices.  Rank 0 is the empty word, followed by
all length-1 words in letter order, then length-2, and so on.  The
acceptance tables of :mod:`sqrtnfa.nfa` are flags indexed by this rank,
and :func:`walk_word_tree` is the one walk that builds them.
:func:`explore`, the one breadth-first numbering of reachable nodes, in
one pass that reads each node's successors once and numbers each first
sight at once, serves it, ``trim``, the product walk, whose least split
word ``nfa._first_split`` rebuilds from the numbering, and
``nfa._explored_dfa``: the subset and function automata.
"""

from collections.abc import Callable, Hashable, Iterable

import numpy as np

from .config import charge, check_int, effective_budget

Word = tuple[int, ...]


def count_words(sigma: int, max_len: int) -> int:
    """Number of words of length <= max_len, which is also the rank of the
    first word of length max_len + 1: the offset of that level."""
    length = check_int(max_len, "max_len", 0) + 1
    sigma = check_int(sigma, "alphabet size", 1)
    if sigma == 1:
        return length
    return (sigma**length - 1) // (sigma - 1)


def explore(
    start: Hashable,
    successors: Callable[[Hashable], Iterable[Hashable]],
    budget: int | None,
    what: str,
    depth: int | None = None,
    stop: Callable[[Hashable], object] | None = None,
) -> tuple[list[Hashable], list[list[int]]]:
    """Number every node reachable from ``start`` breadth first: ``(nodes, rows)``.

    ``rows[i]`` holds the ids of ``successors(nodes[i])``, read once in
    letter order, and ids go by first sight, so ``nodes`` grows while it is
    read.  Nodes first seen at ``depth`` get ids but are not expanded; only
    :func:`walk_word_tree` sets a depth.  The walk ends early at the first
    numbered node that satisfies ``stop``: it is then ``nodes[-1]``, the
    last row ends at its id, and there are fewer rows than nodes (with no
    depth, only then).  More than ``budget`` nodes (default from
    :mod:`sqrtnfa.config`) raises ``BudgetExceededError(what, budget + 1,
    budget)``.
    """
    budget = effective_budget(budget)
    ids = {start: 0}
    nodes = [start]
    rows: list[list[int]] = []
    if stop is not None and stop(start):
        return nodes, rows
    level, level_end = 0, 1  # the level of nodes[len(rows)], and its end
    for node in nodes:
        if len(rows) == level_end:
            level, level_end = level + 1, len(nodes)
        if level == depth:  # depth None: no limit
            break
        rows.append(row := [])
        for kid in successors(node):
            i = ids.setdefault(kid, len(nodes))
            row.append(i)
            if i == len(nodes):  # first sight
                if i == budget:
                    charge(what, budget + 1, budget)
                nodes.append(kid)
                if stop is not None and stop(kid):
                    return nodes, rows
    return nodes, rows


def walk_word_tree(
    start: Hashable,
    successors: Callable[[Hashable], Iterable[Hashable]],
    accepting: Callable[[Hashable], bool],
    sigma: int,
    max_len: int,
    budget: int | None = None,
) -> np.ndarray:
    """Flag of every word of length <= max_len, in rank order.

    A word's node is reached from ``start`` by ``successors``, which maps a
    node to its ``sigma`` children in letter order; the word's flag is
    ``accepting`` of its node.  :func:`explore` numbers the distinct nodes
    to depth ``max_len``, each expanded and judged once, and the levels are
    then walked on ids.  The ``count_words(sigma, max_len)`` words must fit
    ``budget`` (default from :mod:`sqrtnfa.config`) before anything is
    allocated.
    """
    words = count_words(sigma, max_len)  # checks max_len
    charge("word tree words", words, budget)
    # no more distinct nodes than words, so this budget never fires
    nodes, rows = explore(start, successors, words, "word tree words", depth=max_len)
    flags = np.array([bool(accepting(node)) for node in nodes], dtype=np.bool_)
    step = np.array(rows, dtype=np.intp).reshape(-1, sigma)
    # child of word i on letter a sits at level index i*sigma + a
    levels = [np.zeros(1, dtype=np.intp)]
    for _ in range(max_len):
        levels.append(step[levels[-1]].reshape(-1))
    return flags[np.concatenate(levels)]
