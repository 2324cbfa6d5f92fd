"""Length-lexicographic enumeration of words over an indexed alphabet.

Words are tuples of letter indices.  Rank 0 is the empty word, followed by
all length-1 words in letter order, then length-2, and so on.  The
acceptance tables of :mod:`sqrtnfa.nfa` are indexed by this rank, and
:func:`rank_to_word` reads a word off its rank; :func:`walk_word_tree` is
the one walk that builds such tables.  :func:`explore`, the one
breadth-first numbering of reachable nodes, serves it, the subset,
function and product automata, and ``trim``.
"""

from collections.abc import Callable, Hashable, Sequence

import numpy as np

from .config import charge, check_int, effective_budget

Word = tuple[int, ...]


def level_offset(sigma: int, length: int) -> int:
    """Number of words strictly shorter than ``length``."""
    check_int(sigma, "alphabet size", 1)
    check_int(length, "length", 0)
    if sigma == 1:
        return length
    return (sigma**length - 1) // (sigma - 1)


def count_words(sigma: int, max_len: int) -> int:
    """Number of words of length <= max_len."""
    return level_offset(sigma, check_int(max_len, "max_len", 0) + 1)


def rank_to_word(sigma: int, rank: int) -> Word:
    rank = check_int(rank, "rank", 0)
    length = 0
    while level_offset(sigma, length + 1) <= rank:
        length += 1
    value = rank - level_offset(sigma, length)
    digits = [0] * length
    for i in range(length - 1, -1, -1):
        digits[i] = value % sigma
        value //= sigma
    return tuple(digits)


def explore(
    start: Hashable,
    successors: Callable[[Hashable], Sequence[Hashable]],
    budget: int | None,
    what: str,
    depth: int | None = None,
    stop: Callable[[Hashable], object] | None = None,
) -> tuple[list[Hashable], list[list[int]]]:
    """Number every node reachable from ``start`` breadth first: ``(nodes, rows)``.

    ``rows[i]`` holds the ids of ``successors(nodes[i])`` in letter order,
    and ids go by first sight.  Nodes first seen at ``depth`` get ids but
    are not expanded.  The walk ends early at the first numbered node that
    satisfies ``stop``; it is then ``nodes[-1]``, and the last row may
    name ids past it.  More than ``budget`` nodes (default from
    :mod:`sqrtnfa.config`) raises ``BudgetExceededError(what, budget + 1,
    budget)``.
    """
    budget = effective_budget(budget)
    ids = {start: 0}
    nodes = [start]
    rows: list[list[int]] = []
    if stop is not None and stop(start):
        return nodes, rows
    level = 0
    while len(rows) < len(nodes) and level != depth:  # depth None: no limit
        for node in nodes[len(rows) :]:  # one level: sliced before it grows
            kids = successors(node)
            row = [ids.setdefault(kid, len(ids)) for kid in kids]
            rows.append(row)
            if len(ids) > len(nodes):  # first sights: append them in id order
                for i, kid in zip(row, kids):
                    if i == len(nodes):
                        if i == budget:
                            charge(what, budget + 1, budget)
                        nodes.append(kid)
                        if stop is not None and stop(kid):
                            return nodes, rows
        level += 1
    return nodes, rows


def walk_word_tree(
    start: Hashable,
    successors: Callable[[Hashable], Sequence[Hashable]],
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
