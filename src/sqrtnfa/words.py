"""Length-lexicographic enumeration of words over an indexed alphabet.

Words are tuples of letter indices.  Rank 0 is the empty word, followed by
all length-1 words in letter order, then length-2, and so on.  The batched
kernels emit acceptance tables indexed by this rank, and these helpers map
between ranks and words; :func:`walk_word_tree` is the one walk that
builds such tables.
"""

from collections.abc import Callable, Hashable, Iterator, Sequence

import numpy as np

Word = tuple[int, ...]


def level_offset(sigma: int, length: int) -> int:
    """Number of words strictly shorter than ``length``."""
    if sigma < 1:
        raise ValueError("alphabet size must be at least 1")
    if sigma == 1:
        return length
    return (sigma**length - 1) // (sigma - 1)


def count_words(sigma: int, max_len: int) -> int:
    """Number of words of length <= max_len."""
    return level_offset(sigma, max_len + 1)


def word_to_rank(sigma: int, word: Word) -> int:
    value = 0
    for a in word:
        if not 0 <= a < sigma:
            raise ValueError(f"letter index {a} out of range for alphabet size {sigma}")
        value = value * sigma + a
    return level_offset(sigma, len(word)) + value


def rank_to_word(sigma: int, rank: int) -> Word:
    if rank < 0:
        raise ValueError("rank must be non-negative")
    length = 0
    while level_offset(sigma, length + 1) <= rank:
        length += 1
    value = rank - level_offset(sigma, length)
    digits = [0] * length
    for i in range(length - 1, -1, -1):
        digits[i] = value % sigma
        value //= sigma
    return tuple(digits)


def iter_words(sigma: int, max_len: int) -> Iterator[Word]:
    """All words of length <= max_len in length-lexicographic order."""
    level: list[Word] = [()]
    yield ()
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in level:
            for a in range(sigma):
                wa = w + (a,)
                nxt.append(wa)
                yield wa
        level = nxt


def walk_word_tree(
    start: Hashable,
    successors: Callable[[Hashable], Sequence[Hashable]],
    accepting: Callable[[Hashable], bool],
    sigma: int,
    max_len: int,
) -> np.ndarray:
    """Flag of every word of length <= max_len, in rank order.

    A word's node is reached from ``start`` by ``successors``, which maps a
    node to its ``sigma`` children in letter order; the word's flag is
    ``accepting`` of its node.  Each distinct node gets an id on first
    sight and is expanded and judged once; nodes first seen at depth
    ``max_len`` are never expanded.  The levels are then walked on ids,
    so sigma**max_len must be affordable.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    ids = {start: 0}  # insertion order is id order
    rows: list[list[int]] = []  # children's ids of every expanded node
    frontier = [start]
    for _ in range(max_len):
        seen = len(ids)
        # frontier nodes hold consecutive ids, so rows stay in id order
        rows += [[ids.setdefault(c, len(ids)) for c in successors(node)] for node in frontier]
        frontier = list(ids)[seen:]
    flags = np.array([bool(accepting(node)) for node in ids], dtype=np.bool_)
    step = np.array(rows, dtype=np.intp).reshape(-1, sigma)
    # child of word i on letter a sits at level index i*sigma + a
    levels = [np.zeros(1, dtype=np.intp)]
    for _ in range(max_len):
        levels.append(step[levels[-1]].reshape(-1))
    return flags[np.concatenate(levels)]
