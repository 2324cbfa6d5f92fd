"""Line-oriented text serialization for automata.

Format (UTF-8, ``#`` starts a comment anywhere on a line):

    states <n>
    alphabet <name1> <name2> ...
    initial <i1> <i2> ...
    final <f1> <f2> ...
    trans <src> <letter-name> <dst>

``states`` and ``alphabet`` are required and must precede every ``trans``
line; ``initial``/``final`` may be empty or omitted.  ``emit_nfa`` writes
the canonical form (directives in the order above, transitions in sorted
order), so emit(parse(emit(x))) is byte-identical to emit(x).  The
``trans`` lines are cut from padded byte tables (:func:`_line_tables`) in
blocks of under 128 KiB, which the CLI writes out one at a time.

``parse_nfa`` reads canonical text on a key path: the header line by
line, the ``trans`` block as flat token lists packed into one array of
keys (see :class:`~sqrtnfa.nfa.Relation`), accepted only when emitting
the result gives the block back byte for byte, block by block.  Any
other text (comments or blank lines among the transitions, unsorted
lines, CRLF, a bad token) goes through the per-line parser, which is the
reference and the only reporter of a ``FormatError``.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, islice

import numpy as np

from .config import charge
from .errors import BudgetExceededError, FormatError
from .nfa import Nfa, Relation, pack

_CHUNK = 1 << 16  # characters of trans lines tokenized at a time
# bytes of table rows per emitted piece: below glibc's 128 KiB mmap
# threshold, so a block's buffers reuse heap memory, not fresh mappings
_BLOCK = 127 << 10


def _int_token(token: str, line_no: int, column: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {token!r}", line_no, column)


def parse_nfa(text: str) -> Nfa:
    """The automaton a text describes; the first bad line raises
    ``FormatError`` with its line and column."""
    try:
        nfa = _parse_canonical(text)
    # the per-line parser reports it; a refused line table falls back too
    except (ValueError, KeyError, OverflowError, BudgetExceededError):
        nfa = None
    return nfa if nfa is not None else Nfa(**_parse_lines(text))


def _parse_canonical(text: str) -> Nfa | None:
    """The automaton of a text whose ``trans`` block is exactly what
    ``emit_nfa`` writes for it, else None.  A bad token, a ragged chunk,
    an entry beyond int64 or an automaton ``Nfa`` refuses raises
    ``ValueError``, ``KeyError`` or ``OverflowError`` instead, and line
    tables the budget refuses raise ``BudgetExceededError``.

    The block is split into tokens a chunk of whole lines at a time, which
    keeps the token strings of only one chunk alive, and each chunk is
    packed into keys unchecked: a row out of range packs to a wrong key,
    whose emitted line then differs from the block.
    """
    start = text.find("\ntrans ") + 1
    if not start:
        return None
    fields = _parse_lines(text[:start])
    if fields["transitions"]:  # on the first line, or indented
        return None
    n, sigma = fields["n_states"], len(fields["alphabet"])
    letter_index = dict(zip(fields["alphabet"], range(sigma)))
    block, chunks, begin = text[start:], [], 0
    while begin < len(block):
        end = block.find("\n", begin + _CHUNK) + 1 or len(block)
        tokens = block[begin:end].split()
        columns = (
            list(map(int, tokens[1::4])),
            list(map(letter_index.__getitem__, tokens[2::4])),
            list(map(int, tokens[3::4])),
        )
        chunks.append(pack(*np.array(columns, dtype=np.int64), n, sigma))
        begin = end
    keys = np.concatenate(chunks)
    nfa = Nfa(**{**fields, "transitions": Relation(keys, n, sigma)})
    pos = 0
    for piece in islice(_pieces(nfa), 1, None):  # the trans blocks
        if not block.startswith(piece, pos):
            return None
        pos += len(piece)
    return nfa if pos == len(block) else None


def _parse_lines(text: str) -> dict:
    """The ``Nfa`` fields of a text, read one line at a time; the first bad
    line raises ``FormatError`` with its line and column."""
    n_states: int | None = None
    alphabet: tuple[str, ...] | None = None
    letter_index: dict[str, int] = {}
    initial: list[int] = []
    final: list[int] = []
    seen: dict[str, int] = {}
    triples: list[tuple[int, int, int]] = []
    triple_set: set[tuple[int, int, int]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        directive, args = tokens[0], tokens[1:]
        col = raw.index(directive) + 1

        if directive in ("states", "alphabet", "initial", "final"):
            if directive in seen:
                raise FormatError(
                    f"duplicate {directive!r} line (first on line {seen[directive]})",
                    line_no,
                    col,
                )
            seen[directive] = line_no

        if directive == "states":
            if len(args) != 1:
                raise FormatError("states takes exactly one count", line_no, col)
            n_states = _int_token(args[0], line_no, col, "state count")
            if n_states < 1:
                raise FormatError("state count must be at least 1", line_no, col)
        elif directive == "alphabet":
            if not args:
                raise FormatError("alphabet must list at least one letter", line_no, col)
            for name in args:
                if name in letter_index:
                    raise FormatError(f"duplicate letter {name!r}", line_no, col)
                letter_index[name] = len(letter_index)
            alphabet = tuple(args)
        elif directive in ("initial", "final"):
            if n_states is None:
                raise FormatError(f"{directive} before states line", line_no, col)
            bucket = initial if directive == "initial" else final
            for token in args:
                s = _int_token(token, line_no, col, "state index")
                if not 0 <= s < n_states:
                    raise FormatError(f"state index {s} out of range", line_no, col)
                bucket.append(s)
        elif directive == "trans":
            if n_states is None or alphabet is None:
                raise FormatError("trans before states/alphabet lines", line_no, col)
            if len(args) != 3:
                raise FormatError("trans takes <src> <letter-name> <dst>", line_no, col)
            src = _int_token(args[0], line_no, col, "source state")
            dst = _int_token(args[2], line_no, col, "target state")
            if not 0 <= src < n_states:
                raise FormatError(f"source state {src} out of range", line_no, col)
            if not 0 <= dst < n_states:
                raise FormatError(f"target state {dst} out of range", line_no, col)
            if args[1] not in letter_index:
                raise FormatError(f"unknown letter {args[1]!r}", line_no, col)
            triple = (src, letter_index[args[1]], dst)
            if triple in triple_set:
                raise FormatError(
                    f"duplicate transition {args[0]} {args[1]} {args[2]}", line_no, col
                )
            triple_set.add(triple)
            triples.append(triple)
        else:
            raise FormatError(f"unknown directive {directive!r}", line_no, col)

    if n_states is None:
        raise FormatError("missing states line")
    if alphabet is None:
        raise FormatError("missing alphabet line")
    return dict(
        n_states=n_states,
        alphabet=alphabet,
        initial=frozenset(initial),
        final=frozenset(final),
        transitions=tuple(triples),
    )


def emit_nfa(nfa: Nfa, state_labels: dict[int, str] | None = None) -> str:
    """Canonical text for an automaton.

    ``state_labels`` adds informational comment lines (one per labeled
    state) after the header; parsers ignore them, so labeled output parses
    back to the same automaton.  A label that would break its line raises
    ``ValueError``; line tables too wide for the budget of the environment,
    ``BudgetExceededError``.
    """
    return "".join(_pieces(nfa, state_labels))


def _pieces(
    nfa: Nfa, state_labels: dict[int, str] | None = None, budget: int | None = None
) -> Iterator[str]:
    """The canonical text in pieces: the header, then the ``trans`` lines,
    ``_BLOCK`` bytes of :func:`_line_tables` rows at a time, each line the
    OR of three rows less its 0xFF bytes.  The header and tables are built
    at the call, so a bad label or a refused table raises before any piece."""
    lines = [f"states {nfa.n_states}"]
    if state_labels:
        order = sorted(state_labels)
        labels = [f"{state_labels[s]}" for s in order]
        # one split of all labels, as the parser splits lines, finds any break
        if len(("".join(labels) + ".").splitlines()) != 1:
            s = next(s for s, label in zip(order, labels) if len(f"{label}.".splitlines()) != 1)
            raise ValueError(f"label of state {s} contains a line break")
        lines.extend(f"# state {s} = {label}" for s, label in zip(order, labels))
    lines.append("alphabet " + " ".join(nfa.alphabet))
    lines.append(("initial " + " ".join(str(s) for s in sorted(nfa.initial))).rstrip())
    lines.append(("final " + " ".join(str(s) for s in sorted(nfa.final))).rstrip())
    header = ["\n".join(lines) + "\n"]

    relation, n = nfa.transitions, nfa.n_states
    if not len(relation):
        return iter(header)
    used = None  # sparse state numbers: tables for the states in use only
    if n <= 2 * len(relation):
        states = range(n)
    else:
        source, _, target = relation.unpack()
        used = np.unique(np.concatenate([source, target]))
        states = used.tolist()
    heads, names, tails = _line_tables(list(map(str, states)), nfa.alphabet, budget)

    def block(rows: slice) -> str:
        source, letter, target = relation.unpack(rows)
        if used is not None:
            source, target = np.searchsorted(used, source), np.searchsorted(used, target)
        line = heads.take(source).view(np.uint8)
        line |= names.take(letter).view(np.uint8)
        line |= tails.take(target).view(np.uint8)
        return line.tobytes().translate(None, b"\xff").decode("utf-8", "surrogatepass")

    step = max(1, _BLOCK // heads.itemsize)
    blocks = (block(slice(i, i + step)) for i in range(0, len(relation), step))
    return chain(header, blocks)


def _line_tables(digits: list[str], alphabet: tuple[str, ...], budget: int | None):
    """The ``"trans {s} "`` of each state number in ``digits``, each letter
    name and each ``" {d}\\n"``, in UTF-8 (``surrogatepass``) rows of one
    ``V{w}`` type: a head, a letter and a tail field, each as wide as its
    widest text, w rounded up to 8 (numpy takes such rows faster).  An entry
    holds its text in its own field, then 0xFF, never in UTF-8, to the
    field's end, and zeros elsewhere.  The letter field's bytes that hold no
    name, (σ + 2m)·w_letter - Σ|name|, are charged first."""
    sections = (  # the entries, cut at a "#", which none of them holds
        "trans " + " #trans ".join(digits) + " ",
        "#".join(alphabet),
        " " + "\n# ".join(digits) + "\n",
    )
    raws = [np.frombuffer(x.encode("utf-8", "surrogatepass"), np.uint8) for x in sections]
    cuts = [raw == ord("#") for raw in raws]
    sizes = [np.diff(np.flatnonzero(cut), prepend=-1, append=cut.size) - 1 for cut in cuts]
    widths = [int(size.max()) for size in sizes]
    padding = (len(alphabet) + 2 * len(digits)) * widths[1] - int(sizes[1].sum())
    charge("emitted letter field padding", padding, budget)
    width = -(-sum(widths) // 8) * 8
    widths[2] += width - sum(widths)
    table = np.zeros((sum(map(len, sizes)), width), np.uint8)
    row = column = 0
    for raw, cut, size, w in zip(raws, cuts, sizes, widths):
        field = table[row : row + len(size), column : column + w]
        field[...] = 0xFF
        field[np.arange(w) < size[:, None]] = raw[~cut]
        row, column = row + len(size), column + w
    return np.split(table.view(f"V{width}").ravel(), np.cumsum([len(digits), len(alphabet)]))
