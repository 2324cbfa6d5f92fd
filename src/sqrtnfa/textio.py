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
order), so emit(parse(emit(x))) is byte-identical to emit(x).  It is made
in blocks of rows, which the CLI writes out one at a time.

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

from .errors import FormatError
from .nfa import Nfa, Relation, pack

_CHUNK = 1 << 16  # characters of trans lines tokenized at a time
_ROWS = 1 << 14  # trans lines emitted per piece


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
    except (ValueError, KeyError, OverflowError):  # the per-line parser reports it
        nfa = None
    return nfa if nfa is not None else Nfa(**_parse_lines(text))


def _parse_canonical(text: str) -> Nfa | None:
    """The automaton of a text whose ``trans`` block is exactly what
    ``emit_nfa`` writes for it, else None.  A bad token, a ragged chunk,
    an entry beyond int64 or an automaton ``Nfa`` refuses raises
    ``ValueError``, ``KeyError`` or ``OverflowError`` instead.

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
    ``ValueError``.
    """
    return "".join(_pieces(nfa, state_labels))


def _pieces(nfa: Nfa, state_labels: dict[int, str] | None = None) -> Iterator[str]:
    """The canonical text in pieces: the header, then the ``trans`` lines
    ``_ROWS`` at a time.  The header is built at the call, so a bad label
    raises before any piece is taken.

    Each block decodes its own keys and indexes one ``"trans {s} "`` and
    one ``" {d}\\n"`` string per state with the decoded columns; the
    tables cover every state unless the state numbers are sparse, where
    they cover only the states in use."""
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

    relation, n = nfa.transitions, nfa.n_states
    used = None
    if n <= 2 * len(relation):
        states = range(n)
    else:
        source, _, target = relation.unpack()
        used = np.unique(np.concatenate([source, target]))
        states = used.tolist()
    heads = np.array([f"trans {s} " for s in states], dtype=object)
    tails = np.array([f" {d}\n" for d in states], dtype=object)
    names = np.array(nfa.alphabet, dtype=object)

    def block(rows: slice) -> str:
        source, letter, target = relation.unpack(rows)
        if used is not None:
            source, target = np.searchsorted(used, source), np.searchsorted(used, target)
        body = (heads[source], names[letter], tails[target])
        return "".join(np.column_stack(body).ravel().tolist())

    step = _ROWS
    blocks = (block(slice(i, i + step)) for i in range(0, len(relation), step))
    return chain(["\n".join(lines) + "\n"], blocks)
