import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtnfa import (
    BudgetExceededError, FormatError, Nfa, emit_nfa, member, parse_nfa, sqrt_nfa, textio,
    witness,
)
from sqrtnfa.sqrt import triple_labels
from conftest import make_nfa, nfas, triples


def emit_reference(nfa, state_labels=None):
    """Canonical text written one f-string per line: the audit reference
    for the table-driven emission."""
    lines = [f"states {nfa.n_states}"]
    for s in sorted(state_labels or {}):
        lines.append(f"# state {s} = {state_labels[s]}")
    lines.append("alphabet " + " ".join(nfa.alphabet))
    lines.append(("initial " + " ".join(str(s) for s in sorted(nfa.initial))).rstrip())
    lines.append(("final " + " ".join(str(s) for s in sorted(nfa.final))).rstrip())
    for src, letter, dst in triples(nfa):
        lines.append(f"trans {src} {nfa.alphabet[letter]} {dst}")
    return "\n".join(lines) + "\n"

GOOD = """\
states 3
alphabet a b
initial 0
final 2
trans 0 a 1
trans 1 b 2
"""


def test_parse_basic():
    a = parse_nfa(GOOD)
    assert a.n_states == 3
    assert a.alphabet == ("a", "b")
    assert a.initial == frozenset({0}) and a.final == frozenset({2})
    assert triples(a) == ((0, 0, 1), (1, 1, 2))


def test_emit_parse_round_trip_is_canonical():
    text = emit_nfa(parse_nfa(GOOD))
    assert parse_nfa(text) == parse_nfa(GOOD)
    assert emit_nfa(parse_nfa(text)) == text


def test_witness6_round_trip_byte_identical(witness6):
    text = emit_nfa(witness6)
    assert emit_nfa(parse_nfa(text)) == text
    assert parse_nfa(text) == witness6


def test_comments_and_blank_lines_ignored():
    text = "# header\nstates 1\n\nalphabet a  # trailing\ninitial 0\nfinal 0\n"
    a = parse_nfa(text)
    assert a.n_states == 1 and a.final == frozenset({0})


def test_empty_final_line_gives_empty_language():
    a = parse_nfa("states 2\nalphabet a\ninitial 0\nfinal\ntrans 0 a 1\n")
    assert a.final == frozenset()
    assert not any(member(a, (0,) * k) for k in range(4))


def test_range_error_carries_line_number():
    bad = "states 6\nalphabet a[9,0,0]\ninitial 0\nfinal 3\ntrans 0 a[9,0,0] 9\n"
    with pytest.raises(FormatError) as info:
        parse_nfa(bad)
    assert info.value.line == 5
    assert "out of range" in str(info.value)


def test_unknown_letter_rejected_with_location():
    bad = GOOD + "trans 0 zz 1\n"
    with pytest.raises(FormatError) as info:
        parse_nfa(bad)
    assert info.value.line == 7


def test_duplicate_transition_rejected():
    with pytest.raises(FormatError, match="duplicate"):
        parse_nfa(GOOD + "trans 0 a 1\n")


def test_duplicate_directive_rejected():
    with pytest.raises(FormatError, match="duplicate 'states'"):
        parse_nfa("states 1\nstates 2\nalphabet a\ninitial 0\nfinal\n")


def test_out_of_family_letter_on_witness_alphabet(witness6):
    text = emit_nfa(witness6) + "trans 0 a[9,0,0] 1\n"
    with pytest.raises(FormatError, match="unknown letter 'a\\[9,0,0\\]'") as info:
        parse_nfa(text)
    assert info.value.line == len(text.splitlines())


def test_missing_sections_rejected():
    with pytest.raises(FormatError):
        parse_nfa("states 1\ninitial 0\nfinal\n")  # no alphabet
    with pytest.raises(FormatError):
        parse_nfa("alphabet a\ninitial 0\nfinal\n")  # no states


def test_trans_before_header_rejected():
    with pytest.raises(FormatError):
        parse_nfa("trans 0 a 1\nstates 2\nalphabet a\ninitial 0\nfinal 1\n")


def test_non_integer_state_rejected():
    with pytest.raises(FormatError, match="integer"):
        parse_nfa("states x\nalphabet a\ninitial 0\nfinal\n")


def test_state_labels_emit_as_ignorable_comments():
    a = parse_nfa(GOOD)
    text = emit_nfa(a, state_labels={0: "(0, 0, 0)", 2: "(0, 1, 0)"})
    assert "# state 0 = (0, 0, 0)" in text
    assert parse_nfa(text) == a
    # a label that breaks its line would inject a directive, or split the comment
    for label in ("zero\ntrans 1 x 0", "x\ninitial 1", "x\rfinal 0", "x\u2028y", "x\r\n"):
        with pytest.raises(ValueError, match="state 0"):
            emit_nfa(a, state_labels={0: label})


def test_the_first_label_with_a_line_break_is_named():
    a = parse_nfa(GOOD)
    cases = [({0: "ok", 1: "x\ry", 2: "x\ny"}, 1), ({2: "x\r", 1: "ok", 0: "\x85"}, 0)]
    for labels, first in cases:
        with pytest.raises(ValueError, match=f"state {first} contains"):
            emit_nfa(a, state_labels=labels)


@settings(max_examples=150)
@given(nfas())
def test_round_trip_identity_on_random_automata(a):
    assert parse_nfa(emit_nfa(a)) == a


@settings(max_examples=200)
@given(nfas())
def test_emit_matches_the_per_line_reference(a):
    assert emit_nfa(a) == emit_reference(a)


def test_emit_matches_the_reference_on_witnesses_and_cubes():
    for n in (6, 7, 8):
        assert emit_nfa(witness(n)) == emit_reference(witness(n))
        cube, labels = sqrt_nfa(witness(n)), triple_labels(n)
        assert emit_nfa(cube, labels) == emit_reference(cube, labels)


def test_emit_with_sparse_state_numbers():
    # state numbers far above the transition count: tables only for states in use
    n = 2**30
    a = Nfa(n, ("x", "y", "z"), {0}, {n - 1}, ((n - 1, 2, 0), (5, 0, n - 1), (5, 1, 5)))
    text = emit_nfa(a)
    assert text == emit_reference(a)
    assert parse_nfa(text) == a


def parse_lines(text):
    """The per-line parser alone: the reference for the array path."""
    return Nfa(**textio._parse_lines(text))


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as error:  # FormatError included: message, line and column
        return type(error), str(error), getattr(error, "line", None), getattr(error, "column", None)


CORRUPTIONS = (
    "drop", "duplicate", "swap", "letter", "range", "plus", "underscore", "digits",
    "comment", "crlf", "join",
)


@st.composite
def emitted_texts(draw):
    a = draw(nfas())
    labels = draw(st.sampled_from([None, {s: str((s, 0, s)) for s in range(a.n_states)}]))
    return a, emit_nfa(a, labels)


@st.composite
def corrupted_texts(draw):
    """An emitted text with one line corrupted (two for a swap, and a join
    runs one line into the next)."""
    a, text = draw(emitted_texts())
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(CORRUPTIONS))
    # trans lines are the usual target; any line may be hit
    trans = [i for i, line in enumerate(lines) if line.startswith("trans ")] or [0]
    pick = st.sampled_from(trans) | st.integers(0, len(lines) - 1)
    i, j = draw(pick), draw(pick)
    tokens = lines[i].split()
    k = draw(st.integers(0, len(tokens) - 1))
    if kind == "drop":
        del tokens[k]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "letter":
        tokens[min(k, 2)] = "zz"
    elif kind == "range":
        tokens[k] = draw(st.sampled_from([str(a.n_states), "-1", str(2**64)]))
    elif kind == "plus":
        tokens[k] = "+" + tokens[k]
    elif kind == "underscore":
        tokens[k] += "_0"
    elif kind == "digits":
        tokens[k] = tokens[k].translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    elif kind == "comment":
        lines[i] = lines[i].rstrip("\n") + "  # note\n"
    elif kind == "join":
        lines[i] = lines[i].rstrip("\n") + " "
    else:
        lines[i] = lines[i].replace("\n", "\r\n")
    if kind in ("drop", "letter", "range", "plus", "underscore", "digits"):
        lines[i] = " ".join(tokens) + "\n"
    return "".join(lines)


@settings(max_examples=200)
@given(emitted_texts())
def test_array_parse_equals_the_per_line_parse(case):
    a, text = case
    assert parse_nfa(text) == parse_lines(text) == a


@settings(max_examples=500)
@given(corrupted_texts())
def test_array_parse_equals_the_per_line_parse_on_corrupted_text(text):
    assert outcome(parse_nfa, text) == outcome(parse_lines, text)


def test_a_trans_line_above_the_canonical_block_is_kept():
    # the array path starts at the first line that begins "trans "
    text = GOOD.replace("trans 0 a 1", " trans 0 a 1")
    assert parse_nfa(text) == parse_lines(text) == parse_nfa(GOOD)


@pytest.mark.parametrize("labelled", [False, True], ids=["witness8", "cube8-labelled"])
def test_canonical_text_never_reaches_the_per_line_trans_code(monkeypatch, labelled):
    a = sqrt_nfa(witness(8)) if labelled else witness(8)
    text = emit_nfa(a, triple_labels(8) if labelled else None)
    seen, per_line = [], textio._parse_lines

    def recording(text):
        seen.append(text)
        return per_line(text)

    monkeypatch.setattr(textio, "_parse_lines", recording)
    assert parse_nfa(text) == a
    assert seen and not any(
        line.split()[:1] == ["trans"] for part in seen for line in part.splitlines()
    )


@st.composite
def sparse_nfas(draw):
    """Automata with more states than twice their transitions, and state
    numbers far apart."""
    n = draw(st.integers(9, 2**30))  # 3 * n * n keys fit in int64
    state = st.integers(0, n - 1)
    sigma = draw(st.integers(1, 3))
    triples = draw(st.sets(st.tuples(state, st.integers(0, sigma - 1), state), max_size=4))
    initial = draw(st.sets(state, min_size=1, max_size=3))
    return make_nfa(n, sigma, sorted(triples), initial, draw(st.sets(state, max_size=3)))


EMPTY = (make_nfa(1, 1, [], {0}, set()), make_nfa(5, 2, [], {0, 4}, {3}))


def row_width(top, alphabet):
    """Bytes per emitted ``trans`` row when the widest state number is
    ``top``: the widest head, letter name and tail, rounded up to 8."""
    name = max(len(x.encode("utf-8", "surrogatepass")) for x in alphabet)
    return -(-(len(f"trans {top} ") + name + len(f" {top}\n")) // 8) * 8


def row_bytes(a):
    """Bytes per emitted ``trans`` row of ``a``: its tables cover every
    state or, when the state numbers are sparse, the states in use."""
    if not len(a.transitions):
        return 1
    sparse = a.n_states > 2 * len(a.transitions)
    top = max(s for t in triples(a) for s in t[::2]) if sparse else a.n_states - 1
    return row_width(top, a.alphabet)


@pytest.mark.parametrize("rows", [1, 2, 3, pytest.param(None, id="default")])
@settings(max_examples=100)
@given(st.one_of(nfas(), sparse_nfas(), st.sampled_from(EMPTY)))
def test_the_block_size_does_not_change_the_text(rows, a):
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(textio, "_BLOCK", rows * row_bytes(a))
        step = textio._BLOCK // row_bytes(a)
        text, pieces = emit_nfa(a), list(textio._pieces(a))
        assert text == emit_reference(a)
        assert len(pieces) == 1 + -(-len(a.transitions) // step)
        assert all(piece.endswith("\n") for piece in pieces[1:])
        assert parse_nfa(text) == a


# letter names as the format allows them: no whitespace and no "#", but any
# other code point, NUL, non-ASCII and lone surrogates among them
NAMES = st.text(
    st.characters(exclude_categories=(), exclude_characters="#"), min_size=1, max_size=40
).filter(lambda name: name.split() == [name])


@st.composite
def block_sized_nfas(draw, offset):
    """Automata over drawn letter names whose relation is one row shorter
    than an emitted block, as long, or one row longer."""
    # at least 91 states: n * n keys cover a block of the narrowest rows
    n = draw(st.integers(91, 150))
    names = tuple(draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)))
    rows = textio._BLOCK // row_width(n - 1, names) + offset
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    pairs, target = np.divmod(np.sort(rng.choice(n * n * len(names), rows, False)), n)
    source, letter = np.divmod(pairs, len(names))
    state = st.integers(0, n - 1)
    initial, final = draw(st.sets(state, min_size=1, max_size=3)), draw(st.sets(state, max_size=3))
    return Nfa(n, names, initial, final, np.column_stack([source, letter, target]))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_emit_matches_the_reference_on_drawn_names_at_block_edges(offset, data):
    a = data.draw(block_sized_nfas(offset))
    text = emit_nfa(a)
    assert text == emit_reference(a)
    assert len(list(textio._pieces(a))) == (3 if offset > 0 else 2)
    assert parse_nfa(text) == a


def test_a_wide_letter_field_is_charged_before_the_tables_are_built():
    # 1,000 letters, one of them 10,000 bytes long: every table entry would
    # carry a 10,000-byte letter field
    names = tuple(f"l{i}" for i in range(999)) + ("x" * 10_000,)
    a = Nfa(2, names, {0}, {1}, ((0, 999, 1), (1, 0, 0)))
    with pytest.raises(BudgetExceededError, match="^emitted letter field padding: needs "):
        emit_nfa(a)
    # the canonical parser verifies by emitting, and falls back when refused
    assert parse_nfa(emit_reference(a)) == a


def test_making_every_block_stays_small():
    # the blocks of the unlabelled witness(12) cube, 165,888 lines, one at a time
    cube = sqrt_nfa(witness(12))
    assert len(cube.transitions) == 165_888
    tracemalloc.start()
    try:
        for _piece in textio._pieces(cube):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def near_canonical_texts():
    """Labelled cube6 text with its last trans line cut short at three
    places, with that line appended again, and with a bare ``trans``
    appended (no row for the array path, so only the length check sees it)."""
    text = emit_nfa(sqrt_nfa(witness(6)), triple_labels(6))
    last = text[text.rindex("\ntrans ") + 1:]
    cuts = [text[:-1], text[:-2], text[: -len(last) + len("trans ") + 1]]
    return cuts + [text + last, text + "trans\n"]


@pytest.mark.parametrize("rows", [1, 3, pytest.param(None, id="default")])
def test_near_canonical_text_falls_back_to_the_per_line_parser(monkeypatch, rows):
    # the comparison walks the emitted blocks; with 1 or 3 rows a block
    # boundary falls inside the cut line, or right before it
    if rows is not None:
        monkeypatch.setattr(textio, "_BLOCK", rows * row_bytes(sqrt_nfa(witness(6))))
    for text in near_canonical_texts():
        try:
            canonical = textio._parse_canonical(text)
        except (ValueError, KeyError, OverflowError):
            canonical = None
        assert canonical is None
        assert outcome(parse_nfa, text) == outcome(parse_lines, text)


def test_state_numbers_past_the_key_limit_are_refused():
    # the old range of the sparse tests: keys 3 * n * n pass int64 from
    # n = 2**32, so the automaton, and a text of it, are refused
    n = 2**32
    message = r"^transition keys need n\*n\*sigma below 2\*\*63, but n = 4294967296"
    with pytest.raises(ValueError, match=message):
        Nfa(n, ("x", "y", "z"), {0}, {n - 1}, ((n - 1, 2, 0), (5, 0, n - 1)))
    text = f"states {n}\nalphabet x y z\ninitial 0\nfinal {n - 1}\ntrans 5 x {n - 1}\n"
    with pytest.raises(ValueError, match=message) as info:
        parse_nfa(text)
    assert not isinstance(info.value, FormatError)


@pytest.mark.parametrize("line", ["trans 0 a 3", "trans 0 b -3", "trans 1 a -1"])
def test_a_row_packed_to_another_rows_key_is_not_read_as_it(line):
    # the key path packs rows unchecked: each of these lines packs to the
    # key of an in-range row, (0, b, 0) or (0, b, 2), whose emitted line differs
    text = f"states 3\nalphabet a b\ninitial 0\nfinal 0\n{line}\n"
    assert textio._parse_canonical(text) is None
    with pytest.raises(FormatError, match="^line 5"):
        parse_nfa(text)
