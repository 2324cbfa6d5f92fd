"""The two gates: one place resolves the budget and refuses a phase, and
one place tells an integer argument in range from anything else."""

import ast
from pathlib import Path

import pytest

from conftest import NFA_AA
from sqrtnfa import (
    Dfa,
    Nfa,
    RandomSpec,
    TripleCodec,
    Violation,
    accept_table,
    case_holds,
    certify_lower_bound,
    determinize,
    member,
    pivot_l,
    pivot_m,
    random_nfa,
    reach,
    triple_labels,
    witness,
    witness_alphabet,
)
from sqrtnfa import fooling
from sqrtnfa.config import charge, check_int, effective_budget
from sqrtnfa.errors import BudgetExceededError

SOURCES = Path(__file__).resolve().parent.parent / "src" / "sqrtnfa"


def parse_sources() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SOURCES.glob("*.py"))
    }


def function(tree: ast.AST, name: str) -> ast.FunctionDef:
    (node,) = (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)
    return node


def calls(tree: ast.AST, name: str) -> int:
    """How many ``name(...)`` calls, bare or dotted, a tree holds."""
    funcs = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return sum(
        name in (getattr(func, "id", None), getattr(func, "attr", None)) for func in funcs
    )


def call_sites(trees: dict[str, ast.Module], name: str) -> dict[str, int]:
    return {module: count for module, tree in trees.items() if (count := calls(tree, name))}


def test_only_the_gate_constructs_budget_errors():
    trees = parse_sources()
    assert call_sites(trees, "BudgetExceededError") == {"config.py": 1}
    assert calls(function(trees["config.py"], "charge"), "BudgetExceededError") == 1


def test_one_builder_assembles_every_explored_dfa():
    # the subset and function automata share one layout: nfa._explored_dfa
    # makes the one Dfa(...) call, and only nfa.py explores
    trees = parse_sources()
    assert call_sites(trees, "Dfa") == {"nfa.py": 1}
    assert calls(function(trees["nfa.py"], "_explored_dfa"), "Dfa") == 1
    assert set(call_sites(trees, "explore")) == {"nfa.py"}


def attribute_readers(trees: dict[str, ast.Module], attr: str) -> set[tuple[str, str | None]]:
    """The top-level statements, as (module, name), whose code reads
    ``x.attr``; a statement that is no function or class is named None."""
    return {
        (module, getattr(node, "name", None))
        for module, tree in trees.items()
        for node in tree.body
        if any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node))
    }


def test_one_lane_steps_on_every_letter():
    # all-letter steps read the per-byte tables only through _stepper,
    # and no per-state column list is left beside them
    trees = parse_sources()
    assert attribute_readers(trees, "tables") == {
        ("nfa.py", "_SuccessorIndex"), ("nfa.py", "_stepper")
    }
    assert attribute_readers(trees, "columns") == set()


def test_only_nfa_py_decodes_a_whole_relation():
    # a relation is read as keys; Relation.array decodes all of them into
    # (k, 3) rows on every read, so no module but nfa.py reads it, by any
    # name: every other ``.array`` is numpy's
    trees = parse_sources()
    readers = {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "array"
        and getattr(node.value, "id", None) != "np"
    }
    assert readers == {"nfa.py"}


def callers(trees: dict[str, ast.Module], name: str) -> set[tuple[str, str | None]]:
    """The top-level statements, as (module, name), whose code calls
    ``name(...)``, bare or dotted."""
    return {
        (module, getattr(node, "name", None))
        for module, tree in trees.items()
        for node in tree.body
        if calls(node, name)
    }


def test_one_walk_squares_relations_and_the_trial_tabulates_nothing():
    # the relation DFA and square_accept_table step relations only through
    # nfa._square_walk, and a random-equiv trial is one product walk:
    # cli.py reads no word flags and calls no acceptance table
    trees = parse_sources()
    assert callers(trees, "_mask_step") == {("nfa.py", "_square_walk")}
    called = {
        getattr(node.func, "id", "") or getattr(node.func, "attr", "")
        for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.Call)
    }
    assert {name for name in called if name.endswith("accept_table")} == set()
    assert "_word_flags" not in called


def test_each_route_automaton_is_one_explored_dfa_over_its_walk():
    # sqrt_dfa and relation_dfa lay out the walks a random-equiv trial
    # steps itself: cli.py builds neither automaton
    trees = parse_sources()
    for name, walk in (("sqrt_dfa", "_function_walk"), ("relation_dfa", "_square_walk")):
        body = function(trees["oracle.py"], name).body
        assert isinstance(body[0].value, ast.Constant)  # the docstring
        (statement,) = body[1:]
        assert isinstance(statement, ast.Return), name
        call = statement.value
        assert call.func.id == "_explored_dfa", name
        (walked,) = [arg.value for arg in call.args if isinstance(arg, ast.Starred)]
        assert walked.func.id == walk, name
        assert calls(trees["cli.py"], name) == 0, name


def word_extenders(trees: dict[str, ast.Module]) -> set[tuple[str, str | None]]:
    """The top-level statements, as (module, name), whose code adds a
    tuple display to something, as ``word + (letter,)`` does."""
    return {
        (module, getattr(node, "name", None))
        for module, tree in trees.items()
        for node in tree.body
        if any(
            isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)
            and isinstance(n.right, ast.Tuple)
            for n in ast.walk(node)
        )
    }


def test_one_walk_reads_words_off_the_product():
    # difference_witness and the random-equiv trial walk one product of
    # walks (nfa._product), and only nfa._first_split rebuilds a word from
    # explore's rows: no second search reads words off a word table or a
    # rank; the trial's three routes are one walk, not two equivalences
    # and a relation DFA
    trees = parse_sources()
    assert word_extenders(trees) == {("nfa.py", "_first_split")}
    assert callers(trees, "_first_split") == {
        ("nfa.py", "difference_witness"), ("cli.py", "_route_mismatch")
    }
    assert callers(trees, "_product") == {("nfa.py", "_first_split")}
    defined = {
        n.name for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef)
    }
    gone = {
        "_pair_graph", "_pair", "bounded_equal", "enumerate_words", "rank_to_word", "level_offset"
    }
    assert defined.isdisjoint(gone), defined & gone
    for name in ("equivalent", "difference_witness", "relation_dfa"):
        assert calls(trees["cli.py"], name) == 0, name


def writing_opens(trees: dict[str, ast.Module]) -> set[tuple[str, str | None]]:
    """The top-level statements, as (module, name), that call ``open`` with
    a mode that writes, or with a mode that is not a string literal."""
    sites = set()
    for module, tree in trees.items():
        for node in tree.body:
            for call in ast.walk(node):
                if not isinstance(call, ast.Call) or "open" not in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None)
                ):
                    continue
                modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
                mode = ast.Constant("r") if not modes else modes[0]
                if set(str(getattr(mode, "value", "?"))) & set("wax+?"):
                    sites.add((module, getattr(node, "name", None)))
    return sites


def test_one_writer_streams_every_output_file():
    # text goes out piece by piece through cli._write_pieces: no whole-text
    # write_text, and no other open for writing
    trees = parse_sources()
    assert call_sites(trees, "write_text") == {}
    assert call_sites(trees, "write_bytes") == {}
    assert writing_opens(trees) == {("cli.py", "_write_pieces")}


def flat_divisions(tree: ast.AST) -> int:
    """How many ``divmod`` calls, bare or dotted, and ``//`` or ``%``
    operators a tree holds."""
    return calls(tree, "divmod") + sum(
        isinstance(getattr(node, "op", None), (ast.FloorDiv, ast.Mod)) for node in ast.walk(tree)
    )


def test_no_module_keeps_state_behind_a_global_statement():
    # what one check shares with another is passed as a value (the witness
    # grid) or cached by value (lru_cache), never kept in a rebound module
    # variable
    sites = {
        name: [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
        for name, tree in parse_sources().items()
    }
    assert len(sites) > 10
    assert {name: lines for name, lines in sites.items() if lines} == {}


def alphabet_scans(tree: ast.AST) -> list[int]:
    """The lines of ``.index(...)`` calls on a name or attribute that
    holds ``alphabet``: each scans the alphabet for one letter."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "index"
        and "alphabet" in (
            getattr(node.func.value, "id", None) or getattr(node.func.value, "attr", None) or ""
        )
    ]


def test_no_letter_is_looked_up_by_scanning_an_alphabet():
    # a scan per letter makes parsing a word list quadratic in the
    # alphabet; letters are looked up in a dict built once per automaton
    sites = {name: alphabet_scans(tree) for name, tree in parse_sources().items()}
    assert len(sites) > 10
    assert {name: lines for name, lines in sites.items() if lines} == {}


def test_only_the_codec_splits_flat_triples():
    # the cube, the witness payloads and the kernels' cells share one
    # flat (p, q, r) layout, divided only in TripleCodec.split
    trees = parse_sources()
    sites = {name: flat_divisions(trees[name]) for name in ("sqrt.py", "witness.py", "kernels.py")}
    assert sites == {"sqrt.py": 2, "witness.py": 0, "kernels.py": 0}
    assert flat_divisions(function(trees["sqrt.py"], "split")) == 2


def test_the_square_table_reads_the_automaton():
    # the witness letters have one encoding, the relation witness.witness
    # builds: the table runs the automaton it is given, and neither
    # re-derives the pivot maps nor splits payloads, nor do the helpers
    # that read its letter slots and compute its cells
    tree = parse_sources()["kernels.py"]
    for name in ("witness_square_table", "_letter_slots", "_square_cells"):
        body = ast.walk(function(tree, name))
        names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in body}
        assert names.isdisjoint({"_PIVOT_L", "_PIVOT_M", "TripleCodec"}), name


def test_certify_asks_the_oracle_once_per_diagonal_orbit(monkeypatch):
    # condition 1 is read off the table; the oracle cross-checks the 365
    # diagonal orbit representatives, not all 13^3 = 2,197 pairs
    words = []

    def spy(auto, word):
        words.append(word)
        return member(auto, word)

    monkeypatch.setattr(fooling, "member", spy)
    assert certify_lower_bound(13).certified
    assert 0 < len(words) <= 365


def integral_references(tree: ast.AST) -> int:
    """How many references to ``Integral``, bare or dotted, a tree holds
    (the import itself is not one)."""
    return sum(
        "Integral" in (getattr(node, "id", None), getattr(node, "attr", None))
        for node in ast.walk(tree)
    )


def test_only_the_gate_tests_for_integers():
    trees = parse_sources()
    sites = {
        name: count for name, tree in trees.items() if (count := integral_references(tree))
    }
    assert sites == {"config.py": 1}
    assert integral_references(function(trees["config.py"], "check_int")) == 1
    # nfa.py's own integer tests stay gone: the bulk pass over Dfa tables
    # and the 64-bit range of relation entries
    names = {
        getattr(node, "id", None) or getattr(node, "name", None)
        for node in ast.walk(trees["nfa.py"])
    }
    assert names.isdisjoint({"_plain_rows", "_INT64"}), names & {"_plain_rows", "_INT64"}


def test_check_int_returns_an_int_in_range_and_names_the_argument():
    assert check_int(3, "x") == 3
    assert type(check_int(True, "x")) is int
    assert check_int(0, "x", 0, 1) == 0
    with pytest.raises(ValueError, match="^x 2.5 is not an integer$"):
        check_int(2.5, "x")
    with pytest.raises(ValueError, match="^x '3' is not an integer$"):
        check_int("3", "x")
    with pytest.raises(ValueError, match="^x -1 out of range$"):
        check_int(-1, "x", 0)
    with pytest.raises(ValueError, match="^x 1 out of range$"):
        check_int(1, "x", 0, 1)


def test_charge_refuses_past_the_budget_and_returns_it():
    assert charge("cells", 100, 100) == 100
    with pytest.raises(BudgetExceededError, match="^cells: needs 101, exceeds budget 100$"):
        charge("cells", 101, 100)


@pytest.mark.parametrize("override", [2.5, "100"])
def test_a_budget_that_is_not_an_integer_is_refused(override):
    with pytest.raises(ValueError, match=f"^budget {override!r} is not an integer$"):
        effective_budget(override)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TripleCodec(6).encode(1.5, 0, 0),
        lambda: TripleCodec(6).decode(5.0),
        lambda: case_holds(1, (0.5, 0, 0), (0, 0, 0), 6),
        lambda: accept_table(random_nfa(RandomSpec(seed=1)), 2.5),
    ],
    ids=["encode", "decode", "case_holds", "accept_table"],
)
def test_codecs_refuse_non_integers(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Nfa(2.5, ("a",), {0}, set(), ()),
        lambda: Nfa(2, ("a",), {2.5}, set(), ()),
        lambda: Nfa(2, ("a",), {0}, {2.5}, ()),
        lambda: Dfa(2.5, ("a",), 0, set(), ((0,), (0,))),
        lambda: Dfa(2, ("a",), 2.5, set(), ((0,), (0,))),
        lambda: Dfa(2, ("a",), 0, {2.5}, ((0,), (0,))),
        lambda: Dfa(2, ("a",), 0, set(), ((2.5,), (0,))),
        lambda: determinize(NFA_AA).run((2.5,)),
        lambda: reach(NFA_AA, {2.5}, ()),
        lambda: reach(NFA_AA, {0}, (2.5,)),
        lambda: member(NFA_AA, (0, 2.5)),
        lambda: TripleCodec(2.5),
        lambda: TripleCodec(6).encode(0, 2.5, 0),
        lambda: TripleCodec(6).decode(2.5),
        lambda: triple_labels(2.5),
        lambda: case_holds(2.5, (0, 0, 0), (0, 0, 0), 6),
        lambda: case_holds(1, (0, 0, 0), (0, 2.5, 0), 6),
        lambda: witness(2.5),
        lambda: witness_alphabet(2.5),
        lambda: accept_table(NFA_AA, 2.5),
        lambda: RandomSpec(seed=2.5),
        lambda: RandomSpec(seed=1, max_states=2.5),
        lambda: RandomSpec(seed=1, alphabet_size=2.5),
        lambda: pivot_l(2.5),
        lambda: pivot_m(2.5),
        lambda: Violation("cond1", 2.5),
        lambda: Violation("cond2", 1, 2.5),
    ],
    ids=[
        "nfa-count", "nfa-initial", "nfa-final", "dfa-count", "dfa-initial",
        "dfa-final", "dfa-target", "dfa-run", "reach-state", "reach-letter", "member",
        "codec-n", "encode", "decode", "triple_labels", "case-id", "case-triple", "witness-n", "witness_alphabet-n", "walk-max_len",
        "spec-seed", "spec-max_states", "spec-alphabet_size", "pivot_l", "pivot_m",
        "violation-i", "violation-j",
    ],
)
def test_every_gated_argument_refuses_a_float(call):
    with pytest.raises(ValueError, match="2.5 is not an integer"):
        call()
