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
    count_words,
    determinize,
    member,
    pivot_l,
    pivot_m,
    random_nfa,
    rank_to_word,
    reach,
    triple_labels,
    witness,
)
from sqrtnfa.config import charge, check_int, effective_budget
from sqrtnfa.errors import BudgetExceededError
from sqrtnfa.words import level_offset

SOURCES = Path(__file__).resolve().parent.parent / "src" / "sqrtnfa"


def parse_sources() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SOURCES.glob("*.py"))
    }


def function(tree: ast.AST, name: str) -> ast.FunctionDef:
    (node,) = (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)
    return node


def constructions(tree: ast.AST) -> int:
    """How many ``BudgetExceededError(...)`` calls, bare or dotted, a tree holds."""
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return sum(
        "BudgetExceededError" in (getattr(func, "id", None), getattr(func, "attr", None))
        for func in calls
    )


def test_only_the_gate_constructs_budget_errors():
    trees = parse_sources()
    sites = {name: count for name, tree in trees.items() if (count := constructions(tree))}
    assert sites == {"config.py": 1}
    assert constructions(function(trees["config.py"], "charge")) == 1


def integral_references(tree: ast.AST) -> int:
    """How many references to ``Integral``, bare or dotted, a tree holds
    (the import itself is not one)."""
    return sum(
        "Integral" in (getattr(node, "id", None), getattr(node, "attr", None))
        for node in ast.walk(tree)
    )


def test_only_the_gate_tests_for_integers():
    # nfa._relation_array keeps its own test: its message names the
    # whole triple, and it also bounds each entry to 64 bits
    trees = parse_sources()
    sites = {
        name: count for name, tree in trees.items() if (count := integral_references(tree))
    }
    assert sites == {"config.py": 1, "nfa.py": 1}
    assert integral_references(function(trees["config.py"], "check_int")) == 1
    assert integral_references(function(trees["nfa.py"], "_relation_array")) == 1


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
        lambda: rank_to_word(2, 2.5),
        lambda: case_holds(1, (0.5, 0, 0), (0, 0, 0), 6),
        lambda: accept_table(random_nfa(RandomSpec(seed=1)), 2.5),
    ],
    ids=["encode", "decode", "rank_to_word", "case_holds", "accept_table"],
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
        lambda: NFA_AA.targets(2.5, 0),
        lambda: NFA_AA.targets(0, 2.5),
        lambda: TripleCodec(2.5),
        lambda: TripleCodec(6).encode(0, 2.5, 0),
        lambda: TripleCodec(6).decode(2.5),
        lambda: triple_labels(2.5),
        lambda: case_holds(2.5, (0, 0, 0), (0, 0, 0), 6),
        lambda: case_holds(1, (0, 0, 0), (0, 2.5, 0), 6),
        lambda: witness(2.5),
        lambda: level_offset(2.5, 1),
        lambda: level_offset(2, 2.5),
        lambda: count_words(2, 2.5),
        lambda: rank_to_word(2, 2.5),
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
        "targets-state", "targets-letter", "codec-n", "encode", "decode", "triple_labels",
        "case-id", "case-triple", "witness-n", "level_offset", "level_offset-length",
        "count_words", "rank_to_word", "walk-max_len",
        "spec-seed", "spec-max_states", "spec-alphabet_size", "pivot_l", "pivot_m",
        "violation-i", "violation-j",
    ],
)
def test_every_gated_argument_refuses_a_float(call):
    with pytest.raises(ValueError, match="2.5 is not an integer"):
        call()
