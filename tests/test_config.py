"""The budget gate: one place resolves the budget and refuses a phase,
and integer inputs are told from floats by one test."""

import ast
from pathlib import Path

import pytest

from sqrtnfa import (
    RandomSpec,
    TripleCodec,
    accept_table,
    case_holds,
    random_nfa,
    rank_to_word,
    word_to_rank,
)
from sqrtnfa.config import charge, effective_budget
from sqrtnfa.errors import BudgetExceededError

SOURCES = Path(__file__).resolve().parent.parent / "src" / "sqrtnfa"


def constructions(tree: ast.AST) -> int:
    """How many ``BudgetExceededError(...)`` calls, bare or dotted, a tree holds."""
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return sum(
        "BudgetExceededError" in (getattr(func, "id", None), getattr(func, "attr", None))
        for func in calls
    )


def test_only_the_gate_constructs_budget_errors():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SOURCES.glob("*.py"))
    }
    sites = {name: count for name, tree in trees.items() if (count := constructions(tree))}
    assert sites == {"config.py": 1}
    (gate,) = (
        node
        for node in ast.walk(trees["config.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "charge"
    )
    assert constructions(gate) == 1


def test_charge_refuses_past_the_budget_and_returns_it():
    assert charge("cells", 100, 100) == 100
    with pytest.raises(BudgetExceededError, match="^cells: needs 101, exceeds budget 100$"):
        charge("cells", 101, 100)


@pytest.mark.parametrize("override", [2.5, "100"])
def test_a_budget_that_is_not_an_integer_is_refused(override):
    with pytest.raises(ValueError, match="budget must be an integer"):
        effective_budget(override)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TripleCodec(6).encode(1.5, 0, 0),
        lambda: TripleCodec(6).decode(5.0),
        lambda: word_to_rank(2, (0, 1.5)),
        lambda: rank_to_word(2, 2.5),
        lambda: case_holds(1, (0.5, 0, 0), (0, 0, 0), 6),
        lambda: accept_table(random_nfa(RandomSpec(seed=1)), 2.5),
    ],
    ids=["encode", "decode", "word_to_rank", "rank_to_word", "case_holds", "accept_table"],
)
def test_codecs_refuse_non_integers(call):
    with pytest.raises(ValueError):
        call()
