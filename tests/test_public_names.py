"""The package's public names: every name in ``sqrtnfa.__all__`` resolves,
and the list changes only on purpose."""

import sqrtnfa

PUBLIC_NAMES = [
    "BudgetExceededError",
    "CASE_COUNT",
    "DEFAULT_BUDGET",
    "Dfa",
    "FINAL_BLOCK",
    "FnState",
    "FoolingReport",
    "FoolingSet",
    "FormatError",
    "INITIAL_BLOCK",
    "MIN_STATES",
    "Nfa",
    "RandomSpec",
    "Report",
    "TripleCodec",
    "VerificationError",
    "Violation",
    "Word",
    "accept_table",
    "any_case",
    "bounded_equal",
    "case_holds",
    "case_table",
    "certify_lower_bound",
    "count_words",
    "determinize",
    "dfa_accept_table",
    "dfa_to_nfa",
    "difference_witness",
    "effective_budget",
    "emit_nfa",
    "enumerate_words",
    "equivalent",
    "iter_words",
    "letter_name",
    "main",
    "member",
    "witness_fooling_set",
    "parse_nfa",
    "pairwise_contradiction",
    "pivot_l",
    "pivot_m",
    "rank_to_word",
    "random_nfa",
    "reach",
    "reachable_triples",
    "run_report",
    "sqrt_dfa",
    "sqrt_member_direct",
    "sqrt_nfa",
    "square_accept_table",
    "step_set",
    "trim",
    "triple_labels",
    "verify_cases",
    "verify_fooling",
    "witness",
    "witness_alphabet",
    "witness_square_table",
    "word_to_rank",
]


def test_every_public_name_resolves():
    for name in sqrtnfa.__all__:
        assert hasattr(sqrtnfa, name), name


def test_the_public_list_is_the_recorded_one():
    # a name joins or leaves the public list only on purpose, declared in
    # CHANGES.md
    assert sqrtnfa.__all__ == PUBLIC_NAMES
