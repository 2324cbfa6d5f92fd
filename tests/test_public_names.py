"""The package's public names: every name in ``sqrtnfa.__all__`` resolves,
and the list, and the options its functions and classes take, change only
on purpose."""

import inspect

import sqrtnfa

PUBLIC_NAMES = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "Dfa",
    "FINAL_BLOCK",
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
    "case_holds",
    "case_table",
    "certify_lower_bound",
    "determinize",
    "dfa_accept_table",
    "dfa_to_nfa",
    "difference_witness",
    "effective_budget",
    "emit_nfa",
    "equivalent",
    "main",
    "member",
    "witness_fooling_set",
    "parse_nfa",
    "pairwise_contradiction",
    "pivot_l",
    "pivot_m",
    "random_nfa",
    "reach",
    "relation_dfa",
    "run_report",
    "sqrt_dfa",
    "sqrt_member_direct",
    "sqrt_nfa",
    "square_accept_table",
    "triple_labels",
    "verify_cases",
    "verify_fooling",
    "witness",
    "witness_alphabet",
    "witness_square_table",
]

# the parameters, with their defaults, of each function and class of the
# package in the public list; a class's are those of its own __init__
PUBLIC_OPTIONS = {
    "BudgetExceededError": ("what", "needed", "budget"),
    "Dfa": ("n_states", "alphabet", "initial", "final", "transitions"),
    "FoolingReport": (
        "certified",
        "bound",
        "violation=None",
        "cond1_checked=0",
        "cond2_checked=0",
    ),
    "FoolingSet": ("pairs",),
    "FormatError": ("message", "line=0", "column=0"),
    "Nfa": ("n_states", "alphabet", "initial", "final", "transitions"),
    "RandomSpec": ("seed", "max_states=4", "alphabet_size=3"),
    "Report": (
        "n",
        "upper_bound_states",
        "certified_lower_bound",
        "previous_bound",
        "case_check",
        "timings",
    ),
    "TripleCodec": ("n",),
    "VerificationError": (),
    "Violation": ("kind", "i", "j=None"),
    "accept_table": ("nfa", "max_len", "budget=None"),
    "case_holds": ("case", "x1", "x2", "n"),
    "case_table": ("n", "x1", "x2", "budget=None"),
    "certify_lower_bound": ("n", "budget=None"),
    "determinize": ("nfa", "cap=None"),
    "dfa_accept_table": ("dfa", "max_len", "budget=None"),
    "dfa_to_nfa": ("dfa",),
    "difference_witness": ("a", "b", "cap=None"),
    "effective_budget": ("override=None",),
    "emit_nfa": ("nfa", "state_labels=None"),
    "equivalent": ("a", "b", "cap=None"),
    "main": ("argv=None",),
    "member": ("nfa", "word"),
    "witness_fooling_set": ("n",),
    "parse_nfa": ("text",),
    "pairwise_contradiction": ("n", "budget=None"),
    "pivot_l": ("p",),
    "pivot_m": ("p",),
    "random_nfa": ("spec",),
    "reach": ("nfa", "states", "word"),
    "relation_dfa": ("nfa", "budget=None"),
    "run_report": ("n", "budget=None"),
    "sqrt_dfa": ("dfa", "budget=None"),
    "sqrt_member_direct": ("nfa", "word"),
    "sqrt_nfa": ("nfa", "budget=None"),
    "square_accept_table": ("nfa", "max_len", "budget=None"),
    "triple_labels": ("n",),
    "verify_cases": ("n", "budget=None"),
    "verify_fooling": ("candidate", "oracle"),
    "witness": ("n",),
    "witness_alphabet": ("n",),
    "witness_square_table": ("auto", "x1", "x2", "budget=None"),
}


def options(obj) -> tuple[str, ...]:
    """Parameter names and defaults of ``obj``, without annotations."""
    if inspect.isclass(obj):
        if "__init__" not in vars(obj):
            return ()
        params = list(inspect.signature(obj.__init__).parameters.values())[1:]
    else:
        params = inspect.signature(obj).parameters.values()
    return tuple(str(p.replace(annotation=p.empty)) for p in params)


def test_every_public_name_resolves():
    for name in sqrtnfa.__all__:
        assert hasattr(sqrtnfa, name), name


def test_the_public_list_is_the_recorded_one():
    # a name joins or leaves the public list only on purpose, declared in
    # CHANGES.md
    assert sqrtnfa.__all__ == PUBLIC_NAMES


def test_the_public_options_are_the_recorded_ones():
    # an option joins or leaves a public function or class only on
    # purpose, declared in CHANGES.md
    recorded = {
        name: options(obj)
        for name in sqrtnfa.__all__
        if callable(obj := getattr(sqrtnfa, name))
        and getattr(obj, "__module__", "").startswith("sqrtnfa")
    }
    assert recorded == PUBLIC_OPTIONS
