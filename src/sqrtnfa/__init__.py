"""Square roots of regular languages: constructions, witnesses, certificates.

The square root of a language L is {w | ww in L}.  This package builds
the n^3-state NFA recognizing the square root of any n-state NFA's
language, generates the witness family whose square root needs every one
of those n^3 states, and machine-checks the matching lower bound through
an executable fooling-set certificate.
"""

from .cases import (
    CASE_COUNT,
    any_case,
    case_holds,
    pairwise_contradiction,
    verify_cases,
)
from .cli import Report, main, run_report
from .config import DEFAULT_BUDGET, effective_budget
from .errors import BudgetExceededError, FormatError, VerificationError
from .fooling import (
    FoolingReport,
    FoolingSet,
    Violation,
    certify_lower_bound,
    witness_fooling_set,
    verify_fooling,
)
from .kernels import (
    accept_table,
    case_table,
    dfa_accept_table,
    square_accept_table,
    witness_square_table,
)
from .nfa import (
    Dfa,
    Nfa,
    Word,
    bounded_equal,
    determinize,
    dfa_to_nfa,
    difference_witness,
    enumerate_words,
    equivalent,
    member,
    reach,
    step_set,
    trim,
)
from .oracle import FnState, RandomSpec, random_nfa, sqrt_dfa, sqrt_member_direct
from .sqrt import TripleCodec, reachable_triples, sqrt_nfa, triple_labels
from .textio import emit_nfa, parse_nfa
from .witness import (
    FINAL_BLOCK,
    INITIAL_BLOCK,
    MIN_STATES,
    WitnessLetter,
    letter_name,
    parse_letter,
    pivot_l,
    pivot_m,
    witness,
    witness_alphabet,
)
from .words import count_words, iter_words, rank_to_word, word_to_rank

__version__ = "0.1.0"

__all__ = [
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
    "WitnessLetter",
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
    "parse_letter",
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
