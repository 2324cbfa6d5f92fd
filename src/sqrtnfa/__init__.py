"""Square roots of regular languages: constructions, witnesses, certificates.

The square root of a language L is {w | ww in L}.  This package builds
the n^3-state NFA recognizing the square root of any n-state NFA's
language, generates the witness family whose square root needs every one
of those n^3 states, and machine-checks the matching lower bound through
an executable fooling-set certificate.
"""

from .cases import case_holds, pairwise_contradiction, verify_cases
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
from .kernels import case_table, witness_square_table
from .nfa import (
    Dfa,
    Nfa,
    Word,
    accept_table,
    determinize,
    dfa_accept_table,
    dfa_to_nfa,
    difference_witness,
    equivalent,
    member,
    reach,
    square_accept_table,
)
from .oracle import RandomSpec, random_nfa, relation_dfa, sqrt_dfa, sqrt_member_direct
from .sqrt import TripleCodec, sqrt_nfa, triple_labels
from .textio import emit_nfa, parse_nfa
from .witness import (
    FINAL_BLOCK,
    INITIAL_BLOCK,
    MIN_STATES,
    pivot_l,
    pivot_m,
    witness,
    witness_alphabet,
)

__version__ = "0.1.0"

__all__ = [
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
