"""Acceptance gate: one test per criterion, one printed verdict line each.

The verdict lines bypass pytest's output capture, so they show up in any
run mode, interleaved with the progress output.  Each test computes its
result first, prints the verdict, then asserts, so a FAIL line is always
printed before pytest unwinds.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from sqrtnfa import (
    FoolingSet,
    RandomSpec,
    TripleCodec,
    VerificationError,
    Violation,
    case_table,
    certify_lower_bound,
    determinize,
    emit_nfa,
    equivalent,
    main,
    member,
    parse_nfa,
    pivot_l,
    pivot_m,
    random_nfa,
    reach,
    relation_dfa,
    run_report,
    sqrt_dfa,
    sqrt_member_direct,
    sqrt_nfa,
    verify_cases,
    verify_fooling,
    witness,
    witness_fooling_set,
    witness_square_table,
)
from sqrtnfa.fooling import _certify
from sqrtnfa.kernels import _Grid
from conftest import MUTANTS, doctored_witness, grid, mutant, triples


@pytest.fixture()
def announce(capfd):
    def _announce(criterion: int, label: str, ok: bool, detail: str) -> str:
        line = f"criterion {criterion} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
        with capfd.disabled():
            print(line, flush=True)
        print(line)  # also keep it in the captured log of this test
        return line

    return _announce


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # call each table once on small inputs, so that first-call costs
    # (numpy's first dispatches) stay out of the timed sections below
    witness_square_table(witness(6), *grid(6))
    case_table(6, *grid(6))


@pytest.fixture(scope="module")
def pool500():
    specs = (RandomSpec(seed=i, max_states=4, alphabet_size=3) for i in range(500))
    return [random_nfa(spec) for spec in specs]


def test_exact_bounds_at_n6(announce):
    start = time.perf_counter()
    report = run_report(6)
    cert = certify_lower_bound(6)
    elapsed = time.perf_counter() - start
    ok = (
        report.upper_bound_states == 216
        and report.certified_lower_bound == 216
        and report.previous_bound == 60
        and report.case_check == "pass"
        and cert.certified
        and cert.bound == 216
        and cert.cond1_checked == 216
        and cert.cond2_checked == 23220
        and elapsed < 10.0
    )
    line = announce(
        1,
        "exact bounds at n=6",
        ok,
        f"upper={report.upper_bound_states} lower={report.certified_lower_bound} "
        f"previous={report.previous_bound} cond1={cert.cond1_checked} "
        f"cond2={cert.cond2_checked} time={elapsed:.2f}s",
    )
    assert ok, line


def test_exact_bounds_at_n7_and_n8(announce):
    start7 = time.perf_counter()
    report7 = run_report(7)
    time7 = time.perf_counter() - start7
    start8 = time.perf_counter()
    report8 = run_report(8)
    time8 = time.perf_counter() - start8
    ok = (
        (report7.upper_bound_states, report7.certified_lower_bound) == (343, 343)
        and report7.previous_bound == 120
        and report7.case_check == "pass"
        and time7 < 60.0
        and (report8.upper_bound_states, report8.certified_lower_bound) == (512, 512)
        and report8.previous_bound == 210
        and report8.case_check == "pass"
        and time8 < 300.0
    )
    line = announce(
        2,
        "exact bounds at n=7 and n=8",
        ok,
        f"n7={report7.upper_bound_states}/{report7.certified_lower_bound}/"
        f"{report7.previous_bound} in {time7:.2f}s, "
        f"n8={report8.upper_bound_states}/{report8.certified_lower_bound}/"
        f"{report8.previous_bound} in {time8:.2f}s",
    )
    assert ok, line


def test_case_table_verification_and_mutations(announce):
    clean6 = verify_cases(6)
    clean7 = verify_cases(7)
    caught = {}
    for name in MUTANTS:
        with mutant(name):
            caught[name] = verify_cases(6)
    missed = sorted(name for name, hit in caught.items() if hit is None)
    ok = clean6 is None and clean7 is None and not missed
    line = announce(
        3,
        "case table verified, mutations caught",
        ok,
        f"clean6={'agree' if clean6 is None else clean6} "
        f"clean7={'agree' if clean7 is None else clean7} "
        f"mutations_caught={len(caught) - len(missed)}/{len(caught)}"
        + (f" missed={missed}" if missed else ""),
    )
    assert ok, line


def test_cube_matches_function_dfa_on_500_random(pool500, announce):
    start = time.perf_counter()
    failures = []
    for idx, auto in enumerate(pool500):
        cube = sqrt_nfa(auto)
        det = determinize(auto)
        func = sqrt_dfa(det)
        if not equivalent(cube, func):
            failures.append(idx)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    line = announce(
        4,
        "triple construction equals function DFA on 500 random NFAs",
        ok,
        f"passed={len(pool500) - len(failures)}/{len(pool500)} time={elapsed:.2f}s"
        + (f" failed_seeds={failures[:5]}" if failures else ""),
    )
    assert ok, line


def test_three_membership_routes_agree(pool500, announce):
    max_len = 6
    mismatches = 0
    rng = np.random.default_rng(5)
    spot_bad = 0
    spot_total = 0
    for idx, auto in enumerate(pool500):
        cube = sqrt_nfa(auto)
        func = sqrt_dfa(determinize(auto))
        # the direct route as an automaton: ww run on auto, word by word
        direct_dfa = relation_dfa(auto)
        if not (equivalent(cube, direct_dfa) and equivalent(cube, func)):
            mismatches += 1
            continue
        if idx % 10 == 0:
            # tie the exact checks back to the definitional membership routes
            sigma = len(auto.alphabet)
            length = int(rng.integers(0, max_len + 1))
            word = tuple(int(rng.integers(0, sigma)) for _ in range(length))
            spot_total += 1
            direct = sqrt_member_direct(auto, word)
            if not (
                direct_dfa.member(word) == direct
                and member(cube, word) == direct
                and func.member(word) == direct
            ):
                spot_bad += 1
    ok = mismatches == 0 and spot_bad == 0 and spot_total >= 50
    line = announce(
        5,
        "direct, triple and function-DFA routes agree on every word",
        ok,
        f"automata={len(pool500)} route_mismatches={mismatches} "
        f"spot_checks={spot_total} spot_failures={spot_bad}",
    )
    assert ok, line


def test_invariant_suite(pool500, announce):
    checks: dict[str, bool] = {}

    rng = np.random.default_rng(6)
    bad_composition = 0
    for trial in range(1000):
        auto = pool500[trial % len(pool500)]
        n = auto.n_states
        sigma = len(auto.alphabet)
        states = {s for s in range(n) if rng.random() < 0.5}
        u = tuple(int(rng.integers(0, sigma)) for _ in range(int(rng.integers(0, 5))))
        v = tuple(int(rng.integers(0, sigma)) for _ in range(int(rng.integers(0, 5))))
        if reach(auto, reach(auto, states, u), v) != reach(auto, states, u + v):
            bad_composition += 1
    checks["composition_law_1000"] = bad_composition == 0

    cubes = [(auto, sqrt_nfa(auto)) for auto in pool500[:100]]
    checks["cube_state_count_100"] = all(
        cube.n_states == auto.n_states**3 for auto, cube in cubes
    )
    conserved = True
    for auto, cube in cubes:
        codec = TripleCodec(auto.n_states)
        for src, _, dst in triples(cube):
            if codec.decode(src)[0] != codec.decode(dst)[0]:
                conserved = False
    checks["first_coordinate_conserved"] = conserved

    anti = True
    for n in range(6, 13):
        for pivot in (pivot_l, pivot_m):
            for p in range(n):
                for q in range(n):
                    if pivot(p) == q and pivot(q) == p:
                        anti = False
    checks["pivot_antisymmetry_to_12"] = anti

    checks["initial_final_disjoint"] = all(
        not set(witness(n).initial) & set(witness(n).final) for n in range(6, 13)
    )

    originals = [witness(6)] + pool500[:50]
    checks["serialization_round_trip"] = all(
        parse_nfa(emit_nfa(auto)) == auto for auto in originals
    )

    failed = sorted(name for name, good in checks.items() if not good)
    ok = not failed
    line = announce(
        6,
        "invariant suite",
        ok,
        f"checks={len(checks)} failed={failed if failed else 'none'}",
    )
    assert ok, line


def doctored_certificates() -> tuple[bool, str]:
    """The certificate on doctored witness automata: at n = 6 it must give
    the plain verifier's report, and at n = 8, where the damage skips state
    6 and so breaks the symmetry the orbit checks rest on, it must refuse."""
    auto6 = doctored_witness(6)
    reference = verify_fooling(witness_fooling_set(6), lambda w: member(auto6, w + w))
    report = _certify(_Grid(auto6))
    try:
        refusal = f"certified={_certify(_Grid(doctored_witness(8, skip=(6,)))).certified}"
    except VerificationError as error:
        refusal = f"refused ({error})"
    ok = (
        report == reference
        and report.violation == Violation("cond2", 1, 37)
        and refusal.startswith("refused")
    )
    return ok, f"doctored automaton n=6: {report.violation}; n=8: {refusal}"


def test_doctored_set_is_rejected(tmp_path, announce):
    auto = witness(6)
    letters = {name: i for i, name in enumerate(auto.alphabet)}
    doctored = FoolingSet(
        (
            ((letters["a[0,1,1]"],), (letters["b[0,1,1]"],)),
            ((letters["a[0,1,1]"],), (letters["b[0,2,2]"],)),
        )
    )
    report = verify_fooling(doctored, lambda w: member(auto, w + w))
    library_ok = (
        not report.certified
        and report.bound == 0
        and report.violation == Violation("cond1", 2)
    )

    nfa_path = tmp_path / "w6.nfa"
    nfa_path.write_text(emit_nfa(auto), encoding="utf-8")
    pairs_path = tmp_path / "doctored.pairs"
    pairs_path.write_text("a[0,1,1] ; b[0,1,1]\na[0,1,1] ; b[0,2,2]\n")
    exit_code = main(
        [
            "check-fooling",
            "--in", str(nfa_path),
            "--pairs", str(pairs_path),
            "--mode", "sqrt",
        ]
    )
    automaton_ok, automaton_detail = doctored_certificates()
    ok = library_ok and exit_code == 1 and automaton_ok
    line = announce(
        7,
        "doctored candidate rejected with exact verdict",
        ok,
        f"violation={report.violation} exit_code={exit_code}; {automaton_detail}",
    )
    assert ok, line
