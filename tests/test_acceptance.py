"""Acceptance gate: every criterion at its stated tolerance and runtime bound.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.  The randomized criteria use a fixed seed so the gate is
deterministic.
"""

import time

import pytest

from pgcurves.verify import (
    check_frenet_consistency,
    check_frame_constants,
    check_integrator_order,
    check_constant_invariant_closed_forms,
    check_constant_invariant_roundtrip,
    check_jet_finite_difference,
    check_parser_corpus,
    check_rectifying_suite,
    check_torsion_equivalence,
    CURVE_CORPUS,
    PARSER_CORPUS,
    streams,
)

ACCEPTANCE_SEED = 0


def _report(criterion: str, passed: bool, detail: str, runtime: float,
            budget: float | None = None):
    status = "PASS" if passed else "FAIL"
    timing = f" ({runtime:.2f} s" + (f" < {budget:g} s)" if budget else ")")
    print(f"\n{status} {criterion}: {detail}{timing}")


@pytest.fixture(scope="module")
def rectifying_suite():
    rng = streams(ACCEPTANCE_SEED)["rectifying_suite"]
    start = time.perf_counter()
    checks = {c.name: c for c in check_rectifying_suite(rng, draws=50, step=1e-3)}
    checks["runtime"] = time.perf_counter() - start
    return checks


def test_criterion_1_frenet_consistency():
    start = time.perf_counter()
    result = check_frenet_consistency(points=1000, tol=1e-9)
    runtime = time.perf_counter() - start
    ok = result.passed and runtime < 5.0 and len(CURVE_CORPUS) >= 10
    _report("criterion 1 (frame-equation residuals)", ok,
            f"worst residual {result.worst:.3e} <= 1e-09 on "
            f"{len(CURVE_CORPUS)} curves x 1000 points", runtime, 5.0)
    assert result.passed, result
    assert runtime < 5.0
    assert len(CURVE_CORPUS) >= 10


def test_criterion_2_torsion_oracle_equivalence():
    rng = streams(ACCEPTANCE_SEED)["torsion_equivalence"]
    start = time.perf_counter()
    result = check_torsion_equivalence(rng, pairs=10_000, tol=1e-12)
    runtime = time.perf_counter() - start
    ok = result.passed and runtime < 5.0
    _report("criterion 2 (torsion formula equivalence)", ok,
            f"worst relative gap {result.worst:.3e} <= 1e-12 on "
            f"{result.count} random (curve, s) pairs", runtime, 5.0)
    assert result.passed, result
    assert runtime < 5.0


def test_criterion_3_component_system_closed_forms():
    rng = streams(ACCEPTANCE_SEED)["constant_invariant_closed_forms"]
    start = time.perf_counter()
    result = check_constant_invariant_closed_forms(rng, draws=100, tol=1e-10)
    runtime = time.perf_counter() - start
    ok = result.passed and runtime < 2.0
    _report("criterion 3 (constant-invariant closed forms solve the frame equations)", ok,
            f"worst residual {result.worst:.3e} <= 1e-10 on 100 draws",
            runtime, 2.0)
    assert result.passed, result
    assert runtime < 2.0


def test_criterion_4_constant_invariant_round_trip():
    rng = streams(ACCEPTANCE_SEED)["constant_invariant_roundtrip"]
    start = time.perf_counter()
    result = check_constant_invariant_roundtrip(rng, draws=30, tol=1e-8)
    runtime = time.perf_counter() - start
    ok = result.passed and runtime < 5.0
    _report("criterion 4 (synthesize-classify constant-invariant round trip)", ok,
            f"worst recovery error of m1, c_plus and c_minus {result.worst:.3e} "
            "<= 1e-08 on 30 draws", runtime, 5.0)
    assert result.passed, result
    assert runtime < 5.0


def test_criterion_5_rectifying_round_trip(rectifying_suite):
    runtime = rectifying_suite["runtime"]
    beta = rectifying_suite["rectifying_beta"]
    params = rectifying_suite["rectifying_params"]
    slope = rectifying_suite["rectifying_slope"]
    ok = (beta.passed and params.passed and slope.passed and runtime < 30.0)
    _report("criterion 5 (synthesize-classify rectifying round trip)", ok,
            f"beta_max {beta.worst:.3e} <= 1e-06, parameter error "
            f"{params.worst:.3e} <= 1e-05, slope residual {slope.worst:.3e} "
            f"<= 1e-06 on 50 draws at step 1e-3", runtime, 30.0)
    assert beta.passed, beta
    assert params.passed, params
    assert slope.passed, slope
    assert runtime < 30.0


def test_criterion_6_conservation_law(rectifying_suite):
    cons = rectifying_suite["conservation"]
    _report("criterion 6 (conserved rectifying vector)", cons.passed,
            f"worst componentwise spread {cons.worst:.3e} <= 1e-06 along "
            "all 50 synthesized trajectories", 0.0)
    assert cons.passed, cons


def test_criterion_7_rectifying_property_suite(rectifying_suite):
    props = rectifying_suite["rectifying_properties"]
    _report("criterion 7 (four rectifying signatures, timelike binormal)",
            props.passed,
            f"worst signature residual {props.worst:.3e} <= 1e-05 on all "
            "50 curves", 0.0)
    assert props.passed, props


def test_criterion_8_integrator_order():
    start = time.perf_counter()
    result = check_integrator_order(lo=12.0, hi=20.0)
    runtime = time.perf_counter() - start
    _report("criterion 8 (fourth-order convergence)", result.passed,
            f"step-halving error ratio {result.worst:.2f} in [12, 20]",
            runtime)
    assert result.passed, result


def test_criterion_9_frame_constants_of_motion():
    start = time.perf_counter()
    result = check_frame_constants(step=1e-3, tol=1e-8)
    runtime = time.perf_counter() - start
    _report("criterion 9 (frame constants of motion)", result.passed,
            f"worst drift {result.worst:.3e} <= 1e-08 over length-4 "
            "integrations at step 1e-3", runtime)
    assert result.passed, result


def test_criterion_10_parser_and_jets():
    start = time.perf_counter()
    parser = check_parser_corpus()
    jets = check_jet_finite_difference(tol=1e-6)
    runtime = time.perf_counter() - start
    ok = parser.passed and jets.passed and len(PARSER_CORPUS) >= 30
    _report("criterion 10 (parser corpus and jet cross-check)", ok,
            f"{parser.count} golden expressions all pass; worst "
            f"finite-difference gap {jets.worst:.3e} <= 1e-06", runtime)
    assert parser.passed, parser
    assert jets.passed, jets
    assert len(PARSER_CORPUS) >= 30
