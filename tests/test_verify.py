"""run_all's forked rectifying suite: byte-identical reports, process hygiene."""

import json
import os

import pytest

from pgcurves import classify, verify
from pgcurves.cli import main
from pgcurves.dsl import DomainError, LexError, ParseError
from pgcurves.fileio import dumps_json
from pgcurves.verify import (
    DEFAULT_TOLERANCES,
    check_frame_constants,
    check_frenet_consistency,
    check_integrator_order,
    check_constant_invariant_closed_forms,
    check_constant_invariant_roundtrip,
    check_jet_finite_difference,
    check_parser_corpus,
    check_rectifying_suite,
    check_torsion_equivalence,
    run_all,
    streams,
)


def _in_order_report(seed):
    # every check in report order, in one process, each randomized check on
    # its own stream from the seed
    tol = DEFAULT_TOLERANCES
    rngs = streams(seed)
    checks = [
        check_frenet_consistency(points=1000, tol=tol["frenet_consistency"]),
        check_torsion_equivalence(rngs["torsion_equivalence"], tol=tol["torsion_equivalence"]),
        check_constant_invariant_closed_forms(
            rngs["constant_invariant_closed_forms"],
            tol=tol["constant_invariant_closed_forms"]),
        check_constant_invariant_roundtrip(rngs["constant_invariant_roundtrip"],
                                           tol=tol["constant_invariant_roundtrip"]),
        *check_rectifying_suite(
            rngs["rectifying_suite"], tol_beta=tol["rectifying_beta"],
            tol_params=tol["rectifying_params"], tol_slope=tol["rectifying_slope"],
            tol_conservation=tol["conservation"], tol_properties=tol["rectifying_properties"]),
        check_integrator_order(),
        check_frame_constants(tol=tol["frame_constants"]),
        check_parser_corpus(),
        check_jet_finite_difference(tol=tol["jet_finite_difference"]),
    ]
    return {
        "schema": 3,
        "seed": seed,
        "passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
    }


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_report_matches_in_order_run(seed):
    assert dumps_json(run_all(seed)) == dumps_json(_in_order_report(seed))


def test_child_is_reaped_and_prints_nothing(tmp_path, monkeypatch, capfd):
    parent = os.getpid()
    try:
        code = main(["verify", "--seed", "0", "--output", str(tmp_path / "pass.json")])
    finally:
        if os.getpid() != parent:  # a child that returned into its caller
            (tmp_path / "escaped").touch()
            os._exit(0)
    assert code == 0
    assert not (tmp_path / "escaped").exists()
    _assert_no_child_left()

    def failing_suite(*args, **kwargs):
        raise DomainError("log of a negative number")

    monkeypatch.setattr(verify, "check_rectifying_suite", failing_suite)
    with pytest.raises(DomainError) as info:
        run_all(0)
    assert str(info.value) == "log of a negative number"
    assert "in failing_suite" in str(info.value.__cause__)
    _assert_no_child_left()
    assert main(["verify", "--seed", "0", "--output", str(tmp_path / "fail.json")]) == 1
    _assert_no_child_left()
    assert not (tmp_path / "fail.json").exists()

    out, err = capfd.readouterr()
    assert out == ""
    assert "pgcurves: input error: log of a negative number" in err


def test_negative_rectifying_verdict_fails_with_report(tmp_path, monkeypatch, capfd):
    # a sampled-path tolerance no round trip meets: every rectifying verdict
    # is negative, and the report still says so
    monkeypatch.setattr(classify, "DEFAULT_TOL_SAMPLED", 1e-12)
    out = tmp_path / "verify.json"
    assert main(["verify", "--seed", "0", "--output", str(out)]) == 3
    _assert_no_child_left()
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["rectifying_beta"]["passed"] is False
    assert checks["rectifying_beta"]["worst"] > 1e-12
    assert capfd.readouterr().err == ""


def test_child_without_result(monkeypatch):
    monkeypatch.setattr(verify, "check_rectifying_suite",
                        lambda *args, **kwargs: os._exit(5))
    with pytest.raises(ChildProcessError, match="sent no result"):
        run_all(0)
    _assert_no_child_left()


@pytest.mark.parametrize("suite", [lambda *args, **kwargs: [lambda: None]],
                         ids=["lambda"])
def test_unpicklable_result(monkeypatch, suite):
    monkeypatch.setattr(verify, "check_rectifying_suite", suite)
    with pytest.raises(ChildProcessError, match="unpicklable result"):
        run_all(0)
    _assert_no_child_left()


@pytest.mark.parametrize("error, where", [(LexError("bad number", 3), "offset"),
                                          (ParseError("unexpected end of input", 2),
                                           "index")],
                         ids=["lex-error", "parse-error"])
def test_child_dsl_error_reraised(monkeypatch, error, where):
    def failing_suite(*args, **kwargs):
        raise error

    monkeypatch.setattr(verify, "check_rectifying_suite", failing_suite)
    with pytest.raises(type(error)) as info:
        run_all(0)
    assert str(info.value) == str(error)
    assert getattr(info.value, where) == getattr(error, where)
    _assert_no_child_left()


# a line, below tol_adm at every point, and s^2/2, s^3/6 on [0, 2], whose
# y''^2 - z''^2 = 1 - s^2 changes sign between grid points
@pytest.mark.parametrize("entry", [("line", "s", "0", 0.0, 1.0),
                                   ("sign-flip", "s^2/2", "s^3/6", 0.0, 2.0)],
                         ids=["violations", "sign-change"])
def test_inadmissible_corpus_curve_fails(monkeypatch, entry):
    monkeypatch.setattr(verify, "CURVE_CORPUS", [entry])
    assert verify.check_frenet_consistency().passed is False
