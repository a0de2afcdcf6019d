"""run_all's forked rectifying suite: byte-identical reports, process hygiene."""

import os

import numpy as np
import pytest

from pgcurves import verify
from pgcurves.cli import main
from pgcurves.dsl import DomainError, LexError
from pgcurves.fileio import dumps_json
from pgcurves.verify import (
    DEFAULT_TOLERANCES,
    check_frame_constants,
    check_frenet_consistency,
    check_integrator_order,
    check_jet_finite_difference,
    check_normal_fit_roundtrip,
    check_normal_ode_closed_forms,
    check_parser_corpus,
    check_rectifying_suite,
    check_torsion_equivalence,
    run_all,
)


def _in_order_report(seed):
    # every check in report order, in one process, on one generator
    tol = DEFAULT_TOLERANCES
    rng = np.random.default_rng(seed)
    checks = [
        check_frenet_consistency(points=1000, tol=tol["frenet_consistency"]),
        check_torsion_equivalence(rng, tol=tol["torsion_equivalence"]),
        check_normal_ode_closed_forms(rng, tol=tol["normal_ode_closed_forms"]),
        check_normal_fit_roundtrip(rng, tol=tol["normal_fit_roundtrip"]),
        *check_rectifying_suite(
            rng, tol_beta=tol["rectifying_beta"], tol_params=tol["rectifying_params"],
            tol_slope=tol["rectifying_slope"], tol_conservation=tol["conservation"],
            tol_properties=tol["rectifying_properties"]),
        check_integrator_order(),
        check_frame_constants(tol=tol["frame_constants"]),
        check_parser_corpus(),
        check_jet_finite_difference(tol=tol["jet_finite_difference"]),
    ]
    return {
        "schema": 1,
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


def test_child_without_result(monkeypatch):
    monkeypatch.setattr(verify, "check_rectifying_suite",
                        lambda *args, **kwargs: os._exit(5))
    with pytest.raises(ChildProcessError, match="sent no result"):
        run_all(0)
    _assert_no_child_left()


def _raise_lex_error(*args, **kwargs):
    raise LexError("bad number", 3)  # pickles, but does not unpickle


@pytest.mark.parametrize("suite", [lambda *args, **kwargs: [lambda: None],
                                   _raise_lex_error],
                         ids=["lambda", "lex-error"])
def test_unpicklable_result(monkeypatch, suite):
    monkeypatch.setattr(verify, "check_rectifying_suite", suite)
    with pytest.raises(ChildProcessError, match="unpicklable result"):
        run_all(0)
    _assert_no_child_left()
