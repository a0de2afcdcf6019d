"""Command-line interface tests: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pgcurves.cli
from pgcurves import spline
from pgcurves.classify import classify_rectifying, frame_components_arrays
from pgcurves.cli import main
from pgcurves.fileio import load_curve
from pgcurves.frenet import CurveDef, frenet_grid
from pgcurves.space import ORIGIN, plane_product
from pgcurves.synth import synth_rectifying


@pytest.fixture
def cosh_sinh_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({
        "param": "s", "y": "cosh(s)", "z": "sinh(s)",
        "s_min": 0.0, "s_max": 2.0, "samples": 201}))
    return path


@pytest.fixture
def cosh_sinh_csv(tmp_path):
    s = np.linspace(0.0, 2.0, 201)
    path = tmp_path / "curve.csv"
    np.savetxt(path, np.column_stack([s, s, np.cosh(s), np.sinh(s)]),
               delimiter=",", header="s,x,y,z", comments="")
    return path


def _strict_json(path):
    """A report read as strict JSON: NaN and Infinity raise."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def _synthesize_and_classify(tmp_path, *synth_args, swap_yz=False):
    """classify's report on a synthesized CSV, with its y and z columns swapped
    if asked (the eps = -1 mirror of the curve)."""
    curve_path = tmp_path / "synth.csv"
    assert main(["synthesize", *synth_args, "--output", str(curve_path)]) == 0
    if swap_yz:
        header, *rows = curve_path.read_text().splitlines()
        curve_path.write_text(header + "\n" + "".join(
            f"{s},{x},{z},{y}\n" for s, x, y, z in (row.split(",") for row in rows)))
    out = tmp_path / "verdict.json"
    assert main(["classify", "--input", str(curve_path), "--output", str(out)]) == 0
    return _strict_json(out)


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "param": "s", "y": "s", "z": "0",
        "s_min": 0.0, "s_max": 1.0, "samples": 11}))
    return path


class TestAnalyze:
    def test_success(self, tmp_path, cosh_sinh_file):
        out = tmp_path / "report"
        code = main(["analyze", "--input", str(cosh_sinh_file),
                     "--output", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema"] == 1
        assert payload["admissibility"]["admissible"] is True
        kappas = [row["kappa"] for row in payload["rows"]]
        assert max(abs(k - 1.0) for k in kappas) <= 1e-9
        taus = [row["tau"] for row in payload["rows"]]
        assert max(abs(t - 1.0) for t in taus) <= 1e-9
        assert (tmp_path / "report.csv").exists()

    def test_inadmissible_exit_2_with_report(self, tmp_path, line_file):
        out = tmp_path / "report"
        code = main(["analyze", "--input", str(line_file), "--output", str(out)])
        assert code == 2
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["admissibility"]["admissible"] is False
        assert len(payload["admissibility"]["violations"]) == 11

    def test_missing_file_exit_1(self, tmp_path):
        code = main(["analyze", "--input", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path / "out")])
        assert code == 1

    def test_malformed_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["analyze", "--input", str(bad),
                     "--output", str(tmp_path / "out")])
        assert code == 1

    def test_bad_expression_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"y": "s^s", "z": "0",
                                   "s_min": 0, "s_max": 1}))
        code = main(["analyze", "--input", str(bad),
                     "--output", str(tmp_path / "out")])
        assert code == 1

    def test_mistyped_curve_field_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"y": 3, "z": "0", "s_min": 0, "s_max": 1}))
        code = main(["analyze", "--input", str(bad),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "field 'y' must be a string" in capsys.readouterr().err

    def test_header_only_csv_exit_1(self, tmp_path, capsys, recwarn):
        empty = tmp_path / "empty.csv"
        empty.write_text("s,x,y,z\n")
        code = main(["analyze", "--input", str(empty),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "the file has no samples" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("rows, message", [
        ("0,0,1,0,7\n1,1,2,0,9\n",
         "row width does not match the header at line 2 (5 fields, header has 4)"),
        ("0,0,1,0\n1,1,2,0,9\n2,2,5,0\n",
         "row width does not match the header at line 3 (5 fields, header has 4)"),
        ("0,0,1,0\n1,1,2,0\n2,2,5\n",
         "row width does not match the header at line 4 (3 fields, header has 4)"),
    ], ids=["every-row-wide", "one-row-long", "one-row-short"])
    def test_csv_row_width_exit_1(self, tmp_path, capsys, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("s,x,y,z\n" + rows)
        code = main(["analyze", "--input", str(bad),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert f"pgcurves: input error: {bad}: {message}" in capsys.readouterr().err

    # ten columns, as synthesize --frames writes; the unread columns are
    # counted, and a short row and a long row whose widths cancel in the
    # total are still found
    @pytest.mark.parametrize("widths, message", [
        ({3: 7, 5: 11}, "at line 5 (7 fields, header has 10)"),
        ({3: 7, 5: 13}, "at line 5 (7 fields, header has 10)"),
    ], ids=["short-and-long", "widths-cancel"])
    def test_frames_csv_row_width_exit_1(self, tmp_path, capsys, widths, message):
        rows = [",".join([f"{i / 10}", f"{i / 10}", f"{i * i / 100}", "0"]
                         + [str(k) for k in range(widths.get(i, 10) - 4)])
                for i in range(12)]
        bad = tmp_path / "bad.csv"
        bad.write_text("s,x,y,z,t_y,t_z,n_y,n_z,b_y,b_z\n" + "\n".join(rows) + "\n")
        code = main(["analyze", "--input", str(bad),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert (f"pgcurves: input error: {bad}: row width does not match the header {message}"
                in capsys.readouterr().err)

    def test_comment_with_commas_is_not_a_width_error(self, tmp_path, cosh_sinh_csv):
        lines = cosh_sinh_csv.read_text().splitlines(keepends=True)
        commented = tmp_path / "commented.csv"
        commented.write_text("".join(lines[:3] + ["# a, b, c\n", "\n"] + lines[3:]))
        for path, name in ((cosh_sinh_csv, "plain"), (commented, "commented")):
            assert main(["analyze", "--input", str(path),
                         "--output", str(tmp_path / "out" / name)]) == 0
        assert ((tmp_path / "out" / "plain.csv").read_bytes()
                == (tmp_path / "out" / "commented.csv").read_bytes())

    # line 7 holds the sample at s = 0.5; the good rows have x = s + 0.5
    @pytest.mark.parametrize("row, count, message", [
        ("0.5,1.0,nan,0.02", 20, "line 7 (s=0.5): spline samples must be finite"),
        ("0.5,1.0,inf,0.02", 20, "line 7 (s=0.5): spline samples must be finite"),
        ("0.5,1.0,0.25,0.02", 4, "need at least 6 samples for a quintic spline "
                                 "(the file has 4)"),
        ("0.5,1.5,0.25,0.02", 20, "line 7 (s=0.5): x must equal s plus a constant"),
        ("0.5,nan,0.25,0.02", 20, "line 7 (s=0.5): x must equal s plus a constant"),
        ("0.35,0.85,0.1225,0.007", 20,
         "line 7 (s=0.35): sample parameters must be strictly increasing"),
    ], ids=["nan-y", "inf-y", "too-few", "x-off", "nan-x", "not-increasing"])
    def test_csv_bad_samples_exit_1(self, tmp_path, capsys, row, count, message):
        rows = [f"{i / 10},{i / 10 + 0.5},{(i / 10) ** 2},{(i / 10) ** 3 / 6}"
                for i in range(20)]
        rows[5] = row
        bad = tmp_path / "bad.csv"
        bad.write_text("s,x,y,z\n" + "\n".join(rows[:count]) + "\n")
        code = main(["analyze", "--input", str(bad),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert f"pgcurves: input error: {bad}: {message}" in capsys.readouterr().err

    # loadtxt counts data rows from 0, past comment and blank lines; the
    # report names the file line
    def test_csv_bad_value_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("s,x,y,z\n0,0,1,0\n# note\n\n1,1,2,abc\n")
        code = main(["analyze", "--input", str(bad),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"pgcurves: input error: {bad}: could not convert string 'abc'" in err
        assert "at line 5, column 4" in err and "row" not in err

    @pytest.mark.parametrize("y, node", [("s^log(0-1)", "log(0.0 - 1.0)"),
                                         ("s^((0-8)^(1/3))", "(0.0 - 8.0)^(1.0/3.0)")])
    def test_constant_exponent_outside_domain_exit_1(self, tmp_path, capsys, y, node):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"y": y, "z": "0", "s_min": 1, "s_max": 2}))
        code = main(["analyze", "--input", str(bad),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "pgcurves: input error:" in err and f"'{node}'" in err

    def test_nan_constant_exponent_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"y": "s^(1e308*10-1e308*10)", "z": "0",
                                   "s_min": -1, "s_max": 2}))
        code = main(["analyze", "--input", str(bad),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "pgcurves: input error: non-finite constant exponent" in err

    def test_lightlike_rows_are_strict_json(self, tmp_path):
        curve = tmp_path / "lightlike.json"
        curve.write_text(json.dumps({"y": "s^2/2", "z": "s^3/6",
                                     "s_min": 0.0, "s_max": 2.0, "samples": 21}))
        out = tmp_path / "report"
        assert main(["analyze", "--input", str(curve), "--output", str(out)]) == 2
        payload = _strict_json(tmp_path / "report.json")
        (row,) = [row for row in payload["rows"] if row["s"] == 1.0]
        assert row["kappa"] is None and row["tau"] is None
        assert "NaN" in (tmp_path / "report.csv").read_text()

    # The writer holds one block of rows at a time, not the whole report, and
    # drops its strings before it formats the next block: the grid and its
    # admissibility report are made before tracing starts, so the peak is
    # what writing 50,001 rows of CSV and JSON allocates.
    def test_writer_memory_is_bounded(self, tmp_path, monkeypatch):
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"y": "1.5*cosh(s)", "z": "1.5*sinh(s)",
                                     "s_min": -2.0, "s_max": 2.0, "samples": 50001}))
        grid = frenet_grid(load_curve(curve), strict=False)
        report = pgcurves.cli.check_admissible(grid)
        monkeypatch.setattr(pgcurves.cli, "frenet_grid", lambda *args, **kwargs: grid)
        monkeypatch.setattr(pgcurves.cli, "check_admissible", lambda _: report)
        tracemalloc.start()
        try:
            assert main(["analyze", "--input", str(curve),
                         "--output", str(tmp_path / "report")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "report.csv").read_text().count("\n") == 50002
        assert peak < 3.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

    def test_determinism(self, tmp_path, cosh_sinh_file):
        for name in ("a", "b"):
            assert main(["analyze", "--input", str(cosh_sinh_file),
                         "--output", str(tmp_path / name)]) == 0
        assert ((tmp_path / "a.json").read_text()
                == (tmp_path / "b.json").read_text())
        assert ((tmp_path / "a.csv").read_text()
                == (tmp_path / "b.csv").read_text())


class TestClassify:
    def test_cosh_sinh_is_neither(self, tmp_path, cosh_sinh_file):
        out = tmp_path / "verdict.json"
        code = main(["classify", "--input", str(cosh_sinh_file),
                     "--output", str(out)])
        assert code == 0
        payload = _strict_json(out)
        assert payload["schema"] == 2
        assert payload["verdict"] == "neither"
        assert payload["parameters"]["a"] == pytest.approx(0.0, abs=1e-9)
        assert payload["residuals"]["beta_max"] == pytest.approx(1.0, rel=1e-9)
        # beta = 1 and gamma = -s: the family's particular solution
        family = payload["constant_invariant"]
        assert family["holds"] is True and family["error"] is None
        assert abs(family["c_plus"]) <= 1e-12 and abs(family["c_minus"]) <= 1e-12
        assert set(payload["parameters"]) == {"m1", "n1", "a", "b", "kappa", "tau"}

    def test_synthesized_curve_is_rectifying(self, tmp_path):
        payload = _synthesize_and_classify(tmp_path, "--m1", "0", "--n1", "1", "--kappa", "1",
                                           "--s-min", "0", "--s-max", "2")
        assert payload["verdict"] == "rectifying"
        assert payload["parameters"]["m1"] == pytest.approx(0.0, abs=1e-5)
        assert payload["parameters"]["n1"] == pytest.approx(1.0, abs=1e-5)
        assert payload["constant_invariant"]["holds"] is False

    def test_spacelike_binormal_mirror_is_rectifying(self, tmp_path):
        # swapping y and z turns the timelike binormal spacelike (<b, b> = +1):
        # the verdict and m1 stay, n1 and the slope a change sign
        args = ("--m1=0.5", "--n1=1.2", "--kappa", "1", "--s-min", "-1.5", "--s-max", "0.5")
        plain = _synthesize_and_classify(tmp_path, *args)
        mirror = _synthesize_and_classify(tmp_path, *args, swap_yz=True)
        assert mirror["verdict"] == plain["verdict"] == "rectifying"
        p, q = mirror["parameters"], plain["parameters"]
        assert (p["m1"], p["n1"], p["a"]) == (q["m1"], -q["n1"], -q["a"])
        assert mirror["residuals"]["beta_max"] == plain["residuals"]["beta_max"]
        assert mirror["residuals"]["rho_check"] == pytest.approx(
            plain["residuals"]["rho_check"], rel=1e-3)
        grid = frenet_grid(load_curve(tmp_path / "synth.csv"))
        bb = plane_product(grid.b_y, grid.b_z, grid.b_y, grid.b_z)
        np.testing.assert_allclose(bb, 1.0, atol=1e-9)
        assert classify_rectifying(frame_components_arrays(grid, ORIGIN)).signatures_hold(1e-5)

    def test_synthesized_constant_invariant_curve_holds(self, tmp_path):
        payload = _synthesize_and_classify(tmp_path, "--kappa", "2", "--tau", "0.7",
                                           "--s-max", "2")
        assert payload["verdict"] == "neither"
        p = payload["parameters"]
        assert p["kappa"] == pytest.approx(2.0, rel=1e-4)
        assert p["tau"] == pytest.approx(0.7, rel=1e-4)
        family = payload["constant_invariant"]
        assert family["holds"] is True and family["error"] is None
        assert family["residual"] <= 1e-6
        # the start at the origin with the canonical frame: beta(0) = gamma(0) = 0
        assert family["c_plus"] == pytest.approx(-0.5 * 2.0 / 0.7**2, abs=1e-6)
        assert family["c_minus"] == pytest.approx(-0.5 * 2.0 / 0.7**2, abs=1e-6)

    def test_timelike_normal_mirror_holds(self, tmp_path):
        # swapping y and z turns the spacelike principal normal timelike
        # (eps = -1): tau changes sign, c_plus and c_minus trade places, and
        # the residual does not change
        args = ("--kappa", "2", "--tau", "0.7", "--s-max", "2")
        plain = _synthesize_and_classify(tmp_path, *args)
        mirror = _synthesize_and_classify(tmp_path, *args, swap_yz=True)
        assert mirror["parameters"]["tau"] == -plain["parameters"]["tau"]
        family, plain_family = mirror["constant_invariant"], plain["constant_invariant"]
        assert family["holds"] is True
        assert family["residual"] == pytest.approx(plain_family["residual"], rel=1e-6)
        assert family["c_plus"] == pytest.approx(plain_family["c_minus"], rel=1e-8)
        assert family["c_minus"] == pytest.approx(plain_family["c_plus"], rel=1e-8)

    def test_planar_curve_has_no_family(self, tmp_path):
        curve = tmp_path / "parabola.json"
        curve.write_text(json.dumps({"y": "s^2/2", "z": "0", "s_min": -1.0, "s_max": 1.0}))
        out = tmp_path / "verdict.json"
        assert main(["classify", "--input", str(curve), "--output", str(out)]) == 0
        payload = _strict_json(out)
        assert payload["parameters"]["tau"] == 0.0
        assert payload["constant_invariant"] == {
            "holds": False, "c_plus": None, "c_minus": None, "residual": None,
            "error": "torsion vanishes over the grid, and the family needs tau != 0"}

    def test_inadmissible_exit_2(self, tmp_path, line_file):
        out = tmp_path / "verdict.json"
        code = main(["classify", "--input", str(line_file), "--output", str(out)])
        assert code == 2
        payload = _strict_json(out)
        assert payload["verdict"] is None
        assert payload["constant_invariant"] is None

    def test_short_grid_exit_1(self, tmp_path, capsys):
        curve = tmp_path / "short.json"
        curve.write_text(json.dumps({"y": "cosh(s)", "z": "sinh(s)",
                                     "s_min": 0.0, "s_max": 1.0, "samples": 7}))
        s = np.linspace(0.0, 1.0, 7)
        table = np.column_stack([s, s, np.cosh(s), np.sinh(s)])
        samples = tmp_path / "short.csv"
        np.savetxt(samples, table, delimiter=",", header="s,x,y,z", comments="")
        for path in (curve, samples):
            code = main(["classify", "--input", str(path),
                         "--output", str(tmp_path / "verdict.json")])
            assert code == 1
            assert "input error: classification needs a grid" in capsys.readouterr().err

    def test_short_window_fit_is_neither(self, tmp_path):
        # on a short window cosh/sinh is still no rectifying curve, and still
        # a member of the constant-invariant family
        curve = tmp_path / "short.json"
        curve.write_text(json.dumps({"y": "cosh(s)", "z": "sinh(s)", "s_min": 0.0,
                                     "s_max": 0.005, "samples": 1001}))
        out = tmp_path / "verdict.json"
        code = main(["classify", "--input", str(curve), "--tol-classify", "1e-5",
                     "--output", str(out)])
        assert code == 0
        payload = _strict_json(out)
        assert payload["residuals"]["beta_max"] == pytest.approx(1.0, rel=1e-9)
        assert payload["verdict"] == "neither"
        assert payload["constant_invariant"]["holds"] is True

    def test_origin_shift_changes_m1(self, tmp_path, cosh_sinh_file):
        out = tmp_path / "verdict.json"
        code = main(["classify", "--input", str(cosh_sinh_file),
                     "--output", str(out), "--origin", "5,0,0"])
        assert code == 0
        payload = _strict_json(out)
        assert payload["parameters"]["m1"] == pytest.approx(-5.0, abs=1e-9)


class TestOneEvaluationPerCommand:
    """Each command evaluates the loaded curve's jets exactly once, and a
    sampled curve fits one spline for both components."""

    @pytest.fixture
    def counts(self, monkeypatch):
        jet_calls, fits, loaded = {}, [], []
        load, jets, interpolate = pgcurves.cli.load_curve, CurveDef.jets, spline.interpolate

        def load_and_note(path):
            curve = load(path)
            loaded.append(curve)
            return curve

        def counting_jets(curve, s):
            jet_calls[id(curve)] = jet_calls.get(id(curve), 0) + 1
            return jets(curve, s)

        def counting_interpolate(x, y):
            fits.append(np.shape(y))
            return interpolate(x, y)

        monkeypatch.setattr(pgcurves.cli, "load_curve", load_and_note)
        monkeypatch.setattr(CurveDef, "jets", counting_jets)
        monkeypatch.setattr(spline, "interpolate", counting_interpolate)

        def read():
            (curve,) = loaded
            return jet_calls.get(id(curve), 0), fits

        return read

    @pytest.mark.parametrize("command, source", [
        ("analyze", "cosh_sinh_file"),
        ("classify", "cosh_sinh_file"),
        ("classify", "cosh_sinh_csv"),
        ("plot-data", "cosh_sinh_file"),
        ("plot-data", "cosh_sinh_csv"),
    ])
    def test_jets_evaluated_once(self, request, tmp_path, counts, command, source):
        path = request.getfixturevalue(source)
        code = main([command, "--input", str(path),
                     "--output", str(tmp_path / "out")])
        assert code == 0
        jet_calls, fits = counts()
        assert jet_calls == 1
        assert fits == ([(201, 2)] if source == "cosh_sinh_csv" else [])


class TestSampledWindow:
    """A sampled curve's window may not leave the range of its samples.

    Of the commands that read a curve only analyze takes --s-min/--s-max.
    """

    @pytest.mark.parametrize("flag, value, window", [
        ("--s-max", "2.3", "[0.0, 2.3]"),
        ("--s-min", "-0.1", "[-0.1, 2.0]"),
    ])
    def test_window_past_samples_exit_1(self, tmp_path, capsys, cosh_sinh_csv,
                                        flag, value, window):
        code = main(["analyze", "--input", str(cosh_sinh_csv), flag, value,
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert (f"input error: window {window} leaves the sample range [0.0, 2.0]"
                in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


class TestSynthesize:
    def test_profile_mode(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["synthesize", "--kappa", "1", "--tau", "0",
                     "--s-min", "0", "--s-max", "1", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,x,y,z"
        last = [float(v) for v in lines[-1].split(",")]
        assert last[2] == pytest.approx(0.5, abs=1e-10)

    def test_frames_columns(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["synthesize", "--kappa", "1", "--tau", "1",
                     "--s-min", "0", "--s-max", "1", "--frames",
                     "--output", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "s,x,y,z,t_y,t_z,n_y,n_z,b_y,b_z"

    def test_non_positive_curvature_exit_2(self, tmp_path):
        code = main(["synthesize", "--kappa", "s", "--tau", "0",
                     "--s-min", "-1", "--s-max", "1",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_rectifying_needs_both_parameters(self, tmp_path):
        code = main(["synthesize", "--kappa", "1", "--m1", "0",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1

    def test_bad_kappa_expression_exit_1(self, tmp_path):
        code = main(["synthesize", "--kappa", "1 +", "--tau", "0",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1

    def test_profile_outside_domain_exit_1(self, tmp_path, capsys):
        code = main(["synthesize", "--kappa", "(-s)^0.5", "--tau", "0",
                     "--s-min", "0.5", "--s-max", "1",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "pgcurves: input error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_overflow_exit_1(self, tmp_path, capfd):
        out = tmp_path / "x.csv"
        code = main(["synthesize", "--kappa", "1", "--tau", "1000", "--frames",
                     "--output", str(out)])
        assert code == 1
        err = capfd.readouterr().err
        assert err.startswith("pgcurves: input error: synthesized position or frame "
                              "is not finite from s=0.7")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("m1, n1, component", [("0", "inf", "z=inf"),
                                                   ("nan", "1", "x=nan")])
    def test_non_finite_start_position_exit_1(self, tmp_path, capsys, m1, n1, component):
        out = tmp_path / "x.csv"
        code = main(["synthesize", "--kappa", "1", f"--m1={m1}", f"--n1={n1}",
                     "--output", str(out)])
        assert code == 1
        assert (f"pgcurves: input error: non-finite component {component}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestVerify:
    def test_default_seed_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--output", str(out), "--seed", "0"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert len(payload["checks"]) == 13

    def test_impossible_tolerance_exit_3(self, tmp_path):
        # rectifying_slope is decided in run_all's forked child
        for name, value in (("frenet_consistency", "1e-30"),
                            ("rectifying_slope", "1e-12")):
            out = tmp_path / f"{name}.json"
            code = main(["verify", "--output", str(out), "--tol", f"{name}={value}"])
            assert code == 3
            payload = json.loads(out.read_text())
            failed = [c for c in payload["checks"] if not c["passed"]]
            assert [c["name"] for c in failed] == [name]

    def test_failed_check_names_its_draw(self, tmp_path):
        out = tmp_path / "slope.json"
        assert main(["verify", "--output", str(out), "--seed", "0",
                     "--tol", "rectifying_slope=1e-12"]) == 3
        payload = json.loads(out.read_text())
        assert payload["schema"] == 3
        checks = {c["name"]: c for c in payload["checks"]}
        slope = checks["rectifying_slope"]
        assert slope["passed"] is False
        assert sorted(slope["where"]) == ["index", "kappa", "m1", "n1"]
        assert checks["frenet_consistency"]["where"] is None
        assert sorted(checks["constant_invariant_roundtrip"]["where"]) == [
            "index", "kappa", "r0", "tau"]
        # the named draw, synthesized and classified again, gives the worst
        # residual bit for bit
        m1, n1, kappa = (slope["where"][k] for k in ("m1", "n1", "kappa"))
        window = (-m1 - 1.0, -m1 + 1.0)
        traj = synth_rectifying(m1, n1, f"{kappa!r}", window, step=1e-3, margin=0.05)
        verdict = classify_rectifying(
            frame_components_arrays(frenet_grid(traj.to_curve(*window)), ORIGIN))
        assert abs(verdict.a * n1 + 1.0) == slope["worst"]

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert main(["verify", "--output", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "pgcurves: input error: seed must be non-negative, got -1\n")
        assert not out.exists()

    def test_unknown_tolerance_exit_1(self, tmp_path):
        code = main(["verify", "--output", str(tmp_path / "v.json"),
                     "--tol", "bogus=1"])
        assert code == 1

    @pytest.mark.parametrize("name", ["tol_adm", "tol_classify"])
    def test_command_tolerance_is_not_a_check_name(self, tmp_path, capsys, name):
        out = tmp_path / "v.json"
        assert main(["verify", "--output", str(out), "--tol", f"{name}=1e-3"]) == 1
        assert "unknown tolerance name" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism(self, tmp_path):
        for name in ("a.json", "b.json"):
            assert main(["verify", "--output", str(tmp_path / name),
                         "--seed", "42"]) == 0
        assert ((tmp_path / "a.json").read_text()
                == (tmp_path / "b.json").read_text())


class TestPlotData:
    def test_series_files(self, tmp_path, cosh_sinh_file):
        out_dir = tmp_path / "series"
        code = main(["plot-data", "--input", str(cosh_sinh_file),
                     "--output", str(out_dir)])
        assert code == 0
        for name in ("kappa.dat", "tau.dat", "tau_over_kappa.dat", "beta.dat"):
            data = np.loadtxt(out_dir / name)
            assert data.shape == (201, 2)
        ratio = np.loadtxt(out_dir / "tau_over_kappa.dat")
        np.testing.assert_allclose(ratio[:, 1], 1.0, atol=1e-9)
        beta = np.loadtxt(out_dir / "beta.dat")
        np.testing.assert_allclose(beta[:, 1], 1.0, atol=1e-9)

    # plot-data writes its four series in lockstep, a block of rows at a time:
    # the grid and its decomposition are made before tracing starts, so the
    # peak is the tau/kappa series and one block's strings, not a whole
    # column of s as text
    def test_writer_memory_is_bounded(self, tmp_path, monkeypatch):
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"y": "1.5*cosh(s)", "z": "1.5*sinh(s)",
                                     "s_min": -2.0, "s_max": 2.0, "samples": 20001}))
        grid = frenet_grid(load_curve(curve))
        dec = frame_components_arrays(grid, ORIGIN)
        monkeypatch.setattr(pgcurves.cli, "frenet_grid", lambda *args, **kwargs: grid)
        monkeypatch.setattr(pgcurves.cli, "frame_components_arrays", lambda *args: dec)
        tracemalloc.start()
        try:
            assert main(["plot-data", "--input", str(curve),
                         "--output", str(tmp_path / "series")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for name in ("kappa", "tau", "tau_over_kappa", "beta"):
            assert (tmp_path / "series" / f"{name}.dat").read_text().count("\n") == 20001
        assert peak < 1.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

    # the count and the first s are over the whole grid, not one block
    def test_inadmissible_count_spans_blocks(self, tmp_path, capfd):
        curve = tmp_path / "lightlike.json"
        curve.write_text(json.dumps({"y": "s^2/2", "z": "s^2/2", "s_min": 0.0,
                                     "s_max": 1.0, "samples": 20001}))
        code = main(["plot-data", "--input", str(curve), "--output", str(tmp_path / "series")])
        assert code == 2
        assert capfd.readouterr().err == ("pgcurves: admissibility error: y''^2 - z''^2 below "
                                          "1e-12 at 20001 grid point(s), first at s=0.0\n")

    def test_inadmissible_location_is_a_plain_float(self, tmp_path, capfd):
        curve = tmp_path / "lightlike.json"
        curve.write_text(json.dumps({"y": "s^2", "z": "s^2", "s_min": 0.0, "s_max": 1.0}))
        code = main(["plot-data", "--input", str(curve), "--output", str(tmp_path / "series")])
        assert code == 2
        assert capfd.readouterr().err.endswith("first at s=0.0\n")

    def test_affine_ratio_for_rectifying_output(self, tmp_path):
        curve_path = tmp_path / "synth.csv"
        assert main(["synthesize", "--m1", "0.5", "--n1", "2", "--kappa", "1",
                     "--s-min", "-1.5", "--s-max", "0.5",
                     "--output", str(curve_path)]) == 0
        out_dir = tmp_path / "series"
        assert main(["plot-data", "--input", str(curve_path),
                     "--output", str(out_dir)]) == 0
        data = np.loadtxt(out_dir / "tau_over_kappa.dat")
        s, ratio = data[:, 0], data[:, 1]
        slope, intercept = np.polyfit(s, ratio, 1)
        assert slope == pytest.approx(-0.5, abs=1e-4)
        assert intercept == pytest.approx(-0.25, abs=1e-4)
        residual = np.max(np.abs(ratio - (slope * s + intercept)))
        assert residual <= 1e-4


@pytest.mark.parametrize("command,flag", [
    ("analyze", ["--tol-adm", "nan"]),
    ("analyze", ["--tol-adm", "inf"]),
    ("classify", ["--tol-classify", "nan"]),
    ("verify", ["--tol", "rectifying_slope=nan"]),
], ids=["tol-adm-nan", "tol-adm-inf", "tol-classify-nan", "tol-nan"])
def test_non_finite_tolerance_exit_1(tmp_path, cosh_sinh_file, capsys, command, flag):
    out = tmp_path / "out.json"
    argv = [command, "--output", str(out)] + flag
    if command != "verify":
        argv += ["--input", str(cosh_sinh_file)]
    assert main(argv) == 1
    assert "must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("synthesize", "--s-max=inf"),
    ("synthesize", "--s-min=-inf"),
    ("synthesize", "--step=inf"),
    ("synthesize", "--step=nan"),
    ("analyze", "--s-max=inf"),
    ("analyze", "--s-min=nan"),
])
@pytest.mark.filterwarnings("error")
def test_non_finite_window_or_step_exit_1(tmp_path, cosh_sinh_file, capsys, command, flag):
    if flag.startswith("--step"):
        message = "step must be finite and positive"
    else:
        message = "require finite s_min < s_max"
    out = tmp_path / "out.csv"
    if command == "synthesize":
        argv = ["synthesize", "--kappa", "1", "--tau", "1"]
    else:
        argv = ["analyze", "--input", str(cosh_sinh_file)]
    assert main(argv + [flag, "--output", str(out)]) == 1
    assert f"pgcurves: input error: {message}" in capsys.readouterr().err
    assert not out.exists()


def _run_fresh_interpreter(probe):
    """Run probe in a new interpreter that imports the pgcurves under test."""
    src = str(Path(pgcurves.cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


# a fresh interpreter, since pytest records warnings raised in-process
# instead of printing them
@pytest.mark.parametrize("command, output", [("analyze", "report"),
                                             ("classify", "verdict.json")])
def test_huge_curvature_leaves_stderr_empty(tmp_path, command, output):
    curve = tmp_path / "scaled.json"
    curve.write_text(json.dumps({"y": "1e70*cosh(s)", "z": "1e70*sinh(s)",
                                 "s_min": 0.0, "s_max": 1.0, "samples": 51}))
    probe = ("import pgcurves.cli; "
             f"print(pgcurves.cli.main([{command!r}, '--input', {str(curve)!r}, "
             f"'--output', {str(tmp_path / output)!r}]))")
    out = _run_fresh_interpreter(probe)
    assert out.stdout.split() == ["0"]
    assert out.stderr == ""


# y''^2 - z''^2 overflows to inf from the first point on, or, on the exp(400 s)
# window, 2 y'' y''' (in kappa') overflows from s = 0.849 while y''^2 - z''^2
# stays finite; warnings are errors, so a numpy warning on the way fails the test
@pytest.mark.parametrize("y, z, s_min, s_max, message", [
    ("1e200*s^2", "s^3", 0.5, 1.0, "y''^2 - z''^2 is not finite from s=0.5"),
    ("1e160*cosh(s)", "1e160*sinh(s)", 0.5, 1.0, "y''^2 - z''^2 is not finite from s=0.5"),
    ("exp(400*s)", "0", 0.84, 0.855, "kappa' is not finite from s=0.849"),
], ids=["1e200-parabola", "1e160-cosh-sinh", "exp400-kappa-d1"])
@pytest.mark.parametrize("command", ["analyze", "classify", "plot-data"])
@pytest.mark.filterwarnings("error")
def test_overflowing_curvature_exit_1(tmp_path, capfd, command, y, z, s_min, s_max, message):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"y": y, "z": z, "s_min": s_min, "s_max": s_max,
                                 "samples": 11}))
    code = main([command, "--input", str(curve), "--output", str(tmp_path / "out")])
    assert code == 1
    assert capfd.readouterr().err == f"pgcurves: input error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["curve.json"]


@pytest.mark.parametrize("module", ["pgcurves", "pgcurves.cli"])
def test_import_loads_no_scipy_subpackage(module):
    # The top-level scipy package (about 8 ms) stays imported, because the
    # environment stamp of perfbench/host.py reads scipy.__version__ from
    # sys.modules.  Its public subpackages, the spline stack among them, load
    # only when a sampled curve is built.
    probe = (f"import sys, {module}, scipy; "
             "print(sorted(m for m in scipy.submodules if 'scipy.' + m in sys.modules))")
    out = _run_fresh_interpreter(probe)
    assert out.stdout.strip() == "[]"


def test_import_builds_no_format_tables():
    # format_floats builds its power-of-ten, digit and mask tables on first
    # use, so commands that write no float table never pay for them
    probe = ("import pgcurves.cli, pgcurves.fileio as fileio; "
             "print(fileio._kernel_tables.cache_info().currsize); "
             "fileio.format_floats([0.5]); "
             "print(fileio._kernel_tables.cache_info().currsize)")
    assert _run_fresh_interpreter(probe).stdout.split() == ["0", "1"]


def test_oversize_input_exit_1(tmp_path, cosh_sinh_file):
    # The address-space limit makes the allocations fail on any host,
    # whatever its memory and overcommit policy.
    synth_out, analyze_out = tmp_path / "synth.csv", tmp_path / "analyze"
    probe = ("import resource, pgcurves.cli; "
             "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
             "print(pgcurves.cli.main(['synthesize', '--kappa', '1', '--tau', '1', "
             f"'--s-max', '1e12', '--output', {str(synth_out)!r}]), "
             f"pgcurves.cli.main(['analyze', '--input', {str(cosh_sinh_file)!r}, "
             f"'--samples', str(10 ** 11), '--output', {str(analyze_out)!r}]))")
    out = _run_fresh_interpreter(probe)
    assert out.stdout.split() == ["1", "1"]
    lines = out.stderr.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("pgcurves: input error: ")
        assert line.endswith(": the input is too large")
    assert not synth_out.exists() and not analyze_out.exists()


def _output_bytes(path):
    """The bytes of a file, or of every file under a directory by name."""
    if path.is_file():
        return path.read_bytes()
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*"))}


@pytest.mark.parametrize("command", ["classify", "plot-data", "analyze", "verify"])
def test_cold_sampled_command_loads_no_scipy_subpackage(tmp_path, cosh_sinh_csv, command):
    # the quintic spline is numpy code around one LAPACK call, dgbsv, whose
    # extension module loads from its own file: a sampled curve imports
    # neither scipy.linalg nor the spline stack.  verify draws from
    # random.Random, so numpy.random, and OpenSSL with it, stays unloaded
    args = ["--seed", "0"] if command == "verify" else ["--input", str(cosh_sinh_csv)]
    output = "report.json" if command in ("classify", "verify") else "out"
    cold, warm = tmp_path / "cold" / output, tmp_path / "warm" / output
    probe = ("import sys, scipy, pgcurves.cli; "
             f"code = pgcurves.cli.main([{command!r}, *{args!r}, '--output', {str(cold)!r}]); "
             "print(code, sorted(m for m in scipy.submodules if 'scipy.' + m in sys.modules), "
             "*(m in sys.modules for m in ('numpy.random', 'secrets', 'hashlib', '_hashlib')))")
    out = _run_fresh_interpreter(probe)
    assert out.stdout.split() == ["0", "[]", "False", "False", "False", "False"]
    assert main([command, *args, "--output", str(warm)]) == 0
    assert _output_bytes(cold) == _output_bytes(warm)


@pytest.mark.parametrize("linalg_first", [False, True])
def test_scipy_works_beside_loaded_lapack(tmp_path, cosh_sinh_csv, linalg_first):
    # pgcurves loads scipy's _flapack extension from its file, under its own
    # name, so scipy.linalg finds that module whichever is imported first
    probe = ("import sys; "
             + ("import scipy.linalg; " if linalg_first else "")
             + "import numpy as np, pgcurves.cli; from pgcurves import spline; "
             f"code = pgcurves.cli.main(['classify', '--input', {str(cosh_sinh_csv)!r}, "
             f"'--output', {str(tmp_path / 'verdict.json')!r}]); "
             "linalg = 'scipy.linalg' in sys.modules; "
             "import scipy.interpolate, scipy.linalg.lapack; "
             "x = np.linspace(0.0, 2.0, 41); y = np.column_stack([np.cosh(x), np.sinh(x)]); "
             "t, c = spline.interpolate(x, y); "
             "b = scipy.interpolate.make_interp_spline(x, y, k=5); "
             "print(code, linalg, scipy.linalg.lapack.dgbsv is spline._dgbsv(), "
             "t.tobytes() == b.t.tobytes(), c.tobytes() == b.c.tobytes())")
    out = _run_fresh_interpreter(probe)
    assert out.stdout.split() == ["0", str(linalg_first), "True", "True", "True"]
