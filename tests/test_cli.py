"""Command-line interface tests: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pgcurves.cli
from pgcurves import spline
from pgcurves.cli import main
from pgcurves.frenet import CurveDef


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

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        text = (tmp_path / "report.json").read_text()
        payload = json.loads(text, parse_constant=reject)
        (row,) = [row for row in payload["rows"] if row["s"] == 1.0]
        assert row["kappa"] is None and row["tau"] is None
        assert "NaN" in (tmp_path / "report.csv").read_text()

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
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "neither"
        assert payload["parameters"]["a"] == pytest.approx(0.0, abs=1e-9)
        assert payload["residuals"]["beta_max"] == pytest.approx(1.0, rel=1e-9)

    def test_synthesized_curve_is_rectifying(self, tmp_path):
        curve_path = tmp_path / "synth.csv"
        code = main(["synthesize", "--m1", "0", "--n1", "1", "--kappa", "1",
                     "--s-min", "0", "--s-max", "2", "--output", str(curve_path)])
        assert code == 0
        out = tmp_path / "verdict.json"
        code = main(["classify", "--input", str(curve_path),
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "rectifying"
        assert payload["parameters"]["m1"] == pytest.approx(0.0, abs=1e-5)
        assert payload["parameters"]["n1"] == pytest.approx(1.0, abs=1e-5)

    def test_inadmissible_exit_2(self, tmp_path, line_file):
        out = tmp_path / "verdict.json"
        code = main(["classify", "--input", str(line_file), "--output", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["verdict"] is None

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

    def test_origin_shift_changes_m1(self, tmp_path, cosh_sinh_file):
        out = tmp_path / "verdict.json"
        code = main(["classify", "--input", str(cosh_sinh_file),
                     "--output", str(out), "--origin", "5,0,0"])
        assert code == 0
        payload = json.loads(out.read_text())
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


def test_cold_sampled_classify_loads_linalg_not_interpolate(tmp_path, cosh_sinh_csv):
    # the quintic spline is numpy code around one LAPACK call, dgbsv, so a
    # sampled curve loads scipy.linalg and never the spline stack
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    probe = ("import sys, pgcurves.cli; "
             f"code = pgcurves.cli.main(['classify', '--input', {str(cosh_sinh_csv)!r}, "
             f"'--output', {str(cold)!r}]); "
             "print(code, 'scipy.interpolate' in sys.modules, 'scipy.linalg' in sys.modules)")
    out = _run_fresh_interpreter(probe)
    assert out.stdout.split() == ["0", "False", "True"]
    assert main(["classify", "--input", str(cosh_sinh_csv), "--output", str(warm)]) == 0
    assert cold.read_bytes() == warm.read_bytes()
