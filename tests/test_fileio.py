"""Serialization tests: deterministic JSON, curve files, report tables."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgcurves import fileio
from pgcurves.cli import main
from pgcurves.fileio import (
    FloatColumn,
    FloatTable,
    _write_table,
    dumps_json,
    format_float,
    format_floats,
    load_curve,
    load_curve_csv,
    load_curve_json,
    write_frenet_csv,
    write_series,
    write_trajectory_csv,
)
from pgcurves.frenet import frenet_grid
from pgcurves.synth import integrate_frenet, profile


class TestFormatFloat:
    def test_round_trips_doubles(self):
        rng = np.random.default_rng(5)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(format_float(float(x))) == float(x)

    def test_special_values(self):
        assert format_float(float("nan")) == "NaN"
        assert format_float(float("inf")) == "Infinity"
        assert format_float(float("-inf")) == "-Infinity"

    def test_fixed_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"


def _float_corpus():
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e-310, 1e308, -1e308, 1.7976931348623157e308, 1.0, -3.0,
               2.0 ** 53, 1e16, 1.0 / 3.0, float("nan"), float("inf"),
               float("-inf")]
    magnitudes = 10.0 ** rng.uniform(-300, 300, 500)
    signs = rng.choice([-1.0, 1.0], 500)
    return np.concatenate([special, signs * magnitudes, rng.standard_normal(200)])


def _reference(values):
    """format(x, ".17g") with format_float's spellings of NaN and the infinities."""
    values = np.asarray(values, dtype=float)
    text = [format(x, ".17g") for x in values.tolist()]
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        text[i] = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[text[i]]
    return text


def _signed(values):
    values = np.asarray(values, dtype=float).ravel()
    return np.concatenate([values, -values])


def _powers_of_ten_and_neighbours():
    powers = 10.0 ** np.arange(-300, 301).astype(float)
    return _signed([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


# Inputs where a vectorised %.17g goes wrong first: the normalisation of the
# decimal exponent at powers of ten, values that round up to the next power,
# exact ties at the 17th digit (1234567890123456.25 and .75), integers past
# 2^53, and the magnitudes at both ends of the double range.
_EDGE_CASES = {
    "powers_of_ten": _powers_of_ten_and_neighbours,
    "powers_of_two": lambda: _signed(2.0 ** np.arange(-999, 1000).astype(float)),
    "halves": lambda: _signed(np.arange(-10_000, 10_000) + 0.5),
    "ties_at_17_digits": lambda: _signed(1234567890123456.0 + np.arange(1_000)
                                         + np.array([[0.25], [0.75]])),
    "past_2_53": lambda: _signed(2.0 ** 53 + 2.0 * np.arange(10_000)),
    "rounds_to_next_power": lambda: _signed(
        [9.9999999999999999e22, 99999999999999999.0, 0.99999999999999999,
         9.99999999999999999e-5, 9.999999999999999e16, 1e17 - 8.0]),
    "subnormal_zero_max": lambda: _signed(
        [5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0,
         1e-250, 1e270, 1.7976931348623157e308, np.inf, np.nan]),
}


class TestFormatFloats:
    def test_matches_format_float(self):
        corpus = _float_corpus()
        assert format_floats(corpus) == [format_float(x) for x in corpus]

    def test_empty(self):
        assert format_floats(np.array([])) == []

    @pytest.mark.parametrize("name", sorted(_EDGE_CASES))
    def test_edge_cases_match_format(self, name):
        values = _EDGE_CASES[name]()
        assert format_floats(values) == _reference(values)

    def test_random_bit_patterns_match_format(self):
        bits = np.random.default_rng(2024).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
        values = bits.view(np.float64)
        assert format_floats(values) == _reference(values)

    @given(st.lists(st.floats(), max_size=50))
    def test_hypothesis_floats_match_format(self, values):
        assert format_floats(np.array(values, dtype=float)) == _reference(values)

    def test_zeros_bypass_the_scalar_formatter(self, monkeypatch):
        calls = []

        def spy(x):
            calls.append(x)
            return format_float(x)

        monkeypatch.setattr(fileio, "format_float", spy)
        zeros = np.where(np.arange(2049) % 3 == 0, -0.0, 0.0)
        assert format_floats(zeros) == _reference(zeros)
        assert calls == []
        zeros[2048] = np.nan
        assert format_floats(zeros)[2047:] == ["0", "NaN"]
        assert len(calls) == 1

    def test_json_text_nulls_only_non_finite(self):
        corpus = _float_corpus()
        column = FloatColumn(corpus)
        json_text = column.json_text()
        assert json_text.count("null") == 3
        finite = np.isfinite(corpus)
        assert ([t for t, ok in zip(json_text, finite) if ok]
                == [format_float(x) for x in corpus[finite]])
        assert "NaN" in column.text()


class TestDumpsJson:
    def test_parses_back(self):
        payload = {"a": 1, "b": [1.5, "x", None, True], "c": {"d": -0.1}}
        assert json.loads(dumps_json(payload)) == payload

    def test_byte_identical(self):
        payload = {"values": list(np.linspace(0, 1, 7)), "flag": False}
        assert dumps_json(payload) == dumps_json(json.loads(dumps_json(payload)) | {})

    def test_numpy_scalars(self):
        text = dumps_json({"x": np.float64(0.5), "n": np.int64(3)})
        assert json.loads(text) == {"x": 0.5, "n": 3}

    def test_empty_containers(self):
        assert json.loads(dumps_json({"a": [], "b": {}})) == {"a": [], "b": {}}

    def test_non_finite_floats_are_null(self):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = {"a": float("nan"), "b": [np.float64("inf"), -math.inf, 1.5]}
        assert json.loads(dumps_json(payload), parse_constant=reject) == {
            "a": None, "b": [None, None, 1.5]}


@pytest.fixture
def cosh_sinh_report(tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"y": "2*cosh(s)", "z": "2*sinh(s)",
                                 "s_min": -1.0, "s_max": 1.0, "samples": 21}))
    assert main(["analyze", "--input", str(curve),
                 "--output", str(tmp_path / "report")]) == 0
    return tmp_path


class TestFloatTable:
    names = ("s", "kappa", "odd%key", "res")

    def _columns(self, n):
        rng = np.random.default_rng(3)
        columns = [np.linspace(0.0, 1.0, n), rng.standard_normal(n),
                   10.0 ** rng.uniform(-300, 300, n),
                   np.where(np.arange(n) % 3 == 0, -0.0, 0.0)]
        if n:
            columns[1][n // 2] = math.nan
            columns[2][0] = -math.inf
        return columns

    def _as_dicts(self, columns):
        return [{name: float(col[i]) for name, col in zip(self.names, columns)}
                for i in range(columns[0].size)]

    # 2049 rows cross a block boundary of the formatting kernel
    @pytest.mark.parametrize("n", [0, 1, 9, 2049])
    def test_rows_match_list_of_dicts(self, n):
        columns = self._columns(n)
        table = FloatTable(self.names, columns)
        rows = self._as_dicts(columns)
        assert dumps_json(table) == dumps_json(rows)
        assert (dumps_json({"schema": 1, "rows": table})
                == dumps_json({"schema": 1, "rows": rows}))

    @pytest.mark.parametrize("n", [0, 1, 2049])
    def test_csv_matches_line_by_line(self, n, tmp_path):
        columns = self._columns(n)
        path = tmp_path / "table.csv"
        _write_table(path, FloatTable(self.names, columns))
        lines = [",".join(self.names)]
        lines += [",".join(format_float(col[i]) for col in columns) for i in range(n)]
        assert path.read_text() == "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("n", [0, 1, 2049])
    def test_series_matches_line_by_line(self, n, tmp_path):
        s, _, values, _ = self._columns(n)
        path = tmp_path / "series.dat"
        write_series(path, FloatColumn(s), values)
        assert path.read_text() == "".join(f"{format_float(a)} {format_float(b)}\n"
                                           for a, b in zip(s, values))

    def test_csv_and_json_share_strings(self, cosh_sinh_report):
        json_rows = json.loads((cosh_sinh_report / "report.json").read_text(),
                               parse_float=str, parse_int=str)["rows"]
        lines = (cosh_sinh_report / "report.csv").read_text().splitlines()
        names = lines[0].split(",")
        csv_rows = [dict(zip(names, line.split(","))) for line in lines[1:]]
        assert len(json_rows) == len(csv_rows) == 21
        assert json_rows == csv_rows


class TestCurveFiles:
    def test_json_curve(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({
            "param": "s", "y": "cosh(s)", "z": "sinh(s)",
            "s_min": 0.0, "s_max": 2.0, "samples": 101}))
        curve = load_curve_json(path)
        assert curve.exact and curve.samples == 101
        _, y, _ = curve.position(1.0)
        assert y == pytest.approx(math.cosh(1.0), rel=1e-15)

    def test_json_curve_missing_field(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"y": "s", "s_min": 0, "s_max": 1}))
        with pytest.raises(ValueError, match="missing"):
            load_curve_json(path)

    @pytest.mark.parametrize("field, value, message", [
        ("y", 3, "field 'y' must be a string, got int"),
        ("z", ["s"], "field 'z' must be a string, got list"),
        ("param", 1.5, "field 'param' must be a string, got float"),
        ("s_min", "0", "field 's_min' must be a number, got str"),
        ("s_max", True, "field 's_max' must be a number, got bool"),
        ("samples", 2.7, "field 'samples' must be an integer, got float"),
        ("samples", False, "field 'samples' must be an integer, got bool"),
    ])
    def test_json_curve_field_types(self, tmp_path, field, value, message):
        path = tmp_path / "curve.json"
        curve = {"param": "s", "y": "cosh(s)", "z": "sinh(s)",
                 "s_min": 0, "s_max": 2.0, "samples": 11}
        path.write_text(json.dumps(curve | {field: value}))
        with pytest.raises(ValueError, match=f"curve.json: {re.escape(message)}"):
            load_curve_json(path)

    def test_csv_round_trip(self, tmp_path):
        traj = integrate_frenet(profile("1", "1", 0.0, 2.0), step=1e-3)
        path = tmp_path / "curve.csv"
        write_trajectory_csv(path, traj, frames=True)
        curve = load_curve_csv(path)
        assert not curve.exact
        grid = frenet_grid(curve, np.linspace(0.1, 1.9, 50))
        assert np.max(np.abs(grid.kappa - 1.0)) <= 1e-4
        assert np.max(np.abs(grid.tau - 1.0)) <= 1e-4

    def test_csv_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,0,0,0\n")
        with pytest.raises(ValueError, match="expected columns"):
            load_curve_csv(path)

    def test_load_curve_dispatch(self, tmp_path):
        with pytest.raises(ValueError, match="expected a .json"):
            load_curve(tmp_path / "curve.txt")

    def test_frenet_csv_columns(self, tmp_path):
        from pgcurves.frenet import curve_from_exprs

        curve = curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 1.0, samples=11)
        grid = frenet_grid(curve)
        path = tmp_path / "out.csv"
        write_frenet_csv(path, grid)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("s,kappa,tau,eps,t_y,t_z,n_y,n_z,b_y,b_z,"
                            "res_t,res_n,res_b")
        assert len(lines) == 12
