"""Serialization tests: deterministic JSON, curve files, report tables."""

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgcurves import fileio
from pgcurves.cli import main
from pgcurves.fileio import (
    FloatTable,
    _write_table,
    dumps_json,
    format_float,
    format_floats,
    load_curve,
    load_curve_csv,
    load_curve_json,
    write_json,
    write_series,
    write_trajectory_csv,
)
from pgcurves.frenet import SampleError, curve_from_samples, frenet_grid
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


def _first_difference(text, expected):
    """None if the texts are equal, else the first offset where they differ
    with the text around it there: a short report where == would make pytest
    diff megabytes."""
    if text == expected:
        return None
    at = len(os.path.commonprefix([text, expected]))
    return at, text[at - 80:at + 80], expected[at - 80:at + 80]


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

    # The JSON side of a table holds null where the CSV side holds NaN,
    # Infinity or -Infinity, and the CSV's own strings everywhere else; the
    # corpus three times over spans two blocks of rows.
    def test_json_text_nulls_only_non_finite(self, tmp_path):
        corpus = np.tile(_float_corpus(), 3)
        csv, report = tmp_path / "rows.csv", tmp_path / "rows.json"
        write_json(report, FloatTable(("x",), [corpus], csv=csv))
        values = [row["x"] for row in json.loads(report.read_text(), parse_float=str,
                                                  parse_int=str)]
        finite = np.isfinite(corpus)
        assert [value is None for value in values] == (~finite).tolist()
        assert ([value for value in values if value is not None]
                == [format_float(x) for x in corpus[finite]])
        assert csv.read_text().splitlines()[1:] == [format_float(x) for x in corpus]
        assert "NaN" not in report.read_text()


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


class TestFloatTable:
    names = ("s", "kappa", "odd%key", "res")

    # the first and the last row of every block hold NaN, both infinities,
    # 0 and -0
    def _columns(self, n):
        rng = np.random.default_rng(3)
        columns = [np.linspace(0.0, 1.0, n), rng.standard_normal(n),
                   10.0 ** rng.uniform(-300, 300, n),
                   np.where(np.arange(n) % 3 == 0, -0.0, 0.0)]
        for first in range(0, n, fileio._BLOCK):
            last = min(first + fileio._BLOCK, n) - 1
            columns[1][[first, last]] = math.nan, math.inf
            columns[2][[first, last]] = -math.inf, -0.0
            columns[3][[first, last]] = 0.0, -0.0
        return columns

    def _as_dicts(self, columns, names=names):
        return [{name: float(col[i]) for name, col in zip(names, columns)}
                for i in range(columns[0].size)]

    def _csv(self, columns, names=names):
        lines = [",".join(names)]
        lines += [",".join(format_float(col[i]) for col in columns)
                  for i in range(columns[0].size)]
        return "".join(line + "\n" for line in lines)

    # the blocks of _BLOCK = 2048 rows: one short block, one exactly full,
    # one row either side of the boundary, and one row past two full blocks
    @pytest.mark.parametrize("n", [0, 1, 9, 2047, 2048, 2049, 4097])
    def test_rows_match_list_of_dicts(self, n, tmp_path):
        columns = self._columns(n)
        table = FloatTable(self.names, columns)
        rows = self._as_dicts(columns)
        assert dumps_json(table) == dumps_json(rows)
        expected = dumps_json({"schema": 1, "rows": rows})
        assert dumps_json({"schema": 1, "rows": table}) == expected
        write_json(tmp_path / "report.json", {"schema": 1, "rows": table})
        assert (tmp_path / "report.json").read_text() == expected

    @pytest.mark.parametrize("n", [0, 1, 2047, 2048, 2049, 4097])
    def test_csv_matches_line_by_line(self, n, tmp_path):
        columns = self._columns(n)
        path = tmp_path / "table.csv"
        _write_table(path, FloatTable(self.names, columns))
        assert path.read_text() == self._csv(columns)

    @pytest.mark.parametrize("n", [0, 1, 2047, 2048, 2049, 4097])
    def test_csv_written_with_json_rows(self, n, tmp_path):
        columns = self._columns(n)
        csv, report = tmp_path / "table.csv", tmp_path / "report.json"
        write_json(report, {"rows": FloatTable(self.names, columns, csv=csv)})
        assert report.read_text() == dumps_json({"rows": self._as_dicts(columns)})
        assert csv.read_text() == self._csv(columns)

    # one series alone, and three in lockstep beside one s
    @pytest.mark.parametrize("n", [0, 1, 2047, 2048, 2049, 4097])
    def test_series_matches_line_by_line(self, n, tmp_path):
        s, *columns = self._columns(n)
        paths = [tmp_path / f"{name}.dat" for name in ("a", "b", "c")]
        write_series(tmp_path / "alone.dat", s, columns[0])
        write_series(paths[0], s, columns[0], *zip(paths[1:], columns[1:]))
        for path, values in zip([tmp_path / "alone.dat"] + paths, columns[:1] + columns):
            assert path.read_text() == "".join(f"{format_float(a)} {format_float(b)}\n"
                                               for a, b in zip(s, values))

    # every value of the edge cases and of 10^5 random bit patterns (NaN, the
    # infinities, zeros, subnormals, ties, magnitudes outside the kernel's
    # range) through both writers, against the scalar path: dumps_json of
    # plain row dicts, and format_float lines.  Three columns, one of them
    # passed twice, make blocks of _BLOCK // 4 rows; None takes every value.
    @pytest.mark.parametrize("n", [0, 1, fileio._BLOCK // 4 - 1, fileio._BLOCK // 4,
                                   fileio._BLOCK // 4 + 1, None])
    def test_writers_match_scalar_reference(self, n, tmp_path):
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
        pool = rng.permutation(np.concatenate([make() for make in _EDGE_CASES.values()]
                                              + [bits]))
        n = len(pool) // 3 if n is None else n
        a, b, c = pool[:3 * n].reshape(3, n)
        names = ("a", "b", "c", "b_again")
        csv, report = tmp_path / "table.csv", tmp_path / "report.json"
        write_json(report, {"rows": FloatTable(names, [a, b, c, b], csv=csv)})
        rows = [dict(zip(names, row)) for row in zip(a.tolist(), b.tolist(), c.tolist(),
                                                     b.tolist())]
        assert _first_difference(report.read_text(), dumps_json({"rows": rows})) is None
        text = [[format_float(x) for x in column.tolist()] for column in (a, b, c)]
        lines = [",".join(names)] + [",".join(row) for row in zip(*text, text[1])]
        assert _first_difference(csv.read_text(), "".join(f"{line}\n" for line in lines)) is None
        paths = [tmp_path / f"{name}.dat" for name in names[1:]]
        write_series(paths[0], a, b, (paths[1], c), (paths[2], b))
        for path, column in zip(paths, [text[1], text[2], text[1]]):
            assert _first_difference(path.read_text(), "".join(
                f"{s} {v}\n" for s, v in zip(text[0], column))) is None

    def _spy(self, monkeypatch):
        """The values and layout indices of every call of the kernel."""
        calls = []
        kernel = fileio._format_block

        def spy(values, layouts):
            calls.append((values.copy(), [list(index) for index, _ in layouts]))
            return kernel(values, layouts)

        monkeypatch.setattr(fileio, "_format_block", spy)
        return calls

    @staticmethod
    def _formatted_once(calls, columns):
        """Whether the calls' values, block after block, are the columns, bit
        for bit, each row once."""
        values = np.concatenate([values for values, _ in calls])
        return np.array_equal(values.view(np.uint64),
                              np.column_stack(columns).view(np.uint64))

    # one call per block of rows, with s and each series as its distinct
    # columns and one layout per series file: each block of s is formatted
    # once for all the series.  Four columns make blocks of _BLOCK // 4 rows.
    def test_series_share_each_block_of_s(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        s, *columns = self._columns(4097)
        paths = [tmp_path / f"{name}.dat" for name in ("a", "b", "c")]
        write_series(paths[0], s, columns[0], *zip(paths[1:], columns[1:]))
        assert [len(values) for values, _ in calls] == [512] * 8 + [1]
        assert all(layouts == [[0, 1], [0, 2], [0, 3]] for _, layouts in calls)
        assert self._formatted_once(calls, [s] + columns)

    # each block of each distinct column is formatted once, for the CSV and
    # the JSON rows together, and gathered into the column passed twice.
    # Five named columns make blocks of _BLOCK // 5 rows.
    def test_column_passed_twice_is_formatted_once(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        columns = self._columns(4097)
        names = ("a", "b", "c", "d", "e")
        csv, report = tmp_path / "table.csv", tmp_path / "report.json"
        write_json(report, FloatTable(names, columns + [columns[1]], csv=csv))
        assert [len(values) for values, _ in calls] == [409] * 10 + [7]
        assert all(layouts == [[0, 1, 2, 3, 1]] for _, layouts in calls)
        assert self._formatted_once(calls, columns)
        assert csv.read_text() == self._csv(columns + [columns[1]], names)
        assert report.read_text() == dumps_json(self._as_dicts(columns + [columns[1]], names))

    # s^2/2, s^3/6 is lightlike at s = -1 and 1; its 13 columns make blocks
    # of _BLOCK // 13 = 157 rows.  On [-1, 2] with 3,298 samples the null
    # rows are the first of blocks 0 and 14, on [-3, 1] with 4,081 the last
    # of blocks 12 and 25.  Each block of each column is formatted once, and
    # the JSON rows hold the CSV's text, with null for the non-finite values.
    def test_csv_and_json_share_strings(self, tmp_path, monkeypatch):
        names = fileio.FRENET_COLUMNS
        for s_min, s_max, samples, null_rows in [(-1.0, 2.0, 3298, [0, 2198]),
                                                 (-3.0, 1.0, 4081, [2040, 4080])]:
            curve = tmp_path / "curve.json"
            curve.write_text(json.dumps({"y": "s^2/2", "z": "s^3/6", "s_min": s_min,
                                         "s_max": s_max, "samples": samples}))
            columns = [getattr(frenet_grid(load_curve(curve)), name)
                       for name in names]
            with monkeypatch.context() as patch:
                calls = self._spy(patch)
                assert main(["analyze", "--input", str(curve),
                             "--output", str(tmp_path / "report")]) == 2
            blocks = [157] * (samples // 157) + [samples % 157]
            assert [len(values) for values, _ in calls] == blocks
            assert self._formatted_once(calls, columns)
            csv_text = (tmp_path / "report.csv").read_text()
            json_text = (tmp_path / "report.json").read_text()
            assert csv_text == self._csv(columns, names)
            rows = dumps_json({"rows": self._as_dicts(columns, names)})
            assert json_text.endswith(rows.split("\n", 1)[1])
            json_rows = json.loads(json_text, parse_float=str, parse_int=str)["rows"]
            csv_rows = [dict(zip(names, line.split(","))) for line in csv_text.splitlines()[1:]]
            assert [i for i, row in enumerate(json_rows) if row["kappa"] is None] == null_rows
            assert json_rows == [{name: None if name != "s" and i in null_rows else value
                                  for name, value in row.items()}
                                 for i, row in enumerate(csv_rows)]


class TestCurveFiles:
    def test_json_curve(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({
            "param": "s", "y": "cosh(s)", "z": "sinh(s)",
            "s_min": 0.0, "s_max": 2.0, "samples": 101}))
        curve = load_curve_json(path)
        assert curve.exact and curve.samples == 101
        yj, _ = curve.jets(1.0)
        assert float(yj.v) == pytest.approx(math.cosh(1.0), rel=1e-15)

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

    def test_frames_columns_are_not_parsed(self, tmp_path):
        traj = integrate_frenet(profile("1 + s^2/10", "0.7", 0.0, 2.0), step=1e-3)
        frames, cut = tmp_path / "frames.csv", tmp_path / "cut.csv"
        write_trajectory_csv(frames, traj, frames=True)
        lines = frames.read_text().splitlines()
        cut.write_text("".join(",".join(line.split(",")[:4]) + "\n" for line in lines))
        # a value in a column that is not parsed is not checked either
        fields = lines[3].split(",")
        lines[3] = ",".join(fields[:6] + ["not-a-number"] + fields[7:])
        frames.write_text("\n".join(lines) + "\n")
        a, b = load_curve_csv(frames), load_curve_csv(cut)
        assert (a.s_min, a.s_max, a.samples, a.x_offset) == (b.s_min, b.s_max,
                                                              b.samples, b.x_offset)
        s = np.linspace(0.0, 2.0, 301)
        for ja, jb in zip(a.jets(s), b.jets(s)):
            for order in ("v", "d1", "d2", "d3"):
                assert np.array_equal(getattr(ja, order), getattr(jb, order))

    def test_binormal_columns_are_the_normal_columns_swapped(self, tmp_path):
        traj = integrate_frenet(profile("1", "-1.5", 0.0, 1.0), step=1e-2)
        assert traj.b_y is traj.n_z and traj.b_z is traj.n_y
        path = tmp_path / "frames.csv"
        write_trajectory_csv(path, traj, frames=True)
        lines = path.read_text().splitlines()
        names = lines[0].split(",")
        rows = [dict(zip(names, line.split(","))) for line in lines[1:]]
        assert len(rows) == 101
        assert all(row["b_y"] == row["n_z"] and row["b_z"] == row["n_y"] for row in rows)

    def test_bad_samples_keep_their_message_for_library_callers(self):
        s = np.linspace(0.0, 1.0, 11)
        y = s ** 2
        y[4] = math.nan
        with pytest.raises(SampleError, match="^spline samples must be finite$") as err:
            curve_from_samples(s, y, s ** 3, x=s)
        assert err.value.row == 4
        with pytest.raises(SampleError, match="^x must equal s plus a constant") as err:
            curve_from_samples(s, s ** 2, s ** 3, x=s + (s == s[7]))
        assert err.value.row == 7

    def test_csv_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,0,0,0\n")
        with pytest.raises(ValueError, match="expected columns"):
            load_curve_csv(path)

    def test_load_curve_dispatch(self, tmp_path):
        with pytest.raises(ValueError, match="expected a .json"):
            load_curve(tmp_path / "curve.txt")

    def test_frenet_csv_columns(self, tmp_path):
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"y": "cosh(s)", "z": "sinh(s)", "s_min": 0.0,
                                     "s_max": 1.0, "samples": 11}))
        assert main(["analyze", "--input", str(curve),
                     "--output", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert lines[0] == ("s,kappa,tau,eps,t_y,t_z,n_y,n_z,b_y,b_z,"
                            "res_t,res_n,res_b")
        assert len(lines) == 12
