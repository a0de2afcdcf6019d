"""File formats and deterministic serialization.

Reports are JSON with every finite floating-point value printed through a
fixed 17-significant-digit format, so identical runs produce byte-identical
files (17 significant digits also round-trip IEEE doubles exactly).  JSON is
strict: a non-finite float is written as null.  CSV and .dat tables keep
format_float's NaN, Infinity and -Infinity.

Float tables are serialized column by column: format_floats formats a whole
column in one batched call, and a FloatColumn keeps those strings, so the
analyze CSV and its JSON rows (a FloatTable) share one formatting of each
column, and plot-data formats s once for all of its series.  The generic
recursive dump serves small payloads and is the reference the columnar path
must match byte for byte.

Curve definitions are JSON objects {"param", "y", "z", "s_min", "s_max"} with
an optional "samples"; sampled curves are CSV files with columns s, x, y, z
and optional appended frame columns t_y, t_z, n_y, n_z, b_y, b_z.
"""

import json
import math

import numpy as np

from .dsl import parse_expr
from .frenet import CurveDef, FrenetGrid, curve_from_exprs, curve_from_samples

__all__ = [
    "format_float", "format_floats", "FloatColumn", "FloatTable",
    "dumps_json", "write_json",
    "load_curve_json", "load_curve_csv", "load_curve",
    "write_trajectory_csv", "write_frenet_csv", "write_series",
    "FRENET_COLUMNS",
]

FRENET_COLUMNS = ("s", "kappa", "tau", "eps", "t_y", "t_z",
                  "n_y", "n_z", "b_y", "b_z", "res_t", "res_n", "res_b")

FRAME_COLUMNS = ("t_y", "t_z", "n_y", "n_z", "b_y", "b_z")


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def format_floats(values) -> list[str]:
    """[format_float(x) for x in values] for a 1-D float array, in one batched call.

    One %.17g pass over the whole column (the same conversion as
    format(x, ".17g")), then a fix-up at the few non-finite indices.
    """
    arr = np.asarray(values, dtype=float)
    text = ("%.17g\n" * arr.size % tuple(arr.tolist())).split("\n")
    text.pop()
    for i in np.flatnonzero(~np.isfinite(arr)).tolist():
        text[i] = format_float(arr[i])
    return text


class FloatColumn:
    """A float column whose strings are formatted once, on first use.

    Writers given the same FloatColumn share its strings.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self._text = None

    def text(self) -> list[str]:
        """format_float of every value."""
        if self._text is None:
            self._text = format_floats(self.values)
        return self._text

    def json_text(self) -> list[str]:
        """text() with null in place of each non-finite value."""
        text = self.text()
        bad = np.flatnonzero(~np.isfinite(self.values)).tolist()
        if bad:
            text = list(text)
            for i in bad:
                text[i] = "null"
        return text


class FloatTable:
    """Named float columns of equal length: a CSV table or a list of JSON rows.

    dumps_json writes a FloatTable byte for byte like the list of row dicts
    [{name: float(column[i]) for each column} for each row i].
    """

    def __init__(self, names, columns):
        self.names = tuple(names)
        self.columns = [FloatColumn(col) for col in columns]


def _text(column) -> list[str]:
    return column.text() if isinstance(column, FloatColumn) else format_floats(column)


def _dump_rows(table: FloatTable, pad: str, out: list):
    """A FloatTable as _dump writes a list of row dicts, one %-fill per row."""
    columns = [col.json_text() for col in table.columns]
    if not columns or not columns[0]:
        out.append("[]")
        return
    fields = ",\n".join(f"{pad}    {json.dumps(name).replace('%', '%%')}: %s"
                        for name in table.names)
    row = f"{pad}  {{\n{fields}\n{pad}  }}"
    out.append("[\n")
    out.append(",\n".join(map(row.__mod__, zip(*columns))))
    out.append("\n" + pad + "]")


def _dump(obj, indent: int, out: list):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _dump(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(pad + "  ")
            _dump(value, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, FloatTable):
        _dump_rows(obj, pad, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Serialize a report deterministically (fixed float format, stable order)."""
    out: list[str] = []
    _dump(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_json(obj))


def load_curve_json(path) -> CurveDef:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: curve definition must be a JSON object")
    missing = {"y", "z", "s_min", "s_max"} - payload.keys()
    if missing:
        raise ValueError(f"{path}: missing fields {sorted(missing)}")

    def field(name, kinds, what, default=None):
        value = payload.get(name, default)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{path}: field {name!r} must be {what}, "
                             f"got {type(value).__name__}")
        return value

    param = field("param", str, "a string", "s")
    y, z = field("y", str, "a string"), field("z", str, "a string")
    s_min = float(field("s_min", (int, float), "a number"))
    s_max = float(field("s_max", (int, float), "a number"))
    samples = field("samples", int, "an integer", 1001)
    return curve_from_exprs(parse_expr(y, param), parse_expr(z, param),
                            s_min, s_max, samples=samples)


def load_curve_csv(path) -> CurveDef:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        names = [c.strip() for c in header.split(",")]
        if names[:4] != ["s", "x", "y", "z"]:
            raise ValueError(f"{path}: expected columns s,x,y,z, got {names[:4]}")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: row width does not match the header")
    return curve_from_samples(data[:, 0], data[:, 2], data[:, 3], x=data[:, 1])


def load_curve(path) -> CurveDef:
    """Load a curve definition (.json, exact path) or samples (.csv)."""
    text = str(path)
    if text.endswith(".json"):
        return load_curve_json(path)
    if text.endswith(".csv"):
        return load_curve_csv(path)
    raise ValueError(f"{path}: expected a .json curve definition or .csv samples")


def _write_table(path, table: FloatTable):
    rows = map(",".join, zip(*(col.text() for col in table.columns)))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([",".join(table.names), *rows]) + "\n")


def write_trajectory_csv(path, traj, frames: bool = False):
    """Write a synthesized trajectory as a sampled-curve CSV."""
    names = ["s", "x", "y", "z"]
    columns = [traj.s, traj.r[:, 0], traj.r[:, 1], traj.r[:, 2]]
    if frames:
        names += list(FRAME_COLUMNS)
        columns += [traj.t_y, traj.t_z, traj.n_y, traj.n_z, traj.b_y, traj.b_z]
    _write_table(path, FloatTable(names, columns))


def write_frenet_csv(path, grid: FrenetGrid) -> FloatTable:
    """Write the frame apparatus table (x components omitted: always 1, 0, 0).

    Returns the table with its columns formatted, for reuse as JSON rows.
    """
    table = FloatTable(FRENET_COLUMNS, [getattr(grid, name) for name in FRENET_COLUMNS])
    _write_table(path, table)
    return table


def write_series(path, s, values):
    """Two-column whitespace-separated series for external plotting.

    s and values are float arrays or FloatColumns; series that share s as one
    FloatColumn format it once.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join([f"{a} {b}\n" for a, b in zip(_text(s), _text(values))]))
