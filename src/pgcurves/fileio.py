"""File formats and deterministic serialization.

Reports are JSON with every finite floating-point value printed through a
fixed 17-significant-digit format, so identical runs produce byte-identical
files (17 significant digits also round-trip IEEE doubles exactly).  JSON is
strict: a non-finite float is written as null.  CSV and .dat tables keep
format_float's NaN, Infinity and -Infinity.

Float tables are serialized column by column.  format_floats formats a whole
column with a numpy kernel that writes the bytes of format(x, ".17g"): the 17
digits are an exactly rounded double-double product with a power of ten, and
a table of byte masks lays them out as %g does; two more mask rows write 0
and -0.  Non-finite values, magnitudes outside [1e-250, 1e270] and values
within 1e-6 of a rounding tie go to format_float, the scalar formatter and
the tests' reference.  A FloatColumn keeps a column's strings, so the analyze
CSV and its JSON rows (a FloatTable) share one formatting of each column, and
plot-data formats s once for all of its series.  JSON rows and series are
joined column by column.  The generic recursive dump serves small payloads
and is the reference the columnar path must match byte for byte.

Curve definitions are JSON objects {"param", "y", "z", "s_min", "s_max"} with
an optional "samples"; sampled curves are CSV files with columns s, x, y, z
and optional appended frame columns t_y, t_z, n_y, n_z, b_y, b_z.
"""

import functools
import json
import math
import warnings

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
    """[format_float(x) for x in values] for a 1-D float array, byte for byte.

    The numpy kernel below formats the column in blocks of _BLOCK values;
    format_float takes the few values the kernel leaves to it.
    """
    arr = np.asarray(values, dtype=float)
    text: list[str] = []
    for start in range(0, arr.size, _BLOCK):
        text += _format_block(arr[start:start + _BLOCK])
    return text


# The kernel.  For |x| in [_KERNEL_MIN, _KERNEL_MAX] and k = floor(log10|x|),
# the 17 significant digits are |x| 10^(16-k) rounded half-even, an integer in
# [10^16, 10^17).  The product is a double-double: Dekker's exact TwoProduct
# of |x| (Veltkamp split) and hi, plus |x| lo, where hi + lo is 10^(16-k)
# correctly rounded to 106 bits.  Its error is below 1e-14, so a fraction
# farther than _TIE_BAND from 1/2 rounds as the exact value does; nearer ones,
# non-finite values and other magnitudes out of range go to format_float, and
# zeros take the mask rows of 0 and -0.
# The range keeps every partial product normal and the split free of overflow.
# Tables are built on first use.  A block of 2048 values keeps every temporary
# under glibc's 128 KiB mmap threshold (the byte rows are 112 KiB), so a
# long-running process formats without page faults; np.compress builds an
# 8-byte index per kept byte, which at this size faulted about 130 times a
# call, so the rows are cut with a boolean index instead.
_BLOCK = 2048
_KERNEL_MIN, _KERNEL_MAX = 1e-250, 1e270
_TIE_BAND = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1
_K_MIN, _K_MAX = -252, 272  # k over the range, one off after a redo or a carry

# One value's byte row, seven 8-byte words: " -0.000" d0, the other 16
# digits, "." and pad, the 16 digits again (read after the point), and
# "e" sign e2 e1 e0, pad and a newline.  A row of _keep_masks() selects the
# bytes that %.17g prints.
_ROW = b" -0.0000" + b"0" * 16 + b".       " + b"0" * 16 + b"e+000  \n"
_LEAD, _POINT, _FRAC, _EXP = 7, 24, 32, 48
_CASES = 23  # exponents -4..16 in fixed notation, then e+XX and e+XXX
_FALLBACK_ROW = 2 * _CASES * 17  # keeps the newline alone; 0 and -0 follow
_GROUP_OFFSETS = np.arange(4) * 10_000


@functools.cache
def _kernel_tables():
    """Tables indexed by k - _K_MIN: the double-double 10^(16-k) with hi's
    split, the exponent word and the first mask row of the case.  Then the
    first word for each leading digit, the word of each 4-digit group, the
    index among d1..d16 of the last nonzero digit of group j with value g at
    j * 10^4 + g (0 if g is 0), and the masks.
    """
    hi, lo = [], []
    for e in range(16 - _K_MIN, 15 - _K_MAX, -1):
        if e >= 0:
            h = float(10 ** e)
            lo.append(float(10 ** e - int(h)))
        else:
            d = 10 ** -e
            h = 1 / d
            num, den = h.as_integer_ratio()
            lo.append((den - num * d) / (d * den))
        hi.append(h)
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    powers = np.stack([hi, hi_hi, hi - hi_hi, np.array(lo)])

    k = np.arange(_K_MIN, _K_MAX + 1)
    exponents = np.frombuffer(b"".join(b"e%+04d  \n" % e for e in k.tolist()), dtype=np.uint64)
    case = np.where((k >= -4) & (k < 17), k + 4, np.where(np.abs(k) >= 100, 22, 21))

    lead = np.frombuffer(b"".join(_ROW[:_LEAD] + b"%d" % d for d in range(10)), dtype=np.uint64)
    g = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    nonzero = digits != 0
    last = (4 - np.argmax(nonzero[:, ::-1], axis=1)).astype(np.uint8) * nonzero.any(axis=1)
    last = (np.arange(0, 16, 4, dtype=np.uint8)[:, None] + last) * (g != 0)
    return (powers, exponents, case * 17, lead, (digits + ord("0")).view(np.uint32).ravel(),
            last.ravel(), _keep_masks())


def _keep_masks():
    """Bool rows over _ROW, one per (negative, case, digits kept - 1), then
    the fallback row and the rows of 0 and -0.

    Case c < 21 is fixed notation with exponent c - 4; 21 and 22 are
    scientific notation with a 2- and a 3-digit exponent.
    """
    p = np.arange(len(_ROW))
    neg = np.arange(2)[:, None, None, None]
    e = np.arange(-4, -4 + _CASES)[None, :, None, None]
    nd = np.arange(1, 18)[None, None, :, None]
    # digits d_first .. d_(nd-1) from the copy read after the point
    fraction = lambda first: (p >= _FRAC - 1 + first) & (p < _FRAC - 1 + nd)
    fixed = (((p >= _LEAD) & (p <= _LEAD + e))
             | ((p == _POINT) & (nd > e + 1)) | fraction(e + 1))
    small = ((p == 2) | (p == 3) | ((p >= 4) & (p < 3 - e))
             | ((p >= _LEAD) & (p < _LEAD + nd)))
    sci = ((p == _LEAD) | ((p == _POINT) & (nd > 1)) | fraction(1)
           | ((p >= _EXP) & (p < _EXP + 5) & ((p != _EXP + 2) | (e == 18))))
    keep = np.where(e >= 17, sci, np.where(e >= 0, fixed, small))
    end = p == len(_ROW) - 1
    keep = keep | ((p == 1) & (neg == 1)) | end
    # byte 2 is always "0" and byte 1 the "-" sign
    zero = end | (p == 2)
    return np.vstack([keep.reshape(-1, len(_ROW)), end, zero, zero | (p == 1)])


def _scaled(a, kk, powers):
    """floor(a 10^(16-k)) as int64, and the fraction above it; kk = k - _K_MIN."""
    hi, hi_hi, hi_lo, lo = np.take(powers, kk, axis=1)
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi
    q = (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    q_floor = np.floor(q)
    return p.astype(np.int64) + q_floor.astype(np.int64), q - q_floor


def _format_block(x) -> list[str]:
    powers, exponents, case_rows, lead, group_words, last_digit, masks = _kernel_tables()
    a = np.abs(x)
    ok = (a >= _KERNEL_MIN) & (a <= _KERNEL_MAX)
    a = np.where(ok, a, 1.0)  # format_float takes these; 1.0 keeps the arithmetic finite
    kk = np.floor(np.log10(a)).astype(np.int64) - _K_MIN
    n, frac = _scaled(a, kk, powers)
    # near a power of ten log10 can put k one off, and n outside [10^16, 10^17)
    redo = np.flatnonzero((n - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16)
    if redo.size:
        kk[redo] += np.where(n[redo] < 10 ** 16, -1, 1)
        n[redo], frac[redo] = _scaled(a[redo], kk[redo], powers)
        ok[redo] &= (n[redo] - 10 ** 16).view(np.uint64) < 9 * 10 ** 16
    ok &= np.abs(frac - 0.5) >= _TIE_BAND
    n += frac > 0.5
    carry = np.flatnonzero(n == 10 ** 17)
    n[carry] = 10 ** 16
    kk[carry] += 1

    high = n // 10 ** 8
    lead_digit = high // 10 ** 8
    groups = np.empty((x.size, 4), dtype=np.intp)
    for j, half in ((0, high - lead_digit * 10 ** 8), (2, n - high * 10 ** 8)):
        groups[:, j] = quad = half // 10_000
        groups[:, j + 1] = half - quad * 10_000
    last = np.take(last_digit, groups + _GROUP_OFFSETS)
    row = (np.take(case_rows, kk) + np.maximum(np.maximum(last[:, 0], last[:, 1]),
                                               np.maximum(last[:, 2], last[:, 3]))
           + np.signbit(x) * (_CASES * 17))
    row = np.where(ok, row, _FALLBACK_ROW + (x == 0) * (1 + np.signbit(x)))
    bad = row == _FALLBACK_ROW

    words = np.empty((x.size, len(_ROW) // 8), dtype=np.uint64)
    words[:, 0] = np.take(lead, lead_digit)
    digits = np.take(group_words, groups).view(np.uint64)
    words[:, 1] = words[:, 4] = digits[:, 0]
    words[:, 2] = words[:, 5] = digits[:, 1]
    words[:, 3] = np.frombuffer(_ROW, dtype=np.uint64)[3]
    words[:, 6] = np.take(exponents, kk)

    kept = words.view(np.uint8).ravel()[np.take(masks, row, axis=0).ravel()]
    text = kept.tobytes().decode("ascii").split("\n")
    text.pop()
    for i in np.flatnonzero(bad).tolist():
        text[i] = format_float(x[i])
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


def _join_rows(columns, heads, tail) -> str:
    """Row i is heads[0] columns[0][i] heads[1] columns[1][i] ... tail; the
    rows joined into one string, filled column by column."""
    n = len(columns[0])
    stride = 2 * len(columns) + 1
    parts = [tail] * (stride * n)
    for j, (head, column) in enumerate(zip(heads, columns)):
        parts[2 * j::stride] = [head] * n
        parts[2 * j + 1::stride] = column
    return "".join(parts)


def _dump_rows(table: FloatTable, pad: str, out: list):
    """A FloatTable as _dump writes a list of row dicts."""
    columns = [col.json_text() for col in table.columns]
    if not columns or not columns[0]:
        out.append("[]")
        return
    heads = [f",\n{pad}    {json.dumps(name)}: " for name in table.names]
    heads[0] = f"{pad}  {{\n{pad}    {json.dumps(table.names[0])}: "
    rows = _join_rows(columns, heads, f"\n{pad}  }},\n")
    out.append("[\n")
    out.append(rows[:-2])  # the last row takes no comma
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
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: the file has no samples")
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
        handle.write(_join_rows([_text(s), _text(values)], ("", " "), "\n"))
