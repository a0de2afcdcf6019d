"""File formats and deterministic serialization.

Reports are JSON with every finite floating-point value printed through a
fixed 17-significant-digit format, so identical runs produce byte-identical
files (17 significant digits also round-trip IEEE doubles exactly).  JSON is
strict: a non-finite float is written as null.  CSV and .dat tables keep
format_float's NaN, Infinity and -Infinity.

Float tables are written a block of rows at a time, about _BLOCK (2,048)
values to a block.  A numpy kernel writes the bytes of format(x, ".17g") for
a whole block: the 17 digits are an exactly rounded double-double product
with a power of ten, and a table of byte masks lays them out as %g does;
more mask rows write 0 and -0, and the first L bytes of format_float's text,
which non-finite values, magnitudes outside [1e-250, 1e270] and values
within 1e-6 of a rounding tie take.  One boolean select then gives the
block's text, row by row, each value followed by a terminator byte of its
column, and no string per value is built.  A table's terminators are codes
that no number holds: its CSV maps them to commas and newlines with one
bytes.translate, and its JSON rows replace each with the text up to the
next value, after NaN and the infinities become null.  .dat series take
" " and a newline directly.  Each block's bytes are written and dropped
before the next block is formatted, so no table's text is ever held whole.
What is formatted once: each distinct column of a block, which the select
gathers into every place it is named; so analyze's CSV and JSON rows share
one formatting, a synthesized trajectory's b_y and b_z (its n_z and n_y)
are formatted once, and plot-data's four series share each block of s.
The generic recursive dump serves small payloads and is the reference the
block writer must match byte for byte.

Curve definitions are JSON objects {"param", "y", "z", "s_min", "s_max"} with
an optional "samples"; sampled curves are CSV files with columns s, x, y, z
and optional appended frame columns t_y, t_z, n_y, n_z, b_y, b_z.  Only s, x,
y and z are parsed.  The commas of every line are counted, so a row wider or
narrower than the header is reported with its line number; bad samples (too
few, not finite, s not increasing, x not s plus a constant) with their line
and s.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import re
import warnings

import numpy as np

from .dsl import parse_expr
from .frenet import CurveDef, FrenetGrid, SampleError, curve_from_exprs, curve_from_samples

__all__ = [
    "format_float", "FloatTable",
    "dumps_json", "write_json",
    "load_curve_json", "load_curve_csv", "load_curve",
    "write_trajectory_csv", "frenet_table", "write_series",
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

    The kernel's text of each value as a string, for the tests; the writers
    never build a string per value.
    """
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    text = b"".join(_format_block(column[start:start + _BLOCK], [([0], b"\n")])[0]
                    for start in range(0, len(column), _BLOCK))
    return text.decode("ascii").split("\n")[:-1]


# The kernel.  For |x| in [_KERNEL_MIN, _KERNEL_MAX] and k = floor(log10|x|),
# the 17 significant digits are |x| 10^(16-k) rounded half-even, an integer in
# [10^16, 10^17).  The product is a double-double: Dekker's exact TwoProduct
# of |x| (Veltkamp split) and hi, plus |x| lo, where hi + lo is 10^(16-k)
# correctly rounded to 106 bits.  Its error is below 1e-14, so a fraction
# farther than _TIE_BAND from 1/2 rounds as the exact value does; nearer ones,
# non-finite values and other magnitudes out of range go to format_float, and
# zeros take the mask rows of 0 and -0.
# The range keeps every partial product normal and the split free of overflow.
# Tables are built on first use.  About _BLOCK = 2048 values per call keeps
# every temporary under glibc's 128 KiB mmap threshold (the byte rows are
# 112 KiB), so a long-running process formats without page faults;
# np.compress builds an 8-byte index per kept byte, which at this size
# faulted about 130 times a call, so the rows are cut with a boolean index
# instead.
_BLOCK = 2048
_KERNEL_MIN, _KERNEL_MAX = 1e-250, 1e270
_TIE_BAND = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1
_K_MIN, _K_MAX = -252, 272  # k over the range, one off after a redo or a carry

# One value's byte row, seven 8-byte words: " -0.000" d0, the other 16
# digits, "." and pad, the 16 digits again (read after the point), and
# "e" sign e2 e1 e0, pad and the terminator that follows the value.  A row
# of _keep_masks() selects the bytes that %.17g prints and the terminator.
_ROW = b" -0.0000" + b"0" * 16 + b".       " + b"0" * 16 + b"e+000  \n"
_LEAD, _POINT, _FRAC, _EXP = 7, 24, 32, 48
_CASES = 23  # exponents -4..16 in fixed notation, then e+XX and e+XXX
_ZERO_ROW = 2 * _CASES * 17  # 0, then -0
_PREFIX_ROW = _ZERO_ROW + 2  # + L keeps the first L bytes: format_float's text
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
    the rows of 0 and -0, then one per prefix length L from 0 to len(_ROW) - 1.
    Every row keeps the terminator.

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
    prefix = end | (p < p[:, None])
    return np.vstack([keep.reshape(-1, len(_ROW)), zero, zero | (p == 1), prefix])


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


def _format_block(values, layouts) -> list[bytes]:
    """The text of a block of rows, values[i, j] being row i's value of
    distinct column j: each value is formatted once.  For each layout
    (index, ends), the bytes of every row in turn, and in a row, for each j,
    the text of values[i, index[j]] and then the byte ends[j]."""
    masks = _kernel_tables()[-1]
    words, row = _byte_rows(values.ravel())
    words = words.reshape(*values.shape, -1)
    row = row.reshape(values.shape)
    text = []
    for index, ends in layouts:
        chars = np.take(words, index, axis=1).view(np.uint8)
        chars[:, :, -1] = np.frombuffer(ends, dtype=np.uint8)
        keep = np.take(masks, np.take(row, index, axis=1), axis=0)
        text.append(chars.ravel()[keep.ravel()].tobytes())
    return text


def _byte_rows(x):
    """The byte row and the mask row of each value of x; the kernel's
    temporaries are gone by the time its rows are selected."""
    powers, exponents, case_rows, lead, group_words, last_digit, _ = _kernel_tables()
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
    row = np.where(ok, row, _ZERO_ROW + np.signbit(x))

    words = np.empty((x.size, len(_ROW) // 8), dtype=np.uint64)
    words[:, 0] = np.take(lead, lead_digit)
    digits = np.take(group_words, groups).view(np.uint64)
    words[:, 1] = words[:, 4] = digits[:, 0]
    words[:, 2] = words[:, 5] = digits[:, 1]
    words[:, 3] = np.frombuffer(_ROW, dtype=np.uint64)[3]
    words[:, 6] = np.take(exponents, kk)
    for i in np.flatnonzero(~ok & (x != 0)).tolist():
        text = format_float(x[i]).encode("ascii")
        words[i].view(np.uint8)[:len(text)] = np.frombuffer(text, dtype=np.uint8)
        row[i] = _PREFIX_ROW + len(text)
    return words, row


# bytes that no formatted value holds, one to end each column's values
_CODES = bytes(range(0x80, 0x100))


class FloatTable:
    """Named float columns of equal length: a CSV table or a list of JSON rows.

    dumps_json writes a FloatTable byte for byte like the list of row dicts
    [{name: float(column[i]) for each column} for each row i].  A column
    passed as two columns is formatted once.  Given a csv path, dumping the
    table as JSON rows also writes it there as CSV, each block of rows from
    the same bytes.  A table holds at most 128 columns: the kernel ends
    column j's values with the byte 0x80 + j.
    """

    def __init__(self, names, columns, csv=None):
        self.names = tuple(names)
        if len(self.names) > len(_CODES):
            raise ValueError(f"a FloatTable holds at most {len(_CODES)} columns")
        self.csv = csv
        columns = list(columns)  # keeps each id taken below unique
        distinct = {id(column): column for column in columns}
        # names[j] is the distinct column columns[index[j]]
        self.index = [list(distinct).index(id(column)) for column in columns]
        self.columns = [np.asarray(c, dtype=float) for c in distinct.values()]
        self.rows = len(self.columns[0]) if columns else 0


def _write_blocks(columns, layouts, write):
    """Call write(start, *texts) with _format_block's texts of the layouts
    for each block of rows from row start.  A block holds about _BLOCK
    values of the widest layout, so each temporary of a call stays one
    block's, and its texts are dropped before the next block is formatted."""
    width = max(len(columns), *(len(index) for index, _ in layouts))
    step = max(1, _BLOCK // width)
    for start in range(0, len(columns[0]), step):
        write(start, *_format_block(
            np.column_stack([column[start:start + step] for column in columns]), layouts))


def _write_rows(table: FloatTable, csv=None, out=None, pad=""):
    """Write a table's rows a block at a time: as CSV lines to the binary
    file csv, and as _dump writes a list of row dicts to the parts out,
    flushed after each block.  Both come from one select of each block.

    Each value ends in its column's code.  The CSV maps the codes to "," and
    a newline, the JSON to the text up to the next value: the next field's
    head, or the row's tail and the next row's first head.  A block's last
    code is cut and written as the next block's first part, so the last row
    ends the list."""
    if not table.rows:
        if out is not None:
            out.append("[]")
        return
    codes = _CODES[:len(table.names)]
    to_csv = bytes.maketrans(codes, b"," * (len(codes) - 1) + b"\n")
    if out is not None:
        first = f"{pad}  {{\n{pad}    {json.dumps(table.names[0])}: "
        row_end = f"\n{pad}  }}"
        next_row = f"{row_end},\n{first}"
        heads = [f",\n{pad}    {json.dumps(name)}: ".encode() for name in table.names[1:]]
        heads.append(next_row.encode())
        out.append("[\n" + first)

    def write(start, text):
        if csv is not None:
            csv.write(text.translate(to_csv))
        if out is not None:
            if b"N" in text or b"I" in text:  # only NaN and the infinities hold them
                text = (text.replace(b"-Infinity", b"null").replace(b"Infinity", b"null")
                        .replace(b"NaN", b"null"))
            text = text[:-1]
            for j, head in enumerate(heads):
                text = text.replace(codes[j:j + 1], head)
            if start:
                out.append(next_row)
            out.append(text.decode())
            out.flush()

    _write_blocks(table.columns, [(table.index, codes)], write)
    if out is not None:
        out.append(row_end + "\n" + pad + "]")


class _Parts(list):
    """The parts of a JSON text; given a text file, each flush writes them
    there and starts over, so a long table never sits in memory whole."""

    def __init__(self, handle=None):
        super().__init__()
        self.handle = handle

    def flush(self):
        if self.handle is not None:
            for part in self:
                self.handle.write(part)
            self.clear()


def _dump(obj, indent: int, out: _Parts):
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
    elif isinstance(obj, FloatTable) and obj.csv is not None:
        _write_table(obj.csv, obj, out, pad)
    elif isinstance(obj, FloatTable):
        _write_rows(obj, out=out, pad=pad)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Serialize a report deterministically (fixed float format, stable order)."""
    out = _Parts()
    _dump(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj):
    """Write dumps_json(obj) to path; a FloatTable is written a block at a time."""
    with open(path, "w", encoding="utf-8") as handle:
        out = _Parts(handle)
        _dump(obj, 0, out)
        out.append("\n")
        out.flush()


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


def _data_lines(body: bytes):
    """(line number, text) of each data line of a CSV body that starts at
    line 2: the lines not blank once a # comment is cut, as loadtxt reads."""
    for number, line in enumerate(body.decode("utf-8", "replace").split("\n"), 2):
        text = line.split("#", 1)[0]
        if text.strip():
            yield number, text


def _line_of(body: bytes, row: int) -> int:
    """The line number of data row `row` (from 0) of a CSV body."""
    number, _ = next(itertools.islice(_data_lines(body), row, None))
    return number


def _row_width_error(body: bytes, width: int) -> str | None:
    """Where the first data row of a CSV body differs in width from its header."""
    for number, text in _data_lines(body):
        if (fields := text.count(",") + 1) != width:
            return (f"row width does not match the header at line {number} "
                    f"({fields} fields, header has {width})")
    return None


def _widths_match(body: bytes, width: int) -> bool:
    """Whether every line of a CSV body holds width - 1 commas.

    A blank or comment line fails this without being a wrong width, so a
    False is settled by _row_width_error.
    """
    text = np.frombuffer(body, dtype=np.uint8)
    line_of_comma = np.searchsorted(np.flatnonzero(text == ord("\n")),
                                    np.flatnonzero(text == ord(",")))
    return bool(np.all(np.bincount(line_of_comma) == width - 1))


def load_curve_csv(path) -> CurveDef:
    """Load a sampled curve from the s, x, y and z columns of a CSV file.

    Only those four columns are parsed; the others are counted, so a row of
    the wrong width is still reported with its line.  Bad samples are
    reported with their line and s.
    """
    with open(path, "rb") as handle:
        header, _, body = handle.read().partition(b"\n")
    names = [c.strip() for c in header.decode("utf-8").split(",")]
    if names[:4] != ["s", "x", "y", "z"]:
        raise ValueError(f"{path}: expected columns s,x,y,z, got {names[:4]}")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(io.BytesIO(body), delimiter=",", usecols=(0, 1, 2, 3),
                              ndmin=2, encoding="utf-8")
        except ValueError as err:
            # loadtxt counts data rows from 0; name the line instead
            message = _row_width_error(body, len(names)) or re.sub(
                r"\bat row (\d+)", lambda m: f"at line {_line_of(body, int(m[1]))}", str(err))
            raise ValueError(f"{path}: {message}") from err
    if not _widths_match(body, len(names)) and (error := _row_width_error(body, len(names))):
        raise ValueError(f"{path}: {error}")
    if data.size == 0:
        raise ValueError(f"{path}: the file has no samples")
    try:
        return curve_from_samples(data[:, 0], data[:, 2], data[:, 3], x=data[:, 1])
    except SampleError as err:
        if err.row is None:
            raise ValueError(f"{path}: {err} (the file has {len(data)})") from err
        raise ValueError(f"{path}: line {_line_of(body, err.row)} "
                         f"(s={float(data[err.row, 0])!r}): {err}") from err


def load_curve(path) -> CurveDef:
    """Load a curve definition (.json, exact path) or samples (.csv)."""
    text = str(path)
    if text.endswith(".json"):
        return load_curve_json(path)
    if text.endswith(".csv"):
        return load_curve_csv(path)
    raise ValueError(f"{path}: expected a .json curve definition or .csv samples")


def _write_table(path, table: FloatTable, out=None, pad=""):
    """Write a table as CSV to path and, given JSON parts out, its JSON rows
    along with it (see _write_rows)."""
    with open(path, "wb") as handle:
        handle.write((",".join(table.names) + "\n").encode())
        _write_rows(table, csv=handle, out=out, pad=pad)


def write_trajectory_csv(path, traj, frames: bool = False):
    """Write a synthesized trajectory as a sampled-curve CSV."""
    names = ["s", "x", "y", "z"]
    columns = [traj.s, traj.r[:, 0], traj.r[:, 1], traj.r[:, 2]]
    if frames:
        names += list(FRAME_COLUMNS)
        columns += [traj.t_y, traj.t_z, traj.n_y, traj.n_z, traj.b_y, traj.b_z]
    _write_table(path, FloatTable(names, columns))


def frenet_table(grid: FrenetGrid, csv=None) -> FloatTable:
    """The frame apparatus table (x components omitted: always 1, 0, 0); see
    FloatTable for csv."""
    return FloatTable(FRENET_COLUMNS, [getattr(grid, name) for name in FRENET_COLUMNS], csv)


def write_series(path, s, values, *more):
    """Two-column whitespace-separated series for external plotting.

    Writes s beside values to path, and beside the values of each further
    (path, values) pair in more.  The files are written in lockstep, a block
    of rows at a time, and each block of s is formatted once for all of them.
    """
    series = [(path, values), *more]
    columns = [np.asarray(c, dtype=float) for c in [s] + [v for _, v in series]]
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(p, "wb")) for p, _ in series]

        def write(start, *texts):
            for handle, text in zip(handles, texts):
                handle.write(text)

        _write_blocks(columns, [([0, k], b" \n") for k in range(1, len(columns))], write)
