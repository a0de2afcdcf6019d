"""Span recorder for the traced benchmark run (standard library only).

The recorder wraps the public entry points of each pgcurves layer from the
outside: it rebinds every entry point in every ``pgcurves`` module namespace
that holds it, so calls made through ``from .x import f`` are seen as well.
Spans stay in memory and are written out once, when the host finishes.

``dsl.eval_value`` is deliberately not wrapped: the RK4 loop calls it eight
times per step (about 840k calls per ``verify``), so a span around it would
dominate the traced run.  Its time stays in the synthesis layer's self time.
"""

import functools
import json
import os
import sys
import time

# Field order of one span record.
FIELDS = ("name", "start", "end", "parent", "cmd", "count", "nbytes", "curve_eval")

_NAME, _START, _END, _PARENT, _CMD, _COUNT, _NBYTES, _CURVE = range(len(FIELDS))


def _points(s):
    return int(getattr(s, "size", 1))


def _json_floats(obj):
    """Number of floating-point leaves in a report payload."""
    if isinstance(obj, float):
        return 1
    if isinstance(obj, dict):
        return sum(_json_floats(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_json_floats(v) for v in obj)
    dtype = getattr(obj, "dtype", None)
    if dtype is not None:
        return int(obj.size) if dtype.kind == "f" else 0
    return 0


def _table_floats(path):
    """Number of fields in a written CSV or whitespace table, header excluded."""
    with open(path, "rb") as handle:
        data = handle.read()
    sep = b"," if data.count(b",") else b" "
    fields = data.count(sep) + data.count(b"\n")
    first = data[:data.find(b"\n")]
    if first[:1].isalpha():
        fields -= first.count(sep) + 1
    return fields


def _written_path(args, kwargs):
    return os.fspath(args[0] if args else kwargs["path"])


class Tracer:
    """In-memory spans: name, start, end, parent span, command id, counts."""

    def __init__(self):
        self.spans = []
        self.cmd = -1
        self._stack = []
        self._curve_ids = frozenset()
        self.wrapped = []

    def start_command(self, cmd):
        self.cmd = cmd
        self._curve_ids = frozenset()

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.cmd, 0, 0, 0])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    # -- counters, run after the span they describe has ended ---------------

    def _count_jet(self, span, args, kwargs, result):
        span[_COUNT] = _points(args[1] if len(args) > 1 else kwargs["s"])
        if id(args[0]) in self._curve_ids:
            span[_CURVE] = 1

    def _count_grid(self, span, args, kwargs, result):
        span[_COUNT] = int(result.s.size)

    def _count_steps(self, span, args, kwargs, result):
        span[_COUNT] = int(result.s.size) - 1

    def _note_curve(self, span, args, kwargs, result):
        self._curve_ids = frozenset((id(result.y), id(result.z)))

    def _count_json(self, span, args, kwargs, result):
        index = self.begin("trace.count")
        try:
            span[_NBYTES] = os.path.getsize(_written_path(args, kwargs))
            span[_COUNT] = _json_floats(args[1] if len(args) > 1 else kwargs["obj"])
        finally:
            self.end(index)

    def _count_table(self, span, args, kwargs, result):
        index = self.begin("trace.count")
        try:
            path = _written_path(args, kwargs)
            span[_NBYTES] = os.path.getsize(path)
            span[_COUNT] = _table_floats(path)
        finally:
            self.end(index)

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(module, attribute, span name, counter) for every traced entry point."""
        targets = [
            ("pgcurves.dsl", "parse_expr", "dsl.parse_expr", None),
            ("pgcurves.dsl", "Expr.jet3", "dsl.jet3", self._count_jet),
            ("pgcurves.frenet", "frenet_grid", "frenet.frenet_grid", self._count_grid),
            ("pgcurves.frenet", "check_admissible", "frenet.check_admissible", None),
            ("pgcurves.frenet", "curve_from_samples", "frenet.curve_from_samples", None),
            ("pgcurves.frenet", "SampledScalar.jet3", "frenet.spline_jet3", self._count_jet),
            ("pgcurves.classify", "classify_rectifying", "classify.classify_rectifying", None),
            ("pgcurves.classify", "check_rectifying_properties",
             "classify.check_rectifying_properties", None),
            ("pgcurves.classify", "fit_normal_components", "classify.fit_normal_components", None),
            ("pgcurves.classify", "fit_normal_samples", "classify.fit_normal_samples", None),
            ("pgcurves.classify", "frame_components_arrays",
             "classify.frame_components_arrays", None),
            ("pgcurves.synth", "integrate_frenet", "synth.integrate_frenet", self._count_steps),
            ("pgcurves.synth", "synth_rectifying", "synth.synth_rectifying", None),
            ("pgcurves.synth", "FrenetTrajectory.to_curve", "synth.to_curve", None),
            ("pgcurves.fileio", "load_curve", "fileio.load_curve", self._note_curve),
            ("pgcurves.fileio", "load_curve_json", "fileio.load_curve_json", self._note_curve),
            ("pgcurves.fileio", "load_curve_csv", "fileio.load_curve_csv", self._note_curve),
            ("pgcurves.fileio", "write_json", "fileio.write_json", self._count_json),
            ("pgcurves.fileio", "write_trajectory_csv", "fileio.write_trajectory_csv",
             self._count_table),
            ("pgcurves.fileio", "write_frenet_csv", "fileio.write_frenet_csv", self._count_table),
            ("pgcurves.fileio", "write_series", "fileio.write_series", self._count_table),
        ]
        verify = sys.modules.get("pgcurves.verify")
        for attr, value in sorted(vars(verify).items() if verify else ()):
            if (attr.startswith("check_") and callable(value)
                    and getattr(value, "__module__", None) == "pgcurves.verify"):
                targets.append(("pgcurves.verify", attr, "verify." + attr, None))
        return targets

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if counter is not None:
                counter(tracer.spans[index], args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every traced entry point; names that no longer exist are skipped."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "pgcurves" or key.startswith("pgcurves."))]
        for module_name, attr, name, counter in self._targets():
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(method) if owner is not None else None
            if fn is None:
                continue
            wrapped = self._wrap(fn, name, counter)
            if owner_name:
                setattr(owner, method, wrapped)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
            self.wrapped.append(name)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": FIELDS, "wrapped": self.wrapped, "spans": self.spans},
                      handle)
