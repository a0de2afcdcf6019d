"""In-process host for the pgcurves CLI, driven by ``run.py`` over a pipe.

Each request is one JSON line on stdin; each reply is one JSON line on
stdout.  ``{"op": "run", "cmd": id, "argv": [...]}`` calls
``pgcurves.cli.main(argv)`` in this process and replies with its exit code
and wall time.  ``{"op": "finish", "spans": path}`` writes the recorded
spans (traced host only) and replies with the peak resident memory and the
environment stamp.  The CLI's own output goes to stderr, so stdout carries
only the protocol.

Run it from the root of a checkout, with ``src`` on ``PYTHONPATH``:
``python3 perfbench/host.py --trace 0``.
"""

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import sys
import time
import traceback


def _blas_stamp():
    """Name, version and the thread count the loaded OpenBLAS actually uses."""
    stamp = {}
    numpy = sys.modules["numpy"]
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        stamp.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libraries = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in path.lower() and path.endswith(".so"):
                    libraries[path] = None
    except OSError:
        return stamp
    for path in libraries:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", "", "_"):
            fn = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None) or \
                getattr(lib, "openblas_get_num_threads" + suffix, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                libraries[path] = fn()
                break
    stamp["threads"] = {path.rsplit("/", 1)[-1]: n for path, n in libraries.items()}
    return stamp


def environment():
    modules = sys.modules
    return {
        "python": platform.python_version(),
        "numpy": modules["numpy"].__version__,
        "scipy": modules["scipy"].__version__,
        "blas": _blas_stamp(),
    }


def serve(traced):
    from pgcurves.cli import main

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "finish":
            if tracer is not None:
                tracer.dump(request["spans"])
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     "env": environment(),
                     "wrapped": tracer.wrapped if tracer else []}
            out.write(json.dumps(reply) + "\n")
            out.flush()
            return
        code, error = None, None
        span = None
        if tracer is not None:
            tracer.start_command(request["cmd"])
            span = tracer.begin("cli.main")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = main(request["argv"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
            error = f"SystemExit({exc.code!r})"
        except Exception:  # a raised exception is a failed operation, not a crash
            error = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
        out.write(json.dumps({"exit": code, "seconds": seconds, "error": error}) + "\n")
        out.flush()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    serve(bool(parser.parse_args().trace))
