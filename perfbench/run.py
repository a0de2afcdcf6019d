"""pgcurves benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-batch --seed 0 --seconds 30 --trace 0

One single-threaded closed-loop client (this process) drives
``pgcurves.cli.main`` in a host process (``host.py``) over a pipe, one
command at a time, and checks every output with the oracles in
``workloads.py`` before it sends the next command.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
traced, and reports the per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5            # fresh interpreters per run; the median is reported
SETUP_MODULES = {"numpy": "setup.numpy_import_s",
                 "scipy.interpolate": "setup.scipy_interpolate_import_s",
                 "scipy.optimize": "setup.scipy_optimize_import_s"}

# Per-layer metrics: inclusive time of one entry point, summed per pass.
INCLUSIVE = {
    "frenet.check_admissible": "frenet.admissibility_s",
    "frenet.frenet_grid": "frenet.grid_s",
    "frenet.curve_from_samples": "frenet.spline_fit_s",
    "dsl.jet3": "dsl.eval_s",
    "dsl.parse_expr": "dsl.parse_s",
    "classify.classify_rectifying": "classify.rectifying_s",
    "classify.fit_normal_components": "classify.normal_fit_s",
    "classify.check_rectifying_properties": "classify.properties_s",
    "classify.fit_normal_samples": "classify.blind_fit_s",
    "verify.check_rectifying_suite": "verify.rectifying_suite_s",
    "verify.check_normal_fit_roundtrip": "verify.normal_fit_roundtrip_s",
    "verify.check_frame_constants": "verify.frame_constants_s",
}
# Exact work counts per pass; each must repeat exactly from pass to pass.
COUNTS = ("synth.steps", "frenet.grid_points", "dsl.eval_points",
          "fileio.bytes_written", "fileio.floats_written", "classify.blind_fit_draws",
          "frenet.curve_evals_per_cmd", "classify.decompositions_per_cmd")
UNITS = {"_per_s": "1/s", "_s": "s", "_ms": "ms", "_mb": "MB", "_pct": "%",
         "_percentile": "%", "_frac": "1", "ns_per_float": "ns", "us_per_step": "us",
         "bytes_written": "B"}   # first matching suffix wins


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def median(values):
    return statistics.median(values) if values else 0.0


# -- set-up time -------------------------------------------------------------

def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    return env


def measure_setup(traced):
    """Import pgcurves.cli in fresh interpreters; the first one is a warm-up."""
    code = ("import time; t = time.perf_counter(); import pgcurves.cli; "
            "print(time.perf_counter() - t)")
    argv = [sys.executable] + (["-X", "importtime"] if traced else []) + ["-c", code]
    seconds, modules = [], defaultdict(list)
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, cwd=ROOT, env=program_env(), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing pgcurves.cli failed:\n{proc.stderr[-2000:]}")
        if i == 0:
            continue
        seconds.append(float(proc.stdout.split()[-1]))
        for line in proc.stderr.splitlines():
            # import time: self [us] | cumulative | imported package
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
            if match and match.group(2) in SETUP_MODULES:
                modules[SETUP_MODULES[match.group(2)]].append(int(match.group(1)) * 1e-6)
    return median(seconds), {name: median(modules[name]) for name in SETUP_MODULES.values()}


# -- the host process --------------------------------------------------------

class Host:
    """One pgcurves host process, driven a command at a time."""

    def __init__(self, traced, log_path):
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "host.py"), "--trace", str(int(traced))],
            cwd=ROOT, env=program_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True)

    def request(self, payload):
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host exited with code {self.proc.wait(timeout=30)}; "
                               f"see {self._log.name}")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()


class Run:
    """Passes of one workload against one host, with their oracle verdicts."""

    def __init__(self):
        self.passes = []             # per pass: list of (command index, seconds)
        self.cmd_pass = {}           # command id -> pass index
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.finish = {}

    def judge(self, command, reply):
        """Operations attempted and failed for one command."""
        if reply["error"] is not None or reply["exit"] != command.expect_exit:
            return 1, [f"{' '.join(command.argv[:3])}: exit {reply['exit']}, expected "
                       f"{command.expect_exit}; {reply['error'] or ''}".strip()]
        try:
            return command.check()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
            return 1, [f"{' '.join(command.argv[:3])}: unreadable output: {err!r}"]

    def drive(self, workload, seconds, traced, work, first_cmd=0):
        """Repeat the workload's pass while the next one should end within
        `seconds`, and at least twice."""
        host = Host(traced, work / f"host-trace{int(traced)}.log")
        cmd = first_cmd
        try:
            start = time.perf_counter()
            elapsed = 0.0
            while len(self.passes) < 2 or elapsed * (1 + 1 / len(self.passes)) <= seconds:
                timings = []
                for index, command in enumerate(workload.commands):
                    self.cmd_pass[cmd] = len(self.passes)
                    reply = host.request({"op": "run", "cmd": cmd, "argv": command.argv})
                    cmd += 1
                    timings.append((index, reply["seconds"]))
                    ops, failures = self.judge(command, reply)
                    self.attempted += ops
                    self.failed += min(ops, len(failures))
                    self.failures.extend(failures[:5])
                self.passes.append(timings)
                elapsed = time.perf_counter() - start
            spans = work / "spans.json"
            self.finish = host.request({"op": "finish", "spans": str(spans)})
            self.finish["spans_path"] = spans if traced else None
        finally:
            host.close()
        return cmd

    # Statistics over the timed passes; the first pass is a warm-up.
    def timed(self):
        return self.passes[1:]

    def mean_pass_seconds(self, kinds=None, workload=None):
        """Mean over timed passes of the latency of (some kinds of) its commands."""
        per_pass = [sum(t for i, t in p if kinds is None or workload.commands[i].kind in kinds)
                    for p in self.timed()]
        return statistics.mean(per_pass)


# -- metrics -----------------------------------------------------------------

def end_to_end(workload, run, setup_s):
    lat = sorted(t for p in run.timed() for _, t in p)
    n = len(lat)
    # the highest percentile with at least ten samples beyond it; with ten
    # samples or fewer there is none, and the tail is the slowest sample
    rank = n - 11 if n >= 11 else n - 1
    metrics = {
        "setup_s": setup_s,
        "cmds_per_s": len(workload.commands) / run.mean_pass_seconds(),
        "cmd_p50_ms": 1e3 * median(lat),
        "cmd_tail_ms": 1e3 * lat[rank],
        "peak_rss_mb": run.finish["maxrss_kb"] / 1024.0,
    }
    extra = {
        "cmd_tail_percentile": 100.0 * (rank + 1) / n,
        "cmd_samples": n,
        "failed_frac": run.failed / max(1, run.attempted),
        "timed_passes": len(run.timed()),
        "latencies": [[t for _, t in p] for p in run.timed()],
    }
    if workload.name == "analyze-bulk":
        rows = sum(c.rows for c in workload.commands if c.kind == "analyze")
        extra["rows_per_s"] = rows / run.mean_pass_seconds({"analyze"}, workload)
    if workload.name == "verify-suite":
        extra["verify_s"] = run.mean_pass_seconds()
    return metrics, extra


def per_layer(run):
    """Per-pass layer times (mean over timed passes) and exact work counts."""
    with open(run.finish["spans_path"], encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    children = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent] += end - start
    passes = [defaultdict(float) for _ in run.passes]
    curve_evals, decompositions = defaultdict(int), defaultdict(int)
    # fields in the order of tracer.FIELDS
    for i, (name, start, end, _, cmd, count, nbytes, curve_eval) in enumerate(spans):
        acc = passes[run.cmd_pass[cmd]]
        duration = end - start
        own = duration - children[i]
        layer = name.partition(".")[0]
        if layer in ("cli", "synth"):
            acc[layer + ".self_s"] += own
        if name.startswith("fileio.write"):
            acc["fileio.write_s"] += own
            acc["fileio.bytes_written"] += nbytes
            acc["fileio.floats_written"] += count
        elif name.startswith("fileio.load"):
            acc["fileio.read_s"] += own
        if name in INCLUSIVE:
            acc[INCLUSIVE[name]] += duration
        elif layer == "verify":
            acc["verify.other_checks_s"] += duration
        if name == "synth.integrate_frenet":
            acc["synth.steps"] += count
        elif name == "frenet.frenet_grid":
            acc["frenet.grid_points"] += count
        elif name == "dsl.jet3":
            acc["dsl.eval_points"] += count
        elif name == "classify.fit_normal_samples":
            acc["classify.blind_fit_draws"] += 1
        elif name == "classify.frame_components_arrays":
            decompositions[cmd] += 1
        curve_evals[cmd] += curve_eval
    for cmd, p in run.cmd_pass.items():
        acc = passes[p]
        # evaluations of one curve component (two per evaluation of the curve)
        acc["frenet.curve_evals_per_cmd"] = max(acc["frenet.curve_evals_per_cmd"],
                                                curve_evals[cmd] / 2)
        acc["classify.decompositions_per_cmd"] = max(acc["classify.decompositions_per_cmd"],
                                                     decompositions[cmd])
    failures = [f"count {name} differs between passes: {sorted({p[name] for p in passes})}"
                for name in COUNTS if len({p[name] for p in passes}) > 1]
    timed = passes[1:]
    metrics = {name: statistics.mean([p[name] for p in timed])
               for name in sorted({k for p in timed for k in p} - set(COUNTS))}
    metrics.update({name: int(timed[0][name]) for name in COUNTS})
    for name in ("cli.self_s", "synth.self_s", "fileio.write_s", "fileio.read_s",
                 *INCLUSIVE.values(), "verify.other_checks_s"):
        metrics.setdefault(name, 0.0)
    floats, steps = metrics["fileio.floats_written"], metrics["synth.steps"]
    metrics["fileio.ns_per_float"] = 1e9 * metrics["fileio.write_s"] / floats if floats else 0.0
    metrics["synth.us_per_step"] = 1e6 * metrics["synth.self_s"] / steps if steps else 0.0
    return metrics, failures, len(spans)


# -- environment stamp -------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, workload, host_env):
    return {
        **host_env,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
    }


# -- main --------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pgcurves" / "cli.py").is_file():
        print(f"perfbench: no pgcurves sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.prepare(args.workload, args.seed, work)
    setup_s, setup_modules = measure_setup(bool(args.trace))

    plain = Run()
    runs = [plain]
    if args.trace:
        next_cmd = plain.drive(workload, args.seconds / 2, False, work)
        traced = Run()
        traced.drive(workload, args.seconds / 2, True, work, first_cmd=next_cmd)
        runs.append(traced)
        metrics, count_failures, n_spans = per_layer(traced)
        metrics.update(setup_modules)
        untraced = plain.mean_pass_seconds()
        overhead = traced.mean_pass_seconds() - untraced
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100.0 * overhead / untraced
        extra = {"spans": n_spans, "wrapped": traced.finish["wrapped"],
                 "count_failures": count_failures}
    else:
        plain.drive(workload, args.seconds, False, work)
        count_failures = []
        metrics, extra = end_to_end(workload, plain, setup_s)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs) + len(count_failures)
    failures = [f for r in runs for f in r.failures] + count_failures
    report = {"stamp": stamp(args, workload, plain.finish["env"]), "extra": extra,
              "failures": failures[:50]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in sorted(metrics.items())}}
    report["result"] = result
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, value in sorted({**metrics, **extra}.items()):
        if isinstance(value, (int, float)):
            print(f"{name:36s} {value:16.6g} {unit_of(name)}")
    print(f"report {work / 'report.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
