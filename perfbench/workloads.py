"""Seeded workloads: the input files, the commands of one pass, their oracles.

A workload is built from its seed alone and the program sees only the files
written here.  One pass is a fixed list of CLI commands; the benchmark
repeats the pass.  Every oracle computes its expected values from closed
forms in numpy, never through pgcurves, so a defect in the program's jets
shows up as a mismatch.  Oracles read values, not bytes, and accept either
``NaN`` or ``null`` for inadmissible rows.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("analyze-bulk", "verify-suite", "cli-batch")

ANALYZE_SAMPLES = 10_001     # ROADMAP's reference curve has 200,001; see README.md
BATCH_DRAWS = 6              # draws per cli-batch pass, 7 commands each
SMALL_SAMPLES = 1001
TOL_ADM = 1e-12              # the documented admissibility floor on y''^2 - z''^2

# Oracle tolerances.  The first two are the verify suite's own bounds; the
# others sit orders above the rounding floor of each closed form.
TOL_CONSERVATION = 1e-6
TOL_FRAME_CONSTANTS = 1e-8
TOL_RECT_PARAMS = 1e-5
TOL_EXACT = 1e-9             # exact-path invariants against closed forms
TOL_SAMPLED = 1e-4           # spline-path invariants (the sampled classify bound)
# Spline-path torsion uses third derivatives of an interpolant through every
# integration step, whose rounding noise grows like spacing^-3 (README,
# numerical notes); it is measured up to 6e-5 and checked an order above.
TOL_SAMPLED_TAU = 1e-3

ANALYSIS_COLUMNS = ("s", "kappa", "tau", "eps", "t_y", "t_z",
                    "n_y", "n_z", "b_y", "b_z", "res_t", "res_n", "res_b")


@dataclass
class Command:
    kind: str
    argv: list
    expect_exit: int
    # check() returns (operations, failure messages); it runs right after
    # the command, before the next pass overwrites the outputs.
    check: Callable[[], tuple]
    rows: int = 0            # analysis rows written (analyze commands)


@dataclass
class Workload:
    name: str
    seed: int
    commands: list
    sizes: dict = field(default_factory=dict)


# -- reading outputs ---------------------------------------------------------

def _number(value):
    if value is None:
        return math.nan
    try:
        return float(value)
    except ValueError:       # an empty or non-numeric field marks an inadmissible row
        return math.nan


def read_table(path, sep, header):
    """Columns of a CSV (with header) or whitespace table (without)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    names = lines.pop(0).split(sep) if header else None
    try:
        data = np.loadtxt(lines, delimiter=sep if sep != " " else None, ndmin=2)
    except ValueError:   # empty or null fields: parse them one by one
        data = np.array([[_number(x) for x in line.split(sep)] for line in lines], float)
    data = data.reshape(len(lines), -1)
    if names is None:
        return data
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: rows are {data.shape[1]} wide, header has {len(names)}")
    return {name: data[:, i] for i, name in enumerate(names)}


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _json_column(rows, key):
    return np.array([_number(row[key]) for row in rows], float)


# -- comparisons -------------------------------------------------------------

def _close(failures, label, got, want, tol):
    """|got - want| <= tol * max(1, |want|) everywhere, all values finite."""
    got = np.asarray(got, float)
    want = np.broadcast_to(np.asarray(want, float), got.shape)
    if got.size == 0:
        failures.append(f"{label}: no values")
        return
    if not np.all(np.isfinite(got)):
        failures.append(f"{label}: {int(np.sum(~np.isfinite(got)))} non-finite values")
        return
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    if err > tol:
        failures.append(f"{label}: worst error {err:.3g} > {tol:g}")


def _segments(s, ok, sign):
    """Maximal runs of admissible points with one sign of y''^2 - z''^2."""
    segments, start = [], None
    for i in range(s.size):
        if start is not None and (not ok[i] or sign[i] != sign[start]):
            segments.append((s[start], s[i - 1]))
            start = None
        if ok[i] and start is None:
            start = i
    if start is not None:
        segments.append((s[start], s[-1]))
    return segments


# -- oracles -----------------------------------------------------------------

class Analysis:
    """Closed forms of one exact curve: y''^2 - z''^2 and the torsion numerator."""

    def __init__(self, s_min, s_max, samples, d, tau_num):
        self.s = np.linspace(s_min, s_max, samples)
        self.d = d(self.s)
        self.ok = np.abs(self.d) >= TOL_ADM
        dd = np.where(self.ok, self.d, 1.0)
        self.kappa = np.sqrt(np.abs(dd))
        self.tau = tau_num(self.s) / np.abs(dd)
        self.eps = np.sign(dd)
        self.segments = _segments(self.s, self.ok, self.eps)

    def check_rows(self, failures, label, cols):
        if cols["s"].size != self.s.size:
            failures.append(f"{label}: {cols['s'].size} rows, expected {self.s.size}")
            return
        ok = self.ok
        _close(failures, f"{label} s", cols["s"], self.s, 1e-12)
        _close(failures, f"{label} kappa", cols["kappa"][ok], self.kappa[ok], TOL_EXACT)
        _close(failures, f"{label} tau", cols["tau"][ok], self.tau[ok], TOL_EXACT)
        _close(failures, f"{label} eps", cols["eps"][ok], self.eps[ok], 0.0)
        if np.any(np.isfinite(cols["kappa"][~ok])):
            failures.append(f"{label}: inadmissible rows carry finite kappa")

    def check_admissibility(self, failures, label, block):
        if bool(block["admissible"]) != bool(self.ok.all() and len(self.segments) == 1):
            failures.append(f"{label}: admissible flag is {block['admissible']}")
        got = np.array(block["segments"], float).reshape(-1, 2)
        if got.shape[0] != len(self.segments):
            failures.append(f"{label}: {got.shape[0]} segments, expected {len(self.segments)}")
        else:
            _close(failures, f"{label} segments", got, np.array(self.segments), 1e-12)
        bad = np.array([v[0] for v in block["violations"]], float)
        if bad.size != int(np.sum(~self.ok)):
            failures.append(f"{label}: {bad.size} violations, expected {int(np.sum(~self.ok))}")

    def check_analyze(self, base, label):
        failures = []
        payload = read_json(f"{base}.json")
        rows = payload["rows"]
        self.check_rows(failures, f"{label} json",
                        {k: _json_column(rows, k) for k in ("s", "kappa", "tau", "eps")})
        self.check_admissibility(failures, f"{label} json", payload["admissibility"])
        table = read_table(f"{base}.csv", ",", header=True)
        if tuple(table) != ANALYSIS_COLUMNS:
            failures.append(f"{label} csv: columns {tuple(table)}")
        else:
            self.check_rows(failures, f"{label} csv", table)
        return 1, failures


def cosh_analysis(a, s_min, s_max, samples):
    """y = a cosh s, z = a sinh s: y''^2 - z''^2 and y''z''' - y'''z'' are both a^2."""
    return Analysis(s_min, s_max, samples, lambda s: np.full_like(s, a * a),
                    lambda s: np.full_like(s, a * a))


def lightlike_analysis():
    """y = s^2/2, z = s^3/6 on [0, 2]: lightlike at s = 1, kappa^2 = |1 - s^2|."""
    return Analysis(0.0, 2.0, SMALL_SAMPLES, lambda s: 1.0 - s * s, np.ones_like)


def check_series(out_dir, s_want, expected, label):
    """plot-data: one two-column file per series, s in the first column.

    expected maps each series name to (expected values, tolerance).
    """
    failures = []
    for name, (want, tol) in expected.items():
        data = read_table(Path(out_dir) / f"{name}.dat", " ", header=False)
        if data.shape[0] != s_want.size:
            failures.append(f"{label} {name}: {data.shape[0]} rows, expected {s_want.size}")
            continue
        _close(failures, f"{label} {name} s", data[:, 0], s_want, 1e-12)
        _close(failures, f"{label} {name}", data[:, 1], want, tol)
    return 1, failures


def _frame_drift(t):
    """Drift of the isotropic-plane constants of motion nn, bb, nb and det."""
    constants = (t["n_y"] ** 2 - t["n_z"] ** 2, t["b_y"] ** 2 - t["b_z"] ** 2,
                 t["n_y"] * t["b_y"] - t["n_z"] * t["b_z"],
                 t["n_y"] * t["b_z"] - t["n_z"] * t["b_y"])
    return max(float(np.max(np.abs(c - c[0]))) for c in constants)


def check_synth_frames(path, s_min, s_max, label, m1=None, n1=None):
    failures = []
    t = read_table(path, ",", header=True)
    _close(failures, f"{label} s range", [t["s"][0], t["s"][-1]], [s_min, s_max], 1e-12)
    _close(failures, f"{label} x - s", t["x"] - t["s"], t["x"][0] - t["s"][0], 1e-12)
    drift = _frame_drift(t)
    if not drift <= TOL_FRAME_CONSTANTS:
        failures.append(f"{label} frame_constants: drift {drift:.3g} > {TOL_FRAME_CONSTANTS:g}")
    if m1 is not None:
        lam = t["s"] + m1
        spread = max(float(np.ptp(f)) for f in (
            t["x"] - lam,
            t["y"] - lam * t["t_y"] - n1 * t["b_y"],
            t["z"] - lam * t["t_z"] - n1 * t["b_z"]))
        if not spread <= TOL_CONSERVATION:
            failures.append(f"{label} conservation: spread {spread:.3g} > {TOL_CONSERVATION:g}")
    return 1, failures


def check_classify_rectifying(path, m1, n1, label):
    failures = []
    report = read_json(path)
    if report["verdict"] != "rectifying":
        failures.append(f"{label}: verdict {report['verdict']!r}, expected 'rectifying'")
    else:
        p = report["parameters"]
        err = max(abs(p["m1"] - m1), abs(p["n1"] - n1))
        if not err <= TOL_RECT_PARAMS:
            failures.append(f"{label}: m1/n1 error {err:.3g} > {TOL_RECT_PARAMS:g}")
    return 1, failures


def check_classify_cosh(path, a, label):
    """a cosh/sinh about the origin: beta = a everywhere, so neither verdict."""
    failures = []
    report = read_json(path)
    if report["verdict"] != "neither":
        failures.append(f"{label}: verdict {report['verdict']!r}, expected 'neither'")
    else:
        p, r = report["parameters"], report["residuals"]
        _close(failures, f"{label} beta_max", r["beta_max"], a, TOL_EXACT)
        _close(failures, f"{label} m1", p["m1"], 0.0, TOL_EXACT)
        if p["kappa"] is not None:
            _close(failures, f"{label} fitted kappa, tau", [p["kappa"], p["tau"]],
                   [a, 1.0], TOL_EXACT)
    return 1, failures


def check_classify_inadmissible(path, label):
    failures = []
    report = read_json(path)
    if report["verdict"] is not None:
        failures.append(f"{label}: verdict {report['verdict']!r} for an inadmissible curve")
    lightlike_analysis().check_admissibility(failures, label, report["admissibility"])
    return 1, failures


def check_verify(path):
    """One operation per reported check; a check fails when it did not pass."""
    report = read_json(path)
    checks = report["checks"]
    failures = [f"verify {c['name']}: worst {c['worst']!r} tol {c['tolerance']!r}"
                for c in checks if not c["passed"]]
    if not report["passed"] and not failures:
        failures.append("verify: report not passed")
    return max(1, len(checks)), failures


# -- workload builders -------------------------------------------------------

def _write_curve(path, y, z, s_min, s_max, samples):
    path.write_text(json.dumps({"param": "s", "y": y, "z": z, "s_min": s_min,
                                "s_max": s_max, "samples": samples}), encoding="utf-8")


def _analyze_bulk(seed, work):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.5, 3.0))
    s_min, s_max = -float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
    big, ll = work / "in" / "bulk.json", work / "in" / "lightlike.json"
    _write_curve(big, f"{a!r}*cosh(s)", f"{a!r}*sinh(s)", s_min, s_max, ANALYZE_SAMPLES)
    _write_curve(ll, "s^2/2", "s^3/6", 0.0, 2.0, SMALL_SAMPLES)
    bulk = cosh_analysis(a, s_min, s_max, ANALYZE_SAMPLES)
    out = work / "out"
    commands = [
        Command("analyze", ["analyze", "--input", str(big), "--output", str(out / "bulk")], 0,
                lambda: bulk.check_analyze(out / "bulk", "analyze bulk"),
                rows=ANALYZE_SAMPLES),
        Command("analyze", ["analyze", "--input", str(ll), "--output", str(out / "lightlike")], 2,
                lambda: lightlike_analysis().check_analyze(out / "lightlike", "analyze lightlike"),
                rows=SMALL_SAMPLES),
        Command("plot-data", ["plot-data", "--input", str(big), "--output", str(out / "series")],
                0, lambda: check_series(out / "series", bulk.s,
                                        {"kappa": (a, TOL_EXACT), "tau": (1.0, TOL_EXACT),
                                         "tau_over_kappa": (1.0 / a, TOL_EXACT),
                                         "beta": (a, TOL_EXACT)}, "plot-data bulk")),
    ]
    sizes = {"samples": ANALYZE_SAMPLES, "lightlike_samples": SMALL_SAMPLES,
             "a": a, "s_min": s_min, "s_max": s_max}
    return commands, sizes


def _verify_suite(seed, work):
    out = work / "out" / "verify.json"
    commands = [Command("verify", ["verify", "--output", str(out), "--seed", str(seed)], 0,
                        lambda: check_verify(out))]
    return commands, {"verify_seed": seed, "draws": "full"}


def _batch_draws(seed):
    """(m1, n1, kappa) and a profile (k0, w) per draw, as in the verify suite."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(BATCH_DRAWS):
        m1 = float(rng.uniform(-2.0, 2.0))
        n1 = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
        kappa = float(rng.uniform(0.5, 3.0))
        k0 = float(rng.uniform(0.5, 3.0))
        w = float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))
        draws.append((m1, n1, kappa, k0, w))
    return draws


def _cli_batch(seed, work):
    ll = work / "in" / "lightlike.json"
    _write_curve(ll, "s^2/2", "s^3/6", 0.0, 2.0, SMALL_SAMPLES)
    commands = []
    for i, (m1, n1, kappa, k0, w) in enumerate(_batch_draws(seed)):
        out = work / "out" / f"d{i}"
        exact = work / "in" / f"exact{i}.json"
        lo, hi = -m1 - 1.0, -m1 + 1.0
        _write_curve(exact, f"{kappa!r}*cosh(s)", f"{kappa!r}*sinh(s)", lo, hi, SMALL_SAMPLES)
        cosh = cosh_analysis(kappa, lo, hi, SMALL_SAMPLES)
        rect = out / "rect.csv"
        prof = out / "profile.csv"
        s_rect = np.linspace(lo, hi, 2001)   # 2,000 steps of 1e-3
        commands += [
            Command("synthesize", ["synthesize", f"--m1={m1!r}", f"--n1={n1!r}",
                                   f"--kappa={kappa!r}", f"--s-min={lo!r}", f"--s-max={hi!r}",
                                   "--frames", "--output", str(rect)], 0,
                    lambda rect=rect, lo=lo, hi=hi, m1=m1, n1=n1:
                        check_synth_frames(rect, lo, hi, "synthesize rectifying", m1, n1)),
            Command("classify", ["classify", "--input", str(rect),
                                 "--output", str(out / "rect_verdict.json")], 0,
                    lambda out=out, m1=m1, n1=n1:
                        check_classify_rectifying(out / "rect_verdict.json", m1, n1,
                                                  "classify rectifying")),
            Command("plot-data", ["plot-data", "--input", str(rect),
                                  "--output", str(out / "rect_series")], 0,
                    lambda out=out, s=s_rect, m1=m1, n1=n1, kappa=kappa:
                        check_series(out / "rect_series", s,
                                     {"kappa": (kappa, TOL_SAMPLED),
                                      "tau": (-(s + m1) * kappa / n1, TOL_SAMPLED_TAU),
                                      "tau_over_kappa": (-(s + m1) / n1, TOL_SAMPLED_TAU),
                                      "beta": (0.0, TOL_SAMPLED)},
                                     "plot-data rectifying")),
            Command("classify", ["classify", "--input", str(exact),
                                 "--output", str(out / "exact_verdict.json")], 0,
                    lambda out=out, kappa=kappa:
                        check_classify_cosh(out / "exact_verdict.json", kappa, "classify exact")),
            Command("classify", ["classify", "--input", str(ll),
                                 "--output", str(out / "lightlike_verdict.json")], 2,
                    lambda out=out: check_classify_inadmissible(
                        out / "lightlike_verdict.json", "classify lightlike")),
            Command("synthesize", ["synthesize", f"--kappa={k0!r} + s^2/10",
                                   f"--tau={w!r}*sin(s)", "--s-min=0", "--s-max=2",
                                   "--frames", "--output", str(prof)], 0,
                    lambda prof=prof: check_synth_frames(prof, 0.0, 2.0, "synthesize profile")),
            Command("analyze", ["analyze", "--input", str(exact),
                                "--output", str(out / "exact")], 0,
                    lambda out=out, cosh=cosh: cosh.check_analyze(out / "exact", "analyze exact"),
                    rows=SMALL_SAMPLES),
        ]
    sizes = {"draws": BATCH_DRAWS, "commands_per_pass": len(commands),
             "exact_samples": SMALL_SAMPLES, "synth_steps_per_window": 2000}
    return commands, sizes


_BUILDERS = {"analyze-bulk": _analyze_bulk, "verify-suite": _verify_suite,
             "cli-batch": _cli_batch}


def prepare(name, seed, work):
    """Write the workload's inputs under work/in and return its pass."""
    work = Path(work)
    (work / "in").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(parents=True, exist_ok=True)
    commands, sizes = _BUILDERS[name](seed, work)
    return Workload(name, seed, commands, sizes)
