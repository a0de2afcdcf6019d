"""Randomized oracle suite: every analytic guarantee as a runnable check.

Each check pits an implementation against an independent route to the same
quantity (determinant torsion vs component torsion, closed forms vs the
differential system they solve, synthesis vs re-analysis, jets vs finite
differences) and reports the worst observed residual next to its tolerance.
The suite is deterministic for a fixed seed.

Each randomized check draws from its own ``random.Random`` stream, seeded
from the seed and the check's name alone (``streams``), and only through
``Random.random()``, whose sequence for a given seed Python keeps across
versions; ``numpy.random`` would load ``hashlib`` and OpenSSL for some 11,000
draws.  ``run_all`` runs the rectifying round trips, its most expensive
check, in a forked child while the parent runs the other checks; since no
check's draws depend on another's, the report is byte-identical to an
in-order run.  The round-trip checks name the draw behind their worst result
in ``where``.
"""

import math
import os
import pickle
import random
from dataclasses import dataclass

import numpy as np

from .classify import (
    classify_rectifying,
    constant_invariant_jets,
    fit_constant_invariant,
    frame_components_arrays,
)
from .dsl import LexError, ParseError, eval_jet3, parse_expr
from .frenet import curve_from_exprs, frenet_grid, torsion_det
from .space import ORIGIN, PGVector3, plane_product
from .synth import integrate_frenet, profile, rectifying_drift, synth_rectifying

__all__ = ["CheckResult", "run_all", "streams", "CURVE_CORPUS", "PARSER_CORPUS",
           "DEFAULT_TOLERANCES", "corpus_curves"]


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome.  where names the draw behind worst: its index
    and drawn parameters, or None for a check that does not report one."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    count: int
    detail: str = ""
    where: dict | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "tolerance": self.tolerance,
            "count": self.count,
            "detail": self.detail,
            "where": self.where,
        }


def streams(seed: int) -> dict[str, random.Random]:
    """The random stream of each randomized check of run_all, by name.

    Each is seeded with the string "<name> <seed>", so it depends on the
    seed and its check alone.  A negative seed raises ValueError.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return {name: random.Random(f"{name} {seed}")
            for name in ("torsion_equivalence", "constant_invariant_closed_forms",
                         "constant_invariant_roundtrip", "rectifying_suite")}


def _draw(rng: random.Random, lo: float, hi: float, size: int | None = None):
    """lo + (hi - lo) u for u = rng.random(): a float, or an array of size draws.

    Every draw of a randomized check goes through here.
    """
    if size is None:
        return lo + (hi - lo) * rng.random()
    return lo + (hi - lo) * np.array([rng.random() for _ in range(size)])


def _sign(rng: random.Random, size: int | None = None):
    """-1.0 where the draw u < 0.5, else 1.0: a float, or an array of size."""
    u = _draw(rng, 0.0, 1.0, size)
    if size is None:
        return -1.0 if u < 0.5 else 1.0
    return np.where(u < 0.5, -1.0, 1.0)


def _worst(values, draws) -> tuple[float, dict]:
    """The largest of values, a NaN before any number, and the draw it came from."""
    i = int(np.argmax(values))
    return float(values[i]), draws[i]


# Analysis corpus: graph-form component pairs with both orientation signs,
# zero, constant and varying torsion.
CURVE_CORPUS = [
    ("cosh-sinh", "cosh(s)", "sinh(s)", 0.0, 2.0),
    ("parabola", "s^2/2", "0", -1.0, 1.0),
    ("tilted-parabola", "s^2", "s", 0.0, 1.0),
    ("timelike-parabola", "s", "s^2", 0.0, 1.0),
    ("cosh-sinh-2s", "cosh(2*s)", "sinh(2*s)", 0.0, 1.0),
    ("exp-parabola", "exp(s)", "s^2/2", 0.5, 1.5),
    ("cubic-cosh", "s^3/6", "cosh(s)", 0.0, 2.0),
    ("sinh-cosh", "sinh(s)", "cosh(s)", 0.0, 2.0),
    ("log-parabola", "log(s)", "s^2/12", 0.5, 2.0),
    ("quartic", "s^4/12", "s^2/2", 1.2, 2.0),
    ("tanh-parabola", "tanh(s)", "s^2/20", 0.5, 2.0),
    ("wavy-parabola", "s^2/2 + sin(s)", "sin(s)", 1.0, 2.0),
]


def corpus_curves(samples: int = 1001):
    return [(name, curve_from_exprs(y, z, lo, hi, samples=samples))
            for name, y, z, lo, hi in CURVE_CORPUS]


# Golden parser corpus: (source, mode, payload).  Modes: "value" evaluates at
# payload[0] and compares with payload[1]; "lex" and "parse" expect errors.
PARSER_CORPUS = [
    ("1+2*3", "value", (0.0, 7.0)),
    ("2^3^2", "value", (0.0, 512.0)),
    ("(1+2)*3", "value", (0.0, 9.0)),
    ("-2^2", "value", (0.0, -4.0)),
    ("2^-2", "value", (0.0, 0.25)),
    ("1-2-3", "value", (0.0, -4.0)),
    ("12/4/2", "value", (0.0, 1.5)),
    ("2*-3", "value", (0.0, -6.0)),
    ("-s^2", "value", (2.0, -4.0)),
    ("s^2/2", "value", (3.0, 4.5)),
    ("cosh(s)", "value", (0.0, 1.0)),
    ("sin(cos(s))", "value", (0.0, math.sin(1.0))),
    ("sqrt(s^2+9)", "value", (4.0, 5.0)),
    ("exp(-s^2/2)", "value", (0.0, 1.0)),
    ("log(exp(s))", "value", (1.5, 1.5)),
    ("abs(-s)", "value", (3.0, 3.0)),
    ("tanh(s)*cosh(s)", "value", (1.0, math.sinh(1.0))),
    ("1e3", "value", (0.0, 1000.0)),
    ("2.5E-2", "value", (0.0, 0.025)),
    ("7e+1", "value", (0.0, 70.0)),
    ("1 + 2 * 3 ^ 2", "value", (0.0, 19.0)),
    ("(s+1)*(s-1)", "value", (3.0, 8.0)),
    ("s/2 + s/4", "value", (4.0, 3.0)),
    ("sinh(s)/cosh(s)", "value", (0.7, math.tanh(0.7))),
    ("2..5", "lex", 1),
    (".5", "lex", 0),
    ("3!", "lex", 1),
    ("sin()", "parse", None),
    ("sin(s", "parse", None),
    ("q+1", "parse", None),
    ("2^s", "parse", None),
    ("1 2", "parse", None),
    ("sin + 1", "parse", None),
    ("foo(s)", "parse", None),
    ("()", "parse", None),
    ("*3", "parse", None),
    ("2**3", "parse", None),
    ("", "parse", None),
]

_FD_CORPUS = [
    "cosh(s)", "exp(-s^2/2)", "s^3/6 + sin(s)", "log(s)*s",
    "sqrt(s^2+1)", "tanh(s)", "sinh(s)/(cosh(s)+2)", "(s+1)^3/(s+2)",
]

DEFAULT_TOLERANCES = {
    "frenet_consistency": 1e-9,
    "torsion_equivalence": 1e-12,
    "constant_invariant_closed_forms": 1e-10,
    "constant_invariant_roundtrip": 1e-8,
    "rectifying_beta": 1e-6,
    "rectifying_params": 1e-5,
    "rectifying_slope": 1e-6,
    "conservation": 1e-6,
    "rectifying_properties": 1e-5,
    "frame_constants": 1e-8,
    "jet_finite_difference": 1e-6,
}


def check_frenet_consistency(points: int = 1000, tol: float = 1e-9) -> CheckResult:
    """Frame-equation residuals across the whole analysis corpus."""
    worst = 0.0
    count = 0
    for _, curve in corpus_curves(points):
        g = frenet_grid(curve)
        worst = max(worst, float(np.max(g.res_t)), float(np.max(g.res_n)),
                    float(np.max(g.res_b)))
        count += points
    return CheckResult("frenet_consistency", worst <= tol, worst, tol, count,
                       "max frame-equation residual over the DSL corpus")


def check_torsion_equivalence(rng: random.Random, pairs: int = 10_000,
                              tol: float = 1e-12) -> CheckResult:
    """Component torsion against determinant torsion at random points.

    pairs random parameters in all, spread over the corpus curves in order.
    """
    per_curve = pairs // len(CURVE_CORPUS) + 1
    worst = 0.0
    count = 0
    for (_, curve), (*_, lo, hi) in zip(corpus_curves(), CURVE_CORPUS):
        if count >= pairs:
            break
        s = _draw(rng, lo, hi, size=min(per_curve, pairs - count))
        tau_frame = frenet_grid(curve, s).tau
        tau_det = torsion_det(curve, s)
        denom = np.maximum(np.abs(tau_frame), np.abs(tau_det))
        diff = np.abs(tau_frame - tau_det)
        rel = np.where(denom > 0, diff / np.where(denom > 0, denom, 1.0), diff)
        worst = max(worst, float(np.max(rel)))
        count += len(s)
    return CheckResult("torsion_equivalence", worst <= tol, worst, tol, count,
                       "relative gap between the two torsion formulas")


def check_constant_invariant_closed_forms(rng: random.Random, draws: int = 100,
                                         tol: float = 1e-10) -> CheckResult:
    """The constant-invariant family substituted into the frame equations.

    Through the jets, alpha' = 1, beta' = -kappa alpha - tau gamma and
    gamma' = -tau beta must hold for every draw.  The grid stays on [0, 1] so
    the exponential factors remain <= e^5 and the rounding floor sits orders
    below the tolerance.
    """
    kappa = _draw(rng, 0.1, 10.0, draws)[:, None]
    tau = (_draw(rng, 0.1, 5.0, draws) * _sign(rng, draws))[:, None]
    m1, c_plus, c_minus = _draw(rng, -1.0, 1.0, 3 * draws).reshape(3, draws, 1)
    alpha, beta, gamma = constant_invariant_jets(kappa, tau, m1, c_plus, c_minus,
                                                 np.linspace(0.0, 1.0, 101))
    worst = max(float(np.max(np.abs(alpha.d1 - 1.0))),
                float(np.max(np.abs(beta.d1 + kappa * alpha.v + tau * gamma.v))),
                float(np.max(np.abs(gamma.d1 + tau * beta.v))))
    return CheckResult("constant_invariant_closed_forms", worst <= tol, worst, tol,
                       draws, "max residual of the three frame-component equations")


def check_constant_invariant_roundtrip(rng: random.Random, draws: int = 30,
                                       step: float = 1e-3, tol: float = 1e-8) -> CheckResult:
    """Synthesize-classify round trips for randomized constant-invariant curves.

    Synthesis starts at r0 with the canonical frame, so at s = 0 the frame
    components are alpha = r0.x, beta = r0.y and gamma = r0.z.  That fixes
    m1 = r0.x, and c_plus and c_minus through
    beta(0) = kappa/tau^2 + c_plus + c_minus and
    gamma(0) = -kappa m1/tau - c_plus + c_minus.  A draw whose fit does not
    hold counts as an infinite error.  where holds the draw's index, kappa,
    tau and r0.
    """
    errors, where = [], []
    for index in range(draws):
        kappa = _draw(rng, 0.5, 3.0)
        tau = _draw(rng, 0.3, 2.0) * _sign(rng)
        r0 = PGVector3(*(_draw(rng, -1.0, 1.0) for _ in range(3)))
        where.append({"index": index, "kappa": kappa, "tau": tau, "r0": list(r0.as_tuple())})
        traj = integrate_frenet(profile(kappa, tau, 0.0, 2.0), step=step, r0=r0)
        dec = frame_components_arrays(frenet_grid(traj.to_curve(0.2, 1.8)), ORIGIN)
        verdict = classify_rectifying(dec)
        fit = fit_constant_invariant(dec, verdict)
        if not fit.holds:
            errors.append(math.inf)
            continue
        c_sum = r0.y - kappa / tau ** 2          # c_plus + c_minus
        c_diff = r0.z + kappa * r0.x / tau       # c_minus - c_plus
        errors.append(max(abs(verdict.m1 - r0.x),
                          abs(fit.c_plus - 0.5 * (c_sum - c_diff)),
                          abs(fit.c_minus - 0.5 * (c_sum + c_diff))))
    worst, at = _worst(errors, where)
    return CheckResult("constant_invariant_roundtrip", worst <= tol, worst, tol, draws,
                       "worst recovery error of m1, c_plus and c_minus", at)


def check_rectifying_suite(rng: random.Random, draws: int = 50, step: float = 1e-3,
                           tol_beta: float = 1e-6, tol_params: float = 1e-5,
                           tol_slope: float = 1e-6, tol_conservation: float = 1e-6,
                           tol_properties: float = 1e-5) -> list[CheckResult]:
    """Synthesize-classify round trips for randomized rectifying curves.

    Windows of length 2 are centered on the vertex s = -m1 (where the
    tangential component vanishes): centering keeps the accumulated torsion
    integral small, so frame magnitudes stay ~e^3 and the conservation and
    component checks are meaningful at the stated tolerances.  Each result's
    where holds the index, m1, n1 and kappa of its worst draw.
    """
    rows, where = [], []  # per draw: the five results' residuals; the draw itself
    worst_bb = 0.0
    all_verdicts = True
    all_props = True
    for index in range(draws):
        m1 = _draw(rng, -2.0, 2.0)
        n1 = _draw(rng, 0.5, 3.0) * _sign(rng)
        kappa = _draw(rng, 0.5, 3.0)
        where.append({"index": index, "m1": m1, "n1": n1, "kappa": kappa})
        window = (-m1 - 1.0, -m1 + 1.0)
        traj = synth_rectifying(m1, n1, f"{kappa!r}", window, step=step, margin=0.05)
        dec = frame_components_arrays(frenet_grid(traj.to_curve(*window)), ORIGIN)
        verdict = classify_rectifying(dec)
        all_verdicts = all_verdicts and verdict.is_rectifying
        all_props = all_props and verdict.signatures_hold(tol_properties)
        rows.append((verdict.beta_max,
                     max(abs(verdict.m1 - m1), abs(verdict.n1 - n1)),
                     abs(verdict.a * n1 + 1.0),
                     float(np.max(rectifying_drift(traj, m1, n1))),
                     max(verdict.rho_check, verdict.tangential_residual,
                         verdict.normal_length_residual, verdict.gamma_spread)))

        # these curves sit on the timelike-binormal branch: <b, b> = -1
        g = dec.grid
        bb = plane_product(g.b_y, g.b_z, g.b_y, g.b_z)
        worst_bb = max(worst_bb, float(np.max(np.abs(bb + 1.0))))
    ((beta, beta_at), (params, params_at), (slope, slope_at), (cons, cons_at),
     (prop, prop_at)) = (_worst(column, where) for column in zip(*rows))
    return [
        CheckResult("rectifying_beta", all_verdicts and beta <= tol_beta,
                    beta, tol_beta, draws,
                    "max |beta| over synthesized rectifying curves", beta_at),
        CheckResult("rectifying_params", params <= tol_params,
                    params, tol_params, draws,
                    "worst recovery error of m1 and n1", params_at),
        CheckResult("rectifying_slope", slope <= tol_slope,
                    slope, tol_slope, draws,
                    "worst |a*n1 + 1| of the tau/kappa line fit", slope_at),
        CheckResult("conservation", cons <= tol_conservation,
                    cons, tol_conservation, draws,
                    "componentwise spread of r - (s+m1) t - n1 b", cons_at),
        CheckResult("rectifying_properties",
                    all_props and prop <= tol_properties
                    and worst_bb <= tol_properties,
                    prop, tol_properties, draws,
                    "worst residual across the four rectifying signatures "
                    "(binormal metric sign verified timelike)", prop_at),
    ]


def check_integrator_order(lo: float = 12.0, hi: float = 20.0) -> CheckResult:
    """Step-halving error ratio against the closed-form unit-invariant flow."""
    def endpoint_error(step: float) -> float:
        traj = integrate_frenet(profile("1", "1", 0.0, 1.0), step=step)
        ch, sh = math.cosh(1.0), math.sinh(1.0)
        exact = np.array([ch - 1.0, sh - 1.0, sh, ch - 1.0, ch, sh, sh, ch])
        got = np.array([traj.r[-1, 1], traj.r[-1, 2], traj.t_y[-1], traj.t_z[-1],
                        traj.n_y[-1], traj.n_z[-1], traj.b_y[-1], traj.b_z[-1]])
        return float(np.linalg.norm(got - exact))

    ratio = endpoint_error(0.05) / endpoint_error(0.025)
    return CheckResult("integrator_order", lo <= ratio <= hi, ratio, hi, 2,
                       f"error ratio under step halving, must lie in [{lo:g}, {hi:g}]")


def check_frame_constants(step: float = 1e-3, tol: float = 1e-8) -> CheckResult:
    """Drift of the frame constants of motion over length-4 integrations."""
    profiles = [("1", "1"), ("2", "-1"), ("1 + s^2/10", "sin(s)")]
    worst = 0.0
    for kappa, tau in profiles:
        traj = integrate_frenet(profile(kappa, tau, 0.0, 4.0), step=step)
        cons = traj.conserved()
        worst = max(worst,
                    float(np.max(np.abs(cons["nn"] - cons["nn"][0]))),
                    float(np.max(np.abs(cons["bb"] - cons["bb"][0]))),
                    float(np.max(np.abs(cons["nb"] - cons["nb"][0]))),
                    float(np.max(np.abs(cons["det"] - cons["det"][0]))))
    return CheckResult("frame_constants", worst <= tol, worst, tol, len(profiles),
                       "max drift of the isotropic-plane constants of motion")


def check_parser_corpus() -> CheckResult:
    """Golden expression corpus: values, precedence and error positions."""
    failures = 0
    for source, mode, payload in PARSER_CORPUS:
        try:
            if mode == "value":
                at, expected = payload
                got = eval_jet3(parse_expr(source), at).v
                if not math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12):
                    failures += 1
            elif mode == "lex":
                try:
                    parse_expr(source)
                    failures += 1
                except LexError as err:
                    if payload is not None and err.offset != payload:
                        failures += 1
                except ParseError:
                    failures += 1
            else:
                try:
                    parse_expr(source)
                    failures += 1
                except ParseError:
                    pass
        except Exception:
            failures += 1
    return CheckResult("parser_corpus", failures == 0, float(failures), 0.0,
                       len(PARSER_CORPUS), "failed golden-corpus entries")


def check_jet_finite_difference(tol: float = 1e-6) -> CheckResult:
    """Jet derivatives against central differences on smooth corpus points."""
    worst = 0.0
    count = 0
    for source in _FD_CORPUS:
        e = parse_expr(source)
        for point in (0.7, 1.3):
            jet = eval_jet3(e, point)
            h = 1e-5
            fd1 = (eval_jet3(e, point + h).v - eval_jet3(e, point - h).v) / (2 * h)
            rel1 = abs(fd1 - jet.d1) / max(1.0, abs(jet.d1))

            h2 = 1e-3

            def second(hh):
                return (eval_jet3(e, point + hh).v - 2 * eval_jet3(e, point).v
                        + eval_jet3(e, point - hh).v) / hh**2

            fd2 = (4.0 * second(h2 / 2) - second(h2)) / 3.0
            rel2 = abs(fd2 - jet.d2) / max(1.0, abs(jet.d2))
            worst = max(worst, rel1, rel2)
            count += 1
    return CheckResult("jet_finite_difference", worst <= tol, worst, tol, count,
                       "relative gap between jets and central differences")


def run_all(seed: int = 0, overrides: dict[str, float] | None = None) -> dict:
    """Run the whole suite and return a report dictionary.

    seed must be non-negative.  overrides maps check names to replacement
    tolerances, each finite and positive.  check_rectifying_suite runs in a
    forked child, which is reaped before this returns or raises; its
    exception is re-raised here.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if overrides:
        unknown = set(overrides) - set(tol)
        if unknown:
            raise ValueError(f"unknown tolerance name(s): {sorted(unknown)}")
        for name, value in overrides.items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"tolerance {name} must be finite and positive, got {value}")
        tol.update(overrides)

    rngs = streams(seed)

    def rectifying_suite():
        return check_rectifying_suite(
            rngs["rectifying_suite"], tol_beta=tol["rectifying_beta"],
            tol_params=tol["rectifying_params"], tol_slope=tol["rectifying_slope"],
            tol_conservation=tol["conservation"],
            tol_properties=tol["rectifying_properties"])

    pid, pipe = _fork_call(rectifying_suite)
    try:
        with pipe:
            head = [
                check_frenet_consistency(points=1000, tol=tol["frenet_consistency"]),
                check_torsion_equivalence(rngs["torsion_equivalence"],
                                          tol=tol["torsion_equivalence"]),
                check_constant_invariant_closed_forms(
                    rngs["constant_invariant_closed_forms"],
                    tol=tol["constant_invariant_closed_forms"]),
                check_constant_invariant_roundtrip(
                    rngs["constant_invariant_roundtrip"],
                    tol=tol["constant_invariant_roundtrip"]),
            ]
            tail = [
                check_integrator_order(),
                check_frame_constants(tol=tol["frame_constants"]),
                check_parser_corpus(),
                check_jet_finite_difference(tol=tol["jet_finite_difference"]),
            ]
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    checks = head + _child_result(payload, status) + tail

    return {
        "schema": 3,
        "seed": int(seed),
        "passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
    }


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a forked child; the
    re-raised exception's __cause__, so an uncaught one shows where it arose."""


def _fork_call(fn):
    """Call fn() in a forked child; return its pid and the pipe it replies on.

    The child pickles (True, result) or (False, (exception, traceback text))
    onto the pipe and ends with os._exit, so it never returns into the
    caller, runs no exit handler and flushes none of the parent's stdio
    buffers.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    try:
        os.close(read_fd)
        try:
            reply = (True, fn())
        except BaseException as exc:  # every exception goes to the parent
            import traceback
            reply = (False, (exc, "".join(traceback.format_exception(exc))))
        try:
            payload = pickle.dumps(reply)
            pickle.loads(payload)  # an exception whose __init__ differs fails here
        except Exception as err:
            error = ChildProcessError(f"unpicklable result from the forked child: {err}")
            payload = pickle.dumps((False, (error, "")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _child_result(payload: bytes, status: int):
    """The result _fork_call's child sent, or its exception re-raised."""
    if not payload:
        raise ChildProcessError(
            f"the forked child sent no result (wait status {status})")
    ok, value = pickle.loads(payload)
    if ok:
        return value
    exc, text = value
    raise exc from _ChildTraceback(text)
