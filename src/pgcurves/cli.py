"""Command-line interface: analyze, classify, synthesize, verify, plot-data.

Exit codes: 0 success, 1 input or I/O error, 2 admissibility violation
(analysis reports are still written), 3 verification failure.  Reports are
deterministic: fixed arguments (including the seed) produce byte-identical
JSON output.  Each flag is declared once, in build_parser, and each
subcommand's handler reads the parsed Namespace.
"""

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

from . import verify as verify_mod
from .classify import (
    DegenerateFit,
    classify_rectifying,
    fit_constant_invariant,
    frame_components_arrays,
)
from .dsl import DomainError, LexError, ParseError
from .fileio import (
    frenet_table,
    load_curve,
    write_json,
    write_series,
    write_trajectory_csv,
)
from .frenet import (
    DEFAULT_TOL_ADM,
    AdmissibilityReport,
    NotAdmissible,
    check_admissible,
    frenet_grid,
)
from .space import PGVector3
from .synth import InvalidProfile, profile as make_profile
from .synth import integrate_frenet, synth_rectifying

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ADMISSIBILITY = 2
EXIT_VERIFICATION = 3


def _parse_origin(text: str) -> PGVector3:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("origin must be three comma-separated numbers x,y,z")
    return PGVector3(*(float(p) for p in parts))


def _parse_tol_entry(entry: str) -> tuple[str, float]:
    name, _, value = entry.partition("=")
    if not value:
        raise ValueError(f"expected --tol name=value, got {entry!r}")
    return name, float(value)


# built once per process: parse_args leaves the parser unchanged and gives
# every call a fresh Namespace, so --tol lists never carry over
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgcurves",
        description="Frenet analysis, classification and synthesis of "
                    "admissible curves in pseudo-Galilean 3-space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def add_common(p, origin=False):
        p.add_argument("--tol-adm", type=float, default=DEFAULT_TOL_ADM,
                       help="admissibility tolerance on y''^2 - z''^2")
        if origin:
            p.add_argument("--origin", type=str, default="0,0,0",
                           help="decomposition origin as x,y,z")

    p = command("analyze", cmd_analyze, "Frenet apparatus over the curve grid")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path,
                   help="output base path; writes <base>.csv and <base>.json")
    p.add_argument("--s-min", type=float, default=None)
    p.add_argument("--s-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    add_common(p)

    p = command("classify", cmd_classify,
                "rectifying / neither verdict, and whether the constant-invariant "
                "family fits")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--tol-classify", type=float, default=None,
                   help="default: 1e-6 exact path, 1e-4 sampled path")
    add_common(p, origin=True)

    p = command("synthesize", cmd_synthesize, "integrate a curve from invariants")
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--kappa", type=str, required=True,
                   help="curvature profile expression in s (must be positive)")
    p.add_argument("--tau", type=str, default=None,
                   help="torsion profile expression (profile mode)")
    p.add_argument("--m1", type=float, default=None,
                   help="rectifying mode: tangential offset")
    p.add_argument("--n1", type=float, default=None,
                   help="rectifying mode: constant binormal component")
    p.add_argument("--s-min", type=float, default=0.0)
    p.add_argument("--s-max", type=float, default=2.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--frames", action="store_true",
                   help="append frame columns to the CSV")

    p = command("verify", cmd_verify, "run the full oracle suite")
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override the tolerance of the named check (repeatable)")

    p = command("plot-data", cmd_plot_data, "emit two-column series for plotting")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path,
                   help="output directory for the .dat series files")
    p.add_argument("--samples", type=int, default=None)
    add_common(p, origin=True)

    return parser


def _load_curve_with_overrides(args: argparse.Namespace):
    """The --input curve with any --s-min, --s-max and --samples applied."""
    curve = load_curve(args.input)
    changes = {name: value for name in ("s_min", "s_max", "samples")
               if (value := getattr(args, name, None)) is not None}
    if changes:
        curve = dataclasses.replace(curve, **changes)
    return curve


def _output_base(path: Path) -> Path:
    return Path(re.sub(r"\.(json|csv)$", "", str(path)))


def _admissibility_payload(report: AdmissibilityReport) -> dict:
    """The "admissibility" block of the analyze and classify reports."""
    return {
        "admissible": report.admissible,
        "violations": [list(v) for v in report.violations],
        "segments": [list(seg) for seg in report.segments],
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    curve = _load_curve_with_overrides(args)
    grid = frenet_grid(curve, tol_adm=args.tol_adm, strict=False)
    report_adm = check_admissible(grid)

    base = _output_base(args.output)
    base.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1,
        "command": "analyze",
        "input": str(args.input),
        "grid": {"s_min": curve.s_min, "s_max": curve.s_max,
                 "samples": int(curve.samples)},
        "exact_path": curve.exact,
        "tolerances": {"tol_adm": args.tol_adm},
        "admissibility": _admissibility_payload(report_adm),
        # written with the CSV, a block of rows at a time, from one
        # formatting of each value
        "rows": frenet_table(grid, csv=base.with_suffix(".csv")),
    }
    write_json(base.with_suffix(".json"), payload)
    return EXIT_OK if report_adm.admissible else EXIT_ADMISSIBILITY


def cmd_classify(args: argparse.Namespace) -> int:
    origin = _parse_origin(args.origin)
    curve = _load_curve_with_overrides(args)
    args.output.parent.mkdir(parents=True, exist_ok=True)

    grid = frenet_grid(curve, tol_adm=args.tol_adm, strict=False)
    report_adm = check_admissible(grid)
    payload = {
        "schema": 2,
        "command": "classify",
        "input": str(args.input),
        "origin": [origin.x, origin.y, origin.z],
        "admissibility": _admissibility_payload(report_adm),
    }
    if not report_adm.admissible:
        payload.update({"verdict": None, "parameters": None, "residuals": None,
                        "constant_invariant": None,
                        "tolerances": {"tol_adm": args.tol_adm}})
        write_json(args.output, payload)
        return EXIT_ADMISSIBILITY

    dec = frame_components_arrays(grid, origin)
    verdict = classify_rectifying(dec, tol=args.tol_classify)
    fit = fit_constant_invariant(dec, verdict)

    payload.update({
        "verdict": "rectifying" if verdict.is_rectifying else "neither",
        "parameters": {
            "m1": verdict.m1,
            "n1": verdict.n1,
            "a": verdict.a,
            "b": verdict.b_coef,
            "kappa": fit.kappa,
            "tau": fit.tau,
        },
        "residuals": {
            "beta_max": verdict.beta_max,
            "ratio_residual": verdict.ratio_residual,
            "rho_check": verdict.rho_check,
            "gamma_spread": verdict.gamma_spread,
        },
        "constant_invariant": {
            "holds": fit.holds,
            "c_plus": fit.c_plus,
            "c_minus": fit.c_minus,
            "residual": fit.residual,
            "error": fit.error,
        },
        "tolerances": {"tol_adm": args.tol_adm, "tol_classify": verdict.tol},
    })
    write_json(args.output, payload)
    return EXIT_OK


def cmd_synthesize(args: argparse.Namespace) -> int:
    rectifying_mode = args.m1 is not None or args.n1 is not None
    if rectifying_mode:
        if args.m1 is None or args.n1 is None:
            raise ValueError("rectifying mode needs both --m1 and --n1")
        if args.n1 == 0.0:
            raise ValueError("--n1 must be nonzero")
        traj = synth_rectifying(args.m1, args.n1, args.kappa,
                                (args.s_min, args.s_max), step=args.step)
    else:
        if args.tau is None:
            raise ValueError("profile mode needs --tau (or use --m1/--n1)")
        traj = integrate_frenet(
            make_profile(args.kappa, args.tau, args.s_min, args.s_max),
            step=args.step)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(args.output, traj, frames=args.frames)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    overrides = dict(_parse_tol_entry(entry) for entry in args.tol or ())
    report = verify_mod.run_all(seed=args.seed, overrides=overrides)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    write_json(args.output, report)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def cmd_plot_data(args: argparse.Namespace) -> int:
    origin = _parse_origin(args.origin)
    curve = _load_curve_with_overrides(args)
    grid = frenet_grid(curve, tol_adm=args.tol_adm, strict=True)
    dec = frame_components_arrays(grid, origin)

    out_dir = args.output
    out_dir.mkdir(parents=True, exist_ok=True)
    # in lockstep, a block of rows at a time, each block of s formatted once
    write_series(out_dir / "kappa.dat", grid.s, grid.kappa,
                 (out_dir / "tau.dat", grid.tau),
                 (out_dir / "tau_over_kappa.dat", grid.tau / grid.kappa),
                 (out_dir / "beta.dat", dec.beta))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in ("tol_adm", "tol_classify"):
            value = getattr(args, name, None)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"tolerance {name} must be finite and positive, got {value}")
        if getattr(args, "samples", None) is not None and args.samples < 2:
            raise ValueError("samples must be at least 2")
        return args.handler(args)
    except (NotAdmissible, InvalidProfile) as err:
        print(f"pgcurves: admissibility error: {err}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except (LexError, ParseError, DomainError, DegenerateFit, ValueError,
            KeyError, OSError, json.JSONDecodeError) as err:
        print(f"pgcurves: input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as err:
        # a window, step or --samples whose arrays cannot be allocated
        print(f"pgcurves: input error: {err or 'out of memory'}: the input is too large",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
