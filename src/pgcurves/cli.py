"""Command-line interface: analyze, classify, synthesize, verify, plot-data.

Exit codes: 0 success, 1 input or I/O error, 2 admissibility violation
(analysis reports are still written), 3 verification failure.  Reports are
deterministic: a fixed RunConfig (including the seed) produces byte-identical
JSON output.
"""

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import verify as verify_mod
from .classify import (
    DegenerateFit,
    NonConstantInvariants,
    ZeroTorsion,
    frame_components_arrays,
    classify_rectifying,
    fit_normal_components,
)
from .dsl import DomainError, LexError, ParseError
from .fileio import (
    FloatColumn,
    load_curve,
    write_frenet_csv,
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
from .synth import BadInitialFrame, InvalidProfile, profile as make_profile
from .synth import integrate_frenet, synth_rectifying

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ADMISSIBILITY = 2
EXIT_VERIFICATION = 3


@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommand handlers."""

    command: str
    input: Path | None = None
    output: Path | None = None
    origin: PGVector3 = PGVector3(0.0, 0.0, 0.0)
    tolerances: dict = field(default_factory=dict)
    s_min: float | None = None
    s_max: float | None = None
    samples: int | None = None
    step: float = 1e-3
    seed: int = 0
    m1: float | None = None
    n1: float | None = None
    kappa: str | None = None
    tau: str | None = None
    frames: bool = False

    def __post_init__(self):
        for name, value in self.tolerances.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"tolerance {name} must be finite and positive, got {value}")
        if self.samples is not None and self.samples < 2:
            raise ValueError("samples must be at least 2")


def _parse_origin(text: str) -> PGVector3:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("origin must be three comma-separated numbers x,y,z")
    return PGVector3(*(float(p) for p in parts))


def _parse_tol_overrides(entries) -> dict:
    overrides = {}
    for entry in entries or ():
        name, _, value = entry.partition("=")
        if not value:
            raise ValueError(f"expected --tol name=value, got {entry!r}")
        overrides[name] = float(value)
    return overrides


# built once per process: parse_args leaves the parser unchanged and gives
# every call a fresh Namespace, so --tol lists never carry over
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgcurves",
        description="Frenet analysis, classification and synthesis of "
                    "admissible curves in pseudo-Galilean 3-space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, origin=False):
        p.add_argument("--tol-adm", type=float, default=DEFAULT_TOL_ADM,
                       help="admissibility tolerance on y''^2 - z''^2")
        if origin:
            p.add_argument("--origin", type=str, default="0,0,0",
                           help="decomposition origin as x,y,z")

    p = sub.add_parser("analyze", help="Frenet apparatus over the curve grid")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path,
                   help="output base path; writes <base>.csv and <base>.json")
    p.add_argument("--s-min", type=float, default=None)
    p.add_argument("--s-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    add_common(p)

    p = sub.add_parser("classify", help="rectifying / normal-fit verdict")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--tol-classify", type=float, default=None,
                   help="default: 1e-6 exact path, 1e-4 sampled path")
    add_common(p, origin=True)

    p = sub.add_parser("synthesize", help="integrate a curve from invariants")
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

    p = sub.add_parser("verify", help="run the full oracle suite")
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a named check tolerance (repeatable)")

    p = sub.add_parser("plot-data", help="emit two-column series for plotting")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path,
                   help="output directory for the .dat series files")
    p.add_argument("--samples", type=int, default=None)
    add_common(p, origin=True)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    tolerances = {}
    if getattr(args, "tol_adm", None) is not None:
        tolerances["tol_adm"] = args.tol_adm
    if getattr(args, "tol_classify", None) is not None:
        tolerances["tol_classify"] = args.tol_classify
    tolerances.update(_parse_tol_overrides(getattr(args, "tol", None)))
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        output=getattr(args, "output", None),
        origin=_parse_origin(getattr(args, "origin", "0,0,0")),
        tolerances=tolerances,
        s_min=getattr(args, "s_min", None),
        s_max=getattr(args, "s_max", None),
        samples=getattr(args, "samples", None),
        step=getattr(args, "step", 1e-3),
        seed=getattr(args, "seed", 0),
        m1=getattr(args, "m1", None),
        n1=getattr(args, "n1", None),
        kappa=getattr(args, "kappa", None),
        tau=getattr(args, "tau", None),
        frames=getattr(args, "frames", False),
    )


def _load_curve_with_overrides(cfg: RunConfig):
    curve = load_curve(cfg.input)
    changes = {}
    if cfg.s_min is not None:
        changes["s_min"] = cfg.s_min
    if cfg.s_max is not None:
        changes["s_max"] = cfg.s_max
    if cfg.samples is not None:
        changes["samples"] = cfg.samples
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


def cmd_analyze(cfg: RunConfig) -> int:
    curve = _load_curve_with_overrides(cfg)
    tol_adm = cfg.tolerances.get("tol_adm", DEFAULT_TOL_ADM)
    grid = frenet_grid(curve, tol_adm=tol_adm, strict=False)
    report_adm = check_admissible(grid)

    base = _output_base(cfg.output)
    base.parent.mkdir(parents=True, exist_ok=True)
    # The JSON rows reuse the strings formatted for the CSV.
    rows = write_frenet_csv(base.with_suffix(".csv"), grid)
    payload = {
        "schema": 1,
        "command": "analyze",
        "input": str(cfg.input),
        "grid": {"s_min": curve.s_min, "s_max": curve.s_max,
                 "samples": int(curve.samples)},
        "exact_path": curve.exact,
        "tolerances": {"tol_adm": tol_adm},
        "admissibility": _admissibility_payload(report_adm),
        "rows": rows,
    }
    write_json(base.with_suffix(".json"), payload)
    return EXIT_OK if report_adm.admissible else EXIT_ADMISSIBILITY


def cmd_classify(cfg: RunConfig) -> int:
    curve = _load_curve_with_overrides(cfg)
    tol_adm = cfg.tolerances.get("tol_adm", DEFAULT_TOL_ADM)
    tol_classify = cfg.tolerances.get("tol_classify")
    cfg.output.parent.mkdir(parents=True, exist_ok=True)

    grid = frenet_grid(curve, tol_adm=tol_adm, strict=False)
    report_adm = check_admissible(grid)
    payload = {
        "schema": 1,
        "command": "classify",
        "input": str(cfg.input),
        "origin": [cfg.origin.x, cfg.origin.y, cfg.origin.z],
        "admissibility": _admissibility_payload(report_adm),
    }
    if not report_adm.admissible:
        payload.update({"verdict": None, "parameters": None, "residuals": None,
                        "tolerances": {"tol_adm": tol_adm}})
        write_json(cfg.output, payload)
        return EXIT_ADMISSIBILITY

    dec = frame_components_arrays(grid, cfg.origin)
    verdict = classify_rectifying(dec, tol=tol_classify)
    normal_fit = None
    normal_fit_error = None
    try:
        normal_fit = fit_normal_components(dec)
    except (NonConstantInvariants, ZeroTorsion) as err:
        normal_fit_error = str(err)

    if verdict.is_rectifying:
        overall = "rectifying"
    elif normal_fit is not None and max(normal_fit.xi_residual,
                                        normal_fit.eta_residual) <= verdict.tol:
        overall = "normal-fit"
    else:
        overall = "neither"

    payload.update({
        "verdict": overall,
        "parameters": {
            "m1": verdict.m1,
            "n1": verdict.n1,
            "a": verdict.a,
            "b": verdict.b_coef,
            "c1": normal_fit.c1 if normal_fit else None,
            "c2": normal_fit.c2 if normal_fit else None,
            "c3": normal_fit.c3 if normal_fit else None,
            "c4": normal_fit.c4 if normal_fit else None,
            "kappa": normal_fit.kappa0 if normal_fit else None,
            "tau": normal_fit.tau0 if normal_fit else None,
        },
        "residuals": {
            "beta_max": verdict.beta_max,
            "ratio_residual": verdict.ratio_residual,
            "rho_check": verdict.rho_check,
            "gamma_spread": verdict.gamma_spread,
            "xi_residual": normal_fit.xi_residual if normal_fit else None,
            "eta_residual": normal_fit.eta_residual if normal_fit else None,
        },
        "normal_fit_error": normal_fit_error,
        "tolerances": {"tol_adm": tol_adm, "tol_classify": verdict.tol},
    })
    write_json(cfg.output, payload)
    return EXIT_OK


def cmd_synthesize(cfg: RunConfig) -> int:
    rectifying_mode = cfg.m1 is not None or cfg.n1 is not None
    if rectifying_mode:
        if cfg.m1 is None or cfg.n1 is None:
            raise ValueError("rectifying mode needs both --m1 and --n1")
        if cfg.n1 == 0.0:
            raise ValueError("--n1 must be nonzero")
        traj = synth_rectifying(cfg.m1, cfg.n1, cfg.kappa,
                                (cfg.s_min, cfg.s_max), step=cfg.step)
    else:
        if cfg.tau is None:
            raise ValueError("profile mode needs --tau (or use --m1/--n1)")
        traj = integrate_frenet(
            make_profile(cfg.kappa, cfg.tau, cfg.s_min, cfg.s_max),
            step=cfg.step)
    cfg.output.parent.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(cfg.output, traj, frames=cfg.frames)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    overrides = {name: value for name, value in cfg.tolerances.items()
                 if name not in ("tol_adm", "tol_classify")}
    report = verify_mod.run_all(seed=cfg.seed, overrides=overrides or None)
    cfg.output.parent.mkdir(parents=True, exist_ok=True)
    write_json(cfg.output, report)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def cmd_plot_data(cfg: RunConfig) -> int:
    curve = _load_curve_with_overrides(cfg)
    tol_adm = cfg.tolerances.get("tol_adm", DEFAULT_TOL_ADM)
    grid = frenet_grid(curve, tol_adm=tol_adm, strict=True)
    dec = frame_components_arrays(grid, cfg.origin)

    out_dir = cfg.output
    out_dir.mkdir(parents=True, exist_ok=True)
    s_column = FloatColumn(grid.s)
    write_series(out_dir / "kappa.dat", s_column, grid.kappa)
    write_series(out_dir / "tau.dat", s_column, grid.tau)
    write_series(out_dir / "tau_over_kappa.dat", s_column, grid.tau / grid.kappa)
    write_series(out_dir / "beta.dat", s_column, dec.beta)
    return EXIT_OK


_HANDLERS = {
    "analyze": cmd_analyze,
    "classify": cmd_classify,
    "synthesize": cmd_synthesize,
    "verify": cmd_verify,
    "plot-data": cmd_plot_data,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _HANDLERS[args.command](cfg)
    except (NotAdmissible, InvalidProfile, BadInitialFrame) as err:
        print(f"pgcurves: admissibility error: {err}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except (LexError, ParseError, DomainError, DegenerateFit, ValueError,
            KeyError, OSError, json.JSONDecodeError) as err:
        print(f"pgcurves: input error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
