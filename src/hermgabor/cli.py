"""Command-line surface: reproducible runs of every pipeline in the package.

Configuration comes from an optional JSON file (``--config``) whose fields
are named exactly like the flags; explicit flags always override the file.
Relative output paths are resolved against the OUTPUT_DIR environment
variable when it is set. Output files are written atomically (temp file in
the destination directory, then rename).

Exit codes: 0 success, 2 precondition / usage errors, 3 budget or
convergence failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .errors import (BudgetError, CapacityError, ConvergenceError, GaborError,
                     PreconditionError)
from .frameop import (DEFAULT_GALERKIN_DIM, GaborSystemSpec, bounds_to_json,
                      frame_bounds, gl_predicate)
from .hermite import dilated_hermite
from .lattice import (DEFAULT_POINT_BUDGET, LatticeMatrix, box_norm,
                      enumeration_box)
from .certify import certificate, certificate_to_json, certification_window
from .scan import (DEFAULT_SCAN_GALERKIN_DIM, dilation_covariance_check,
                   records_to_csv, tightness_scan)
from .timefreq import Region

COMMANDS = ("hermite", "norm", "bounds", "certify", "scan", "glgrid",
            "covariance")

# every tunable a run can carry; config files may set any of these and
# explicit flags win field by field
CONFIG_FIELDS = ("command", "d", "n", "x", "matrix", "K", "truncation_radius",
                 "dilation", "region_half", "region_step", "t_list", "det_max",
                 "steps", "b", "budget", "output", "format", "seed")


def _parse_matrix(text):
    if isinstance(text, str):
        return LatticeMatrix.parse(text)
    return LatticeMatrix.from_array(text)


def _parse_floats(text):
    if isinstance(text, str):
        return [float(p) for p in text.split(",")]
    return [float(p) for p in text]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermgabor",
        description="Frame-bound estimation, oscillation certificates and "
                    "tightness scans for Hermite Gabor systems on lattices.")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--output", help="output file (JSON or CSV)")
        p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed for harness use (core math is "
                            "deterministic); default 0")
        p.add_argument("--validate-only", action="store_true",
                       help="list capacity/Nyquist/budget diagnostics "
                            "without running")

    p = sub.add_parser("hermite", help="evaluate a Hermite function")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--x", default=None, help="comma-separated abscissae")
    p.add_argument("--dilation", type=float, default=None)
    common(p)

    p = sub.add_parser("norm", help="box norm of a lattice matrix")
    p.add_argument("--matrix", default=None, help='row-major "a,b,c,d"')
    common(p)

    p = sub.add_parser("bounds", help="Galerkin frame-bound estimates")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--truncation-radius", dest="truncation_radius",
                   type=float, default=None)
    p.add_argument("--dilation", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    common(p)

    p = sub.add_parser("certify", help="oscillation frame certificate")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--region-half", dest="region_half", type=float, default=None)
    p.add_argument("--region-step", dest="region_step", type=float, default=None)
    common(p)

    p = sub.add_parser("scan", help="tightness scan over a scaling ladder")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--matrix", default=None, help="base matrix M0")
    p.add_argument("--t-list", dest="t_list", default=None,
                   help="descending comma-separated scales")
    p.add_argument("--K", type=int, default=None)
    common(p)

    p = sub.add_parser("glgrid",
                       help="determinant ladder for the |det| < 1/(d+1) "
                            "frame criterion")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--det-max", dest="det_max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    common(p)

    p = sub.add_parser("covariance",
                       help="dilation-covariance deviation of the bounds")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--K", type=int, default=None)
    common(p)

    return parser


def merge_config(args: argparse.Namespace) -> dict:
    """File values first, then any flag the user actually set."""
    cfg = {}
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise PreconditionError("config file must hold a single JSON object")
        unknown = set(loaded) - set(CONFIG_FIELDS)
        if unknown:
            raise PreconditionError(
                f"unknown config fields: {sorted(unknown)}")
        cfg.update(loaded)
    for key in CONFIG_FIELDS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    cfg.setdefault("seed", 0)
    return cfg


def validate(cfg: dict) -> list:
    """Capacity, Nyquist-guard and budget diagnostics; empty means runnable."""
    diags = []
    cmd = cfg.get("command")
    if cmd not in COMMANDS:
        diags.append(f"unknown command {cmd!r}")
        return diags
    d = cfg.get("d", 0)
    if not isinstance(d, int) or d < 0:
        diags.append("d must be a nonnegative integer")
        d = 0
    for key in ("truncation_radius", "dilation", "region_half", "region_step",
                "det_max", "b"):
        if key in cfg and not (isinstance(cfg[key], (int, float))
                               and cfg[key] > 0):
            diags.append(f"{key} must be positive")
    K = cfg.get("K")
    if K is not None and (not isinstance(K, int) or K <= d):
        diags.append("K must be an integer exceeding the largest window index")
    if "matrix" in cfg:
        try:
            M = _parse_matrix(cfg["matrix"])
        except ValueError as exc:
            diags.append(f"matrix: {exc}")
            M = None
    else:
        M = None
    if cmd in ("norm", "bounds", "certify", "covariance") and M is None:
        diags.append(f"{cmd} requires --matrix")
    if cmd == "hermite":
        n = cfg.get("n")
        if n is None or not isinstance(n, int) or n < 0:
            diags.append("hermite requires a nonnegative integer --n")
    if cmd == "scan":
        ts = cfg.get("t_list")
        if ts is not None:
            try:
                vals = _parse_floats(ts)
                if any(v <= 0 for v in vals) or \
                        any(a <= b for a, b in zip(vals, vals[1:])):
                    diags.append("t_list must be positive and descending")
            except ValueError:
                diags.append("t_list must be comma-separated floats")
    if not diags and (cmd == "bounds" or (cmd in ("scan", "covariance")
                                          and K is not None)):
        # the spec decides the grid (Nyquist guard) and the enumeration box
        try:
            spec = _spec(cfg, M if M is not None else LatticeMatrix(1, 0, 0, 1))
            spec.grid()
            if cmd == "bounds":
                enumeration_box(spec.matrix, spec.radius, spec.point_budget)
        except BudgetError as exc:
            diags.append(f"budget: {exc}")
        except (CapacityError, ValueError) as exc:
            diags.append(str(exc))
    return diags


def resolve_output(path: str) -> str:
    base = os.environ.get("OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def atomic_write(path: str, text: str) -> None:
    path = resolve_output(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: dict, text: str, summary: str) -> None:
    out = cfg.get("output")
    if out:
        atomic_write(out, text)
        print(summary + f" -> {resolve_output(out)}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# ---------------------------------------------------------------------------
# command bodies


def _run_hermite(cfg: dict) -> None:
    n = int(cfg["n"])
    xs = np.array(_parse_floats(cfg.get("x", "0")))
    a = float(cfg.get("dilation", 1.0))
    vals = dilated_hermite(n, a, xs)
    vals = np.atleast_1d(vals)
    if cfg.get("format") == "csv" or (cfg.get("output") and
                                      cfg.get("format") != "json"):
        lines = ["x,h"] + [f"{x:.17g},{v:.17g}" for x, v in zip(xs, vals)]
        _emit(cfg, "\n".join(lines) + "\n", f"h_{n} at {xs.size} points")
    else:
        text = json.dumps({"n": n, "dilation": a, "x": list(map(float, xs)),
                           "h": [float(v) for v in vals]}, indent=2)
        _emit(cfg, text, f"h_{n} at {xs.size} points")


def _run_norm(cfg: dict) -> None:
    M = _parse_matrix(cfg["matrix"])
    print(f"{box_norm(M):.16g}")


def _spec(cfg: dict, M: LatticeMatrix) -> GaborSystemSpec:
    return GaborSystemSpec(
        window_degree=int(cfg.get("d", 0)), matrix=M,
        truncation_radius=cfg.get("truncation_radius"),
        galerkin_dim=int(cfg.get("K", DEFAULT_GALERKIN_DIM)),
        window_dilation=float(cfg.get("dilation", 1.0)),
        point_budget=int(cfg.get("budget", DEFAULT_POINT_BUDGET)))


def _run_bounds(cfg: dict) -> None:
    spec = _spec(cfg, _parse_matrix(cfg["matrix"]))
    fb = frame_bounds(spec)
    text = bounds_to_json(spec, fb)
    ratio = fb.B_est / fb.A_est if fb.A_est > 0 else math.inf
    _emit(cfg, text,
          f"A_est={fb.A_est:.6g} B_est={fb.B_est:.6g} ratio={ratio:.6g}")


def _run_certify(cfg: dict) -> None:
    M = _parse_matrix(cfg["matrix"])
    d = int(cfg.get("d", 0))
    region = None
    if cfg.get("region_half") or cfg.get("region_step"):
        half = float(cfg.get("region_half", math.sqrt(2 * d + 1) + 8.0))
        step = float(cfg.get("region_step", 1.0 / 16.0))
        n = int(math.ceil(half / step))
        half = n * step
        region = Region(x_half=half, xi_half=half, x_step=step, xi_step=step)
    w = certification_window(d, region)
    cert = certificate(w, M, region)
    text = certificate_to_json(cert)
    word = "valid" if cert.valid else "invalid"
    _emit(cfg, text, f"certificate {word}: R={cert.ratio:.6g} "
                     f"A_cert={cert.A_cert:.6g} B_cert={cert.B_cert:.6g}")


def _run_scan(cfg: dict) -> None:
    M0 = _parse_matrix(cfg.get("matrix", "1,0,0,1"))
    ts = _parse_floats(cfg["t_list"]) if cfg.get("t_list") else None
    records = tightness_scan(M0, int(cfg.get("d", 0)), ts,
                             galerkin_dim=int(cfg.get("K",
                                                      DEFAULT_SCAN_GALERKIN_DIM)))
    text = records_to_csv(records)
    _emit(cfg, text, f"scan: {len(records)} rows")


def _run_glgrid(cfg: dict) -> None:
    d = int(cfg.get("d", 0))
    det_max = float(cfg.get("det_max", 1.2))
    steps = int(cfg.get("steps", 24))
    if steps < 1:
        raise PreconditionError("steps must be at least 1")
    lines = ["det,threshold,is_frame_predicate"]
    thr = 1.0 / (d + 1)
    for k in range(1, steps + 1):
        det = det_max * k / steps
        M = LatticeMatrix(math.sqrt(det), 0.0, 0.0, math.sqrt(det))
        lines.append(f"{det:.17g},{thr:.17g},"
                     f"{str(gl_predicate(M, d)).lower()}")
    _emit(cfg, "\n".join(lines) + "\n",
          f"glgrid: {steps} rows, threshold {thr:.6g}")


def _run_covariance(cfg: dict) -> None:
    M = _parse_matrix(cfg["matrix"])
    dev = dilation_covariance_check(
        int(cfg.get("d", 0)), M, float(cfg.get("b", 2.0)),
        galerkin_dim=int(cfg.get("K", DEFAULT_SCAN_GALERKIN_DIM)))
    text = json.dumps({"max_relative_deviation": dev}, indent=2)
    _emit(cfg, text, f"covariance deviation {dev:.3g}")


_RUNNERS = {
    "hermite": _run_hermite,
    "norm": _run_norm,
    "bounds": _run_bounds,
    "certify": _run_certify,
    "scan": _run_scan,
    "glgrid": _run_glgrid,
    "covariance": _run_covariance,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = merge_config(args)
        diags = validate(cfg)
        if getattr(args, "validate_only", False):
            if diags:
                for d in diags:
                    print(d)
                return 2
            print("ok")
            return 0
        if diags:
            for d in diags:
                print(f"error: {d}", file=sys.stderr)
            return 3 if all(d.startswith("budget") for d in diags) else 2
        np.random.seed(int(cfg.get("seed", 0)))
        _RUNNERS[cfg["command"]](cfg)
        return 0
    except (BudgetError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, GaborError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
