"""Command-line surface: reproducible runs of every pipeline in the package.

Configuration comes from an optional JSON file (``--config``) whose fields
are named exactly like the flags and hold values of the flags' types;
explicit flags always override the file. Relative output paths are resolved
against the OUTPUT_DIR environment variable when it is set. Output files are
written atomically (temp file in the destination directory, then rename).

Each command is prepared, then computed: ``prepare`` builds every library
input the run uses, so the library's own checks reject a bad request before
any work, and ``--validate-only`` stops after that step.

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

from .errors import BudgetError, ConvergenceError, GaborError, PreconditionError
from .frameop import (DEFAULT_GALERKIN_DIM, GaborSystemSpec, bounds_to_json,
                      frame_bounds, gl_predicate)
from .hermite import dilated_hermite
from .lattice import DEFAULT_POINT_BUDGET, LatticeMatrix, box_norm
from .certify import (certificate, certificate_to_json, certification_window,
                      check_resolution)
from .scan import (DEFAULT_SCAN_GALERKIN_DIM, covariance_deviation,
                   covariance_pair, records_to_csv, scan_ladder, scan_records)
from .timefreq import REGION_STEP, default_region

# what a run raises for a request it cannot serve
REQUEST_ERRORS = (GaborError, ValueError, OSError)


def _parse_floats(text):
    return [float(p) for p in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermgabor",
        description="Frame-bound estimation, oscillation certificates and "
                    "tightness scans for Hermite Gabor systems on lattices.")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--output", help="output file")
        p.add_argument("--validate-only", action="store_true",
                       help="build every input the run builds and report "
                            "its first error, without running")

    p = sub.add_parser("hermite", help="evaluate a Hermite function")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--x", default=None, help="comma-separated abscissae")
    p.add_argument("--dilation", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv"], default=None)
    common(p)

    p = sub.add_parser("norm", help="box norm of a lattice matrix")
    p.add_argument("--matrix", default=None, help='row-major "a,b,c,d"')
    common(p)

    p = sub.add_parser("bounds", help="Galerkin frame-bound estimates")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--dilation", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    common(p)

    p = sub.add_parser("certify", help="oscillation frame certificate")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--matrix", default=None)
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


def _flags(parser: argparse.ArgumentParser) -> dict:
    """dest -> action of every subcommand flag a config file may set."""
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return {a.dest: a for p in sub.choices.values() for a in p._actions
            if a.dest not in ("help", "config", "validate_only")}


_FLAGS = _flags(build_parser())
CONFIG_FIELDS = ("command",) + tuple(_FLAGS)


def _accepts(action: argparse.Action, val) -> bool:
    """Whether a config value fits its flag: the declared type (str when
    none; an int passes as a float) and the choices."""
    kind = action.type or str
    kinds = (int, float) if kind is float else kind
    return (isinstance(val, kinds) and not isinstance(val, bool)
            and (not action.choices or val in action.choices))


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
        # "command" has no flag: the subcommand given wins
        invalid = [key for key, val in loaded.items()
                   if key in _FLAGS and not _accepts(_FLAGS[key], val)]
        if invalid:
            raise PreconditionError(
                f"config fields with invalid values: {sorted(invalid)}")
        cfg.update(loaded)
    for key in CONFIG_FIELDS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    return cfg


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
# commands: each prepare step builds the run's inputs and returns its compute
# step


def _required(cfg: dict, key: str):
    if key not in cfg:
        raise PreconditionError(
            f"{cfg['command']} requires --{key.replace('_', '-')}")
    return cfg[key]


def _matrix(cfg: dict) -> LatticeMatrix:
    return LatticeMatrix.parse(_required(cfg, "matrix"))


def _prepare_hermite(cfg: dict):
    # evaluating is as cheap as any check of n and the dilation
    n = _required(cfg, "n")
    xs = np.array(_parse_floats(cfg.get("x", "0")))
    if not np.isfinite(xs).all():
        raise PreconditionError("hermite needs finite --x values")
    a = float(cfg.get("dilation", 1.0))
    vals = np.atleast_1d(dilated_hermite(n, a, xs))
    if cfg.get("format") == "csv" or (cfg.get("output") and
                                      cfg.get("format") != "json"):
        lines = ["x,h"] + [f"{x:.17g},{v:.17g}" for x, v in zip(xs, vals)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"n": n, "dilation": a, "x": list(map(float, xs)),
                           "h": [float(v) for v in vals]}, indent=2)
    return lambda: _emit(cfg, text, f"h_{n} at {xs.size} points")


def _prepare_norm(cfg: dict):
    norm = box_norm(_matrix(cfg))
    return lambda: _emit(cfg, f"{norm:.16g}\n", f"box norm {norm:.6g}")


def _prepare_bounds(cfg: dict):
    spec = GaborSystemSpec(
        window_degree=cfg.get("d", 0), matrix=_matrix(cfg),
        galerkin_dim=cfg.get("K", DEFAULT_GALERKIN_DIM),
        window_dilation=cfg.get("dilation", 1.0),
        point_budget=cfg.get("budget", DEFAULT_POINT_BUDGET))

    def run():
        fb = frame_bounds(spec)
        ratio = fb.B_est / fb.A_est if fb.A_est > 0 else math.inf
        _emit(cfg, bounds_to_json(spec, fb),
              f"A_est={fb.A_est:.6g} B_est={fb.B_est:.6g} ratio={ratio:.6g}")
    return run


def _prepare_certify(cfg: dict):
    M = _matrix(cfg)
    d = cfg.get("d", 0)
    region = default_region(d, cfg.get("region_step", REGION_STEP))
    w = certification_window(d, region)
    check_resolution(box_norm(M), region.x_step, region.xi_step)

    def run():
        cert = certificate(w, M, region)
        word = "valid" if cert.valid else "invalid"
        _emit(cfg, certificate_to_json(cert),
              f"certificate {word}: R={cert.ratio:.6g} "
              f"A_cert={cert.A_cert:.6g} B_cert={cert.B_cert:.6g}")
    return run


def _prepare_scan(cfg: dict):
    M0 = LatticeMatrix.parse(cfg.get("matrix", "1,0,0,1"))
    ts = _parse_floats(cfg["t_list"]) if cfg.get("t_list") else None
    ladder = scan_ladder(M0, cfg.get("d", 0), ts,
                         galerkin_dim=cfg.get("K", DEFAULT_SCAN_GALERKIN_DIM))

    def run():
        records = scan_records(ladder)
        _emit(cfg, records_to_csv(records), f"scan: {len(records)} rows")
    return run


def _prepare_glgrid(cfg: dict):
    # the whole ladder is cheap: gl_predicate checks d while building it
    d = cfg.get("d", 0)
    det_max = cfg.get("det_max", 1.2)
    steps = cfg.get("steps", 24)
    if steps < 1 or not det_max > 0:
        raise PreconditionError("glgrid needs --steps >= 1 and --det-max > 0")
    dets = [det_max * k / steps for k in range(1, steps + 1)]
    preds = [gl_predicate(LatticeMatrix(math.sqrt(det), 0.0, 0.0,
                                        math.sqrt(det)), d) for det in dets]
    thr = 1.0 / (d + 1)
    lines = ["det,threshold,is_frame_predicate"] + [
        f"{det:.17g},{thr:.17g},{str(pred).lower()}"
        for det, pred in zip(dets, preds)]
    return lambda: _emit(cfg, "\n".join(lines) + "\n",
                         f"glgrid: {steps} rows, threshold {thr:.6g}")


def _prepare_covariance(cfg: dict):
    pair = covariance_pair(cfg.get("d", 0), _matrix(cfg), cfg.get("b", 2.0),
                           galerkin_dim=cfg.get("K", DEFAULT_SCAN_GALERKIN_DIM))

    def run():
        dev = covariance_deviation(*pair)
        _emit(cfg, json.dumps({"max_relative_deviation": dev}, indent=2),
              f"covariance deviation {dev:.3g}")
    return run


_PREPARE = {
    "hermite": _prepare_hermite,
    "norm": _prepare_norm,
    "bounds": _prepare_bounds,
    "certify": _prepare_certify,
    "scan": _prepare_scan,
    "glgrid": _prepare_glgrid,
    "covariance": _prepare_covariance,
}


def prepare(cfg: dict):
    """Build every library input the command's run uses; returns the
    compute step. Raises what the run would raise for a bad request."""
    return _PREPARE[cfg["command"]](cfg)


def validate(cfg: dict) -> list:
    """[message of the first error preparing the run], or [] when runnable."""
    try:
        prepare(cfg)
    except REQUEST_ERRORS as exc:
        return [str(exc)]
    return []


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = merge_config(args)
        if args.validate_only:
            diags = validate(cfg)
            print(diags[0] if diags else "ok")
            return 2 if diags else 0
        prepare(cfg)()
        return 0
    except REQUEST_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (BudgetError, ConvergenceError)) else 2


if __name__ == "__main__":
    sys.exit(main())
