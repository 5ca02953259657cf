"""Command-line surface: reproducible runs of every pipeline in the package.

Configuration comes from an optional JSON file (``--config``) whose fields
are named exactly like the flags and hold values of the flags' types;
explicit flags always override the file. Relative output paths are resolved
against the OUTPUT_DIR environment variable when it is set. Output files are
written atomically (temp file in the destination directory, then rename).

Each command is prepared, then computed: ``prepare`` builds every library
input the run uses, so the library's own checks reject a bad request before
any work, and ``--validate-only`` stops after that step.

Exit codes: 0 success, 2 precondition / usage errors, 3 budget,
convergence or out-of-memory failures.
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
                      check_field_work, check_resolution)
from .scan import (DEFAULT_SCAN_GALERKIN_DIM, covariance_deviation,
                   covariance_pair, records_to_csv, scan_ladder, scan_records)
from .timefreq import REGION_STEP, default_region

# what a run raises for a request it cannot serve
REQUEST_ERRORS = (GaborError, ValueError, OSError, MemoryError)


def _message(exc: Exception) -> str:
    return str(exc) or type(exc).__name__   # a bare MemoryError has no message


def _parse_floats(text):
    return [float(p) for p in text.split(",")]


# every flag a config file may set: field -> (type, or the tuple of its
# choices; help). The flag is --field, with "_" written "-".
FLAGS = {
    "n": (int, "Hermite index"),
    "x": (str, "comma-separated abscissae"),
    "dilation": (float, "window dilation a"),
    "format": (("json", "csv"), "output format"),
    "matrix": (str, 'lattice matrix, row-major "a,b,c,d"'),
    "d": (int, "window degree: the window is (h_0, ..., h_d)"),
    "K": (int, "Galerkin test dimension per component"),
    "budget": (int, "point budget of the lattice enumeration box"),
    "region_step": (float, "sampling step of the certificate region"),
    "t_list": (str, "descending comma-separated scales"),
    "det_max": (float, "largest determinant of the ladder"),
    "steps": (int, "number of determinants in the ladder"),
    "b": (float, "dilation b of the transported system"),
    "output": (str, "output file"),
}
CONFIG_FIELDS = ("command",) + tuple(FLAGS)

# command -> (help, its flags besides --output)
COMMANDS = {
    "hermite": ("evaluate a Hermite function", ("n", "x", "dilation", "format")),
    "norm": ("box norm of a lattice matrix", ("matrix",)),
    "bounds": ("Galerkin frame-bound estimates",
               ("d", "matrix", "K", "dilation", "budget")),
    "certify": ("oscillation frame certificate", ("d", "matrix", "region_step")),
    "scan": ("tightness scan over a scaling ladder", ("d", "matrix", "t_list", "K")),
    "glgrid": ("determinant ladder for the |det| < 1/(d+1) frame criterion",
               ("d", "det_max", "steps")),
    "covariance": ("dilation-covariance deviation of the bounds",
                   ("d", "matrix", "b", "K")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermgabor",
        description="Frame-bound estimation, oscillation certificates and "
                    "tightness scans for Hermite Gabor systems on lattices.")
    sub = parser.add_subparsers(dest="command")
    for command, (summary, fields) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for field in fields + ("output",):
            kind, help_text = FLAGS[field]
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument("--" + field.replace("_", "-"), dest=field,
                           help=help_text, **typed)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--validate-only", action="store_true",
                       help="build every input the run builds and report "
                            "its first error, without running")
    return parser


def _accepts(field: str, val) -> bool:
    """Whether a config value fits its flag: one of the choices, or of the
    declared type (an int passes as a float)."""
    kind = FLAGS[field][0]
    if isinstance(kind, tuple):
        return val in kind
    kinds = (int, float) if kind is float else kind
    return isinstance(val, kinds) and not isinstance(val, bool)


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
                   if key in FLAGS and not _accepts(key, val)]
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
    if (n + 1) * xs.size > DEFAULT_POINT_BUDGET:
        raise BudgetError(f"hermite table of {n + 1}x{xs.size} values exceeds "
                          f"point budget {DEFAULT_POINT_BUDGET}")
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
    w = certification_window(d)
    check_resolution(box_norm(M), region.x_step, region.xi_step)
    check_field_work(w, region)

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
    if steps > DEFAULT_POINT_BUDGET:
        raise BudgetError(f"glgrid ladder of {steps} rows exceeds point budget "
                          f"{DEFAULT_POINT_BUDGET}")
    dets = [det_max * k / steps for k in range(1, steps + 1)]
    # diag(2^k, det 2^-k) has covolume det to the last bit (sqrt(det)^2 may
    # round below it), and entries within a factor 2 of each other
    preds = [gl_predicate(LatticeMatrix(h, 0.0, 0.0, det / h), d)
             for det in dets for h in [2.0 ** (math.frexp(det)[1] // 2)]]
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
        return [_message(exc)]
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
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 3 if isinstance(exc, (BudgetError, ConvergenceError, MemoryError)) else 2


if __name__ == "__main__":
    sys.exit(main())
