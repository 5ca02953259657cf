"""Workload pools, seeded request lists, request execution and answer checks.

Every request a run can issue comes from a fixed pool whose reference
answers were recorded from the library (``record.py`` writes
``reference.json``). The run's ``--seed`` only chooses and orders pool
entries, so every generated request has a recorded answer to be checked
against, whatever the seed.

Each pool is stratified into cells; one request list takes one entry from
every cell, so lists drawn under different seeds carry the same mix of
cheap and expensive requests.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import hermgabor as hg

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
POOL_SEED = 2006

# Relative tolerances, fixed before any later change was measured. Sums of
# up to ~4e5 float64 terms, reordered, move a result by at most about
# n * eps ~ 1e-10 of the largest term, so 1e-9 leaves a margin without
# admitting a different discretisation. Galerkin eigenvalues are compared in
# units of B_ref (the scale of the frame matrix).
EIG_TOL = 1e-9
RATIO_TOL = 1e-9
# C_emp = |M| / (1 - sqrt(A_est |det M|)) amplifies an A_est error of
# EIG_TOL * B_est by up to ~1e2 on the usable rungs.
SCALED_TOL = 1e-6
# A_cert and B_cert are closed forms of R; only the last bits may differ.
CLOSED_FORM_TOL = 1e-12

# Each cell fixes t, which sets the request's cost (enumerated points grow
# like 1/t^2); entries of a cell differ in rotation and shear only, so lists
# drawn under different seeds cost about the same.
GALERKIN_DEGREES = (0, 1, 2, 3)
GALERKIN_DIMS = (16, 32)
GALERKIN_T = (0.15, 0.245, 0.4)
GALERKIN_PER_CELL = 8

CERTIFY_DEGREES = (0, 1, 2)
# geometric in [0.045, 0.2]. t below ~0.0442 would put r = |t R S| under
# the 1/32 region step for an unsheared lattice, where the oscillation disc
# is empty (ResolutionError); 0.045 is the smallest t acceptance criterion 6
# uses.
CERTIFY_T = (0.045, 0.0653, 0.0948, 0.1377, 0.2)
CERTIFY_PER_CELL = 12
CERTIFY_STEP = 1.0 / 32.0

SQRT_LAW_DEGREES = (0, 1, 2)
SQRT_LAW_DIM = 32
SQRT_LAW_LADDER = tuple(0.5 * 2.0 ** (-k / 2.0) for k in range(6))
# small perturbations of the paper's square lattice M0 = I
SQRT_LAW_TILT = 0.05
SQRT_LAW_POOL = 16


def lattice(t: float, theta: float, shear: float) -> hg.LatticeMatrix:
    """t * R(theta) * S(shear), S = [[1, shear], [0, 1]]."""
    c, s = math.cos(theta), math.sin(theta)
    return hg.LatticeMatrix(t * c, t * (c * shear - s), t * s, t * (s * shear + c))


def certify_region(d: int) -> hg.Region:
    """The step-1/32 region acceptance criterion 6 uses for degree d."""
    half = math.ceil((math.sqrt(2 * d + 1) + 8.0) / CERTIFY_STEP) * CERTIFY_STEP
    return hg.Region(x_half=half, xi_half=half, x_step=CERTIFY_STEP,
                     xi_step=CERTIFY_STEP)


def build_pools() -> dict:
    """The request pools, each a list of cells, each cell a list of params."""
    rng = random.Random(f"{POOL_SEED}:galerkin")
    galerkin = [[{"d": d, "K": K, "t": t, "theta": rng.uniform(0.0, math.pi),
                  "shear": rng.uniform(-0.5, 0.5)}
                 for _ in range(GALERKIN_PER_CELL)]
                for d in GALERKIN_DEGREES for K in GALERKIN_DIMS
                for t in GALERKIN_T]
    rng = random.Random(f"{POOL_SEED}:certify")
    certify = [[{"d": d, "t": t, "theta": rng.uniform(0.0, math.pi),
                 "shear": rng.uniform(-0.5, 0.5)}
                for _ in range(CERTIFY_PER_CELL)]
               for d in CERTIFY_DEGREES for t in CERTIFY_T]
    # one sqrt_law list scans every degree on one base lattice, so the
    # cells are degrees and the entries of a list share their M0
    rng = random.Random(f"{POOL_SEED}:sqrt_law")
    bases = [{"theta": rng.uniform(-SQRT_LAW_TILT, SQRT_LAW_TILT),
              "shear": rng.uniform(-SQRT_LAW_TILT, SQRT_LAW_TILT)}
             for _ in range(SQRT_LAW_POOL)]
    sqrt_law = [[dict(base, d=d, t=1.0) for base in bases]
                for d in SQRT_LAW_DEGREES]
    return {"galerkin": galerkin, "certify": certify, "sqrt_law": sqrt_law}


# ---------------------------------------------------------------------------
# execution: ``call(span_name, fn, *args)`` runs one library call, through a
# tracer span in a traced run


def direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def execute(workload: str, p: dict, call=direct) -> dict:
    """Run one request through the public API and return its answer."""
    M = lattice(p["t"], p["theta"], p["shear"])
    if workload == "galerkin":
        spec = hg.GaborSystemSpec(window_degree=p["d"], matrix=M,
                                  galerkin_dim=p["K"])
        fb = call("frameop", hg.frame_bounds, spec, check_convergence=True)
        return {"A_est": fb.A_est, "B_est": fb.B_est, "converged": fb.converged}
    if workload == "certify":
        region = certify_region(p["d"])
        cert = call("certify", _certify, p["d"], M, region)
        return {"R": cert.ratio, "valid": cert.valid, "A_cert": cert.A_cert,
                "B_cert": cert.B_cert, "det": abs(M.determinant)}
    if workload == "sqrt_law":
        (row,) = call("scan", hg.sqrt_law_probe, [p["d"]], M, SQRT_LAW_LADDER,
                      galerkin_dim=SQRT_LAW_DIM)
        return {"scaled": row.scaled, "c_emp": row.c_emp, "flagged": row.flagged}
    raise ValueError(f"unknown workload {workload!r}")


def _certify(d, M, region):
    w = hg.certification_window(d, region)
    return hg.certificate(w, M, region)


def _rel_close(value, ref, scale, tol):
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= tol * abs(scale)


def check(workload: str, answer: dict, ref: dict) -> list:
    """Problems with an answer: reference mismatches and broken invariants."""
    bad = []
    if workload == "galerkin":
        A, B = answer["A_est"], answer["B_est"]
        if not 0.0 <= A <= B:
            bad.append(f"0 <= A_est <= B_est violated ({A}, {B})")
        for key in ("A_est", "B_est"):
            if not _rel_close(answer[key], ref[key], ref["B_est"], EIG_TOL):
                bad.append(f"{key} {answer[key]!r} != reference {ref[key]!r}")
        if answer["converged"] != ref["converged"]:
            bad.append(f"converged {answer['converged']} != reference")
    elif workload == "certify":
        R, det = answer["R"], answer["det"]
        if answer["valid"] != (R < 1.0):
            bad.append(f"valid={answer['valid']} but R={R}")
        if answer["valid"] and not _rel_close(
                answer["A_cert"], (1.0 - R) ** 2 / det,
                (1.0 - R) ** 2 / det, CLOSED_FORM_TOL):
            bad.append("A_cert != (1-R)^2/|det M|")
        if not _rel_close(answer["B_cert"], (1.0 + R) ** 2 / det,
                          (1.0 + R) ** 2 / det, CLOSED_FORM_TOL):
            bad.append("B_cert != (1+R)^2/|det M|")
        if not _rel_close(R, ref["R"], ref["R"], RATIO_TOL):
            bad.append(f"R {R!r} != reference {ref['R']!r}")
        if answer["valid"] != ref["valid"]:
            bad.append(f"valid {answer['valid']} != reference")
        for key in ("A_cert", "B_cert"):
            if not _rel_close(answer[key], ref[key], ref["B_cert"], RATIO_TOL):
                bad.append(f"{key} {answer[key]!r} != reference {ref[key]!r}")
    elif workload == "sqrt_law":
        if answer["flagged"] != ref["flagged"]:
            bad.append(f"flagged {answer['flagged']} != reference")
        if not _rel_close(answer["scaled"], ref["scaled"], ref["scaled"],
                          SCALED_TOL):
            bad.append(f"C_emp*sqrt(2d+1) {answer['scaled']!r} != "
                       f"reference {ref['scaled']!r}")
    return bad


# ---------------------------------------------------------------------------
# seeded request lists


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def request_lists(reference: dict, workload: str, seed: int, n_lists: int):
    """``n_lists`` lists of (params, reference answer), one entry per cell.

    Each cell is walked in a seed-shuffled order, so no entry repeats within
    a run until the cell is exhausted; the order of requests inside a list is
    shuffled too. sqrt_law lists keep one base lattice for all degrees.
    """
    rng = random.Random(f"{workload}:{seed}")
    cells = reference["pools"][workload]
    shared = workload == "sqrt_law"
    if shared:
        orders = [rng.sample(range(len(cells[0])), len(cells[0]))] * len(cells)
    else:
        orders = [rng.sample(range(len(cell)), len(cell)) for cell in cells]
    lists = []
    for i in range(n_lists):
        entries = [cell[order[i % len(order)]]
                   for cell, order in zip(cells, orders)]
        if not shared:
            rng.shuffle(entries)
        lists.append([(e["params"], e["answer"]) for e in entries])
    return lists


# ---------------------------------------------------------------------------
# first-call warm-up, small fixed inputs touching every call path


def warm_up(workload: str) -> None:
    if workload == "galerkin":
        hg.frame_bounds(hg.GaborSystemSpec(window_degree=1,
                                           matrix=lattice(0.4, 0.0, 0.0),
                                           galerkin_dim=16))
    elif workload == "certify":
        step = 1.0 / 8.0
        region = hg.Region(x_half=9.0, xi_half=9.0, x_step=step, xi_step=step)
        _certify(0, lattice(0.3, 0.0, 0.0), region)
    elif workload == "sqrt_law":
        hg.sqrt_law_probe([0], lattice(1.0, 0.0, 0.0), [0.5, 0.4, 0.3],
                          galerkin_dim=16)
    else:
        raise ValueError(f"unknown workload {workload!r}")
