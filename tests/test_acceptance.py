"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The lines are echoed in the terminal summary (see conftest.py) so they stay
visible under pytest's output capture. Criterion 4's tightness clause is
expected to fail for a mathematically exact reason (see the FAIL line it
prints) and is marked xfail; everything else must pass.
"""

import math
import time

import numpy as np
import pytest

import _acceptance_report
import hermgabor as hg
from _oracles import (hermite_grid, hermite_operator_residual,
                      sampled_box_norm_oracle, twisted_convolve)
from hermgabor.scan import records_to_csv


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} - {detail}"
    print(line)
    _acceptance_report.RESULTS.append(line)


def test_criterion_01_hermite_orthonormality():
    t0 = time.perf_counter()
    grid = hermite_grid(20)
    table = hg.dilated_hermite_all(20, 1.0, grid.points)
    gram = grid.step * (table @ table.T)
    err = float(np.max(np.abs(gram - np.eye(21))))
    elapsed = time.perf_counter() - t0
    ok = err < 1e-8 and elapsed < 1.0
    report(1, ok, f"orthonormality error {err:.3g} (< 1e-8), {elapsed:.2f}s")
    assert ok


def test_criterion_02_eigenrelation():
    worst = 0.0
    worst_ratio = (math.inf, 0.0)
    for n in range(6):
        r1 = hermite_operator_residual(n, hermite_grid(n, step=1 / 32))
        r2 = hermite_operator_residual(n, hermite_grid(n, step=1 / 64))
        worst = max(worst, r1)
        ratio = r1 / r2
        worst_ratio = (min(worst_ratio[0], ratio), max(worst_ratio[1], ratio))
    ok = worst < 1e-2 and 3.5 < worst_ratio[0] and worst_ratio[1] < 4.5
    report(2, ok, f"max residual {worst:.3g} (< 1e-2), halving ratios in "
                  f"[{worst_ratio[0]:.3f}, {worst_ratio[1]:.3f}] (~4)")
    assert ok


def test_criterion_03_box_norm_oracle():
    id_err = abs(hg.box_norm(hg.LatticeMatrix(1, 0, 0, 1)) - math.sqrt(2) / 2)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        while True:
            a = rng.uniform(-2, 2, size=(2, 2))
            if abs(np.linalg.det(a)) > 0.1:
                break
        M = hg.LatticeMatrix.from_array(a)
        worst = max(worst, abs(hg.box_norm(M) - sampled_box_norm_oracle(a, rng, 10 ** 6)))
    ok = id_err < 1e-12 and worst < 1e-9
    report(3, ok, f"identity error {id_err:.2g} (< 1e-12), worst oracle "
                  f"deviation {worst:.2g} over 100 matrices (< 1e-9)")
    assert ok


def test_criterion_04_frame_bound_anchors():
    t0 = time.perf_counter()
    M = hg.LatticeMatrix(0.25, 0, 0, 0.25)
    fb = hg.frame_bounds(hg.GaborSystemSpec(window_degree=0, matrix=M,
                                            galerkin_dim=64),
                         check_convergence=False)
    anchors_ok = abs(fb.A_est - 16) / 16 < 0.05 and abs(fb.B_est - 16) / 16 < 0.05
    tightness = fb.B_est / fb.A_est

    I = hg.LatticeMatrix(1, 0, 0, 1)
    r64 = hg.frame_bounds(hg.GaborSystemSpec(window_degree=0, matrix=I,
                                             galerkin_dim=64),
                          check_convergence=False)
    r128 = hg.frame_bounds(hg.GaborSystemSpec(window_degree=0, matrix=I,
                                              galerkin_dim=128),
                           check_convergence=False)
    ratio64 = r64.A_est / r64.B_est
    ratio128 = r128.A_est / r128.B_est
    critical_ok = ratio128 < 0.01 and ratio128 < ratio64
    elapsed = time.perf_counter() - t0

    assert anchors_ok, (fb.A_est, fb.B_est)
    assert critical_ok, (ratio64, ratio128)
    assert elapsed < 30.0
    if tightness >= 1.05:
        report(4, False,
               f"A={fb.A_est:.4f}, B={fb.B_est:.4f} within 5% of 16 and "
               f"critical-density ratio {ratio128:.2e} < 0.01 both hold, but "
               f"tightness {tightness:.4f} >= 1.05 at K=64; the exact value "
               f"is (1+2e^-4)/(1-2e^-4) = 1.0760 and the Galerkin bracket "
               f"approaches it from below, so no K=64 run can reach 1.05 "
               f"(unattainable as stated)")
        pytest.xfail("tightness clause exceeds the exact frame-bound ratio "
                     "1.076; see printed analysis")
    report(4, True, f"A={fb.A_est:.4f}, B={fb.B_est:.4f}, tightness "
                    f"{tightness:.4f}, critical ratio {ratio128:.2e}, "
                    f"{elapsed:.1f}s")


def test_criterion_05_tightness_contraction():
    records = hg.tightness_scan(hg.LatticeMatrix(1, 0, 0, 1), 0,
                                [0.5, 0.35, 0.25, 0.18])
    excess = [r.tightness - 1 for r in records]
    positive = all(e > 0 for e in excess)
    decreasing = all(a > b for a, b in zip(excess, excess[1:]))
    contractions = [a / b for a, b in zip(excess, excess[1:])]
    contracting = all(c >= 1.4 for c in contractions)
    ok = positive and decreasing and contracting
    report(5, ok, "tightness-1 = " + ", ".join(f"{e:.3g}" for e in excess)
           + "; contractions " + ", ".join(f"{c:.2f}" for c in contractions)
           + " (all >= 1.4)")
    assert ok


def test_criterion_06_certificate_soundness():
    step = 1 / 32
    ladders = {0: [0.28, 0.2, 0.14, 0.1, 0.07, 0.05],
               1: [0.2, 0.14, 0.1, 0.07, 0.06, 0.05],
               2: [0.2, 0.14, 0.1, 0.08, 0.07, 0.06, 0.05, 0.045]}
    assert sum(len(v) for v in ladders.values()) == 20
    checked = valid_count = 0
    worst_a = worst_b = -math.inf
    for d, ts in ladders.items():
        L = math.ceil((math.sqrt(2 * d + 1) + 8.0) / step) * step
        region = hg.Region(x_half=L, xi_half=L, x_step=step, xi_step=step)
        w = hg.certification_window(d)
        for t in ts:
            M = hg.LatticeMatrix(t, 0, 0, t)
            cert = hg.certificate(w, M, region)
            checked += 1
            if not cert.valid:
                continue
            valid_count += 1
            fb = hg.frame_bounds(
                hg.GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=16),
                check_convergence=False)
            worst_a = max(worst_a, cert.A_cert - fb.A_est)
            worst_b = max(worst_b, fb.B_est - cert.B_cert)
            assert cert.A_cert <= fb.A_est + 1e-6 * cert.B_cert, (d, t)
            assert fb.B_est <= cert.B_cert + 1e-6 * cert.B_cert, (d, t)
    ok = checked == 20 and valid_count >= 5
    report(6, ok, f"{checked} configs, {valid_count} valid certificates, "
                  f"worst A_cert-A_est = {worst_a:.3g}, worst "
                  f"B_est-B_cert = {worst_b:.3g} (both <= tolerance)")
    assert ok


def test_criterion_07_reproducing_identity():
    w = hg.certification_window(0)
    errs = {}
    for step in (1 / 8, 1 / 16):
        n = math.ceil(9.0 / step)
        region = hg.Region(x_half=n * step, xi_half=n * step,
                           x_step=step, xi_step=step)
        F = hg.ambiguity(w, region)
        FF = twisted_convolve(F, F)
        errs[step] = float(np.linalg.norm(FF.values - F.values)
                           / np.linalg.norm(F.values))
    ok = errs[1 / 16] < 1e-2 and errs[1 / 16] < errs[1 / 8]
    report(7, ok, f"||F#F-F||/||F|| = {errs[1/16]:.3g} at step 1/16 "
                  f"(< 1e-2), {errs[1/8]:.3g} at step 1/8 (decreasing)")
    assert ok


def test_criterion_08_dilation_covariance():
    M = hg.LatticeMatrix(0.4, 0, 0, 0.4)
    devs = {b: hg.dilation_covariance_check(0, M, b) for b in (0.5, 2.0)}
    ok = all(v < 1e-6 for v in devs.values())
    report(8, ok, "max relative deviation "
           + ", ".join(f"b={b}: {v:.2e}" for b, v in devs.items())
           + " (< 1e-6)")
    assert ok


def test_criterion_09_aggregate_upper_bound():
    M = hg.LatticeMatrix(0.5, 0, 0, 0.5)
    details = []
    ok = True
    for d in (1, 2):
        spec = hg.GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=32)
        agg = hg.component_bound_aggregate(spec)
        ok &= agg["inequality_slack"] >= 0
        ok &= agg["A_vec"] <= min(agg["per_component_A"]) + 1e-10
        ok &= max(agg["per_component_B"]) <= agg["B_vec"] + 1e-10
        details.append(f"d={d}: slack {agg['inequality_slack']:.3g}")
    report(9, ok, "; ".join(details) + "; component bracketing holds")
    assert ok


def test_criterion_10_sqrt_law_probe():
    t0 = time.perf_counter()
    rows = hg.sqrt_law_probe([0, 1, 2, 3, 4])
    elapsed = time.perf_counter() - t0
    scaled = [r.scaled for r in rows]
    band = max(scaled) / min(scaled)
    ok = (not any(r.flagged for r in rows)) and band <= 3.0 and elapsed < 300
    report(10, ok, "C_emp*sqrt(2d+1) = "
           + ", ".join(f"{v:.3f}" for v in scaled)
           + f"; band ratio {band:.2f} (<= 3), {elapsed:.0f}s (< 300s)")
    assert ok


def test_criterion_11_cancellation_refutation():
    spec = hg.GaborSystemSpec(window_degree=0,
                              matrix=hg.LatticeMatrix(0.5, 0, 0, 0.5),
                              component_indices=(0, 0), galerkin_dim=32)
    verdict = hg.is_frame(spec)
    ok = verdict == "not_frame"
    report(11, ok, f"window (h0,h0) on 0.5*I classified {verdict!r}")
    assert ok


def test_criterion_12_gl_cross_check():
    M = hg.LatticeMatrix(0.7, 0, 0, 0.7)
    pred = hg.gl_predicate(M, 1)
    spec = hg.GaborSystemSpec(window_degree=1, matrix=M,
                              component_indices=(1,), galerkin_dim=96)
    fb = hg.frame_bounds(spec, check_convergence=False)
    ratio = fb.A_est / fb.B_est
    ok = pred and ratio > 1e-3
    report(12, ok, f"gl_predicate true, scalar h1 A/B = {ratio:.3g} (> 1e-3)")
    assert ok


def test_criterion_13_scan_determinism():
    M = hg.LatticeMatrix(1, 0, 0, 1)
    texts = [records_to_csv(hg.tightness_scan(M, 0, [0.5, 0.35],
                                              galerkin_dim=16))
             for _ in range(2)]
    ok = texts[0] == texts[1]
    report(13, ok, "scan CSV bit-identical across two runs")
    assert ok
