import math

import pytest

from hermgabor import (LatticeMatrix, PreconditionError, ScanRecord,
                       SqrtLawRow, box_norm, dilation_covariance_check,
                       estimate_cstar, frame_bounds, records_to_csv,
                       sqrt_law_probe, tightness_scan)
from hermgabor.scan import SCAN_CSV_HEADER, covariance_pair, default_t_ladder


def planted_record(t, C, d=0):
    """Record whose A_est follows the predicted shape exactly: inverting it
    must recover C."""
    M = LatticeMatrix(t, 0, 0, t)
    r = box_norm(M)
    det = t * t
    A = (1 - r / C) ** 2 / det
    B = (1 + r / C) ** 2 / det
    return ScanRecord(d=d, t=t, box_norm=r, det=det, A_est=A, B_est=B,
                      converged=True)


def test_estimator_recovers_planted_constant():
    C = 0.3
    records = [planted_record(t, C) for t in (0.2, 0.15, 0.1, 0.05)]
    assert estimate_cstar(records) == pytest.approx(C, abs=1e-9)
    # the record derives both from what it measured
    rec = records[0]
    assert rec.C_emp == rec.box_norm / (1 - math.sqrt(rec.A_est * rec.det))
    assert rec.tightness == rec.B_est / rec.A_est


def test_estimator_superset_monotone():
    records = [planted_record(t, 0.3) for t in (0.2, 0.1, 0.05)]
    base = estimate_cstar(records)
    extra = records + [planted_record(0.25, 0.25)]
    assert estimate_cstar(extra) <= base + 1e-12


def test_estimator_needs_three_usable():
    records = [planted_record(t, 0.3) for t in (0.2, 0.1)]
    with pytest.raises(PreconditionError):
        estimate_cstar(records)


def test_estimator_rejects_mixed_degrees():
    records = [planted_record(0.2, 0.3, d=0), planted_record(0.1, 0.3, d=1),
               planted_record(0.05, 0.3, d=0)]
    with pytest.raises(ValueError):
        estimate_cstar(records)


def test_default_ladder_descending():
    ts = default_t_ladder()
    assert ts[0] == 0.5 and len(ts) == 7
    assert all(a > b for a, b in zip(ts, ts[1:]))


def test_tightness_scan_validation():
    M = LatticeMatrix(1, 0, 0, 1)
    with pytest.raises(ValueError):
        tightness_scan(M, 0, [0.1, 0.2])  # ascending
    with pytest.raises(ValueError):
        tightness_scan(M, 0, [0.2, -0.1])


def test_tightness_scan_smoke():
    records = tightness_scan(LatticeMatrix(1, 0, 0, 1), 0, [0.4, 0.25],
                             galerkin_dim=16)
    assert [r.t for r in records] == [0.4, 0.25]
    assert records[1].tightness < records[0].tightness
    assert all(r.det == pytest.approx(r.t ** 2) for r in records)


def test_csv_schema_and_determinism():
    records = [planted_record(t, 0.3) for t in (0.2, 0.1, 0.05)]
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 4
    assert text == records_to_csv(records)
    assert lines[1].endswith(",true")


def test_unusable_record_is_nan():
    # A_est * det >= 1 cannot be inverted
    rec = ScanRecord(d=0, t=0.1, box_norm=0.07, det=0.01, A_est=150.0,
                     B_est=200.0, converged=True)
    assert math.isnan(rec.C_emp) and not rec.usable
    assert rec.tightness == 200.0 / 150.0
    # a negative determinant inverts like its absolute value
    flipped = ScanRecord(d=0, t=0.1, box_norm=0.07, det=-0.01, A_est=50.0,
                         B_est=200.0, converged=True)
    assert flipped.C_emp == pytest.approx(0.07 / (1 - math.sqrt(0.5)), rel=1e-14)
    assert ScanRecord(d=0, t=0.1, box_norm=0.07, det=0.01, A_est=0.0,
                      B_est=1.0, converged=False).tightness == math.inf


def test_sqrt_law_probe_flags_thin_input():
    rows = sqrt_law_probe([0], t_list=[0.5, 0.45], galerkin_dim=16)
    assert rows[0].flagged  # only 2 records, estimator needs 3
    assert math.isnan(rows[0].c_emp) and math.isnan(rows[0].scaled)
    row = SqrtLawRow(d=4, c_emp=0.25)
    assert not row.flagged and row.scaled == 0.25 * 3.0
    with pytest.raises(ValueError):
        sqrt_law_probe([])


def test_dilation_covariance_trivial_and_validation():
    M = LatticeMatrix(0.5, 0, 0, 0.5)
    assert dilation_covariance_check(0, M, 1.0) == 0.0
    with pytest.raises(ValueError):
        dilation_covariance_check(0, M, -2.0)


def test_dilation_covariance_small():
    M = LatticeMatrix(0.4, 0, 0, 0.4)
    assert dilation_covariance_check(0, M, 2.0, galerkin_dim=16) < 1e-6


@pytest.mark.parametrize("M", [LatticeMatrix(0.45, 0.1, -0.05, 0.4),
                               LatticeMatrix(0.6, 0, 0, 0.6),
                               LatticeMatrix(0.2, 0.05, 0, 0.25)])
@pytest.mark.parametrize("b", [1 / 3, 1 / 2, 2.0, 3.0])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_dilation_covariance_to_rounding(d, b, M):
    # diag(b, 1/b) and the dilation b^2 cancel in the window's coordinates
    # alpha = (mu1/sqrt(a), 2 pi sqrt(a) mu2), so both systems sum the same
    # terms over the same truncation ellipse
    fb1, fb2 = (frame_bounds(spec, check_convergence=False)
                for spec in covariance_pair(d, M, b, galerkin_dim=32))
    for est1, est2 in ((fb1.A_est, fb2.A_est), (fb1.B_est, fb2.B_est)):
        assert abs(est1 - est2) <= 1e-13 * fb1.B_est
