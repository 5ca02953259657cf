import json
import math

import pytest

from hermgabor import bounds_from_json, certificate_from_json
from hermgabor.cli import CONFIG_FIELDS, main, validate
from hermgabor.scan import SCAN_CSV_HEADER


def strict_loads(text):
    """json.loads that refuses Infinity, -Infinity and NaN, which RFC 8259
    JSON does not have."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def run(capsys, *argv):
    """(exit code, stdout, stderr) of the CLI; every JSON record it prints
    must parse strictly."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    if out.startswith("{"):
        strict_loads(out)
    return code, out, err


def test_norm_prints_box_norm(capsys):
    code, out, _ = run(capsys, "norm", "--matrix", "1,0,0,1")
    assert code == 0
    assert out.strip() == "0.7071067811865476"


def test_norm_output_file(tmp_path, capsys):
    out_file = tmp_path / "norm.txt"
    code, out, _ = run(capsys, "norm", "--matrix", "1,0,0,1",
                       "--output", str(out_file))
    assert code == 0
    assert out_file.read_text() == "0.7071067811865476\n"
    assert out == f"box norm 0.707107 -> {out_file}\n"


def test_norm_bad_matrix_exits_2(capsys):
    code, _, err = run(capsys, "norm", "--matrix", "1,2,3")
    assert code == 2 and err


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_hermite_json(capsys):
    code, out, _ = run(capsys, "hermite", "--n", "0", "--x", "0,1")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 0 and len(rec["h"]) == 2
    assert rec["h"][0] == pytest.approx(3.141592653589793 ** -0.25)


def test_hermite_where_the_gaussian_underflows(capsys):
    # exp(-40^2/2) is 0 in float64; h_1000(40) is not (mpmath: 0.172250520733)
    code, out, _ = run(capsys, "hermite", "--n", "1000", "--x", "40")
    assert code == 0
    assert json.loads(out)["h"][0] == pytest.approx(0.172250520733, abs=1e-9)


def test_bounds_json_file(tmp_path, capsys):
    out_file = tmp_path / "bounds.json"
    code, out, _ = run(capsys, "bounds", "--d", "0", "--matrix",
                       "0.5,0,0,0.5", "--K", "16", "--output", str(out_file))
    assert code == 0 and out.count("A_est=") == 1
    strict_loads(out_file.read_text())
    fb = bounds_from_json(out_file.read_text())
    assert 0 < fb.A_est <= fb.B_est
    assert fb.galerkin_dim == 16


def test_bounds_budget_exit_3(tmp_path, capsys):
    # 1,100,0,1 generates Z^2: its exact box is 537x7, and its bounds are
    # those of the identity basis
    bounds = []
    for matrix in ("1,100,0,1", "1,0,0,1"):
        code, out, _ = run(capsys, "bounds", "--d", "0", "--matrix", matrix,
                           "--K", "16")
        assert code == 0
        bounds.append(bounds_from_json(out))
    sheared, square = bounds
    assert sheared.A_est == pytest.approx(square.A_est, rel=1e-9)
    assert sheared.B_est == pytest.approx(square.B_est, rel=1e-9)
    # a sparse lattice is summed directly, over a 3x5329961 box
    code, _, err = run(capsys, "bounds", "--d", "0", "--matrix",
                       "1000000,0,0,0.000001", "--K", "16")
    assert code == 3
    assert "budget" in err


def test_bounds_dense_lattice(capsys):
    # summed over its adjoint lattice, a 3x3 box; A = B = 1/|det M|
    argv = ("bounds", "--d", "0", "--matrix", "0.001,0,0,0.001", "--K", "16")
    code, out, _ = run(capsys, *argv, "--validate-only")
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    fb = bounds_from_json(out)
    assert fb.A_est == pytest.approx(1e6, rel=1e-6)
    assert fb.B_est == pytest.approx(1e6, rel=1e-6)


def test_bounds_grid_stops_growing_with_the_dilation(monkeypatch, capsys):
    # D_a carries the system on M0 to the one on diag(sqrt a, 1/sqrt a) M0,
    # with the same bounds; the assembly reads the dilation as that change
    # of lattice, so every request, below dilation 1 and above it, builds
    # its test basis on the nodes of the grid at dilation 1
    from hermgabor import GaborSystemSpec, LatticeMatrix, frameop

    m11, m12, m21, m22 = 0.45, 0.1, -0.05, 0.4
    dilations = (1.0, 1e-12, 1e-4, 0.033, 1e4, 1e8, 1e12)
    matrices = [LatticeMatrix(r * m11, r * m12, m21 / r, m22 / r)
                for r in map(math.sqrt, dilations)]
    # sized before any request runs: a grid growing like sqrt(a) would
    # take gigabytes at a = 1e12, and one of a step shrinking like sqrt(a)
    # as much at a = 1e-12
    sizes = {GaborSystemSpec(window_degree=1, matrix=M, galerkin_dim=32,
                             window_dilation=a).grid().count
             for M, a in zip(matrices, dilations)}
    assert len(sizes) == 1
    nodes = []
    hermite = frameop.dilated_hermite_all
    monkeypatch.setattr(frameop, "dilated_hermite_all",
                        lambda n, a, x: (nodes.append(x.size) if x.ndim == 1 else None)
                        or hermite(n, a, x))
    bounds = []
    for M, a in zip(matrices, dilations):
        matrix = ",".join(repr(v) for v in (M.m11, M.m12, M.m21, M.m22))
        code, out, _ = run(capsys, "bounds", "--d", "1", "--matrix", matrix,
                           "--K", "32", "--dilation", repr(a))
        assert code == 0
        bounds.append(bounds_from_json(out))
    assert nodes == [sizes.pop()] * len(dilations)
    ref = bounds[0]
    for fb in bounds[1:]:
        assert abs(fb.A_est - ref.A_est) <= 1e-13 * ref.B_est
        assert abs(fb.B_est - ref.B_est) <= 1e-13 * ref.B_est


def test_certify_json(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "--d", "0", "--matrix",
                       "0.1,0,0,0.1", "--output", str(out_file))
    assert code == 0
    assert out.count("certificate valid") == 1
    strict_loads(out_file.read_text())
    cert = certificate_from_json(out_file.read_text())
    assert cert.valid


def test_certify_high_degree(capsys):
    argv = ("certify", "--d", "18", "--matrix", "0.1,0,0,0.1")
    code, out, _ = run(capsys, *argv, "--validate-only")
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert certificate_from_json(out).window_degree == 18


def test_certify_degree_past_the_sampling_grid(capsys):
    # the certificate samples no window on the real line, so no Nyquist
    # guard limits its degree; a sampling grid used to reject d >= 379
    argv = ("certify", "--d", "400", "--matrix", "0.2,0,0,0.2")
    code, out, _ = run(capsys, *argv, "--validate-only")
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    cert = certificate_from_json(out)
    assert cert.window_degree == 400 and math.isfinite(cert.ratio)


def test_certify_degree_five_on_a_fine_default_region(capsys):
    # (h_0..h_5)'s default region ends where F is below the boundary
    # check's 1e-8 of its maximum, whatever the step rounds it up to
    code, out, err = run(capsys, "certify", "--d", "5", "--matrix",
                         "0.1,0,0,0.1", "--region-step", "0.01")
    assert code == 0, err
    assert certificate_from_json(out).window_degree == 5


def test_certify_lattice_coarser_than_the_region(capsys):
    # the oscillation disc (r = 7.07) is wider than the region's xi extent
    code, out, _ = run(capsys, "certify", "--d", "0", "--matrix",
                       "10,0,0,10")
    assert code == 0
    cert = certificate_from_json(out)
    assert not cert.valid
    assert cert.ratio == pytest.approx(81.89, rel=1e-3)


def test_scan_csv_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "scan", "--d", "0", "--matrix", "1,0,0,1",
                         "--t-list", "0.5,0.4", "--K", "16",
                         "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == SCAN_CSV_HEADER


def test_glgrid_csv(capsys):
    code, out, _ = run(capsys, "glgrid", "--d", "1", "--det-max", "1.2",
                       "--steps", "24")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "det,threshold,is_frame_predicate"
    assert len(lines) == 25
    rows = [line.split(",") for line in lines[1:]]
    flips = [r[2] for r in rows]
    assert flips[0] == "true" and flips[-1] == "false"
    # predicate flips exactly where det crosses 1/(d+1) = 0.5
    for r in rows:
        assert (r[2] == "true") == (float(r[0]) < 0.5)


def test_glgrid_threshold_row_is_not_a_frame(capsys):
    # the criterion |det| < 1/(d+1) is strict: the row at det = 1/(d+1) is
    # false for every degree, also where sqrt(det)^2 rounds below det
    for d in range(1001):
        det = 1.0 / (d + 1)
        code, out, _ = run(capsys, "glgrid", "--d", str(d), "--det-max",
                           repr(det), "--steps", "1")
        assert code == 0
        assert out.splitlines()[1] == f"{det:.17g},{det:.17g},false"


def test_covariance(capsys):
    code, out, _ = run(capsys, "covariance", "--d", "0", "--matrix",
                       "0.4,0,0,0.4", "--b", "2", "--K", "16")
    assert code == 0
    assert json.loads(out)["max_relative_deviation"] < 1e-6


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": "1,0,0,1", "K": 16, "d": 0}))
    code, out, _ = run(capsys, "norm", "--config", str(cfg))
    assert code == 0 and out.strip() == "0.7071067811865476"
    # flag overrides the file
    code, out, _ = run(capsys, "norm", "--config", str(cfg),
                       "--matrix", "2,0,0,2")
    assert code == 0 and out.strip() == "1.414213562373095"


def test_config_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for field in ("matrxi", "step", "half_width", "truncation_radius",
                  "region_half", "seed"):
        cfg.write_text(json.dumps({field: "1,0,0,1"}))
        code, _, err = run(capsys, "norm", "--config", str(cfg))
        assert code == 2 and "unknown config fields" in err


def test_removed_flags_are_usage_errors(capsys):
    # the truncation radius and the certificate region follow from the
    # request; no command draws a random number, and only hermite has two
    # output formats
    for argv in (("bounds", "--d", "0", "--matrix", "0.5,0,0,0.5",
                  "--truncation-radius", "0.36"),
                 ("certify", "--d", "0", "--matrix", "0.5,0,0,0.5",
                  "--region-half", "0.2"),
                 ("norm", "--matrix", "1,0,0,1", "--seed", "1"),
                 ("bounds", "--d", "0", "--matrix", "0.5,0,0,0.5",
                  "--format", "csv"),
                 ("scan", "--d", "0", "--t-list", "0.5", "--format", "json")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
    capsys.readouterr()


def test_validate_only(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "0", "--matrix",
                       "0.5,0,0,0.5", "--validate-only")
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "bounds", "--d", "0", "--matrix",
                       "0.5,0,0,0.5", "--K", "-4", "--validate-only")
    assert code == 2 and "galerkin_dim must exceed" in out


def test_validate_nyquist_diagnostic(capsys):
    # the Nyquist guard refused K = 64 between dilations 0.034 and 0.033,
    # where the dilated window's aliasing step passed 1/32; the assembly now
    # runs at dilation 1, so neither side is refused, by validation or run
    argv = ("bounds", "--d", "0", "--matrix", "0.5,0,0,0.5", "--K", "64",
            "--dilation")
    for a in ("0.034", "0.033"):
        code, out, _ = run(capsys, *argv, a, "--validate-only")
        assert code == 0 and out.strip() == "ok"
        code, out, err = run(capsys, *argv, a)
        assert code == 0 and not err and "Nyquist" not in out
        bounds_from_json(out)


def test_small_dilations_are_admitted(capsys):
    # a small dilation narrows the window, which the assembly reads as the
    # lattice diag(1/sqrt a, sqrt a) M at dilation 1: no grid step limits
    # it, and the bounds are those of the mapped lattice
    for a in ("0.033", "1e-6"):
        argv = ("bounds", "--d", "0", "--matrix", "0.5,0,0,0.5", "--K", "64")
        code, out, _ = run(capsys, *argv, "--dilation", a, "--validate-only")
        assert code == 0 and out.strip() == "ok"
        code, out, _ = run(capsys, *argv, "--dilation", a)
        assert code == 0
        fb = bounds_from_json(out)
        r = math.sqrt(float(a))
        code, out, _ = run(capsys, "bounds", "--d", "0", "--matrix",
                           f"{0.5 / r!r},0,0,{0.5 * r!r}", "--K", "64")
        assert code == 0
        ref = bounds_from_json(out)
        assert abs(fb.A_est - ref.A_est) <= 1e-14 * ref.B_est
        assert abs(fb.B_est - ref.B_est) <= 1e-14 * ref.B_est
    # the covariance pair at b = 0.14 (dilation 0.0196): its two specs read
    # the same lattice, so they agree to rounding
    argv = ("covariance", "--d", "0", "--matrix", "0.4,0,0,0.4", "--b", "0.14",
            "--K", "32")
    code, out, _ = run(capsys, *argv, "--validate-only")
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["max_relative_deviation"] < 1e-13


def test_validate_budget_diagnostic(capsys):
    # a large dilation stretches the truncation ellipse along the time axis,
    # hence the box of the adjoint lattice this dense one is summed over
    # (3x2679133 at dilation 1, 3x5358263 at dilation 4)
    argv = ("bounds", "--d", "0", "--matrix", "0.0000001,0,0,80000",
            "--K", "16")
    code, out, _ = run(capsys, *argv, "--validate-only")
    assert code == 0 and out.strip() == "ok"
    argv += ("--dilation", "4")
    code, out, _ = run(capsys, *argv, "--validate-only")
    assert code == 2 and "exceeds point budget" in out
    code, _, err = run(capsys, *argv)
    assert code == 3 and "budget" in err


REJECTED = [
    # --validate-only used to print "ok" for these, then the run failed
    ("certify --d 0 --matrix 0.01,0,0,0.01", 2, "grid resolution"),
    ("scan --d 40 --matrix 1,0,0,1 --t-list 0.5", 2, "galerkin_dim"),
    ("covariance --d 40 --matrix 0.4,0,0,0.4 --b 2", 2, "galerkin_dim"),
    ("glgrid --d 0 --steps 0", 2, "--steps >= 1"),
    # rejected before, and still
    ("bounds --d 0 --matrix 0.5,0,0,0.5 --K -4", 2, "galerkin_dim"),
    ("glgrid --d -1", 2, "nonnegative"),
    ("hermite --n -1", 2, "nonnegative"),
    ("bounds --d 0 --matrix 0.5,0,0,0.5 --dilation 0", 2, "dilation"),
    ("bounds --d 0 --matrix 0.5,0,0,0.5 --dilation -1", 2, "dilation"),
    # non-finite parameters: a traceback, an answer of NaN, or a message
    # about float conversion before
    ("bounds --d 0 --matrix 0.5,0,0,0.5 --dilation inf", 2, "finite"),
    ("bounds --d 0 --matrix 0.5,0,0,0.5 --dilation nan", 2, "finite"),
    ("hermite --n 0 --dilation nan", 2, "finite"),
    ("hermite --n 0 --x 0,inf", 2, "finite"),
    ("certify --d 0 --matrix 0.1,0,0,0.1 --region-step inf", 2, "finite"),
    ("bounds --d 0 --matrix 0.5,0,0,0.5 --config {cfg}", 2, "invalid values"),
    ("scan --d 0 --t-list 0.4,0.5", 2, "descending"),
    ("bounds --d 0", 2, "requires --matrix"),
    ("bounds --d 0 --matrix 1000000,0,0,0.000001 --K 16", 3,
     "exceeds point budget"),
    ("bounds --d 0 --matrix 0.0000001,0,0,80000 --K 16 --dilation 4", 3,
     "exceeds point budget"),
    ("bounds --d 0 --matrix 0.5,0,0,0.5 --K 64 --dilation 1e-12", 3,
     "enumeration box"),
    # a dilation that maps the lattice to a numerically singular one, at
    # either end: reported as a singular lattice matrix before
    ("bounds --d 0 --matrix 0.5,0,0,0.5 --dilation 1e16", 2,
     "dilation 1e+16 maps the summed lattice to a numerically singular one"),
    ("bounds --d 0 --matrix 0.5,0,0,0.5 --dilation 1e-16", 2,
     "dilation 1e-16 maps the summed lattice to a numerically singular one"),
    # a frame matrix of (cK)^2 = 2.6e9 complex entries, ~42 GB: "ok" before
    ("bounds --d 200 --K 256 --matrix 0.01,0,0,0.01", 3,
     "frame matrix 51456x51456 exceeds point budget"),
    # a non-finite lattice entry was reported as a singular matrix
    ("norm --matrix nan,0,0,1", 2, "finite"),
    ("scan --d 0 --t-list 0.5,nan --K 16", 2, "finite"),
    ("covariance --d 0 --matrix 0.4,0,0,0.4 --b inf", 2, "finite"),
    ("covariance --d 0 --matrix 0.4,0,0,0.4 --b nan", 2, "finite"),
    ("glgrid --d 0 --det-max inf", 2, "finite"),
    # requests that would allocate without bound: a MemoryError before
    ("certify --d 0 --matrix 0.1,0,0,0.1 --region-step 0.000001", 3,
     "exceeds point budget"),
    ("certify --d 0 --matrix 0.1,0,0,0.1 --region-step 0.001", 3,
     "exceeds point budget"),
    ("hermite --n 1000000000 --x 0", 3, "exceeds point budget"),
    ("glgrid --d 0 --steps 10000001", 3, "exceeds point budget"),
    # a half over a subnormal step overflowed while rounding: a traceback
    ("certify --d 0 --matrix 0.1,0,0,0.1 --region-step 1e-320", 3,
     "exceeds point budget"),
    # a field of 3.3e9 node-steps, ~15-40 s of work: "ok" before
    ("certify --d 3000 --matrix 0.1,0,0,0.1", 3,
     "certificate field of 1090986 nodes x 3001 Laguerre steps exceeds "
     "work budget 1000000000"),
]


ADMITTED = [
    # the Nyquist guard refused this one (dilation 0.0196 at K = 32) in
    # validation and run alike; now both admit it
    ("covariance --d 0 --matrix 0.4,0,0,0.4 --b 0.14 --K 32", 0, "ok"),
    # ||M||_F^2 overflowed, and the adjoint's with it: "must be invertible"
    ("norm --matrix 1e155,0,0,1e155", 0, "ok"),
    ("bounds --d 0 --matrix 1e-150,0,0,1e-150 --K 16", 0, "ok"),
    ("bounds --d 0 --matrix 1e100,0,0,1e100 --K 16", 0, "ok"),
]


@pytest.mark.parametrize("matrix", ["1e-154,0,0,1e-154", "1e-160,0,0,1e-160",
                                    "1e-310,0,0,1e-310", "1e308,0,0,1e308"])
def test_overflowing_lattices_name_the_overflow(capsys, matrix):
    # invertible lattices whose frame bounds ~1/|det M|, or whose points in
    # the coordinates alpha, are past the floats: exit 2 naming the
    # overflow, in validation and run alike, and neither a singular matrix
    # nor the dilation 1
    argv = ("bounds", "--d", "0", "--matrix", matrix, "--K", "16")
    for extra in (("--validate-only",), ()):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2 and "overflow" in out + err
        assert "invertible" not in out + err and "dilation" not in out + err


@pytest.mark.parametrize("command", [
    "bounds --d 0 --matrix 1e155,0,0,1e155 --K 16",
    "certify --d 0 --matrix 1e155,0,0,1e155",
])
def test_fields_past_the_floats_are_null(tmp_path, capsys, command):
    # |det M| = 1e310 is past the floats: "det": Infinity before, which is
    # not JSON; printed or written to a file, the record is strict JSON
    code, out, _ = run(capsys, *command.split())
    assert code == 0 and strict_loads(out)["det"] is None
    out_file = tmp_path / "record.json"
    code, _, _ = run(capsys, *command.split(), "--output", str(out_file))
    assert code == 0 and out_file.read_text() == out.rstrip("\n")
    if command.startswith("certify"):
        cert = certificate_from_json(out)
        assert cert.matrix.m11 == 1e155 and not cert.valid


@pytest.mark.parametrize("command,run_code,message", REJECTED + ADMITTED)
def test_validate_only_agrees_with_run(tmp_path, capsys, command, run_code,
                                       message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 1.5}))
    argv = command.format(cfg=cfg).split()
    code, out, err = run(capsys, *argv, "--validate-only")
    if run_code == 0:
        assert code == 0 and out.strip() == message and not err
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and not err
        return
    said = (out + err).strip().removeprefix("error: ")
    assert code == 2 and message in said
    code, out, err = run(capsys, *argv)
    assert code == run_code and not out
    assert err == f"error: {said}\n"


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 39.5 GiB for an array with shape "
                "(51456, 51456) and data type complex128"),
    MemoryError()])
def test_out_of_memory_exits_3(monkeypatch, capsys, exc):
    # a run that runs out of memory exits 3 with one error line, not 1
    # with a traceback; validation builds no frame matrix and passes
    import hermgabor.cli as cli

    def frame_bounds(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "frame_bounds", frame_bounds)
    argv = ("bounds", "--d", "0", "--matrix", "0.5,0,0,0.5", "--K", "16")
    code, out, _ = run(capsys, *argv, "--validate-only")
    assert code == 0 and out.strip() == "ok"
    code, out, err = run(capsys, *argv)
    assert code == 3 and not out
    assert err == f"error: {str(exc) or 'MemoryError'}\n"


def test_config_fields_are_the_flags():
    assert sorted(CONFIG_FIELDS) == sorted([
        "command", "n", "x", "dilation", "format", "matrix", "d", "K",
        "budget", "region_step", "t_list", "det_max", "steps", "b", "output"])


def test_config_value_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for fields in ({"K": "8"}, {"b": True}, {"format": "xml"},
                   {"matrix": [[1, 0], [0, 1]]}):
        cfg.write_text(json.dumps(fields))
        code, _, err = run(capsys, "norm", "--matrix", "1,0,0,1",
                           "--config", str(cfg))
        assert code == 2 and "invalid values" in err
    cfg.write_text(json.dumps({"matrix": "1,0,0,1", "b": 2, "t_list": "0.5"}))
    code, out, _ = run(capsys, "norm", "--config", str(cfg))
    assert code == 0 and out.strip() == "0.7071067811865476"


def test_validate_requires_matrix():
    assert any("requires --matrix" in d
               for d in validate({"command": "bounds", "d": 0}))


def test_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "hermite", "--n", "1", "--x", "0.5",
                     "--format", "json", "--output", "h.json")
    assert code == 0
    assert (tmp_path / "h.json").exists()
