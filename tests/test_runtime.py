"""numpy is the only runtime dependency: the library and the CLI run in a
process where every scipy import fails."""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

NO_SCIPY_RUN = f"""
import sys
sys.modules["scipy"] = None    # any `import scipy...` now raises ImportError
sys.path.insert(0, {SRC!r})

from hermgabor import (GaborSystemSpec, LatticeMatrix, certificate,
                       certification_window, frame_bounds)
from hermgabor import cli

for t in (0.5, 0.1):                     # direct side, then adjoint side
    spec = GaborSystemSpec(window_degree=0, matrix=LatticeMatrix(t, 0, 0, t),
                           galerkin_dim=16)
    assert (spec.summed_lattice == spec.matrix) == (t == 0.5)
    fb = frame_bounds(spec)
    assert 0 < fb.A_est <= fb.B_est

cert = certificate(certification_window(0), LatticeMatrix(0.1, 0, 0, 0.1))
assert cert.valid

assert cli.main(["hermite", "--n", "3", "--x", "0,0.5,1"]) == 0
"""

IMPORT_ONLY = f"""
import sys
sys.path.insert(0, {SRC!r})
import hermgabor
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)


def test_pipelines_and_cli_run_with_scipy_blocked():
    proc = _python(NO_SCIPY_RUN)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy():
    proc = _python(IMPORT_ONLY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
