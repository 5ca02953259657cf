"""Every answer recorded in perfbench/reference.json reproduces.

A benchmark run checks only the pool entries its request lists draw; this
runs the benchmark's own ``workloads.execute`` and ``workloads.check`` on
every entry of every pool. ``perfbench/`` is only read, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
POOL_SIZES = {"galerkin": 192, "certify": 180, "sqrt_law": 48}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCE = workloads.load_reference()


@pytest.mark.parametrize("workload", sorted(POOL_SIZES))
def test_every_recorded_answer_reproduces(workload):
    entries = [entry for cell in REFERENCE["pools"][workload] for entry in cell]
    assert len(entries) == POOL_SIZES[workload]
    bad = []
    for entry in entries:
        answer = workloads.execute(workload, entry["params"])
        problems = workloads.check(workload, answer, entry["answer"])
        if problems:
            bad.append((entry["params"], problems))
    assert not bad
