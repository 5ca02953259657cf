"""Every answer recorded in perfbench/reference.json reproduces, untraced
and traced.

A benchmark run checks only the pool entries its request lists draw; this
runs the benchmark's own ``workloads.execute`` and ``workloads.check`` on
every entry of every pool, and one entry of each pool through the
benchmark's tracer. ``perfbench/`` is only read, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
POOL_SIZES = {"galerkin": 192, "certify": 180, "sqrt_law": 48}
# the spans each workload's requests must open: the layers it is meant to
# measure
TRACED_LAYERS = {"galerkin": ("frameop", "hermite", "lattice"),
                 "certify": ("certify",),
                 "sqrt_law": ("scan", "frameop", "hermite", "lattice")}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
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


@pytest.mark.parametrize("workload", sorted(POOL_SIZES))
def test_a_traced_request_reproduces_and_counts_its_layers(workload):
    # the tracer wraps library names in their modules (frameop's
    # dilated_hermite_all and enumerate_points, certify's stft, ambiguity
    # and osc_l1, scan's frame_bounds) and checks each assembly against its
    # spec's grid: a traced request fails when one of them moves or changes
    tracing = _load("tracing")
    entry = REFERENCE["pools"][workload][0][0]
    tracer = tracing.Tracer()
    with tracer.installed():
        answer = workloads.execute(workload, entry["params"], tracer.call)
    assert workloads.check(workload, answer, entry["answer"]) == []
    metrics = tracer.layer_metrics()
    assert all(metrics[f"{layer}.calls"] > 0 for layer in TRACED_LAYERS[workload])
