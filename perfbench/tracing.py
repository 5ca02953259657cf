"""Benchmark-side tracing: timing wrappers around the calls each layer
makes through, in-memory spans, and the per-layer metrics derived from them.

Nothing here edits the library. ``Tracer.installed()`` swaps module
attributes for wrappers and puts the originals back on exit; the wrapped
names are looked up at call time by the library, so its own calls go
through them. Spans are lists ``[name, start, end, parent, request]``, with
``parent`` the index of the enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter
from time import perf_counter

import numpy as np
import scipy.linalg

import hermgabor.certify
import hermgabor.frameop
import hermgabor.scan
from hermgabor.timefreq import default_region

# (module, attribute, span name): the calls each layer is entered through
TARGETS = (
    (hermgabor.frameop, "dilated_hermite_all", "hermite"),
    (hermgabor.frameop, "enumerate_points", "lattice"),
    (scipy.linalg, "eigvalsh", "frameop.eig"),        # as frameop calls it
    (hermgabor.certify, "ambiguity", "certify.ambiguity"),
    (hermgabor.certify, "stft", "timefreq.stft"),
    (hermgabor.certify, "osc_l1", "certify.osc"),
    (hermgabor.scan, "frame_bounds", "frameop"),
)

COMPLEX_BYTES = 16
# metrics derived from specs and array sizes rather than timed
COMPUTED = ("hermite.values", "lattice.points", "lattice.kept_ratio",
            "frameop.assembly_flops", "frameop.assembly_bytes",
            "certify.osc_offsets")


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self.counts = Counter()
        self._stack = []
        self._specs = []            # frame_bounds specs in flight
        self._basis_shape = None    # (K, N) of the assembly in flight
        self._ambiguity_keys = set()

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and record its counts."""
        spec = args[0] if name == "frameop" else None
        if spec is not None:
            self._specs.append(spec)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            if spec is not None:
                self._specs.pop()
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        if observe is not None:
            observe(args, result)
        return result

    # -- counts, computed from arguments and results (outside the spans)

    def _observe_hermite(self, args, table):
        self.counts["hermite.values"] += int(table.size)
        if np.ndim(args[2]) == 1:
            # the test-basis table on the bare grid opens an assembly
            self._basis_shape = table.shape

    def _observe_lattice(self, args, pts):
        n = len(pts)
        self.counts["lattice.points"] += n
        if not self._specs:
            return
        spec, K, N = self._assembly_spec(args[1])
        g = pts.points
        kept = int(np.count_nonzero((np.abs(g[:, 0]) <= spec.time_cutoff())
                                    & (np.abs(g[:, 1]) <= spec.freq_cutoff())))
        self.counts["lattice.kept"] += kept
        # the two products per kept point: (c x N) samples against the
        # (N x K) test basis, then the rank-c update of the (cK)^2 matrix,
        # both in complex arithmetic (8 real flops per multiply-add)
        c = len(spec.indices)
        self.counts["frameop.assembly_flops"] += (
            8 * kept * c * N * K + 8 * kept * (c * K) ** 2)
        self.counts["frameop.assembly_bytes"] += COMPLEX_BYTES * (
            kept * c * (N + K) + (c * K) ** 2)

    def _assembly_spec(self, radius):
        """(spec, K, N) of the assembly in flight, with the test dimension K
        and grid size N read off its basis table; raises when the spec in
        flight at that K does not give the radius enumerated for."""
        K, N = self._basis_shape
        spec = self._specs[-1].with_dim(K)
        if spec.radius != radius or spec.grid().count != N:
            raise RuntimeError(
                f"assembly at radius {radius} with a ({K}, {N}) basis table "
                f"does not match its frame_bounds spec at K={K}")
        return spec, K, N

    def _observe_frameop(self, args, fb):
        self.counts["frameop.converged"] += bool(fb.converged)
        if self._stack and self.spans[self._stack[-1]][0] == "scan":
            prod = fb.A_est * abs(args[0].matrix.determinant)
            self.counts["scan.usable"] += 0.0 < prod < 1.0

    def _observe_certify(self, args, cert):
        self.counts["certify.valid"] += bool(cert.valid)

    def _observe_certify_ambiguity(self, args, amb):
        w = args[0]
        region = args[1] if len(args) > 1 and args[1] is not None \
            else default_region(w.degree)
        self._ambiguity_keys.add((w.indices, w.dilation, w.grid, region))

    def _observe_certify_osc(self, args, ratio):
        F, r = args[0], args[1]
        self.counts["certify.osc_offsets"] += (
            disc_offsets(F.x_step, F.xi_step, r) * F.values.size)

    # -- aggregation

    def layer_metrics(self) -> dict:
        """Per-layer counts, busy and self times over every recorded span."""
        n = Counter()
        busy = Counter()
        self_time = Counter()
        children = [[] for _ in self.spans]
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            n[name] += 1
            busy[name] += end - start
            self_time[name] += (end - start) - _covered(children[i])
        scan_fb = sum(1 for (name, _, _, parent, _) in self.spans
                      if name == "frameop" and parent is not None
                      and self.spans[parent][0] == "scan")
        c = self.counts
        assembly_s = busy["frameop"] - busy["frameop.eig"]
        return {
            "hermite.calls": n["hermite"],
            "hermite.busy_s": busy["hermite"],
            "hermite.values": c["hermite.values"],
            "lattice.calls": n["lattice"],
            "lattice.busy_s": busy["lattice"],
            "lattice.points": c["lattice.points"],
            "lattice.kept_ratio": _ratio(c["lattice.kept"], c["lattice.points"]),
            "frameop.calls": n["frameop"],
            "frameop.busy_s": busy["frameop"],
            "frameop.self_s": self_time["frameop"],
            "frameop.eig_calls": n["frameop.eig"],
            "frameop.eig_busy_s": busy["frameop.eig"],
            "frameop.assembly_flops": c["frameop.assembly_flops"],
            "frameop.assembly_bytes": c["frameop.assembly_bytes"],
            "frameop.assembly_gflops_per_s":
                _ratio(c["frameop.assembly_flops"], assembly_s) / 1e9,
            "frameop.converged_ratio": _ratio(c["frameop.converged"], n["frameop"]),
            "timefreq.stft_calls": n["timefreq.stft"],
            "timefreq.stft_busy_s": busy["timefreq.stft"],
            "certify.calls": n["certify"],
            "certify.busy_s": busy["certify"],
            "certify.self_s": self_time["certify"],
            "certify.ambiguity_calls": n["certify.ambiguity"],
            "certify.ambiguity_busy_s": busy["certify.ambiguity"],
            "certify.ambiguity_distinct_ratio":
                _ratio(len(self._ambiguity_keys), n["certify.ambiguity"]),
            "certify.osc_busy_s": busy["certify.osc"],
            "certify.osc_offsets": c["certify.osc_offsets"],
            "certify.valid_ratio": _ratio(c["certify.valid"], n["certify"]),
            "scan.calls": n["scan"],
            "scan.busy_s": busy["scan"],
            "scan.self_s": self_time["scan"],
            "scan.frame_bounds_calls": scan_fb,
            "scan.usable_ratio": _ratio(c["scan.usable"], scan_fb),
        }


def disc_offsets(hx: float, hxi: float, r: float) -> int:
    """Grid offsets (di, dj) != 0 with (di*hx)^2 + (dj*hxi)^2 < r^2."""
    di = np.arange(-math.ceil(r / hx), math.ceil(r / hx) + 1)
    dj = np.arange(-math.ceil(r / hxi), math.ceil(r / hxi) + 1)
    inside = (di[:, None] * hx) ** 2 + (dj[None, :] * hxi) ** 2 < r * r
    return int(np.count_nonzero(inside)) - 1


def _covered(intervals) -> float:
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0
