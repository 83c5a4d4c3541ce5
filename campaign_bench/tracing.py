"""Span recording and call counting for the benchmark, from outside the
library.

The traced run replaces public functions of the repsq layers with
wrappers that record one span per call: span id, parent span id, name,
start and end (``time.perf_counter_ns``), self time (duration minus the
time its child spans cover), the campaign id current at the call (the
request id), a per-call count (values scanned, points drawn or
evaluated, clamped fits) and whether the call raised. Spans stay in
memory until the run ends. ``patched`` installs replacements and always
restores the originals, so no library source changes and the untraced
phase runs the library as shipped.

Both phases also count test executions at the ``evaluate_many``
boundary with ``EvaluationCounter``, which reads no clock.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

# Field order of one span tuple in Tracer.spans.
SPAN_FIELDS = ("span", "parent", "name", "start_ns", "end_ns", "self_ns",
               "campaign", "count", "raised")


class Tracer:
    """In-memory span store with a stack of open spans (one thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.campaign = -1
        self._stack: list[list] = []  # open spans: [span id, child ns]
        self._ids = itertools.count()

    def wrap(self, fn, name: str, count=None):
        """Return fn wrapped in a span named ``name``.

        ``count(args, kwargs, result) -> int`` gives the span's count;
        a call that raises records count 0 and raised 1.
        """
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            frame = [next(ids), 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            result = None
            raised = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                n = count(args, kwargs, result) if count is not None and not raised else 0
                spans.append((frame[0], parent, nid, start, end, dur - frame[1],
                              tracer.campaign, n, raised))

        return traced

    def write_csv(self, path) -> None:
        lines = [",".join(SPAN_FIELDS)]
        for s in self.spans:
            row = list(s)
            row[2] = self.names[s[2]]
            lines.append(",".join(str(v) for v in row))
        path.write_text("\n".join(lines) + "\n")


@contextmanager
def patched(replacements):
    """Set ``owner.attr = new`` for each (owner, attr, new); restore on exit.

    Only attributes defined on the owner itself are replaced, so
    restoring never leaves a copy of an inherited method behind.
    """
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _size_arg(position):
    def count(args, kwargs, result):
        return int(args[position] if len(args) > position else kwargs["size"])
    return count


def _len_arg(position):
    def count(args, kwargs, result):
        return len(args[position])
    return count


def layer_targets(repsq, tracer: Tracer):
    """Replacements that trace every measured layer boundary.

    Harness-level names are replaced in ``repsq.harness``'s namespace,
    where the harness looks them up; the kernel and ``fit_beta`` are
    replaced in their own modules, where their callers look them up.
    """
    from repsq import _kernels, harness, samplers

    def clamped(args, kwargs, result):
        return int(any(v in (samplers.SHAPE_MIN, samplers.SHAPE_MAX) for v in result))

    def w(owner, attr, name, count=None):
        return owner, attr, tracer.wrap(vars(owner)[attr], name, count)

    targets = [
        w(_kernels, "scan_terminate", "kernels.scan_terminate", _len_arg(0)),
        w(harness, "run_quantized_sq", "harness.run_quantized_sq"),
        w(harness, "mixture_sample_many", "samplers.mixture_sample_many", _size_arg(4)),
        w(harness, "ais_update", "samplers.ais_update"),
        w(samplers, "fit_beta", "samplers.fit_beta", clamped),
        w(harness, "quantize", "quantize.quantize"),
        w(harness, "build_partition", "quantize.build_partition"),
        w(harness, "partition_from_payload", "quantize.partition_from_payload"),
        w(harness, "build_artifact", "artifact.build_artifact"),
        w(harness, "verify_artifact", "artifact.verify_artifact"),
    ]
    for cls in (repsq.DiscreteDistribution, repsq.BoxUniform, repsq.BetaProposal):
        targets.append(w(cls, "sample_many", "samplers.sample_many", _size_arg(2)))
        targets.append(w(cls, "density_many", "samplers.density_many", _len_arg(1)))
    for cls in testbed_classes(repsq):
        targets.append(w(cls, "evaluate_many", "testbeds.evaluate_many", _len_arg(1)))
    return targets


def testbed_classes(repsq):
    return (repsq.CellularTestbed, repsq.DisplacementTestbed, repsq.TrackingTestbed)


class EvaluationCounter:
    """Counts test executions (points passed to ``evaluate_many``)."""

    def __init__(self) -> None:
        self.count = 0

    def take(self) -> int:
        n, self.count = self.count, 0
        return n

    def targets(self, repsq):
        out = []
        for cls in testbed_classes(repsq):
            original = vars(cls)["evaluate_many"]

            def counted(bed, points, *args, _original=original, **kwargs):
                self.count += len(points)
                return _original(bed, points, *args, **kwargs)

            out.append((cls, "evaluate_many", counted))
        return out
