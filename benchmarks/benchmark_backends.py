"""Throughput of the termination-scan kernel at several chunk sizes.

Scans one fixed stream of weighted values chunk by chunk, as a campaign
does, with gamma out of reach so every value is scanned, and prints the
best of several passes per chunk size. The kernel's shifted sums do not
depend on chunk boundaries, so the final state must be bit-identical at
every size; the script prints it and exits 1 when it is not.

Usage: python benchmarks/benchmark_backends.py [--sizes 10,64,1024,8192,65536]
"""

import argparse
import math
import sys
import time

import numpy as np

from repsq import _kernels
from repsq.estimator import BoundSpec, EstimatorState

N_VALUES = 262_144  # length of the scanned stream
REPEATS = 5  # timed passes per chunk size; the best one is printed


def scan_all(values, size, rule):
    state = EstimatorState()
    for start in range(0, values.shape[0], size):
        _, state = _kernels.scan_terminate(values[start : start + size], state, rule)
    return state


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10,64,1024,8192,65536")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    rng = np.random.default_rng(12345)
    values = (rng.random(N_VALUES) < 0.03).astype(np.float64) * 0.2
    rule = _kernels.StopRule.for_campaign(
        1e-9, BoundSpec(m=1.0, w_bar=1.0, c=0.05), "paper-exact", 2
    )
    print(f"kernel: {_kernels.ACTIVE_BACKEND}, {N_VALUES} values")
    print(f"{'chunk':>8}{'chunks':>9}{'best':>12}{'ns/value':>10}{'us/chunk':>10}")
    finals = {}
    for size in sizes:
        finals[size] = scan_all(values, size, rule)  # warm-up
        best = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            scan_all(values, size, rule)
            best = min(best, time.perf_counter() - t0)
        chunks = math.ceil(N_VALUES / size)
        print(
            f"{size:>8}{chunks:>9}{best * 1e3:>10.2f}ms"
            f"{best / N_VALUES * 1e9:>10.1f}{best / chunks * 1e6:>10.1f}"
        )

    states = {(s.n, s.mean, s.m2, s.pivot, s.s1, s.s2) for s in finals.values()}
    for n, mean, m2, pivot, s1, s2 in states:
        print(f"final state: n={n} mean={mean!r} m2={m2!r} s1={s1!r} s2={s2!r}")
    if len(states) != 1:
        print("FAIL: the final state depends on the chunk size", file=sys.stderr)
        return 1
    print("final state bit-identical at every chunk size")
    return 0


if __name__ == "__main__":
    sys.exit(main())
