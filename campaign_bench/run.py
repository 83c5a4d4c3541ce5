"""End-to-end campaign benchmark for repsq, with a traced per-layer split.

Usage, from the repository root:

    python3 campaign_bench/run.py --workload early_stop --seed 0 --seconds 20 --trace 0

A campaign pair runs the paper's initiator -> replicator protocol through
the public API: ``initiator(config)``, then ``dump_artifact`` and
``load_artifact`` as text in memory, then ``replicator(loaded, seed)``.
Pair i uses initiator seed ``base + i`` and replicator seed
``rep_base + i``; both bases are derived from ``--seed``, and the library
sees only the resulting configs and seeds. The load is a closed loop
from one caller in one process and one thread: the next pair starts when
the previous one has returned. Numeric thread pools are capped at one.

A run has these phases:

1. set-up, ``SETUP_RUNS`` times back to back, each in a fresh
   interpreter (``setup_probe.py``): ``import repsq``, config load,
   testbed build, oracle and partition. ``setup_s`` is the fastest, the
   figure least moved by other load on the machine.
2. the same set-up in this process, then pair 0 once as warm-up.
3. the measured phase: pairs 0, 1, ... until ``--seconds`` have passed
   and at least the workload's ``quality_pairs`` pairs are done.
   With ``--trace 1`` each pair runs again right after its untraced run,
   with every layer boundary traced (``tracing.py``), so that both runs
   of a pair see the same machine; the end-to-end figures come from the
   untraced runs.

Latency and throughput cover every campaign of the measured phase. The
counts and rates that must repeat exactly (consumed and evaluated n,
repeat and accuracy rates, chunks, refit calls) cover the first
``quality_pairs`` pairs, so they do not depend on how fast the machine is.

Per-layer figures come from span self times (duration minus child
spans): ``harness.*`` from ``initiator``/``replicator`` and
``run_quantized_sq``, ``kernels.*`` from ``scan_terminate``,
``samplers.draw_ms`` from ``sample_many`` and ``mixture_sample_many``,
``samplers.weight_ms`` from ``density_many``, ``samplers.refit_*`` from
``ais_update`` and ``fit_beta``, ``testbeds.*`` from ``evaluate_many``,
``quantize.*`` and ``artifact.*`` per call. A layer a workload never
calls reads 0 (the cellular workloads neither refit nor call
``density_many``). ``testbeds.oracle_s`` and ``repsq.import_s`` come from
the set-up probes, ``bench.loop_ms`` is this loop's own time, and
``trace.overhead_pct`` compares untraced with traced campaigns/s.
The spans' self times, the loop's included, must add up to between
``ACCOUNTED_RANGE`` of the untraced time of the same pairs: less means
the spans missed part of a campaign, more means tracing distorts it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it print every metric by name with its unit, the
environment and each correctness check. A full record, and with
``--trace 1`` every span as CSV, goes to ``.bench_out/`` in the
repository root. The exit code is 0 only when every check passes; it is
1 after a failed check and 2 when the benchmark cannot run at all (for
example when ``src/repsq`` is missing), without a result line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = HERE / "workloads"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PAIR_SEED_STRIDE = 1_000_000  # seed bases of different --seed never overlap
SETUP_RUNS = 7

# name -> unit, in print order.
END_TO_END = {
    "campaigns_per_s": "1/s",
    "campaign_ms_p50": "ms",
    "campaign_ms_p90": "ms",
    "consumed_n_mean": "count",
    "evaluated_n_mean": "count",
    "repeat_rate": "fraction",
    "accuracy_hit_rate": "fraction",
    "campaign_fail_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "harness.setup_ms": "ms",
    "harness.self_ms": "ms",
    "harness.chunks": "count",
    "harness.useful_fraction": "fraction",
    "kernels.scan_ms": "ms",
    "kernels.ns_per_value": "ns",
    "samplers.draw_ms": "ms",
    "samplers.draws": "count",
    "samplers.weight_ms": "ms",
    "samplers.refit_ms": "ms",
    "samplers.refit_calls": "count",
    "samplers.refit_clamped": "count",
    "samplers.refit_degenerate": "count",
    "testbeds.evaluate_ms": "ms",
    "testbeds.evaluated": "count",
    "testbeds.ns_per_eval": "ns",
    "testbeds.oracle_s": "s",
    "repsq.import_s": "s",
    "quantize.partition_us": "us",
    "quantize.quantize_us": "us",
    "artifact.build_us": "us",
    "artifact.verify_us": "us",
    "artifact.roundtrip_us": "us",
    "bench.loop_ms": "ms",
    "trace.overhead_pct": "%",
}
# campaign_fail_rate is 0 on a healthy run, so the result line carries it
# as attempted/failed rather than as a bounded metric.
RESULT_END_TO_END = [m for m in END_TO_END if m != "campaign_fail_rate"]
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
ACCOUNTED_RANGE = (0.8, 1.5)


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


@dataclasses.dataclass(slots=True)
class Campaign:
    """What the benchmark keeps of one initiator or replicator call."""

    pair: int
    arm: str  # "initiator" or "replicator"
    latency_ns: int
    evaluated: int
    n: int = -1  # TrialResult.n; -1 when the call raised
    cell: int = 0
    quantized: float = math.nan
    terminated_ok: bool = False  # terminated, min(radii) <= gamma
    midpoint_ok: bool = False  # quantized_estimate == partition.midpoint(cell)
    fingerprint: str | None = None  # TrialResult.to_dict() as JSON, pair 0 only
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.n >= 0


@dataclasses.dataclass
class Phase:
    campaigns: list
    wall_ns: int
    artifact_ok: bool | None  # pair 0's round trip check; None if pair 0 failed


def parse_args(argv):
    names = sorted(p.stem for p in WORKLOADS.glob("*.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    return args


def cap_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_repsq():
    if not (SRC / "repsq" / "__init__.py").is_file():
        raise BenchError(f"no repsq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repsq

    if Path(repsq.__file__).resolve().parent != (SRC / "repsq").resolve():
        raise BenchError(f"imported repsq from {repsq.__file__}, not from {SRC}")
    return repsq


def environment(repsq) -> dict:
    import importlib.util

    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": repsq._kernels.ACTIVE_BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def run_setup_probes(workload_path: Path) -> list[dict]:
    probes = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(workload_path)],
            capture_output=True, text=True, timeout=170, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["repsq_file"]).resolve().parent != (SRC / "repsq").resolve():
            raise BenchError(f"set-up probe imported {probe['repsq_file']}, not {SRC}")
        probes.append(probe)
    return probes


class Protocol:
    """One workload's pair loop: seeds, calls, grading inputs."""

    def __init__(self, repsq, config, seed: int, partition, counter, tracer=None) -> None:
        import numpy as np

        self.repsq = repsq
        self.config = config
        self.partition = partition
        self.gamma = config.accuracy.gamma
        self.base = seed * PAIR_SEED_STRIDE
        self.rep_base = int(np.random.SeedSequence(self.base).generate_state(1, np.uint32)[0])
        self.counter = counter  # tracing.EvaluationCounter
        self.tracer = tracer
        # (initiator, replicator, exchange), untraced and traced
        self.calls = {False: (repsq.initiator, repsq.replicator, self._exchange)}
        if tracer is not None:
            self.calls[True] = (tracer.wrap(repsq.initiator, "harness.initiator"),
                                tracer.wrap(repsq.replicator, "harness.replicator"),
                                tracer.wrap(self._exchange, "artifact.roundtrip"))
            self.traced_pair = tracer.wrap(self.pair, "bench.pair")

    def _exchange(self, art):
        text = self.repsq.dump_artifact(art)
        return text, self.repsq.load_artifact(text)

    def _campaign(self, pair, arm, fn, *args):
        """Call fn(*args) -> TrialResult (or (artifact, TrialResult))."""
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args)
        except Exception:  # a failed campaign is counted, not fatal
            t1 = time.perf_counter_ns()
            self.counter.take()
            return Campaign(pair, arm, t1 - t0, 0, error=traceback.format_exc()), None
        t1 = time.perf_counter_ns()
        art, r = out if isinstance(out, tuple) else (None, out)
        c = Campaign(
            pair, arm, t1 - t0, self.counter.take(), r.n, r.cell, r.quantized_estimate,
            terminated_ok=r.terminated
            and min(r.bernstein_radius_final, r.hoeffding_radius_final) <= self.gamma,
            midpoint_ok=r.quantized_estimate == self.partition.midpoint(r.cell),
            fingerprint=json.dumps(r.to_dict(), sort_keys=True) if pair == 0 else None,
        )
        return c, art

    def pair(self, i: int, traced: bool = False, check_artifact: bool = False):
        """Run pair i; returns (campaigns, whether the replicator's artifact
        is a faithful text round trip, or None when not checked)."""
        initiator, replicator, exchange = self.calls[traced]
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.campaign = 2 * i
        cfg = dataclasses.replace(self.config, seed=self.base + i)
        init, art = self._campaign(i, "initiator", initiator, cfg)
        if art is None:
            rep = Campaign(i, "replicator", 0, 0, error="initiator raised; no artifact")
            return [init, rep], None
        if tracer is not None:
            tracer.campaign = 2 * i + 1
        text, loaded = exchange(art)
        check = None
        if check_artifact:
            check = (loaded == art and loaded is not art
                     and self.repsq.dump_artifact(loaded) == text)
        rep, _ = self._campaign(i, "replicator", replicator, loaded, self.rep_base + i)
        return [init, rep], check


def run_phase(proto: Protocol, seconds: float, min_pairs: int, layers=None):
    """Pairs 0, 1, ... until ``seconds`` have passed and at least
    ``min_pairs`` pairs are done; the round trip is checked on pair 0.

    With ``layers`` (the tracing replacements) each pair runs again,
    traced, right after its untraced run. Returns the untraced and the
    traced phase (None without ``layers``); a phase's wall time is the
    sum of its pairs' times.
    """
    clock = time.perf_counter_ns
    plain = Phase([], 0, None)
    traced = Phase([], 0, None) if layers is not None else None

    def timed(phase, i, pair_fn, *args):
        t0 = clock()
        out, check = pair_fn(i, *args)
        phase.wall_ns += clock() - t0
        phase.campaigns.extend(out)
        if i == 0:
            phase.artifact_ok = check

    deadline = clock() + int(seconds * 1e9)
    i = 0
    while i < min_pairs or clock() < deadline:
        timed(plain, i, proto.pair, False, i == 0)
        if traced is not None:
            with tracing.patched(layers):
                timed(traced, i, proto.traced_pair, True, i == 0)
        i += 1
    return plain, traced


def tail_percentile(latencies_ms):
    """Highest percentile in TAIL_PERCENTILES with >= 10 samples above it."""
    ordered = sorted(latencies_ms)
    for q in TAIL_PERCENTILES:
        value = percentile(ordered, q)
        if sum(1 for v in ordered if v > value) >= 10:
            return q, value
    return None, None


def percentile(ordered, q):
    """Linear-interpolated percentile q of a sorted list (inclusive)."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quality(campaigns, n_pairs, r_star, tolerance):
    """Exact counts and rates over the first n_pairs pairs. A campaign that
    raised counts as a miss for both rates."""
    first = [c for c in campaigns if c.pair < n_pairs]
    ok = [c for c in first if c.ok]
    by_pair = {}
    for c in ok:
        by_pair.setdefault(c.pair, []).append(c.quantized)
    repeats = sum(1 for qs in by_pair.values() if len(qs) == 2 and qs[0] == qs[1])
    hits = sum(1 for c in ok if abs(c.quantized - r_star) <= tolerance)
    return {
        "consumed_n_mean": statistics.fmean(c.n for c in ok) if ok else math.nan,
        "evaluated_n_mean": statistics.fmean(c.evaluated for c in first),
        "repeat_rate": repeats / n_pairs,
        "accuracy_hit_rate": hits / len(first),
    }


def end_to_end(phase: Phase, quality_metrics: dict, setup_s: float):
    lat_ms = [c.latency_ns / 1e6 for c in phase.campaigns]
    done = sum(1 for c in phase.campaigns if c.ok)
    failed = len(phase.campaigns) - done
    tail_q, tail_v = tail_percentile(lat_ms)
    metrics = {
        "campaigns_per_s": done / (phase.wall_ns / 1e9),
        "campaign_ms_p50": statistics.median(lat_ms),
        "campaign_ms_p90": percentile(sorted(lat_ms), 90.0),
        **quality_metrics,
        "campaign_fail_rate": failed / len(phase.campaigns),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = {"samples": len(lat_ms),
            "p90_samples_above": sum(1 for v in lat_ms if v > metrics["campaign_ms_p90"]),
            "highest_qualifying_percentile": tail_q, "highest_qualifying_ms": tail_v}
    return metrics, tail


def layer_metrics(tracer, n_campaigns, quality_pairs, consumed, probes, overhead_pct):
    """Per-layer figures from the traced phase's spans; ``consumed`` is the
    samples the estimator used over the first quality_pairs pairs.

    Times are self times per campaign (ms) or per call (us, ns); counts
    are per campaign over the first quality_pairs pairs, so they repeat
    exactly."""
    first = 2 * quality_pairs  # campaign ids of the first quality_pairs pairs
    every, exact = {}, {}  # name -> [calls, self ns, duration ns, count, raised]
    for _sid, _parent, nid, start, end, self_ns, campaign, count, raised in tracer.spans:
        for table in (every, exact) if campaign < first else (every,):
            t = table.setdefault(tracer.names[nid], [0, 0, 0, 0, 0])
            t[0] += 1
            t[1] += self_ns
            t[2] += end - start
            t[3] += count
            t[4] += raised

    def total(table, field, *names):
        return sum(table.get(name, (0, 0, 0, 0, 0))[field] for name in names)

    def ms(*names):
        return total(every, 1, *names) / 1e6 / n_campaigns

    def per_call(scale, *names):
        calls = total(every, 0, *names)
        return total(every, 1, *names) / scale / calls if calls else 0.0

    def per_count(name):
        n = total(every, 3, name)
        return total(every, 1, name) / n if n else 0.0

    def exact_per_campaign(field, name):
        return total(exact, field, name) / first

    evaluated = total(exact, 3, "testbeds.evaluate_many")
    return {
        "harness.setup_ms": (total(every, 2, "harness.initiator", "harness.replicator")
                             - total(every, 2, "harness.run_quantized_sq")) / 1e6 / n_campaigns,
        "harness.self_ms": ms("harness.run_quantized_sq"),
        "harness.chunks": exact_per_campaign(0, "kernels.scan_terminate"),
        "harness.useful_fraction": consumed / evaluated if evaluated else 0.0,
        "kernels.scan_ms": ms("kernels.scan_terminate"),
        "kernels.ns_per_value": per_count("kernels.scan_terminate"),
        "samplers.draw_ms": ms("samplers.mixture_sample_many", "samplers.sample_many"),
        "samplers.draws": exact_per_campaign(3, "samplers.sample_many"),
        "samplers.weight_ms": ms("samplers.density_many"),
        "samplers.refit_ms": ms("samplers.ais_update", "samplers.fit_beta"),
        "samplers.refit_calls": exact_per_campaign(0, "samplers.ais_update"),
        "samplers.refit_clamped": exact_per_campaign(3, "samplers.fit_beta"),
        "samplers.refit_degenerate": exact_per_campaign(4, "samplers.fit_beta"),
        "testbeds.evaluate_ms": ms("testbeds.evaluate_many"),
        "testbeds.evaluated": evaluated / first,
        "testbeds.ns_per_eval": per_count("testbeds.evaluate_many"),
        "testbeds.oracle_s": min(p["oracle_s"] for p in probes),
        "repsq.import_s": min(p["import_s"] for p in probes),
        "quantize.partition_us": per_call(1e3, "quantize.build_partition",
                                          "quantize.partition_from_payload"),
        "quantize.quantize_us": per_call(1e3, "quantize.quantize"),
        "artifact.build_us": per_call(1e3, "artifact.build_artifact"),
        "artifact.verify_us": per_call(1e3, "artifact.verify_artifact"),
        "artifact.roundtrip_us": per_call(1e3, "artifact.roundtrip"),
        "bench.loop_ms": ms("bench.pair"),
        "trace.overhead_pct": overhead_pct,
    }


def campaign_checks(phase: Phase) -> dict:
    """Checks on every campaign of a phase: name -> (passed, examples)."""
    def where(bad):
        found = [(c.pair, c.arm) for c in phase.campaigns if bad(c)]
        return not found, found[:5]

    return {
        "no_campaign_raised": where(lambda c: not c.ok),
        "terminated_within_gamma": where(lambda c: c.ok and not c.terminated_ok),
        "estimate_is_cell_midpoint": where(lambda c: c.ok and not c.midpoint_ok),
        "replicator_input_from_text": (phase.artifact_ok is True, []),
    }


def print_table(title, metrics, units, notes=None):
    print(f"== {title}")
    for name, unit in units.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit:<9}{note}")


def tail_note(tail) -> str:
    note = f"  p90 of {tail['samples']} samples, {tail['p90_samples_above']} above it; "
    if tail["highest_qualifying_percentile"] is None:
        return note + "no percentile has >= 10 samples above it"
    return note + (f"highest percentile with >= 10 above: "
                   f"p{tail['highest_qualifying_percentile']:g} = "
                   f"{tail['highest_qualifying_ms']:.6g} ms")


def run(args) -> int:
    cap_threads()
    repsq = import_repsq()
    warnings.simplefilter("ignore", repsq.ClampWarning)  # counted per layer instead
    workload_path = WORKLOADS / f"{args.workload}.json"
    spec = json.loads(workload_path.read_text(encoding="utf-8"))
    quality_pairs = int(spec["quality_pairs"])
    env = environment(repsq)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_caps"))

    probes = run_setup_probes(workload_path)
    setup_s = min(p["setup_s"] for p in probes)

    config = repsq.CampaignConfig.from_dict(spec["config"])
    if config.offset_policy != "zero":
        raise BenchError("workload configs pin offset_policy 'zero'")
    r_star = config.build_testbed().oracle_r_star
    alpha = repsq.compute_alpha(config.accuracy)
    partition = repsq.build_partition(config.m_low, config.m_high, alpha, 0.0)
    tolerance = config.accuracy.gamma + 0.5 * alpha

    tracer = tracing.Tracer() if args.trace else None
    proto = Protocol(repsq, config, args.seed, partition, tracing.EvaluationCounter(), tracer)
    with tracing.patched(proto.counter.targets(repsq)):
        # built here, so the traced evaluate_many wraps the counted one
        layers = tracing.layer_targets(repsq, tracer) if args.trace else None
        warm, _ = proto.pair(0)
        phase, traced = run_phase(proto, args.seconds, quality_pairs, layers)
    n_pairs = phase.campaigns[-1].pair + 1

    checks = campaign_checks(phase)
    checks["first_pair_reproduces"] = (
        [c.fingerprint for c in warm] == [c.fingerprint for c in phase.campaigns[:2]], [])
    q = quality(phase.campaigns, quality_pairs, r_star, tolerance)
    e2e, tail = end_to_end(phase, q, setup_s)
    print_table(f"end-to-end, {args.workload}, seed {args.seed}, {n_pairs} pairs "
                f"(untraced), exact counts over "
                f"{quality_pairs} pairs", e2e, END_TO_END, {"campaign_ms_p90": tail_note(tail)})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quality_pairs": quality_pairs, "pairs": n_pairs,
              "pair_seed_base": proto.base, "replicator_seed_base": proto.rep_base,
              "env": env, "setup_probes": probes, "end_to_end": e2e, "latency_tail": tail}
    campaigns = phase.campaigns
    result_metrics = {m: {"value": e2e[m], "unit": END_TO_END[m]} for m in RESULT_END_TO_END}

    if args.trace:
        checks.update({f"traced.{k}": v for k, v in campaign_checks(traced).items()})
        moved = [(c.pair, c.arm) for c, t in zip(phase.campaigns, traced.campaigns)
                 if (c.n, c.cell, c.evaluated) != (t.n, t.cell, t.evaluated)]
        checks["first_pair_reproduces"] = (
            checks["first_pair_reproduces"][0]
            and [c.fingerprint for c in traced.campaigns[:2]] == [c.fingerprint for c in warm], [])
        checks["trace_does_not_perturb"] = (
            len(traced.campaigns) == len(phase.campaigns) and not moved, moved[:5])
        traced_q = quality(traced.campaigns, quality_pairs, r_star, tolerance)
        checks["exact_counts_match_traced"] = (traced_q == q, [traced_q] if traced_q != q else [])
        consumed = sum(c.n for c in traced.campaigns if c.pair < quality_pairs and c.ok)
        traced_cps = sum(1 for c in traced.campaigns if c.ok) / (traced.wall_ns / 1e9)
        overhead = 100.0 * (e2e["campaigns_per_s"] / traced_cps - 1.0)
        per_layer = layer_metrics(tracer, len(traced.campaigns), quality_pairs,
                                  consumed, probes, overhead)
        accounted = sum(s[5] for s in tracer.spans) / phase.wall_ns
        lo, hi = ACCOUNTED_RANGE
        checks["trace_accounts_for_time"] = (lo <= accounted <= hi, [round(accounted, 4)])
        print_table(f"per layer, traced ({len(traced.campaigns)} campaigns; untraced "
                    f"{e2e['campaigns_per_s']:.6g} vs traced {traced_cps:.6g} campaigns/s)",
                    per_layer, PER_LAYER)
        record.update(per_layer=per_layer, traced_campaigns_per_s=traced_cps,
                      trace_accounted_fraction=accounted)
        campaigns = campaigns + traced.campaigns
        result_metrics = {m: {"value": per_layer[m], "unit": u} for m, u in PER_LAYER.items()}

    print("== checks")
    for name, (ok, detail) in checks.items():
        print(f"  {'PASS' if ok else 'FAIL'} {name}" + (f" {detail}" if detail else ""))
    correct = all(ok for ok, _ in checks.values())
    record["checks"] = {k: {"ok": ok, "detail": repr(d)} for k, (ok, d) in checks.items()}
    record["errors"] = [c.error for c in campaigns if c.error][:5]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_csv(OUT / f"{stem}-spans.csv")
    print(json.dumps({"correct": correct, "attempted": len(campaigns),
                      "failed": sum(1 for c in campaigns if not c.ok),
                      "metrics": result_metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"campaign_bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
