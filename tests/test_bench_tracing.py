"""The campaign benchmark's tracer still finds every layer boundary.

The tracer in ``campaign_bench/tracing.py`` replaces library functions by
name, in the namespace where their callers look them up. A refactor that
moves a call elsewhere would leave its wrapper uncalled and its layer
reading 0 in the benchmark's per-layer figures, so these tests resolve
every target and run a short traced AIS campaign.
"""

import importlib.util
from pathlib import Path

import repsq
from repsq import harness
from repsq.harness import CampaignConfig, campaign_stream
from repsq.quantize import AccuracySpec, build_partition, compute_alpha
from repsq.testbeds import TrackingTestbed

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "campaign_bench_tracing", ROOT / "campaign_bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_targets_resolve_every_target():
    tracing = load_tracing()
    targets = tracing.layer_targets(repsq, tracing.Tracer())
    assert targets
    for owner, attr, new in targets:
        assert attr in vars(owner) and callable(new)


def test_traced_ais_campaign_records_draw_and_refit_spans():
    tracing = load_tracing()
    bed = TrackingTestbed()
    cfg = CampaignConfig(
        accuracy=AccuracySpec(0.1, 0.05, 0.1),
        joint=None,
        sampler={"kind": "ais", "mix_p": 0.1, "d": 10},
        testbed=bed,
        seed=5,
        n_max=20_000,
    )
    partition = build_partition(0.0, 1.0, compute_alpha(cfg.accuracy), 0.0)
    tracer = tracing.Tracer()
    with tracing.patched(tracing.layer_targets(repsq, tracer)):
        res = harness.run_quantized_sq(cfg, partition, campaign_stream(5, 0, 0))
    assert res.terminated
    counts = {}
    for span in tracer.spans:
        name = tracer.names[span[2]]
        counts[name] = counts.get(name, 0) + 1
    # The batches before the stop floor share scans.
    assert 1 <= counts["kernels.scan_terminate"] < res.chunks
    assert counts["samplers.mixture_sample_many"] == res.chunks
    assert counts["samplers.ais_update"] == res.chunks - 1
    # The campaign loop runs each chunk's tests in one call.
    assert counts["testbeds.evaluate_many"] == res.chunks
    assert counts["harness.run_quantized_sq"] == 1
