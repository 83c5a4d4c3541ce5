"""Initiator and replicator results of the non-AIS configs, pinned bit
for bit.

For the four non-AIS bundled configs and the benchmark's early_stop and
deep_scan workload configs, under both offset policies, the records in
``result_bits.json`` hold ``initiator(config)[1].to_dict()`` and
``replicator(load_artifact(dump_artifact(artifact)), 12345).to_dict()``
with every float as ``float.hex()``. They were recorded before the
artifact became a sealed config (format 3), so they show that the
format change moved no result bit. They were re-recorded twice since.
First, when chunks came to be sized from the stopping rule: that moved
only ``evaluated_n`` and ``chunks``, and added ``range_term_sound``.
Second, when every bed came to be checked against the declared weight
cap: a checked bed draws no weight above it, so the count of such
weights, ``weight_cap_violations``, was deleted from every record; no
other value moved. AIS campaigns are pinned in ``test_ais_bits.py``.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from repsq.artifact import dump_artifact, load_artifact
from repsq.harness import CampaignConfig, initiator, replicator

ROOT = Path(__file__).resolve().parents[1]
RECORDS = json.loads((Path(__file__).with_name("result_bits.json")).read_text())

BUNDLED = ["displacement_star", "moderate_cellular", "rare_event_acceptance", "zero_variance"]
WORKLOADS = ["early_stop", "deep_scan"]
REPLICATOR_SEED = 12345


def config_dict(name: str) -> dict:
    if name in WORKLOADS:
        path = ROOT / "campaign_bench" / "workloads" / f"{name}.json"
        return json.loads(path.read_text())["config"]
    return json.loads((resources.files("repsq") / "configs" / f"{name}.json").read_text())


def hexed(d: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in d.items()}


def record(name: str, offset_policy: str) -> dict:
    cfg = CampaignConfig.from_dict(dict(config_dict(name), offset_policy=offset_policy))
    art, init = initiator(cfg)
    rep = replicator(load_artifact(dump_artifact(art)), REPLICATOR_SEED)
    return {"initiator": hexed(init.to_dict()), "replicator": hexed(rep.to_dict())}


def test_records_cover_every_config_and_policy():
    assert sorted(RECORDS) == sorted(
        f"{name}/{policy}" for name in BUNDLED + WORKLOADS for policy in ("zero", "uniform-random")
    )


@pytest.mark.parametrize("policy", ["zero", "uniform-random"])
@pytest.mark.parametrize("name", BUNDLED + WORKLOADS)
def test_initiator_and_replicator_bits(name, policy):
    assert record(name, policy) == RECORDS[f"{name}/{policy}"]
