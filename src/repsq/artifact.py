"""Shared-artifact serialization: the file an initiating party hands to
every replicating party.

The artifact pins everything two independent campaigns must agree on
for their quantized outputs to be comparable: the partition (interval,
cell width, offset, and cell count), the accuracy triple, the declared
bounds, the termination mode, the testbed descriptor, and the sampler
descriptor. A sha256 checksum over the canonical JSON payload makes
tampering and version drift detectable rather than silently corrupting
repeatability, and a layout check rejects a well-sealed artifact whose
fields are missing or of the wrong JSON type.

Floats cross the wire as decimal strings with 17 significant digits,
which round-trip binary64 exactly; a loaded artifact therefore rebuilds
the partition bit for bit, and the rebuilt cell count is checked against
the serialized one before use.
"""

from __future__ import annotations

import hashlib
import json
import math

from .errors import ArtifactVersionMismatch, DomainError
from .quantize import Partition, build_partition

__all__ = [
    "FORMAT_VERSION",
    "RNG_ALGORITHM",
    "fmt17",
    "parse17",
    "partition_to_payload",
    "partition_from_payload",
    "build_artifact",
    "verify_artifact",
    "artifact_checksum",
    "dump_artifact",
    "load_artifact",
]

FORMAT_VERSION = "repsq-artifact-2"
RNG_ALGORITHM = "numpy-pcg64-ss1"


def fmt17(x: float) -> str:
    """Decimal string with 17 significant digits; exact for binary64."""
    if not math.isfinite(x):
        raise DomainError(f"cannot serialize non-finite value {x}")
    return f"{float(x):.17g}"


def parse17(s) -> float:
    try:
        v = float(s)
    except (TypeError, ValueError) as exc:
        raise ArtifactVersionMismatch(f"unparseable numeric field {s!r}") from exc
    if not math.isfinite(v):
        raise ArtifactVersionMismatch(f"non-finite numeric field {s!r}")
    return v


def partition_to_payload(partition: Partition, gamma: float, c: float, beta: float) -> dict:
    """The partition-exchange block: the grid scalars, from which every
    boundary follows, and the cell count they yield."""
    return {
        "m_low": fmt17(partition.m_low),
        "m_high": fmt17(partition.m_high),
        "alpha": fmt17(partition.alpha),
        "offset": fmt17(partition.offset),
        "n_cells": partition.n_cells,
        "gamma": fmt17(gamma),
        "c": fmt17(c),
        "beta": fmt17(beta),
        "format_version": FORMAT_VERSION,
    }


def partition_from_payload(payload: dict) -> Partition:
    """Rebuild the partition and verify it has the serialized cell count."""
    if payload.get("format_version") != FORMAT_VERSION:
        raise ArtifactVersionMismatch(
            f"partition format {payload.get('format_version')!r}, "
            f"expected {FORMAT_VERSION!r}"
        )
    part = build_partition(
        parse17(payload["m_low"]),
        parse17(payload["m_high"]),
        parse17(payload["alpha"]),
        parse17(payload["offset"]),
    )
    sent = payload.get("n_cells")
    if sent != part.n_cells:
        raise ArtifactVersionMismatch(
            f"serialized cell count {sent!r} does not match "
            f"the rebuilt partition's {part.n_cells}"
        )
    return part


def _canonical_bytes(payload: dict) -> bytes:
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def artifact_checksum(payload: dict) -> str:
    return hashlib.sha256(_canonical_bytes(payload)).hexdigest()


def build_artifact(
    partition: Partition,
    *,
    gamma: float,
    c: float,
    beta: float,
    bounds: dict,
    range_term_mode: str,
    testbed_spec: dict,
    sampler_spec: dict,
    n_min: int,
    n_max: int,
) -> dict:
    art = {
        "format_version": FORMAT_VERSION,
        "rng_algorithm": RNG_ALGORITHM,
        "partition": partition_to_payload(partition, gamma, c, beta),
        "bounds": {
            "m": fmt17(bounds["m"]),
            "w_bar": fmt17(bounds["w_bar"]),
            "joint": None if bounds.get("joint") is None else fmt17(bounds["joint"]),
        },
        "range_term_mode": range_term_mode,
        "testbed": testbed_spec,
        "sampler": sampler_spec,
        "n_min": int(n_min),
        "n_max": int(n_max),
    }
    art["checksum"] = artifact_checksum(art)
    return art


# The JSON type(s) of every field build_artifact writes. Decimal strings
# are parsed (and rejected when malformed) by parse17 where they are read.
_NUMBER = (int, float)
_LAYOUT = {
    "partition": dict,
    "bounds": dict,
    "range_term_mode": str,
    "testbed": dict,
    "sampler": dict,
    "n_min": _NUMBER,
    "n_max": _NUMBER,
}
_BLOCK_LAYOUTS = {
    "partition": {
        "m_low": str,
        "m_high": str,
        "alpha": str,
        "offset": str,
        "n_cells": int,
        "gamma": str,
        "c": str,
        "beta": str,
    },
    "bounds": {"m": str, "w_bar": str, "joint": (str, type(None))},
}


def _check_fields(block: dict, layout: dict, where: str) -> None:
    for key, types in layout.items():
        if key not in block:
            raise ArtifactVersionMismatch(f"artifact has no field {where}{key}")
        value = block[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ArtifactVersionMismatch(
                f"artifact field {where}{key} has the wrong JSON type: {value!r}"
            )


def _check_layout(art: dict) -> None:
    """Every field build_artifact writes is present, with the JSON type
    it writes."""
    _check_fields(art, _LAYOUT, "")
    for block, layout in _BLOCK_LAYOUTS.items():
        _check_fields(art[block], layout, f"{block}.")


def verify_artifact(art: dict) -> dict:
    """Checksum, version and layout gate; returns the artifact unchanged."""
    if not isinstance(art, dict):
        raise ArtifactVersionMismatch("artifact is not a JSON object")
    if art.get("format_version") != FORMAT_VERSION:
        raise ArtifactVersionMismatch(
            f"artifact format {art.get('format_version')!r}, expected {FORMAT_VERSION!r}"
        )
    if art.get("rng_algorithm") != RNG_ALGORITHM:
        raise ArtifactVersionMismatch(
            f"artifact rng algorithm {art.get('rng_algorithm')!r}, "
            f"expected {RNG_ALGORITHM!r}"
        )
    stored = art.get("checksum")
    actual = artifact_checksum(art)
    if stored != actual:
        raise ArtifactVersionMismatch(
            f"artifact checksum {stored!r} does not match content {actual!r}"
        )
    _check_layout(art)
    return art


def dump_artifact(art: dict) -> str:
    return json.dumps(art, indent=2, sort_keys=True) + "\n"


def load_artifact(text: str) -> dict:
    try:
        art = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactVersionMismatch(f"artifact is not valid JSON: {exc}") from exc
    return verify_artifact(art)
