"""Shared-artifact serialization: the file an initiating party hands to
every replicating party.

The artifact is the initiator's campaign config, sealed: its ``config``
block is exactly ``CampaignConfig.to_dict()`` without the seed (each
party picks its own), and its ``grid`` block holds the cell width, the
first-cell offset and the cell count of the partition on the config's
interval. A sha256 checksum over the canonical JSON of the rest makes
tampering and version drift detectable rather than silently corrupting
repeatability. The sealed config is read back by the config reader
itself (``harness.replication``), so a config and an artifact
accept exactly the same content.

``load_artifact`` only parses the text; ``harness.replication`` checks
the seal, through ``verify_artifact``, before it reads anything sealed.

Floats are JSON numbers. Python writes every float in its shortest
round-trip form, so a loaded artifact rebuilds the partition bit for
bit; the rebuilt cell count is checked against the sealed one before
use.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

from ._fields import mapping, real
from .errors import ArtifactVersionMismatch, BoundViolation, DomainError, InfeasibleRepeatability
from .quantize import Partition, build_partition

__all__ = [
    "FORMAT_VERSION",
    "RNG_ALGORITHM",
    "partition_from_payload",
    "build_artifact",
    "verify_artifact",
    "artifact_checksum",
    "dump_artifact",
    "load_artifact",
]

FORMAT_VERSION = "repsq-artifact-5"
RNG_ALGORITHM = "numpy-pcg64-ss1"

_KEYS = {"format_version", "rng_algorithm", "checksum", "config", "grid"}
_GRID_KEYS = {"alpha", "offset", "n_cells"}


@contextmanager
def sealed_content(what: str):
    """Report invalid sealed content as a bad artifact, not as bad input:
    a checksummed artifact holds only what an initiator wrote, and an
    initiator never writes what its own config reader rejects."""
    try:
        yield
    except (DomainError, InfeasibleRepeatability, BoundViolation) as exc:
        raise ArtifactVersionMismatch(f"artifact {what}: {exc}") from exc


def partition_from_payload(grid: dict, m_low: float, m_high: float) -> Partition:
    """Rebuild the sealed grid on [m_low, m_high] and verify it has the
    sealed cell count, the one count check (a Partition derives its own)."""
    with sealed_content("grid"):
        grid = mapping(grid, "grid")
        if grid.keys() != _GRID_KEYS:
            raise DomainError(f"grid keys {sorted(grid)}, expected {sorted(_GRID_KEYS)}")
        part = build_partition(
            m_low, m_high, real(grid["alpha"], "alpha"), real(grid["offset"], "offset")
        )
    sent = grid["n_cells"]
    if type(sent) is not int or sent != part.n_cells:
        raise ArtifactVersionMismatch(
            f"sealed cell count {sent!r} does not match "
            f"the rebuilt partition's {part.n_cells}"
        )
    return part


def _canonical_bytes(payload: dict) -> bytes:
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def artifact_checksum(payload: dict) -> str:
    return hashlib.sha256(_canonical_bytes(payload)).hexdigest()


def build_artifact(config, partition: Partition) -> dict:
    """Seal ``config`` (a CampaignConfig) without its seed, and the grid
    of ``partition``."""
    sealed = config.to_dict()
    del sealed["seed"]
    art = {
        "format_version": FORMAT_VERSION,
        "rng_algorithm": RNG_ALGORITHM,
        "config": sealed,
        "grid": {
            "alpha": partition.alpha,
            "offset": partition.offset,
            "n_cells": partition.n_cells,
        },
    }
    art["checksum"] = artifact_checksum(art)
    return art


def verify_artifact(art: dict) -> dict:
    """Checksum, version and key gate; returns the artifact unchanged.
    The sealed content is read by ``harness.replication`` and
    ``partition_from_payload``."""
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
    if art.keys() != _KEYS:
        raise ArtifactVersionMismatch(f"artifact keys {sorted(art)}, expected {sorted(_KEYS)}")
    return art


def dump_artifact(art: dict) -> str:
    """Compact, key-sorted JSON text. Without ``indent`` Python uses its C
    encoder; ``load_artifact`` reads an indented text all the same."""
    return json.dumps(art, sort_keys=True, separators=(",", ":")) + "\n"


def load_artifact(text: str) -> dict:
    """Parse artifact text. The seal is checked by ``replicator``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactVersionMismatch(f"artifact is not valid JSON: {exc}") from exc
