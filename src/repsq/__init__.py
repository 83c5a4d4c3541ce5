"""Repeatable statistical-query performance testing.

Wraps any mean-style performance estimator in a grid-snapping output
stage and a variance-adaptive stopping rule, so that independent runs
of the same test configuration return the same number with high
probability, the returned number is provably close to the true
measure, and low-variance strategies stop early. The harness module
provides the initiator/replicator exchange that shares a serialized
quantization grid between parties.
"""

from .artifact import (
    FORMAT_VERSION,
    RNG_ALGORITHM,
    artifact_checksum,
    build_artifact,
    dump_artifact,
    load_artifact,
    partition_from_payload,
    verify_artifact,
)
from .errors import (
    ArtifactVersionMismatch,
    BoundViolation,
    ClampWarning,
    ContractViolation,
    DegenerateBatch,
    DomainError,
    InfeasibleRepeatability,
    InsufficientSamples,
    NonTerminated,
    OracleBudgetError,
    RepsqError,
)
from ._kernels import RANGE_TERM_MODES
from .estimator import EstimatorState, bernstein_radius, hoeffding_radius, update
from .harness import (
    CampaignConfig,
    ConvergenceStudy,
    EffortComparison,
    RadiusTrace,
    RepeatabilityReport,
    TrialResult,
    campaign_stream,
    convergence_study,
    effort_comparison,
    initiator,
    pairwise_experiment,
    replication,
    replicator,
    run_quantized_sq,
)
from .quantize import (
    AccuracySpec,
    Partition,
    QuantizedValue,
    build_partition,
    collision_probability_lower_bound,
    compute_alpha,
    quantize,
)
from .samplers import (
    AisPolicy,
    BetaProposal,
    BoxDomain,
    BoxUniform,
    DiscreteDistribution,
    ais_update,
    fit_beta,
    mixture_sample_many,
    proposal_snapshot,
)
from .testbeds import (
    CellularTestbed,
    DisplacementTestbed,
    TrackingTestbed,
    convergence_study_testbed,
    moderate_cellular_testbed,
    rare_event_acceptance_testbed,
    rare_event_testbed,
    testbed_from_spec,
    tracking_loss,
)

__version__ = "0.1.0"

__all__ = [
    "FORMAT_VERSION",
    "RNG_ALGORITHM",
    "AccuracySpec",
    "AisPolicy",
    "ArtifactVersionMismatch",
    "BetaProposal",
    "BoundViolation",
    "BoxDomain",
    "BoxUniform",
    "CampaignConfig",
    "CellularTestbed",
    "ClampWarning",
    "ContractViolation",
    "ConvergenceStudy",
    "DegenerateBatch",
    "DiscreteDistribution",
    "DisplacementTestbed",
    "DomainError",
    "EffortComparison",
    "EstimatorState",
    "InfeasibleRepeatability",
    "InsufficientSamples",
    "NonTerminated",
    "OracleBudgetError",
    "Partition",
    "QuantizedValue",
    "RANGE_TERM_MODES",
    "RadiusTrace",
    "RepeatabilityReport",
    "RepsqError",
    "TrackingTestbed",
    "TrialResult",
    "ais_update",
    "artifact_checksum",
    "bernstein_radius",
    "build_artifact",
    "build_partition",
    "campaign_stream",
    "collision_probability_lower_bound",
    "compute_alpha",
    "convergence_study",
    "convergence_study_testbed",
    "dump_artifact",
    "effort_comparison",
    "fit_beta",
    "hoeffding_radius",
    "initiator",
    "load_artifact",
    "mixture_sample_many",
    "moderate_cellular_testbed",
    "pairwise_experiment",
    "partition_from_payload",
    "proposal_snapshot",
    "quantize",
    "rare_event_acceptance_testbed",
    "rare_event_testbed",
    "replication",
    "replicator",
    "run_quantized_sq",
    "testbed_from_spec",
    "tracking_loss",
    "update",
    "verify_artifact",
    "__version__",
]
