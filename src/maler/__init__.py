"""Universal online convex optimization with certified regret bounds."""

from .core import Ball, ProblemParams, ProjectionError, Quadratic
from .experts import expert_regret_certificate
from .meta import (
    CertificateReport,
    CertificateRow,
    ExpertGrid,
    RunTrace,
    aggregate_play,
    build_grid,
    meta_regret_certificate,
    potential_certificate,
    update_weights,
)
from .libsvm import parse_libsvm, write_libsvm
from .universal import (
    AssumptionViolation,
    Learner,
    MalerLearner,
    OGDLearner,
    ONSLearner,
    ProtocolError,
    make_learner,
    metagrad_baseline,
    play_round,
    regret_bound_certificate,
    regret_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation",
    "Ball",
    "CertificateReport",
    "CertificateRow",
    "ExpertGrid",
    "Learner",
    "MalerLearner",
    "OGDLearner",
    "ONSLearner",
    "ProblemParams",
    "ProjectionError",
    "ProtocolError",
    "Quadratic",
    "RunTrace",
    "aggregate_play",
    "build_grid",
    "expert_regret_certificate",
    "make_learner",
    "meta_regret_certificate",
    "metagrad_baseline",
    "parse_libsvm",
    "play_round",
    "potential_certificate",
    "regret_bound_certificate",
    "regret_diagnostics",
    "update_weights",
    "write_libsvm",
]
