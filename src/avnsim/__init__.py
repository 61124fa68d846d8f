"""Simulator and verifier for a two-photon, four-dimensional
all-versus-nothing test of local realism.

The package computes the exact quantum predictions of the doubly
entangled state (polarization and path singlets), proves by exhaustive
enumeration that no local-realistic value assignment reproduces them,
models the linear-optics measurement devices, and reproduces the
published counting statistics by seeded Monte Carlo simulation.
"""

from .qstate import (
    ConsistencyError,
    Dof,
    Party,
    SubsystemSlot,
    commutator_norm,
    expectation,
    lift_local,
    mixed_expectation,
    tensor4,
)
from .observables import (
    CORRELATIONS,
    CORRELATION_IDS,
    Correlation,
    MeasurementContext,
    Setting,
    bell_operator,
    context,
    correlation_operator,
    local_observable,
    verify_eigenrelations,
)
from .source import (
    FitResult,
    NoiseModel,
    SourceConfig,
    apply_noise,
    build_psi,
    fit_noise,
    predicted_correlations,
)
from .apparatus import (
    DetectionModel,
    apparatus_vs_projective,
    bs_transform,
    build_apparatus,
    fringe_visibility,
    hwp_transform,
    phase_fringe,
)
from .lhv import (
    CONSTRAINTS,
    SYMBOLS,
    avn_audit,
    check_constraints,
    enumerate_assignments,
    lr_bound,
    parity_witness,
)
from .experiment import (
    ContextPair,
    CorrelationEstimate,
    CountTable,
    ExperimentReport,
    Schedule,
    context_pair,
    estimate_correlation,
    outcome_distribution,
    predict_exact,
    run_schedule,
    sample_events,
)
from .cli import main
