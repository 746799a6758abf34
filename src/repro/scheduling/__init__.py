"""Static scheduling: SDF rates, schedules, wavefronts, verification."""

from repro import lazy_getattr
from repro.scheduling.rates import repetitions, steady_state_items
from repro.scheduling.steady import ProgramSchedule, Schedule, build_schedule, init_counts

#: Teleport constraints, SDEP and verification, imported on first use: a
#: run without portals or feedback loops never loads them.
__getattr__ = lazy_getattr(__name__, {
    "repro.scheduling.constraints": (
        "Configuration", "ConstraintSystem", "MessageConstraint", "max_latency",
    ),
    "repro.scheduling.sdep": (
        "TransferFunction", "WavefrontOracle", "filter_tf", "identity_tf",
        "joiner_branch_tf", "pipeline_tf", "splitter_branch_tf",
    ),
    "repro.scheduling.verification": (
        "DEADLOCK", "OK", "OVERFLOW", "LoopVerdict", "VerificationReport",
        "analyze_feedback_loop", "splitjoin_drift", "steady_gain", "verify_program",
    ),
})

__all__ = [
    "repetitions",
    "steady_state_items",
    "Schedule",
    "ProgramSchedule",
    "build_schedule",
    "init_counts",
    "TransferFunction",
    "WavefrontOracle",
    "filter_tf",
    "identity_tf",
    "splitter_branch_tf",
    "joiner_branch_tf",
    "pipeline_tf",
    "MessageConstraint",
    "ConstraintSystem",
    "Configuration",
    "max_latency",
    "steady_gain",
    "verify_program",
    "analyze_feedback_loop",
    "splitjoin_drift",
    "LoopVerdict",
    "VerificationReport",
    "OK",
    "DEADLOCK",
    "OVERFLOW",
]
