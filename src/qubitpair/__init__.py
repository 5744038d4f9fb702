"""Pure two-qubit states: six-angle parameterization, phase-fixed Schmidt
decomposition into two local spinors, and exactly separable local-unitary
dynamics with a scalar-phase ledger."""

from .states import (
    EPS_DEGEN,
    EPS_MATCH,
    EPS_NORM,
    EPS_POLE,
    AngleSet,
    ConsistencyError,
    MaximalEntanglement,
    PoleSingularity,
    SeparableGamma,
    SpinorDecomposition,
    angles_from_state,
    as_spinor,
    as_state,
    concurrence,
    concurrence_angle,
    decompose,
    fix_global_phase,
    parity,
    reconstruct,
    reconstruct_from_products,
    recurrence_sine,
    spherical_angles,
    spinor_bloch_vector,
    spinor_from_angles,
    state_bloch_vector,
    state_from_angles,
    wrap_angle,
)

from .dynamics import (
    ZERO_HAMILTONIAN,
    DegenerateState,
    EvolutionReport,
    LocalHamiltonian,
    NonUnitDirection,
    PhaseLedger,
    Schedule,
    StepOverflow,
    aligned_hamiltonian,
    aligned_mode_coefficients,
    as_schedule,
    compare_backends,
    compound_rotation_check,
    evolve_full,
    evolve_full_schedule,
    evolve_separable,
    evolve_separable_schedule,
    evolve_separable_state,
    local_unitary,
    recurrence_drift,
    su2_operator,
)

from .measurement import (
    born_full,
    born_local,
    sample_fixed_concurrence,
    sample_haar,
)

from .bench import BenchReport, run_benchmark
from .verify import PropertyResult, run_suite

__version__ = "0.1.0"
