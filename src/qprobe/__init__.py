"""Cavity-QED probing of entanglement, discord and classical correlation
for a one-parameter two-qubit state family, including spontaneous-emission
noise and a non-demolition probing protocol."""

from .qcore import (
    DensityMatrix,
    HilbertSpace,
    SpectralPropagator,
    entropy_bits,
    fidelity,
    hermitian_eigen,
    kron,
    partial_trace,
    propagate,
    psd_sqrt,
    trace_distance,
)
from .states import (
    ProbePrep,
    corner_swap,
    join_with_probe,
    one_param_density,
)
from .measures import (
    CorrelationReport,
    MeasurementBasis,
    classical_correlation_closed_form,
    classical_correlation_optimized,
    concurrence,
    concurrence_time_formula,
    conditional_entropy,
    correlation_report,
    discord,
    mutual_information,
)
from .dynamics import (
    EvolutionResult,
    ModelConfig,
    ModelVariant,
    NoiseConfig,
    build_hamiltonian,
    dispersive_deviation,
    integrate_master,
    resonant_closed_form,
)
from .protocols import (
    ProbeCycleReport,
    QndRunResult,
    ShotRecord,
    XEstimate,
    estimate_from_counts,
    find_transfer_time,
    run_probe_cycle,
    run_qnd_sequence,
    sample_shots,
)

__version__ = "0.1.0"
