"""Executable probe protocols: single-probe readout cycle and the
non-demolition sequence with alternating probe preparations.

A probe cycle attaches a ground probe, evolves to an odd half-period,
reads sigma_z statistics and verifies that the correlation measures of
the pair are untouched.  The non-demolition sequence alternates excited
and ground probes under the exchange model: the excited stage maps the
family state onto its corner swap and the ground stage restores it
exactly, so measurement statistics can be accumulated over many cycles.

Shot sampling is counter based (SplitMix64 keyed by seed and shot
index), so identical inputs give identical records on any platform and
stages can be sampled concurrently.  Shot i is excited iff
u_i = z_i / 2^64 < p for its 64-bit word z_i.  Since float() is
monotone, that holds exactly when z_i is below one integer cutoff of p,
so the words are compared as integers and never converted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# the readout laws live in measures; they are re-exported from here
from .measures import (
    EXCHANGE_E_READOUT,
    EXCHANGE_G_READOUT,
    RESONANT_READOUT,
    CorrelationReport,
    ReadoutModel,
    correlation_report,
)
from .qcore import (
    DensityMatrix,
    SpectralPropagator,
    check_density_stack,
    fidelity,
    partial_trace,
    partial_trace_mat,
    trace_distance,
)
from .states import (
    ProbePrep,
    corner_swap,
    join_with_probe,
    one_param_density,
    two_qubit_space,
)
from .dynamics import (
    MIN_DISPERSIVE_DELTA,
    TWO_LEVEL_INDEX,
    ModelConfig,
    ModelVariant,
    NoiseConfig,
    initial_joint,
    integrate_master,
    sigma_z_expectation,
)

RESTORED_TOL = 1e-8
#: most half periods a probe cycle accepts; the spectral propagator's
#: eigenphase roundoff grows with t and moves x_hat by 1e-12 at 10^10
MAX_HALF_PERIODS = 10 ** 6
Z99 = 2.5758293035489004  # two-sided 99% normal quantile


# ---------------------------------------------------------------------------
# deterministic counter-based sampling

_MASK64 = (1 << 64) - 1
_GAMMA64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: counters drawn per block; keeps sampling memory bounded for any shot count
SHOT_BLOCK = 2 ** 16
#: most shots drawn per call (all stages together in a non-demolition
#: sequence); sampling time grows linearly with the shot count
MAX_SHOTS = 10 ** 9


def _splitmix64(z: int) -> int:
    z = (z + _GAMMA64) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, stream: int) -> int:
    """Independent substream seed for (seed, stream index)."""
    return _splitmix64(_splitmix64(seed & _MASK64) ^ ((stream + 1) & _MASK64))


def _excited_cutoff(p: float) -> int:
    """Smallest word z with float(z) / 2^64 >= p.

    float() is monotone on [0, 2^64), so {z : float(z) / 2^64 < p} is
    exactly the prefix [0, cutoff).  Scaling by 2^64 is exact, so the
    bisection compares float(z) with p * 2^64.  Every word at or above
    2^64 - 2^10 rounds to 2^64, so the cutoff is below 2^64 even at p = 1.
    """
    scaled = p * 2.0 ** 64
    lo, hi = 0, _MASK64
    while lo < hi:
        mid = (lo + hi) // 2
        if float(mid) >= scaled:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class ShotRecord:
    """Binomial measurement record of one stage."""

    shots: int
    count_excited: int
    seed: int

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be nonnegative")
        if not 0 <= self.count_excited <= max(self.shots, 0):
            raise ValueError("count out of range")

    @property
    def frequency(self) -> float:
        if self.shots == 0:
            raise ValueError("no shots recorded")
        return self.count_excited / self.shots


def sample_shots(p_excited: float, shots: int, seed: int) -> ShotRecord:
    """Deterministic binomial draw: shot i is excited iff u_i < p.

    u_i = z_i / 2^64 for the SplitMix64 word z_i of (seed-derived base
    + i), so the record depends only on (p, shots, seed).  The words are
    compared with the integer cutoff of p instead of being converted:
    u_i < p exactly when z_i is below it.  Counters are hashed in place,
    in blocks of SHOT_BLOCK, so memory does not grow with the shot count.
    """
    if not 0.0 <= p_excited <= 1.0:
        raise ValueError("probability out of range")
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots exceed {MAX_SHOTS}")
    cutoff = np.uint64(_excited_cutoff(p_excited))
    base = _splitmix64(seed & _MASK64)
    size = min(shots, SHOT_BLOCK)
    offsets = np.arange(size, dtype=np.uint64)
    z = np.empty(size, dtype=np.uint64)
    t = np.empty(size, dtype=np.uint64)
    count = 0
    for start in range(0, shots, SHOT_BLOCK):
        n = min(SHOT_BLOCK, shots - start)
        zb, tb = z[:n], t[:n]
        # the first counter of the block, (base + start + gamma) mod 2^64,
        # in Python ints: numpy scalar arithmetic would warn on the wrap
        np.add(offsets[:n], np.uint64((base + start + _GAMMA64) & _MASK64), out=zb)
        np.right_shift(zb, np.uint64(30), out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, np.uint64(_MIX1), out=zb)
        np.right_shift(zb, np.uint64(27), out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, np.uint64(_MIX2), out=zb)
        np.right_shift(zb, np.uint64(31), out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        count += int(np.count_nonzero(zb < cutoff))
    return ShotRecord(shots, count, seed)


# ---------------------------------------------------------------------------
# estimation

@dataclass(frozen=True)
class XEstimate:
    """Estimated family parameter with uncertainty and derived measures."""

    x_hat: float
    stderr: float
    ci99: tuple[float, float]
    derived: CorrelationReport

    def __post_init__(self):
        lo, hi = self.ci99
        if not lo <= self.x_hat <= hi:
            raise ValueError("estimate outside its own interval")


def _clamp(v: float) -> float:
    return min(1.0, max(0.5, v))


def estimate_from_counts(
    records: Sequence[tuple[ReadoutModel, ShotRecord]],
) -> XEstimate:
    """Pooled inverse-variance estimate of x from grouped shot records.

    Each group is inverted through its affine readout map; binomial
    variances propagate through the slope, with a 1/(4n) floor so
    boundary frequencies keep a finite weight.
    """
    records = [(m, r) for m, r in records if r.shots > 0]
    if not records:
        raise ValueError("no shots to estimate from")
    num = 0.0
    den = 0.0
    for model, rec in records:
        p_hat = rec.frequency
        var_p = max(p_hat * (1.0 - p_hat), 0.25 / rec.shots) / rec.shots
        var_x = var_p / model.slope ** 2
        w = 1.0 / var_x
        num += w * model.invert(p_hat)
        den += w
    x_raw = num / den
    stderr = float(np.sqrt(1.0 / den))
    x_hat = _clamp(x_raw)
    lo = _clamp(x_raw - Z99 * stderr)
    hi = _clamp(x_raw + Z99 * stderr)
    return XEstimate(x_hat, stderr, (lo, hi), correlation_report(one_param_density(x_hat)))


def estimate_exact(
    probabilities: Sequence[tuple[ReadoutModel, float]],
) -> XEstimate:
    """Infinite-statistics estimate from exact stage probabilities."""
    if not probabilities:
        raise ValueError("no probabilities to estimate from")
    num = sum(m.slope * (p - m.offset) for m, p in probabilities)
    den = sum(m.slope ** 2 for m, _ in probabilities)
    x_hat = _clamp(num / den)
    return XEstimate(
        x_hat, 0.0, (x_hat, x_hat), correlation_report(one_param_density(x_hat))
    )


# ---------------------------------------------------------------------------
# single-probe readout cycle (resonant models)

@dataclass(frozen=True)
class ProbeCycleReport:
    """Outcome of one ground-probe readout cycle."""

    t_read: float
    mean_sigma_z: float
    post_state: DensityMatrix
    state_restored: bool
    measures_before: CorrelationReport
    measures_after: CorrelationReport


def run_probe_cycle(
    x: float,
    cfg: ModelConfig,
    n_half_periods: int = 1,
    noise: Optional[NoiseConfig] = None,
) -> ProbeCycleReport:
    """Attach a ground probe, evolve to t = n pi/2, read sigma_z.

    n must be odd (at even multiples the probe returns to its ground
    state and carries no information) and at most MAX_HALF_PERIODS.
    Without noise the pair state lands exactly on the corner swap of the
    family state while every correlation measure is preserved.  With
    noise the master equation is propagated exactly
    (``dynamics.integrate_master``).
    """
    if cfg.variant not in (ModelVariant.RESONANT_QUBIT, ModelVariant.RESONANT_BOSON):
        raise ValueError("probe cycle runs on the resonant models")
    n = int(n_half_periods)
    if n < 1 or n % 2 == 0:
        raise ValueError("no readout information at even multiples")
    if n > MAX_HALF_PERIODS:
        raise ValueError(f"n exceeds {MAX_HALF_PERIODS} half periods")
    noise = noise or NoiseConfig()
    rho0 = one_param_density(x)
    joint0 = initial_joint(x, cfg, ProbePrep.GROUND)
    t_read = n * np.pi / 2.0

    if noise.gamma == 0.0 and noise.collapse_ops is None:
        prop = SpectralPropagator.from_hamiltonian(cfg.hamiltonian)
        joint = prop.apply(joint0, t_read)
        reduced = partial_trace(joint, {0, 1})
        probe = partial_trace(joint, {2})
    else:
        result = integrate_master(joint0, cfg, noise, t_read)
        reduced = result.reduced_ab[-1]
        probe = result.probe[-1]

    if cfg.variant is ModelVariant.RESONANT_BOSON:
        # compare on the two-level subspace populations
        post = boson_pair_to_qubits(reduced)
    else:
        post = reduced

    return ProbeCycleReport(
        t_read=t_read,
        mean_sigma_z=sigma_z_expectation(probe),
        post_state=post,
        state_restored=trace_distance(post.mat, rho0.mat) <= RESTORED_TOL,
        measures_before=correlation_report(rho0),
        measures_after=correlation_report(post),
    )


def boson_pair_to_qubits_stack(blocks: np.ndarray) -> np.ndarray:
    """Conditional pair states from their (n, 4, 4) {0, 1}-photon blocks.

    ``blocks`` holds each pair state restricted to ``TWO_LEVEL_INDEX``;
    every block is renormalized to unit trace and checked as
    DensityMatrix checks a state.
    """
    out = blocks / np.trace(blocks, axis1=1, axis2=2).real[:, None, None]
    check_density_stack(out)
    return out


def boson_pair_to_qubits(reduced: DensityMatrix) -> DensityMatrix:
    """Conditional pair state on the {0, 1}-photon subspace.

    Population that leaked above one photon per mode is projected out
    and the block renormalized, so the measures see the state actually
    comparable with the two-level family.
    """
    block = reduced.mat[np.ix_(TWO_LEVEL_INDEX, TWO_LEVEL_INDEX)]
    return DensityMatrix(two_qubit_space(), boson_pair_to_qubits_stack(block[None])[0])


# ---------------------------------------------------------------------------
# transfer timing for the exchange model

_FIDELITY_X_GRID = (0.6, 0.75, 0.9)


def _exchange_propagator(j: float) -> SpectralPropagator:
    cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=1.0 / (2.0 * j))
    return SpectralPropagator.from_hamiltonian(cfg.hamiltonian)


def _swap_fidelity(prop: SpectralPropagator, t: float) -> float:
    total = 0.0
    for x in _FIDELITY_X_GRID:
        rho0 = one_param_density(x)
        joint = join_with_probe(rho0, ProbePrep.EXCITED)
        evolved = prop.apply_mat(joint.mat, t)
        ab = partial_trace_mat(evolved, (2, 2, 2), {0, 1})
        total += fidelity(ab, corner_swap(rho0).mat)
    return total / len(_FIDELITY_X_GRID)


def find_transfer_time(j: float) -> float:
    """Time of the first complete corner-swap transfer, pi / (2 sqrt(2) J).

    The probe exchanges its excitation with the symmetric mode of the
    pair, whose collective coupling is sqrt(2) J, so the swap completes
    in closed form when sqrt(2) J t = pi / 2.  The time is checked
    against the swap fidelity, which must reach 1 - 1e-9.
    """
    if j <= 0:
        raise ValueError("exchange strength must be positive")
    prop = _exchange_propagator(j)  # its config rejects a non-finite period
    t_star = np.pi / (2.0 * np.sqrt(2.0) * j)
    if _swap_fidelity(prop, t_star) < 1.0 - 1e-9:
        raise ValueError("no clean transfer")
    return float(t_star)


@dataclass(frozen=True)
class TransferTimeReport:
    """Fidelity of the located transfer time vs the delta*pi/g^2 candidate."""

    best_time: float
    best_fidelity: float
    candidate_time: float
    candidate_fidelity: float


def transfer_time_report(j: float) -> TransferTimeReport:
    """Evaluate both transfer-time candidates for the exchange model.

    The delta*pi/g^2 rule equals pi/(2J); the collective coupling of
    the symmetric mode is sqrt(2) J, so the actual full swap happens a
    factor sqrt(2) earlier.  Both fidelities are reported so the
    shortfall is documented rather than silently corrected.
    """
    prop = _exchange_propagator(j)
    best = find_transfer_time(j)
    candidate = np.pi / (2.0 * j)
    return TransferTimeReport(
        best_time=best,
        best_fidelity=_swap_fidelity(prop, best),
        candidate_time=float(candidate),
        candidate_fidelity=_swap_fidelity(prop, candidate),
    )


# ---------------------------------------------------------------------------
# non-demolition sequence

#: most cycles in one sequence; every stage is kept in the result
MAX_QND_CYCLES = 10_000


@dataclass(frozen=True)
class QndStage:
    """One stage of the sequence: preparation, duration, exact outcome law."""

    probe_prep: ProbePrep
    duration: float
    outcome_p_excited: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.outcome_p_excited <= 1.0:
            raise ValueError("probability out of range")


@dataclass(frozen=True)
class QndStageResult:
    stage: QndStage
    shots: ShotRecord


@dataclass(frozen=True)
class QndRunResult:
    final_state: DensityMatrix
    stages: tuple[QndStageResult, ...]
    estimate: XEstimate


def run_qnd_sequence(
    x: float,
    cfg: Optional[ModelConfig] = None,
    n_cycles: int = 3,
    shots_per_stage: int = 0,
    seed: int = 0,
) -> QndRunResult:
    """Alternating excited/ground probe cycles under the exchange model.

    Each cycle runs an excited-probe stage (pair state -> corner swap)
    followed by a ground-probe stage (pair state restored); the probe
    is measured and discarded after every stage.  Outcomes are grouped
    by preparation and pooled into the estimate.  ``shots_per_stage``
    of zero selects exact-statistics mode, separating protocol
    correctness from sampling noise.  The exchange model is the
    dispersive limit of the cavity model, so detunings below
    MIN_DISPERSIVE_DELTA are rejected.
    """
    cfg = cfg or ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0)
    if cfg.variant is not ModelVariant.DISPERSIVE_EFFECTIVE:
        raise ValueError("non-demolition sequence runs on the exchange model")
    if not cfg.delta >= MIN_DISPERSIVE_DELTA:
        raise ValueError(
            f"non-demolition sequence needs delta >= {MIN_DISPERSIVE_DELTA:g} g: "
            "the exchange model does not hold closer to resonance"
        )
    if n_cycles < 1:
        raise ValueError("need at least one cycle")
    if n_cycles > MAX_QND_CYCLES:
        raise ValueError(f"cycles exceed {MAX_QND_CYCLES}")
    if 2 * n_cycles * shots_per_stage > MAX_SHOTS:
        raise ValueError(f"total shots exceed {MAX_SHOTS}")
    t_star = find_transfer_time(cfg.j_exchange)
    prop = SpectralPropagator.from_hamiltonian(cfg.hamiltonian)

    state = one_param_density(x)
    stages: list[QndStageResult] = []
    stage_index = 0
    for _ in range(int(n_cycles)):
        for prep in (ProbePrep.EXCITED, ProbePrep.GROUND):
            joint = prop.apply(join_with_probe(state, prep), t_star)
            probe = partial_trace(joint, {2})
            p_e = min(1.0, max(0.0, float(probe.mat[0, 0].real)))
            record = sample_shots(p_e, shots_per_stage, derive_seed(seed, stage_index))
            stages.append(
                QndStageResult(QndStage(prep, t_star, p_e), record)
            )
            state = partial_trace(joint, {0, 1})
            stage_index += 1

    groups = {ProbePrep.EXCITED: EXCHANGE_E_READOUT, ProbePrep.GROUND: EXCHANGE_G_READOUT}
    if shots_per_stage == 0:
        probs = [
            (groups[s.stage.probe_prep], s.stage.outcome_p_excited) for s in stages
        ]
        estimate = estimate_exact(probs)
    else:
        pooled: dict[ProbePrep, tuple[int, int]] = {}
        for s in stages:
            n, k = pooled.get(s.stage.probe_prep, (0, 0))
            pooled[s.stage.probe_prep] = (n + s.shots.shots, k + s.shots.count_excited)
        records = [
            (groups[prep], ShotRecord(n, k, seed)) for prep, (n, k) in pooled.items()
        ]
        estimate = estimate_from_counts(records)
    return QndRunResult(final_state=state, stages=tuple(stages), estimate=estimate)
