"""Executable probe protocols: single-probe readout cycle and the
non-demolition sequence with alternating probe preparations.

A probe cycle attaches a ground probe, evolves to an odd half-period,
reads sigma_z statistics and verifies that the correlation measures of
the pair are untouched.  The non-demolition sequence alternates excited
and ground probes under the exchange model, each stage one fixed 16 x 16
map of the pair (the probe is discarded): the excited stage maps the
family state onto its corner swap and the ground stage restores it
exactly, so measurement statistics can be accumulated over many cycles.
Each protocol stage is one pass over the whole stack: one readout of
every cycle's row, one array and one check of every sequence pair.
Every readout is an affine law P(excited) = offset + slope x
(``ReadoutModel``), inverted here alone: by ``estimate_exact`` for exact
probabilities and by ``estimate_from_counts`` for shot records.

Shot sampling is counter based (SplitMix64 keyed by seed and shot
index), so identical inputs give identical records on any platform and
stages can be sampled concurrently.  Shot i is excited iff
u_i = z_i / 2^64 < p for its 64-bit word z_i.  Since float() is
monotone, that holds exactly when z_i is below one integer cutoff of p,
so the words are compared as integers and never converted.
"""

from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .measures import (
    CorrelationReport,
    correlation_report,
    correlation_reports,
    trace_distance_x_stack,
)
from .qcore import (
    Array,
    DensityMatrix,
    HilbertSpace,
    SpectralPropagator,
    check_density_stack,
    density_matrices,
    fidelity,
    kron,
)
from .states import (
    ProbePrep,
    corner_swap_matrices,
    family_matrices,
    one_param_density,
    two_qubit_space,
)
from .dynamics import (
    MAX_T_END,
    MIN_DISPERSIVE_DELTA,
    TWO_LEVEL_INDEX,
    EvolutionResult,
    ModelConfig,
    ModelVariant,
    NoiseConfig,
    boson_pair_to_qubits_stack,
    initial_joint_matrices,
    integrate_master,
    reachable_entries,
    readout_entries,
    sigma_z_stack,
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
#: counters drawn per block; keeps sampling memory bounded for any shot
#: count.  A power of two, so blocks can start on multiples of it.
SHOT_BLOCK = 2 ** 15
#: counter bits above the block offset
_BLOCK_HIGH = _MASK64 ^ (SHOT_BLOCK - 1)
#: width of the band of last-round inputs that the top bits leave open
_FINAL_BAND = 2 ** 33
#: most shots drawn per call (all stages together in a non-demolition
#: sequence); sampling time grows linearly with the shot count
MAX_SHOTS = 10 ** 9
#: byte boundary the arrays a whole block reads and writes start on.
#: malloc gives 16; the block passes run about 15% slower on arrays 16
#: bytes off a 32-byte boundary, where every other vector load splits a
#: cache line, so a draw's speed would otherwise hang on where the heap
#: placed them
ALIGN = 64


def _splitmix64(z: int) -> int:
    z = (z + _GAMMA64) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, stream: int) -> int:
    """Independent substream seed for (seed, stream index); ``seed`` is any integer."""
    return _splitmix64(_splitmix64(operator.index(seed) & _MASK64) ^ ((stream + 1) & _MASK64))


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


def _aligned_empty(n: int, dtype) -> np.ndarray:
    """An uninitialised 1-D array of n entries whose data starts on an ALIGN-byte boundary."""
    size = n * np.dtype(dtype).itemsize
    raw = np.empty(size + ALIGN, dtype=np.uint8)
    start = -raw.__array_interface__["data"][0] % ALIGN
    return raw[start:start + size].view(dtype)


@functools.cache
def _block_products() -> tuple[np.ndarray, np.ndarray]:
    """The read-only block offsets 0 .. SHOT_BLOCK - 1 and their products with MIX1.

    Formed on the first draw rather than at import, so a process that
    never samples never holds them.  The products, which every whole
    block reads, start on an ALIGN-byte boundary.
    """
    offsets = np.arange(SHOT_BLOCK, dtype=np.uint64)
    mixed = np.multiply(offsets, np.uint64(_MIX1), out=_aligned_empty(SHOT_BLOCK, np.uint64))
    offsets.setflags(write=False)
    mixed.setflags(write=False)
    return offsets, mixed


_work = threading.local()


def _work_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's writable block buffers ``z``, ``t`` and ``mask`` (0.56 MB).

    Formed on the thread's first draw and reused by its later draws, so
    a draw allocates nothing of its block size and no page of them
    faults in again; a thread's buffers go with the thread, and no two
    threads share one.  Each starts on an ALIGN-byte boundary.
    """
    buffers = getattr(_work, "buffers", None)
    if buffers is None:
        buffers = _work.buffers = (_aligned_empty(SHOT_BLOCK, np.uint64),
                                   _aligned_empty(SHOT_BLOCK, np.uint64),
                                   _aligned_empty(SHOT_BLOCK, bool))
    return buffers


@dataclass(frozen=True)
class ShotRecord:
    """Binomial measurement record; both counts are integers (``operator.index``)."""

    shots: int
    count_excited: int

    def __post_init__(self):
        shots, count = operator.index(self.shots), operator.index(self.count_excited)
        if shots < 0:
            raise ValueError("shots must be nonnegative")
        if not 0 <= count <= shots:
            raise ValueError("count out of range")

    @property
    def frequency(self) -> float:
        if self.shots == 0:
            raise ValueError("no shots recorded")
        return self.count_excited / self.shots


def sample_shots(p_excited: float, shots: int, seed: int) -> ShotRecord:
    """Deterministic binomial draw: shot i is excited iff u_i < p.

    u_i = z_i / 2^64 for the SplitMix64 word z_i of counter (seed-derived
    base + i), so the record depends only on (p, shots, seed), the seed
    any integer (``operator.index``, also with no shots).  The words
    are compared with the integer cutoff of p instead of being converted:
    u_i < p exactly when z_i is below it.  Counters are hashed in place,
    in blocks of at most SHOT_BLOCK that never cross a multiple of
    SHOT_BLOCK, in the calling thread's work buffers (``_work_buffers``),
    so memory does not grow with the shot count and a draw after the
    thread's first allocates none of its block size.

    Only the count is kept, and two shortcuts leave it unchanged:

    * Aligned blocks.  Within a block every counter has the same bits
      above bit 14, so round one's z >> 30 is one constant K.  In a whole
      block, starting at a multiple c of 2^15, z ^ K = (c ^ K_high) +
      (k ^ K_low) for offsets k < 2^15, and k -> k ^ K_low only permutes
      the offsets.  The block thus holds the words of the counters
      (c ^ K_high) + k, whose first product is offsets * MIX1 (formed
      once per process, ``_block_products``) plus one constant: a single
      addition.  Only the partial blocks before the first multiple of
      2^15 and after the last one hash their counters in order.
      Counters wrap at 2^64, a multiple of 2^15, so no block contains
      the wrap.
    * Top bits decide the last round.  w = y ^ (y >> 31) has the top 31
      bits of y.  With lo the cutoff with its low 33 bits cleared,
      y < lo gives w < lo <= cutoff and y >= lo + 2^33 gives w > cutoff,
      so two comparisons of y settle every word but those in the band
      between (a 2^-31 share), which are finished one by one.  When
      lo + 2^33 exceeds 2^64 - 1 (p near 1) there is no word above it.
    """
    if not 0.0 <= p_excited <= 1.0:
        raise ValueError("probability out of range")
    shots = operator.index(shots)
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots exceed {MAX_SHOTS}")
    seed = operator.index(seed)
    if shots == 0:
        return ShotRecord(0, 0)
    # every constant is a Python int, wrapped in np.uint64 only to pass it:
    # numpy scalar arithmetic would warn on the wrap, and NumPy 1.x and 2.x
    # promote mixed scalars differently
    cutoff = _excited_cutoff(p_excited)
    lo = cutoff & ~(_FINAL_BAND - 1)
    hi = lo + _FINAL_BAND
    lo_u = np.uint64(lo)
    hi_u = np.uint64(hi) if hi <= _MASK64 else None
    shift27, mix1, mix2 = np.uint64(27), np.uint64(_MIX1), np.uint64(_MIX2)
    counter = (_splitmix64(seed & _MASK64) + _GAMMA64) & _MASK64
    head = min(shots, -counter % SHOT_BLOCK)
    whole, tail = divmod(shots - head, SHOT_BLOCK)
    offsets, mixed = _block_products()
    z, t, mask = _work_buffers()

    def finish(n: int) -> int:
        # rounds two and three on z[:n], which holds round one's product
        zb, tb, mb = z[:n], t[:n], mask[:n]
        np.right_shift(zb, shift27, out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, mix2, out=zb)
        excited = int(np.count_nonzero(np.less(zb, lo_u, out=mb)))
        below_hi = n if hi_u is None else int(np.count_nonzero(np.less(zb, hi_u, out=mb)))
        if below_hi > excited:
            band = [y for y in zb[zb >= lo_u].tolist() if y < hi]
            excited += sum(y ^ (y >> 31) < cutoff for y in band)
        return excited

    def partial(first: int, n: int) -> int:
        # counters first .. first + n - 1, below the next multiple of 2^15
        zb = z[:n]
        np.add(offsets[:n], np.uint64(first), out=zb)
        np.bitwise_xor(zb, np.uint64(first >> 30), out=zb)
        np.multiply(zb, mix1, out=zb)
        return finish(n)

    count = 0
    if head:
        count += partial(counter, head)
        counter = (counter + head) & _MASK64
    for _ in range(whole):
        shifted = counter ^ ((counter >> 30) & _BLOCK_HIGH)
        np.add(mixed, np.uint64((shifted * _MIX1) & _MASK64), out=z)
        count += finish(SHOT_BLOCK)
        counter = (counter + SHOT_BLOCK) & _MASK64
    if tail:
        count += partial(counter, tail)
    return ShotRecord(shots, count)


# ---------------------------------------------------------------------------
# estimation

@dataclass(frozen=True)
class ReadoutModel:
    """Affine readout map P(excited) = offset + slope * x."""

    offset: float
    slope: float

    def __post_init__(self):
        if not (np.isfinite(self.offset) and np.isfinite(self.slope) and self.slope != 0.0):
            raise ValueError("readout needs a finite offset and a finite nonzero slope")

    def probability(self, x: float) -> float:
        return self.offset + self.slope * x

    def invert(self, p: float) -> float:
        return (p - self.offset) / self.slope


#: ground-probe resonant readout at odd half-periods: P(e) = 2 (1 - x),
#: so <sigma_z> = 2 P(e) - 1 = 3 - 4 x
RESONANT_READOUT = ReadoutModel(2.0, -2.0)
#: exchange-model stage with an excited probe: P(e) = 2 x - 1
EXCHANGE_E_READOUT = ReadoutModel(-1.0, 2.0)
#: exchange-model stage with a ground probe: P(e) = 2 (1 - x)
EXCHANGE_G_READOUT = ReadoutModel(2.0, -2.0)


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
    """Infinite-statistics estimate from exact stage probabilities in [0, 1]."""
    if not probabilities:
        raise ValueError("no probabilities to estimate from")
    if not all(0.0 <= p <= 1.0 for _, p in probabilities):
        raise ValueError("probability out of range")
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
    post_distance_to_initial: float
    measures_before: CorrelationReport
    measures_after: CorrelationReport

    @property
    def state_restored(self) -> bool:
        """Whether the post state lies within RESTORED_TOL of the initial one."""
        return self.post_distance_to_initial <= RESTORED_TOL


def run_probe_cycle(
    x: float,
    cfg: ModelConfig,
    n_half_periods: int = 1,
    noise: Optional[NoiseConfig] = None,
) -> ProbeCycleReport:
    """Attach a ground probe, evolve to t = n pi/2, read sigma_z.

    The one-x case of ``run_probe_cycles``.
    """
    return run_probe_cycles([x], cfg, n_half_periods, noise)[0]


def run_probe_cycles(
    xs: Sequence[float],
    cfg: ModelConfig,
    n_half_periods: int = 1,
    noise: Optional[NoiseConfig] = None,
) -> list[ProbeCycleReport]:
    """One ground-probe readout cycle per family parameter of ``xs``, in order.

    Each cycle attaches a ground probe, evolves to t = n pi/2 and reads
    sigma_z.  n must be odd (at even multiples the probe returns to its
    ground state and carries no information), at most MAX_HALF_PERIODS
    and, with noise, at most MAX_T_END / (pi/2).  The one sample at
    t_read is an ``EvolutionResult`` of the entries the dynamics reach:
    the spectral propagator's state on those H reaches without noise
    (the rest hold only its rounding), ``dynamics.integrate_master``'s
    with noise.  Its ``readout`` gives the pair left behind, an exact X
    state (on bosonic carriers, conditioned on their {0, 1}-photon
    block), and the probe.  Without noise the pair lands exactly on the
    corner swap of the family state, every measure preserved.

    Every stage but the evolution runs once over the stack of all
    cycles: the family states (each x domain-checked), the initial
    joint states and the post states are each checked by one
    ``density_matrices`` call, the distances and the readouts are one
    ``trace_distance_x_stack`` and one ``sigma_z_stack``, and the reports
    before and after are one ``correlation_reports`` call.  The
    evolution runs once per cycle, and each result is checked as it is
    built; every row's pair and probe are then read out by one call
    (``_read_rows``), whatever entries the row reaches.  The rows share
    the Hamiltonian, propagator and propagation plans the process keeps
    for ``cfg``'s value (``dynamics.ModelConfig``), as does a later call
    with an equal config.
    """
    if cfg.variant not in (ModelVariant.RESONANT_QUBIT, ModelVariant.RESONANT_BOSON):
        raise ValueError("probe cycle runs on the resonant models")
    n = operator.index(n_half_periods)
    if n < 1 or n % 2 == 0:
        raise ValueError("no readout information at even multiples")
    if n > MAX_HALF_PERIODS:
        raise ValueError(f"n exceeds {MAX_HALF_PERIODS} half periods")
    noise = noise or NoiseConfig()
    family = family_matrices(xs)
    rho0s = density_matrices(two_qubit_space(), family)
    joints = density_matrices(
        cfg.space, initial_joint_matrices(family, cfg, ProbePrep.GROUND))
    t_read = n * np.pi / 2.0

    noiseless = noise.gamma == 0.0
    if not noiseless and t_read > MAX_T_END:
        raise ValueError(f"with noise n may not exceed {int(MAX_T_END * 2 / np.pi)} half periods")
    results = []
    for joint0 in joints:
        if noiseless:
            codes = reachable_entries(joint0.mat, cfg.hamiltonian, ())
            joint = cfg.propagator.apply_mat(joint0.mat, t_read)
            results.append(
                EvolutionResult((t_read,), cfg.space, codes, joint.ravel()[codes][None]))
        else:
            results.append(integrate_master(joint0, cfg, noise, t_read))
    pairs, probes = _read_rows(cfg.space, results)
    posts = density_matrices(two_qubit_space(), pairs)
    distances = trace_distance_x_stack(pairs, family).tolist()
    sigma_z = sigma_z_stack(probes).tolist()
    reports = correlation_reports([*rho0s, *posts])
    return [
        ProbeCycleReport(
            t_read=t_read,
            mean_sigma_z=sz,
            post_state=post,
            post_distance_to_initial=distance,
            measures_before=before,
            measures_after=after,
        )
        for post, distance, sz, before, after in zip(
            posts, distances, sigma_z, reports[:len(posts)], reports[len(posts):])
    ]


def _read_rows(space: HilbertSpace, results: Sequence[EvolutionResult]) -> tuple[Array, Array]:
    """The (n, 4, 4) pair and (n, 2, 2) probe of the one-sample ``results``, in row order.

    Every row is placed on the union of the rows' codes, with zeros at
    the codes it does not reach, and the stack is read out by one
    ``readout_entries`` call; the added terms are exact zeros, so every
    row's values are those of its own ``readout``, bit for bit.  The
    rows were checked when their results were built and are not checked
    again; on bosonic modes the stack's pair is checked as one.  If
    that check fails, the rows are read out again one at a time in row
    order, so the error raised is that of the first row a row-by-row
    readout would refuse.
    """
    codes = np.flatnonzero(np.bincount(np.concatenate([np.empty(0, np.int64),
                                                       *(r.codes for r in results)])))
    entries = np.zeros((len(results), codes.size), dtype=complex)
    for row, result in zip(entries, results):
        row[np.searchsorted(codes, result.codes)] = result.entries[0]
    try:
        return readout_entries(space, codes, entries)
    except ValueError:
        for result in results:
            result.readout()
        raise


def boson_pair_to_qubits(reduced: DensityMatrix) -> DensityMatrix:
    """Conditional pair state on the {0, 1}-photon subspace.

    Population that leaked above one photon per mode is projected out
    and the block renormalized, so the measures see the state actually
    comparable with the two-level family.  One state through
    ``dynamics.boson_pair_to_qubits_stack``.
    """
    block = reduced.mat[np.ix_(TWO_LEVEL_INDEX, TWO_LEVEL_INDEX)]
    return DensityMatrix(two_qubit_space(), boson_pair_to_qubits_stack(block[None])[0])


# ---------------------------------------------------------------------------
# transfer timing for the exchange model

_FIDELITY_X_GRID = (0.6, 0.75, 0.9)


def _pair_maps(u: Array, prep: ProbePrep) -> tuple[Array, Array]:
    """Pair map S and excitation functional P of the stage of unitary ``u`` and probe ``prep``.

    The probe is measured and discarded, so the stage takes the pair rho
    to sum_k K_k rho K_k^+ for the 4 x 4 Kraus operators K_k = (I x <k|)
    U (I x |prep>) (Kraus, States, Effects and Operations, 1983).  On the
    row-major vec of rho, S = sum_k K_k x conj(K_k) and p_e = P . vec(rho)
    with P = vec((K_e^+ K_e)^T).  The probe's basis is (|e>, |g>), and
    |prep> is one of its states.
    """
    kraus = u.reshape(4, 2, 4, 2).transpose(1, 3, 0, 2)[:, prep.matrix.diagonal().real.argmax()]
    return sum(kron(k, k.conj()) for k in kraus), (kraus[0].T @ kraus[0].conj()).ravel()


def _swap_fidelity(prop: SpectralPropagator, t: float) -> float:
    """Mean fidelity of the excited-probe stage at t with the corner swap, over the grid.

    The family states and their corner swaps are two stacks, each
    checked by one ``density_matrices`` call; the excited stage's pair
    map (``_pair_maps``) at t takes every family state at once.
    """
    pair_space = two_qubit_space()
    family = family_matrices(_FIDELITY_X_GRID)
    density_matrices(pair_space, family)
    swaps = density_matrices(pair_space, corner_swap_matrices(family))
    pair_map, _ = _pair_maps(prop.unitary(t), ProbePrep.EXCITED)
    pairs = (family.reshape(-1, 16) @ pair_map.T).reshape(-1, 4, 4)
    return sum(fidelity(pair, swap.mat) for pair, swap in zip(pairs, swaps)) / len(pairs)


#: (detuning, time) pairs whose exchange-model swap fidelity the process
#: keeps (one float each), least recently used out first; a report takes
#: two per detuning, so this keeps the reports of 16 detunings
TRANSFERS = 32


@functools.lru_cache(maxsize=TRANSFERS)
def _exchange_swap_fidelity(delta: float, t: float) -> float:
    """``_swap_fidelity`` of the exchange model at detuning ``delta`` at time ``t``, kept per pair.

    The propagator is the model store's for the exchange config of
    ``delta``, the caller's own, so a sequence and its report compute
    each detuning's transfer fidelity once.
    """
    cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=delta)
    return _swap_fidelity(cfg.propagator, t)


def find_transfer_time(cfg: ModelConfig) -> float:
    """Time of the first complete corner-swap transfer, pi / (2 sqrt(2) J).

    ``cfg`` is the exchange model (``DISPERSIVE_EFFECTIVE``), J = 1 /
    (2 delta).  The probe exchanges its excitation with the symmetric
    mode of the pair, whose collective coupling is sqrt(2) J, so the
    swap completes in closed form when sqrt(2) J t = pi / 2.  The time
    is checked on every call against the swap fidelity, which must
    reach 1 - 1e-9; the fidelity is computed once per detuning in a
    process (``_exchange_swap_fidelity``).
    """
    if cfg.variant is not ModelVariant.DISPERSIVE_EFFECTIVE:
        raise ValueError("transfer time is defined on the exchange model")
    t_star = float(np.pi / (2.0 * np.sqrt(2.0) * cfg.j_exchange))
    if _exchange_swap_fidelity(cfg.delta, t_star) < 1.0 - 1e-9:
        raise ValueError("no clean transfer")
    return t_star


@dataclass(frozen=True)
class TransferTimeReport:
    """Fidelity of the located transfer time vs the delta*pi/g^2 candidate."""

    best_time: float
    best_fidelity: float
    candidate_time: float
    candidate_fidelity: float


def transfer_time_report(cfg: ModelConfig) -> TransferTimeReport:
    """Evaluate both transfer-time candidates for the exchange model ``cfg``.

    The delta*pi/g^2 rule equals pi/(2J); the collective coupling of
    the symmetric mode is sqrt(2) J, so the actual full swap happens a
    factor sqrt(2) earlier.  Both fidelities are reported so the
    shortfall is documented rather than silently corrected.  Both are
    kept per detuning and time (``_exchange_swap_fidelity``), so a later
    report at an equal detuning computes no fidelity, and a sequence,
    which asks for the transfer time only, never computes the candidate's.
    """
    best = find_transfer_time(cfg)
    candidate = float(np.pi / (2.0 * cfg.j_exchange))
    return TransferTimeReport(
        best_time=best,
        best_fidelity=_exchange_swap_fidelity(cfg.delta, best),
        candidate_time=candidate,
        candidate_fidelity=_exchange_swap_fidelity(cfg.delta, candidate),
    )


# ---------------------------------------------------------------------------
# non-demolition sequence

#: most cycles in one sequence; every stage is kept in the result
MAX_QND_CYCLES = 10_000


@dataclass(frozen=True)
class QndRunResult:
    """Final pair, stage duration, and stage i's exact law and excited count.

    Stage i's probe is excited for even i and ground for odd i.  The two
    arrays are read-only and hold one entry per stage; every count is 0
    in exact mode (``shots_per_stage`` 0).
    """

    final_state: DensityMatrix
    duration: float
    p_excited: np.ndarray
    count_excited: np.ndarray
    shots_per_stage: int
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
    followed by a ground-probe stage (pair state restored), so stage i
    prepares an excited probe for even i and a ground probe for odd i;
    the probe is measured and discarded after every stage.  Outcomes are
    grouped by preparation and pooled into the estimate: counts summed,
    or in exact mode (``shots_per_stage`` of zero) each group's mean
    p_e.  Exact mode neither draws nor hashes, separating protocol
    correctness from sampling noise.  The exchange model is the
    dispersive limit of the cavity model, so detunings below
    MIN_DISPERSIVE_DELTA are rejected.

    As the probe is discarded, a stage is one linear map of the pair,
    formed from the unitary at t* (``_pair_maps``): p_e = P . vec(pair),
    then pair <- S vec(pair); no joint state is formed.  Every pair
    goes into one (2n + 1, 16) array (256 bytes a stage) and every p_e
    is read off it by one ``einsum``.  Each pair is checked once: all
    but the last as one stack, the last as the final state (one at a
    time if either fails, so the error raised is the first stage's).
    Once every pair has passed, stage i draws from its substream
    ``derive_seed(seed, i)``, whose first round is hashed once for all
    stages.
    """
    cfg = cfg or ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0)
    if cfg.variant is not ModelVariant.DISPERSIVE_EFFECTIVE:
        raise ValueError("non-demolition sequence runs on the exchange model")
    if not cfg.delta >= MIN_DISPERSIVE_DELTA:
        raise ValueError(
            f"non-demolition sequence needs delta >= {MIN_DISPERSIVE_DELTA:g} g: "
            "the exchange model does not hold closer to resonance"
        )
    n_cycles, shots_per_stage, seed = map(operator.index, (n_cycles, shots_per_stage, seed))
    if n_cycles < 1:
        raise ValueError("need at least one cycle")
    if n_cycles > MAX_QND_CYCLES:
        raise ValueError(f"cycles exceed {MAX_QND_CYCLES}")
    if shots_per_stage < 0:
        raise ValueError("shots must be nonnegative")
    if 2 * n_cycles * shots_per_stage > MAX_SHOTS:
        raise ValueError(f"total shots exceed {MAX_SHOTS}")
    t_star = find_transfer_time(cfg)
    u = cfg.propagator.unitary(t_star)
    (e_map, e_law), (g_map, g_law) = (_pair_maps(u, prep)
                                      for prep in (ProbePrep.EXCITED, ProbePrep.GROUND))
    pair_space = cfg.space.subspace({0, 1})
    n_stages = 2 * n_cycles
    # row i is the pair stage i receives, the last row the pair left behind
    vecs = np.empty((n_stages + 1, 16), dtype=complex)
    vecs[0] = one_param_density(x).mat.ravel()
    # every stage is formed before any is checked, so a unitary far from
    # unitary overflows here, without a warning, before the check refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_stages):
            np.matmul((e_map, g_map)[i % 2], vecs[i], out=vecs[i + 1])
        # each cycle's two incoming pairs against the two functionals
        p_excited = np.einsum("cpk,pk->cp", vecs[:-1].reshape(-1, 2, 16),
                              np.stack([e_law, g_law])).real.ravel()
    pairs = vecs[1:].reshape(-1, 4, 4)
    try:
        check_density_stack(pairs[:-1])
        state = DensityMatrix(pair_space, pairs[-1])
    except ValueError:
        for pair in pairs:
            DensityMatrix(pair_space, pair)
        raise
    # min(1, max(0, p)) as Python takes it, so -0.0 becomes 0.0
    p_excited = np.where(p_excited < 1.0, np.where(p_excited > 0.0, p_excited, 0.0), 1.0)
    count_excited = np.zeros(n_stages, dtype=np.int64)
    models = (EXCHANGE_E_READOUT, EXCHANGE_G_READOUT)
    if shots_per_stage == 0:
        # a group's stages share one readout law, so their mean stands for them
        estimate = estimate_exact([(models[k], float(p_excited[k::2].mean())) for k in (0, 1)])
    else:
        # derive_seed(seed, i) with its first round shared by every stage
        base = _splitmix64(seed & _MASK64)
        count_excited[:] = [
            sample_shots(p, shots_per_stage, _splitmix64(base ^ (i + 1))).count_excited
            for i, p in enumerate(p_excited.tolist())
        ]
        shots = n_cycles * shots_per_stage
        estimate = estimate_from_counts(
            [(models[k], ShotRecord(shots, int(count_excited[k::2].sum()))) for k in (0, 1)])
    p_excited.setflags(write=False)
    count_excited.setflags(write=False)
    return QndRunResult(state, t_star, p_excited, count_excited, shots_per_stage, estimate)
