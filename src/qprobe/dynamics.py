"""Hamiltonians and time evolution for the probe models.

Four model variants share one builder interface:

  * ``RESONANT_QUBIT``   -- probe atom exchanging excitations with two
    resonant cavity modes truncated to two levels each (dim 8).  This
    is the baseline: the family's closed-form evolution is exact here.
  * ``RESONANT_BOSON``   -- same geometry with bosonic cavity modes
    (dim 2*(n_max+1)^2), kept to quantify the truncation deviation.
  * ``DISPERSIVE_FULL``  -- three atoms coupled to two far-detuned
    cavities (dim 8*(n_max+1)^2), written in the frame rotating at the
    cavity frequency.  The cavities sit ABOVE the atomic transitions by
    delta, so the atomic detunings are negative; the Stark compensation
    raises the probe atom by g^2/(2 delta) so the dressed levels align.
    (With atoms above the cavities the same compensation formula would
    mis-align the dressed levels by twice the exchange strength and the
    transfer would stall near fidelity 2/3.)
  * ``DISPERSIVE_EFFECTIVE`` -- the XY exchange model with strength
    J = g^2/(2 delta) between the probe and each system atom (dim 8).

Tensor factor order is always (A, B, probe C[, cavity 1, cavity 2]).
Atom factors use basis order (|e>, |g>); cavity factors use the photon
number basis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .qcore import (
    Array,
    DensityMatrix,
    HilbertSpace,
    SpectralPropagator,
    kron_all,
    partial_trace,
    partial_trace_mat,
    trace_distance,
)
from .states import ProbePrep, one_param_density

# atom ladder operators in the (|e>, |g>) ordering
ATOM_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
ATOM_RAISE = ATOM_LOWER.conj().T
ATOM_NUMBER = ATOM_RAISE @ ATOM_LOWER
PROBE_SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def boson_lower(levels: int) -> Array:
    """Annihilation operator on a Fock space truncated to ``levels`` states."""
    return np.diag(np.sqrt(np.arange(1.0, levels)), 1).astype(complex)


class ModelVariant(enum.Enum):
    RESONANT_QUBIT = "resonant-qubit"
    RESONANT_BOSON = "resonant-boson"
    DISPERSIVE_FULL = "dispersive-full"
    DISPERSIVE_EFFECTIVE = "dispersive-effective"


_DISPERSIVE = (ModelVariant.DISPERSIVE_FULL, ModelVariant.DISPERSIVE_EFFECTIVE)
_BOSONIC = (ModelVariant.RESONANT_BOSON, ModelVariant.DISPERSIVE_FULL)

#: largest boson truncation accepted; DISPERSIVE_FULL has dim 968 there
MAX_NMAX = 10


@dataclass(frozen=True)
class ModelConfig:
    """Which Hamiltonian to build, plus its couplings and truncation."""

    variant: ModelVariant
    g: float = 1.0
    delta: Optional[float] = None
    n_max: int = 2

    def __post_init__(self):
        if not math.isfinite(self.g) or self.g <= 0:
            raise ValueError("coupling g must be positive and finite")
        if self.delta is not None and not math.isfinite(self.delta):
            raise ValueError("detuning must be finite")
        if self.variant in _DISPERSIVE:
            if self.delta is None or self.delta <= 0:
                raise ValueError("dispersive variants need a positive detuning")
        if self.variant in _BOSONIC and not 2 <= self.n_max <= MAX_NMAX:
            raise ValueError(f"n_max must lie in [2, {MAX_NMAX}]")

    @property
    def j_exchange(self) -> float:
        """Effective exchange strength g^2 / (2 delta)."""
        if self.variant not in _DISPERSIVE:
            raise ValueError("exchange strength only defined with a detuning")
        return self.g ** 2 / (2.0 * self.delta)

    @property
    def space(self) -> HilbertSpace:
        nb = self.n_max + 1
        if self.variant is ModelVariant.RESONANT_QUBIT:
            return HilbertSpace((2, 2, 2), ("A", "B", "C"))
        if self.variant is ModelVariant.RESONANT_BOSON:
            return HilbertSpace((nb, nb, 2), ("A", "B", "C"))
        if self.variant is ModelVariant.DISPERSIVE_FULL:
            return HilbertSpace((2, 2, 2, nb, nb), ("A", "B", "C", "cav1", "cav2"))
        return HilbertSpace((2, 2, 2), ("A", "B", "C"))


def _embed(ops: dict[int, Array], dims: Sequence[int]) -> Array:
    """Operator acting as ``ops[k]`` on factor k and identity elsewhere."""
    return kron_all(*(ops.get(k, np.eye(d, dtype=complex)) for k, d in enumerate(dims)))


def build_hamiltonian(cfg: ModelConfig) -> Array:
    """Hermitian Hamiltonian matrix of the configured model (hbar = 1)."""
    dims = cfg.space.dims
    lam = cfg.g / np.sqrt(2.0)

    if cfg.variant in (ModelVariant.RESONANT_QUBIT, ModelVariant.RESONANT_BOSON):
        levels = dims[0]
        a = boson_lower(levels)
        h = np.zeros((cfg.space.dim,) * 2, dtype=complex)
        for cav in (0, 1):
            h += lam * _embed({cav: a, 2: ATOM_RAISE}, dims)
            h += lam * _embed({cav: a.conj().T, 2: ATOM_LOWER}, dims)
        return h

    if cfg.variant is ModelVariant.DISPERSIVE_EFFECTIVE:
        j = cfg.j_exchange
        h = np.zeros((8, 8), dtype=complex)
        for atom in (0, 1):
            h += j * _embed({atom: ATOM_LOWER, 2: ATOM_RAISE}, dims)
            h += j * _embed({atom: ATOM_RAISE, 2: ATOM_LOWER}, dims)
        return h

    # DISPERSIVE_FULL, frame rotating at the cavity frequency.
    j = cfg.j_exchange
    a = boson_lower(dims[3])
    det_c = -cfg.delta
    det_ab = -cfg.delta - j
    h = det_c * _embed({2: ATOM_NUMBER}, dims)
    h += det_ab * (_embed({0: ATOM_NUMBER}, dims) + _embed({1: ATOM_NUMBER}, dims))
    for cav in (3, 4):
        h += lam * _embed({2: ATOM_RAISE, cav: a}, dims)
        h += lam * _embed({2: ATOM_LOWER, cav: a.conj().T}, dims)
    h += lam * _embed({0: ATOM_RAISE, 3: a}, dims)
    h += lam * _embed({0: ATOM_LOWER, 3: a.conj().T}, dims)
    h += lam * _embed({1: ATOM_RAISE, 4: a}, dims)
    h += lam * _embed({1: ATOM_LOWER, 4: a.conj().T}, dims)
    return h


def excitation_number(cfg: ModelConfig) -> Array:
    """Total excitation operator (atomic populations plus photon numbers)."""
    dims = cfg.space.dims
    total = np.zeros((cfg.space.dim,) * 2, dtype=complex)
    for k, d in enumerate(dims):
        label = cfg.space.labels[k]
        if label.startswith("cav"):
            a = boson_lower(d)
            total += _embed({k: a.conj().T @ a}, dims)
        elif cfg.variant in (ModelVariant.RESONANT_QUBIT, ModelVariant.RESONANT_BOSON) and k < 2:
            a = boson_lower(d)
            total += _embed({k: a.conj().T @ a}, dims)
        else:
            total += _embed({k: ATOM_NUMBER}, dims)
    return total


def probe_lowering(cfg: ModelConfig) -> Array:
    """sigma^- on the probe atom, embedded in the model's full space."""
    return _embed({2: ATOM_LOWER}, cfg.space.dims)


def two_level_index(nb: int) -> list[int]:
    """Indices of |00>, |01>, |10>, |11> in the space of two nb-level modes.

    Used through ``np.ix_`` to embed a two-qubit matrix into a pair of
    bosonic modes and to project it back.
    """
    return [0, 1, nb, nb + 1]


def initial_joint(x: float, cfg: ModelConfig, prep: ProbePrep) -> DensityMatrix:
    """Family state on (A, B), freshly prepared probe, cavities in vacuum."""
    rho_ab = one_param_density(x).mat
    dims = cfg.space.dims

    if cfg.variant is ModelVariant.RESONANT_BOSON:
        nb = dims[0]
        idx = two_level_index(nb)
        big = np.zeros((nb * nb, nb * nb), dtype=complex)
        big[np.ix_(idx, idx)] = rho_ab
        rho_ab = big

    parts = [rho_ab, prep.matrix]
    if cfg.variant is ModelVariant.DISPERSIVE_FULL:
        vac = np.zeros((dims[3], dims[3]), dtype=complex)
        vac[0, 0] = 1.0
        parts += [vac, vac]
    return DensityMatrix(cfg.space, kron_all(*parts))


def resonant_closed_form(x: float, gt: float) -> tuple[DensityMatrix, DensityMatrix]:
    """Exact evolved states of the two-level resonant model at phase gt.

    Returns the reduced pair state and the probe state for a ground
    probe: corner populations (1-x) sin^2(gt) at |00> and
    (1-x) cos^2(gt) at |11> with the middle block frozen, and probe
    excited population 2 (1-x) sin^2(gt).  At gt = 0 this reproduces
    the family state itself.
    """
    if not 0.5 <= x <= 1.0:
        raise ValueError("x out of family domain")
    s2 = float(np.sin(gt) ** 2)
    c2 = 1.0 - s2
    mat = one_param_density(x).mat.copy()
    mat[0, 0] = (1.0 - x) * s2
    mat[3, 3] = (1.0 - x) * c2
    rho_ab = DensityMatrix(one_param_density(x).space, mat)
    pe = 2.0 * (1.0 - x) * s2
    rho_c = DensityMatrix(
        HilbertSpace((2,), ("C",)), np.diag([pe, 1.0 - pe]).astype(complex)
    )
    return rho_ab, rho_c


def sigma_z_expectation(rho_probe: DensityMatrix) -> float:
    """<sigma_z> of a probe state in the (|e>, |g>) ordering."""
    return float(np.real(np.trace(rho_probe.mat @ PROBE_SIGMA_Z)))


@dataclass(frozen=True)
class NoiseConfig:
    """Spontaneous-emission rate and optional explicit collapse operators.

    When ``collapse_ops`` is None the single default operator
    (gamma, sigma^- on the probe atom) is built for the model at hand.
    Rates multiply the 2 L rho L^dag - L^dag L rho - rho L^dag L form
    directly.
    """

    gamma: float = 0.0
    collapse_ops: Optional[tuple[tuple[float, Array], ...]] = None

    def __post_init__(self):
        rates = [self.gamma]
        if self.collapse_ops is not None:
            rates += [rate for rate, _ in self.collapse_ops]
        if any(not math.isfinite(rate) or rate < 0 for rate in rates):
            raise ValueError("rates must be nonnegative and finite")

    def resolved_ops(self, cfg: ModelConfig) -> list[tuple[float, Array]]:
        if self.collapse_ops is not None:
            dim = cfg.space.dim
            ops = [(float(r), np.asarray(op, dtype=complex)) for r, op in self.collapse_ops]
            for k, (_, op) in enumerate(ops):
                if op.shape != (dim, dim):
                    raise ValueError(
                        f"collapse operator {k} has shape {op.shape}; the "
                        f"{cfg.variant.value} model needs ({dim}, {dim})"
                    )
            return ops
        if self.gamma == 0.0:
            return []
        return [(self.gamma, probe_lowering(cfg))]


@dataclass(frozen=True)
class EvolutionResult:
    """Sampled joint states plus the pair and probe reductions."""

    times: tuple[float, ...]
    joint_states: tuple[DensityMatrix, ...]
    reduced_ab: tuple[DensityMatrix, ...]
    probe: tuple[DensityMatrix, ...]

    def __post_init__(self):
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("sample times must be strictly increasing")


DEFAULT_DT = 1e-3
TRACE_DRIFT_LIMIT = 1e-6
HALF_STEP_LIMIT = 1e-7
#: most RK4 steps one integration may take (t_end / dt)
MAX_RK4_STEPS = 10 ** 7


def integrate_master(
    rho0: DensityMatrix,
    cfg: ModelConfig,
    noise: NoiseConfig,
    t_end: float,
    dt: float = DEFAULT_DT,
    sample_times: Optional[Sequence[float]] = None,
) -> EvolutionResult:
    """Fixed-step RK4 integration of the master equation.

    d rho/dt = -i [H, rho] + sum_k gamma_k (2 L rho L+ - L+L rho - rho L+L)

    The right-hand side is built once per call as a sparse Liouvillian
    acting on the row-major vectorised state, and each RK4 step applies
    it four times (the Horner form of the RK4 polynomial, identical to
    the classic k1..k4 step for this linear, time-independent generator).
    The state is re-Hermitized after every step.  One Richardson
    half-step comparison runs on the first step of the longest length
    the schedule takes, min(dt, largest gap between sample times), and
    rejects the run if the discrepancy exceeds 1e-7 (the step size is
    then too large); trace drift beyond 1e-6 aborts as well.  A
    non-finite t_end, a non-finite or non-positive dt and more than
    MAX_RK4_STEPS steps are rejected before any work.
    """
    if rho0.space.dims != cfg.space.dims:
        raise ValueError("initial state does not live on the model space")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if not math.isfinite(dt) or dt <= 0:
        raise ValueError("dt must be positive and finite")
    if t_end / dt > MAX_RK4_STEPS:
        raise ValueError(f"t_end / dt exceeds {MAX_RK4_STEPS} steps")
    if sample_times is None:
        sample_times = (float(t_end),)
    sample_times = sorted(float(t) for t in sample_times)
    if any(t < 0 or t > t_end + 1e-12 for t in sample_times):
        raise ValueError("sample times must lie in [0, t_end]")
    gaps = (b - a for a, b in zip([0.0, *sample_times], sample_times))
    check_step = min(dt, max(gaps, default=dt))

    h = build_hamiltonian(cfg)
    d = h.shape[0]
    eye = sp.eye_array(d, dtype=complex, format="csr")
    hs = sp.csr_array(h)
    # row-major vec(m): vec(A m B) = (A kron B^T) vec(m)
    gen = -1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T))
    for rate, op in noise.resolved_ops(cfg):
        ls = sp.csr_array(op)
        lds = ls.conj().T @ ls
        gen = gen + rate * (2.0 * sp.kron(ls, ls.conj()) - sp.kron(lds, eye)
                            - sp.kron(eye, lds.T))
    adj = np.arange(d * d).reshape(d, d).T.ravel()
    diag = np.arange(d) * (d + 1)

    def rk4_step(v: Array, step: float) -> Array:
        w = v + (step / 4.0) * (gen @ v)
        w = v + (step / 3.0) * (gen @ w)
        w = v + (step / 2.0) * (gen @ w)
        v = v + step * (gen @ w)
        return 0.5 * (v + v[adj].conj())

    vec = np.array(rho0.mat, dtype=complex).ravel()
    t = 0.0
    checked = False
    samples: list[tuple[float, Array]] = []

    for target in sample_times:
        if target <= t + 1e-15:
            samples.append((target, vec.copy()))
            continue
        while t < target - 1e-12:
            step = min(dt, target - t)
            if not checked and step >= check_step:
                coarse = rk4_step(vec, step)
                fine = rk4_step(rk4_step(vec, step / 2.0), step / 2.0)
                if np.max(np.abs(coarse - fine)) > HALF_STEP_LIMIT:
                    raise ValueError("time step too large: half-step check failed")
                checked = True
                vec = coarse
            else:
                vec = rk4_step(vec, step)
            t += step
            if abs(vec[diag].sum().real - 1.0) > TRACE_DRIFT_LIMIT:
                raise ValueError("trace drift exceeded tolerance: reduce dt")
        t = target
        samples.append((target, vec.copy()))

    times = tuple(s[0] for s in samples)
    joint = tuple(DensityMatrix(cfg.space, s[1].reshape(d, d)) for s in samples)
    reduced = tuple(partial_trace(j, {0, 1}) for j in joint)
    probe = tuple(partial_trace(j, {2}) for j in joint)
    return EvolutionResult(times, joint, reduced, probe)


# ---------------------------------------------------------------------------
# dispersive-limit validation

_ATOM_BLOCK_KEYS = [
    ((1 - a) + (1 - b), 1 - c) for a in range(2) for b in range(2) for c in range(2)
]
_TWIRL_MASK = np.array(
    [[1.0 if ki == kj else 0.0 for kj in _ATOM_BLOCK_KEYS] for ki in _ATOM_BLOCK_KEYS]
)


def _phase_twirl(mat: Array) -> Array:
    """Project onto the algebra invariant under local z rotations.

    Coherences between different (pair excitation count, probe
    excitation) blocks carry frame-dependent phases that the effective
    model defines only up to a rotation; they are zeroed so the
    comparison sees populations and the phase-insensitive pair
    coherences that feed the correlation measures.
    """
    return mat * _TWIRL_MASK


def dispersive_deviation(
    x: float,
    delta_over_g: float,
    t_end: Optional[float] = None,
    n_points: int = 201,
) -> float:
    """Worst-case twirled trace distance between the full and effective models.

    Evolves the family state with an excited probe and vacuum cavities
    under the full (Stark-compensated) model, reduces to the three
    atoms and compares against the exchange model over [0, t_end]
    (default: one transfer period).  Runs at truncation n_max = 2 and 3
    and raises when the two disagree by more than 10%, which signals a
    non-converged truncation.
    """
    if delta_over_g < 5.0:
        raise ValueError("dispersive comparison needs delta >= 5 g")
    g = 1.0
    j = g ** 2 / (2.0 * delta_over_g)
    if t_end is None:
        t_end = float(np.pi / (2.0 * np.sqrt(2.0) * j))
    times = np.linspace(0.0, float(t_end), int(n_points))

    eff_cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, g=g, delta=delta_over_g)
    eff_prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(eff_cfg))
    eff0 = initial_joint(x, eff_cfg, ProbePrep.EXCITED).mat

    def run(n_max: int) -> float:
        cfg = ModelConfig(
            ModelVariant.DISPERSIVE_FULL, g=g, delta=delta_over_g, n_max=n_max
        )
        prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(cfg))
        full0 = initial_joint(x, cfg, ProbePrep.EXCITED).mat
        dims = cfg.space.dims
        worst = 0.0
        for t in times:
            full_abc = partial_trace_mat(prop.apply_mat(full0, t), dims, {0, 1, 2})
            eff_abc = eff_prop.apply_mat(eff0, t)
            d = trace_distance(_phase_twirl(full_abc), _phase_twirl(eff_abc))
            worst = max(worst, d)
        return worst

    d2 = run(2)
    d3 = run(3)
    if abs(d2 - d3) > 0.1 * max(d2, d3) and abs(d2 - d3) > 1e-9:
        raise ValueError("increase n_max")
    return d2
