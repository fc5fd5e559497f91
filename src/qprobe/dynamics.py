"""Hamiltonians and time evolution for the probe models.

Four model variants share one builder interface:

  * ``RESONANT_QUBIT``   -- probe atom exchanging excitations with two
    resonant cavity modes truncated to two levels each (dim 8).  This
    is the baseline: the family's closed-form evolution is exact here.
  * ``RESONANT_BOSON``   -- same geometry with bosonic cavity modes
    (dim 2*3^2 = 18), kept to quantify the two-level deviation.
  * ``DISPERSIVE_FULL``  -- three atoms coupled to two far-detuned
    cavities (dim 8*3^2 = 72), written in the frame rotating at the
    cavity frequency.  The cavities sit ABOVE the atomic transitions by
    delta, so the atomic detunings are negative; the Stark compensation
    raises the probe atom by 1/(2 delta) so the dressed levels align.
    (With atoms above the cavities the same compensation formula would
    mis-align the dressed levels by twice the exchange strength and the
    transfer would stall near fidelity 2/3.)
  * ``DISPERSIVE_EFFECTIVE`` -- the XY exchange model with strength
    J = 1/(2 delta) between the probe and each system atom (dim 8).

Tensor factor order is always (A, B, probe C[, cavity 1, cavity 2]).
Atom factors use basis order (|e>, |g>); cavity factors use the photon
number basis with three levels, 0, 1 and 2 photons.  That is exact, not a
truncation: the cavities start in vacuum, every state ``initial_joint``
prepares holds at most two excitations, the Hamiltonians conserve that
number and probe decay only lowers it, so no mode holds a third photon.

Open-system evolution (``integrate_master``) is exact propagation of
the density-matrix entries the dynamics can reach from the initial
state.  Every Hamiltonian here conserves excitation number and the
probe's sigma^- lowers ket and bra together, so that set is small (at
most 170 entries under probe decay).  The generator G does not depend
on time, so each gap g between sample times is the matrix exp(G g) on
that set, formed once per distinct gap by scaling and squaring.

A ``ModelConfig`` caches what depends on it alone, for as long as the
config object lives: its Hilbert space, its Hamiltonian and the probe's
sigma^- (read-only arrays), and the latest propagation plan of
``integrate_master`` (the reachable set and the restricted generator),
rebuilt when the collapse operators or the initial nonzero pattern
change.  The rows of one sweep share one config and so one plan; every
CLI call builds its own config.  The module needs numpy only.
"""

from __future__ import annotations

import collections
import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .qcore import (
    Array,
    DensityMatrix,
    HilbertSpace,
    SpectralPropagator,
    check_density_stack,
    kron_all,
    partial_trace_mat,
    reduced_entry_stack,
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


@dataclass(frozen=True)
class ModelConfig:
    """Which Hamiltonian to build, plus its detuning.

    A config also owns what is derived from it alone, built on first
    use and kept as long as the config object: ``space``,
    ``hamiltonian`` and ``probe_sigma_minus`` (read-only arrays), and
    ``integrate_master``'s latest propagation plan (see
    ``_propagation_plan``).  None of them is a field, so equality,
    hashing and ``repr`` see the two fields only.
    """

    variant: ModelVariant
    delta: Optional[float] = None

    def __post_init__(self):
        if self.delta is not None and not math.isfinite(self.delta):
            raise ValueError("detuning must be finite")
        if self.variant in _DISPERSIVE:
            if self.delta is None or self.delta <= 0:
                raise ValueError("dispersive variants need a positive detuning")
            j = self.j_exchange
            if not 0.0 < j < math.inf or math.pi / j == math.inf:
                raise ValueError(
                    f"detuning {self.delta!r} leaves J = 1/(2 delta) or pi/J not finite"
                )

    @property
    def j_exchange(self) -> float:
        """Effective exchange strength 1 / (2 delta)."""
        if self.variant not in _DISPERSIVE:
            raise ValueError("exchange strength only defined with a detuning")
        return 1.0 / (2.0 * self.delta)

    @functools.cached_property
    def space(self) -> HilbertSpace:
        if self.variant is ModelVariant.RESONANT_QUBIT:
            return HilbertSpace((2, 2, 2), ("A", "B", "C"))
        if self.variant is ModelVariant.RESONANT_BOSON:
            return HilbertSpace((3, 3, 2), ("A", "B", "C"))
        if self.variant is ModelVariant.DISPERSIVE_FULL:
            return HilbertSpace((2, 2, 2, 3, 3), ("A", "B", "C", "cav1", "cav2"))
        return HilbertSpace((2, 2, 2), ("A", "B", "C"))

    @functools.cached_property
    def hamiltonian(self) -> Array:
        """``build_hamiltonian(self)``, built on first use; read-only."""
        return _read_only(build_hamiltonian(self))

    @functools.cached_property
    def probe_sigma_minus(self) -> Array:
        """``probe_lowering(self)``, built on first use; read-only."""
        return _read_only(probe_lowering(self))


def _read_only(a: Array) -> Array:
    a.setflags(write=False)
    return a


def _embed(ops: dict[int, Array], dims: Sequence[int]) -> Array:
    """Operator acting as ``ops[k]`` on factor k and identity elsewhere."""
    return kron_all(*(ops.get(k, np.eye(d, dtype=complex)) for k, d in enumerate(dims)))


def build_hamiltonian(cfg: ModelConfig) -> Array:
    """Hermitian Hamiltonian matrix of the configured model (hbar = 1)."""
    dims = cfg.space.dims
    lam = 1.0 / np.sqrt(2.0)

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
    # the probe couples to both cavities, A to the first and B to the second
    for atom, cav in ((2, 3), (2, 4), (0, 3), (1, 4)):
        h += lam * _embed({atom: ATOM_RAISE, cav: a}, dims)
        h += lam * _embed({atom: ATOM_LOWER, cav: a.conj().T}, dims)
    return h


def excitation_number(cfg: ModelConfig) -> Array:
    """Total excitation operator (atomic populations plus photon numbers)."""
    dims = cfg.space.dims
    total = np.zeros((cfg.space.dim,) * 2, dtype=complex)
    for k, d in enumerate(dims):
        # cavity modes (A and B themselves in the resonant models) count photons
        if cfg.space.labels[k].startswith("cav") or (cfg.variant not in _DISPERSIVE and k < 2):
            a = boson_lower(d)
            total += _embed({k: a.conj().T @ a}, dims)
        else:
            total += _embed({k: ATOM_NUMBER}, dims)
    return total


def probe_lowering(cfg: ModelConfig) -> Array:
    """sigma^- on the probe atom, embedded in the model's full space."""
    return _embed({2: ATOM_LOWER}, cfg.space.dims)


#: indices of |00>, |01>, |10>, |11> in the space of two three-level
#: modes; used through ``np.ix_`` to embed a two-qubit matrix into a
#: pair of bosonic modes and to project it back
TWO_LEVEL_INDEX = (0, 1, 3, 4)


def initial_joint(x: float, cfg: ModelConfig, prep: ProbePrep) -> DensityMatrix:
    """Family state on (A, B), freshly prepared probe, cavities in vacuum.

    An excited probe on ``RESONANT_BOSON`` is refused: its |11>
    component holds three excitations, which can put a third photon
    into one mode.
    """
    rho_ab = one_param_density(x).mat
    dims = cfg.space.dims

    if cfg.variant is ModelVariant.RESONANT_BOSON:
        if prep is ProbePrep.EXCITED:
            raise ValueError(
                "an excited probe on the bosonic resonant model needs a third "
                "photon per mode; only the ground probe is supported"
            )
        big = np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
        big[np.ix_(TWO_LEVEL_INDEX, TWO_LEVEL_INDEX)] = rho_ab
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


def sigma_z_stack(mats: Array) -> Array:
    """<sigma_z> of every probe state of an (n, 2, 2) stack, (|e>, |g>) ordering."""
    return np.real(np.trace(mats @ PROBE_SIGMA_Z, axis1=1, axis2=2))


def sigma_z_expectation(rho_probe: DensityMatrix) -> float:
    """<sigma_z> of a probe state in the (|e>, |g>) ordering."""
    return float(sigma_z_stack(rho_probe.mat[None])[0])


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
        return [(self.gamma, cfg.probe_sigma_minus)]


@dataclass(frozen=True)
class EvolutionResult:
    """Sampled joint states, kept as the density-matrix entries they reach.

    Row s of the (n, k) array ``entries`` holds the joint state at
    ``times[s]`` at the flat indices ``codes`` (i * d + j); every other
    entry is exactly zero.  Construction checks every sample at once
    with DensityMatrix's checks and tolerances, on the matrices
    restricted to the basis states the codes touch: the rows and
    columns outside them are zero, so the checks are equivalent.
    ``reduced_stack`` reduces all samples in one call; the DensityMatrix
    views ``joint_states``, ``reduced_ab`` (factors A, B) and ``probe``
    (factor C) are built on first use.
    """

    times: tuple[float, ...]
    space: HilbertSpace
    codes: Array
    entries: Array

    def __post_init__(self):
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("sample times must be strictly increasing")
        codes = np.array(self.codes, dtype=np.int64)
        entries = np.array(self.entries, dtype=complex)
        if entries.shape != (len(self.times), codes.size):
            raise ValueError(
                f"entries of shape {entries.shape} do not match "
                f"{len(self.times)} times and {codes.size} codes"
            )
        for a in (codes, entries):
            a.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "entries", entries)
        touched = np.unique(codes // self.space.dim)
        check_density_stack(self.reduced_stack(range(self.space.nfactors), touched))

    def reduced_stack(self, keep, index=None) -> Array:
        """(n, m, m) stack of the samples reduced to the factors ``keep``.

        Restricted to the basis states ``index`` of the kept space (all
        of them by default); see ``qcore.reduced_entry_stack``.
        """
        return reduced_entry_stack(self.codes, self.entries, self.space.dims, keep, index)

    def _views(self, keep) -> tuple[DensityMatrix, ...]:
        space = self.space.subspace(keep)
        return tuple(DensityMatrix(space, m) for m in self.reduced_stack(keep))

    @functools.cached_property
    def joint_states(self) -> tuple[DensityMatrix, ...]:
        return self._views(range(self.space.nfactors))

    @functools.cached_property
    def reduced_ab(self) -> tuple[DensityMatrix, ...]:
        return self._views({0, 1})

    @functools.cached_property
    def probe(self) -> tuple[DensityMatrix, ...]:
        return self._views({2})


#: the only ``dt`` that ``integrate_master`` accepts (see there)
DEFAULT_DT = 1e-3
TRACE_DRIFT_LIMIT = 1e-6
#: latest time one integration may run to
MAX_T_END = 1e4
#: most density-matrix entries one integration may evolve (the reachable set)
MAX_REACHABLE = 1024
#: shortest gap between consecutive sample times (and positive one from 0)
MIN_SAMPLE_GAP = 1e-12


def reachable_entries(
    rho0: Array, h: Array, ops: Sequence[tuple[float, Array]]
) -> Array:
    """Flat indices i*d + j of the density-matrix entries the dynamics can reach.

    The set starts from the nonzero entries of ``rho0`` (and their
    adjoint positions) and is closed under the nonzero patterns of
    ``h``, of each collapse operator L (the jump L rho L+ sends (k, l)
    to (i, j) when L_ik and L_jl are nonzero) and of each L+L (nonzero
    at (i, k) when some row of L is nonzero in columns i and k).  The
    entries outside it stay exactly zero.  The closure is a boolean
    fixed point on d x d patterns and raises once the set exceeds
    MAX_REACHABLE entries, before any generator is built.
    """
    # 0/1 patterns as floats: products run in BLAS and their path counts are exact
    jumps = [(op != 0).astype(float) for _, op in ops]
    # H or an L+L joins i and k: the drift moves (k, l) to (i, l) and (l, k) to (l, i)
    drift = ((h != 0) | (h.T != 0)).astype(float)
    for jump in jumps:
        drift += jump.T @ jump
    mask = (rho0 != 0) | (rho0.T != 0)
    while True:
        m = mask.astype(float)
        flow = drift @ m + m @ drift
        for jump in jumps:
            flow += jump @ m @ jump.T
        grown = mask | (flow > 0)
        if np.count_nonzero(grown) > MAX_REACHABLE:
            raise ValueError(
                f"more than {MAX_REACHABLE} density-matrix entries are reachable"
            )
        if np.array_equal(grown, mask):
            return np.flatnonzero(mask).astype(np.int64)
        mask = grown


def _restricted_generator(
    h: Array, ops: Sequence[tuple[float, Array]], codes: Array
) -> Array:
    """The master equation's generator on the entries ``codes`` only.

    Entry (p, q) is the rate at which rho[q] feeds rho[p], for p = (i, j)
    and q = (k, l):  (-i H - D)_ik when l = j, (i H - D)_lj when k = i,
    plus 2 gamma L_ik conj(L_jl) per collapse operator, where
    D = sum gamma L+L.  Only the rows and columns of H and L+L that the
    set touches are read.
    """
    d = h.shape[0]
    rows, cols = np.divmod(codes, d)
    touched = np.unique(rows)  # equals np.unique(cols): the set is adjoint-closed
    damp = np.zeros((touched.size,) * 2, dtype=complex)
    for rate, op in ops:
        sub = op[:, touched]
        sub = sub[np.any(sub != 0, axis=1)]
        damp += rate * (sub.conj().T @ sub)
    h_sub = h[np.ix_(touched, touched)]
    left = -1j * h_sub - damp
    right = (1j * h_sub - damp).T
    ri = np.searchsorted(touched, rows)
    ci = np.searchsorted(touched, cols)
    gen = np.where(cols[:, None] == cols[None, :], left[np.ix_(ri, ri)], 0.0)
    gen += np.where(rows[:, None] == rows[None, :], right[np.ix_(ci, ci)], 0.0)
    for rate, op in ops:
        gen += 2.0 * rate * op[np.ix_(rows, rows)] * op[np.ix_(cols, cols)].conj()
    return gen


#: Pade degrees m with the largest 1-norm theta_m at which the degree-m
#: approximant of exp meets double precision (Higham 2005, Table 2.3)
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
               (13, 5.371920351148152e0))
#: coefficients b_j = (2m - j)! / (j! (m - j)!) of each degree's numerator
_PADE_COEFFS = {
    m: [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
        for j in range(m + 1)]
    for m, _ in _PADE_THETA
}


def _pade_degree(norm: float) -> tuple[int, int]:
    """Pade degree m and squarings s for exp of a matrix of 1-norm ``norm``.

    m is the lowest degree whose theta_m bounds the norm; above theta_13
    the matrix is halved s times to meet it.
    """
    for m, theta in _PADE_THETA:
        if norm <= theta:
            return m, 0
    return m, math.ceil(math.log2(norm / theta))


class _Expm:
    """exp(t G) for the gaps t <= ``t_max`` of one schedule.

    Scaling and squaring with a diagonal Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)): exp(A) = r(A / 2^s)^(2^s)
    with r = p(A) / p(-A) of the degree and s ``_pade_degree`` picks for
    the 1-norm of A = t G.  The powers of G / |G|_1 are formed once, up
    to the degree ``t_max`` needs, so a map costs one weighted sum of
    them, one solve and its squarings; powers of a unit-norm matrix
    cannot overflow.  A non-finite G gives NaN.
    """

    def __init__(self, gen: Array, t_max: float):
        self.norm = np.abs(gen).sum(axis=0).max()
        powers = [np.eye(gen.shape[0]), gen / self.norm if self.norm else gen]
        top = t_max * self.norm
        while np.isfinite(top) and len(powers) <= _pade_degree(top)[0]:
            powers.append(powers[-1] @ powers[1])
        self.powers = powers

    def __call__(self, t: float, vec: Optional[Array] = None) -> Array:
        """exp(t G), or exp(t G) @ ``vec`` when a vector is given.

        Without squarings the vector's image is one solve against that
        vector, a fraction of the cost of the matrix.
        """
        norm = t * self.norm
        if not np.isfinite(norm):
            return np.full_like(self.powers[1] if vec is None else vec, np.nan)
        m, s = _pade_degree(norm)
        c = norm * 2.0 ** -s
        # the even and odd terms b_j A^j of p(A), A = (t / 2^s) G; the
        # denominator is p(-A).  Summed in place, not as one BLAS product
        # over the stacked powers: that product runs threaded, and the
        # threads' spin-wait about doubles a job's CPU time.
        v, u = np.zeros_like(self.powers[1]), np.zeros_like(self.powers[1])
        for j, b in enumerate(_PADE_COEFFS[m]):
            acc = u if j % 2 else v
            acc += b * c ** j * self.powers[j]
        p, q = v + u, v - u
        if vec is not None and not s:
            return np.linalg.solve(q, p @ vec)
        r = np.linalg.solve(q, p)
        for _ in range(s):
            r = r @ r
        return r if vec is None else r @ vec


class _PropagationPlan:
    """The model-only work of ``integrate_master`` for one key.

    It holds the reachable entries ``codes`` of the initial pattern,
    the positions of their adjoints and of the diagonal, and the
    restricted generator ``gen``, all read-only.
    """

    def __init__(self, key: tuple, h: Array, ops, rho0: Array):
        self.key = key
        codes = reachable_entries(rho0, h, ops)
        d = h.shape[0]
        rows, cols = np.divmod(codes, d)
        self.codes = _read_only(codes)
        self.adj = _read_only(np.searchsorted(codes, cols * d + rows))
        self.diag = _read_only(np.flatnonzero(rows == cols))
        self.gen = _read_only(_restricted_generator(h, ops, codes))


def _propagation_plan(
    cfg: ModelConfig, ops: Sequence[tuple[float, Array]], rho0: Array
) -> _PropagationPlan:
    """``cfg``'s plan for these collapse operators and initial pattern.

    The config keeps one plan, the latest, and builds a new one when the
    key changes: the rates and operator entries as bytes, and the
    nonzero pattern of ``rho0``.  Default and explicit collapse
    operators of equal values therefore share a plan.  The plan is kept
    as long as the config object, so every call made with one config
    (the rows of a sweep) shares it and separate configs never do.
    """
    key = ((rho0 != 0).tobytes(), np.array([r for r, _ in ops]).tobytes(),
           *(op.tobytes() for _, op in ops))
    plan = cfg.__dict__.get("_plan")
    if plan is None or plan.key != key:
        plan = _PropagationPlan(key, cfg.hamiltonian, ops, rho0)
        # a frozen dataclass: stored beside the cached operators, not as a field
        object.__setattr__(cfg, "_plan", plan)
    return plan


def integrate_master(
    rho0: DensityMatrix,
    cfg: ModelConfig,
    noise: NoiseConfig,
    t_end: float,
    dt: float = DEFAULT_DT,
    sample_times: Optional[Sequence[float]] = None,
) -> EvolutionResult:
    """Exact propagation of the master equation to each sample time.

    d rho/dt = -i [H, rho] + sum_k gamma_k (2 L rho L+ - L+L rho - rho L+L)

    The state is evolved on the entries it can reach from rho0 (see
    ``reachable_entries``; under probe decay 19 of 64 for the resonant
    qubit model with a ground probe and at most 170 for the full
    dispersive model).  The set and the generator G restricted to it
    are ``cfg``'s propagation plan (see ``_propagation_plan``): built
    once and reused by later calls with the same collapse operators and
    initial nonzero pattern.  G does not depend on time, so the gap g
    between consecutive sample times is the linear map exp(G g) (see
    ``_Expm``).  A gap that recurs is formed once as a matrix, dropped
    after its last use, so each of its samples costs one mat-vec; a gap
    taken once costs one solve against the state.  The state is
    re-Hermitized at every sample, and the samples are returned as the
    (n, k) stack of those entries (see ``EvolutionResult``), never as
    d x d matrices.  Trace drift beyond 1e-6 at any sample, or a
    non-finite trace, aborts the run: that is how a rate too large to
    propagate in double precision (or one that overflows) fails.  A
    non-finite t_end, one above MAX_T_END, sample times closer than
    MIN_SAMPLE_GAP (a repeated one too; only a first sample at 0 may
    sit closer to 0) and more than MAX_REACHABLE reachable entries are
    rejected before any propagation.

    There is no step: ``dt`` accepts DEFAULT_DT only and raises on any
    other value.  It stays in the signature because the benchmark's
    tracer (``bench/tracing.py``) binds this function's arguments by name
    and reads it; it goes once the tracer drops its step counters.
    """
    if dt != DEFAULT_DT:
        raise ValueError("propagation is exact; the step is not an option")
    if rho0.space.dims != cfg.space.dims:
        raise ValueError("initial state does not live on the model space")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if t_end > MAX_T_END:
        raise ValueError(f"t_end exceeds {MAX_T_END:g}")
    if sample_times is None:
        sample_times = (float(t_end),)
    sample_times = sorted(float(t) for t in sample_times)
    if any(t < 0 or t > t_end + 1e-12 for t in sample_times):
        raise ValueError("sample times must lie in [0, t_end]")
    gaps = [b - a for a, b in zip([0.0, *sample_times], sample_times)]
    # the first sample may sit at 0; a later one may not repeat a time
    if any(gap < MIN_SAMPLE_GAP and (k > 0 or gap > 0.0) for k, gap in enumerate(gaps)):
        raise ValueError(
            f"sample times must lie {MIN_SAMPLE_GAP} or more apart and from 0"
        )
    uses = collections.Counter(gaps)

    ops = noise.resolved_ops(cfg)
    maps = {}

    # a huge rate overflows to a non-finite state, which the trace check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        plan = _propagation_plan(cfg, ops, rho0.mat)
        codes = plan.codes
        vec = np.array(rho0.mat, dtype=complex).ravel()[codes]
        entries = np.empty((len(sample_times), codes.size), dtype=complex)
        expm = _Expm(plan.gen, max(gaps, default=0.0))
        for s, gap in enumerate(gaps):
            if gap:
                uses[gap] -= 1
                if gap in maps or uses[gap]:
                    if gap not in maps:
                        maps[gap] = expm(gap)
                    # a map is dropped after its last gap, so memory stays bounded
                    vec = (maps[gap] if uses[gap] else maps.pop(gap)) @ vec
                else:
                    # a gap taken once needs only the state's image
                    vec = expm(gap, vec)
                vec = 0.5 * (vec + vec[plan.adj].conj())
                if not abs(vec[plan.diag].sum().real - 1.0) <= TRACE_DRIFT_LIMIT:
                    raise ValueError(
                        "trace drift exceeded tolerance: decay rate too large "
                        "to propagate")
            entries[s] = vec

    return EvolutionResult(tuple(sample_times), cfg.space, codes, entries)


# ---------------------------------------------------------------------------
# dispersive-limit validation

#: smallest detuning (units of g) at which the exchange model is taken to
#: stand in for the full dispersive one; at this detuning the two already
#: differ by a trace distance of about 0.15 over one transfer period
MIN_DISPERSIVE_DELTA = 5.0

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


def dispersive_deviation(x: float, delta_over_g: float) -> float:
    """Worst-case twirled trace distance between the full and effective models.

    Evolves the family state with an excited probe and vacuum cavities
    under the full (Stark-compensated) model, reduces to the three
    atoms and compares against the exchange model at 201 evenly spaced
    times over one transfer period, pi / (2 sqrt(2) J).  The cavities'
    three Fock levels are exact here (see the module docstring), so one
    run suffices.
    """
    if delta_over_g < MIN_DISPERSIVE_DELTA:
        raise ValueError(f"dispersive comparison needs delta >= {MIN_DISPERSIVE_DELTA:g} g")
    eff_cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=delta_over_g)
    t_end = float(np.pi / (2.0 * np.sqrt(2.0) * eff_cfg.j_exchange))
    times = np.linspace(0.0, t_end, 201)

    eff_prop = SpectralPropagator.from_hamiltonian(eff_cfg.hamiltonian)
    eff0 = initial_joint(x, eff_cfg, ProbePrep.EXCITED).mat
    cfg = ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=delta_over_g)
    prop = SpectralPropagator.from_hamiltonian(cfg.hamiltonian)
    full0 = initial_joint(x, cfg, ProbePrep.EXCITED).mat
    worst = 0.0
    for t in times:
        full_abc = partial_trace_mat(prop.apply_mat(full0, t), cfg.space.dims, {0, 1, 2})
        eff_abc = eff_prop.apply_mat(eff0, t)
        worst = max(worst, trace_distance(_phase_twirl(full_abc), _phase_twirl(eff_abc)))
    return worst
