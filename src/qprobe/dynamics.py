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
``EvolutionResult.readout`` reads the pair (A, B) and the probe C of every
sample; on bosonic modes the pair is conditioned on the {0, 1}-photon
block ``TWO_LEVEL_INDEX`` that ``initial_joint`` embeds the family into.

Open-system evolution (``integrate_master``) is exact propagation of
the density-matrix entries the dynamics can reach from the initial
state.  Every Hamiltonian here conserves excitation number and the
probe's sigma^- lowers ket and bra together, so that set is small (at
most 170 entries under probe decay).  The generator G does not depend
on time, so a gap g between sample times is the matrix exp(G g) on that
set, formed by scaling and squaring and kept in an LRU cache of
GAP_MAPS maps: memory stays bounded, and a gap that recurs soon after
its last use is formed once.  A uniform schedule (``np.linspace``) is
one run with one map, whose samples after the first BLOCK are
propagated BLOCK at a time by one matrix product each; any other
schedule takes one step per gap, each with its own map.

What depends on a ``ModelConfig`` alone is kept once per config value
for the whole process, in two LRU tables: the Hamiltonian, the probe's
sigma^- (read-only arrays) and the spectral propagator of MODELS config
values, and the PLANS latest propagation plans of ``integrate_master``
(the reachable set, the restricted generator, the powers of it formed so
far and the cache of gap maps), keyed by the config, the decay rate and
the initial nonzero pattern.  Every key is a plain value, so every call
made with an equal config, from the same config object or a new one,
skips that set-up and gets bit-identical numbers; ``clear_model_store``
empties both tables.  The module needs numpy only.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .qcore import (
    TRACE_TOL,
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
    """Which Hamiltonian to build, plus its detuning (dispersive variants only).

    A config is a value: equality and hashing see ``variant`` and
    ``delta`` only.  What is derived from it alone, ``hamiltonian`` and
    ``probe_sigma_minus`` (read-only arrays) and ``propagator``, is built
    on first use and kept by value in the process's model store (MODELS
    configs, least recently used out first; ``integrate_master``'s plans
    are kept beside them, see ``_propagation_plan``), so equal configs
    share it and none of it is stored on the object.
    """

    variant: ModelVariant
    delta: Optional[float] = None

    def __post_init__(self):
        if self.delta is not None and not math.isfinite(self.delta):
            raise ValueError("detuning must be finite")
        if self.variant not in _DISPERSIVE and self.delta is not None:
            raise ValueError(f"the {self.variant.value} model takes no detuning")
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

    @property
    def space(self) -> HilbertSpace:
        return _SPACES[self.variant]

    @property
    def hamiltonian(self) -> Array:
        """``build_hamiltonian(self)``, built once per config value; read-only."""
        return _model(self).hamiltonian

    @property
    def propagator(self) -> SpectralPropagator:
        """The spectral propagator of ``hamiltonian``, built once per config value."""
        return _model(self).propagator

    @property
    def probe_sigma_minus(self) -> Array:
        """``probe_lowering(self)``, built once per config value; read-only."""
        return _model(self).probe_sigma_minus


_SPACES = {
    ModelVariant.RESONANT_QUBIT: HilbertSpace((2, 2, 2), ("A", "B", "C")),
    ModelVariant.RESONANT_BOSON: HilbertSpace((3, 3, 2), ("A", "B", "C")),
    ModelVariant.DISPERSIVE_FULL: HilbertSpace((2, 2, 2, 3, 3), ("A", "B", "C", "cav1", "cav2")),
    ModelVariant.DISPERSIVE_EFFECTIVE: HilbertSpace((2, 2, 2), ("A", "B", "C")),
}

#: config values whose model the process keeps, least recently used out
#: first: a Hamiltonian, sigma^- and propagator hold 3 d^2 16 B, 250 kB at
#: the largest model (d = 72), so the table holds at most 2.0 MB
MODELS = 8


class _Model:
    """What one config value determines, each part built on first use."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg

    @functools.cached_property
    def hamiltonian(self) -> Array:
        return _read_only(build_hamiltonian(self.cfg))

    @functools.cached_property
    def propagator(self) -> SpectralPropagator:
        return SpectralPropagator.from_hamiltonian(self.hamiltonian)

    @functools.cached_property
    def probe_sigma_minus(self) -> Array:
        return _read_only(probe_lowering(self.cfg))


_model = functools.lru_cache(maxsize=MODELS)(_Model)


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


def probe_lowering(cfg: ModelConfig) -> Array:
    """sigma^- on the probe atom, embedded in the model's full space."""
    return _embed({2: ATOM_LOWER}, cfg.space.dims)


#: indices of |00>, |01>, |10>, |11> in the space of two three-level
#: modes; used through ``np.ix_`` to embed a two-qubit matrix into a
#: pair of bosonic modes and to project it back
TWO_LEVEL_INDEX = (0, 1, 3, 4)
#: ``np.ix_`` of TWO_LEVEL_INDEX with itself, formed once (read-only)
_TWO_LEVEL_BLOCK = tuple(_read_only(i) for i in np.ix_(TWO_LEVEL_INDEX, TWO_LEVEL_INDEX))


def boson_pair_to_qubits_stack(blocks: Array) -> Array:
    """Conditional pair states from their (n, 4, 4) {0, 1}-photon blocks.

    ``blocks`` holds each pair state restricted to ``TWO_LEVEL_INDEX``;
    every block is renormalized to unit trace and checked as
    DensityMatrix checks a state.  A block of zero or non-finite trace
    (no population in the block) is refused before the division.
    """
    traces = np.trace(blocks, axis1=1, axis2=2).real
    if not (np.isfinite(traces).all() and traces.all()):
        s = int(np.flatnonzero(~np.isfinite(traces) | (traces == 0.0))[0])
        raise ValueError(f"pair block {s} has trace {float(traces[s])!r}: "
                         "no conditional state to renormalize")
    out = blocks / traces[:, None, None]
    check_density_stack(out)
    return out


def initial_joint(x: float, cfg: ModelConfig, prep: ProbePrep) -> DensityMatrix:
    """Family state on (A, B), freshly prepared probe, cavities in vacuum.

    An excited probe on ``RESONANT_BOSON`` is refused: its |11>
    component holds three excitations, which can put a third photon
    into one mode.
    """
    return initial_joint_from_pair(one_param_density(x), cfg, prep)


def initial_joint_from_pair(
    pair: DensityMatrix, cfg: ModelConfig, prep: ProbePrep
) -> DensityMatrix:
    """``initial_joint`` with the two-qubit state ``pair`` on (A, B).

    A caller that also needs the family state itself passes
    ``one_param_density(x)``, so the state is built and checked once.
    """
    if pair.space.dims != (2, 2):
        raise ValueError("two-qubit pair state required")
    return DensityMatrix(cfg.space, initial_joint_matrices(pair.mat[None], cfg, prep)[0])


def initial_joint_matrices(pairs: Array, cfg: ModelConfig, prep: ProbePrep) -> Array:
    """The (n, d, d) matrices of ``initial_joint_from_pair`` for an (n, 4, 4) pair stack.

    The pairs (embedded on ``TWO_LEVEL_INDEX`` of two bosonic modes) are
    stacked row-wise into one (n m, m) operand, so each Kronecker product
    with the probe and the vacuum cavities runs once for the whole stack:
    row block s of the result is the product of pair s, bit for bit.
    The matrices are not checked.
    """
    dims = cfg.space.dims
    if cfg.variant is ModelVariant.RESONANT_BOSON:
        if prep is ProbePrep.EXCITED:
            raise ValueError(
                "an excited probe on the bosonic resonant model needs a third "
                "photon per mode; only the ground probe is supported"
            )
        big = np.zeros((len(pairs),) + (dims[0] * dims[1],) * 2, dtype=complex)
        big[(slice(None), *_TWO_LEVEL_BLOCK)] = pairs
        pairs = big

    n, m = pairs.shape[:2]
    parts = [pairs.reshape(n * m, m), prep.matrix]
    if cfg.variant is ModelVariant.DISPERSIVE_FULL:
        vac = np.zeros((dims[3], dims[3]), dtype=complex)
        vac[0, 0] = 1.0
        parts += [vac, vac]
    d = cfg.space.dim
    return kron_all(*parts).reshape(n, d, d)


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
    family = one_param_density(x)
    mat = family.mat.copy()
    mat[0, 0] = (1.0 - x) * s2
    mat[3, 3] = (1.0 - x) * c2
    rho_ab = DensityMatrix(family.space, mat)
    pe = 2.0 * (1.0 - x) * s2
    rho_c = DensityMatrix(
        HilbertSpace((2,), ("C",)), np.diag([pe, 1.0 - pe]).astype(complex)
    )
    return rho_ab, rho_c


def sigma_z_stack(mats: Array) -> Array:
    """<sigma_z> of every probe state of an (n, 2, 2) stack, (|e>, |g>) ordering.

    The two populations' difference, p_e - p_g: tr(rho PROBE_SIGMA_Z)
    read off the diagonal, bit for bit.
    """
    return mats[:, 0, 0].real - mats[:, 1, 1].real


@dataclass(frozen=True)
class NoiseConfig:
    """Spontaneous-emission rate ``gamma`` of the probe atom, the one dissipator.

    Its collapse operator is sigma^- on the probe atom of the model at
    hand; the rate multiplies the 2 L rho L^dag - L^dag L rho - rho L^dag L
    form directly.  A config is a value: equal rates give equal, equally
    hashed configs.
    """

    gamma: float = 0.0
    #: not a field: the benchmark's tracer (``bench/tracing.py``) reads it
    #: to count collapse operators; it goes once the tracer drops that read
    collapse_ops = None

    def __post_init__(self):
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError("rates must be nonnegative and finite")

    def resolved_ops(self, cfg: ModelConfig) -> list[tuple[float, Array]]:
        """The (rate, operator) pairs of ``cfg``'s master equation: probe decay, if any."""
        return [(self.gamma, cfg.probe_sigma_minus)] if self.gamma else []


def readout_entries(space: HilbertSpace, codes: Array, entries: Array) -> tuple[Array, Array]:
    """The (n, 4, 4) pair (A, B) and (n, 2, 2) probe (C) stacks of joint states on ``space``.

    Row s of the (n, k) array ``entries`` holds joint state s at the flat
    indices ``codes``, as in ``EvolutionResult``; the rows are states
    already checked and are not checked again.  Each stack is one
    ``reduced_entry_stack`` call over every row.  On bosonic modes
    (``space.dims[:2] == (3, 3)``) the pair is their conditional state
    on ``TWO_LEVEL_INDEX``, renormalized and checked as one stack by
    ``boson_pair_to_qubits_stack``.  The one readout of ``EvolutionResult``
    and of the probe cycles' rows.
    """
    dims = space.dims
    if dims[:2] == (3, 3):
        pair = boson_pair_to_qubits_stack(
            reduced_entry_stack(codes, entries, dims, (0, 1), TWO_LEVEL_INDEX))
    else:
        pair = reduced_entry_stack(codes, entries, dims, (0, 1))
    return pair, reduced_entry_stack(codes, entries, dims, (2,))


@dataclass(frozen=True)
class EvolutionResult:
    """Sampled joint states, kept as the density-matrix entries they reach.

    Row s of the (n, k) array ``entries`` holds the joint state at
    ``times[s]`` at the flat indices ``codes`` (i * d + j), the
    reachable entries (``reachable_entries``) of ``integrate_master``
    or of the noiseless probe cycle; every other entry is exactly zero.
    Construction checks every sample at once with DensityMatrix's
    checks, tolerances and order (over bounded blocks of the stack, see
    ``qcore.check_density_stack``), on the matrices restricted to the
    basis states the codes touch (the rows and columns outside are
    zero).  ``codes`` and ``entries`` are kept as read-only
    copies.  ``reduced_stack`` reduces all samples in one call,
    ``readout`` gives the pair and probe stacks (``readout_entries``),
    and ``joint_states`` is built on first use.
    """

    times: tuple[float, ...]
    space: HilbertSpace
    codes: Array
    entries: Array

    def __post_init__(self):
        if len(self.times) > 1:
            times = np.array(self.times, dtype=float)
            if (times[1:] <= times[:-1]).any():
                raise ValueError("sample times must be strictly increasing")
        codes = _read_only(np.array(self.codes, dtype=np.int64))
        entries = _read_only(np.array(self.entries, dtype=complex))
        if entries.shape != (len(self.times), codes.size):
            raise ValueError(
                f"entries of shape {entries.shape} do not match "
                f"{len(self.times)} times and {codes.size} codes"
            )
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "entries", entries)
        # the set is adjoint-closed, so its rows are the basis states it touches
        touched = np.flatnonzero(np.bincount(codes // self.space.dim, minlength=self.space.dim))
        check_density_stack(self.reduced_stack(range(self.space.nfactors), touched))

    def reduced_stack(self, keep, index=None) -> Array:
        """(n, m, m) stack of the samples reduced to the factors ``keep``.

        Restricted to the basis states ``index`` of the kept space (all
        of them by default); see ``qcore.reduced_entry_stack``.
        """
        return reduced_entry_stack(self.codes, self.entries, self.space.dims, keep, index)

    def readout(self) -> tuple[Array, Array]:
        """The (n, 4, 4) pair (A, B) and (n, 2, 2) probe (C) stacks: ``readout_entries``.

        On bosonic modes the pair is checked by ``boson_pair_to_qubits_stack``;
        the other stacks are reductions of the checked samples and are
        not checked again.
        """
        return readout_entries(self.space, self.codes, self.entries)

    @functools.cached_property
    def joint_states(self) -> tuple[DensityMatrix, ...]:
        return tuple(DensityMatrix(self.space, m)
                     for m in self.reduced_stack(range(self.space.nfactors)))


#: the only ``dt`` that ``integrate_master`` accepts (see there)
DEFAULT_DT = 1e-3
#: largest trace drift a sample may show; ``EvolutionResult`` checks the
#: trace against the same bound, so a drifting run fails here, by rate
TRACE_DRIFT_LIMIT = TRACE_TOL
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
    # the sorted rows touched, which are its columns: the set is adjoint-closed
    touched = np.flatnonzero(np.bincount(rows, minlength=d))
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
    """exp(t G) for any gap t.

    Scaling and squaring with a diagonal Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)): exp(A) = r(A / 2^s)^(2^s)
    with r = p(A) / p(-A) of the degree and s ``_pade_degree`` picks for
    the 1-norm of A = t G.  The powers of G / |G|_1 are formed on
    demand, once, up to the highest degree asked for, so a map costs
    one weighted sum of them, one solve and its squarings; powers of a
    unit-norm matrix cannot overflow.  The list grows by copy and swap,
    so a thread never reads a half-grown one.  A non-finite G gives NaN.
    """

    def __init__(self, gen: Array):
        self.gen = gen
        self.norm = np.abs(gen).sum(axis=0).max()
        self.powers = [np.eye(gen.shape[0]), gen / self.norm if self.norm else gen]

    def _powers_to(self, m: int) -> list[Array]:
        powers = self.powers
        if len(powers) <= m:
            powers = list(powers)
            while len(powers) <= m:
                powers.append(powers[-1] @ powers[1])
            self.powers = powers
        return powers

    def __call__(self, t: float) -> Array:
        """exp(t G) as a read-only matrix."""
        norm = t * self.norm
        if not np.isfinite(norm):
            return _read_only(np.full_like(self.gen, np.nan))
        m, s = _pade_degree(norm)
        powers = self._powers_to(m)
        c = norm * 2.0 ** -s
        # the even and odd terms b_j A^j of p(A), A = (t / 2^s) G; the
        # denominator is p(-A).  Summed in place, not as one BLAS product
        # over the stacked powers: that product runs threaded, and the
        # threads' spin-wait about doubles a job's CPU time.
        v, u = np.zeros_like(powers[1]), np.zeros_like(powers[1])
        for j, b in enumerate(_PADE_COEFFS[m]):
            acc = u if j % 2 else v
            acc += b * c ** j * powers[j]
        r = np.linalg.solve(v - u, v + u)
        for _ in range(s):
            r = r @ r
        return _read_only(r)


#: gap maps exp(G g) each propagation plan keeps, least recently used
#: out first, and as many of their BLOCK-th powers.  A uniform schedule
#: takes one map (see ``integrate_master``), any other one a map per
#: distinct gap; 8 leaves room for gaps that alternate and for the next
#: call's gap (the readout time of the next sweep row), and holds at most
#: 8 k^2 16 B per cache: 3.7 MB at the models' largest set (k = 170).
GAP_MAPS = 8
#: samples of a uniform schedule propagated by one product with M^BLOCK.  A
#: (BLOCK, k) @ (k, k) product runs on one thread as long as OpenBLAS
#: keeps it below its threading threshold: at k = 35 (``secii-boson``)
#: 16 and 32 rows ran single-threaded and 64 or 100 rows on both cores
#: of a 2-CPU machine, which cost more CPU time than the wall time it
#: saved.  16 rows take 11 us there against 50 us for 16 mat-vecs.
BLOCK = 16
#: relative rounding of sample times that one arithmetic progression
#: absorbs.  ``np.linspace`` rounds its step, the step's multiple and the
#: sum, each to within half an ulp of the largest time, and the first
#: sample time carries its own rounding; 8 ulps of max(t, 1) bound all of
#: it with room to spare (times computed from values of order 1 round at
#: that order, however small they are).  A uniform schedule's times may
#: then sit 8 ulps off the progression of its first gap, a time error of
#: the times' own order.
SCHEDULE_ROUNDING = 8 * np.finfo(float).eps


#: propagation plans the process keeps, least recently used out first.  A
#: plan holds its generator, at most 14 powers of it (``_Expm``), GAP_MAPS
#: maps and GAP_MAPS of their BLOCK-th powers: at most 31 k^2 16 B, 14.3 MB
#: at the models' largest set (k = 170) and 0.6 MB at ``secii-boson``'s
#: (k = 35), so the table holds at most 57 MB.  4 keeps a sweep's plans
#: for x < 1, x = 2/3 and x = 1 and one more.
PLANS = 4


class _PropagationPlan:
    """The model-only work of ``integrate_master`` for one key.

    It holds the reachable entries ``codes`` of the initial pattern,
    the positions of their adjoints and of the diagonal, and the
    restricted generator ``gen``, all read-only; ``gap_map``: the
    read-only matrix M = exp(G g) of a gap g, formed by ``_Expm``; and
    ``block_map``: M^BLOCK for that gap, read-only.  Each is kept in an
    LRU cache of GAP_MAPS entries, so a gap that recurs, within a call or
    in a later one (the next row of a sweep, the next job), is formed
    once.
    """

    def __init__(self, h: Array, ops, rho0: Array):
        codes = reachable_entries(rho0, h, ops)
        d = h.shape[0]
        rows, cols = np.divmod(codes, d)
        self.codes = _read_only(codes)
        self.adj = _read_only(np.searchsorted(codes, cols * d + rows))
        self.diag = _read_only(np.flatnonzero(rows == cols))
        self.gen = _read_only(_restricted_generator(h, ops, codes))
        self.gap_map = gap_map = functools.lru_cache(maxsize=GAP_MAPS)(_Expm(self.gen).__call__)
        self.block_map = functools.lru_cache(maxsize=GAP_MAPS)(
            lambda gap: _read_only(np.linalg.matrix_power(gap_map(gap), BLOCK)))


@functools.lru_cache(maxsize=PLANS)
def _propagation_plan(cfg: ModelConfig, gamma: float, pattern: bytes) -> _PropagationPlan:
    """The plan for ``cfg``, probe decay at rate ``gamma`` and the initial pattern ``pattern``.

    ``pattern`` is ``(rho0 != 0).tobytes()`` of the initial d x d state.
    Plans are kept in the process's model store, one LRU table of PLANS
    plans keyed by these plain values, so every call with an equal
    config and rate shares one: the rows of a sweep, and later jobs or
    ``ModelConfig(...)`` built anew per call in one process.  A grid
    through x = 2/3 keeps the plan of the other x < 1 while it builds the
    one of 2/3, so it builds each plan once.
    """
    nonzero = np.frombuffer(pattern, dtype=bool).reshape((cfg.space.dim,) * 2)
    return _PropagationPlan(cfg.hamiltonian, NoiseConfig(gamma).resolved_ops(cfg), nonzero)


def clear_model_store() -> None:
    """Drop every model and propagation plan the process keeps; later calls build them anew."""
    _model.cache_clear()
    _propagation_plan.cache_clear()


def integrate_master(
    rho0: DensityMatrix,
    cfg: ModelConfig,
    noise: NoiseConfig,
    t_end: float,
    dt: float = DEFAULT_DT,
    sample_times: Optional[Sequence[float]] = None,
) -> EvolutionResult:
    """Exact propagation of the master equation to each sample time.

    d rho/dt = -i [H, rho] + gamma (2 L rho L+ - L+L rho - rho L+L),  L = sigma^- on the probe

    The state is evolved on the entries it can reach from rho0 (see
    ``reachable_entries``; under probe decay 19 of 64 for the resonant
    qubit model with a ground probe and at most 170 for the full
    dispersive model).  The set and the generator G restricted to it
    are a propagation plan that the process keeps by the config's value
    (see ``_propagation_plan``): built once and reused by every later
    call with an equal config, an equal rate and the same initial
    nonzero pattern.  G does not depend on time, so the gap h
    between sample times is the linear map M = exp(G h), which the plan
    forms once and keeps in its LRU cache of GAP_MAPS maps (see
    ``_PropagationPlan``); a later call with the same gap (the next row
    of a sweep, the next job) forms no exponential and gives
    bit-identical states.  One rule steps the points 0 (rho0) and the
    sample times.  If every point lies within SCHEDULE_ROUNDING *
    max(t_last, 1) of the progression of the first gap, as an
    ``np.linspace`` schedule from 0 does, the schedule is uniform and
    takes one M, at that gap: its first BLOCK samples take one mat-vec
    each, every later BLOCK samples one (BLOCK, k) @ (k, k) product with
    M^BLOCK (``matrix_power``, kept beside M).  Any other schedule takes
    one step per gap, with the map of its raw gap, so recurring gaps
    reuse their maps; a one-sample schedule is one step.  The samples
    are written in place into the (n, k) stack.  The caches hold at most
    2 GAP_MAPS k^2 16 B for k entries, whatever the schedule's length.
    The stack is re-Hermitized once propagation ends, and the samples
    are returned as that stack (see ``EvolutionResult``), never as
    d x d matrices.  The trace is then
    checked over every sample: trace drift beyond TRACE_DRIFT_LIMIT
    (``qcore.TRACE_TOL``, the bound of the samples' state check) at any
    sample, or a non-finite trace, fails the run.  That is how a
    generator too large to propagate in double precision fails: a decay
    rate, or a Hamiltonian term such as a large detuning.  A non-finite
    t_end, one above MAX_T_END, an empty schedule, sample times closer
    than MIN_SAMPLE_GAP (a repeated one too; only a first sample at 0
    may sit closer to 0) and more than MAX_REACHABLE reachable entries
    are rejected before any propagation.

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
    times = np.array(sample_times, dtype=float)
    if times.ndim != 1:
        raise TypeError("sample times must be a sequence of numbers")
    if times.size == 0:
        raise ValueError("sample times must hold at least one time")
    times.sort()
    # NaN sorts last, so it fails too
    if not (0.0 <= times[0] and times[-1] <= t_end + 1e-12):
        raise ValueError("sample times must lie in [0, t_end]")
    # the first sample may sit at 0; a later one may not repeat a time
    if 0.0 < times[0] < MIN_SAMPLE_GAP or (
            len(times) > 1 and (times[1:] - times[:-1] < MIN_SAMPLE_GAP).any()):
        raise ValueError(
            f"sample times must lie {MIN_SAMPLE_GAP} or more apart and from 0"
        )
    # a huge rate overflows to a non-finite state, which the trace check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        plan = _propagation_plan(cfg, noise.gamma, (rho0.mat != 0).tobytes())
        codes = plan.codes
        # row 0 holds rho0: the first sample if that sits at 0, else a lead row
        lead = int(times[0] > 0.0)
        points = np.concatenate(([0.0], times)) if lead else times
        stack = np.empty((points.size, codes.size), dtype=complex)
        stack[0] = np.asarray(rho0.mat, dtype=complex).ravel()[codes]
        n = points.size - 1
        # points[0] is 0, so the progression of the first gap is points[1] * j
        if n > 1 and (np.abs(points - points[1] * np.arange(n + 1.0))
                      <= SCHEDULE_ROUNDING * max(points[-1], 1.0)).all():
            step = plan.gap_map(points[1])
            for s in range(1, min(n, BLOCK) + 1):
                np.matmul(step, stack[s - 1], out=stack[s])
            if n > BLOCK:
                jump = plan.block_map(points[1]).T
                for s in range(BLOCK + 1, n + 1, BLOCK):
                    end = min(s + BLOCK, n + 1)
                    np.matmul(stack[s - BLOCK:end - BLOCK], jump, out=stack[s:end])
        else:
            for s in range(1, n + 1):
                np.matmul(plan.gap_map(points[s] - points[s - 1]), stack[s - 1], out=stack[s])
        entries = stack[lead:]
        entries += entries.take(plan.adj, axis=1).conj()
        entries *= 0.5
        drift = np.abs(entries[:, plan.diag].sum(axis=1).real - 1.0)
        if not (drift <= TRACE_DRIFT_LIMIT).all():
            raise ValueError(
                "trace drift exceeded tolerance: generator too large to propagate "
                "(a decay rate or a Hamiltonian term such as the detuning)")

    return EvolutionResult(tuple(times.tolist()), cfg.space, codes, entries)


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

    eff0 = initial_joint(x, eff_cfg, ProbePrep.EXCITED).mat
    cfg = ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=delta_over_g)
    full0 = initial_joint(x, cfg, ProbePrep.EXCITED).mat
    worst = 0.0
    for t in times:
        full = cfg.propagator.apply_mat(full0, t)
        full_abc = partial_trace_mat(full, cfg.space.dims, {0, 1, 2})
        eff_abc = eff_cfg.propagator.apply_mat(eff0, t)
        worst = max(worst, trace_distance(_phase_twirl(full_abc), _phase_twirl(eff_abc)))
    return worst
