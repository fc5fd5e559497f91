"""Dense complex-matrix algebra and Hilbert-space bookkeeping.

Everything is ordinary dense numpy on complex128.  The largest model
has dimension 72 (the full dispersive model); the states the
integrator produces are never formed as d x d matrices there, but
kept as stacks of the few entries the dynamics reach, and validated
and reduced on the basis states those entries touch (at most 18 of 72
from the models' initial states).  All containers are frozen
dataclasses holding read-only arrays, so a state checked once cannot
be changed afterwards through an alias of its matrix.  A state is
checked at its construction, or as a row of a stack that
``density_matrices`` checked at once: no ``DensityMatrix`` holds a
matrix that ``check_density_stack`` has not accepted.  qcore never
writes to an input, so the read-only operators a
``dynamics.ModelConfig`` caches for its lifetime pass through it as
they are.  The only state it keeps between calls is two bounded
caches of read-only arrays that never depend on a value passed in:
``reduced_entry_stack``'s index plans, which depend on the entries'
positions, and ``check_density_stack``'s shifted identity per
dimension.

Conventions:
    hbar = 1; the coupling g = 1 is the fixed energy unit and times
    are in units of 1/g.  Entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

Array = np.ndarray

# Numerical tolerances.  The eigenvalue floor and entropy clip sit well
# above round-off at these dimensions and far below any physical value.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8
ENTROPY_CLIP = 1e-12
#: max Hermiticity deviation accepted by hermitian_eigen before symmetrizing
EIGH_INPUT_TOL = 1e-8


def _as_matrix(m) -> Array:
    """Return the raw complex matrix of a DensityMatrix or array-like."""
    if isinstance(m, DensityMatrix):
        return m.mat
    return np.asarray(m, dtype=complex)


def _frozen_array(m) -> Array:
    a = np.array(m, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor-factor structure: one dimension and label per subsystem."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("factor dimensions must be positive")
        if len(self.labels) != len(self.dims):
            raise ValueError("one label per factor required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")

    @property
    def dim(self) -> int:
        """Total dimension (product of the factor dimensions)."""
        return math.prod(self.dims)

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    def subspace(self, keep: Iterable[int]) -> "HilbertSpace":
        """Space spanned by the kept factors, original order preserved."""
        idx = sorted(set(int(k) for k in keep))
        if not idx or any(k < 0 or k >= self.nfactors for k in idx):
            raise ValueError("bad subsystem")
        return HilbertSpace(
            tuple(self.dims[k] for k in idx), tuple(self.labels[k] for k in idx)
        )


#: dimensions whose shifted identity ``check_density_stack`` keeps
SHIFTS = 16


@functools.lru_cache(maxsize=SHIFTS)
def _floor_shift(m: int) -> Array:
    """The read-only m x m identity times -EIG_FLOOR."""
    shift = -EIG_FLOOR * np.eye(m)
    shift.setflags(write=False)
    return shift


#: bytes of complex128 rows that one block of ``check_density_stack``
#: covers; a block's temporaries take at most about twice this
CHECK_BLOCK = 2 ** 16


def check_density_stack(mats: Array) -> None:
    """Raise ValueError unless every matrix of an (n, m, m) stack is a state.

    The checks run in this order over the whole stack: finite entries,
    Hermiticity (1e-10), unit trace (1e-10) and smallest eigenvalue
    >= -1e-8, so a stack with several faults reports the first kind in
    that order, wherever its rows lie.  Positivity is decided without an
    eigensolve: a Hermitian matrix has every eigenvalue above -1e-8
    exactly when it plus 1e-8 times the identity is positive definite,
    which is when its Cholesky factorization exists (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed. (2002), ch. 10).  The
    two tests differ only at equality, within rounding.

    Each check is one pass over blocks of rows whose complex128 copy
    takes at most CHECK_BLOCK bytes (one row, if a row is larger).  One
    block-sized working buffer serves every block's Hermiticity
    difference and shifted matrices, and a block's other temporaries
    (the moduli of that difference, its Cholesky factor, its traces) are
    at most as large.  So a check of any length allocates a bounded
    amount beyond its input, small enough that the allocator keeps it
    instead of returning its pages to the system after each call; a
    stack of one block runs each check once, on the whole stack.
    """
    m = mats.shape[-1]
    rows = max(1, CHECK_BLOCK // (16 * m * m))
    starts = range(0, len(mats), rows)
    for s in starts:
        if not np.isfinite(mats[s:s + rows]).all():
            raise ValueError("non-finite entries")
    # one buffer of the largest block, at least double precision, serves
    # each block's Hermiticity difference and then its shifted matrices
    work = np.empty((min(len(mats), rows), m, m),
                    dtype=np.promote_types(mats.dtype, np.float64))
    for s in starts:
        block = mats[s:s + rows]
        # conj(m) - m^T: the transpose of the Hermiticity difference, entry
        # for entry, formed from a contiguous read of the block
        diff = np.conjugate(block, out=work[:len(block)])
        diff -= block.swapaxes(-1, -2)
        if np.abs(diff).max() > HERMITICITY_TOL:
            raise ValueError("not Hermitian")
    for s in starts:
        # the traces less one, viewed as (real, imaginary) float pairs: the
        # largest modulus of either part is the test
        tr = mats[s:s + rows].trace(axis1=-2, axis2=-1) - 1.0
        if np.abs(tr.astype(np.complex128, copy=False).view(np.float64)).max() > TRACE_TOL:
            raise ValueError("trace differs from one")
    shift = _floor_shift(m)
    for s in starts:
        block = mats[s:s + rows]
        try:
            np.linalg.cholesky(np.add(block, shift, out=work[:len(block)]))
        except np.linalg.LinAlgError:
            raise ValueError("not positive semidefinite") from None


@dataclass(frozen=True)
class DensityMatrix:
    """Positive, unit-trace operator on a declared tensor-factor space.

    Hermiticity (1e-10), trace (1e-10) and positivity (smallest
    eigenvalue >= -1e-8, decided by Cholesky factorization) are
    validated by check_density_stack, at construction or, for the rows
    of a stack, once for the whole stack by ``from_stack`` (also
    ``qcore.density_matrices``); both go through ``_checked``, and
    invalid states raise.
    """

    space: HilbertSpace
    mat: Array

    def __post_init__(self):
        object.__setattr__(self, "mat", self._checked(self.space, self.mat, "matrix"))

    @staticmethod
    def _checked(space: HilbertSpace, mats, kind: str) -> Array:
        """A read-only complex copy of one matrix or an (n, d, d) stack, every state checked.

        The one validation of a state: the shape against ``space``, then
        one check_density_stack call over all the matrices.
        """
        m = np.array(mats, dtype=complex)
        d = space.dim
        if m.shape[-2:] != (d, d) or m.ndim != (2 if kind == "matrix" else 3):
            raise ValueError(f"{kind} shape {m.shape} does not match space dim {d}")
        check_density_stack(m.reshape(-1, d, d))
        m.setflags(write=False)
        return m

    @classmethod
    def from_stack(cls, space: HilbertSpace, mats) -> tuple[DensityMatrix, ...]:
        """Every matrix of an (n, d, d) stack as a state on ``space``, checked at once.

        ``_checked`` validates the whole stack in one check_density_stack
        call, with the checks, order, tolerances and messages of a single
        state; state s then holds row s of its read-only copy, without
        running ``__init__`` and so without a second check of its own.
        """
        states = []
        for row in cls._checked(space, mats, "stack"):
            state = cls.__new__(cls)
            object.__setattr__(state, "space", space)
            object.__setattr__(state, "mat", row)
            states.append(state)
        return tuple(states)

    @property
    def dim(self) -> int:
        return self.space.dim


#: the rows of a stack as states, checked at once (``DensityMatrix.from_stack``)
density_matrices = DensityMatrix.from_stack


def kron(a, b) -> Array:
    """Kronecker product of two operators (dimensions multiply).

    One broadcast multiply, entry (i p + k, j q + l) = a[i, j] b[k, l]
    for b of shape (p, q): the products np.kron forms, bit for bit,
    without its shape handling.  Both operands must be 2-D.
    """
    a, b = _as_matrix(a), _as_matrix(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron takes two 2-D operators")
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def kron_all(*ops) -> Array:
    """Left-to-right Kronecker product of several operators."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = kron(out, op)
    return out


def partial_trace_mat(mat: Array, dims: Sequence[int], keep: Iterable[int]) -> Array:
    """Partial trace of a raw matrix over the factors not in ``keep``."""
    dims = [int(d) for d in dims]
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError("bad subsystem")
    r = np.asarray(mat, dtype=complex).reshape(dims + dims)
    cur = list(range(n))
    for d in sorted(set(range(n)) - set(keep), reverse=True):
        pos = cur.index(d)
        r = np.trace(r, axis1=pos, axis2=pos + len(cur))
        cur.pop(pos)
    dk = int(np.prod([dims[k] for k in keep]))
    return r.reshape(dk, dk)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept factors, order preserved."""
    sub = rho.space.subspace(keep)
    return DensityMatrix(sub, partial_trace_mat(rho.mat, rho.space.dims, keep))


#: reduction plans ``reduced_entry_stack`` keeps, least recently used dropped first
REDUCTION_PLANS = 32


def _read_only_int(a) -> Array:
    a = np.array(a, dtype=np.int64)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=REDUCTION_PLANS)
def _reduction_plan(
    codes: bytes, dims: tuple[int, ...], keep: tuple[int, ...], index: Optional[bytes]
) -> tuple:
    """The index arithmetic of ``reduced_entry_stack`` for one set of inputs.

    ``codes`` and ``index`` are int64 arrays as bytes (``index`` None for
    every basis state).  Returns (steps, m, dest, inside): one step per
    traced factor, last first, as (first, adds), where the step's
    reduced entries start as the columns ``first`` of its input and
    each (targets, sources) of ``adds`` in turn adds the input's
    columns ``sources`` to the columns ``targets``; then the columns
    ``inside`` of the last step's output land at the flat positions
    ``dest`` of the m x m result.  Every array is read-only.
    """
    codes = np.frombuffer(codes, dtype=np.int64)
    dims = list(dims)
    steps = []
    for f in sorted(set(range(len(dims))) - set(keep), reverse=True):
        inner, size, d = math.prod(dims[f + 1:]), dims[f], math.prod(dims)
        rows, cols = np.divmod(codes, d)
        on_diag = np.flatnonzero(rows // inner % size == cols // inner % size)

        def without_f(i):
            return i // (inner * size) * inner + i % inner

        merged = without_f(rows[on_diag]) * (d // size) + without_f(cols[on_diag])
        order = np.argsort(merged, kind="stable")
        merged, taken = merged[order], on_diag[order]
        starts = np.flatnonzero(np.diff(merged, prepend=-1))
        counts = np.diff(starts, append=merged.size)
        # the terms of each reduced entry are added one at a time, in
        # ascending order of factor f's index
        adds = tuple(
            (_read_only_int(np.flatnonzero(counts > j)),
             _read_only_int(taken[starts[counts > j] + j]))
            for j in range(1, counts.max(initial=1))
        )
        steps.append((_read_only_int(taken[starts]), adds))
        codes = merged[starts]
        del dims[f]
    dk = math.prod(dims)
    index = np.arange(dk) if index is None else np.frombuffer(index, dtype=np.int64)
    m = index.size
    pos = np.full(dk, -1)
    pos[index] = np.arange(m)
    r, c = pos[codes // dk], pos[codes % dk]
    inside = (r >= 0) & (c >= 0)
    return (tuple(steps), m, _read_only_int(r[inside] * m + c[inside]),
            _read_only_int(np.flatnonzero(inside)))


def reduced_entry_stack(
    codes: Array,
    entries: Array,
    dims: Sequence[int],
    keep: Iterable[int],
    index: Optional[Sequence[int]] = None,
) -> Array:
    """Partial traces of a stack of matrices given by their nonzero entries.

    Row s of the (n, k) array ``entries`` holds matrix s at the flat
    indices ``codes`` (i * d + j) of the space with factor dimensions
    ``dims``; every other entry is zero.  Returns the (n, m, m) stack of
    the reduced matrices on the factors ``keep`` (order preserved),
    restricted to the basis states ``index`` of the kept space (all of
    them by default).  No d x d matrix is formed: each traced factor,
    last first as in partial_trace_mat, is summed out of the entries of
    the whole stack at once, term by term in the order np.trace adds
    them there.  The index arithmetic depends on ``codes``, ``dims``,
    ``keep`` and ``index`` only, so it is planned once per distinct set
    of them (``_reduction_plan``, an LRU cache of REDUCTION_PLANS) and
    each call only gathers and adds ``entries``.
    """
    dims = tuple(int(d) for d in dims)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError("bad subsystem")
    if index is not None:
        index = np.asarray(index, dtype=np.int64).tobytes()
    steps, m, dest, inside = _reduction_plan(
        np.asarray(codes, dtype=np.int64).tobytes(), dims, keep, index)
    entries = np.asarray(entries, dtype=complex)
    for first, adds in steps:
        reduced = entries[:, first]
        for targets, sources in adds:
            reduced[:, targets] += entries[:, sources]
        entries = reduced
    out = np.zeros((entries.shape[0], m * m), dtype=complex)
    out[:, dest] = entries[:, inside]
    return out.reshape(entries.shape[0], m, m)


def hermitian_eigen(m) -> tuple[Array, Array]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    The input is symmetrized to (m + m^dag)/2 after checking its
    Hermiticity deviation stays below 1e-8.
    """
    a = _as_matrix(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(a - a.conj().T)) > EIGH_INPUT_TOL:
        raise ValueError("not Hermitian")
    a = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(a)
    return vals, vecs


def psd_sqrt_mat(m) -> Array:
    """Hermitian square root of a PSD matrix; eigenvalues in [-1e-8, 0) clip to 0."""
    vals, vecs = hermitian_eigen(m)
    if vals[0] < EIG_FLOOR:
        raise ValueError("not PSD")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root) @ vecs.conj().T


def psd_sqrt(rho: DensityMatrix) -> Array:
    """Positive square root of a density matrix (Hermitian, squares back to it)."""
    return psd_sqrt_mat(rho.mat)


@dataclass(frozen=True)
class SpectralPropagator:
    """exp(-iHt) realized through the spectral decomposition of H.

    Unitarity is exact by construction, so conjugation preserves trace,
    Hermiticity and the full spectrum of any state for any t.
    """

    eigenvalues: Array
    eigenvectors: Array

    @classmethod
    def from_hamiltonian(cls, h) -> "SpectralPropagator":
        vals, vecs = hermitian_eigen(h)
        vals = np.array(vals, dtype=float)
        vals.setflags(write=False)
        return cls(vals, _frozen_array(vecs))

    def unitary(self, t: float) -> Array:
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T

    def apply_mat(self, mat: Array, t: float) -> Array:
        u = self.unitary(t)
        return u @ mat @ u.conj().T

    def apply(self, rho: DensityMatrix, t: float) -> DensityMatrix:
        return DensityMatrix(rho.space, self.apply_mat(rho.mat, t))


def propagate(rho: DensityMatrix, h, t: float) -> DensityMatrix:
    """Unitary conjugation rho -> exp(-iHt) rho exp(+iHt) for Hermitian h."""
    hm = _as_matrix(h)
    if hm.shape != rho.mat.shape:
        raise ValueError("dimension mismatch between state and Hamiltonian")
    return SpectralPropagator.from_hamiltonian(hm).apply(rho, t)


def entropy_of_spectra(values) -> Array:
    """Base-2 entropies of probability spectra along the last axis.

    Values at or below 1e-12 are treated as exact zeros (0 log 0 := 0).
    """
    v = np.asarray(values, dtype=float)
    kept = v > ENTROPY_CLIP
    terms = np.where(kept, v * np.log2(np.where(kept, v, 1.0)), 0.0)
    return -np.add.reduce(terms, axis=-1)


def entropy_of_spectrum(values) -> float:
    """Base-2 von Neumann entropy of one probability spectrum."""
    return float(entropy_of_spectra(values))


def entropy_bits(rho) -> float:
    """Von Neumann entropy in bits of a density matrix."""
    return entropy_of_spectrum(np.linalg.eigvalsh(_as_matrix(rho)))


def trace_distance_stack(a: Array, b: Array) -> Array:
    """(1/2) * trace norm of a - b for (broadcast) stacks of Hermitian matrices."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)), axis=-1)


def trace_distance(a, b) -> float:
    """(1/2) * trace norm of the difference of two states."""
    return float(trace_distance_stack(_as_matrix(a)[None], _as_matrix(b)[None])[0])


def fidelity(a, b) -> float:
    """Uhlmann state fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2."""
    ra = psd_sqrt_mat(_as_matrix(a))
    inner = ra @ _as_matrix(b) @ ra
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)
