"""The one-parameter two-qubit state family and related transforms.

Basis conventions (fixed globally):
  * two-qubit basis order |00>, |01>, |10>, |11>;
  * the family rho0(x) has (4,4) entry 1-x and middle coherence 1-3x/2;
  * the probe qubit is appended as the LAST tensor factor with basis
    order (|e>, |g>), i.e. the first diagonal entry of a probe state is
    the excited-state population.

Which states are X states is decided in ``measures`` alone, by its one guard.
"""

from __future__ import annotations

import enum

import numpy as np

from .qcore import Array, DensityMatrix, HilbertSpace, kron

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


class ProbePrep(enum.Enum):
    """Initial preparation of the probe qubit."""

    GROUND = "ground"
    EXCITED = "excited"

    @property
    def matrix(self) -> Array:
        # basis order (|e>, |g>)
        if self is ProbePrep.EXCITED:
            return np.diag([1.0, 0.0]).astype(complex)
        return np.diag([0.0, 1.0]).astype(complex)


def two_qubit_space() -> HilbertSpace:
    return HilbertSpace((2, 2), ("A", "B"))


#: the family's matrix is _FAMILY_OFFSET + x _FAMILY_SLOPE; each entry is
#: one product and one sum, x/2, 1 - 3x/2 and 1 - x each rounded once
_FAMILY_OFFSET = np.zeros((4, 4), dtype=complex)
_FAMILY_OFFSET[[1, 2, 3], [2, 1, 3]] = 1.0
_FAMILY_SLOPE = np.zeros((4, 4), dtype=complex)
_FAMILY_SLOPE[[1, 2, 1, 2, 3], [1, 2, 2, 1, 3]] = (0.5, 0.5, -1.5, -1.5, -1.0)
_FAMILY_OFFSET.setflags(write=False)
_FAMILY_SLOPE.setflags(write=False)


def family_matrices(xs) -> Array:
    """The (n, 4, 4) matrices of the family at the parameters ``xs``, unchecked.

    Diagonal (0, x/2, x/2, 1-x) with real coherence 1-3x/2 between
    |01> and |10>.  In the Bell-diagonal picture this is weight 1-x on
    (|01>+|10>)/sqrt2, weight 2x-1 on (|01>-|10>)/sqrt2 and weight 1-x
    on |11>.  Every x must lie in [1/2, 1].
    """
    xs = np.array(xs, dtype=float)
    if not all(0.5 <= x <= 1.0 for x in xs.tolist()):  # NaN fails too
        raise ValueError("x out of family domain")
    mats = xs[:, None, None] * _FAMILY_SLOPE
    mats += _FAMILY_OFFSET
    return mats


def one_param_density(x: float) -> DensityMatrix:
    """Density matrix of the family at parameter x in [1/2, 1] (see ``family_matrices``)."""
    return DensityMatrix(two_qubit_space(), family_matrices([x])[0])


def corner_swap(rho: DensityMatrix) -> DensityMatrix:
    """Conjugation by sigma_x (x) sigma_x.

    On the family this exchanges the |00> and |11> populations while
    leaving the middle block untouched; it is a local unitary, so every
    correlation measure is preserved.
    """
    if rho.dim != 4:
        raise ValueError("two-qubit state required")
    return DensityMatrix(rho.space, corner_swap_matrices(rho.mat))


def corner_swap_matrices(mats) -> Array:
    """One 4x4 matrix or an (n, 4, 4) stack conjugated by sigma_x (x) sigma_x, unchecked."""
    xx = kron(SIGMA_X, SIGMA_X)
    return xx @ mats @ xx


def probe_space(space: HilbertSpace) -> HilbertSpace:
    """``space`` with a probe qubit appended as the last factor, labelled C (C2, ... if taken)."""
    labels = space.labels
    probe_label = "C"
    k = 2
    while probe_label in labels:
        probe_label = f"C{k}"
        k += 1
    return HilbertSpace(space.dims + (2,), labels + (probe_label,))


def join_with_probe(rho_ab: DensityMatrix, prep: ProbePrep) -> DensityMatrix:
    """Attach a freshly prepared probe qubit as the last tensor factor."""
    return DensityMatrix(probe_space(rho_ab.space), kron(rho_ab.mat, prep.matrix))

