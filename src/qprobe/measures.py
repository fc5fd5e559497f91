"""Correlation quantifiers for two-qubit X states.

An X state has zero entries off its diagonal and anti-diagonal (the X);
every state the models produce is one.  The measures take X states
only, and one guard, ``_x_states``, decides which states those are: it
requires a two-qubit state, drops entries off the X of modulus up to
``XSTATE_PATTERN_TOL`` (rounding, which propagation leaves), since every
formula reads the X alone, and raises ``ValueError`` naming the first
larger one.  The conditional entropy of a given measurement is the one
measure that takes any two-qubit state.

On X states the concurrence is closed form (Yu & Eberly, Quantum Inf.
Comput. 7, 459 (2007)), and so is the mutual information.  The first
qubit is left in 2x2 states whose diagonals do not depend on the
azimuth phi and whose coherence has modulus
cos sin |e^{-i phi} r23 + e^{i phi} r14|; so phi* = (arg r23 - arg r14)/2
maximizes it at every theta (Chen et al., PRA 84, 042313 (2011)), and the
conditional entropy is symmetric under theta -> pi - theta.  At phi* it
is a closed form of theta, r11 .. r44 and |r23| + |r14| (Ali, Rau &
Alber, PRA 81, 042105 (2010)).  The minimum is that closed form on a
65-point grid over theta in [0, pi/2], one numpy expression over both
outcomes and every angle, refined by Brent's bounded method (parabolic
steps with a golden-section fallback) on the cells around its best
point, in ``math``; S(A) is the entropy of the marginal's two
populations.  ``correlation_reports`` takes the concurrence, the mutual
information and the closed-form classical correlation of all its states
from one call of each stack kernel, the only implementation of each.
The conditional entropy of any two-qubit state and measurement is one
batched numpy kernel: measuring the second qubit along |v> leaves the
first in the unnormalised 2x2 state (I (x) <v|) rho (I (x) |v>).  Every
outcome's trace and eigenvalues are closed form, so no eigensolver runs
and no small outcome is clipped.

The definitional optimizer is the authority for discord; the closed
form (eq. 20, for real X states with equal middle populations) is
exposed separately because its first branch disagrees with the optimum
near the pure-state end of the family (it returns 0 where the
definition gives 1), so the two are reported side by side instead of
being silently reconciled.  It reads its states through the same guard
and is NaN (None in a report) where it does not apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .qcore import ENTROPY_CLIP, DensityMatrix, entropy_of_spectra

#: largest entry modulus off the X that the X-state guard takes for an
#: exact zero (rounding)
XSTATE_PATTERN_TOL = 1e-8

#: stopping width of the polar refinement, in radians
REFINE_TOL = 1e-10

#: polar grid on [0, pi/2] (both ends included) for X states
GRID_THETA_POLAR = 65
#: that grid, built once; read-only, since every search shares it
_POLAR_THETAS = np.linspace(0.0, np.pi / 2.0, GRID_THETA_POLAR)
_POLAR_THETAS.setflags(write=False)


def _polar_grid_weights() -> tuple[np.ndarray, np.ndarray]:
    """The angle weights of ``_polar_grid_entropies``, read-only.

    With c = cos(theta/2) and s = sin(theta/2) at each grid angle, the
    closed form of ``_polar_objective`` weights r11 and r33 by c^2 in
    outcome 0 and s^2 in outcome 1 (r11 in an outcome's top entry, r33
    in its bottom one), and r22 and r44 the other way round.  Returns the
    (4, 2, 65) weights of r11, r33, r22 and r44 over (outcome, angle),
    and the (65,) weights 2 c s of the coherence in the off-diagonal.
    """
    c, s = np.cos(0.5 * _POLAR_THETAS), np.sin(0.5 * _POLAR_THETAS)
    c2, s2 = c * c, s * s
    first, second = [c2, s2], [s2, c2]
    pops, off = np.array([first, first, second, second]), 2.0 * c * s
    pops.setflags(write=False)
    off.setflags(write=False)
    return pops, off


_POLAR_POPS, _POLAR_OFF = _polar_grid_weights()
#: the end of the polar grid, pi/2 as the grid holds it
_POLAR_TOP = float(_POLAR_THETAS[-1])

#: entries of a two-qubit matrix off its diagonal and anti-diagonal (the X)
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])

_LN2 = math.log(2.0)

#: closed-form branch threshold on the |11> population, used verbatim
CLOSED_FORM_BRANCH_R44 = 0.4716


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective qubit measurement along the Bloch direction (theta, phi).

    B0 projects onto cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> and
    B1 = I - B0.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError("phi must lie in [0, 2 pi)")


def _pair_matrix(rho: DensityMatrix) -> np.ndarray:
    """The matrix of ``rho``, which must be a two-qubit state."""
    if rho.space.dims != (2, 2):
        raise ValueError("two-qubit state required")
    return rho.mat


def _x_states(mats: np.ndarray) -> np.ndarray:
    """The (n, 4, 4) stack ``mats`` as two-qubit X states: every measure's one check.

    A non-finite entry raises ValueError naming the first, before any
    formula can turn it into a number.  An entry off the X of modulus up
    to XSTATE_PATTERN_TOL is rounding;
    every formula reads the X alone, so such entries are dropped (in a
    copy; a stack of exact X states comes back as it is).  A larger
    entry raises ValueError naming the first.
    """
    if mats.ndim != 3 or mats.shape[1:] != (4, 4):
        raise ValueError("two-qubit state required")
    finite = np.isfinite(mats)
    if not finite.all():
        s, i, j = np.argwhere(~finite)[0]
        raise ValueError(f"not a state: entry ({i}, {j}) of state {s} is "
                         f"{complex(mats[s, i, j])}")
    off = mats[:, _OFF_X]
    if not np.count_nonzero(off):
        return mats
    over = np.argwhere(np.abs(off) > XSTATE_PATTERN_TOL)
    if over.size:
        s, k = over[0]
        i, j = np.argwhere(_OFF_X)[k]
        raise ValueError(f"not an X state: entry ({i}, {j}) of state {s}, off the X, is "
                         f"{complex(mats[s, i, j]):.3g} (rounding is at most "
                         f"{XSTATE_PATTERN_TOL:g})")
    return np.where(_OFF_X, 0.0, mats)


def concurrence_stack(mats: np.ndarray) -> np.ndarray:
    """Concurrence of every X state of an (n, 4, 4) stack.

    The closed form 2 max(0, |r23| - sqrt(r11 r44), |r14| - sqrt(r22 r33))
    (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)).
    """
    mats = _x_states(mats)
    pops = mats.diagonal(axis1=1, axis2=2).real
    # np.maximum(a, 0.0) is what np.clip(a, 0.0, None) calls, without its
    # Python-level set-up, which is most of the cost on a one-state stack
    return 2.0 * np.maximum(0.0, np.maximum(
        np.abs(mats[:, 1, 2]) - np.sqrt(np.maximum(pops[:, 0] * pops[:, 3], 0.0)),
        np.abs(mats[:, 0, 3]) - np.sqrt(np.maximum(pops[:, 1] * pops[:, 2], 0.0)),
    ))


def concurrence(rho: DensityMatrix) -> float:
    """Concurrence of a two-qubit X state (see ``concurrence_stack``)."""
    return float(concurrence_stack(_pair_matrix(rho)[None])[0])


def concurrence_time_formula(x: float, gt: float) -> float:
    """Closed-form concurrence of the evolved family state at phase gt."""
    if not 0.5 <= x <= 1.0:
        raise ValueError("x out of family domain")
    return max(0.0, abs(2.0 - 3.0 * x) - (1.0 - x) * abs(np.sin(2.0 * gt)))


def mutual_information_stack(mats: np.ndarray) -> np.ndarray:
    """S(A) + S(B) - S(AB) in bits for every X state of an (n, 4, 4) stack.

    An X state is block diagonal on {|00>, |11>} and {|01>, |10>}; a
    block [[a, c], [c*, d]] has eigenvalues (a + d)/2 -+ |((a - d)/2, c)|.
    Both marginals are diagonal, with the summed populations.  No
    diagonalization runs.
    """
    mats = _x_states(mats)
    pops = mats.diagonal(axis1=1, axis2=2).real
    # rows S(A), S(B), S(AB); the marginal rows are padded with zeros
    spectra = np.zeros((len(mats), 3, 4))
    np.add(pops[:, 0::2], pops[:, 1::2], out=spectra[:, 0, :2])  # p00 + p01, p10 + p11
    np.add(pops[:, :2], pops[:, 2:], out=spectra[:, 1, :2])  # p00 + p10, p01 + p11
    # the blocks' diagonals (r11, r44) and (r22, r33), coherences r14 and r23
    top, bottom = pops[:, :2], pops[:, :1:-1]
    coherences = mats[:, :2, ::-1].diagonal(axis1=1, axis2=2)
    mean = 0.5 * (top + bottom)
    radius = np.hypot(0.5 * (top - bottom), np.abs(coherences))
    np.subtract(mean, radius, out=spectra[:, 2, :2])
    np.add(mean, radius, out=spectra[:, 2, 2:])
    s = entropy_of_spectra(spectra)
    return s[:, 0] + s[:, 1] - s[:, 2]


def trace_distance_x_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/2) trace norm of a - b for (broadcast) (n, 4, 4) stacks of X states.

    The difference of two X states is block diagonal on {|00>, |11>}
    and {|01>, |10>}; a block [[p, c], [c*, q]] has eigenvalues
    m -+ r with m = (p + q)/2 and r = |((p - q)/2, c)|, whose moduli sum
    to 2 max(|m|, r).  No diagonalization runs.  For states that are not
    X states use ``qcore.trace_distance_stack``.
    """
    diff = _x_states(a) - _x_states(b)
    pops = diff.diagonal(axis1=1, axis2=2).real
    # the blocks' diagonals (r11, r44) and (r22, r33), coherences r14 and r23
    top, bottom = pops[:, :2], pops[:, :1:-1]
    coherences = diff[:, :2, ::-1].diagonal(axis1=1, axis2=2)
    radius = np.hypot(0.5 * (top - bottom), np.abs(coherences))
    return np.maximum(np.abs(0.5 * (top + bottom)), radius).sum(axis=1)


def mutual_information(rho: DensityMatrix) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) in bits of a two-qubit X state."""
    return float(mutual_information_stack(_pair_matrix(rho)[None])[0])


def _conditional_entropy_batch(
    mat: np.ndarray, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Conditional entropy at every angle pair of two same-shaped arrays at once.

    Outcome |v> on B leaves A in the unnormalised 2x2 state
    (I (x) <v|) rho (I (x) |v>), whose trace p and eigenvalues are
    closed form; the outcome contributes p S(state / p), formed as
    ``_outcome_entropy`` forms it, from the determinant and log1p.
    """
    half = thetas / 2.0
    cos = np.cos(half)
    sin = np.exp(1j * phis) * np.sin(half)
    # outcome vector (cos, e^{i phi} sin) and the one orthogonal to it
    vecs = np.array([[cos, sin], [-sin.conj(), cos]])
    # rho[2a + b, 2a' + b'] read as rho[a, b, a', b']
    cond = np.einsum("kb...,abcd,kd...->k...ac", vecs.conj(), mat.reshape(2, 2, 2, 2), vecs)
    return _outcome_entropies(cond[..., 0, 0].real, cond[..., 1, 1].real,
                              2.0 * np.abs(cond[..., 0, 1]))


def _outcome_entropies(top: np.ndarray, bottom: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Sum over the first axis of ``_outcome_entropy(top, bottom, off)``, as arrays.

    Each outcome adds p S(M / p) for its 2x2 state M = [[top, off / 2],
    [., bottom]], with the smaller eigenvalue from the determinant and
    the larger one's term from log1p, as ``_outcome_entropy`` forms it.
    """
    p, det = top + bottom, 4.0 * top * bottom - off * off
    # det = 4 det M; a pure or empty outcome adds 0, and its lanes get
    # values that keep the logs finite.  Where every lane is mixed the
    # guards would change nothing, so they are not formed.
    mixed = (det > 0.0) & (p > 0.0)
    every = np.count_nonzero(mixed) == mixed.size
    if not every:
        p, det = np.where(mixed, p, 1.0), np.where(mixed, det, 0.5)
    lo = det / (2.0 * (p + np.hypot(top - bottom, off)))
    ratio = lo / p
    terms = (p - lo) * np.log1p(-ratio) / _LN2 + lo * np.log2(ratio)
    return -(terms if every else np.where(mixed, terms, 0.0)).sum(axis=0)


def _conditional_entropy_angles(mat: np.ndarray, theta: float, phi: float) -> float:
    """Conditional entropy for one pair of (unnormalized) Bloch angles."""
    return float(_conditional_entropy_batch(mat, np.array([theta]), np.array([phi]))[0])


def conditional_entropy(rho: DensityMatrix, basis: MeasurementBasis) -> float:
    """sum_k p_k S(rho_k) for a projective measurement on the second qubit.

    Unlike the other measures this takes any two-qubit state.
    """
    return _conditional_entropy_angles(_pair_matrix(rho), basis.theta, basis.phi)


def _entropy_of_values(*values: float) -> float:
    """``qcore.entropy_of_spectrum`` of a few floats, in ``math``, summed in order."""
    total = 0.0
    for v in values:
        if v > ENTROPY_CLIP:
            total += v * math.log2(v)
    return -total


def _outcome_entropy(top: float, bottom: float, off: float) -> float:
    """p S(M / p) for the 2x2 state M = [[top, off / 2], [., bottom]].

    With M's eigenvalues hi >= lo and p = hi + lo this is
    -hi log2(hi / p) - lo log2(lo / p), with lo from the determinant,
    (4 top bottom - off^2) / (2 (p + gap)), and log2(hi / p) from
    log1p(-lo / p).  Near a pure outcome that keeps the small result
    accurate, where eta(p) - eta(hi) - eta(lo) cancels terms of size p
    (off by up to 1.5e-15 bits on X states with near-zero populations).
    """
    p = top + bottom
    if not p > 0.0:
        return 0.0
    gap = math.hypot(top - bottom, off)
    lo = (4.0 * top * bottom - off * off) / (2.0 * (p + gap))
    if not lo > 0.0:
        return 0.0
    return -((p - lo) * math.log1p(-lo / p) / _LN2 + lo * math.log2(lo / p))


def _polar_objective(r11: float, r22: float, r33: float, r44: float, coherence: float):
    """The polar search's objective for one X state: theta -> its conditional entropy.

    The closed form of the conditional entropy of an X state measured
    at polar angle theta in [0, pi/2].  With c = cos(theta/2),
    s = sin(theta/2) and a = ``coherence`` = |r23| + |r14| (the largest
    |M01| / (c s) over phi), the two outcomes leave A in
    [[c^2 r11 + s^2 r22, c s a], [., c^2 r33 + s^2 r44]] and in the same
    matrix with c and s swapped.  The sum over outcomes is the one
    ``_conditional_entropy_batch`` forms, in scalar ``math``, with each
    outcome's term as ``_outcome_entropy`` forms it, as one closure per
    state: an evaluation is this call and its two ``_outcome_entropy``
    terms.  theta above pi/2 is first mirrored about it and theta below
    0 about 0 (the closed form is even about both).
    """
    def objective(theta: float) -> float:
        theta = 2.0 * _POLAR_TOP - theta if theta > _POLAR_TOP else abs(theta)
        c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
        c2, s2, off = c * c, s * s, 2.0 * c * s * coherence
        return (_outcome_entropy(c2 * r11 + s2 * r22, c2 * r33 + s2 * r44, off)
                + _outcome_entropy(s2 * r11 + c2 * r22, s2 * r33 + c2 * r44, off))

    return objective


def _polar_grid_entropies(r11: float, r22: float, r33: float, r44: float,
                          coherence: float) -> np.ndarray:
    """The closed form of ``_polar_objective`` at every angle of the polar grid, as one array.

    Both outcomes' top and bottom entries, the populations weighted by
    ``_POLAR_POPS``, are formed as one (2, 2, 65) stack from one product;
    ``_outcome_entropies`` sums them.
    """
    weighted = _POLAR_POPS * np.array([r11, r33, r22, r44])[:, None, None]
    top, bottom = weighted[:2] + weighted[2:]
    return _outcome_entropies(top, bottom, _POLAR_OFF * coherence)


#: share of a bracket a golden-section step moves into, (3 - sqrt 5) / 2
_GOLDEN_STEP = 0.5 * (3.0 - math.sqrt(5.0))


def _brent_minimize(f, lo: float, hi: float) -> tuple[float, float]:
    """(f(t), t) at the best point Brent's bounded method evaluates on [lo, hi].

    Parabolic steps through the three best points, with a golden-section
    step whenever the parabola's step is out of the bracket or not
    shrinking (Brent, Algorithms for Minimization without Derivatives
    (1973), ch. 5).  A step is never shorter than REFINE_TOL / 4, and
    the search stops once the bracket around its best point is at most
    REFINE_TOL wide.  Only a strictly lower value replaces the best
    point: where f is flat to rounding, a tie would otherwise move it
    and drag the bracket along one step at a time.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    tol = 0.25 * REFINE_TOL
    while True:
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return fx, x
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            # a parabolic step lands no nearer than 2 tol to an end of the bracket
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < mid else -tol
        else:
            e = (b if x < mid else a) - x
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu < fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _min_conditional_entropy_polar(mat: np.ndarray) -> tuple[float, float]:
    """Minimum over theta in [0, pi/2] of an X state's conditional entropy, and its theta.

    The state is measured at the azimuth that aligns its two coherences
    (see ``classical_correlation_optimized``), where the conditional
    entropy is the closed form of ``_polar_objective``.  That closed
    form on a 65-point grid that holds both ends exactly
    (``_polar_grid_entropies``) picks the two cells around its best
    point; Brent's bounded method (``_brent_minimize``) on it, as the
    one closure ``_polar_objective``, refines that to REFINE_TOL.  The
    objective is even about 0 and about pi/2, so when the best point is
    an end the bracket spans both cells beside it, the one outside
    [0, pi/2] mirrored, and the objective folds every angle back into
    [0, pi/2] before it evaluates it; an optimum at the end is then
    interior to the bracket.  The best grid point stays a
    candidate, so the result is never worse than the grid.  Ties break
    toward smaller theta.
    """
    thetas = _POLAR_THETAS
    pops = mat.diagonal().real.tolist()
    coherence = abs(complex(mat[1, 2])) + abs(complex(mat[0, 3]))
    values = _polar_grid_entropies(*pops, coherence)
    k = int(np.argmin(values))
    top, h = _POLAR_TOP, float(thetas[1])
    lo = float(thetas[k - 1]) if k else -h
    hi = float(thetas[k + 1]) if k < thetas.size - 1 else top + h
    value, theta = _brent_minimize(_polar_objective(*pops, coherence), lo, hi)
    return min((float(values[k]), float(thetas[k])),
               (value, 2.0 * top - theta if theta > top else abs(theta)))


def classical_correlation_optimized(
    rho: DensityMatrix,
) -> tuple[float, MeasurementBasis]:
    """Classical correlation S(A) - min_B S(A|{B}) of an X state, and the minimizing basis.

    A deterministic 1-D search over theta in [0, pi/2] at the azimuth
    phi* = (arg r23 - arg r14) / 2 mod pi (0 when either coherence is
    exactly 0); S(A) is the entropy of the marginal's two populations.
    """
    mat = _x_states(_pair_matrix(rho)[None])[0]
    r23, r14 = complex(mat[1, 2]), complex(mat[0, 3])
    phi = 0.0
    if r23 and r14:
        phi = float(np.angle(r23) - np.angle(r14)) / 2.0 % math.pi
    ce_min, theta = _min_conditional_entropy_polar(mat)
    r11, r22, r33, r44 = mat.diagonal().real.tolist()
    return _entropy_of_values(r11 + r22, r33 + r44) - ce_min, MeasurementBasis(theta, phi)


def classical_correlation_closed_form_stack(mats: np.ndarray) -> np.ndarray:
    """Closed-form classical correlation (eq. 20) of every X state of an (n, 4, 4) stack.

    The formula of Ali, Rau & Alber (PRA 81, 042105 (2010)) for real X
    states with zero corner coherence and equal middle populations.  Its
    conditional-entropy minimum switches branch on the |11> population
    at CLOSED_FORM_BRANCH_R44 (an opaque threshold, used exactly as
    given), and it fails in parts of its domain (Chen et al., PRA 84,
    042313 (2011)): near the pure end of the family the first branch
    disagrees with the definitional optimizer.  NaN where it does not
    apply: |r14| or |Im r23| above XSTATE_PATTERN_TOL, |r22 - r33| above
    1e-9, a trace more than 1e-10 from 1, a population below -1e-12 or
    r23^2 above r22 r33 + 1e-12.
    """
    mats = _x_states(mats)
    pops = mats.diagonal(axis1=1, axis2=2).real
    r11, r22, r33, r44 = pops.T
    r14, r23 = mats[:, 0, 3], mats[:, 1, 2]
    refused = ((np.abs(r14) > XSTATE_PATTERN_TOL) | (np.abs(r23.imag) > XSTATE_PATTERN_TOL)
               | (np.abs(r22 - r33) > 1e-9) | (np.abs(r11 + r22 + r33 + r44 - 1.0) > 1e-10)
               | (pops < -1e-12).any(axis=1) | (r23.real ** 2 > r22 * r33 + 1e-12))
    s_a = entropy_of_spectra(np.stack([r11 + r22, r33 + r44], axis=-1))
    theta = np.sqrt((r11 - r44) ** 2 + 4.0 * r23.real ** 2)
    # w log2 w of each term, 0 where w <= 0
    w = np.array([r22 + r33, r22, r33, 1.0 - theta, 1.0 + theta])
    kept = w > 0.0
    mid, low, high, below, above = np.where(kept, w * np.log2(np.where(kept, w, 1.0)), 0.0)
    ce_min = np.where(r44 <= CLOSED_FORM_BRANCH_R44, mid - low - high,
                      1.0 - 0.5 * (below + above))
    return np.where(refused, np.nan, s_a - ce_min)


def classical_correlation_closed_form(rho: DensityMatrix) -> float:
    """Closed-form classical correlation of one two-qubit X state.

    The one-state case of ``classical_correlation_closed_form_stack``;
    raises ValueError where the formula does not apply.
    """
    value = float(classical_correlation_closed_form_stack(_pair_matrix(rho)[None])[0])
    if math.isnan(value):
        raise ValueError("closed form does not apply: it takes positive real X states with "
                         "zero corner coherence and equal middle populations")
    return value


def discord(rho: DensityMatrix) -> float:
    """Quantum discord: mutual information minus classical correlation, as reported."""
    return correlation_report(rho).discord


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation quantifiers of one state, in bits.

    ``classical`` comes from the definitional optimizer and is the
    authority for ``discord``; ``classical_closed_form`` is the
    symmetric-X-state formula (None when the state is outside its
    validity), kept for comparison.
    """

    concurrence: float
    mutual_info: float
    classical: float
    classical_closed_form: Optional[float]
    optimizer_basis: MeasurementBasis

    def __post_init__(self):
        if self.classical > self.mutual_info + 1e-9:
            raise ValueError("classical correlation exceeds mutual information")

    @property
    def discord(self) -> float:
        """Quantum discord: mutual information minus classical correlation."""
        return self.mutual_info - self.classical


def correlation_reports(states: Sequence[DensityMatrix]) -> list[CorrelationReport]:
    """Every quantifier of each X state of ``states``, in order.

    One call each of ``concurrence_stack``, ``mutual_information_stack``
    and ``classical_correlation_closed_form_stack`` serves every state
    (the closed form None where it does not apply); the optimizer (called
    through its module name) runs per state.
    """
    mats = np.reshape([_pair_matrix(rho) for rho in states], (-1, 4, 4))
    reports = []
    for rho, conc, mi, closed in zip(states, concurrence_stack(mats).tolist(),
                                     mutual_information_stack(mats).tolist(),
                                     classical_correlation_closed_form_stack(mats).tolist()):
        classical, basis = classical_correlation_optimized(rho)
        reports.append(CorrelationReport(
            concurrence=conc,
            mutual_info=mi,
            classical=classical,
            classical_closed_form=None if math.isnan(closed) else closed,
            optimizer_basis=basis,
        ))
    return reports


def correlation_report(rho: DensityMatrix) -> CorrelationReport:
    """Every quantifier of one X state: ``correlation_reports([rho])[0]``."""
    return correlation_reports([rho])[0]
