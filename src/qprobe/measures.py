"""Correlation quantifiers for two-qubit states.

Implements the concurrence (closed form on X states, Wootters' formula
on any other state), quantum mutual information, the
conditional entropy under a projective measurement of the second qubit,
the classical correlation (as a definitional optimization over
measurement bases), quantum discord and the closed-form classical
correlation for symmetric X-states.

The optimizer takes one of two paths, chosen from the state itself.  An
X state, whose entries off the diagonal and the anti-diagonal are all
exactly zero, leaves the first qubit in 2x2 states whose diagonals do
not depend on the azimuth phi and whose coherence has modulus
cos sin |e^{-i phi} r23 + e^{i phi} r14|; so phi* = (arg r23 - arg r14)/2
maximizes it at every theta (Chen et al., PRA 84, 042313 (2011)), and the
conditional entropy is symmetric under theta -> pi - theta.  The minimum
is then a 65-point grid over theta in [0, pi/2] at phi*, refined by
Brent's bounded method (parabolic steps with a golden-section fallback)
on the cells around its best point, on a closed form in ``math`` of
r11 .. r44 and |r23| + |r14|, and S(A) is the entropy of the
marginal's two populations.  Every state the models produce is an X
state (with r14 = 0), and ``correlation_report`` takes its other
columns from the same few entries, in ``math`` too.  Any other state
(one non-zero entry off the X suffices) goes through the 2-D search
over (theta, phi), which is also the reference the 1-D path is tested
against.  Both searches are numpy only and evaluate one batched
kernel: measuring the second qubit along |v> leaves the first in the
unnormalised 2x2 state (I (x) <v|) rho (I (x) |v>), whose trace and
eigenvalues are closed form, so no eigensolver runs and no small
outcome is clipped.

The definitional optimizer is the authority for discord; the closed
form is exposed separately because its first branch disagrees with the
optimum near the pure-state end of the family (it returns 0 where the
definition gives 1), so the two are reported side by side instead of
being silently reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .qcore import (
    ENTROPY_CLIP,
    DensityMatrix,
    entropy_bits,
    entropy_of_spectra,
    kron,
    partial_trace,
    psd_sqrt_mat,
)
from .states import SIGMA_Y, XState, extract_xstate, xstate_from_entries

# Optimizer schedule for general states: coarse grid scan over the
# measurement 2-torus, then simplex refinement from the best cells.  The
# objective has at most a few extrema, so a handful of starts guards
# against local minima.
GRID_THETA = 32
GRID_PHI = 64
REFINE_STARTS = 4
REFINE_MAXITER = 200
REFINE_TOL = 1e-10

#: polar grid on [0, pi/2] (both ends included) for X states
GRID_THETA_POLAR = 65
#: that grid, built once; read-only, since every search shares it
_POLAR_THETAS = np.linspace(0.0, np.pi / 2.0, GRID_THETA_POLAR)
_POLAR_THETAS.setflags(write=False)

#: entries of a two-qubit matrix off its diagonal and anti-diagonal (the X)
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
#: the same entries as flat positions 4 i + j
_OFF_X_FLAT = tuple(np.flatnonzero(_OFF_X).tolist())

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
            raise ValueError("phi must lie in [0,  2 pi)")


def _normalized_angles(theta: float, phi: float) -> tuple[float, float]:
    """Map arbitrary angles onto theta in [0, pi], phi in [0, 2 pi)."""
    theta = float(theta) % (2.0 * np.pi)
    if theta > np.pi:
        theta = 2.0 * np.pi - theta
        phi = phi + np.pi
    phi = float(phi) % (2.0 * np.pi)
    # guard against 2*pi landing exactly on the open boundary
    if phi >= 2.0 * np.pi:
        phi = 0.0
    return theta, phi


def _wootters_concurrence(mat: np.ndarray) -> float:
    """Wootters concurrence of one two-qubit matrix.

    The spectrum of rho * rho_tilde is obtained from the Hermitian form
    sqrt(rho) rho_tilde sqrt(rho), which has the same eigenvalues with
    strictly better numerical behavior than a general complex solver.
    """
    yy = kron(SIGMA_Y, SIGMA_Y)
    tilde = yy @ mat.conj() @ yy
    root = psd_sqrt_mat(mat)
    herm = root @ tilde @ root
    vals = np.linalg.eigvalsh(0.5 * (herm + herm.conj().T))
    lam = np.sqrt(np.clip(vals, 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_stack(mats: np.ndarray) -> np.ndarray:
    """Concurrence of every two-qubit state of an (n, 4, 4) stack.

    An X state, whose entries off the diagonal and the anti-diagonal
    are all exactly zero (every state the models produce), has the
    closed form 2 max(0, |r23| - sqrt(r11 r44), |r14| - sqrt(r22 r33))
    (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)); any other state
    takes Wootters' formula.
    """
    if mats.shape[-2:] != (4, 4):
        raise ValueError("two-qubit state required")
    pops = mats.diagonal(axis1=1, axis2=2).real
    out = 2.0 * np.maximum(0.0, np.maximum(
        np.abs(mats[:, 1, 2]) - np.sqrt(np.clip(pops[:, 0] * pops[:, 3], 0.0, None)),
        np.abs(mats[:, 0, 3]) - np.sqrt(np.clip(pops[:, 1] * pops[:, 2], 0.0, None)),
    ))
    for s in np.flatnonzero(np.any(mats[:, _OFF_X], axis=1)):
        out[s] = _wootters_concurrence(mats[s])
    return out


def concurrence(rho: DensityMatrix) -> float:
    """Concurrence of a two-qubit state (see ``concurrence_stack``)."""
    if rho.dim != 4:
        raise ValueError("two-qubit state required")
    return float(concurrence_stack(rho.mat[None])[0])


def concurrence_time_formula(x: float, gt: float) -> float:
    """Closed-form concurrence of the evolved family state at phase gt."""
    if not 0.5 <= x <= 1.0:
        raise ValueError("x out of family domain")
    return max(0.0, abs(2.0 - 3.0 * x) - (1.0 - x) * abs(np.sin(2.0 * gt)))


def _x_mutual_information(mats: np.ndarray) -> np.ndarray:
    """Mutual information of (n, 4, 4) X states without a diagonalization.

    An X state is block diagonal on {|00>, |11>} and {|01>, |10>}; a
    block [[a, c], [c*, d]] has eigenvalues (a + d)/2 -+ |((a - d)/2, c)|.
    Both marginals are diagonal, with the summed populations.
    """
    pops = mats.diagonal(axis1=1, axis2=2).real
    n = len(mats)
    # rows S(A), S(B), S(AB); the marginal rows are padded with zeros
    spectra = np.zeros((n, 3, 4))
    grid = pops.reshape(n, 2, 2)
    spectra[:, 0, :2] = grid.sum(axis=2)
    spectra[:, 1, :2] = grid.sum(axis=1)
    top, bottom = pops[:, [0, 1]], pops[:, [3, 2]]
    mean = 0.5 * (top + bottom)
    radius = np.hypot(0.5 * (top - bottom), np.abs(mats[:, [0, 1], [3, 2]]))
    spectra[:, 2, :2] = mean - radius
    spectra[:, 2, 2:] = mean + radius
    s = entropy_of_spectra(spectra)
    return s[:, 0] + s[:, 1] - s[:, 2]


def _mutual_information_eigvalsh(mats: np.ndarray, dims) -> np.ndarray:
    da, db = dims
    split = mats.reshape(-1, da, db, da, db)
    s_a = entropy_of_spectra(np.linalg.eigvalsh(np.trace(split, axis1=2, axis2=4)))
    s_b = entropy_of_spectra(np.linalg.eigvalsh(np.trace(split, axis1=1, axis2=3)))
    return s_a + s_b - entropy_of_spectra(np.linalg.eigvalsh(mats))


def mutual_information_stack(mats: np.ndarray, dims=(2, 2)) -> np.ndarray:
    """S(A) + S(B) - S(AB) in bits for every state of an (n, d, d) stack.

    ``dims`` are the dimensions of the two factors, d = dims[0] * dims[1].
    A two-qubit X state (routed as in ``concurrence_stack``) takes the
    closed form of ``_x_mutual_information``; any other state takes
    ``eigvalsh`` of the marginals and of the joint matrix.
    """
    if tuple(dims) != (2, 2):
        return _mutual_information_eigvalsh(mats, dims)
    out = _x_mutual_information(mats)
    general = np.flatnonzero(np.any(mats[:, _OFF_X], axis=1))
    if general.size:
        out[general] = _mutual_information_eigvalsh(mats[general], dims)
    return out


def mutual_information(rho: DensityMatrix) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) in bits."""
    if rho.space.nfactors != 2:
        raise ValueError("bipartite state required")
    return float(mutual_information_stack(rho.mat[None], rho.space.dims)[0])


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
    top, bottom = cond[..., 0, 0].real, cond[..., 1, 1].real
    off = 2.0 * np.abs(cond[..., 0, 1])
    p, det = top + bottom, 4.0 * top * bottom - off * off
    # det = 4 det M; a pure or empty outcome adds 0, and its lanes get
    # values that keep the logs finite
    mixed = (det > 0.0) & (p > 0.0)
    p, det = np.where(mixed, p, 1.0), np.where(mixed, det, 0.5)
    lo = det / (2.0 * (p + np.hypot(top - bottom, off)))
    ratio = lo / p
    terms = (p - lo) * np.log1p(-ratio) / _LN2 + lo * np.log2(ratio)
    return -np.where(mixed, terms, 0.0).sum(axis=0)


def _conditional_entropy_angles(mat: np.ndarray, theta: float, phi: float) -> float:
    """Conditional entropy for one pair of (unnormalized) Bloch angles."""
    return float(_conditional_entropy_batch(mat, np.array([theta]), np.array([phi]))[0])


def conditional_entropy(rho: DensityMatrix, basis: MeasurementBasis) -> float:
    """sum_k p_k S(rho_k) for a projective measurement on the second qubit."""
    if rho.dim != 4:
        raise ValueError("two-qubit state required")
    return _conditional_entropy_angles(rho.mat, basis.theta, basis.phi)


def _xlog2_scalar(w: float) -> float:
    """w log2 w for one float, 0 where w <= 0."""
    return w * math.log2(w) if w > 0.0 else 0.0


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


def _x_conditional_entropy(
    theta: float, r11: float, r22: float, r33: float, r44: float, coherence: float
) -> float:
    """Conditional entropy of an X state measured at polar angle theta, in closed form.

    With c = cos(theta/2), s = sin(theta/2) and a = ``coherence`` =
    |r23| + |r14| (the largest |M01| / (c s) over phi), the two outcomes
    leave A in [[c^2 r11 + s^2 r22, c s a], [., c^2 r33 + s^2 r44]] and
    in the same matrix with c and s swapped.  The sum over outcomes is
    the one ``_conditional_entropy_batch`` forms, in scalar ``math``,
    with each outcome's term as ``_outcome_entropy`` forms it.
    """
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    c2, s2, off = c * c, s * s, 2.0 * c * s * coherence
    return (_outcome_entropy(c2 * r11 + s2 * r22, c2 * r33 + s2 * r44, off)
            + _outcome_entropy(s2 * r11 + c2 * r22, s2 * r33 + c2 * r44, off))


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


def _min_conditional_entropy_polar(mat: np.ndarray, phi: float = 0.0) -> tuple[float, float]:
    """Minimum over theta in [0, pi/2] at azimuth ``phi``, and its theta.

    Valid for X states measured at the azimuth that aligns their two
    coherences (see ``classical_correlation_optimized``).  A 65-point
    grid that holds both ends exactly picks the two cells around its
    best point; Brent's bounded method (``_brent_minimize``) on the
    closed form ``_x_conditional_entropy`` refines it to REFINE_TOL.
    The objective is even about 0 and about pi/2, so when the best point
    is an end the bracket spans both cells beside it, the one outside
    [0, pi/2] mirrored, and every angle is folded back into [0, pi/2]
    before it is evaluated; an optimum at the end is then interior to
    the bracket.  The best grid point stays a candidate, so the result
    is never worse than the grid.  Ties break toward smaller theta.
    """
    thetas = _POLAR_THETAS
    values = _conditional_entropy_batch(mat, thetas, np.full(thetas.size, phi))
    k = int(np.argmin(values))
    pops = mat.diagonal().real.tolist()
    coherence = abs(complex(mat[1, 2])) + abs(complex(mat[0, 3]))
    top, h = float(thetas[-1]), float(thetas[1])

    def fold(theta: float) -> float:
        return 2.0 * top - theta if theta > top else abs(theta)

    lo = float(thetas[k - 1]) if k else -h
    hi = float(thetas[k + 1]) if k < thetas.size - 1 else top + h
    value, theta = _brent_minimize(
        lambda t: _x_conditional_entropy(fold(t), *pops, coherence), lo, hi)
    return min((float(values[k]), float(thetas[k])), (value, fold(theta)))


def _min_conditional_entropy_sphere(mat: np.ndarray) -> tuple[float, float, float]:
    """Minimum over all measurement directions (theta, phi), and its angles.

    Grid scan (32 theta x 64 phi), then Nelder-Mead (scipy's initial
    simplex and coefficients) from the REFINE_STARTS best cells, ties
    toward smaller theta, then smaller phi.  All starts step together:
    one batch evaluates every point a step may need, and each start
    takes the one its rule picks, until its simplex spans at most
    REFINE_TOL in angles and values or REFINE_MAXITER rounds have run.
    The angles stay unfolded; only the winner is mapped back.
    """
    thetas = np.linspace(0.0, np.pi, GRID_THETA)
    phis = np.linspace(0.0, 2.0 * np.pi, GRID_PHI, endpoint=False)
    tt, pp = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    values = _conditional_entropy_batch(mat, tt, pp)
    starts = np.lexsort((pp, tt, values))[:REFINE_STARTS]

    # sim[start, vertex]; vertex k + 1 scales angle k by 1.05 (0 -> 0.00025)
    x0 = np.stack([tt[starts], pp[starts]], axis=1)
    sim = np.repeat(x0[:, None, :], 3, axis=1)
    sim[:, [1, 2], [0, 1]] = np.where(x0 != 0.0, 1.05 * x0, 0.00025)
    fsim = _conditional_entropy_batch(mat, sim[..., 0], sim[..., 1])
    running = np.ones(starts.size, dtype=bool)
    for _ in range(REFINE_MAXITER - 1):
        order = np.argsort(fsim, axis=1, kind="stable")
        sim = np.take_along_axis(sim, order[..., None], axis=1)
        fsim = np.take_along_axis(fsim, order, axis=1)
        running &= ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) > REFINE_TOL)
                    | (np.abs(fsim[:, 1:] - fsim[:, :1]).max(axis=1) > REFINE_TOL))
        if not running.any():
            break
        # reflection, expansion, outside and inside contraction, shrunk vertices
        best, mid = sim[:, :1], 0.5 * (sim[:, :1] + sim[:, 1:2])
        moves = np.array([1.0, 2.0, 0.5, -0.5])[:, None] * (mid - sim[:, 2:])
        trial = np.concatenate([mid + moves, best + 0.5 * (sim[:, 1:] - best)], axis=1)
        ftrial = _conditional_entropy_batch(mat, trial[..., 0], trial[..., 1])
        fr, fe, fout, fin = ftrial[:, :4].T
        pick = np.select(
            [fr < fsim[:, 0], fr < fsim[:, 1], (fr < fsim[:, 2]) & (fout <= fr),
             (fr >= fsim[:, 2]) & (fin < fsim[:, 2])],
            [np.where(fe < fr, 1, 0), 0, 2, 3], default=-1)
        one = np.flatnonzero(running & (pick >= 0))
        sim[one, 2], fsim[one, 2] = trial[one, pick[one]], ftrial[one, pick[one]]
        shrink = np.flatnonzero(running & (pick < 0))
        sim[shrink, 1:], fsim[shrink, 1:] = trial[shrink, 4:], ftrial[shrink, 4:]
    s, v = np.unravel_index(np.argmin(fsim), fsim.shape)
    return (float(fsim[s, v]), *_normalized_angles(*sim[s, v]))


def classical_correlation_optimized(
    rho: DensityMatrix,
) -> tuple[float, MeasurementBasis]:
    """Classical correlation S(A) - min_B S(A|{B}) and the minimizing basis.

    An X state (entries off the diagonal and the anti-diagonal all
    exactly zero; every state the models produce) is minimized by a
    1-D search over theta in [0, pi/2] at the azimuth
    phi* = (arg r23 - arg r14) / 2 mod pi (0 when either coherence is
    exactly 0), and S(A) is the entropy of its marginal's two
    populations.  Any other state takes the 2-D search over
    (theta, phi).  Both paths are deterministic.
    """
    if rho.dim != 4:
        raise ValueError("two-qubit state required")
    mat = rho.mat
    if np.any(mat[_OFF_X]):
        s_a = entropy_bits(partial_trace(rho, {0}).mat)
        ce_min, theta, phi = _min_conditional_entropy_sphere(mat)
    else:
        r23, r14 = complex(mat[1, 2]), complex(mat[0, 3])
        phi = 0.0
        if r23 and r14:
            phi = float(np.angle(r23) - np.angle(r14)) / 2.0 % math.pi
        ce_min, theta = _min_conditional_entropy_polar(mat, phi)
        r11, r22, r33, r44 = mat.diagonal().real.tolist()
        s_a = _entropy_of_values(r11 + r22, r33 + r44)
    return s_a - ce_min, MeasurementBasis(theta, phi)


def classical_correlation_closed_form(xs: XState) -> float:
    """Closed-form classical correlation for symmetric X-states.

    The conditional-entropy minimum switches branch on the |11>
    population at 0.4716 (an opaque threshold, used exactly as given).
    Near the pure end of the family the first branch disagrees with the
    definitional optimizer; callers compare both rather than trusting
    either blindly.
    """
    if abs(xs.r22 - xs.r33) > 1e-9:
        raise ValueError("closed form requires equal middle populations")
    s_a = _entropy_of_values(xs.r11 + xs.r22, xs.r33 + xs.r44)
    if xs.r44 <= CLOSED_FORM_BRANCH_R44:
        mid = xs.r22 + xs.r33
        ce_min = _xlog2_scalar(mid) - _xlog2_scalar(xs.r22) - _xlog2_scalar(xs.r33)
    else:
        theta = math.sqrt((xs.r11 - xs.r44) ** 2 + 4.0 * xs.r23 ** 2)
        ce_min = 1.0 - 0.5 * (_xlog2_scalar(1.0 - theta) + _xlog2_scalar(1.0 + theta))
    return s_a - ce_min


def discord(rho: DensityMatrix) -> float:
    """Quantum discord: mutual information minus classical correlation."""
    classical, _ = classical_correlation_optimized(rho)
    return mutual_information(rho) - classical


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
    discord: float
    classical_closed_form: Optional[float]
    optimizer_basis: MeasurementBasis

    def __post_init__(self):
        if abs(self.discord - (self.mutual_info - self.classical)) > 1e-9:
            raise ValueError("discord inconsistent with its definition")
        if self.classical > self.mutual_info + 1e-9:
            raise ValueError("classical correlation exceeds mutual information")


def _x_state_columns(flat: list) -> tuple[float, float, Optional[float]]:
    """Concurrence, mutual information and closed form of one two-qubit X state.

    ``flat`` lists the 16 entries of the matrix in row order.  These are
    the formulas of ``concurrence_stack``, ``_x_mutual_information`` and
    ``classical_correlation_closed_form`` (None where ``extract_xstate``
    or the closed form refuses the state), on r11 .. r44, |r23| and
    |r14| as floats, in ``math``.
    """
    r11, r22, r33, r44 = flat[0].real, flat[5].real, flat[10].real, flat[15].real
    a14, a23 = abs(flat[3]), abs(flat[6])
    conc = 2.0 * max(0.0, a23 - math.sqrt(max(r11 * r44, 0.0)),
                     a14 - math.sqrt(max(r22 * r33, 0.0)))
    # the blocks on {|00>, |11>} and {|01>, |10>}: mean -+ radius
    outer, inner = 0.5 * (r11 + r44), 0.5 * (r22 + r33)
    r_outer, r_inner = math.hypot(0.5 * (r11 - r44), a14), math.hypot(0.5 * (r22 - r33), a23)
    mi = (_entropy_of_values(r11 + r22, r33 + r44) + _entropy_of_values(r11 + r33, r22 + r44)
          - _entropy_of_values(outer - r_outer, inner - r_inner,
                               outer + r_outer, inner + r_inner))
    closed: Optional[float]
    try:
        closed = classical_correlation_closed_form(xstate_from_entries(flat))
    except ValueError:
        closed = None
    return conc, mi, closed


def correlation_report(rho: DensityMatrix) -> CorrelationReport:
    """Evaluate every quantifier once (a single optimizer run is shared).

    A two-qubit X state (routed as in ``concurrence_stack``; every state
    the models produce) has its other columns from one read of its
    entries (``_x_state_columns``); any other state takes
    ``mutual_information``, ``extract_xstate`` and ``concurrence``.
    """
    classical, basis = classical_correlation_optimized(rho)
    flat = rho.mat.ravel().tolist()
    closed: Optional[float]
    if rho.space.dims == (2, 2) and not any(flat[k] for k in _OFF_X_FLAT):
        conc, mi, closed = _x_state_columns(flat)
    else:
        mi = mutual_information(rho)
        try:
            closed = classical_correlation_closed_form(extract_xstate(rho))
        except ValueError:
            closed = None
        conc = concurrence(rho)
    return CorrelationReport(
        concurrence=conc,
        mutual_info=mi,
        classical=classical,
        discord=mi - classical,
        classical_closed_form=closed,
        optimizer_basis=basis,
    )
