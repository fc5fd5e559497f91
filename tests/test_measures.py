import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qprobe import measures, protocols
from qprobe.measures import (
    GRID_THETA_POLAR,
    REFINE_TOL,
    CorrelationReport,
    MeasurementBasis,
    _conditional_entropy_angles,
    _conditional_entropy_batch,
    _min_conditional_entropy_polar,
    XSTATE_PATTERN_TOL,
    classical_correlation_closed_form,
    classical_correlation_closed_form_stack,
    classical_correlation_optimized,
    concurrence,
    concurrence_stack,
    concurrence_time_formula,
    conditional_entropy,
    correlation_report,
    correlation_reports,
    discord,
    mutual_information,
    mutual_information_stack,
    trace_distance_x_stack,
)
from qprobe.qcore import (
    DensityMatrix, HilbertSpace, entropy_bits, kron, partial_trace, psd_sqrt_mat,
    trace_distance_stack)
from qprobe.states import SIGMA_Y, ProbePrep, corner_swap, join_with_probe, one_param_density
from qprobe.dynamics import ModelConfig, ModelVariant, NoiseConfig
from qprobe.protocols import RESONANT_READOUT, estimate_exact

SPACE = HilbertSpace((2, 2), ("A", "B"))
PROPERTIES = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# frozen oracle values (binary entropies evaluated by direct arithmetic)
H2_THIRD = 0.9182958340544896          # H2(1/3)
COND_Z_HALF = 0.6887218755408672       # 0.75 * H2(1/3)
COND_X_HALF = 0.6008760366928562       # H2((1 - sqrt(1/2)) / 2)
MI_DIAG_POINT = 0.2516291673878228     # log2(3) - 4/3
CC_CLOSED_HALF = 0.21040208776627667   # H2(1/4) - COND_X_HALF


def x_state(r11, r22, r33, r44, r23):
    """The real X state with populations r11 .. r44 and |01><10| coherence r23."""
    mat = np.diag([r11, r22, r33, r44]).astype(complex)
    mat[1, 2] = mat[2, 1] = r23
    return DensityMatrix(SPACE, mat)


def random_xstate(rng):
    pops = rng.dirichlet(np.ones(4))
    c = rng.uniform(-0.95, 0.95) * np.sqrt(pops[1] * pops[2])
    return x_state(*pops, c)


def random_symmetric_xstate(rng):
    pops = rng.dirichlet(np.ones(3))
    r22 = pops[1] / 2.0
    c = rng.uniform(-0.95, 0.95) * r22
    return x_state(pops[0], r22, r22, pops[2], c)


def product_state(rng):
    def qubit():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m @ m.conj().T
        return m / np.trace(m).real

    return DensityMatrix(SPACE, kron(qubit(), qubit()))


def diagonal_product_state(rng):
    """A product of two qubit states diagonal in the z basis: an X state."""
    a, b = rng.uniform(0.0, 1.0, 2)
    return DensityMatrix(SPACE, np.diag(np.kron([a, 1.0 - a], [b, 1.0 - b])).astype(complex))


def wootters_concurrence(mat):
    """Wootters' concurrence of a two-qubit matrix, the reference for the closed form.

    The spectrum of rho * rho_tilde comes from the Hermitian form
    sqrt(rho) rho_tilde sqrt(rho), which has the same eigenvalues.
    """
    yy = kron(SIGMA_Y, SIGMA_Y)
    root = psd_sqrt_mat(mat)
    herm = root @ yy @ mat.conj() @ yy @ root
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (herm + herm.conj().T)), 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


class TestConcurrence:
    def test_family_golden(self):
        for x in (0.5, 0.75, 1.0):
            assert concurrence(one_param_density(x)) == pytest.approx(
                abs(2 - 3 * x), abs=1e-10
            )

    def test_product_pure(self):
        rho = DensityMatrix(SPACE, np.diag([1.0, 0, 0, 0]).astype(complex))
        assert concurrence(rho) == 0.0

    def test_separable_point(self):
        assert concurrence(one_param_density(2.0 / 3.0)) == pytest.approx(0.0, abs=1e-10)

    def test_dimension_check(self):
        single = DensityMatrix(HilbertSpace((2,), ("A",)), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            concurrence(single)

    @pytest.mark.parametrize("x", [0.5, 0.5 + 1e-7, 0.55, 0.6, 2.0 / 3.0, 0.7, 0.75,
                                   0.8, 0.9, 0.95, 1.0 - 1e-7, 1.0])
    def test_family_closed_form_accuracy(self, x):
        # Wootters' route through sqrt(rho) was 6.8e-12 off at 0.5 + 1e-7
        assert abs(concurrence(one_param_density(x)) - abs(2.0 - 3.0 * x)) <= 1e-14

    @PROPERTIES
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        angles=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4),
    )
    def test_closed_form_matches_wootters_on_full_rank_x_states(self, weights, angles):
        # X states with every eigenvalue >= 1e-3 and complex |00><11| and
        # |01><10| coherences; Wootters is accurate away from rank deficiency
        w = np.array(weights)
        assume(w.sum() > 1e-6)
        w = 1e-3 + (1.0 - 4e-3) * w / w.sum()
        mat = np.zeros((4, 4), dtype=complex)
        for (i, j), (a, b), (theta, phi) in zip(
            ((0, 3), (1, 2)), ((w[0], w[1]), (w[2], w[3])), (angles[:2], angles[2:])
        ):
            u = np.array([[np.cos(theta), -np.exp(-1j * phi) * np.sin(theta)],
                          [np.exp(1j * phi) * np.sin(theta), np.cos(theta)]])
            mat[np.ix_([i, j], [i, j])] = u @ np.diag([a, b]) @ u.conj().T
        rho = DensityMatrix(SPACE, mat)
        assert np.linalg.eigvalsh(rho.mat)[0] >= 1e-3 - 1e-12
        assert concurrence(rho) == pytest.approx(wootters_concurrence(rho.mat), abs=1e-12)

    def test_one_entry_off_the_x_takes_wootters(self):
        # one entry off the X: rounding gives Wootters' value of the X
        # projection, a larger entry raises instead of leaving the X
        x_state = 0.8 * one_param_density(0.9).mat + 0.05 * np.eye(4)
        near = x_state.copy()
        near[0, 1] = near[1, 0] = 0.5 * XSTATE_PATTERN_TOL
        values = concurrence_stack(np.array([x_state, near, x_state]))
        assert values[0] == values[1] == values[2]
        assert values[1] == pytest.approx(wootters_concurrence(x_state), abs=1e-12)
        assert values[1] == pytest.approx(wootters_concurrence(near), abs=1e-12)
        off_x = x_state.copy()
        off_x[0, 1] = off_x[1, 0] = 1e-3
        with pytest.raises(ValueError, match=r"entry \(0, 1\) of state 1, off the X"):
            concurrence_stack(np.array([x_state, off_x, x_state]))


#: every public measure that takes X states only
X_STATE_MEASURES = (concurrence, mutual_information, classical_correlation_optimized,
                    discord, correlation_report)


class TestXStateGuard:
    @pytest.mark.parametrize("dims", [(4,), (1, 4)])
    def test_every_measure_requires_two_qubits(self, dims):
        rho = DensityMatrix(HilbertSpace(dims, ("P", "Q")[-len(dims):]),
                            one_param_density(0.75).mat)
        z_basis = MeasurementBasis(0.0, 0.0)
        for measure in (*X_STATE_MEASURES, lambda r: conditional_entropy(r, z_basis)):
            with pytest.raises(ValueError, match="^two-qubit state required$"):
                measure(rho)

    def test_rounding_off_the_x_is_dropped_and_more_raises(self):
        x_state = 0.8 * one_param_density(0.9).mat + 0.05 * np.eye(4)
        swapped = corner_swap(DensityMatrix(SPACE, x_state)).mat
        for size in (6.7e-17, 0.5 * XSTATE_PATTERN_TOL):
            near = x_state.copy()
            near[0, 1] = near[1, 0] = near[2, 3] = near[3, 2] = size
            assert correlation_report(DensityMatrix(SPACE, near)) == correlation_report(
                DensityMatrix(SPACE, x_state))
            # each row of a stack is the single-state value of its X projection
            mats = np.array([swapped, near, x_state])
            for stack, single in ((concurrence_stack, concurrence),
                                  (mutual_information_stack, mutual_information)):
                assert stack(mats).tolist() == [
                    single(DensityMatrix(SPACE, m)) for m in (swapped, x_state, x_state)]
        for size in (1e-6, 2.0 * XSTATE_PATTERN_TOL):
            off_x = x_state.copy()
            off_x[0, 1] = off_x[1, 0] = size
            for measure in X_STATE_MEASURES:
                with pytest.raises(ValueError, match=r"entry \(0, 1\) of state 0, off the X"):
                    measure(DensityMatrix(SPACE, off_x))
            with pytest.raises(ValueError, match=r"entry \(0, 1\) of state 1, off the X"):
                concurrence_stack(np.array([x_state, off_x]))


def _unchecked_state(mat):
    """A two-qubit DensityMatrix holding ``mat`` without its construction check.

    Stands for a state whose matrix went non-finite after it was checked,
    so the measures' own guard is what must refuse it.
    """
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "space", SPACE)
    object.__setattr__(rho, "mat", np.asarray(mat, dtype=complex))
    return rho


class TestNonFiniteEntries:
    @pytest.mark.parametrize("i, j, value", [
        (3, 3, np.nan),  # a population: mutual information once read 0 here
        (1, 2, np.inf),  # a coherence on the X
        (0, 1, np.nan),  # off the X, where rounding is dropped
    ], ids=["nan-population", "inf-coherence", "nan-off-the-x"])
    def test_every_measure_refuses_the_state(self, i, j, value):
        mat = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        mat[i, j] = value
        message = rf"entry \({i}, {j}\) of state 0 is"
        for kernel in (concurrence_stack, mutual_information_stack):
            with pytest.raises(ValueError, match=message):
                kernel(mat[None])
        for measure in (classical_correlation_optimized, lambda rho: correlation_reports([rho])):
            with pytest.raises(ValueError, match=message):
                measure(_unchecked_state(mat))

    def test_the_first_non_finite_entry_is_named(self):
        good = one_param_density(0.75).mat
        bad = good.copy()
        bad[2, 1] = bad[3, 3] = np.nan
        with pytest.raises(ValueError, match=r"entry \(2, 1\) of state 1 is \(nan"):
            mutual_information_stack(np.array([good, bad]))


class TestConcurrenceTimeFormula:
    def test_touching_zero(self):
        assert concurrence_time_formula(0.75, np.pi / 4) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_half_period_revival(self, n):
        for x in (0.5, 0.8, 0.95):
            assert concurrence_time_formula(x, n * np.pi / 2) == pytest.approx(
                abs(2 - 3 * x), abs=1e-12
            )

    def test_singlet_constant(self):
        for gt in np.linspace(0, 3, 13):
            assert concurrence_time_formula(1.0, gt) == pytest.approx(1.0)


class TestMutualInformation:
    def test_pure_entangled(self):
        assert mutual_information(one_param_density(1.0)) == pytest.approx(2.0, abs=1e-10)

    def test_product_states(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            assert mutual_information(diagonal_product_state(rng)) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_point(self):
        assert mutual_information(one_param_density(2.0 / 3.0)) == pytest.approx(
            MI_DIAG_POINT, abs=1e-12
        )

    def test_requires_bipartite(self):
        joint = join_with_probe(one_param_density(0.75), ProbePrep.GROUND)
        with pytest.raises(ValueError):
            mutual_information(joint)

    def test_stack_rows_match(self):
        rng = np.random.default_rng(5)
        states = [diagonal_product_state(rng), one_param_density(0.6), one_param_density(1.0),
                  corner_swap(one_param_density(0.9))]
        got = mutual_information_stack(np.array([r.mat for r in states]))
        assert got.tolist() == [mutual_information(r) for r in states]


class TestConditionalEntropy:
    def test_product_reveals_nothing(self):
        rng = np.random.default_rng(5)
        rho = product_state(rng)
        s_a = entropy_bits(rho.mat.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3))
        for theta, phi in ((0.0, 0.0), (np.pi / 2, 0.0), (1.1, 2.2)):
            ce = conditional_entropy(rho, MeasurementBasis(theta, phi))
            assert ce == pytest.approx(s_a, abs=1e-10)

    def test_sigma_z_branch(self):
        ce = conditional_entropy(one_param_density(0.5), MeasurementBasis(0.0, 0.0))
        assert ce == pytest.approx(COND_Z_HALF, abs=1e-12)

    def test_sigma_x_branch(self):
        ce = conditional_entropy(one_param_density(0.5), MeasurementBasis(np.pi / 2, 0.0))
        assert ce == pytest.approx(COND_X_HALF, abs=1e-12)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            MeasurementBasis(-0.1, 0.0)
        with pytest.raises(ValueError):
            MeasurementBasis(0.5, 6.5)


class TestClassicalCorrelationOptimized:
    def test_pure_entangled(self):
        value, _ = classical_correlation_optimized(one_param_density(1.0))
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_diagonal_point_equals_mutual_info(self):
        value, _ = classical_correlation_optimized(one_param_density(2.0 / 3.0))
        assert value == pytest.approx(MI_DIAG_POINT, abs=1e-6)

    def test_product_state_zero(self):
        rng = np.random.default_rng(8)
        value, _ = classical_correlation_optimized(diagonal_product_state(rng))
        assert abs(value) < 1e-9

    def test_against_brute_force_oracle(self):
        # independent dense scan of the definition, no refinement
        rng = np.random.default_rng(17)
        thetas = np.linspace(0.0, np.pi, 181)
        phis = np.linspace(0.0, 2 * np.pi, 91, endpoint=False)
        for _ in range(4):
            rho = random_xstate(rng)
            s_a = entropy_bits(rho.mat.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3))
            brute = min(
                conditional_entropy(rho, MeasurementBasis(t, p))
                for t in thetas
                for p in phis
            )
            value, basis = classical_correlation_optimized(rho)
            refined = s_a - value
            # the optimizer must never be worse than the dense scan, and
            # the scan bounds it from above at grid resolution
            assert refined <= brute + 1e-9
            assert refined >= brute - 5e-4
            assert conditional_entropy(rho, basis) == pytest.approx(refined, abs=1e-9)

    def test_measured_side_symmetry(self):
        # the family is swap symmetric: measuring either qubit agrees
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        for x in (0.55, 0.75, 0.95):
            rho = one_param_density(x)
            swapped = DensityMatrix(rho.space, swap @ rho.mat @ swap)
            va, _ = classical_correlation_optimized(rho)
            vb, _ = classical_correlation_optimized(swapped)
            assert va == pytest.approx(vb, abs=1e-6)


def closed_form_reference(mat):
    """Eq. 20 of one 4x4 matrix, per state in ``math``; None where it does not apply.

    The rules and the arithmetic of the per-state formula the stack
    kernel replaced: every entry off the X and the corner coherence at
    most XSTATE_PATTERN_TOL, Im r23 too, unit trace within 1e-10,
    populations >= -1e-12, r23^2 <= r22 r33 + 1e-12 and equal middle
    populations within 1e-9.
    """
    flat = mat.ravel().tolist()
    off = [flat[k] for k in range(16) if k % 5 and k not in (6, 9)]
    if max(map(abs, off)) > XSTATE_PATTERN_TOL or abs(flat[6].imag) > XSTATE_PATTERN_TOL:
        return None
    pops = [flat[k].real for k in (0, 5, 10, 15)]
    (r11, r22, r33, r44), r23 = pops, flat[6].real
    if (abs(sum(pops) - 1.0) > 1e-10 or any(p < -1e-12 for p in pops)
            or r23 ** 2 > r22 * r33 + 1e-12 or abs(r22 - r33) > 1e-9):
        return None

    def xlog2(w):
        return w * math.log2(w) if w > 0.0 else 0.0

    s_a = -sum(v * math.log2(v) for v in (r11 + r22, r33 + r44) if v > 1e-12)
    if r44 <= 0.4716:
        ce_min = xlog2(r22 + r33) - xlog2(r22) - xlog2(r33)
    else:
        theta = math.sqrt((r11 - r44) ** 2 + 4.0 * r23 ** 2)
        ce_min = 1.0 - 0.5 * (xlog2(1.0 - theta) + xlog2(1.0 + theta))
    return s_a - ce_min


def closed_form_edge(rule, scale):
    """x_state(0.2, 0.3, 0.3, 0.2, 0.1)'s matrix, taken to ``scale`` times one bound of eq. 20."""
    mat = x_state(0.2, 0.3, 0.3, 0.2, 0.1).mat.copy()
    if rule == "r14":
        mat[0, 3] = mat[3, 0] = scale * XSTATE_PATTERN_TOL
    elif rule == "im-r23":
        im = 1j * scale * XSTATE_PATTERN_TOL
        mat[1, 2], mat[2, 1] = 0.1 + im, 0.1 - im
    elif rule == "middle":
        mat[1, 1], mat[2, 2] = 0.3 + 0.5e-9 * scale, 0.3 - 0.5e-9 * scale
    elif rule == "trace":
        mat[3, 3] = 0.2 + 1e-10 * scale
    elif rule == "population":
        mat[0, 0], mat[3, 3] = -1e-12 * scale, 0.4 + 1e-12 * scale
    else:  # the coherence past the positivity of the middle block
        mat[1, 2] = mat[2, 1] = math.sqrt(0.09 + 1e-12 * scale)
    return mat


class TestClassicalCorrelationClosedForm:
    def test_stack_matches_the_per_state_formula(self):
        # seeded X states (complex coherences, so nearly all refused), the
        # family on a 1001-point grid, real X states with equal middle
        # populations and some with r44 on the branch threshold: refused
        # alike, and within one ulp of 1 elsewhere
        rng = np.random.default_rng(43)
        edge = [x_state(0.5284 - 2.0 * r22, r22, r22, 0.4716, c * r22).mat
                for r22, c in zip(rng.uniform(0.0, 0.25, 8), rng.uniform(-0.95, 0.95, 8))]
        mats = np.array([rho.mat for rho in seeded_x_states(1, 3000)]
                        + [one_param_density(x).mat for x in np.linspace(0.5, 1.0, 1001)]
                        + [random_symmetric_xstate(rng).mat for _ in range(1000)] + edge)
        got = classical_correlation_closed_form_stack(mats)
        want = [closed_form_reference(mat) for mat in mats]
        assert np.isnan(got).tolist() == [value is None for value in want]
        assert np.count_nonzero(np.isfinite(got)) >= 2009
        assert np.nanmax(np.abs(got - np.array(want, dtype=float))) <= 2.2e-16

    @pytest.mark.parametrize("rule", ["r14", "im-r23", "middle", "trace", "population",
                                      "coherence"])
    def test_each_refusal_rule_at_its_bound(self, rule):
        under, over = closed_form_edge(rule, 0.99), closed_form_edge(rule, 1.01)
        values = classical_correlation_closed_form_stack(np.array([under, over]))
        assert np.isfinite(values[0]) and np.isnan(values[1])
        assert values[0] == closed_form_reference(under)
        assert closed_form_reference(over) is None
        assert classical_correlation_closed_form(DensityMatrix(SPACE, under)) == values[0]
        if rule == "trace":  # no state lies that far from unit trace
            with pytest.raises(ValueError, match="trace differs from one"):
                DensityMatrix(SPACE, over)
        else:
            with pytest.raises(ValueError, match="^closed form does not apply"):
                classical_correlation_closed_form(DensityMatrix(SPACE, over))

    def test_every_entry_off_the_pattern_checked(self):
        # beyond XSTATE_PATTERN_TOL an entry off the X raises through the
        # guard, naming it, and the corner coherence is refused; up to it
        # the value is that of the state without them
        base = x_state(0.2, 0.3, 0.3, 0.2, 0.1).mat
        value = classical_correlation_closed_form_stack(base[None])[0]
        for i, j in zip(*np.triu_indices(4, 1)):
            if (i, j) == (1, 2):
                continue
            for size in (2.0 * XSTATE_PATTERN_TOL, 0.5 * XSTATE_PATTERN_TOL):
                mat = base.copy()
                mat[i, j], mat[j, i] = 1j * size, -1j * size
                if size < XSTATE_PATTERN_TOL:
                    assert classical_correlation_closed_form_stack(mat[None])[0] == value
                elif (i, j) == (0, 3):
                    assert np.isnan(classical_correlation_closed_form_stack(mat[None])[0])
                else:
                    with pytest.raises(ValueError, match=rf"entry \({i}, {j}\) of state 0, off"):
                        classical_correlation_closed_form_stack(mat[None])

    def test_reports_make_one_kernel_call(self, monkeypatch):
        kernel, calls = measures.classical_correlation_closed_form_stack, []

        def counted(mats):
            calls.append(len(mats))
            return kernel(mats)

        monkeypatch.setattr(measures, "classical_correlation_closed_form_stack", counted)
        states = [one_param_density(x) for x in np.linspace(0.5, 1.0, 11)]
        states.append(diagonal_product_state(np.random.default_rng(37)))
        reports = correlation_reports(states)
        assert calls == [12]
        assert [rep.classical_closed_form for rep in reports] == [
            closed_form_reference(rho.mat) for rho in states]
        assert reports[-1].classical_closed_form is None

    def test_branch_one_arithmetic(self):
        value = classical_correlation_closed_form(one_param_density(2 / 3))
        assert value == pytest.approx(MI_DIAG_POINT, abs=1e-12)

    def test_branch_two_arithmetic(self):
        value = classical_correlation_closed_form(one_param_density(0.5))
        assert value == pytest.approx(CC_CLOSED_HALF, abs=1e-12)

    def test_branch_divergence_at_pure_point(self):
        # the closed form returns 0 where the definitional optimum is 1;
        # both values are reported side by side, nothing is "fixed"
        closed = classical_correlation_closed_form(one_param_density(1.0))
        assert closed == pytest.approx(0.0, abs=1e-12)
        definitional, _ = classical_correlation_optimized(one_param_density(1.0))
        assert definitional == pytest.approx(1.0, abs=1e-6)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            classical_correlation_closed_form(x_state(0.1, 0.3, 0.4, 0.2, 0.0))

    def test_optimizer_dominance_over_transverse_branch(self):
        # branch 2 is the conditional entropy of an actual measurement
        # (the transverse basis), so the definitional minimum can never
        # exceed it anywhere on the family
        for x in np.linspace(0.5, 1.0, 26):
            rho = one_param_density(x)
            (r11, r22, r33, r44), r23 = rho.mat.diagonal().real, rho.mat[1, 2].real
            s_a = entropy_bits(np.diag([r11 + r22, r33 + r44]))
            value, _ = classical_correlation_optimized(rho)
            ce_min = s_a - value
            th = np.sqrt((r11 - r44) ** 2 + 4 * r23 ** 2)
            branch2 = 1.0 - 0.5 * (
                ((1 - th) * np.log2(1 - th) if th < 1 else 0.0)
                + (1 + th) * np.log2(1 + th)
            )
            assert ce_min <= branch2 + 1e-6

    def test_population_branch_undercuts_definitional_minimum(self):
        # The first closed-form branch reduces to 2*r22 on the family,
        # which is NOT the conditional entropy of any measurement here:
        # on x in [0.5284, 2/3) it lies strictly below the definitional
        # minimum even though it is the branch the threshold selects, so
        # the closed form OVERSTATES the classical correlation there.
        # Pinned so the discrepancy stays visible instead of silently
        # absorbed; see README (closed form vs optimizer).
        for x in (0.55, 0.6, 0.65):
            rho = one_param_density(x)
            r11, r22, r33, r44 = rho.mat.diagonal().real
            assert r44 <= 0.4716  # population branch selected
            branch1 = 2.0 * r22 * np.log2(2.0)  # = x in bits
            s_a = entropy_bits(np.diag([r11 + r22, r33 + r44]))
            value, _ = classical_correlation_optimized(rho)
            ce_min = s_a - value
            assert branch1 < ce_min - 1e-3
            closed = classical_correlation_closed_form(rho)
            assert closed > value + 1e-3


class TestDiscord:
    def test_diagonal_point(self):
        assert discord(one_param_density(2.0 / 3.0)) == pytest.approx(0.0, abs=1e-6)

    def test_pure_entangled(self):
        assert discord(one_param_density(1.0)) == pytest.approx(1.0, abs=1e-6)

    def test_product(self):
        rng = np.random.default_rng(23)
        assert discord(diagonal_product_state(rng)) == pytest.approx(0.0, abs=1e-9)


class TestLocalUnitaryInvariance:
    def test_random_local_rotations(self):
        # local z rotations keep the X form
        rng = np.random.default_rng(29)
        for _ in range(20):
            rho = random_xstate(rng)
            u = kron(*(_z_rotation(a) for a in rng.uniform(0.0, 2.0 * np.pi, 2)))
            rotated = DensityMatrix(rho.space, u @ rho.mat @ u.conj().T)
            rep_a = correlation_report(rho)
            rep_b = correlation_report(rotated)
            assert rep_b.concurrence == pytest.approx(rep_a.concurrence, abs=1e-9)
            assert rep_b.classical == pytest.approx(rep_a.classical, abs=1e-5)
            assert rep_b.discord == pytest.approx(rep_a.discord, abs=1e-5)

    def test_corner_swap_preserves_measures(self):
        for x in (0.5, 0.7, 0.9, 1.0):
            a = correlation_report(one_param_density(x))
            b = correlation_report(corner_swap(one_param_density(x)))
            assert a.concurrence == pytest.approx(b.concurrence, abs=1e-10)
            assert a.mutual_info == pytest.approx(b.mutual_info, abs=1e-10)
            assert a.classical == pytest.approx(b.classical, abs=1e-6)
            assert a.discord == pytest.approx(b.discord, abs=1e-6)

    def test_corner_swap_closed_form_same_branch(self):
        # for x >= 0.5284 both the state and its swap select the same
        # closed-form branch, whose expression is r11/r44 symmetric
        for x in (0.5284, 0.7, 0.9, 1.0):
            a = correlation_report(one_param_density(x))
            b = correlation_report(corner_swap(one_param_density(x)))
            assert a.classical_closed_form == pytest.approx(
                b.classical_closed_form, abs=1e-10
            )

    def test_corner_swap_closed_form_branch_asymmetry(self):
        # the branch selector tests r44 alone, so swapping r11 and r44
        # across the 0.4716 threshold changes the selected branch and
        # the closed-form value is NOT swap invariant below x = 0.5284
        # (the definitional measures are).  Pinned deliberately.
        a = correlation_report(one_param_density(0.5))
        b = correlation_report(corner_swap(one_param_density(0.5)))
        assert abs(a.classical_closed_form - b.classical_closed_form) > 0.05
        assert a.classical == pytest.approx(b.classical, abs=1e-6)


class TestMonotoneSandwich:
    def test_family_grid(self):
        for x in np.linspace(0.5, 1.0, 11):
            rep = correlation_report(one_param_density(x))
            assert -1e-9 <= rep.classical <= rep.mutual_info + 1e-9
            assert rep.discord >= -1e-9

    def test_random_xstates(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rep = correlation_report(random_xstate(rng))
            assert -1e-9 <= rep.classical <= rep.mutual_info + 1e-9
            assert rep.discord >= -1e-9


class TestCorrelationReport:
    def test_discord_is_derived(self):
        # stored once: discord is mutual information minus classical
        # correlation, and a report takes no discord of its own
        rep = correlation_report(one_param_density(0.75))
        assert rep.discord == rep.mutual_info - rep.classical
        with pytest.raises(TypeError):
            CorrelationReport(
                concurrence=rep.concurrence,
                mutual_info=rep.mutual_info,
                classical=rep.classical,
                discord=rep.discord,
                classical_closed_form=rep.classical_closed_form,
                optimizer_basis=rep.optimizer_basis,
            )

    def test_classical_above_mutual_information_refused(self):
        rep = correlation_report(one_param_density(0.75))
        with pytest.raises(ValueError, match="exceeds mutual information"):
            CorrelationReport(
                concurrence=rep.concurrence,
                mutual_info=rep.mutual_info,
                classical=rep.mutual_info + 1e-3,
                classical_closed_form=rep.classical_closed_form,
                optimizer_basis=rep.optimizer_basis,
            )

    def test_closed_form_none_outside_family(self):
        rng = np.random.default_rng(37)
        rep = correlation_report(diagonal_product_state(rng))
        assert rep.classical_closed_form is None


def seeded_x_states(seed: int, count: int) -> list[DensityMatrix]:
    """X states with complex coherences, a third with rounding off the X.

    In turn: general states, states with a zero population (the
    coherence of its block then 0) and states with a pure block (its
    coherence at the positivity bound); every third state also carries
    Hermitian entries off the X of modulus at most XSTATE_PATTERN_TOL.
    """
    rng = np.random.default_rng(seed)
    states = []
    for k in range(count):
        pops = rng.dirichlet(np.ones(4))
        if k % 3 == 1:
            pops[rng.integers(4)] = 0.0
            pops /= pops.sum()
        mat = np.diag(pops).astype(complex)
        for (i, j) in ((1, 2), (0, 3)):
            size = 1.0 if k % 3 == 2 else rng.uniform()
            mat[i, j] = size * np.sqrt(pops[i] * pops[j]) * np.exp(2j * np.pi * rng.uniform())
            mat[j, i] = np.conj(mat[i, j])
        if k % 3 == 0:
            i, j = (0, 1) if k % 2 else (1, 3)
            mat[i, j] = XSTATE_PATTERN_TOL * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            mat[j, i] = np.conj(mat[i, j])
        states.append(DensityMatrix(SPACE, mat))
    return states


#: seeded X states shared by the one-implementation tests
SEEDED_X_STATES = seeded_x_states(1, 1200)


class TestOneImplementationPerMeasure:
    def test_report_columns_are_the_stack_kernels(self):
        # a report's concurrence and mutual information are the stack
        # kernels' values bit for bit: there is no second formula
        for rho in SEEDED_X_STATES:
            rep = correlation_report(rho)
            assert rep.concurrence == concurrence_stack(rho.mat[None])[0]
            assert rep.mutual_info == mutual_information_stack(rho.mat[None])[0]

    def test_discord_is_the_report_discord(self):
        for rho in SEEDED_X_STATES[::3]:
            assert discord(rho) == correlation_report(rho).discord

    def test_reports_of_a_sequence_are_the_single_reports(self):
        states = SEEDED_X_STATES[:150]
        reports = correlation_reports(states)
        assert reports == [correlation_report(rho) for rho in states]
        # a state's report depends neither on its place nor on the stack's size
        assert correlation_reports(states[::-1]) == reports[::-1]
        assert sum((correlation_reports(states[k:k + 7]) for k in range(0, 150, 7)),
                   []) == reports
        assert correlation_reports([]) == []

    def test_kernels_do_not_depend_on_the_stack(self):
        mats = np.array([rho.mat for rho in SEEDED_X_STATES])
        for stack in (concurrence_stack, mutual_information_stack):
            whole = stack(mats).tolist()
            assert stack(mats[::-1]).tolist() == whole[::-1]
            assert [stack(m[None])[0] for m in mats] == whole


class TestInferFromSigmaZ:
    """The probe's <sigma_z> readout, inverted through ``estimate_exact``."""

    @staticmethod
    def infer(z):
        return estimate_exact([(RESONANT_READOUT, 0.5 * (1.0 + z))])

    @pytest.mark.parametrize(
        "z,x_expect,c_expect",
        [(1.0, 0.5, 0.5), (0.0, 0.75, 0.25), (-1.0, 1.0, 1.0)],
    )
    def test_inversion_points(self, z, x_expect, c_expect):
        est = self.infer(z)
        assert est.x_hat == pytest.approx(x_expect, abs=1e-12)
        assert est.derived.concurrence == pytest.approx(c_expect, abs=1e-12)

    def test_measures_match_reconstructed_state(self):
        est = self.infer(0.0)
        rep = correlation_report(one_param_density(0.75))
        assert est.derived.discord == pytest.approx(rep.discord, abs=1e-6)
        assert est.derived.classical == pytest.approx(rep.classical, abs=1e-6)

    def test_range_validation(self):
        for p in (1.1, -0.1):
            with pytest.raises(ValueError, match="probability out of range"):
                estimate_exact([(RESONANT_READOUT, p)])

    def test_one_readout_law(self):
        # x -> P(e) -> x_hat round trip through the one resonant law
        for x in (0.5, 0.6, 0.75, 0.9, 1.0):
            p = RESONANT_READOUT.probability(x)
            assert estimate_exact([(RESONANT_READOUT, p)]).x_hat == pytest.approx(
                x, abs=1e-15)


# ---------------------------------------------------------------------------
# excitation-conserving states: the 1-D polar search against the 2-D search


@st.composite
def excitation_block_states(draw):
    """States with exact zeros between |00>, the |01>/|10> block and |11>.

    The middle block mixes two random pure states of the |01>, |10>
    plane, so its populations differ and its coherence is complex; a
    mixing weight or sector weights at 0 or 1 give rank-deficient and
    rank-1 states.
    """
    unit = st.floats(0.0, 1.0)
    amp = st.floats(-1.0, 1.0)
    weights = np.array([draw(unit) for _ in range(3)])
    assume(weights.sum() > 1e-3)
    weights /= weights.sum()
    block = np.zeros((2, 2), dtype=complex)
    mix = draw(unit)
    for share in (mix, 1.0 - mix):
        v = np.array([complex(draw(amp), draw(amp)) for _ in range(2)])
        assume(np.linalg.norm(v) > 1e-3)
        v /= np.linalg.norm(v)
        block += share * np.outer(v, v.conj())
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = weights[0]
    mat[1:3, 1:3] = weights[1] * block
    mat[3, 3] = weights[2]
    return DensityMatrix(SPACE, mat)


def scipy_sphere_oracle(mat):
    """Minimum conditional entropy over every measurement direction, on scipy.optimize.

    The search over (theta, phi) that the optimizer ran on any two-qubit
    state before it took X states only: a grid of 32 theta x 64 phi,
    then Nelder-Mead from the four best cells (ties toward smaller
    theta, then smaller phi).
    """
    from scipy.optimize import minimize

    tt, pp = (a.ravel() for a in np.meshgrid(
        np.linspace(0.0, np.pi, 32), np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False),
        indexing="ij"))
    values = _conditional_entropy_batch(mat, tt, pp)
    refined = (minimize(lambda ang: _conditional_entropy_angles(mat, ang[0], ang[1]),
                        x0=[tt[k], pp[k]], method="Nelder-Mead",
                        options={"maxiter": 200, "xatol": REFINE_TOL, "fatol": REFINE_TOL}).fun
               for k in np.lexsort((pp, tt, values))[:4])
    return float(min(values.min(), *refined))


def _pure_middle_state():
    v = np.array([0.0, np.sqrt(0.3), 1j * np.sqrt(0.7), 0.0])
    return DensityMatrix(SPACE, np.outer(v, v.conj()))


def _z_rotation(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


class TestPolarSearchProperties:
    @PROPERTIES
    @given(rho=excitation_block_states())
    @example(rho=one_param_density(0.5))
    @example(rho=one_param_density(2.0 / 3.0))
    @example(rho=one_param_density(1.0))
    @example(rho=_pure_middle_state())
    # optima strictly inside (0, pi/2), below and above the nearest grid point
    @example(rho=x_state(0.0355, 0.9466, 0.0164, 0.0015, 0.1012))
    @example(rho=x_state(0.0034, 0.0128, 0.9578, 0.0260, 0.0882))
    def test_matches_sphere_search(self, rho):
        value, basis = classical_correlation_optimized(rho)
        s_a = entropy_bits(partial_trace(rho, {0}).mat)
        assert value == pytest.approx(s_a - scipy_sphere_oracle(rho.mat), abs=1e-12)
        assert basis.phi == 0.0 and basis.theta <= np.pi / 2
        assert conditional_entropy(rho, basis) == pytest.approx(s_a - value, abs=1e-12)

    @PROPERTIES
    @given(rho=excitation_block_states())
    # classical-classical, with one outcome state of rank 1 in the z basis
    @example(rho=DensityMatrix(SPACE, np.diag([1 / 33, 0, 16 / 33, 16 / 33]).astype(complex)))
    def test_discord_between_zero_and_mutual_information(self, rho):
        rep = correlation_report(rho)
        assert -1e-12 <= rep.discord <= rep.mutual_info + 1e-12

    @PROPERTIES
    @given(
        rho=excitation_block_states(),
        angle=st.floats(0.0, 2.0 * np.pi),
        on_second=st.booleans(),
    )
    def test_local_z_rotation_invariance(self, rho, angle, on_second):
        rot = _z_rotation(angle)
        u = kron(np.eye(2), rot) if on_second else kron(rot, np.eye(2))
        rotated = DensityMatrix(SPACE, u @ rho.mat @ u.conj().T)
        rep_a = correlation_report(rho)
        rep_b = correlation_report(rotated)
        assert rep_b.classical == pytest.approx(rep_a.classical, abs=1e-12)
        assert rep_b.discord == pytest.approx(rep_a.discord, abs=1e-12)

    def test_corner_coherence_minimum_lies_off_phi_zero(self):
        # a 1e-6 |00><11| coherence makes the conditional entropy depend
        # on phi; with this sign the minimum sits at phi = pi/2, which a
        # search restricted to phi = 0 cannot reach, and which the X-state
        # azimuth (arg r23 - arg r14) / 2 mod pi finds
        mat = x_state(0.2, 0.3, 0.3, 0.2, 0.25).mat.copy()
        mat[0, 3] = mat[3, 0] = -1e-6
        rho = DensityMatrix(SPACE, mat)
        thetas = np.linspace(0.0, np.pi, 47)
        phis = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
        brute = min(
            conditional_entropy(rho, MeasurementBasis(t, p)) for t in thetas for p in phis
        )
        phi_zero = min(conditional_entropy(rho, MeasurementBasis(t, 0.0)) for t in thetas)
        assert phi_zero > brute + 1e-8
        s_a = entropy_bits(partial_trace(rho, {0}).mat)
        value, basis = classical_correlation_optimized(rho)
        assert s_a - value <= brute + 1e-12
        assert basis.phi == pytest.approx(np.pi / 2.0, abs=1e-15)


@st.composite
def x_states(draw):
    """X states with complex coherences, each at 0 to its positivity bound.

    Either coherence may be exactly 0, a population 0 gives a
    rank-deficient state, and both coherences at their bounds a rank-2 one.
    """
    unit = st.floats(0.0, 1.0)
    pops = np.array([draw(unit) for _ in range(4)])
    assume(pops.sum() > 1e-3)
    pops /= pops.sum()
    mat = np.diag(pops).astype(complex)
    for (i, j) in ((1, 2), (0, 3)):
        size = draw(st.one_of(st.just(0.0), unit)) * np.sqrt(pops[i] * pops[j])
        mat[i, j] = size * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
        mat[j, i] = np.conj(mat[i, j])
    return DensityMatrix(SPACE, mat)


def _complex_x_state():
    mat = np.diag([0.1, 0.4, 0.3, 0.2]).astype(complex)
    mat[1, 2], mat[0, 3] = 0.2 * np.exp(0.7j), 0.1 * np.exp(-2.0j)
    mat[2, 1], mat[3, 0] = np.conj(mat[1, 2]), np.conj(mat[0, 3])
    return DensityMatrix(SPACE, mat)


class TestXStatePolarSearch:
    @PROPERTIES
    @given(rho=x_states())
    @example(rho=_complex_x_state())
    def test_matches_sphere_search(self, rho):
        # |M01| = cs |e^{-i phi} r23 + e^{i phi} r14| is largest, at
        # cs (|r23| + |r14|), where the polar search measures
        value, basis = classical_correlation_optimized(rho)
        s_a = entropy_bits(partial_trace(rho, {0}).mat)
        assert value == pytest.approx(s_a - scipy_sphere_oracle(rho.mat), abs=1e-12)
        assert conditional_entropy(rho, basis) == pytest.approx(s_a - value, abs=1e-12)
        if rho.mat[1, 2] == 0 or rho.mat[0, 3] == 0:
            assert basis.phi == 0.0


class TestXStateMutualInformation:
    @PROPERTIES
    @given(rho=x_states())
    @example(rho=_complex_x_state())
    @example(rho=one_param_density(1.0))
    def test_closed_form_matches_eigvalsh(self, rho):
        # the two 2x2 blocks and the diagonal marginals against three eigvalsh
        expected = (entropy_bits(partial_trace(rho, {0}).mat)
                    + entropy_bits(partial_trace(rho, {1}).mat) - entropy_bits(rho.mat))
        assert mutual_information(rho) == pytest.approx(expected, abs=1e-13)


class TestXStateTraceDistance:
    def test_matches_eigvalsh_on_the_x(self):
        # against the eigenvalues of the 4x4 difference of the X parts (the
        # kernel drops rounding off the X, as every measure does), paired
        # with the next state and, broadcast, with the first
        mats = np.array([rho.mat for rho in seeded_x_states(1, 3000)])
        x_parts = measures._x_states(mats)
        for a, b in ((mats, np.roll(mats, 1, axis=0)), (mats, mats[:1]), (mats[:1], mats)):
            got = trace_distance_x_stack(a, b)
            want = trace_distance_stack(measures._x_states(a), measures._x_states(b))
            assert got.shape == (3000,)
            assert np.abs(got - want).max() <= 1e-15
        assert np.array_equal(trace_distance_x_stack(mats, x_parts), np.zeros(3000))

    def test_refuses_a_state_off_the_x(self):
        x_state = 0.8 * one_param_density(0.9).mat + 0.05 * np.eye(4)
        off_x = x_state.copy()
        off_x[0, 1] = off_x[1, 0] = 1e-6
        for a, b in ((off_x, x_state), (x_state, off_x)):
            with pytest.raises(ValueError, match=r"entry \(0, 1\) of state 0, off the X"):
                trace_distance_x_stack(a[None], b[None])
        with pytest.raises(ValueError, match="^two-qubit state required$"):
            trace_distance_x_stack(np.eye(2)[None] / 2, np.eye(2)[None] / 2)


#: how far the search's closed-form grid and ``_conditional_entropy_batch``
#: may part on one angle.  They form each outcome's 2x2 state in another
#: order, so its determinant differs by a few ulps of p^2; where an
#: outcome is pure that determinant cancels to its rounding, and the
#: entropy's slope there, -log2(lo / p) of about 50, scales it.  On pure
#: |01>/|10> blocks the two part by up to 8.2e-15 (20 000 seeded states),
#: and each lies up to 4.8e-15 from a 50-digit evaluation of the same
#: matrix at the same angles, so neither is the reference; elsewhere they
#: part by under 1e-15.
GRID_KERNEL_AGREEMENT = 1e-14


class TestPolarZoom:
    @PROPERTIES
    @given(rho=excitation_block_states())
    @example(rho=one_param_density(0.5))
    @example(rho=one_param_density(1.0))
    @example(rho=x_state(0.0355, 0.9466, 0.0164, 0.0015, 0.1012))
    def test_never_worse_than_first_grid(self, rho):
        # the general kernel on the search's 65 angles at the aligned
        # azimuth; the search starts from the closed form on them, which
        # agrees with this grid to GRID_KERNEL_AGREEMENT, not bit for bit
        thetas = np.linspace(0.0, np.pi / 2.0, GRID_THETA_POLAR)
        grid = _conditional_entropy_batch(rho.mat, thetas,
                                          np.full(thetas.size, _aligned_phi(rho.mat)))
        value, theta = _min_conditional_entropy_polar(rho.mat)
        assert value <= grid.min() + GRID_KERNEL_AGREEMENT
        assert 0.0 <= theta <= np.pi / 2.0

    @pytest.mark.parametrize("coherence, end", [(0.094675, 0.0), (0.107216, np.pi / 2.0)],
                             ids=["sigma-z-end", "sigma-x-end"])
    def test_interior_optimum_in_an_end_cell(self, coherence, end):
        # the first grid's best point is an end, and the minimum lies
        # inside the cell next to it, 1e-10 to 1e-9 below the end
        mat = x_state(0.0355, 0.9466, 0.0164, 0.0015, coherence).mat
        thetas = np.linspace(0.0, np.pi / 2.0, GRID_THETA_POLAR)
        grid = _conditional_entropy_batch(mat, thetas, np.zeros(thetas.size))
        value, theta = _min_conditional_entropy_polar(mat)
        assert thetas[np.argmin(grid)] == end
        assert 0.0 < abs(theta - end) < thetas[1]
        assert value < grid.min() - 5e-11
        assert value == pytest.approx(scipy_sphere_oracle(mat), abs=1e-12)


class TestBatchOutcomeEntropy:
    def test_near_pure_x_states_match_the_closed_form(self):
        # populations down to 1e-13 leave near-pure outcomes, where
        # eta(p) - eta(hi) - eta(lo) cancels terms of size p (4e-15 bits)
        rng = np.random.default_rng(19)
        thetas = np.linspace(0.0, np.pi / 2.0, GRID_THETA_POLAR)
        for _ in range(40):
            r11, r22 = 10.0 ** rng.uniform(-13.0, -8.0, 2)
            r33 = rng.uniform(0.2, 0.8)
            r23 = rng.uniform(0.0, 1.0) * np.sqrt(r22 * r33)
            mat = x_state(r11, r22, r33, 1.0 - r11 - r22 - r33, r23).mat
            pops = mat.diagonal().real.tolist()
            grid = _conditional_entropy_batch(mat, thetas, np.zeros(thetas.size))
            objective = measures._polar_objective(*pops, abs(mat[1, 2]))
            closed = [objective(t) for t in thetas]
            assert np.max(np.abs(grid - closed)) <= 5e-16


    def test_polar_grid_matches_the_batch_kernel(self):
        # the search's grid, the closed form at every angle, against the
        # general kernel at the aligned azimuth: seeded X states with one
        # population zeroed in four of five (pure outcomes at theta = 0)
        # and complex coherences inside their bounds, the family (pure at
        # x = 1), and states whose |01>/|10> block is pure, its coherence
        # at its bound
        rng = np.random.default_rng(23)
        mats = [one_param_density(x).mat for x in (0.5, 2.0 / 3.0, 0.75, 1.0)]
        for i in range(300):
            pops = rng.dirichlet(np.ones(4))
            if i % 5:
                pops[i % 4] = 0.0
                pops /= pops.sum()
            mat = np.diag(pops).astype(complex)
            for (r, c), bound in (((1, 2), pops[1] * pops[2]), ((0, 3), pops[0] * pops[3])):
                mat[r, c] = rng.uniform() * np.sqrt(bound) * np.exp(2j * np.pi * rng.uniform())
                mat[c, r] = np.conj(mat[r, c])
            mats.append(mat)
        pure_blocks = []
        for i in range(300):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            weights = rng.dirichlet(np.ones(3)) if i % 3 else np.array([0.0, 1.0, 0.0])
            mat = np.zeros((4, 4), dtype=complex)
            mat[0, 0], mat[3, 3] = weights[0], weights[2]
            mat[1:3, 1:3] = weights[1] * np.outer(v, v.conj()) / np.vdot(v, v).real
            pure_blocks.append(mat)
        thetas = np.linspace(0.0, np.pi / 2.0, GRID_THETA_POLAR)
        for k, mat in enumerate(mats + pure_blocks):
            r23, r14 = complex(mat[1, 2]), complex(mat[0, 3])
            batch = _conditional_entropy_batch(mat, thetas, np.full(thetas.size,
                                                                    _aligned_phi(mat)))
            grid = measures._polar_grid_entropies(*mat.diagonal().real.tolist(),
                                                  abs(r23) + abs(r14))
            bound = 1e-15 if k < len(mats) else GRID_KERNEL_AGREEMENT
            assert np.max(np.abs(grid - batch)) <= bound
            assert np.argmin(grid) == np.argmin(batch)

def _golden_section(f, lo, hi):
    """(f(t), t) at the best point a golden-section search of [lo, hi] evaluates.

    The polar refinement before Brent's method, kept as its oracle: the
    bracket shrinks by the golden ratio per evaluation until it is
    narrower than REFINE_TOL; ties keep the smaller t.
    """
    inv = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = hi - inv * (hi - lo), lo + inv * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > REFINE_TOL:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - inv * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv * (hi - lo)
            fd = f(d)
    return min((fc, c), (fd, d))


def _golden_polar(mat, phi=0.0):
    """The 65-point polar grid, then a golden-section search of the two cells at its best point."""
    thetas = np.linspace(0.0, np.pi / 2.0, GRID_THETA_POLAR)
    values = _conditional_entropy_batch(mat, thetas, np.full(thetas.size, phi))
    k = int(np.argmin(values))
    pops = mat.diagonal().real.tolist()
    coherence = abs(complex(mat[1, 2])) + abs(complex(mat[0, 3]))
    refined = _golden_section(
        measures._polar_objective(*pops, coherence),
        float(thetas[max(k - 1, 0)]), float(thetas[min(k + 1, thetas.size - 1)]))
    return min((float(values[k]), float(thetas[k])), refined)


def _closed_form_reference(theta, r11, r22, r33, r44, coherence):
    """The polar closed form written out apart from the module: two scalar outcomes.

    Each outcome adds p S(M / p) with the smaller eigenvalue from the
    determinant and the larger one's term from log1p; a pure or empty
    outcome adds 0.
    """
    def outcome(top, bottom, off):
        p = top + bottom
        if not p > 0.0:
            return 0.0
        lo = (4.0 * top * bottom - off * off) / (2.0 * (p + math.hypot(top - bottom, off)))
        if not lo > 0.0:
            return 0.0
        return -((p - lo) * math.log1p(-lo / p) / math.log(2.0) + lo * math.log2(lo / p))

    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    c2, s2, off = c * c, s * s, 2.0 * c * s * coherence
    return (outcome(c2 * r11 + s2 * r22, c2 * r33 + s2 * r44, off)
            + outcome(s2 * r11 + c2 * r22, s2 * r33 + c2 * r44, off))


def _aligned_phi(mat):
    """The azimuth classical_correlation_optimized measures an X state at."""
    r23, r14 = complex(mat[1, 2]), complex(mat[0, 3])
    return float(np.angle(r23) - np.angle(r14)) / 2.0 % np.pi if r23 and r14 else 0.0


class TestBrentRefinement:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(rho=st.one_of(x_states(), excitation_block_states()))
    @example(rho=one_param_density(0.5))
    @example(rho=one_param_density(0.75))
    @example(rho=one_param_density(1.0))
    @example(rho=_complex_x_state())
    @example(rho=x_state(0.0355, 0.9466, 0.0164, 0.0015, 0.094675))
    @example(rho=x_state(0.0355, 0.9466, 0.0164, 0.0015, 0.107216))
    def test_never_above_golden_section(self, rho):
        phi = _aligned_phi(rho.mat)
        value, theta = _min_conditional_entropy_polar(rho.mat)
        assert value <= _golden_polar(rho.mat, phi)[0] + 1e-15
        assert 0.0 <= theta <= np.pi / 2.0
        basis = MeasurementBasis(theta, phi)
        assert conditional_entropy(rho, basis) == pytest.approx(value, abs=1e-12)

    @staticmethod
    def noisy_sweep_states():
        cfgs = (ModelConfig(ModelVariant.RESONANT_QUBIT), ModelConfig(ModelVariant.RESONANT_BOSON))
        return [protocols.run_probe_cycle(float(x), cfg, 1, NoiseConfig(0.1)).post_state.mat
                for cfg in cfgs for x in np.linspace(0.5, 1.0, 26)]

    def test_half_the_evaluations_on_noisy_sweep_states(self, monkeypatch):
        # both searches evaluate the closed form through _polar_objective:
        # the golden section per angle, Brent's search as one closure
        mats = self.noisy_sweep_states()
        objective, calls = measures._polar_objective, []

        def counted(*state):
            f = objective(*state)

            def evaluate(theta):
                calls.append(theta)
                return f(theta)

            return evaluate

        monkeypatch.setattr(measures, "_polar_objective", counted)
        mean = {}
        for search in (_min_conditional_entropy_polar, _golden_polar):
            calls.clear()
            for mat in mats:
                search(mat)
            mean[search] = len(calls) / len(mats)
            # the searches stay within one grid cell of [0, pi/2]
            h = np.pi / 2.0 / (GRID_THETA_POLAR - 1)
            assert all(-h <= theta <= np.pi / 2.0 + h for theta in calls)
        assert mean[_golden_polar] > 40
        assert 0 < mean[_min_conditional_entropy_polar] <= 0.5 * mean[_golden_polar]

    def test_objective_is_the_closed_form_at_the_folded_angle(self, monkeypatch):
        # bit for bit, at every angle Brent's search evaluates on the noisy
        # sweep states and the family, and on both sides of each end
        mats = self.noisy_sweep_states() + [one_param_density(x).mat
                                            for x in (0.5, 2.0 / 3.0, 0.75, 1.0)]
        seen = []
        brent = measures._brent_minimize

        def recording(f, lo, hi):
            seen.append((f, lo, hi))
            return brent(f, lo, hi)

        monkeypatch.setattr(measures, "_brent_minimize", recording)
        h = np.pi / 2.0 / (GRID_THETA_POLAR - 1)
        for mat in mats:
            seen.clear()
            _min_conditional_entropy_polar(mat)
            (f, lo, hi), = seen
            pops = mat.diagonal().real.tolist()
            coherence = abs(complex(mat[1, 2])) + abs(complex(mat[0, 3]))
            for theta in np.linspace(lo, hi, 9).tolist() + [-h, -1e-9, np.pi / 2 + 1e-9]:
                folded = np.pi - theta if theta > np.pi / 2.0 else abs(theta)
                assert f(theta) == _closed_form_reference(folded, *pops, coherence), theta


@st.composite
def symmetric_x_states(draw):
    """Real X states with r22 = r33 (the closed form's domain), r14 from 0 to 1e-7."""
    unit = st.floats(0.0, 1.0)
    pops = np.array([draw(unit) for _ in range(3)])
    assume(pops.sum() > 1e-3)
    r11, middle, r44 = pops / pops.sum()
    mat = np.diag([r11, middle / 2.0, middle / 2.0, r44]).astype(complex)
    mat[1, 2] = mat[2, 1] = draw(st.floats(-1.0, 1.0)) * middle / 2.0
    mat[0, 3] = mat[3, 0] = min(draw(st.sampled_from([0.0, 5e-9, 1e-7])), np.sqrt(r11 * r44))
    return DensityMatrix(SPACE, mat)


class TestScalarReport:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rho=st.one_of(x_states(), excitation_block_states(), symmetric_x_states()))
    @example(rho=one_param_density(0.5))
    @example(rho=one_param_density(2.0 / 3.0))
    @example(rho=one_param_density(1.0))
    @example(rho=_complex_x_state())
    @example(rho=x_state(0.1, 0.3, 0.3, 0.3, 0.2))
    def test_matches_stack_kernels(self, rho):
        rep = correlation_report(rho)
        assert abs(rep.concurrence - concurrence_stack(rho.mat[None])[0]) <= 1e-14
        assert abs(rep.mutual_info - mutual_information_stack(rho.mat[None])[0]) <= 1e-14
        try:
            closed = classical_correlation_closed_form(rho)
        except ValueError:
            closed = None
        assert rep.classical_closed_form == closed

    def test_other_states_keep_the_general_path(self):
        # X states outside the one-parameter family: every column is the
        # single measure's value, and no closed form
        rng = np.random.default_rng(41)
        for rho in (diagonal_product_state(rng), random_xstate(rng)):
            rep = correlation_report(rho)
            assert rep.concurrence == concurrence(rho)
            assert rep.mutual_info == mutual_information(rho)
            assert rep.classical_closed_form is None
