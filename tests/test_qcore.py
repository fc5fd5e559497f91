import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qprobe.qcore import (
    CHECK_BLOCK,
    EIG_FLOOR,
    REDUCTION_PLANS,
    DensityMatrix,
    HilbertSpace,
    SpectralPropagator,
    check_density_stack,
    density_matrices,
    entropy_bits,
    entropy_of_spectrum,
    fidelity,
    hermitian_eigen,
    kron,
    kron_all,
    partial_trace,
    partial_trace_mat,
    propagate,
    psd_sqrt,
    psd_sqrt_mat,
    reduced_entry_stack,
    trace_distance,
    trace_distance_stack,
    _floor_shift,
    _reduction_plan,
)
from qprobe.states import one_param_density

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def random_psd(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def dm(mat, dims=None):
    mat = np.asarray(mat, dtype=complex)
    dims = dims or (mat.shape[0],)
    labels = tuple(chr(ord("a") + i) for i in range(len(dims)))
    return DensityMatrix(HilbertSpace(tuple(dims), labels), mat)


class TestHilbertSpace:
    def test_total_dimension(self):
        assert HilbertSpace((2, 2, 2), ("A", "B", "C")).dim == 8

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace((2, 2), ("A", "A"))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace((2, 0), ("A", "B"))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            dm(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            dm(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            dm(np.diag([1.2, -0.2]))

    def test_mat_is_read_only(self):
        r = dm(np.diag([0.5, 0.5]))
        with pytest.raises(ValueError):
            r.mat[0, 0] = 1.0


class TestDensityMatrices:
    SPACE = HilbertSpace((2, 2), ("A", "B"))

    def stack(self):
        rng = np.random.default_rng(5)
        return np.array([random_psd(rng, 4) for _ in range(5)])

    @pytest.mark.parametrize("bad, message", [
        (np.array([[0.5, 0.1, 0, 0], [0.3, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
         "not Hermitian"),
        (np.diag([1.2, -0.2, 0.0, 0.0]), "not positive semidefinite"),
    ], ids=["non-hermitian", "non-positive"])
    def test_one_bad_matrix_fails_the_stack_as_it_fails_alone(self, bad, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix(self.SPACE, bad)
        mats = self.stack()
        mats[3] = bad
        with pytest.raises(ValueError, match=f"^{message}$"):
            density_matrices(self.SPACE, mats)

    def test_rows_are_read_only_states_of_the_stack(self):
        mats = self.stack()
        states = density_matrices(self.SPACE, mats)
        assert len(states) == len(mats)
        for state, mat in zip(states, mats):
            assert isinstance(state, DensityMatrix) and state.space == self.SPACE
            assert np.array_equal(state.mat, mat)
            with pytest.raises(ValueError):
                state.mat[0, 0] = 1.0
            with pytest.raises(ValueError):
                state.mat.setflags(write=True)
        # a copy: writing to the input does not reach the states
        mats[0, 0, 0] = 7.0
        assert states[0].mat[0, 0] != 7.0

    def test_stack_shape_must_match_the_space(self):
        with pytest.raises(ValueError, match="does not match space dim 4"):
            density_matrices(self.SPACE, np.eye(4)[None, :2])
        with pytest.raises(ValueError, match="does not match space dim 4"):
            density_matrices(self.SPACE, 0.25 * np.eye(4))


def state_with_lowest(rng, dim, lowest):
    """A Hermitian unit-trace dim x dim matrix whose smallest eigenvalue is ``lowest``.

    The other eigenvalues share 1 - lowest, each at least a tenth of the
    largest, in a random eigenbasis; a 1 x 1 matrix is [[1]].
    """
    if dim == 1:
        return np.ones((1, 1), dtype=complex)
    rest = rng.uniform(0.1, 1.0, dim - 1)
    values = np.concatenate([[lowest], (1.0 - lowest) * rest / rest.sum()])
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    m = (q * values) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def check_message(mats):
    """The error check_density_stack raises on ``mats``, or None if it accepts them."""
    try:
        check_density_stack(mats)
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckDensityStack:
    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(1, 18), offset=st.floats(1e-11, 1e-6),
           below=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_positivity_verdict_matches_smallest_eigenvalue(self, dim, offset, below, seed):
        # the Cholesky factorization of the shifted matrix decides exactly
        # what the smallest eigenvalue against the floor decides
        lowest = EIG_FLOOR + (-offset if below else offset)
        mat = state_with_lowest(np.random.default_rng(seed), dim, lowest)
        accepted = np.linalg.eigvalsh(mat)[0] >= EIG_FLOOR
        if dim > 1:
            assert accepted == (not below)
        assert check_message(mat[None]) == (None if accepted else "not positive semidefinite")

    @pytest.mark.parametrize("row", [None, 0, 100, 200], ids=["single", "row0", "row100",
                                                               "last-row"])
    @pytest.mark.parametrize("lowest, corrupt, message", [
        (-0.9e-8, False, None),
        (-1.1e-8, False, "not positive semidefinite"),
        # a non-finite entry is reported before the asymmetry and the negative eigenvalue
        (-1.1e-8, True, "non-finite entries"),
    ], ids=["inside-floor", "below-floor", "nan-first"])
    def test_floor_on_a_single_matrix_and_in_a_stack(self, row, lowest, corrupt, message):
        rng = np.random.default_rng(7)
        bad = state_with_lowest(rng, 9, lowest)
        if corrupt:
            bad[0, 1] = np.nan
        if row is None:
            assert check_message(bad[None]) == message
            if message is None:
                dm(bad)
            else:
                with pytest.raises(ValueError, match=message):
                    dm(bad)
            return
        stack = np.stack([state_with_lowest(rng, 9, 0.01) for _ in range(201)])
        assert check_message(stack) is None
        stack[row] = bad
        assert check_message(stack) == message

    def test_shift_is_cached_and_read_only(self):
        shift = _floor_shift(4)
        assert _floor_shift(4) is shift and not shift.flags.writeable
        assert np.array_equal(shift, -EIG_FLOOR * np.eye(4))

    def test_integer_float32_and_read_only_stacks(self):
        # the check computes in its own buffer, at least double precision,
        # and never writes to its input
        below = np.nextafter(np.float32(0.5), np.float32(0.0))
        # smallest eigenvalue -5.0e-9, above the floor only in double
        # precision: in float32 the shift of 1e-8 is lost on entries near 0.5
        near_floor = np.array([[[0.50018656, below], [below, 0.49981344]]], dtype=np.float32)
        assert -1e-8 < np.linalg.eigvalsh(near_floor.astype(float))[0, 0] < 0.0
        cases = [(np.array([[[1, 0], [0, 0]]]), None),
                 (np.full((1, 2, 2), 0.5, dtype=np.float32), None),
                 (near_floor, None),
                 (np.array([[[1, 1], [0, 0]]]), "not Hermitian"),
                 (np.array([[[2, 0], [0, -1]]]), "not positive semidefinite")]
        for mats, message in cases:
            mats.setflags(write=False)
            before = mats.copy()
            assert check_message(mats) == message
            assert np.array_equal(mats, before)


#: rows of a (201, 9, 9) stack in one block of check_density_stack
BLOCK_ROWS_9 = CHECK_BLOCK // (16 * 81)


def with_fault(stack, row, fault):
    """``stack`` with one fault of the given kind at ``row``, in a copy."""
    stack = stack.copy()
    if fault == "non-finite":
        stack[row, 2, 2] = np.inf
    elif fault == "asymmetry":
        stack[row, 0, 1] += 1e-9
    elif fault == "trace":
        stack[row] *= 1.0 + 1e-9
    else:  # a negative eigenvalue, trace and Hermiticity kept
        stack[row] = state_with_lowest(np.random.default_rng(row), stack.shape[-1], -1e-6)
    return stack


class TestBlockedCheck:
    """check_density_stack over several blocks: whole-stack order, bounded memory."""

    @staticmethod
    def stack(n=201):
        rng = np.random.default_rng(3)
        return np.stack([state_with_lowest(rng, 9, 0.01) for _ in range(n)])

    def test_the_stack_spans_several_blocks(self):
        # the cases below put faults in the first and the last block
        assert 1 < BLOCK_ROWS_9 < 200 and 200 // BLOCK_ROWS_9 >= 2

    @pytest.mark.parametrize("first, last, message", [
        ("psd", "asymmetry", "not Hermitian"),
        ("psd", "trace", "trace differs from one"),
        ("asymmetry", "non-finite", "non-finite entries"),
        ("trace", "non-finite", "non-finite entries"),
        ("psd", "non-finite", "non-finite entries"),
        ("trace", "asymmetry", "not Hermitian"),
        ("asymmetry", "psd", "not Hermitian"),
    ])
    def test_faults_in_different_blocks_give_the_whole_stack_message(self, first, last,
                                                                    message):
        # the fault in block 0 would be found first by a block-by-block
        # check; the whole-stack order names the kind checked first
        stack = with_fault(with_fault(self.stack(), 0, first), 200, last)
        assert check_message(stack) == message

    @pytest.mark.parametrize("fault, message", [
        ("non-finite", "non-finite entries"),
        ("asymmetry", "not Hermitian"),
        ("trace", "trace differs from one"),
        ("psd", "not positive semidefinite"),
    ])
    @pytest.mark.parametrize("row", [0, BLOCK_ROWS_9 - 1, BLOCK_ROWS_9, 200])
    def test_one_fault_in_any_block(self, row, fault, message):
        stack = self.stack()
        assert check_message(stack) is None
        assert check_message(with_fault(stack, row, fault)) == message

    def test_memory_bounded_by_the_block(self):
        # a (2001, 18, 18) stack takes 10.4 MB; its check allocates one
        # block's buffer and a block's temporaries, not the stack's
        rng = np.random.default_rng(11)
        stack = np.stack([state_with_lowest(rng, 18, 0.01) for _ in range(16)] * 126)[:2001]
        assert stack.nbytes > 10_000_000
        tracemalloc.start()
        try:
            check_density_stack(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * CHECK_BLOCK


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), I4)

    def test_basis_projectors(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_against_index_formula(self):
        # independent oracle: K[(i a),(j b)] = A[i,j] B[a,b] by explicit loops
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        expect = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for q in range(2):
                        expect[2 * i + p, 2 * j + q] = a[i, j] * b[p, q]
        assert np.max(np.abs(kron(a, b) - expect)) < 1e-14

    def test_associative_reshuffle(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sz = np.diag([1.0, -1.0]).astype(complex)
        left = kron(kron(sz, sz), I2)
        right = kron(sz, kron(sz, I2))
        assert np.max(np.abs(left - right)) < 1e-14
        assert np.max(np.abs(kron(kron(a, b), I2) - kron(a, kron(b, I2)))) < 1e-14


    @pytest.mark.parametrize("shape_a, shape_b", [
        ((2, 2), (3, 3)), ((2, 3), (4, 1)), ((1, 5), (3, 2)), ((1, 1), (1, 1)),
        ((1, 1), (3, 3)), ((3, 3), (1, 1)),
    ])
    def test_bit_identical_to_numpy(self, shape_a, shape_b):
        rng = np.random.default_rng(13)
        a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
        b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
        # the signs of zero products must match too
        a.flat[0], b.flat[-1] = complex(-0.0, 0.0), complex(0.0, -0.0)
        assert kron(a, b).tobytes() == np.kron(a, b).tobytes()
        # real operands are taken as complex first, as they always were
        ar, br = a.real.astype(complex), b.real.astype(complex)
        assert kron(a.real, b.real).tobytes() == np.kron(ar, br).tobytes()
        assert kron_all(a, b, a).tobytes() == np.kron(np.kron(a, b), a).tobytes()

    def test_density_matrix_operands(self):
        rng = np.random.default_rng(14)
        ra, rb = dm(random_psd(rng, 2)), dm(random_psd(rng, 3))
        expect = np.kron(ra.mat, rb.mat)
        assert kron(ra, rb).tobytes() == expect.tobytes()
        assert kron_all(ra, rb).tobytes() == np.kron(np.kron([[1.0 + 0j]], ra.mat),
                                                     rb.mat).tobytes()

    @pytest.mark.parametrize("a, b", [
        (np.ones(2), I2), (I2, np.ones(2)), (np.ones((2, 2, 2)), I2), (1.0, I2),
    ], ids=["1-D left", "1-D right", "3-D", "0-D"])
    def test_operands_must_be_2d(self, a, b):
        with pytest.raises(ValueError, match="2-D"):
            kron(a, b)
        with pytest.raises(ValueError, match="2-D"):
            kron_all(a, b)


class TestPartialTrace:
    def test_product_state_exact(self):
        rng = np.random.default_rng(21)
        for da, db in ((2, 2), (2, 3), (3, 3)):
            ra, rb = random_psd(rng, da), random_psd(rng, db)
            joint = dm(kron(ra, rb), (da, db))
            assert np.max(np.abs(partial_trace(joint, {0}).mat - ra)) < 1e-14
            assert np.max(np.abs(partial_trace(joint, {1}).mat - rb)) < 1e-14

    def test_maximally_entangled_marginal(self):
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        bell = dm(np.outer(psi, psi.conj()), (2, 2))
        marg = partial_trace(bell, {0}).mat
        assert np.max(np.abs(marg - np.diag([0.5, 0.5]))) < 1e-14

    def test_family_state_marginal(self):
        marg = partial_trace(one_param_density(0.75), {0}).mat
        assert np.max(np.abs(marg - np.diag([0.375, 0.625]))) < 1e-12

    def test_bad_subsystem(self):
        rho = one_param_density(0.75)
        with pytest.raises(ValueError, match="bad subsystem"):
            partial_trace(rho, {2})
        with pytest.raises(ValueError, match="bad subsystem"):
            partial_trace(rho, set())

    def test_keep_order_preserved(self):
        rng = np.random.default_rng(22)
        ra, rb, rc = (random_psd(rng, 2) for _ in range(3))
        joint = dm(kron(kron(ra, rb), rc), (2, 2, 2))
        got = partial_trace(joint, {0, 2}).mat
        assert np.max(np.abs(got - kron(ra, rc))) < 1e-13


class TestReducedEntryStack:
    DIMS = (3, 2, 4)

    def sparse_stack(self, seed):
        # random matrices with 60% of their entries exactly zero
        rng = np.random.default_rng(seed)
        d = int(np.prod(self.DIMS))
        mats = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
        mats[:, rng.random((d, d)) < 0.6] = 0.0
        codes = np.flatnonzero(np.any(mats.reshape(5, -1) != 0, axis=0))
        return mats, codes, mats.reshape(5, -1)[:, codes]

    @pytest.mark.parametrize("keep", [{0}, {1}, {2}, {0, 2}, {1, 2}, {0, 1, 2}])
    def test_matches_dense_partial_trace(self, keep):
        mats, codes, entries = self.sparse_stack(31)
        got = reduced_entry_stack(codes, entries, self.DIMS, keep)
        ref = np.array([partial_trace_mat(m, self.DIMS, keep) for m in mats])
        assert np.max(np.abs(got - ref)) < 1e-14

    def test_restriction_to_basis_states(self):
        mats, codes, entries = self.sparse_stack(32)
        index = [0, 2, 5]
        got = reduced_entry_stack(codes, entries, self.DIMS, {0, 2}, index)
        ref = [partial_trace_mat(m, self.DIMS, {0, 2})[np.ix_(index, index)] for m in mats]
        assert np.max(np.abs(got - np.array(ref))) < 1e-14

    def test_bad_subsystem(self):
        _, codes, entries = self.sparse_stack(33)
        for keep in ({3}, set()):
            with pytest.raises(ValueError, match="bad subsystem"):
                reduced_entry_stack(codes, entries, self.DIMS, keep)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bit_identical_to_unplanned_reduction(self, data):
        dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4), label="dims")
        d = math.prod(dims)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        # dense sets give reduced entries of three terms, whose order of addition shows
        density = data.draw(st.sampled_from([0.05, 0.3, 1.0]), label="density")
        codes = rng.permutation(np.flatnonzero(rng.random(d * d) < density))
        assume(codes.size)
        keep = data.draw(st.sets(st.integers(0, len(dims) - 1), min_size=1), label="keep")
        dk = math.prod(dims[k] for k in keep)
        index = data.draw(st.one_of(st.none(), st.lists(
            st.integers(0, dk - 1), min_size=1, max_size=dk, unique=True)), label="index")
        # two calls share codes, dims, keep and index (so one plan), not entries
        for n in (3, 1):
            entries = rng.normal(size=(n, codes.size)) + 1j * rng.normal(size=(n, codes.size))
            got = reduced_entry_stack(codes, entries, dims, keep, index)
            assert np.array_equal(got, _reduced_entry_stack_unplanned(
                codes, entries, dims, keep, index))

    def test_plan_is_read_only_and_results_are_the_callers(self):
        _, codes, entries = self.sparse_stack(34)
        first = reduced_entry_stack(codes, entries, self.DIMS, {0, 2}, [0, 2, 5])
        expected = first.copy()
        first[...] = 7.0  # a caller edits the stack it was given
        assert np.array_equal(reduced_entry_stack(codes, entries, self.DIMS, {0, 2}, [0, 2, 5]),
                              expected)
        steps, _, dest, inside = _reduction_plan(
            codes.astype(np.int64).tobytes(), self.DIMS, (0, 2),
            np.array([0, 2, 5], dtype=np.int64).tobytes())
        arrays = [dest, inside]
        for start, adds in steps:
            arrays += [start, *(a for pair in adds for a in pair)]
        assert len(steps) == 1 and len(arrays) > 3
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        assert _reduction_plan.cache_info().maxsize == REDUCTION_PLANS


def _reduced_entry_stack_unplanned(codes, entries, dims, keep, index=None):
    """``reduced_entry_stack`` as it was before its index plans were cached: the reference."""
    dims = [int(d) for d in dims]
    keep = sorted(set(int(k) for k in keep))
    codes = np.asarray(codes, dtype=np.int64)
    entries = np.asarray(entries, dtype=complex)
    for f in sorted(set(range(len(dims))) - set(keep), reverse=True):
        inner, size, d = math.prod(dims[f + 1:]), dims[f], math.prod(dims)
        rows, cols = np.divmod(codes, d)
        on_diag = np.flatnonzero(rows // inner % size == cols // inner % size)

        def without_f(i):
            return i // (inner * size) * inner + i % inner

        merged = without_f(rows[on_diag]) * (d // size) + without_f(cols[on_diag])
        order = np.argsort(merged, kind="stable")
        merged, terms = merged[order], entries[:, on_diag[order]]
        starts = np.flatnonzero(np.diff(merged, prepend=-1))
        counts = np.diff(starts, append=merged.size)
        entries = terms[:, starts]
        for j in range(1, counts.max(initial=1)):
            more = counts > j
            entries[:, more] += terms[:, starts[more] + j]
        codes = merged[starts]
        del dims[f]
    dk = math.prod(dims)
    index = np.arange(dk) if index is None else np.asarray(index, dtype=np.int64)
    m = index.size
    pos = np.full(dk, -1)
    pos[index] = np.arange(m)
    r, c = pos[codes // dk], pos[codes % dk]
    inside = (r >= 0) & (c >= 0)
    out = np.zeros((entries.shape[0], m * m), dtype=complex)
    out[:, r[inside] * m + c[inside]] = entries[:, inside]
    return out.reshape(entries.shape[0], m, m)


class TestHermitianEigen:
    def test_diagonal(self):
        vals, _ = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_sigma_x(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        vals, vecs = hermitian_eigen(sx)
        assert np.allclose(vals, [-1.0, 1.0])
        for k in range(2):
            v = vecs[:, k]
            assert np.max(np.abs(sx @ v - vals[k] * v)) < 1e-12

    def test_family_middle_block(self):
        # 2x2 closed form: eigenvalues r22 -+ |r23|
        block = np.array([[0.375, -0.125], [-0.125, 0.375]])
        vals, _ = hermitian_eigen(block)
        assert np.allclose(vals, [0.25, 0.5], atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        vals, vecs = hermitian_eigen(h)
        assert np.max(np.abs((vecs * vals) @ vecs.conj().T - h)) < 1e-9
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigen(m)


class TestPsdSqrt:
    def test_scaled_identity(self):
        root = psd_sqrt(dm(I4 / 4.0, (4,)))
        assert np.max(np.abs(root - I4 / 2.0)) < 1e-12

    def test_projector_is_own_root(self):
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        proj = np.outer(psi, psi.conj())
        assert np.max(np.abs(psd_sqrt(dm(proj, (2, 2))) - proj)) < 1e-12

    def test_diagonal_scalar_roots(self):
        root = psd_sqrt(dm(np.diag([0.25, 0.75])))
        assert np.allclose(np.diag(root), [0.5, 0.8660254037844386], atol=1e-12)

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            m = random_psd(rng, d)
            root = psd_sqrt_mat(m)
            assert np.max(np.abs(root @ root - m)) < 1e-9
            assert np.max(np.abs(root - root.conj().T)) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrt_mat(np.diag([1.0, -0.5]))


class TestPropagate:
    def test_zero_time(self):
        rho = one_param_density(0.7)
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        assert np.max(np.abs(propagate(rho, h, 0.0).mat - rho.mat)) < 1e-14

    def test_null_hamiltonian(self):
        rho = one_param_density(0.7)
        out = propagate(rho, np.zeros((4, 4)), 2.7)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-14

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(51)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a + a.conj().T
        rho = dm(random_psd(rng, 8), (2, 2, 2))
        out = propagate(rho, h, 0.37)
        before = np.linalg.eigvalsh(rho.mat)
        after = np.linalg.eigvalsh(out.mat)
        assert np.max(np.abs(before - after)) < 1e-9
        assert abs(np.trace(out.mat).real - 1.0) < 1e-10
        assert abs(entropy_bits(out.mat) - entropy_bits(rho.mat)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            propagate(one_param_density(0.6), np.zeros((2, 2)), 1.0)

    def test_propagator_unitary(self):
        rng = np.random.default_rng(52)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = a + a.conj().T
        u = SpectralPropagator.from_hamiltonian(h).unitary(1.3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-12


class TestEntropy:
    def test_pure_state(self):
        assert entropy_bits(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(entropy_bits(np.diag([0.5, 0.5])) - 1.0) < 1e-14

    def test_direct_formula(self):
        # oracle: -(1/3 log2 1/3 + 2/3 log2 2/3) evaluated independently
        import math

        expect = -(1 / 3 * math.log2(1 / 3) + 2 / 3 * math.log2(2 / 3))
        assert abs(entropy_bits(np.diag([1 / 3, 2 / 3])) - expect) < 1e-14
        assert abs(expect - 0.9182958340544896) < 1e-15

    def test_spectrum_clip(self):
        # the 1e-13 weight is clipped to an exact zero; only the rounding
        # of the large eigenvalue remains
        assert abs(entropy_of_spectrum([1.0 - 1e-13, 1e-13])) < 1e-12
        assert entropy_of_spectrum([1.0, 0.0, -1e-14]) == 0.0


class TestMetrics:
    def test_trace_distance_orthogonal_pure(self):
        assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) < 1e-14

    def test_trace_distance_stack_rows_match(self):
        rng = np.random.default_rng(41)
        stack = np.array([random_psd(rng, 4) for _ in range(6)])
        ref = one_param_density(0.8).mat
        got = trace_distance_stack(stack, ref)
        assert got.tolist() == [trace_distance(m, ref) for m in stack]

    def test_fidelity_identical(self):
        rho = one_param_density(0.8).mat
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_fidelity_pure_overlap(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        assert abs(fidelity(a, plus) - 0.5) < 1e-12
