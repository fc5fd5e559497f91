import numpy as np
import pytest

from qprobe.qcore import DensityMatrix, HilbertSpace, entropy_bits, partial_trace
from qprobe.states import ProbePrep, corner_swap, join_with_probe, one_param_density

KET_S = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
KET_A = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
KET_11 = np.array([0.0, 0.0, 0.0, 1.0])


class TestOneParamDensity:
    def test_singlet_at_one(self):
        m = one_param_density(1.0).mat
        assert m[1, 1] == pytest.approx(0.5)
        assert m[2, 2] == pytest.approx(0.5)
        assert m[1, 2] == pytest.approx(-0.5)
        assert m[3, 3] == pytest.approx(0.0)
        proj = np.outer(KET_A, KET_A)
        assert np.max(np.abs(m - proj)) < 1e-14

    def test_zero_coherence_point(self):
        m = one_param_density(2.0 / 3.0).mat
        assert np.max(np.abs(m - np.diag([0.0, 1 / 3, 1 / 3, 1 / 3]))) < 1e-14

    def test_lower_edge(self):
        m = one_param_density(0.5).mat
        assert np.allclose(np.diag(m).real, [0.0, 0.25, 0.25, 0.5])
        assert m[1, 2] == pytest.approx(0.25)

    @pytest.mark.parametrize("x", [0.3, 0.49999, 1.0001, -1.0])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError, match="family domain"):
            one_param_density(x)

    def test_bell_projector_decomposition(self):
        # weights (1-x), (2x-1), (1-x) on |s>, |a>, |11>
        ps = np.outer(KET_S, KET_S)
        pa = np.outer(KET_A, KET_A)
        p11 = np.outer(KET_11, KET_11)
        for x in np.linspace(0.5, 1.0, 101):
            expect = (1 - x) * ps + (2 * x - 1) * pa + (1 - x) * p11
            assert np.max(np.abs(one_param_density(x).mat - expect)) < 1e-12


class TestCornerSwap:
    def test_family_state(self):
        out = corner_swap(one_param_density(0.75)).mat
        assert np.allclose(np.diag(out).real, [0.25, 0.375, 0.375, 0.0])
        assert out[1, 2] == pytest.approx(-0.125)

    def test_involution(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pops = rng.dirichlet(np.ones(4))
            mat = np.diag(pops).astype(complex)
            mat[1, 2] = mat[2, 1] = rng.uniform(-1, 1) * np.sqrt(pops[1] * pops[2])
            rho = DensityMatrix(HilbertSpace((2, 2), ("A", "B")), mat)
            twice = corner_swap(corner_swap(rho))
            assert np.max(np.abs(twice.mat - rho.mat)) < 1e-14

    def test_maximally_mixed_fixed_point(self):
        mixed = DensityMatrix(
            HilbertSpace((2, 2), ("A", "B")), np.eye(4, dtype=complex) / 4.0
        )
        assert np.max(np.abs(corner_swap(mixed).mat - mixed.mat)) < 1e-14

    def test_spectrum_preserved(self):
        # local unitary conjugation: spectra identical to 1e-10
        for x in np.linspace(0.5, 1.0, 11):
            rho = one_param_density(x)
            before = np.linalg.eigvalsh(rho.mat)
            after = np.linalg.eigvalsh(corner_swap(rho).mat)
            assert np.max(np.abs(before - after)) < 1e-10

    def test_dimension_check(self):
        single = DensityMatrix(HilbertSpace((2,), ("A",)), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            corner_swap(single)


class TestJoinWithProbe:
    def test_ground_probe(self):
        joint = join_with_probe(one_param_density(1.0), ProbePrep.GROUND)
        assert joint.dim == 8
        probe = partial_trace(joint, {2}).mat
        # basis order (|e>, |g>): ground population is the second entry
        assert probe[1, 1] == pytest.approx(1.0)
        assert probe[0, 0] == pytest.approx(0.0)

    def test_excited_probe_consistency(self):
        rho = one_param_density(0.75)
        joint = join_with_probe(rho, ProbePrep.EXCITED)
        assert abs(np.trace(joint.mat).real - 1.0) < 1e-12
        back = partial_trace(joint, {0, 1}).mat
        assert np.max(np.abs(back - rho.mat)) < 1e-14
        probe = partial_trace(joint, {2}).mat
        assert probe[0, 0] == pytest.approx(1.0)

    def test_entropy_unchanged(self):
        # pure probe adds zero entropy (additivity over product factors)
        for x in (0.5, 0.8, 1.0):
            rho = one_param_density(x)
            joint = join_with_probe(rho, ProbePrep.GROUND)
            assert abs(entropy_bits(joint.mat) - entropy_bits(rho.mat)) < 1e-10

    def test_discard_probe_roundtrip(self):
        rho = one_param_density(0.6)
        joint = join_with_probe(rho, ProbePrep.EXCITED)
        assert np.max(np.abs(partial_trace(joint, {0, 1}).mat - rho.mat)) < 1e-14

    def test_label_collision_resolved(self):
        joint = join_with_probe(one_param_density(0.75), ProbePrep.GROUND)
        twice = join_with_probe(joint, ProbePrep.GROUND)
        assert len(set(twice.space.labels)) == 4

