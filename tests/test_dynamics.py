import tracemalloc
import warnings

import numpy as np
import pytest

from qprobe.dynamics import (
    DEFAULT_DT,
    MAX_NMAX,
    MAX_REACHABLE,
    MAX_RK4_STEPS,
    MIN_SAMPLE_GAP,
    PROBE_SIGMA_Z,
    ModelConfig,
    ModelVariant,
    NoiseConfig,
    build_hamiltonian,
    dispersive_deviation,
    excitation_number,
    initial_joint,
    integrate_master,
    probe_lowering,
    reachable_entries,
    resonant_closed_form,
    sigma_z_expectation,
)
from qprobe.measures import concurrence, concurrence_time_formula, discord
from qprobe.protocols import boson_pair_to_qubits
from qprobe.qcore import SpectralPropagator, partial_trace
from qprobe.states import ProbePrep, corner_swap, one_param_density

QUBIT = ModelConfig(ModelVariant.RESONANT_QUBIT)
BOSON = ModelConfig(ModelVariant.RESONANT_BOSON, n_max=2)
FULL = ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=10.0)
EXCHANGE = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0)


def evolved_reductions(x, cfg, gt, prep=ProbePrep.GROUND):
    prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(cfg))
    joint = prop.apply(initial_joint(x, cfg, prep), gt / cfg.g)
    return partial_trace(joint, {0, 1}), partial_trace(joint, {2})


class TestModelConfig:
    def test_bad_coupling(self):
        with pytest.raises(ValueError):
            ModelConfig(ModelVariant.RESONANT_QUBIT, g=0.0)

    def test_dispersive_needs_detuning(self):
        with pytest.raises(ValueError):
            ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE)

    def test_boson_truncation_floor(self):
        with pytest.raises(ValueError):
            ModelConfig(ModelVariant.RESONANT_BOSON, n_max=1)

    @pytest.mark.parametrize("variant", [ModelVariant.RESONANT_BOSON, ModelVariant.DISPERSIVE_FULL])
    def test_boson_truncation_cap(self, variant):
        assert ModelConfig(variant, delta=10.0, n_max=MAX_NMAX).n_max == MAX_NMAX
        with pytest.raises(ValueError, match=str(MAX_NMAX)):
            ModelConfig(variant, delta=10.0, n_max=MAX_NMAX + 1)

    @pytest.mark.parametrize("kwargs", [
        dict(variant=ModelVariant.RESONANT_QUBIT, g=float("inf")),
        dict(variant=ModelVariant.RESONANT_QUBIT, g=float("nan")),
        dict(variant=ModelVariant.DISPERSIVE_EFFECTIVE, delta=float("inf")),
        dict(variant=ModelVariant.DISPERSIVE_EFFECTIVE, delta=float("nan")),
    ])
    def test_non_finite_parameters(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ModelConfig(**kwargs)

    def test_exchange_strength(self):
        cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, g=1.0, delta=10.0)
        assert cfg.j_exchange == pytest.approx(0.05)

    def test_dimensions(self):
        assert ModelConfig(ModelVariant.RESONANT_QUBIT).space.dim == 8
        assert ModelConfig(ModelVariant.RESONANT_BOSON, n_max=2).space.dim == 2 * 9
        assert ModelConfig(
            ModelVariant.DISPERSIVE_FULL, delta=20.0, n_max=2
        ).space.dim == 8 * 9
        assert ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0).space.dim == 8


class TestNoiseConfig:
    @pytest.mark.parametrize("rate", [-0.1, float("inf"), float("nan")])
    def test_bad_rates(self, rate):
        op = probe_lowering(QUBIT)
        with pytest.raises(ValueError, match="rates"):
            NoiseConfig(gamma=rate)
        with pytest.raises(ValueError, match="rates"):
            NoiseConfig(collapse_ops=((rate, op),))

    @pytest.mark.parametrize("shape", [(4, 4), (8, 4), (8,)])
    def test_collapse_operator_shape_checked(self, shape):
        noise = NoiseConfig(collapse_ops=((0.1, np.zeros(shape)),))
        with pytest.raises(ValueError, match=r"collapse operator 0 has shape .*\(8, 8\)"):
            noise.resolved_ops(QUBIT)


class TestBuildHamiltonian:
    def test_collective_coupling_element(self):
        h = build_hamiltonian(QUBIT)
        e00 = np.zeros(8)
        e00[0] = 1.0  # |00>|e>
        s_g = np.zeros(8)
        s_g[0 * 4 + 1 * 2 + 1] = 1 / np.sqrt(2)  # |01>|g>
        s_g[1 * 4 + 0 * 2 + 1] = 1 / np.sqrt(2)  # |10>|g>
        assert (e00 @ h @ s_g).real == pytest.approx(1.0, abs=1e-12)

    def test_exchange_pairwise_strength(self):
        cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, g=1.0, delta=10.0)
        h = build_hamiltonian(cfg)
        # <e_A g_B g_C| H |g_A g_B e_C> = J
        bra = np.zeros(8)
        bra[0 * 4 + 1 * 2 + 1] = 1.0
        ket = np.zeros(8)
        ket[1 * 4 + 1 * 2 + 0] = 1.0
        assert (bra @ h @ ket).real == pytest.approx(0.05, abs=1e-14)

    @pytest.mark.parametrize(
        "cfg",
        [
            QUBIT,
            ModelConfig(ModelVariant.RESONANT_BOSON, n_max=2),
            ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=20.0, n_max=2),
            ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0),
        ],
        ids=["res-qubit", "res-boson", "disp-full", "disp-eff"],
    )
    def test_hermitian_and_excitation_conserving(self, cfg):
        h = build_hamiltonian(cfg)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        n = excitation_number(cfg)
        assert np.max(np.abs(h @ n - n @ h)) < 1e-12


class TestResonantClosedForm:
    def test_zero_time(self):
        ab, probe = resonant_closed_form(0.7, 0.0)
        assert np.max(np.abs(ab.mat - one_param_density(0.7).mat)) < 1e-14
        assert probe.mat[1, 1] == pytest.approx(1.0)

    def test_half_period_swap(self):
        ab, probe = resonant_closed_form(0.75, np.pi / 2)
        assert np.max(np.abs(ab.mat - corner_swap(one_param_density(0.75)).mat)) < 1e-14
        assert probe.mat[0, 0] == pytest.approx(0.5)

    def test_concurrence_matches_formula(self):
        for x in (0.5, 0.75, 0.9):
            for gt in np.linspace(0.0, np.pi, 25):
                ab, _ = resonant_closed_form(x, gt)
                assert concurrence(ab) == pytest.approx(
                    concurrence_time_formula(x, gt), abs=1e-10
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            resonant_closed_form(0.4, 1.0)


class TestUnitaryEvolution:
    def test_reproduces_closed_form(self):
        prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(QUBIT))
        for x in (0.5, 0.75, 0.9):
            joint0 = initial_joint(x, QUBIT, ProbePrep.GROUND)
            for gt in np.linspace(0.0, np.pi, 51):
                joint = prop.apply(joint0, gt)
                ab_cf, c_cf = resonant_closed_form(x, gt)
                assert (
                    np.max(np.abs(partial_trace(joint, {0, 1}).mat - ab_cf.mat)) < 1e-9
                )
                assert np.max(np.abs(partial_trace(joint, {2}).mat - c_cf.mat)) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_concurrence_revival_at_half_periods(self, n):
        for x in (0.5, 0.75, 0.9):
            ab, _ = evolved_reductions(x, QUBIT, n * np.pi / 2)
            assert concurrence(ab) == pytest.approx(abs(2 - 3 * x), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 3])
    def test_sigma_z_readout_identity(self, n):
        for x in np.linspace(0.5, 1.0, 11):
            _, probe = evolved_reductions(x, QUBIT, n * np.pi / 2)
            assert sigma_z_expectation(probe) == pytest.approx(3 - 4 * x, abs=1e-9)


class TestIntegrateMaster:
    def test_unitary_limit_matches_closed_form(self):
        res = integrate_master(
            initial_joint(0.75, QUBIT, ProbePrep.GROUND),
            QUBIT,
            NoiseConfig(gamma=0.0),
            np.pi / 2,
        )
        ab_cf, _ = resonant_closed_form(0.75, np.pi / 2)
        assert np.max(np.abs(res.reduced_ab[-1].mat - ab_cf.mat)) < 1e-6

    def test_unitary_limit_matches_spectral_long(self):
        prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(QUBIT))
        joint0 = initial_joint(0.6, QUBIT, ProbePrep.GROUND)
        res = integrate_master(joint0, QUBIT, NoiseConfig(), 10.0)
        expect = prop.apply(joint0, 10.0)
        assert np.max(np.abs(res.joint_states[-1].mat - expect.mat)) < 1e-6

    def test_trace_and_positivity_under_noise(self):
        times = np.linspace(0.1, np.pi / 2, 8)
        res = integrate_master(
            initial_joint(0.9, QUBIT, ProbePrep.GROUND),
            QUBIT,
            NoiseConfig(gamma=0.1),
            np.pi / 2,
            sample_times=times,
        )
        for state in res.joint_states:
            m = state.mat
            assert abs(np.trace(m).real - 1.0) < 1e-8
            assert np.max(np.abs(m - m.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(m)[0] >= -1e-8

    def test_richardson_rejects_coarse_step(self):
        with pytest.raises(ValueError, match="half-step"):
            integrate_master(
                initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                QUBIT,
                NoiseConfig(gamma=0.1),
                2.0,
                dt=0.5,
            )

    def test_richardson_checks_when_dt_exceeds_every_gap(self):
        # the schedule never takes a step of length dt = 0.6, so the
        # check must run on the longest step it does take (0.5)
        with pytest.raises(ValueError, match="half-step"):
            integrate_master(
                initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                QUBIT,
                NoiseConfig(gamma=0.1),
                1.0,
                dt=0.6,
                sample_times=[0.0, 0.5, 1.0],
            )

    @pytest.mark.parametrize("t_end, dt", [
        (float("nan"), DEFAULT_DT),
        (float("inf"), DEFAULT_DT),
        (1.0, float("inf")),
        (1.0, float("nan")),
        (1.0, 0.0),
        (1.0, -1e-3),
    ])
    def test_non_finite_or_non_positive_times_rejected(self, t_end, dt):
        with pytest.raises(ValueError, match="finite"):
            integrate_master(
                initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                QUBIT,
                NoiseConfig(),
                t_end,
                dt=dt,
                sample_times=[0.0],
            )

    def test_step_count_bounded(self):
        with pytest.raises(ValueError, match=str(MAX_RK4_STEPS)):
            integrate_master(
                initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                QUBIT,
                NoiseConfig(),
                1.0,
                dt=1.0 / (2 * MAX_RK4_STEPS),
            )

    @pytest.mark.parametrize("t_end, sample_times", [
        (1e-13, None),
        (1.0, [0.5, 0.5 + 5e-13, 1.0]),
    ], ids=["first-gap", "later-gap"])
    def test_sample_gap_below_floor_rejected(self, t_end, sample_times):
        # the loop takes no step across such a gap, so the run would
        # silently return its input state
        with pytest.raises(ValueError, match=str(MIN_SAMPLE_GAP)):
            integrate_master(
                initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                QUBIT,
                NoiseConfig(gamma=0.1),
                t_end,
                sample_times=sample_times,
            )

    @pytest.mark.parametrize("gamma, sample_times, message", [
        (1e200, None, "half-step"),
        (1.7e308, None, "half-step"),
        # the first step (1e-4) is shorter than the checked one (dt)
        (1e200, [1e-4, 1.0], "trace drift"),
    ], ids=["1e200", "1.7e308", "before-checked-step"])
    def test_overflowing_rate_rejected_without_warning(self, gamma, sample_times, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                integrate_master(
                    initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                    QUBIT,
                    NoiseConfig(gamma=gamma),
                    1.0,
                    sample_times=sample_times,
                )

    def test_space_mismatch_rejected(self):
        cfg_b = ModelConfig(ModelVariant.RESONANT_BOSON, n_max=2)
        with pytest.raises(ValueError):
            integrate_master(
                initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                cfg_b,
                NoiseConfig(),
                1.0,
            )

    def test_noise_increases_discord_at_large_x(self):
        x = 0.9
        res = integrate_master(
            initial_joint(x, QUBIT, ProbePrep.GROUND),
            QUBIT,
            NoiseConfig(gamma=0.1),
            np.pi / 2,
        )
        noisy = discord(res.reduced_ab[-1])
        clean = discord(one_param_density(x))
        assert noisy > clean

    def test_explicit_collapse_operators(self):
        # passing the default operator explicitly reproduces the default path
        op = probe_lowering(QUBIT)
        res_a = integrate_master(
            initial_joint(0.8, QUBIT, ProbePrep.GROUND),
            QUBIT,
            NoiseConfig(gamma=0.1),
            1.0,
        )
        res_b = integrate_master(
            initial_joint(0.8, QUBIT, ProbePrep.GROUND),
            QUBIT,
            NoiseConfig(gamma=0.0, collapse_ops=((0.1, op),)),
            1.0,
        )
        assert np.max(np.abs(res_a.joint_states[-1].mat - res_b.joint_states[-1].mat)) < 1e-12


def dense_rk4_reference(rho0, cfg, noise, t_end, dt=DEFAULT_DT, sample_times=None):
    """Dense-matrix RK4 on the same step schedule as integrate_master.

    This is the integrator the sparse Liouvillian replaced, without its
    checks: seven d x d matrix products per right-hand side.
    """
    h = build_hamiltonian(cfg)
    pairs = [(r, op, op.conj().T, op.conj().T @ op) for r, op in noise.resolved_ops(cfg)]

    def rhs(m):
        out = -1j * (h @ m - m @ h)
        for rate, op, opd, opdop in pairs:
            out += rate * (2.0 * (op @ m @ opd) - opdop @ m - m @ opdop)
        return out

    def rk4_step(m, step):
        k1 = rhs(m)
        k2 = rhs(m + 0.5 * step * k1)
        k3 = rhs(m + 0.5 * step * k2)
        k4 = rhs(m + step * k3)
        m = m + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return 0.5 * (m + m.conj().T)

    mat = np.array(rho0.mat, dtype=complex)
    t = 0.0
    samples = []
    for target in sorted(sample_times if sample_times is not None else (t_end,)):
        if target <= t + 1e-15:
            samples.append(mat)
            continue
        while t < target - 1e-12:
            step = min(dt, target - t)
            mat = rk4_step(mat, step)
            t += step
        t = target
        samples.append(mat)
    return samples


def largest_deviation(res, mats):
    assert len(res.joint_states) == len(mats)
    return max(np.max(np.abs(j.mat - m)) for j, m in zip(res.joint_states, mats))


class TestIntegratorOracle:
    @pytest.mark.parametrize("cfg, noise, t_end, sample_times", [
        (QUBIT, NoiseConfig(gamma=0.1), np.pi / 2, None),
        (BOSON, NoiseConfig(gamma=0.1), 2.0, np.linspace(0.0, 2.0, 21)),
        (FULL, NoiseConfig(gamma=0.1), 0.5, None),
        (QUBIT, NoiseConfig(collapse_ops=(
            (0.05, probe_lowering(QUBIT)),
            (0.02, np.kron(np.eye(4), PROBE_SIGMA_Z)),
        )), 1.0, None),
        (QUBIT, NoiseConfig(collapse_ops=(
            # complex L with complex L+L: tells L from conj(L) and L+L from its transpose
            (0.03, np.kron(np.eye(4), np.array([[1.0, 1j], [0.0, 0.0]]))),
        )), 1.0, None),
    ], ids=["secii-qubit", "secii-boson", "seciii-full", "two-collapse-ops",
            "complex-collapse-op"])
    def test_matches_dense_rk4(self, cfg, noise, t_end, sample_times):
        rho0 = initial_joint(0.75, cfg, ProbePrep.GROUND)
        res = integrate_master(rho0, cfg, noise, t_end, sample_times=sample_times)
        ref = dense_rk4_reference(rho0, cfg, noise, t_end, sample_times=sample_times)
        assert largest_deviation(res, ref) < 1e-13

    @pytest.mark.parametrize("cfg, t_end", [(QUBIT, np.pi / 2), (BOSON, 2.0), (EXCHANGE, 5.0)],
                             ids=["secii-qubit", "secii-boson", "seciii-eff"])
    def test_noiseless_matches_spectral(self, cfg, t_end):
        rho0 = initial_joint(0.75, cfg, ProbePrep.GROUND)
        times = np.linspace(0.0, t_end, 5)
        res = integrate_master(rho0, cfg, NoiseConfig(), t_end, sample_times=times)
        prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(cfg))
        assert largest_deviation(res, [prop.apply_mat(rho0.mat, t) for t in times]) < 1e-10

    def test_no_dense_liouvillian(self):
        # a dense d^2 x d^2 generator at d = 72 would take 430 MB
        d = FULL.space.dim
        rho0 = initial_joint(0.75, FULL, ProbePrep.GROUND)
        tracemalloc.start()
        try:
            integrate_master(rho0, FULL, NoiseConfig(gamma=0.1), 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * d ** 4 / 10


def reachable_count(cfg, noise, prep=ProbePrep.GROUND):
    rho0 = initial_joint(0.75, cfg, prep)
    return reachable_entries(rho0.mat, build_hamiltonian(cfg), noise.resolved_ops(cfg)).size


class TestReachableEntries:
    @pytest.mark.parametrize("cfg, prep, size", [
        (QUBIT, ProbePrep.GROUND, 19),
        (BOSON, ProbePrep.GROUND, 35),
        (FULL, ProbePrep.GROUND, 26),
        (FULL, ProbePrep.EXCITED, 170),
    ], ids=["secii-qubit", "secii-boson", "seciii-full-ground", "seciii-full-excited"])
    def test_probe_decay_sizes(self, cfg, prep, size):
        assert reachable_count(cfg, NoiseConfig(gamma=0.1), prep) == size

    def test_size_does_not_grow_with_truncation(self):
        # the step cost stays that of 35 entries, whatever n_max
        sizes = [reachable_count(ModelConfig(ModelVariant.RESONANT_BOSON, n_max=n),
                                 NoiseConfig(gamma=0.1)) for n in (2, MAX_NMAX)]
        assert sizes == [35, 35]

    def test_sector_breaking_operator_enlarges_the_set(self):
        op = np.kron(np.eye(4), np.array([[1.0, 1j], [0.0, 0.0]]))
        size = reachable_count(QUBIT, NoiseConfig(collapse_ops=((0.03, op),)))
        assert 19 < size <= 64

    def test_largest_set_matches_dense_rk4(self):
        # the excited probe reaches the most entries (170): none may be missed
        rho0 = initial_joint(0.75, FULL, ProbePrep.EXCITED)
        noise = NoiseConfig(gamma=0.1)
        times = [0.01, 0.05]
        res = integrate_master(rho0, FULL, noise, 0.05, sample_times=times)
        ref = dense_rk4_reference(rho0, FULL, noise, 0.05, sample_times=times)
        assert largest_deviation(res, ref) < 1e-13

    def test_dense_collapse_operator_rejected_before_any_generator(self):
        # evolving all 5184 entries at d = 72 would need a 430 MB generator
        op = np.full((FULL.space.dim,) * 2, 0.1 + 0.05j)
        noise = NoiseConfig(collapse_ops=((0.1, op),))
        rho0 = initial_joint(0.75, FULL, ProbePrep.GROUND)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(MAX_REACHABLE)):
                integrate_master(rho0, FULL, noise, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below a quarter of one generator at the cap
        assert peak < 16 * MAX_REACHABLE ** 2 / 4


class TestBosonModel:
    def test_two_level_embedding_round_trip(self):
        cfg = ModelConfig(ModelVariant.RESONANT_BOSON, n_max=3)
        for x in (0.5, 0.75, 1.0):
            ab = partial_trace(initial_joint(x, cfg, ProbePrep.GROUND), {0, 1})
            assert np.allclose(boson_pair_to_qubits(ab).mat,
                               one_param_density(x).mat, rtol=0.0, atol=1e-15)

    def test_excitation_conserved(self):
        cfg = ModelConfig(ModelVariant.RESONANT_BOSON, n_max=2)
        prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(cfg))
        joint0 = initial_joint(0.75, cfg, ProbePrep.GROUND)
        n_op = excitation_number(cfg)
        e0 = np.trace(n_op @ joint0.mat).real
        for t in np.linspace(0.0, 10.0, 21):
            et = np.trace(n_op @ prop.apply(joint0, t).mat).real
            assert abs(et - e0) < 1e-9

    def test_two_level_truncation_is_load_bearing(self):
        # with true bosonic modes the double-occupancy component leaks
        # into two-photon states and the probe law breaks down by O(0.1)
        cfg = ModelConfig(ModelVariant.RESONANT_BOSON, n_max=2)
        prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(cfg))
        joint0 = initial_joint(0.75, cfg, ProbePrep.GROUND)
        worst = 0.0
        for gt in np.linspace(0.0, np.pi, 41):
            probe = partial_trace(prop.apply(joint0, gt), {2})
            pe = float(probe.mat[0, 0].real)
            worst = max(worst, abs(pe - 2 * 0.25 * np.sin(gt) ** 2))
        assert worst > 0.05


class TestDispersiveDeviation:
    def test_within_bound_at_twenty(self):
        assert dispersive_deviation(0.75, 20.0) <= 0.05

    def test_shrinks_with_detuning(self):
        d20 = dispersive_deviation(0.75, 20.0)
        d40 = dispersive_deviation(0.75, 40.0)
        assert d40 < d20

    def test_requires_large_detuning(self):
        with pytest.raises(ValueError):
            dispersive_deviation(0.75, 3.0)
