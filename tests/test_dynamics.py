import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from qprobe.dynamics import (
    ATOM_LOWER,
    ATOM_NUMBER,
    ATOM_RAISE,
    DEFAULT_DT,
    MAX_REACHABLE,
    MAX_T_END,
    MIN_SAMPLE_GAP,
    PLANS,
    SCHEDULE_ROUNDING,
    PROBE_SIGMA_Z,
    TWO_LEVEL_INDEX,
    EvolutionResult,
    ModelConfig,
    ModelVariant,
    NoiseConfig,
    _Expm,
    _PropagationPlan,
    _propagation_plan,
    _embed,
    _restricted_generator,
    boson_lower,
    build_hamiltonian,
    clear_model_store,
    dispersive_deviation,
    initial_joint,
    initial_joint_from_pair,
    initial_joint_matrices,
    integrate_master,
    probe_lowering,
    reachable_entries,
    resonant_closed_form,
    sigma_z_stack,
)
from qprobe.measures import concurrence, concurrence_time_formula, discord
from qprobe.protocols import boson_pair_to_qubits
from qprobe.qcore import (
    DensityMatrix,
    SpectralPropagator,
    partial_trace,
    partial_trace_mat,
    reduced_entry_stack,
)
from qprobe.states import ProbePrep, corner_swap, one_param_density, two_qubit_space

QUBIT = ModelConfig(ModelVariant.RESONANT_QUBIT)
BOSON = ModelConfig(ModelVariant.RESONANT_BOSON)
FULL = ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=10.0)
EXCHANGE = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0)


def excitation_number(cfg):
    """Total excitation operator (atomic populations plus photon numbers)."""
    dims = cfg.space.dims
    total = np.zeros((cfg.space.dim,) * 2, dtype=complex)
    resonant = cfg.variant in (ModelVariant.RESONANT_QUBIT, ModelVariant.RESONANT_BOSON)
    for k, d in enumerate(dims):
        # cavity modes (A and B themselves in the resonant models) count photons
        if cfg.space.labels[k].startswith("cav") or (resonant and k < 2):
            a = boson_lower(d)
            total += _embed({k: a.conj().T @ a}, dims)
        else:
            total += _embed({k: ATOM_NUMBER}, dims)
    return total


def evolved_reductions(x, cfg, gt, prep=ProbePrep.GROUND):
    prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(cfg))
    joint = prop.apply(initial_joint(x, cfg, prep), gt)
    return partial_trace(joint, {0, 1}), partial_trace(joint, {2})


class TestModelConfig:
    def test_dispersive_needs_detuning(self):
        with pytest.raises(ValueError):
            ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE)

    @pytest.mark.parametrize("kwargs", [
        dict(variant=ModelVariant.DISPERSIVE_FULL, delta=float("inf")),
        dict(variant=ModelVariant.DISPERSIVE_FULL, delta=float("nan")),
        dict(variant=ModelVariant.DISPERSIVE_EFFECTIVE, delta=float("inf")),
        dict(variant=ModelVariant.DISPERSIVE_EFFECTIVE, delta=float("nan")),
    ])
    def test_non_finite_parameters(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ModelConfig(**kwargs)

    def test_exchange_strength(self):
        cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0)
        assert cfg.j_exchange == pytest.approx(0.05)

    @pytest.mark.parametrize("delta", [5e-324, 1e-310, 6e307, 1e308])
    def test_detuning_without_finite_exchange_rejected(self, delta):
        # J = 1/(2 delta) overflows to inf, its period pi/J overflows, or
        # 2 delta overflows and J comes out 0
        for variant in (ModelVariant.DISPERSIVE_EFFECTIVE, ModelVariant.DISPERSIVE_FULL):
            with pytest.raises(ValueError, match=re.escape(f"detuning {delta!r} leaves")):
                ModelConfig(variant, delta=delta)

    @pytest.mark.parametrize("variant", [ModelVariant.RESONANT_QUBIT,
                                         ModelVariant.RESONANT_BOSON])
    def test_resonant_variants_take_no_detuning(self, variant):
        with pytest.raises(ValueError, match="takes no detuning"):
            ModelConfig(variant, delta=3.0)

    def test_dimensions(self):
        assert ModelConfig(ModelVariant.RESONANT_QUBIT).space.dim == 8
        assert ModelConfig(ModelVariant.RESONANT_BOSON).space.dim == 2 * 9
        assert ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=20.0).space.dim == 8 * 9
        assert ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0).space.dim == 8

    @pytest.mark.parametrize("cfg, dims, dim", [
        (QUBIT, (2, 2, 2), 8),
        (BOSON, (3, 3, 2), 18),
        (FULL, (2, 2, 2, 3, 3), 72),
        (EXCHANGE, (2, 2, 2), 8),
    ], ids=["secii-qubit", "secii-boson", "seciii-full", "seciii-eff"])
    def test_space_built_once(self, cfg, dims, dim):
        assert cfg.space is cfg.space
        assert cfg.space.dims == dims and cfg.space.dim == dim
        assert type(cfg.space.dim) is int


class TestNoiseConfig:
    @pytest.mark.parametrize("rate", [-0.1, float("inf"), float("nan")])
    def test_bad_rates(self, rate):
        with pytest.raises(ValueError, match="rates"):
            NoiseConfig(gamma=rate)

    def test_probe_decay_is_the_one_dissipator(self):
        with pytest.raises(TypeError):
            NoiseConfig(collapse_ops=((0.1, probe_lowering(QUBIT)),))
        [(rate, op)] = NoiseConfig(gamma=0.1).resolved_ops(QUBIT)
        assert rate == 0.1 and op is QUBIT.probe_sigma_minus
        assert NoiseConfig().resolved_ops(QUBIT) == []

    def test_config_is_a_value(self):
        a, b = NoiseConfig(gamma=0.1), NoiseConfig(gamma=float("0.1"))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1
        assert a != NoiseConfig(gamma=0.2)


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
        cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0)
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
            ModelConfig(ModelVariant.RESONANT_BOSON),
            ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=20.0),
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
            assert sigma_z_stack(probe.mat[None])[0] == pytest.approx(3 - 4 * x, abs=1e-9)


def test_sigma_z_is_the_trace_with_sigma_z_bit_for_bit():
    # the population difference against tr(rho sigma_z) as a matrix product
    # and a trace, on seeded probe states with zero (of either sign) and
    # equal populations and rounding on the diagonal: equal values, and
    # equal signs of zero
    rng = np.random.default_rng(3)
    n = 100_000
    kind = rng.integers(6, size=n)
    p_e = rng.uniform(size=n)
    p_e = np.select([kind == 1, kind == 2, kind == 4], [0.0, 0.5, -0.0], p_e)
    p_g = np.select([kind == 2, kind == 3, kind == 4], [0.5, 0.0, -0.0], 1.0 - p_e)
    mats = np.zeros((n, 2, 2), dtype=complex)
    mats[:, 0, 0] = p_e + 1j * np.where(kind == 5, rng.normal(scale=1e-17, size=n), 0.0)
    mats[:, 1, 1] = p_g
    mats[:, 0, 1] = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    mats[:, 1, 0] = mats[:, 0, 1].conj()
    got = sigma_z_stack(mats)
    want = np.real(np.trace(mats @ PROBE_SIGMA_Z, axis1=1, axis2=2))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.count_nonzero(got == 0.0) > n // 4


class TestIntegrateMaster:
    def test_unitary_limit_matches_closed_form(self):
        res = integrate_master(
            initial_joint(0.75, QUBIT, ProbePrep.GROUND),
            QUBIT,
            NoiseConfig(gamma=0.0),
            np.pi / 2,
        )
        ab_cf, _ = resonant_closed_form(0.75, np.pi / 2)
        assert np.max(np.abs(res.readout()[0][-1] - ab_cf.mat)) < 1e-6

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

    @pytest.mark.parametrize("t_end, dt", [
        (float("nan"), DEFAULT_DT),
        (float("inf"), DEFAULT_DT),
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

    @pytest.mark.parametrize("dt", [5e-4, 2e-3, float("inf"), float("nan"), 0.0, -1e-3])
    def test_step_is_not_an_option(self, dt):
        with pytest.raises(ValueError, match="the step is not an option"):
            integrate_master(
                initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                QUBIT,
                NoiseConfig(gamma=0.1),
                1.0,
                dt=dt,
            )

    def test_time_bounded(self):
        rho0 = initial_joint(0.75, QUBIT, ProbePrep.GROUND)
        with pytest.raises(ValueError, match=f"t_end exceeds {MAX_T_END:g}"):
            integrate_master(rho0, QUBIT, NoiseConfig(), np.nextafter(MAX_T_END, np.inf))
        res = integrate_master(rho0, QUBIT, NoiseConfig(gamma=0.1), MAX_T_END)
        assert res.times == (MAX_T_END,)

    def test_sample_times_sorted_into_a_tuple_of_floats(self):
        rho0 = initial_joint(0.75, QUBIT, ProbePrep.GROUND)
        noise = NoiseConfig(gamma=0.1)
        res = integrate_master(rho0, QUBIT, noise, 1.0, sample_times=[1, 0.25, 0.0, 0.5])
        assert res.times == (0.0, 0.25, 0.5, 1.0)
        assert all(type(t) is float for t in res.times)
        ref = integrate_master(rho0, QUBIT, noise, 1.0,
                               sample_times=np.array([0.0, 0.25, 0.5, 1.0]))
        assert ref.times == res.times and np.array_equal(ref.entries, res.entries)

    @pytest.mark.parametrize("sample_times", [0.5, [[0.5, 1.0]]], ids=["scalar", "nested"])
    def test_sample_times_must_be_a_sequence_of_numbers(self, sample_times):
        with pytest.raises(TypeError, match="sequence of numbers"):
            integrate_master(initial_joint(0.75, QUBIT, ProbePrep.GROUND), QUBIT,
                             NoiseConfig(gamma=0.1), 1.0, sample_times=sample_times)

    @pytest.mark.parametrize("sample_times", [[], (), np.empty(0)], ids=["list", "tuple", "array"])
    def test_empty_schedule_rejected_before_any_plan(self, built_plans, sample_times):
        with pytest.raises(ValueError, match="at least one time"):
            integrate_master(initial_joint(0.75, QUBIT, ProbePrep.GROUND), QUBIT,
                             NoiseConfig(gamma=0.1), 1.0, sample_times=sample_times)
        assert built_plans == []

    @pytest.mark.parametrize("t_end, sample_times", [
        (1e-13, None),
        (1.0, [0.5, 0.5 + 5e-13, 1.0]),
        (5.0, [5.0, 5.0]),
        (1.0, [0.0, 0.0, 1.0]),
    ], ids=["first-gap", "later-gap", "duplicate", "duplicate-zero"])
    def test_sample_gap_below_floor_rejected(self, t_end, sample_times):
        # such a gap is below the sample times' own 1e-12 slack; a
        # duplicate time is caught here, before any propagation, and not
        # after the run by EvolutionResult
        with pytest.raises(ValueError, match=str(MIN_SAMPLE_GAP)):
            integrate_master(
                initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                QUBIT,
                NoiseConfig(gamma=0.1),
                t_end,
                sample_times=sample_times,
            )

    @pytest.mark.parametrize("sample_times", [
        [-0.5, 1.0], [0.5, 1.5], [float("nan")], [0.5, float("nan")], [0.2, float("nan"), 0.7],
    ], ids=["negative", "past-t_end", "nan", "nan-last", "nan-between"])
    def test_sample_times_outside_the_run_rejected(self, sample_times):
        # a NaN time must not pass as time 0 or break the schedule's order
        with pytest.raises(ValueError, match=re.escape("sample times must lie in [0, t_end]")):
            integrate_master(
                initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                QUBIT,
                NoiseConfig(gamma=0.1),
                1.0,
                sample_times=sample_times,
            )

    @pytest.mark.parametrize("cfg, gamma, sample_times", [
        (QUBIT, 1e200, None),
        (QUBIT, 1.7e308, None),
        # a short first gap fails the same way as a long one
        (QUBIT, 1e200, [1e-4, 1.0]),
        # finite throughout, but the trace drifts past the state check's bound
        (QUBIT, 1e6, None),
        # no noise: the detuning alone is too large to propagate
        (ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=1e9), 0.0, None),
    ], ids=["1e200", "1.7e308", "before-checked-step", "1e6", "seciii-full-delta-1e9"])
    def test_overflowing_rate_rejected_without_warning(self, cfg, gamma, sample_times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                integrate_master(
                    initial_joint(0.75, cfg, ProbePrep.GROUND),
                    cfg,
                    NoiseConfig(gamma=gamma),
                    1.0,
                    sample_times=sample_times,
                )
        # there is no step to shorten, so the message names the generator:
        # a decay rate, or a Hamiltonian term such as a large detuning
        assert str(exc.value) == (
            "trace drift exceeded tolerance: generator too large to propagate "
            "(a decay rate or a Hamiltonian term such as the detuning)")

    def test_drift_at_one_middle_sample_rejected(self, monkeypatch, built_plans):
        # the trace is checked over every sample once propagation ends:
        # a map scaled past the bound for the middle gap only, and scaled
        # back by the next gap's map, still fails the run
        cfg = ModelConfig(ModelVariant.RESONANT_QUBIT)
        rho0 = initial_joint(0.75, cfg, ProbePrep.GROUND)
        noise = NoiseConfig(gamma=0.1)
        times = [0.25, 0.5, 1.0, 1.75, 2.0]  # gaps 0.25, 0.25, 0.5, 0.75, 0.25
        integrate_master(rho0, cfg, noise, 2.0, sample_times=times)
        [plan] = built_plans
        gap_map, scale = plan.gap_map, {0.5: 1.0 + 2e-10, 0.75: 1.0 / (1.0 + 2e-10)}
        monkeypatch.setattr(plan, "gap_map", lambda gap: gap_map(gap) * scale.get(gap, 1.0))
        # an equal config takes the same kept plan
        cfg = ModelConfig(ModelVariant.RESONANT_QUBIT)
        res = integrate_master(rho0, cfg, noise, 1.0, sample_times=times[:2])
        assert built_plans == [plan] and len(res.times) == 2
        with pytest.raises(ValueError, match="trace drift"):
            integrate_master(rho0, cfg, noise, 2.0, sample_times=times)

    def test_space_mismatch_rejected(self):
        with pytest.raises(ValueError):
            integrate_master(
                initial_joint(0.75, QUBIT, ProbePrep.GROUND),
                BOSON,
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
        noisy = discord(DensityMatrix(two_qubit_space(), res.readout()[0][-1]))
        clean = discord(one_param_density(x))
        assert noisy > clean


def dense_generator(h, ops, codes):
    """The master equation's generator on the entries ``codes``, from the dense equation.

    Column q is the right-hand side, seven d x d matrix products per
    collapse operator, applied to the matrix unit at the entry q; each
    column is checked to stay on ``codes``, so the restriction is exact.
    """
    pairs = [(r, op, op.conj().T, op.conj().T @ op) for r, op in ops]

    def rhs(m):
        out = -1j * (h @ m - m @ h)
        for rate, op, opd, opdop in pairs:
            out += rate * (2.0 * (op @ m @ opd) - opdop @ m - m @ opdop)
        return out

    d = h.shape[0]
    columns = []
    for q in codes:
        unit = np.zeros(d * d, dtype=complex)
        unit[q] = 1.0
        column = rhs(unit.reshape(d, d)).ravel()
        assert np.count_nonzero(column) == np.count_nonzero(column[codes])
        columns.append(column[codes])
    return np.array(columns).T


def expm_reference(rho0, cfg, noise, t_end, sample_times=None):
    """exp(G t) applied to rho0 with scipy, G built from the dense master equation.

    G is ``dense_generator`` on the reachable entries.  Each sample's
    image is scipy's ``expm_multiply`` (truncated Taylor series, Al-Mohy
    & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), a method independent
    of the Pade approximant under test.
    """
    h = build_hamiltonian(cfg)
    ops = noise.resolved_ops(cfg)
    d = h.shape[0]
    codes = reachable_entries(rho0.mat, h, ops)
    gen = dense_generator(h, ops, codes)
    vec0 = rho0.mat.ravel()[codes]
    samples = []
    for t in sorted(sample_times if sample_times is not None else (t_end,)):
        full = np.zeros(d * d, dtype=complex)
        full[codes] = expm_multiply(t * gen, vec0)
        samples.append(full.reshape(d, d))
    return samples


class TestRestrictedGenerator:
    """``_restricted_generator`` takes any list of collapse operators; the package passes one."""

    @pytest.mark.parametrize("ops", [
        [(0.05, probe_lowering(QUBIT)), (0.02, np.kron(np.eye(4), PROBE_SIGMA_Z))],
        # complex L with complex L+L: tells L from conj(L) and L+L from its transpose
        [(0.03, np.kron(np.eye(4), np.array([[1.0, 1j], [0.0, 0.0]])))],
    ], ids=["two-collapse-ops", "complex-collapse-op"])
    def test_matches_dense_master_equation(self, ops):
        rho0 = initial_joint(0.75, QUBIT, ProbePrep.GROUND).mat
        h = build_hamiltonian(QUBIT)
        codes = reachable_entries(rho0, h, ops)
        gen = _restricted_generator(h, ops, codes)
        dense = dense_generator(h, ops, codes)
        assert np.max(np.abs(gen - dense)) < 1e-15
        vec0 = rho0.ravel()[codes]
        assert np.max(np.abs(_Expm(gen)(1.0) @ vec0 - expm_multiply(dense, vec0))) < 1e-13


def largest_deviation(res, mats):
    assert len(res.joint_states) == len(mats)
    return max(np.max(np.abs(j.mat - m)) for j, m in zip(res.joint_states, mats))


@pytest.fixture
def formed(monkeypatch, cold_store):
    """The gap of every exponential ``_Expm`` forms from an empty model store on, in order."""
    gaps, call = [], _Expm.__call__
    monkeypatch.setattr(_Expm, "__call__", lambda self, t: gaps.append(t) or call(self, t))
    return gaps


class TestIntegratorOracle:
    @pytest.mark.parametrize("cfg, noise, t_end, sample_times, bound", [
        (QUBIT, NoiseConfig(gamma=0.1), np.pi / 2, None, 1e-13),
        (BOSON, NoiseConfig(gamma=0.1), 2.0, np.linspace(0.0, 2.0, 21), 1e-13),
        (FULL, NoiseConfig(gamma=0.1), 0.5, None, 1e-13),
        # the evolve-boson schedule: 200 gaps of 0.05, some a few ulps off
        (BOSON, NoiseConfig(gamma=0.1), 10.0, np.linspace(0.0, 10.0, 201), 1e-12),
        # uneven gaps, some of them far shorter than the rest
        (QUBIT, NoiseConfig(gamma=0.1), 1.3, [0.0, 0.0123, 0.5, 0.5004, 1.3], 1e-13),
        (FULL, NoiseConfig(gamma=0.1), 0.5, [0.0007, 0.25, 0.3333, 0.5], 1e-13),
        # uniform schedules of 1, 15, 16 (BLOCK mat-vecs) and 32 (one block product) gaps
        (QUBIT, NoiseConfig(gamma=0.1), 3.0, np.linspace(0.0, 3.0, 2), 1e-13),
        (QUBIT, NoiseConfig(gamma=0.1), 3.0, np.linspace(0.0, 3.0, 16), 1e-13),
        (QUBIT, NoiseConfig(gamma=0.1), 3.0, np.linspace(0.0, 3.0, 17), 1e-13),
        (QUBIT, NoiseConfig(gamma=0.1), 3.0, np.linspace(0.0, 3.0, 33), 1e-13),
        # a lead gap of 0.3, then 34 gaps of 2.7 / 34: stepped gap by gap
        (BOSON, NoiseConfig(gamma=0.1), 3.0, np.linspace(0.3, 3.0, 35), 1e-13),
        # 20 equal gaps, then an irregular tail: stepped gap by gap
        (QUBIT, NoiseConfig(gamma=0.1), 2.0,
         [*np.linspace(0.0, 1.0, 21), 1.013, 1.5, 1.52, 2.0], 1e-13),
    ], ids=["secii-qubit", "secii-boson", "seciii-full", "secii-boson-evolve-schedule",
            "secii-qubit-uneven", "seciii-full-uneven", "uniform-2", "uniform-16",
            "uniform-17", "uniform-33", "uniform-after-lead-gap", "uniform-then-irregular"])
    def test_matches_dense_rk4(self, cfg, noise, t_end, sample_times, bound):
        rho0 = initial_joint(0.75, cfg, ProbePrep.GROUND)
        res = integrate_master(rho0, cfg, noise, t_end, sample_times=sample_times)
        ref = expm_reference(rho0, cfg, noise, t_end, sample_times=sample_times)
        assert largest_deviation(res, ref) < bound

    def test_longest_cli_schedule_at_block_edges(self):
        # evolve's longest schedule: one run of 10000 gaps of exactly 1.0
        rho0 = initial_joint(0.75, QUBIT, ProbePrep.GROUND)
        noise = NoiseConfig(gamma=0.1)
        times = np.linspace(0.0, MAX_T_END, 10001)
        res = integrate_master(rho0, QUBIT, noise, MAX_T_END, sample_times=times)
        picked = [1, 16, 17, 32, 33, 5000, 10000]
        ref = expm_reference(rho0, QUBIT, noise, MAX_T_END, sample_times=times[picked])
        d = QUBIT.space.dim
        got = np.zeros((len(picked), d * d), dtype=complex)
        got[:, res.codes] = res.entries[picked]
        assert np.max(np.abs(got.reshape(-1, d, d) - np.array(ref))) < 1e-12

    @pytest.mark.parametrize("gamma", [500.0, 1e4])
    def test_stiff_rate_matches_expm(self, gamma):
        # the probe's excitation decays long before the readout at pi/2
        rho0 = initial_joint(0.75, QUBIT, ProbePrep.GROUND)
        noise = NoiseConfig(gamma=gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = integrate_master(rho0, QUBIT, noise, np.pi / 2)
            ref = expm_reference(rho0, QUBIT, noise, np.pi / 2)
        assert largest_deviation(res, ref) < 1e-11
        assert abs(np.trace(res.joint_states[-1].mat).real - 1.0) < 1e-11

    @pytest.mark.parametrize("cfg, t_end", [(QUBIT, np.pi / 2), (BOSON, 2.0), (EXCHANGE, 5.0)],
                             ids=["secii-qubit", "secii-boson", "seciii-eff"])
    def test_noiseless_matches_spectral(self, cfg, t_end):
        rho0 = initial_joint(0.75, cfg, ProbePrep.GROUND)
        times = np.linspace(0.0, t_end, 5)
        res = integrate_master(rho0, cfg, NoiseConfig(), t_end, sample_times=times)
        prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(cfg))
        assert largest_deviation(res, [prop.apply_mat(rho0.mat, t) for t in times]) < 1e-10

    @pytest.mark.parametrize("t_end, sample_times, uniform_gap", [
        # the evolve-boson schedule: its 200 gaps of 0.05 take 9 distinct
        # values in their last bits, but its times lie on one progression
        (10.0, np.linspace(0.0, 10.0, 201), 0.05),
        # evolve's longest schedule
        (MAX_T_END, np.linspace(0.0, MAX_T_END, 10001), 1.0),
        # three distinct gaps, two of them repeated out of order
        (1.25, [0.125, 0.375, 0.5, 0.75, 0.875, 1.25], None),
    ], ids=["linspace", "longest", "alternating"])
    def test_one_map_per_distinct_gap(self, formed, t_end, sample_times, uniform_gap):
        cfg = ModelConfig(ModelVariant.RESONANT_QUBIT)
        rho0 = initial_joint(0.75, cfg, ProbePrep.GROUND)
        integrate_master(rho0, cfg, NoiseConfig(gamma=0.1), t_end, sample_times=sample_times)
        if uniform_gap is not None:
            # a uniform schedule: one exponential, at its first gap
            assert formed == [uniform_gap]
        else:
            gaps = list(np.diff([0.0, *sample_times]))
            # one exponential per distinct gap, kept as a matrix for its later uses
            assert formed == [gap for gap in dict.fromkeys(gaps) if gap]

    def test_irregular_schedule_keeps_its_raw_gaps(self, formed):
        # gaps of 0.1, 0.2 and 0.3 (over 3) in random order: each gap is a
        # step by its raw value, and raw values recur bit for bit, so at most
        # one map forms per distinct raw gap (34), not one per step (10000)
        times = np.cumsum(np.random.default_rng(0).choice([0.1, 0.2, 0.3], 10000)) / 3
        raw = set(np.diff(np.concatenate([[0.0], times])).tolist())
        assert len(raw) == 34
        cfg = ModelConfig(ModelVariant.RESONANT_QUBIT)
        integrate_master(initial_joint(0.75, cfg, ProbePrep.GROUND), cfg, NoiseConfig(0.1),
                         times[-1], sample_times=times)
        assert len(formed) <= 34 and set(formed) <= raw

    @pytest.mark.parametrize("t_end", [0.3, 1.0, 7.77, 10.0, 123.456, MAX_T_END])
    @pytest.mark.parametrize("samples", [2, 3, 201, 10001])
    def test_linspace_steps_by_its_mean_gap(self, formed, t_end, samples):
        # evolve's schedule is uniform, and its first gap, the step, is its
        # mean gap bit for bit, so every evolve output stays as it was
        points = np.linspace(0.0, t_end, samples)
        mean = (points[-1] - points[0]) / (samples - 1)
        assert points[1] - points[0] == mean
        integrate_master(initial_joint(0.75, QUBIT, ProbePrep.GROUND), QUBIT,
                         NoiseConfig(gamma=0.1), t_end, sample_times=points)
        assert formed == [mean]

    def test_drifting_schedule_steps_gap_by_gap(self, formed):
        # each gap 0.4 tol longer than the last: neighbours agree within
        # tol, but the times leave the first gap's progression after a few
        t_end = 10.5
        tol = SCHEDULE_ROUNDING * t_end
        times = np.cumsum(0.05 + 0.4 * tol * np.arange(200))
        assert times[-1] <= t_end and abs(times[2] - 3 * times[0]) > tol
        raw = np.diff(np.concatenate([[0.0], times])).tolist()
        rho0 = initial_joint(0.75, QUBIT, ProbePrep.GROUND)
        noise = NoiseConfig(gamma=0.1)
        res = integrate_master(rho0, QUBIT, noise, t_end, sample_times=times)
        # one map per distinct raw gap, in the order the gaps come
        assert formed == list(dict.fromkeys(raw)) and len(formed) > 20
        ref = expm_reference(rho0, QUBIT, noise, t_end, sample_times=times)
        assert largest_deviation(res, ref) < 1e-12

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


@pytest.fixture
def built_plans(monkeypatch, cold_store):
    """Every propagation plan built from an empty model store on, in order."""
    built, init = [], _PropagationPlan.__init__

    def counted(plan, *args):
        built.append(plan)
        init(plan, *args)

    monkeypatch.setattr(_PropagationPlan, "__init__", counted)
    return built


def cold_entries(rho0, cfg, noise, t_end, **kwargs):
    """``integrate_master``'s entries from an empty model store: every plan and map built anew."""
    clear_model_store()
    return integrate_master(rho0, cfg, noise, t_end, **kwargs).entries


class TestPropagationPlan:
    def test_random_schedule_matches_a_fresh_config(self):
        # random sample times: every gap has its own map
        times = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 40))
        rho0 = initial_joint(0.75, FULL, ProbePrep.EXCITED)
        noise = NoiseConfig(gamma=0.1)
        shared = ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=10.0)
        fresh = cold_entries(rho0, ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=10.0),
                             noise, 1.0, sample_times=times)
        clear_model_store()
        integrate_master(rho0, shared, noise, 1.0, sample_times=times[:10])
        first = integrate_master(rho0, shared, noise, 1.0, sample_times=times)
        assert np.array_equal(first.entries, fresh)

    def test_equal_configs_and_rates_share_the_plan(self, built_plans):
        # every call builds its config, rate and initial state anew
        results = []
        for gamma in (0.1, float("0.1"), np.float64(0.1)):
            cfg = ModelConfig(ModelVariant.RESONANT_QUBIT)
            rho0 = initial_joint(0.8, cfg, ProbePrep.GROUND)
            results.append(integrate_master(rho0, cfg, NoiseConfig(gamma=gamma), 1.0))
        assert len(built_plans) == 1
        assert _propagation_plan.cache_info().currsize == 1
        for res in results[1:]:
            assert np.array_equal(res.entries, results[0].entries)
            assert np.array_equal(res.codes, results[0].codes)

    def test_store_keeps_the_latest_plans(self, built_plans):
        # one plan per rate; past PLANS rates the store holds PLANS plans,
        # least recently used out first, and every result is a cold one
        rho0 = initial_joint(0.8, QUBIT, ProbePrep.GROUND)
        gammas = np.linspace(0.0, 0.5, 12)
        fresh = [cold_entries(rho0, ModelConfig(ModelVariant.RESONANT_QUBIT),
                              NoiseConfig(gamma=gamma), 1.0) for gamma in gammas]
        clear_model_store()
        built_plans.clear()

        def run(k):
            # a new config per call, as a library loop builds them
            res = integrate_master(rho0, ModelConfig(ModelVariant.RESONANT_QUBIT),
                                   NoiseConfig(gamma=gammas[k]), 1.0)
            assert np.array_equal(res.entries, fresh[k])

        for k in range(len(gammas)):
            run(k)
        assert len(built_plans) == len(gammas)
        assert _propagation_plan.cache_info().currsize == PLANS
        # the last PLANS rates are kept: the oldest of them is used again,
        # so the next new rate drops the second oldest
        kept = list(range(len(gammas) - PLANS, len(gammas)))
        for k in kept:
            run(k)
        run(kept[0])
        run(0)
        assert len(built_plans) == len(gammas) + 1
        run(kept[0])
        run(kept[1])
        assert len(built_plans) == len(gammas) + 2
        assert _propagation_plan.cache_info().currsize == PLANS

    def test_pattern_is_part_of_the_key(self, monkeypatch):
        noise = NoiseConfig(gamma=0.1)
        # x = 2/3 zeroes the family's coherence and x = 1 its |11> population
        runs = [initial_joint(x, QUBIT, ProbePrep.GROUND)
                for x in [0.75, 0.6, 2 / 3, 1.0, 1.0, 0.75]]
        fresh = [cold_entries(rho0, ModelConfig(ModelVariant.RESONANT_QUBIT), noise, 0.5)
                 for rho0 in runs]
        built = []

        def counted(rho0, h, ops):
            built.append(np.count_nonzero(rho0))
            return reachable_entries(rho0, h, ops)

        monkeypatch.setattr("qprobe.dynamics.reachable_entries", counted)
        clear_model_store()
        cfg = ModelConfig(ModelVariant.RESONANT_QUBIT)
        for rho0, ref in zip(runs, fresh):
            res = integrate_master(rho0, cfg, noise, 0.5)
            assert np.array_equal(res.entries, ref)
        # one build per distinct initial pattern (nonzero count): the plan
        # of x = 0.75 is kept past x = 2/3 and x = 1
        assert built == [5, 3, 4]
        for rho0, ref in zip(runs, fresh):
            res = integrate_master(rho0, ModelConfig(ModelVariant.RESONANT_QUBIT), noise, 0.5)
            assert np.array_equal(res.entries, ref)
        assert built == [5, 3, 4]

    def test_map_kept_for_the_next_call(self, monkeypatch, built_plans):
        # sweep rows: one gap per call, on one config
        noise = NoiseConfig(gamma=0.1)
        runs = [(0.75, np.pi / 2), (0.8, np.pi / 2), (0.6, np.pi / 2), (0.75, 1.0),
                (0.8, np.pi / 2)]
        fresh = [cold_entries(initial_joint(x, QUBIT, ProbePrep.GROUND),
                              ModelConfig(ModelVariant.RESONANT_QUBIT), noise, t_end)
                 for x, t_end in runs]
        clear_model_store()
        built_plans.clear()
        formed = []
        call = _Expm.__call__
        monkeypatch.setattr(_Expm, "__call__", lambda self, t: formed.append(t) or call(self, t))
        cfg = ModelConfig(ModelVariant.RESONANT_QUBIT)
        for (x, t_end), ref in zip(runs, fresh):
            res = integrate_master(initial_joint(x, cfg, ProbePrep.GROUND), cfg, noise, t_end)
            assert np.array_equal(res.entries, ref)
        # a gap seen before forms no new exponential, even after another gap
        assert formed == [np.pi / 2, 1.0]
        assert len(built_plans) == 1

    def test_map_cache_bounds_memory(self):
        # 100 distinct gaps, the whole schedule taken twice; the gaps are
        # dyadic, so each recurs exactly.  Keeping every map to its last
        # use would hold all 100 (46 MB) at the middle of the schedule.
        cfg = ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=10.0)
        rho0 = initial_joint(0.75, cfg, ProbePrep.EXCITED)
        times = np.cumsum(np.tile((64 + np.arange(100)) * 2.0 ** -12, 2))
        tracemalloc.start()
        try:
            res = integrate_master(rho0, cfg, NoiseConfig(gamma=0.1), times[-1],
                                   sample_times=times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = res.codes.size
        assert k == 170
        # GAP_MAPS maps, G's powers and one exponential's work: under 40 maps
        assert peak < 40 * 16 * k ** 2

    def test_threads_sharing_a_config_get_fresh_results(self):
        # threads alternate between keys on one config, each replacing the
        # plan the others read; each must see exactly a fresh config's result
        cases = [(x, gamma, t_end) for x in (0.75, 2 / 3, 1.0) for gamma in (0.05, 0.1)
                 for t_end in (0.3, 2.5)]
        expected = {}
        for x, gamma, t_end in cases:
            rho0 = initial_joint(x, QUBIT, ProbePrep.GROUND)
            expected[x, gamma, t_end] = cold_entries(
                rho0, ModelConfig(ModelVariant.RESONANT_QUBIT), NoiseConfig(gamma=gamma), t_end)
        cfg = ModelConfig(ModelVariant.RESONANT_QUBIT)
        failures = []

        def work(offset):
            for case in (cases[offset:] + cases[:offset]) * 3:
                x, gamma, t_end = case
                rho0 = initial_joint(x, cfg, ProbePrep.GROUND)
                got = integrate_master(rho0, cfg, NoiseConfig(gamma=gamma), t_end).entries
                if not np.array_equal(got, expected[case]):
                    failures.append(case)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestConfigOperators:
    @pytest.mark.parametrize("cfg", [QUBIT, BOSON, FULL, EXCHANGE],
                             ids=["secii-qubit", "secii-boson", "seciii-full", "seciii-eff"])
    def test_cached_and_read_only(self, cfg):
        for name, build in (("hamiltonian", build_hamiltonian),
                            ("probe_sigma_minus", probe_lowering)):
            op = getattr(cfg, name)
            assert getattr(cfg, name) is op
            # kept by the config's value, not on the object
            assert getattr(ModelConfig(cfg.variant, cfg.delta), name) is op
            assert set(vars(cfg)) == {"variant", "delta"}
            assert np.array_equal(op, build(cfg))
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 1.0

    def test_not_part_of_equality(self):
        fresh = ModelConfig(ModelVariant.RESONANT_QUBIT)
        QUBIT.hamiltonian
        assert fresh == QUBIT and hash(fresh) == hash(QUBIT)
        assert repr(fresh) == repr(QUBIT)


class TestEvolutionResult:
    @staticmethod
    def run():
        return integrate_master(initial_joint(0.7, BOSON, ProbePrep.GROUND), BOSON,
                                NoiseConfig(gamma=0.1), 1.0,
                                sample_times=np.linspace(0.0, 1.0, 6))

    @pytest.mark.parametrize("times", [(0.0, 0.2, 0.2, 0.6, 0.8, 1.0),
                                       (0.0, 0.2, 0.4, 0.3, 0.8, 1.0)],
                             ids=["repeated", "decreasing"])
    def test_times_must_increase(self, times):
        res = self.run()
        with pytest.raises(ValueError, match="^sample times must be strictly increasing$"):
            EvolutionResult(times, res.space, res.codes, res.entries)

    def test_views_match_the_stack(self):
        # the joint_states view and the readout stacks against a dense
        # reduction of each sample
        res = self.run()
        d = BOSON.space.dim
        assert res.entries.shape == (6, 35)
        pairs, probes = res.readout()
        assert pairs.shape == (6, 4, 4) and probes.shape == (6, 2, 2)
        for row, joint, ab, probe in zip(res.entries, res.joint_states, pairs, probes):
            full = np.zeros(d * d, dtype=complex)
            full[res.codes] = row
            assert np.array_equal(joint.mat, full.reshape(d, d))
            block = partial_trace_mat(joint.mat, BOSON.space.dims, {0, 1})[
                np.ix_(TWO_LEVEL_INDEX, TWO_LEVEL_INDEX)]
            assert np.allclose(ab, block / np.trace(block).real, rtol=0, atol=1e-16)
            assert np.allclose(probe, partial_trace_mat(joint.mat, BOSON.space.dims, {2}),
                               rtol=0, atol=1e-16)

    @pytest.mark.parametrize("corrupt, message", [
        ("non-finite", "non-finite entries"),
        ("non-Hermitian", "not Hermitian"),
        ("trace", "trace differs from one"),
        ("negative", "not positive semidefinite"),
    ])
    def test_one_bad_row_raises_the_density_matrix_error(self, corrupt, message):
        res = self.run()
        d = BOSON.space.dim
        rows, cols = np.divmod(res.codes, d)
        diag = np.flatnonzero(rows == cols)
        entries = np.array(res.entries)
        bad = entries[3]
        if corrupt == "non-finite":
            bad[0] = np.nan
        elif corrupt == "non-Hermitian":
            bad[np.flatnonzero(rows != cols)[0]] += 2e-10
        elif corrupt == "trace":
            bad[diag[0]] += 2e-10
        else:
            # move population off the least populated touched state, past
            # the -1e-8 eigenvalue floor, keeping the trace
            low, high = diag[np.argmin(bad[diag].real)], diag[np.argmax(bad[diag].real)]
            shift = bad[low].real + 2e-8
            bad[low] -= shift
            bad[high] += shift
        full = np.zeros(d * d, dtype=complex)
        full[res.codes] = bad
        with pytest.raises(ValueError) as single:
            DensityMatrix(BOSON.space, full.reshape(d, d))
        with pytest.raises(ValueError) as stack:
            EvolutionResult(res.times, res.space, res.codes, entries)
        assert str(stack.value) == str(single.value) == message

    def test_valid_stack_accepted_and_frozen(self):
        res = self.run()
        again = EvolutionResult(res.times, res.space, res.codes, res.entries)
        with pytest.raises(ValueError):
            again.entries[0, 0] = 1.0


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

    def test_sector_breaking_operator_enlarges_the_set(self):
        op = np.kron(np.eye(4), np.array([[1.0, 1j], [0.0, 0.0]]))
        rho0 = initial_joint(0.75, QUBIT, ProbePrep.GROUND)
        size = reachable_entries(rho0.mat, build_hamiltonian(QUBIT), [(0.03, op)]).size
        assert 19 < size <= 64

    def test_largest_set_matches_dense_rk4(self):
        # the excited probe reaches the most entries (170): none may be
        # missed, and 200 gap maps add up their errors
        rho0 = initial_joint(0.75, FULL, ProbePrep.EXCITED)
        noise = NoiseConfig(gamma=0.1)
        times = np.linspace(0.0, 1.0, 201)
        res = integrate_master(rho0, FULL, noise, 1.0, sample_times=times)
        ref = expm_reference(rho0, FULL, noise, 1.0, sample_times=times)
        assert largest_deviation(res, ref) < 1e-13

    def test_dense_initial_state_rejected_before_any_generator(self):
        # evolving all 5184 entries at d = 72 would need a 430 MB generator
        psi = np.full(FULL.space.dim, FULL.space.dim ** -0.5, dtype=complex)
        rho0 = DensityMatrix(FULL.space, np.outer(psi, psi.conj()))
        noise = NoiseConfig(gamma=0.1)
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
        for x in (0.5, 0.75, 1.0):
            ab = partial_trace(initial_joint(x, BOSON, ProbePrep.GROUND), {0, 1})
            assert np.allclose(boson_pair_to_qubits(ab).mat,
                               one_param_density(x).mat, rtol=0.0, atol=1e-15)

    def test_excitation_conserved(self):
        prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(BOSON))
        joint0 = initial_joint(0.75, BOSON, ProbePrep.GROUND)
        n_op = excitation_number(BOSON)
        e0 = np.trace(n_op @ joint0.mat).real
        for t in np.linspace(0.0, 10.0, 21):
            et = np.trace(n_op @ prop.apply(joint0, t).mat).real
            assert abs(et - e0) < 1e-9

    def test_two_level_truncation_is_load_bearing(self):
        # with true bosonic modes the double-occupancy component leaks
        # into two-photon states and the probe law breaks down by O(0.1)
        prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(BOSON))
        joint0 = initial_joint(0.75, BOSON, ProbePrep.GROUND)
        worst = 0.0
        for gt in np.linspace(0.0, np.pi, 41):
            probe = partial_trace(prop.apply(joint0, gt), {2})
            pe = float(probe.mat[0, 0].real)
            worst = max(worst, abs(pe - 2 * 0.25 * np.sin(gt) ** 2))
        assert worst > 0.05

    def test_excited_probe_refused(self):
        with pytest.raises(ValueError, match="third photon per mode"):
            initial_joint(0.75, BOSON, ProbePrep.EXCITED)


class TestInitialJointFromPair:
    @pytest.mark.parametrize("cfg, prep", [
        (QUBIT, ProbePrep.GROUND), (QUBIT, ProbePrep.EXCITED), (BOSON, ProbePrep.GROUND),
        (FULL, ProbePrep.EXCITED), (EXCHANGE, ProbePrep.GROUND)])
    def test_matches_initial_joint(self, cfg, prep):
        for x in (0.5, 0.75, 1.0):
            joint = initial_joint_from_pair(one_param_density(x), cfg, prep)
            assert joint.space == cfg.space
            assert np.array_equal(joint.mat, initial_joint(x, cfg, prep).mat)

    @pytest.mark.parametrize("cfg, prep", [
        (QUBIT, ProbePrep.GROUND), (QUBIT, ProbePrep.EXCITED), (BOSON, ProbePrep.GROUND),
        (FULL, ProbePrep.EXCITED), (EXCHANGE, ProbePrep.GROUND)])
    def test_stack_matches_one_pair_at_a_time(self, cfg, prep):
        pairs = [one_param_density(x) for x in (0.5, 2.0 / 3.0, 0.75, 1.0)]
        stack = initial_joint_matrices(np.array([p.mat for p in pairs]), cfg, prep)
        assert stack.shape == (len(pairs), cfg.space.dim, cfg.space.dim)
        for mat, pair in zip(stack, pairs):
            assert np.array_equal(mat, initial_joint_from_pair(pair, cfg, prep).mat)

    def test_refusals(self):
        with pytest.raises(ValueError, match="two-qubit pair state required"):
            initial_joint_from_pair(initial_joint(0.75, QUBIT, ProbePrep.GROUND), QUBIT,
                                    ProbePrep.GROUND)
        with pytest.raises(ValueError, match="third photon per mode"):
            initial_joint_from_pair(one_param_density(0.75), BOSON, ProbePrep.EXCITED)


# ---------------------------------------------------------------------------
# three Fock levels per mode are exact: the same models at four levels

def _coupling(dims, atom, cav):
    a = boson_lower(dims[cav])
    term = _embed({atom: ATOM_RAISE, cav: a}, dims)
    return term + term.conj().T


def four_level_model(cfg):
    """Hamiltonian, probe sigma^- and factor dims of ``cfg`` at four Fock levels."""
    lam = 1.0 / np.sqrt(2.0)
    if cfg.variant is ModelVariant.RESONANT_BOSON:
        dims = (4, 4, 2)
        h = lam * (_coupling(dims, 2, 0) + _coupling(dims, 2, 1))
    else:
        dims = (2, 2, 2, 4, 4)
        det_ab = -cfg.delta - cfg.j_exchange
        h = -cfg.delta * _embed({2: ATOM_NUMBER}, dims)
        h += det_ab * (_embed({0: ATOM_NUMBER}, dims) + _embed({1: ATOM_NUMBER}, dims))
        h += lam * (_coupling(dims, 2, 3) + _coupling(dims, 2, 4)
                    + _coupling(dims, 0, 3) + _coupling(dims, 1, 4))
    return h, _embed({2: ATOM_LOWER}, dims), dims


def widen(mat, dims, wide):
    """``mat`` on factors ``dims`` placed into the larger factors ``wide``."""
    idx = np.ravel_multi_index(np.unravel_index(np.arange(mat.shape[0]), dims), wide)
    out = np.zeros((int(np.prod(wide)),) * 2, dtype=complex)
    out[np.ix_(idx, idx)] = mat
    return out


def exact_reductions(rho0, h, ops, dims, t):
    """Exact (A, B) pair and probe states at ``t``, from the reachable entries only."""
    codes = reachable_entries(rho0, h, ops)
    vec = expm(t * _restricted_generator(h, ops, codes)) @ rho0.ravel()[codes]
    return [reduced_entry_stack(codes, vec[None], dims, keep)[0] for keep in ({0, 1}, {2})]


CAVITY_PREPARATIONS = [
    (BOSON, ProbePrep.GROUND),
    (FULL, ProbePrep.GROUND),
    (FULL, ProbePrep.EXCITED),
]
CAVITY_IDS = ["secii-boson", "seciii-full-ground", "seciii-full-excited"]


class TestThreeFockLevelsExact:
    @staticmethod
    def most_photons_reached(rho0, cfg, gamma):
        h, lower, dims = four_level_model(cfg)
        ops = [(gamma, lower)] if gamma else []
        codes = reachable_entries(rho0, h, ops)
        states = np.unravel_index(np.unique(codes // h.shape[0]), dims)
        cavities = (0, 1) if cfg.variant is ModelVariant.RESONANT_BOSON else (3, 4)
        return max(int(states[k].max()) for k in cavities)

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    @pytest.mark.parametrize("cfg, prep", CAVITY_PREPARATIONS, ids=CAVITY_IDS)
    def test_no_mode_reaches_a_third_photon(self, cfg, prep, gamma):
        wide = four_level_model(cfg)[2]
        rho0 = widen(initial_joint(0.75, cfg, prep).mat, cfg.space.dims, wide)
        assert self.most_photons_reached(rho0, cfg, gamma) <= 2

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_excited_boson_probe_would_reach_a_third_photon(self, gamma):
        # the preparation initial_joint refuses: |11>|e> holds three excitations
        wide = four_level_model(BOSON)[2]
        ground = widen(initial_joint(0.75, BOSON, ProbePrep.GROUND).mat, BOSON.space.dims, wide)
        flip = _embed({2: np.array([[0.0, 1.0], [1.0, 0.0]])}, wide)
        assert self.most_photons_reached(flip @ ground @ flip, BOSON, gamma) == 3

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    @pytest.mark.parametrize("cfg, prep", CAVITY_PREPARATIONS, ids=CAVITY_IDS)
    def test_reduced_states_match_four_levels(self, cfg, prep, gamma):
        rho0 = initial_joint(0.75, cfg, prep).mat
        ops = [(gamma, probe_lowering(cfg))] if gamma else []
        h4, lower4, wide = four_level_model(cfg)
        ops4 = [(gamma, lower4)] if gamma else []
        rho4 = widen(rho0, cfg.space.dims, wide)
        for t in (0.3, 1.7):
            built_in = exact_reductions(rho0, build_hamiltonian(cfg), ops, cfg.space.dims, t)
            four = exact_reductions(rho4, h4, ops4, wide, t)
            pair = widen(built_in[0], cfg.space.dims[:2], wide[:2])
            assert np.max(np.abs(pair - four[0])) < 1e-12
            assert np.max(np.abs(built_in[1] - four[1])) < 1e-12


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
