import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qprobe.qcore
from qprobe import dynamics, protocols, states
from qprobe.dynamics import (
    MIN_DISPERSIVE_DELTA,
    TWO_LEVEL_INDEX,
    EvolutionResult,
    ModelConfig,
    ModelVariant,
    NoiseConfig,
    boson_pair_to_qubits_stack,
    build_hamiltonian,
    initial_joint,
    integrate_master,
    reachable_entries,
    sigma_z_stack,
)
from qprobe.protocols import (
    EXCHANGE_E_READOUT,
    EXCHANGE_G_READOUT,
    MAX_HALF_PERIODS,
    MAX_QND_CYCLES,
    MAX_SHOTS,
    QND_BATCH,
    RESONANT_READOUT,
    SHOT_BLOCK,
    ReadoutModel,
    ShotRecord,
    _excited_cutoff,
    derive_seed,
    estimate_exact,
    estimate_from_counts,
    find_transfer_time,
    run_probe_cycle,
    run_probe_cycles,
    run_qnd_sequence,
    sample_shots,
    transfer_time_report,
)
from qprobe.measures import correlation_report, trace_distance_x_stack
from qprobe.qcore import (
    DensityMatrix,
    SpectralPropagator,
    partial_trace,
    partial_trace_mat,
    trace_distance,
)
from qprobe.states import ProbePrep, corner_swap, join_with_probe, one_param_density

QUBIT = ModelConfig(ModelVariant.RESONANT_QUBIT)
EXCHANGE = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0)


def one_shot_count(p_excited, shots, seed):
    """Excited count from all counters drawn at once, as before streaming."""
    mask = (1 << 64) - 1
    z0 = ((seed & mask) + 0x9E3779B97F4A7C15) & mask
    z0 = ((z0 ^ (z0 >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z0 = ((z0 ^ (z0 >> 27)) * 0x94D049BB133111EB) & mask
    base = np.uint64((z0 ^ (z0 >> 31)) & mask)
    z = base + np.arange(shots, dtype=np.uint64)
    z = (z + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(mask)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    u = z.astype(np.float64) / float(2 ** 64)
    return int(np.count_nonzero(u < p_excited))


class TestSampleShots:
    @pytest.mark.parametrize("shots", [0, 1, SHOT_BLOCK - 1, SHOT_BLOCK, SHOT_BLOCK + 1,
                                       2 * SHOT_BLOCK - 1, 2 * SHOT_BLOCK, 2 * SHOT_BLOCK + 1,
                                       10 ** 6])
    @pytest.mark.parametrize("p", [0.0, 1e-7, 0.3, 1.0])
    def test_blocks_match_one_shot_draw(self, shots, p):
        for seed in (0, derive_seed(11, 2)):
            rec = sample_shots(p, shots, seed)
            assert rec == ShotRecord(shots, one_shot_count(p, shots, seed))

    def test_degenerate_probabilities(self):
        assert sample_shots(0.0, 1000, 3).count_excited == 0
        assert sample_shots(1.0, 1000, 3).count_excited == 1000

    def test_deterministic(self):
        a = sample_shots(0.37, 5000, 123)
        b = sample_shots(0.37, 5000, 123)
        assert a == b

    def test_seed_sensitivity(self):
        counts = {sample_shots(0.5, 2000, s).count_excited for s in range(8)}
        assert len(counts) > 1

    def test_binomial_concentration(self):
        rec = sample_shots(0.5, 10000, 7)
        assert abs(rec.count_excited - 5000) <= 200  # 4 sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_shots(1.4, 10, 0)
        with pytest.raises(ValueError):
            sample_shots(1.4, 0, 0)
        with pytest.raises(ValueError):
            sample_shots(0.5, -1, 0)
        with pytest.raises(ValueError):
            ShotRecord(10, 11)

    def test_shot_count_bounded(self):
        with pytest.raises(ValueError, match=str(MAX_SHOTS)):
            sample_shots(0.5, MAX_SHOTS + 1, 0)

    def test_shot_count_is_an_integer(self):
        # a numpy integer counts as its value; a float is refused, not truncated
        assert sample_shots(0.5, np.int64(100), 0) == sample_shots(0.5, 100, 0)
        with pytest.raises(TypeError):
            sample_shots(0.5, 2.5, 0)

    def test_seed_is_an_integer(self):
        # numpy and negative integers count as their values; a float or None
        # is refused before the hash, also when no shot is drawn
        assert sample_shots(0.5, 100, np.int64(3)) == sample_shots(0.5, 100, 3)
        assert sample_shots(0.5, 100, -5) == ShotRecord(100, one_shot_count(0.5, 100, -5))
        for seed in (1.5, None):
            for shots in (10, 0):
                with pytest.raises(TypeError):
                    sample_shots(0.3, shots, seed)
            with pytest.raises(TypeError):
                derive_seed(seed, 0)
        assert derive_seed(np.int64(-5), 2) == derive_seed(-5, 2) == derive_seed(2 ** 64 - 5, 2)

    def test_record_counts_are_integers(self):
        assert ShotRecord(np.int64(5), np.int64(2)) == ShotRecord(5, 2)
        for shots, count in ((5.5, 2), (5, 2.0), (None, 0)):
            with pytest.raises(TypeError):
                ShotRecord(shots, count)

    def test_derive_seed_streams_differ(self):
        seeds = {derive_seed(42, k) for k in range(16)}
        assert len(seeds) == 16


MASK64 = (1 << 64) - 1
GAMMA64 = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def mix(z):
    """The three SplitMix64 rounds, without the counter increment."""
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def _undo_xorshift(y, s):
    # each pass fixes s more of the top bits of z in y = z ^ (z >> s)
    z = y
    for _ in range(64 // s):
        z = y ^ (z >> s)
    return z


def unmix(y):
    z = (_undo_xorshift(y, 31) * pow(MIX2, -1, 1 << 64)) & MASK64
    z = (_undo_xorshift(z, 27) * pow(MIX1, -1, 1 << 64)) & MASK64
    return _undo_xorshift(z, 30)


def counter_of(seed, shot):
    base = mix((seed + GAMMA64) & MASK64)
    return (base + shot + GAMMA64) & MASK64


def seed_with_counter(shot, counter):
    """Seed whose stream gives ``shot`` the given SplitMix64 counter."""
    base = (counter - shot - GAMMA64) & MASK64
    return (unmix(base) - GAMMA64) & MASK64


def seed_with_word(shot, word):
    """Seed whose stream hashes ``shot`` to the given 64-bit word."""
    return seed_with_counter(shot, unmix(word))


class TestInvertedSeeds:
    """Edge cases of the stream, reached by running SplitMix64 backwards."""

    def test_inverse_and_stream_match_the_sampler_hash(self):
        for z in (0, 1, GAMMA64, MASK64, 0x0123456789ABCDEF):
            assert unmix(mix(z)) == z and mix(unmix(z)) == z
        # derive_seed is two SplitMix64 steps of the package's hash
        for seed, stream in ((0, 0), (12345, 3), (MASK64, 7)):
            inner = mix(((mix((seed + GAMMA64) & MASK64) ^ (stream + 1)) + GAMMA64) & MASK64)
            assert derive_seed(seed, stream) == inner

    @pytest.mark.parametrize("wrap_shot", [5, SHOT_BLOCK - 1, SHOT_BLOCK, SHOT_BLOCK + 100,
                                           2 * SHOT_BLOCK - 1, 2 * SHOT_BLOCK,
                                           2 * SHOT_BLOCK + 100])
    @pytest.mark.parametrize("p", [1e-7, 0.3, 0.5, 1.0])
    def test_counters_wrap_past_2_64(self, wrap_shot, p):
        seed = seed_with_counter(wrap_shot, 0)
        assert counter_of(seed, wrap_shot - 1) == MASK64
        shots = 3 * SHOT_BLOCK  # every wrap_shot lies inside the draw
        assert sample_shots(p, shots, seed).count_excited == one_shot_count(p, shots, seed)

    def test_top_word_is_never_excited(self):
        # 2^64 - 1 converts to u = 1.0, which is not below p = 1
        seed = seed_with_word(0, MASK64)
        assert sample_shots(1.0, 1, seed).count_excited == 0 == one_shot_count(1.0, 1, seed)
        seed = seed_with_word(7, MASK64)
        assert sample_shots(1.0, 1000, seed).count_excited == 999
        assert one_shot_count(1.0, 1000, seed) == 999

    @pytest.mark.parametrize(
        "p", [0.3, math.nextafter(1.0, 0.0), 2.0 ** -64, 5e-324, 1.0]
    )
    def test_words_on_either_side_of_the_cutoff(self, p):
        cutoff = _excited_cutoff(p)
        for word, excited in ((cutoff - 1, 1), (cutoff, 0)):
            seed = seed_with_word(0, word)
            assert sample_shots(p, 1, seed).count_excited == excited
            assert one_shot_count(p, 1, seed) == excited
            seed = seed_with_word(SHOT_BLOCK + 3, word)
            shots = SHOT_BLOCK + 10
            assert sample_shots(p, shots, seed).count_excited == one_shot_count(
                p, shots, seed
            )


class TestSamplerShortcuts:
    """Aligned blocks and the last-round band give the one-shot counts."""

    ALIGNED = 0x0123456789AB8000  # a multiple of SHOT_BLOCK
    PS = (1e-7, 0.3, 0.5, 1.0)

    @pytest.mark.parametrize("before", [0, 1, SHOT_BLOCK - 1])
    def test_first_shot_just_before_an_aligned_counter(self, before):
        assert self.ALIGNED % SHOT_BLOCK == 0
        seed = seed_with_counter(0, self.ALIGNED - before)
        for shots in (before, before + 1, 3 * SHOT_BLOCK + 5):
            for p in self.PS:
                assert sample_shots(p, shots, seed).count_excited == one_shot_count(
                    p, shots, seed
                )

    @pytest.mark.parametrize("high", [1, 0x2A5, (1 << 34) - 1])
    def test_partial_blocks_either_side_of_a_2_30_boundary(self, high):
        # head and tail only: round one's constant z >> 30 differs between them
        seed = seed_with_counter(0, (high << 30) - 10)
        for p in self.PS:
            assert sample_shots(p, 20, seed).count_excited == one_shot_count(p, 20, seed)
            shots = SHOT_BLOCK + 20
            assert sample_shots(p, shots, seed).count_excited == one_shot_count(
                p, shots, seed
            )

    @pytest.mark.parametrize("p", [0.3, 2.0 ** -64, math.nextafter(1.0, 0.0), 1.0])
    def test_last_round_inputs_at_the_band_edges(self, p):
        cutoff = _excited_cutoff(p)
        lo = cutoff & ~((1 << 33) - 1)
        inputs = [y for y in (lo - 1, lo, lo + (1 << 33) - 1, lo + (1 << 33)) if 0 <= y <= MASK64]
        assert lo in inputs and len(inputs) >= 2
        for y in inputs:
            word = y ^ (y >> 31)  # the last round of the hash
            excited = int(word < cutoff)
            seed = seed_with_word(0, word)
            assert sample_shots(p, 1, seed).count_excited == excited
            assert one_shot_count(p, 1, seed) == excited
            # shot 1.5 blocks in lies in a whole block whatever the alignment
            seed = seed_with_word(SHOT_BLOCK + SHOT_BLOCK // 2, word)
            shots = 3 * SHOT_BLOCK
            assert sample_shots(p, shots, seed).count_excited == one_shot_count(
                p, shots, seed
            )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p=st.floats(0.0, 1.0, allow_subnormal=True),
    shots=st.integers(0, 3 * SHOT_BLOCK),
    seed=st.integers(0, MASK64),
)
def test_random_draws_match_the_one_shot_count(p, shots, seed):
    assert sample_shots(p, shots, seed).count_excited == one_shot_count(p, shots, seed)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=st.one_of(
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.integers(0, 1 << 64).map(lambda k: math.ldexp(k, -64)),
))
@example(p=0.0)
@example(p=1.0)
@example(p=5e-324)
@example(p=2.0 ** -64)
@example(p=math.nextafter(1.0, 0.0))
def test_cutoff_is_the_exact_prefix(p):
    cutoff = _excited_cutoff(p)
    assert 0 <= cutoff < 1 << 64
    assert float(cutoff) / 2.0 ** 64 >= p
    assert cutoff == 0 or float(cutoff - 1) / 2.0 ** 64 < p


class TestEstimation:
    def test_resonant_group_midpoint(self):
        rec = ShotRecord(10000, 5000)
        est = estimate_from_counts([(RESONANT_READOUT, rec)])
        assert est.x_hat == pytest.approx(0.75, abs=1e-12)
        assert est.derived.concurrence == pytest.approx(0.25, abs=1e-9)

    def test_zero_frequency_clamps_to_one(self):
        rec = ShotRecord(10000, 0)
        est = estimate_from_counts([(RESONANT_READOUT, rec)])
        assert est.x_hat == pytest.approx(1.0)

    def test_pooling_reduces_stderr(self):
        rec = ShotRecord(10000, 5000)
        single = estimate_from_counts([(EXCHANGE_E_READOUT, rec)])
        pooled = estimate_from_counts(
            [(EXCHANGE_E_READOUT, rec), (EXCHANGE_G_READOUT, rec)]
        )
        assert pooled.x_hat == pytest.approx(0.75, abs=1e-12)
        assert pooled.stderr < single.stderr

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            estimate_from_counts([(RESONANT_READOUT, ShotRecord(0, 0))])

    @pytest.mark.parametrize("offset, slope", [(0.5, 0.0), (0.5, -0.0), (0.5, math.nan),
                                               (0.5, -math.inf), (math.nan, 2.0),
                                               (math.inf, 2.0)])
    def test_readout_needs_a_finite_nonzero_slope(self, offset, slope):
        # both estimators divide by the slope
        with pytest.raises(ValueError, match="finite offset and a finite nonzero slope"):
            ReadoutModel(offset, slope)

    def test_exact_mode_identity(self):
        for x in np.linspace(0.5, 1.0, 11):
            est = estimate_exact(
                [(EXCHANGE_E_READOUT, 2 * x - 1), (EXCHANGE_G_READOUT, 2 * (1 - x))]
            )
            assert est.x_hat == pytest.approx(x, abs=1e-12)
            assert est.stderr == 0.0


class TestProbeCycle:
    def test_midpoint_cycle(self):
        rep = run_probe_cycle(0.75, QUBIT, 1)
        assert rep.mean_sigma_z == pytest.approx(0.0, abs=1e-12)
        assert rep.t_read == pytest.approx(np.pi / 2)
        # the pair state is corner swapped, not restored ...
        assert not rep.state_restored
        swap = corner_swap(one_param_density(0.75))
        assert trace_distance(rep.post_state.mat, swap.mat) <= 1e-9
        # ... while every measure is untouched
        for name in ("concurrence", "mutual_info", "classical", "discord"):
            assert getattr(rep.measures_after, name) == pytest.approx(
                getattr(rep.measures_before, name), abs=1e-6
            )

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_carried_distance_is_the_post_state_distance(self, gamma):
        rep = run_probe_cycle(0.75, QUBIT, 1, NoiseConfig(gamma))
        dist = float(trace_distance_x_stack(rep.post_state.mat[None],
                                            one_param_density(0.75).mat[None])[0])
        assert rep.post_distance_to_initial == dist
        assert rep.state_restored == (dist <= protocols.RESTORED_TOL)

    def test_singlet_probe_silent(self):
        rep = run_probe_cycle(1.0, QUBIT, 1)
        assert rep.mean_sigma_z == pytest.approx(-1.0, abs=1e-12)
        assert rep.state_restored  # the singlet is its own corner swap

    def test_half_period_count_is_an_integer(self):
        # a numpy integer counts as its value; a float is refused, not truncated
        assert run_probe_cycle(0.75, QUBIT, np.int64(3)).t_read == 3 * np.pi / 2
        with pytest.raises(TypeError):
            run_probe_cycle(0.75, QUBIT, 1.5)

    def test_even_multiple_rejected(self):
        with pytest.raises(ValueError, match="even multiples"):
            run_probe_cycle(0.75, QUBIT, 2)

    def test_wrong_model_rejected(self):
        with pytest.raises(ValueError):
            run_probe_cycle(0.75, EXCHANGE, 1)

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_family_state_built_once(self, monkeypatch, gamma):
        # one construction serves the initial joint state and the report before
        built, family_matrices = [], states.family_matrices

        def counted(xs):
            built.append(list(xs))
            return family_matrices(xs)

        # one_param_density builds through states.family_matrices too
        monkeypatch.setattr(protocols, "family_matrices", counted)
        monkeypatch.setattr(states, "family_matrices", counted)
        run_probe_cycle(0.75, QUBIT, 1, NoiseConfig(gamma))
        assert built == [[0.75]]

    def test_half_periods_bounded(self, monkeypatch):
        # rejected before any propagator is built
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the bound was checked")

        monkeypatch.setattr(SpectralPropagator, "from_hamiltonian", no_work)
        with pytest.raises(ValueError, match=str(MAX_HALF_PERIODS)):
            run_probe_cycle(0.75, QUBIT, MAX_HALF_PERIODS + 1)

    def test_largest_accepted_half_period_count_is_exact(self):
        # eigenphase roundoff grows with t; at the largest odd n accepted
        # it is still below 1e-12
        far = run_probe_cycle(0.75, QUBIT, MAX_HALF_PERIODS - 1)
        assert far.mean_sigma_z == pytest.approx(run_probe_cycle(0.75, QUBIT, 1).mean_sigma_z,
                                                 abs=1e-12)

    def test_noise_shifts_readout(self):
        clean = run_probe_cycle(0.75, QUBIT, 1)
        noisy = run_probe_cycle(0.75, QUBIT, 1, NoiseConfig(gamma=0.1))
        shift = abs(noisy.mean_sigma_z - clean.mean_sigma_z)
        assert 0.01 < shift < 0.3

    def test_odd_multiples_equivalent(self):
        a = run_probe_cycle(0.8, QUBIT, 1)
        b = run_probe_cycle(0.8, QUBIT, 3)
        assert a.mean_sigma_z == pytest.approx(b.mean_sigma_z, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    @pytest.mark.parametrize("variant", [ModelVariant.RESONANT_QUBIT,
                                         ModelVariant.RESONANT_BOSON],
                             ids=["secii-qubit", "secii-boson"])
    def test_readout_equals_the_dense_reduction(self, variant, gamma, n):
        # bit for bit: the dense joint state, partial_trace_mat and, on
        # bosonic modes, the {0, 1}-photon block renormalized.  Without
        # noise the dense state is zeroed outside the entries the
        # Hamiltonian reaches, which hold only the propagator's rounding
        cfg = ModelConfig(variant)
        t = n * np.pi / 2
        for x in (0.6, 0.85):
            joint0 = initial_joint(x, cfg, ProbePrep.GROUND)
            if gamma:
                joint = integrate_master(joint0, cfg, NoiseConfig(gamma), t).joint_states[-1].mat
            else:
                dense = SpectralPropagator.from_hamiltonian(cfg.hamiltonian).apply_mat(
                    joint0.mat, t)
                codes = reachable_entries(joint0.mat, cfg.hamiltonian, ())
                joint = np.zeros_like(dense)
                joint.flat[codes] = dense.flat[codes]
            pair = partial_trace_mat(joint, cfg.space.dims, {0, 1})
            if variant is ModelVariant.RESONANT_BOSON:
                pair = pair[np.ix_(TWO_LEVEL_INDEX, TWO_LEVEL_INDEX)]
                pair = pair / np.trace(pair).real
            probe = partial_trace_mat(joint, cfg.space.dims, {2})
            rep = run_probe_cycle(x, cfg, n, NoiseConfig(gamma))
            assert rep.mean_sigma_z == float(sigma_z_stack(probe[None])[0])
            assert np.array_equal(rep.post_state.mat, pair)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    @pytest.mark.parametrize("variant", [ModelVariant.RESONANT_QUBIT,
                                         ModelVariant.RESONANT_BOSON],
                             ids=["secii-qubit", "secii-boson"])
    def test_cycles_over_a_grid_equal_one_cycle_per_x(self, variant, gamma, n):
        # the stacked pass is the one-x cycle for every x, field by field;
        # the grid passes 2/3 and ends on 1, where the family's pattern changes
        xs = [0.5, 0.6, 2.0 / 3.0, 0.75, 0.9, 1.0]
        cfg = ModelConfig(variant)
        stacked = run_probe_cycles(xs, cfg, n, NoiseConfig(gamma))
        single = [run_probe_cycle(x, ModelConfig(variant), n, NoiseConfig(gamma)) for x in xs]
        assert len(stacked) == len(single)
        for a, b in zip(stacked, single):
            assert a.post_state.space == b.post_state.space
            assert np.array_equal(a.post_state.mat, b.post_state.mat)
            assert not a.post_state.mat.flags.writeable
            for field in ("t_read", "mean_sigma_z", "post_distance_to_initial",
                          "state_restored", "measures_before", "measures_after"):
                assert getattr(a, field) == getattr(b, field), field
            assert type(a.state_restored) is bool

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_reports_of_a_grid_take_one_call(self, monkeypatch, gamma):
        # the reports before and after every cycle come from one stacked call
        calls, reports = [], protocols.correlation_reports

        def counted(states):
            calls.append(len(states))
            return reports(states)

        monkeypatch.setattr(protocols, "correlation_reports", counted)
        cycles = run_probe_cycles([0.5, 0.75, 1.0], QUBIT, 1, NoiseConfig(gamma))
        assert calls == [6] and len(cycles) == 3

    def test_noiseless_cycles_share_the_config_propagator(self, monkeypatch, cold_store):
        builds, build = [], SpectralPropagator.from_hamiltonian.__func__

        def counted_build(cls, h):
            builds.append(h)
            return build(cls, h)

        monkeypatch.setattr(SpectralPropagator, "from_hamiltonian", classmethod(counted_build))
        cfg = ModelConfig(ModelVariant.RESONANT_QUBIT)
        run_probe_cycle(0.75, cfg, 1)
        run_probe_cycles([0.6, 0.9], cfg, 3)
        assert cfg.propagator is cfg.propagator
        assert len(builds) == 1 and builds[0] is cfg.hamiltonian
        # an equal config, built anew, takes the kept propagator
        run_probe_cycles([0.6, 0.9], ModelConfig(ModelVariant.RESONANT_QUBIT), 3)
        assert len(builds) == 1

    def test_cycles_check_every_x_first(self):
        with pytest.raises(ValueError, match="x out of family domain"):
            run_probe_cycles([0.75, 1.5], QUBIT, 1, NoiseConfig(0.1))
        assert run_probe_cycles([], QUBIT, 1, NoiseConfig(0.1)) == []

    def test_non_disturbance_over_grid(self):
        # measures before vs after agree over the whole family without noise
        for x in np.linspace(0.5, 1.0, 11):
            rep = run_probe_cycle(x, QUBIT, 1)
            for name in ("concurrence", "mutual_info", "classical", "discord"):
                assert getattr(rep.measures_after, name) == pytest.approx(
                    getattr(rep.measures_before, name), abs=1e-6
                )

    @pytest.mark.parametrize("n", [1, 3])
    def test_non_disturbance_to_rounding(self, n):
        # the post state carries no rounding off the X pattern, so each
        # measure after equals its value before to 1e-12 (concurrence was
        # once off by 9.9e-9 at x = 1, n = 3)
        off_x = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
        for x in np.linspace(0.5, 1.0, 51):
            rep = run_probe_cycle(x, QUBIT, n)
            assert not np.any(rep.post_state.mat[off_x])
            for name in ("concurrence", "mutual_info", "classical", "discord"):
                assert getattr(rep.measures_after, name) == pytest.approx(
                    getattr(rep.measures_before, name), abs=1e-12
                )


#: the runtime-only CI grid: starts on x = 2/3 and ends on x = 1, the two
#: points where the family's zero pattern changes.  The dynamics reach the
#: coherence that vanishes at x = 2/3, so its rows hold two sets of codes:
#: those of x < 1 and those of x = 1
CI_GRID = [0.6666666666666666 + i * 0.0833333333333334 for i in range(4)] + [1.0]


def row_by_row(xs, cfg, gamma, n=1):
    """Each x's cycle read out on its own: post pair, <sigma_z>, distance and reports."""
    t = n * np.pi / 2
    out = []
    for x in xs:
        joint0 = initial_joint(x, cfg, ProbePrep.GROUND)
        if gamma:
            result = integrate_master(joint0, cfg, NoiseConfig(gamma), t)
        else:
            codes = reachable_entries(joint0.mat, cfg.hamiltonian, ())
            dense = SpectralPropagator.from_hamiltonian(cfg.hamiltonian).apply_mat(joint0.mat, t)
            result = EvolutionResult((t,), cfg.space, codes, dense.ravel()[codes][None])
        pair, probe = result.readout()
        family = one_param_density(x)
        out.append((pair[-1], float(sigma_z_stack(probe)[-1]),
                    float(trace_distance_x_stack(pair[-1:], family.mat[None])[0]),
                    correlation_report(family),
                    correlation_report(DensityMatrix(family.space, pair[-1]))))
    return out


class TestRowStack:
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    @pytest.mark.parametrize("variant", [ModelVariant.RESONANT_QUBIT,
                                         ModelVariant.RESONANT_BOSON],
                             ids=["secii-qubit", "secii-boson"])
    @pytest.mark.parametrize("xs", [CI_GRID, [0.5, 0.6, 2.0 / 3.0, 0.75, 1.0, 0.9]],
                             ids=["ci-grid", "sets-interleaved"])
    def test_bit_identical_to_row_by_row_readout(self, xs, variant, gamma):
        cfg = ModelConfig(variant)
        cycles = run_probe_cycles(xs, cfg, 1, NoiseConfig(gamma))
        for cycle, (pair, sz, distance, before, after) in zip(
                cycles, row_by_row(xs, ModelConfig(variant), gamma), strict=True):
            assert np.array_equal(cycle.post_state.mat, pair)
            assert cycle.mean_sigma_z == sz
            assert cycle.post_distance_to_initial == distance
            assert cycle.measures_before == before
            assert cycle.measures_after == after

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    @pytest.mark.parametrize("variant", [ModelVariant.RESONANT_QUBIT,
                                         ModelVariant.RESONANT_BOSON],
                             ids=["secii-qubit", "secii-boson"])
    def test_one_readout_per_set_of_codes(self, monkeypatch, variant, gamma):
        # the CI grid's rows hold two sets of codes: a pair and a probe
        # reduction each, and one evolution per row with noise
        reductions, evolutions = [], []
        reduce, evolve = dynamics.reduced_entry_stack, protocols.integrate_master

        def counted_reduce(codes, entries, dims, keep, index=None):
            if set(keep) in ({0, 1}, {2}):
                reductions.append(len(entries))
            return reduce(codes, entries, dims, keep, index)

        def counted_evolve(*args, **kwargs):
            evolutions.append(args[0])
            return evolve(*args, **kwargs)

        monkeypatch.setattr(dynamics, "reduced_entry_stack", counted_reduce)
        monkeypatch.setattr(protocols, "integrate_master", counted_evolve)
        cycles = run_probe_cycles(CI_GRID, ModelConfig(variant), 1, NoiseConfig(gamma))
        assert len(cycles) == 5
        # rows of x = 2/3 .. 11/12, then the row of x = 1, each set read out once
        assert reductions == [4, 4, 1, 1]
        assert len(evolutions) == (5 if gamma else 0)

    def test_a_failing_conditional_raises_the_row_by_row_error(self, monkeypatch):
        # row 1's conditional pair is not positive and row 3's not
        # Hermitian, both from joint states inside their tolerances; the
        # stacked check would name row 3's fault (Hermiticity is checked
        # first), a row-by-row readout names row 1's
        cfg = ModelConfig(ModelVariant.RESONANT_BOSON)
        d, eps = cfg.space.dim, 1e-6
        # basis states (cavity A, cavity B, probe) with the probe ground
        g00, g01, g20 = 1, 3, 13

        def joint(kind):
            mat = np.zeros((d, d), dtype=complex)
            mat[g20, g20] = 1.0 - eps
            if kind == "negative":
                mat[g00, g00], mat[g01, g01] = eps + 5e-9, -5e-9
            else:
                mat[g00, g00] = mat[g01, g01] = eps / 2
                mat[g00, g01] = 5e-11
            return mat

        evolve, calls = protocols.integrate_master, []

        def faulty(joint0, cfg, noise, t):
            calls.append(t)
            kind = {2: "negative", 4: "non-Hermitian"}.get(len(calls))
            if kind is None:
                return evolve(joint0, cfg, noise, t)
            return EvolutionResult((t,), cfg.space, np.arange(d * d), joint(kind).ravel()[None])

        monkeypatch.setattr(protocols, "integrate_master", faulty)
        with pytest.raises(ValueError, match="^not positive semidefinite$"):
            run_probe_cycles([0.6, 0.7, 0.8, 0.9, 0.95], cfg, 1, NoiseConfig(0.1))
        assert len(calls) == 5
        blocks = np.array([partial_trace_mat(joint(kind), cfg.space.dims, {0, 1})[
            np.ix_(TWO_LEVEL_INDEX, TWO_LEVEL_INDEX)] for kind in ("negative", "non-Hermitian")])
        with pytest.raises(ValueError, match="^not Hermitian$"):
            boson_pair_to_qubits_stack(blocks)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("blocks, message", [
        (np.zeros((1, 4, 4)), "pair block 0 has trace 0.0"),
        (np.stack([np.eye(4) / 4, np.diag([np.inf, 0.0, 0.0, 0.0])]),
         "pair block 1 has trace inf"),
        (np.stack([np.eye(4) / 4, np.full((4, 4), np.nan)]), "pair block 1 has trace nan"),
    ], ids=["zero", "inf", "nan"])
    def test_a_block_without_a_finite_trace_is_refused(self, blocks, message):
        # refused before the division, whose RuntimeWarning the row-by-row
        # fallback of run_probe_cycles would not catch
        with pytest.raises(ValueError, match=f"^{message}: no conditional state"):
            boson_pair_to_qubits_stack(blocks)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_row_without_conditional_population_raises_its_error(self, monkeypatch):
        # row 1 holds two photons in cavity A and none in the block: the
        # stacked readout refuses it and the row-by-row readout names it
        cfg = ModelConfig(ModelVariant.RESONANT_BOSON)
        d, g20 = cfg.space.dim, 13
        evolve, calls = protocols.integrate_master, []

        def faulty(joint0, cfg, noise, t):
            calls.append(t)
            if len(calls) == 1:
                return evolve(joint0, cfg, noise, t)
            mat = np.zeros((d, d), dtype=complex)
            mat[g20, g20] = 1.0
            return EvolutionResult((t,), cfg.space, np.arange(d * d), mat.ravel()[None])

        monkeypatch.setattr(protocols, "integrate_master", faulty)
        with pytest.raises(ValueError, match="^pair block 0 has trace 0.0: "):
            run_probe_cycles([0.6, 0.7], cfg, 1, NoiseConfig(0.1))


def exchange_at(j):
    """The exchange config of strength ``j``: J = 1 / (2 delta)."""
    return ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=1.0 / (2.0 * j))


class TestTransferTime:
    def test_matches_collective_rabi_value(self):
        t = find_transfer_time(exchange_at(0.05))
        assert t == pytest.approx(np.pi / (2 * np.sqrt(2) * 0.05), abs=1e-5)

    def test_scaling(self):
        assert find_transfer_time(exchange_at(0.1)) == pytest.approx(
            find_transfer_time(exchange_at(0.05)) / 2.0, rel=1e-6
        )

    def test_fidelity_thresholds(self):
        rep = transfer_time_report(exchange_at(0.05))
        assert rep.best_fidelity >= 1.0 - 1e-9
        # the delta*pi/g^2 rule misses the swap by a factor sqrt(2)
        assert rep.candidate_time == pytest.approx(np.pi / 0.1)
        assert rep.candidate_fidelity < 1.0 - 1e-3

    def test_bad_strength(self):
        # a strength that is not positive has no exchange config
        with pytest.raises(ValueError, match="positive detuning"):
            find_transfer_time(exchange_at(-0.05))

    @pytest.mark.parametrize("cfg", [QUBIT, ModelConfig(ModelVariant.DISPERSIVE_FULL, delta=10.0)],
                             ids=["resonant", "dispersive-full"])
    def test_other_models_refused(self, cfg):
        for locate in (find_transfer_time, transfer_time_report):
            with pytest.raises(ValueError, match="defined on the exchange model"):
                locate(cfg)

    @pytest.mark.parametrize("j", [0.01, 0.05, 0.1, 1.0])
    def test_closed_form(self, j):
        assert find_transfer_time(exchange_at(j)) == pytest.approx(
            np.pi / (2 * np.sqrt(2) * j), rel=1e-12
        )
        assert transfer_time_report(exchange_at(j)).best_fidelity >= 1.0 - 1e-12

    def test_sequence_and_report_check_the_strength_once(self, monkeypatch, cold_store):
        builds, times = [], []
        build = SpectralPropagator.from_hamiltonian.__func__
        swap_fidelity = protocols._swap_fidelity

        def counted_build(cls, h):
            builds.append(h.shape)
            return build(cls, h)

        def counted_fidelity(prop, t):
            times.append(t)
            return swap_fidelity(prop, t)

        monkeypatch.setattr(SpectralPropagator, "from_hamiltonian", classmethod(counted_build))
        monkeypatch.setattr(protocols, "_swap_fidelity", counted_fidelity)
        # 1 / (2 J) is not 7.3 bit for bit, so a check keyed by J would build twice
        cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=7.3)
        assert 1.0 / (2.0 * cfg.j_exchange) != cfg.delta
        run_qnd_sequence(0.75, cfg, 1)
        assert len(builds) == 1 and times == [find_transfer_time(cfg)]
        # the sequence's propagator serves the check; t* once, the candidate once
        reports = [transfer_time_report(cfg) for _ in range(2)]
        assert reports[0] == reports[1]
        assert times == [reports[0].best_time, reports[0].candidate_time]
        assert len(builds) == 1

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(log_j=st.floats(-6.0, 6.0))
    def test_fidelity_over_log_uniform_strength(self, log_j):
        # the report locates the time through find_transfer_time
        assert transfer_time_report(exchange_at(10.0 ** log_j)).best_fidelity >= 1.0 - 1e-9


class TestQndSequence:
    def test_stage_maps_and_statistics(self):
        x = 0.75
        result = run_qnd_sequence(x, EXCHANGE, n_cycles=2)
        # even stages prepare an excited probe, odd stages a ground one
        np.testing.assert_allclose(result.p_excited[0::2], 2 * x - 1, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.p_excited[1::2], 2 * (1 - x), rtol=0, atol=1e-9)

    def test_counts_are_integers(self):
        # numpy integers count as their values; floats are refused, not truncated
        plain = run_qnd_sequence(0.75, None, 2, 100, seed=1)
        numpy_ints = run_qnd_sequence(0.75, None, np.int64(2), np.int64(100), seed=np.int64(1))
        assert np.array_equal(numpy_ints.p_excited, plain.p_excited)
        assert np.array_equal(numpy_ints.count_excited, plain.count_excited)
        assert numpy_ints.estimate == plain.estimate
        assert type(numpy_ints.shots_per_stage) is int
        for n_cycles, shots in ((1.5, 0), (2, 100.0)):
            with pytest.raises(TypeError):
                run_qnd_sequence(0.75, None, n_cycles, shots)

    def test_seed_is_an_integer(self):
        # checked in exact mode too, where no seed is hashed
        for shots in (0, 10):
            with pytest.raises(TypeError):
                run_qnd_sequence(0.7, None, 2, shots, 1.5)
        # a negative seed stays valid: stage i draws from derive_seed(seed, i)
        result = run_qnd_sequence(0.7, None, 2, 1000, -5)
        assert result.count_excited.tolist() == [
            sample_shots(p, 1000, derive_seed(-5, i)).count_excited
            for i, p in enumerate(result.p_excited.tolist())]

    def test_exact_mode_draws_and_hashes_nothing(self, monkeypatch):
        draws, hashes = [], []
        sample, splitmix = protocols.sample_shots, protocols._splitmix64
        monkeypatch.setattr(protocols, "sample_shots",
                            lambda *args: draws.append(args) or sample(*args))
        monkeypatch.setattr(protocols, "_splitmix64", lambda z: hashes.append(z) or splitmix(z))
        cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0)
        result = run_qnd_sequence(0.75, cfg, 50, 0)
        assert draws == [] and hashes == []
        assert result.count_excited.tolist() == [0] * 100
        for stages in (result.p_excited, result.count_excited):
            assert stages.shape == (100,) and not stages.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stages[0] = 1
        assert result.duration == find_transfer_time(cfg)
        assert result.shots_per_stage == 0
        # with shots: one draw per stage, and the seed's first round hashed
        # once for all stages (then one hash per stage seed, one per draw)
        run_qnd_sequence(0.75, cfg, 50, 1)
        assert len(draws) == 100 and len(hashes) == 1 + 2 * 100

    def test_excited_stage_is_corner_swap(self):
        # the excited-probe stage realizes the corner-swap map exactly
        t_star = find_transfer_time(EXCHANGE)
        prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(EXCHANGE))
        for x in (0.5, 0.75, 1.0):
            rho = one_param_density(x)
            joint = prop.apply(join_with_probe(rho, ProbePrep.EXCITED), t_star)
            ab = partial_trace(joint, {0, 1})
            assert trace_distance(ab.mat, corner_swap(rho).mat) <= 1e-9

    def test_restoration_over_five_cycles(self):
        for x in (0.6, 0.75, 0.9):
            result = run_qnd_sequence(x, EXCHANGE, n_cycles=5)
            dist = trace_distance(result.final_state.mat, one_param_density(x).mat)
            assert dist <= 1e-9

    def test_exact_mode_estimate(self):
        result = run_qnd_sequence(0.82, EXCHANGE, n_cycles=3, shots_per_stage=0)
        assert result.estimate.x_hat == pytest.approx(0.82, abs=1e-12)

    def test_singlet_statistics(self):
        result = run_qnd_sequence(1.0, EXCHANGE, n_cycles=1)
        e_law, g_law = result.p_excited
        assert e_law == pytest.approx(1.0, abs=1e-12)
        assert g_law == pytest.approx(0.0, abs=1e-12)

    def test_seeded_sampling_deterministic(self):
        a = run_qnd_sequence(0.75, EXCHANGE, 2, shots_per_stage=1000, seed=9)
        b = run_qnd_sequence(0.75, EXCHANGE, 2, shots_per_stage=1000, seed=9)
        assert a.count_excited.tolist() == b.count_excited.tolist()
        c = run_qnd_sequence(0.75, EXCHANGE, 2, shots_per_stage=1000, seed=10)
        assert a.count_excited.tolist() != c.count_excited.tolist()

    def test_sampled_estimate_near_truth(self):
        result = run_qnd_sequence(0.75, EXCHANGE, 1, shots_per_stage=10000, seed=7)
        est = result.estimate
        assert abs(est.x_hat - 0.75) <= 0.02
        assert est.ci99[0] <= 0.75 <= est.ci99[1]

    def test_wrong_model_rejected(self):
        with pytest.raises(ValueError):
            run_qnd_sequence(0.75, QUBIT)

    def test_detuning_below_dispersive_limit_rejected(self):
        near = ModelConfig(
            ModelVariant.DISPERSIVE_EFFECTIVE,
            delta=math.nextafter(MIN_DISPERSIVE_DELTA, 0.0),
        )
        with pytest.raises(ValueError, match="exchange model does not hold"):
            run_qnd_sequence(0.75, near)
        at_limit = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=MIN_DISPERSIVE_DELTA)
        assert run_qnd_sequence(0.75, at_limit).estimate.x_hat == pytest.approx(0.75)

    def test_cycles_bounded(self):
        with pytest.raises(ValueError, match=str(MAX_QND_CYCLES)):
            run_qnd_sequence(0.75, EXCHANGE, MAX_QND_CYCLES + 1)

    def test_total_shots_bounded(self):
        # each stage alone is under the cap; the two stages together are not
        with pytest.raises(ValueError, match=str(MAX_SHOTS)):
            run_qnd_sequence(0.75, EXCHANGE, 1, shots_per_stage=MAX_SHOTS // 2 + 1)


def stage_by_stage(x, cfg, n_cycles, shots_per_stage=0, seed=0):
    """The sequence one state object per stage: ((p_excited, count), ...), final state, estimate.

    Each stage joins a probe, applies the config's propagator, reduces to
    the probe and to the pair (every state checked on construction) and
    draws its shots before the next stage starts.
    """
    t_star = find_transfer_time(cfg)
    state = one_param_density(x)
    outcomes = []
    for i in range(2 * n_cycles):
        prep = (ProbePrep.EXCITED, ProbePrep.GROUND)[i % 2]
        joint = cfg.propagator.apply(join_with_probe(state, prep), t_star)
        probe = partial_trace(joint, {2})
        p_e = min(1.0, max(0.0, float(probe.mat[0, 0].real)))
        outcomes.append((p_e, sample_shots(p_e, shots_per_stage, derive_seed(seed, i))))
        state = partial_trace(joint, {0, 1})
    models = (EXCHANGE_E_READOUT, EXCHANGE_G_READOUT)
    if shots_per_stage == 0:
        estimate = estimate_exact([(models[i % 2], p) for i, (p, _) in enumerate(outcomes)])
    else:
        pooled = [ShotRecord(n_cycles * shots_per_stage,
                             sum(rec.count_excited for _, rec in outcomes[k::2]))
                  for k in (0, 1)]
        estimate = estimate_from_counts(list(zip(models, pooled)))
    return tuple((p, rec.count_excited) for p, rec in outcomes), state, estimate


def corrupted(prop, fault):
    """``prop`` with ``fault`` applied to every unitary it forms."""
    class Corrupted(SpectralPropagator):
        def unitary(self, t):
            return fault(SpectralPropagator.unitary(self, t))

    return Corrupted(prop.eigenvalues, prop.eigenvectors)


def with_propagator(prop):
    """An exchange config at delta 10 whose propagator is ``prop``.

    Its class differs from ``ModelConfig``, so it equals no config, and
    the model store, which keys by value, never hands ``prop`` to another.
    """
    class Injected(ModelConfig):
        propagator = prop

    return Injected(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0)


class TestQndStageChain:
    """The stage maps, checked as stacks, against one state per stage."""

    @pytest.mark.parametrize("x", [0.5, 2 / 3, 0.75, 1.0])
    def test_twenty_stages_agree_with_stage_by_stage(self, x):
        result = run_qnd_sequence(x, EXCHANGE, 10)
        outcomes, state, _ = stage_by_stage(x, EXCHANGE, 10)
        assert result.p_excited.shape == (20,)
        np.testing.assert_allclose(result.p_excited, [p for p, _ in outcomes], rtol=0, atol=1e-13)
        np.testing.assert_allclose(result.final_state.mat, state.mat, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("x", [0.5, 2 / 3, 0.75, 1.0])
    @pytest.mark.parametrize("n_cycles", [1, 3, QND_BATCH + 1])
    @pytest.mark.parametrize("shots", [0, 1000])
    def test_seeded_runs_agree_with_stage_by_stage(self, x, n_cycles, shots):
        result = run_qnd_sequence(x, EXCHANGE, n_cycles, shots, seed=5)
        outcomes, state, estimate = stage_by_stage(x, EXCHANGE, n_cycles, shots, seed=5)
        assert result.count_excited.tolist() == [k for _, k in outcomes]
        np.testing.assert_allclose(result.p_excited, [p for p, _ in outcomes], rtol=0, atol=1e-13)
        np.testing.assert_allclose(result.final_state.mat, state.mat, rtol=0, atol=1e-13)
        assert result.final_state.space == state.space
        if shots:
            assert result.estimate == estimate
        else:
            assert result.estimate.x_hat == pytest.approx(estimate.x_hat, rel=0, abs=1e-13)

    def test_longest_exact_sequence_restores_the_pair(self):
        x = 0.75
        result = run_qnd_sequence(x, EXCHANGE, MAX_QND_CYCLES)
        assert MAX_QND_CYCLES == 10 ** 4 and result.p_excited.shape == (2 * MAX_QND_CYCLES,)
        assert abs(result.estimate.x_hat - x) <= 1e-12
        restoration = trace_distance_x_stack(result.final_state.mat[None],
                                             one_param_density(x).mat[None])[0]
        assert restoration <= 1e-8

    @staticmethod
    def counted_checks(monkeypatch):
        """Shapes of every stack check_density_stack sees, through every module's binding."""
        check, shapes = qprobe.qcore.check_density_stack, []

        def counted(mats):
            shapes.append(mats.shape)
            return check(mats)

        for name, module in list(sys.modules.items()):
            if name.startswith("qprobe") and getattr(module, "check_density_stack",
                                                      None) is check:
                monkeypatch.setattr(module, "check_density_stack", counted)
        return shapes

    def test_three_cycles_take_one_stack_check(self, monkeypatch):
        find_transfer_time(EXCHANGE)  # its check is kept
        shapes = self.counted_checks(monkeypatch)
        run_qnd_sequence(0.75, EXCHANGE, 3)
        # the family state, the six pairs, the estimate's family state
        assert shapes == [(1, 4, 4), (6, 4, 4), (1, 4, 4)]

    def test_batches_bound_the_stacks(self, monkeypatch):
        whole = run_qnd_sequence(0.8, EXCHANGE, 5, 1000, seed=2)
        monkeypatch.setattr(protocols, "QND_BATCH", 2)
        shapes = self.counted_checks(monkeypatch)
        batched = run_qnd_sequence(0.8, EXCHANGE, 5, 1000, seed=2)
        assert batched.p_excited.tobytes() == whole.p_excited.tobytes()
        assert np.array_equal(batched.count_excited, whole.count_excited)
        assert batched.estimate == whole.estimate
        assert batched.final_state.mat.tobytes() == whole.final_state.mat.tobytes()
        # ten stages in batches of four: one stack of pairs per batch
        stage_stacks = [n for n, d, _ in shapes if (n, d) != (1, 4)]
        assert stage_stacks == [4, 4, 2]

    @pytest.mark.parametrize("batch", [QND_BATCH, 1])
    @pytest.mark.parametrize("fault,n_cycles,message", [
        (lambda u: 1.001 * u, 5, "trace differs from one"),
        # the trace drifts past 1e-10 only after a few stages
        (lambda u: (1.0 + 1e-11) * u, 5, "trace differs from one"),
        (lambda u: np.where(np.eye(8, dtype=bool), np.nan, u), 5, "non-finite entries"),
        # the trace grows 100-fold per stage and overflows within the batch:
        # the pairs' stack holds inf, but the first refusal is a trace
        (lambda u: 10.0 * u, QND_BATCH, "trace differs from one"),
    ], ids=["scaled", "drifting", "nan", "overflowing"])
    def test_corrupted_unitary_raises_as_stage_by_stage(self, monkeypatch, batch, fault,
                                                        n_cycles, message):
        monkeypatch.setattr(protocols, "QND_BATCH", batch)
        cfg = with_propagator(corrupted(EXCHANGE.propagator, fault))
        with pytest.raises(ValueError) as per_stage:
            stage_by_stage(0.75, cfg, n_cycles)
        with pytest.raises(ValueError) as stacked:
            run_qnd_sequence(0.75, cfg, n_cycles)
        assert str(stacked.value) == str(per_stage.value) == message

    def test_no_shot_is_drawn_before_its_stage_is_checked(self, monkeypatch):
        drawn, sample = [], protocols.sample_shots

        def counted_sample(p, shots, seed):
            drawn.append(seed)
            return sample(p, shots, seed)

        monkeypatch.setattr(protocols, "sample_shots", counted_sample)
        cfg = with_propagator(corrupted(EXCHANGE.propagator, lambda u: 1.001 * u))
        with pytest.raises(ValueError, match="trace differs from one"):
            run_qnd_sequence(0.75, cfg, 3, 1000)
        assert drawn == []


class TestBlockProducts:
    def test_formed_once_and_read_only(self):
        offsets, mixed = protocols._block_products()
        assert protocols._block_products()[1] is mixed
        assert offsets.shape == mixed.shape == (SHOT_BLOCK,)
        assert not offsets.flags.writeable and not mixed.flags.writeable
        assert mixed.tolist() == [k * 0xBF58476D1CE4E5B9 % 2 ** 64 for k in range(SHOT_BLOCK)]

    def test_block_arrays_start_on_the_alignment(self):
        # every whole block reads the products and the three work buffers
        arrays = [*protocols._block_products(), *protocols._work_buffers()]
        assert all(a.__array_interface__["data"][0] % protocols.ALIGN == 0 for a in arrays[1:])
        assert [a.shape for a in arrays] == [(SHOT_BLOCK,)] * 5
        # no two share memory
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])

    def test_not_formed_at_import(self):
        code = ("import qprobe.cli, qprobe.protocols as p; "
                "assert p._block_products.cache_info().currsize == 0; "
                "assert not hasattr(p._work, 'buffers'); "
                "p.sample_shots(0.5, 10, 1); "
                "assert p._block_products.cache_info().currsize == 1; "
                "assert hasattr(p._work, 'buffers')")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


class TestWorkBuffers:
    """Each thread draws into its own buffers, formed on its first draw."""

    #: head, whole and tail blocks: the counters start ``head`` before a multiple of SHOT_BLOCK
    SHOTS = 3 * SHOT_BLOCK + 5
    SEEDS = [seed_with_counter(0, TestSamplerShortcuts.ALIGNED - head)
             for head in (6, 1000, SHOT_BLOCK // 2, SHOT_BLOCK - 1)]
    PS = (1e-7, 0.3, 0.5, 1.0 - 1e-9)

    def test_concurrent_draws_equal_sequential_draws(self):
        draws = [(p, seed) for p in self.PS for seed in self.SEEDS]
        for seed in self.SEEDS:
            head = -counter_of(seed, 0) % SHOT_BLOCK
            assert 5 < head and divmod(self.SHOTS - head, SHOT_BLOCK)[0] == 2
        want = {draw: sample_shots(draw[0], self.SHOTS, draw[1]).count_excited
                for draw in draws}
        n_threads, rounds = 4, 3
        start = threading.Barrier(n_threads, timeout=60)
        got = [[] for _ in range(n_threads)]
        buffers = [None] * n_threads

        def worker(k):
            start.wait()
            for r in range(rounds):
                # each thread walks the draws from its own offset
                for i in range(len(draws)):
                    p, seed = draws[(i + k + r) % len(draws)]
                    got[k].append(((p, seed), sample_shots(p, self.SHOTS, seed).count_excited))
            buffers[k] = protocols._work_buffers()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(counts) == rounds * len(draws) for counts in got)
        assert all(count == want[draw] for counts in got for draw, count in counts)
        # four threads, four sets of buffers, none of them this thread's
        arrays = [a for bufs in [*buffers, protocols._work_buffers()] for a in bufs]
        assert len({id(a) for a in arrays}) == 3 * (n_threads + 1)

    def test_a_warm_draw_allocates_under_64_kb(self):
        sample_shots(0.3, 10 ** 6, 1)  # forms this thread's buffers
        tracemalloc.start()
        try:
            rec = sample_shots(0.3, 10 ** 6, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.count_excited == one_shot_count(0.3, 10 ** 6, 2)
        assert peak < 64 * 1024


class TestCoverage:
    def test_ci99_coverage_over_fixed_seeds(self):
        # 100 fixed seeds; the 99% interval must contain the truth in
        # at least 99 of them and the point estimate stays within 0.02
        x = 0.75
        hits = 0
        for seed in range(100):
            result = run_qnd_sequence(x, EXCHANGE, 1, shots_per_stage=10000, seed=seed)
            est = result.estimate
            assert abs(est.x_hat - x) <= 0.02
            if est.ci99[0] <= x <= est.ci99[1]:
                hits += 1
        assert hits >= 99
