"""Acceptance suite: one test (or sub-test) per criterion, each printing
a PASS line with the measured worst case.  Run with ``pytest -v -s``.

Criterion 7a is marked as a strict expected failure: the closed form's
population branch evaluates below the true definitional minimum on part
of the family (x in [0.5284, 2/3)), so the stated inequality cannot
hold there; see notes in the repository docs and the module test
``test_population_branch_undercuts_definitional_minimum``.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from qprobe.cli import main as cli_main
from qprobe.dynamics import (
    ModelConfig,
    ModelVariant,
    NoiseConfig,
    build_hamiltonian,
    dispersive_deviation,
    initial_joint,
    integrate_master,
    probe_lowering,
    sigma_z_expectation,
)
from qprobe.measures import (
    classical_correlation_optimized,
    concurrence,
    concurrence_time_formula,
    correlation_report,
    infer_from_sigmaz,
)
from qprobe.protocols import (
    find_transfer_time,
    run_qnd_sequence,
    transfer_time_report,
)
from qprobe.qcore import SpectralPropagator, entropy_bits, partial_trace, trace_distance
from qprobe.states import ProbePrep, corner_swap, extract_xstate, join_with_probe, one_param_density

QUBIT = ModelConfig(ModelVariant.RESONANT_QUBIT)
EXCHANGE = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=10.0)
X11 = np.linspace(0.5, 1.0, 11)


def qubit_propagator():
    return SpectralPropagator.from_hamiltonian(build_hamiltonian(QUBIT))


def test_c01_concurrence_golden():
    worst = 0.0
    for x in np.linspace(0.5, 1.0, 51):
        worst = max(worst, abs(concurrence(one_param_density(x)) - abs(2 - 3 * x)))
    assert worst <= 1e-10
    print(f"ACCEPTANCE 1 PASS: concurrence golden rule, worst |dev| = {worst:.2e}")


def test_c02_dynamic_concurrence_formula():
    prop = qubit_propagator()
    worst = 0.0
    for x in (0.5, 0.75, 0.9):
        joint0 = initial_joint(x, QUBIT, ProbePrep.GROUND)
        for gt in np.linspace(0.0, 2 * np.pi, 200):
            ab = partial_trace(prop.apply(joint0, gt), {0, 1})
            worst = max(worst, abs(concurrence(ab) - concurrence_time_formula(x, gt)))
    assert worst <= 1e-8
    print(f"ACCEPTANCE 2 PASS: evolved concurrence vs formula, worst = {worst:.2e}")


def test_c03_probe_population_law():
    prop = qubit_propagator()
    worst = 0.0
    for x in (0.5, 0.75, 0.9):
        joint0 = initial_joint(x, QUBIT, ProbePrep.GROUND)
        for gt in np.linspace(0.0, 2 * np.pi, 200):
            probe = partial_trace(prop.apply(joint0, gt), {2})
            p_e = float(probe.mat[0, 0].real)
            worst = max(worst, abs(p_e - 2 * (1 - x) * np.sin(gt) ** 2))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 3 PASS: probe excitation law, worst = {worst:.2e}")


def test_c04_readout_identity_and_inversion():
    prop = qubit_propagator()
    worst_z = 0.0
    worst_x = 0.0
    for n in (1, 3):
        for x in X11:
            joint0 = initial_joint(x, QUBIT, ProbePrep.GROUND)
            probe = partial_trace(prop.apply(joint0, n * np.pi / 2), {2})
            z = sigma_z_expectation(probe)
            worst_z = max(worst_z, abs(z - (3 - 4 * x)))
            inferred = infer_from_sigmaz(min(1.0, max(-1.0, z)))
            worst_x = max(worst_x, abs(inferred.x_hat - x))
    assert worst_z <= 1e-9
    assert worst_x <= 1e-12
    print(
        "ACCEPTANCE 4 PASS: sigma_z identity "
        f"(worst {worst_z:.2e}) and inversion (worst {worst_x:.2e})"
    )


def test_c05_non_disturbance_of_measures():
    prop = qubit_propagator()
    worst = 0.0
    for x in X11:
        before = correlation_report(one_param_density(x))
        joint0 = initial_joint(x, QUBIT, ProbePrep.GROUND)
        for n in range(1, 5):
            ab = partial_trace(prop.apply(joint0, n * np.pi / 2), {0, 1})
            after = correlation_report(ab)
            for name in ("concurrence", "mutual_info", "classical", "discord"):
                worst = max(worst, abs(getattr(after, name) - getattr(before, name)))
    assert worst <= 1e-6
    print(f"ACCEPTANCE 5 PASS: measures undisturbed at half periods, worst = {worst:.2e}")


def test_c06_corner_swap_invariance():
    worst = 0.0
    worst_closed = 0.0
    for x in X11:
        a = correlation_report(one_param_density(x))
        b = correlation_report(corner_swap(one_param_density(x)))
        for name in ("concurrence", "mutual_info", "classical", "discord"):
            worst = max(worst, abs(getattr(a, name) - getattr(b, name)))
        if x >= 0.5284:  # both sides select the same closed-form branch here
            worst_closed = max(
                worst_closed, abs(a.classical_closed_form - b.classical_closed_form)
            )
    assert worst <= 1e-6
    assert worst_closed <= 1e-6
    print(f"ACCEPTANCE 6 PASS: corner-swap invariance of measures, worst = {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="closed-form population branch evaluates below the definitional "
    "conditional-entropy minimum for x in [0.5284, 2/3): the branch "
    "expression reduces to 2*r22 there, which is not the conditional "
    "entropy of any measurement of this family, so the stated dominance "
    "inequality cannot hold; see decisions ledger and module tests",
)
def test_c07a_closed_form_dominance_as_stated():
    for x in np.linspace(0.5, 1.0, 26):
        rho = one_param_density(x)
        xs = extract_xstate(rho)
        s_a = entropy_bits(np.diag([xs.r11 + xs.r22, xs.r33 + xs.r44]))
        value, _ = classical_correlation_optimized(rho)
        ce_min = s_a - value
        branch1 = 2.0 * xs.r22
        th = np.sqrt((xs.r11 - xs.r44) ** 2 + 4 * xs.r23 ** 2)
        branch2 = 1.0 - 0.5 * (
            ((1 - th) * np.log2(1 - th) if th < 1 else 0.0)
            + (1 + th) * np.log2(1 + th)
        )
        assert ce_min <= min(branch1, branch2) + 1e-6, (
            f"x={x:.4f}: definitional CE minimum {ce_min:.6f} exceeds "
            f"population-branch value {branch1:.6f}"
        )
    print("ACCEPTANCE 7a: dominance over both closed-form branches")


def test_c07b_transverse_branch_agreement_at_half():
    value, _ = classical_correlation_optimized(one_param_density(0.5))
    closed = 0.21040208776627667  # H2(1/4) - H2((1-sqrt(.5))/2), frozen
    assert abs(value - closed) <= 1e-6
    print(f"ACCEPTANCE 7b PASS: closed-form branch-2 agreement at x=0.5, "
          f"|dev| = {abs(value - closed):.2e}")


def test_c07c_branch_divergence_at_pure_point():
    from qprobe.measures import classical_correlation_closed_form

    closed = classical_correlation_closed_form(extract_xstate(one_param_density(1.0)))
    definitional, _ = classical_correlation_optimized(one_param_density(1.0))
    assert closed == pytest.approx(0.0, abs=1e-12)
    assert definitional == pytest.approx(1.0, abs=1e-6)
    print(
        "ACCEPTANCE 7c PASS: closed form -> 0 vs definitional -> 1 at x = 1 "
        "(divergence reproduced and reported, not reconciled)"
    )


def test_c08_lindblad_correctness():
    joint0 = initial_joint(0.75, QUBIT, ProbePrep.GROUND)
    t1 = np.pi / 2

    res = integrate_master(joint0, QUBIT, NoiseConfig(gamma=0.0), t1)
    expect = qubit_propagator().apply(joint0, t1)
    unitary_dev = np.max(np.abs(res.joint_states[-1].mat - expect.mat))
    assert unitary_dev <= 1e-6

    times = np.linspace(0.1, t1, 6)
    noisy = integrate_master(joint0, QUBIT, NoiseConfig(gamma=0.1), t1, sample_times=times)
    trace_drift = max(abs(np.trace(s.mat).real - 1.0) for s in noisy.joint_states)
    min_eig = min(np.linalg.eigvalsh(s.mat)[0] for s in noisy.joint_states)
    assert trace_drift <= 1e-8
    assert min_eig >= -1e-8

    # the same master equation as a dense 64 x 64 superoperator on the
    # row-major vec(rho): vec(A rho B) = (A kron B^T) vec(rho)
    h = build_hamiltonian(QUBIT)
    low = probe_lowering(QUBIT)
    damp = low.conj().T @ low
    eye = np.eye(8)
    liouvillian = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + 0.1 * (
        2.0 * np.kron(low, low.conj()) - np.kron(damp, eye) - np.kron(eye, damp.T))
    exact = (expm(t1 * liouvillian) @ joint0.mat.ravel()).reshape(8, 8)
    expm_dev = np.max(np.abs(noisy.joint_states[-1].mat - exact))
    assert expm_dev <= 1e-12
    print(
        "ACCEPTANCE 8 PASS: Lindblad integrator "
        f"(unitary-limit dev {unitary_dev:.2e}, trace drift {trace_drift:.2e}, "
        f"min eig {min_eig:.2e}, expm dev {expm_dev:.2e})"
    )


def test_c09_noisy_sweep_artifacts(tmp_path):
    csv_a = tmp_path / "fig23a.csv"
    csv_b = tmp_path / "fig23b.csv"
    for path in (csv_a, csv_b):
        code = cli_main(["sweep", "--gamma", "0.1", "--out", str(path)])
        assert code == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()

    lines = csv_a.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(v) for v in ln.split(",")))) for ln in lines[1:]]
    assert len(rows) == 51

    assert all(r["concurrence_noisy"] <= r["concurrence"] + 1e-12 for r in rows)
    gain_region = [r["x"] for r in rows if r["x"] > 0.8 and r["discord_noisy"] > r["discord"]]
    assert gain_region, "expected a discord gain region above x = 0.8"

    svg_a = tmp_path / "fig2a.svg"
    svg_b = tmp_path / "fig2b.svg"
    for path in (svg_a, svg_b):
        code = cli_main([
            "plot", "--csv", str(csv_a),
            "--columns", "discord,classical,discord_noisy,classical_noisy",
            "--out", str(path),
        ])
        assert code == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert svg_a.read_text().count("<polyline") == 4
    print(
        "ACCEPTANCE 9 PASS: deterministic noisy-sweep artifacts; discord gain at "
        f"x in {{{', '.join(f'{v:.2f}' for v in gain_region)}}}"
    )


def test_c10_dispersive_validity():
    d20 = dispersive_deviation(0.75, 20.0)
    d40 = dispersive_deviation(0.75, 40.0)
    assert d20 <= 0.05
    assert d40 < d20
    print(f"ACCEPTANCE 10 PASS: dispersive deviation {d20:.4f} at 20g, {d40:.4f} at 40g")


def test_c11_qnd_protocol():
    t_star = find_transfer_time(EXCHANGE.j_exchange)
    prop = SpectralPropagator.from_hamiltonian(build_hamiltonian(EXCHANGE))
    worst_swap = 0.0
    for x in X11:
        rho = one_param_density(x)
        joint = prop.apply(join_with_probe(rho, ProbePrep.EXCITED), t_star)
        ab = partial_trace(joint, {0, 1})
        worst_swap = max(worst_swap, trace_distance(ab.mat, corner_swap(rho).mat))
    assert worst_swap <= 1e-9

    worst_restore = 0.0
    for x in (0.6, 0.75, 0.9):
        result = run_qnd_sequence(x, EXCHANGE, n_cycles=5)
        worst_restore = max(
            worst_restore,
            trace_distance(result.final_state.mat, one_param_density(x).mat),
        )
    assert worst_restore <= 1e-9

    rep = transfer_time_report(EXCHANGE.j_exchange)
    assert rep.best_fidelity >= 1 - 1e-9
    assert rep.candidate_fidelity < 1 - 1e-3
    print(
        "ACCEPTANCE 11 PASS: stage map dev "
        f"{worst_swap:.2e}, 5-cycle restoration {worst_restore:.2e}, transfer "
        f"fidelity {rep.best_fidelity:.12f} vs {rep.candidate_fidelity:.4f} at "
        "the delta*pi/g^2 candidate"
    )


def test_c12_estimation_coverage():
    x = 0.75
    hits = 0
    worst = 0.0
    for seed in range(100):
        est = run_qnd_sequence(x, EXCHANGE, 1, shots_per_stage=10000, seed=seed).estimate
        worst = max(worst, abs(est.x_hat - x))
        if est.ci99[0] <= x <= est.ci99[1]:
            hits += 1
    assert worst <= 0.02
    assert hits >= 99
    print(
        f"ACCEPTANCE 12 PASS: estimation |x_hat - x| worst {worst:.4f}, "
        f"99% CI coverage {hits}/100 fixed seeds"
    )
