"""End-to-end acceptance gates at the reference configuration.

Each test prints one PASS/FAIL line (visible in the live log) and asserts
the same condition, with every tolerance pinned in the source.
"""

import math

import numpy as np
import pytest

import susyoptics as so


@pytest.fixture(scope="module")
def cfg():
    return so.parse_config(None)


@pytest.fixture(scope="module")
def spectrum_result(cfg):
    return so.run_spectrum(cfg)


@pytest.fixture(scope="module")
def susy_result(cfg):
    return so.run_susy_check(cfg)


@pytest.fixture(scope="module")
def eta_result(cfg):
    return so.run_eta_sweep(cfg)


@pytest.fixture(scope="module")
def bdag_result(cfg):
    return so.run_bdag_validation(cfg)


@pytest.fixture(scope="module")
def trotter_result(cfg):
    return so.run_trotter_convergence(cfg)


def _scalars(result):
    return {s.name: s.value for s in result.scalars}


def _report(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_two_path_fidelity(susy_result, capsys):
    fid = _scalars(susy_result)["fidelity_final"]
    passed = 0.9953 <= fid <= 0.9993
    _report(capsys, 1, passed,
            f"two-path fidelity at 3T = {fid:.6f}, window [0.9953, 0.9993]")


def test_criterion_2_trotter_vs_oracle(trotter_result, capsys):
    fid = _scalars(trotter_result)["fidelity_n30"]
    passed = 0.9993 <= fid <= 1.0
    _report(capsys, 2, passed,
            f"30-step fidelity vs diagonalization at T/2 = {fid:.6f}, "
            f"window [0.9993, 1.0]")


def test_criterion_3_interferometric_raising(bdag_result, capsys):
    s = _scalars(bdag_result)
    passed = (s["rel_l2_reference"] < 1e-5
              and s["max_pointwise_reference"] < 1e-5
              and s["rel_l2_reduced"] < 1e-3)
    _report(capsys, 3, passed,
            f"interferometer errors: rel L2 {s['rel_l2_reference']:.3e} < 1e-5 "
            f"(f^2/rho^2 = {s['fom_reference']:.0f}), reduced "
            f"{s['rel_l2_reduced']:.3e} < 1e-3 (f^2/rho^2 = {s['fom_reduced']:.0f})")


def test_criterion_4_eta_peaks(cfg, eta_result, capsys):
    s = _scalars(eta_result)
    step = (cfg.eta_max - cfg.eta_min) / (cfg.eta_points - 1)
    passed = (abs(s["argmax_eta_positive"] - 1.0) <= step + 1e-12
              and abs(s["argmax_eta_negative"] + 1.0) <= step + 1e-12
              and s["peak_fidelity"] >= 0.995)
    _report(capsys, 4, passed,
            f"fidelity peaks at eta = {s['argmax_eta_positive']:+.2f} / "
            f"{s['argmax_eta_negative']:+.2f} (targets +1/-1, step {step:.3f}), "
            f"peak {s['peak_fidelity']:.6f} >= 0.995")


def test_criterion_5_offset_degeneracy(cfg, spectrum_result, capsys):
    s = _scalars(spectrum_result)
    tol = 1e-6 * cfg.omega
    passed = (s["max_paired_gap"] <= tol
              and abs(s["ground_energy_v2"]) <= tol
              and cfg.spectrum_levels == 8)
    _report(capsys, 5, passed,
            f"8 paired gaps within {s['max_paired_gap']:.2e} <= 1e-6, "
            f"unpaired ground at {s['ground_energy_v2']:.2e}")


def test_criterion_6_step_distance(trotter_result, capsys):
    z = _scalars(trotter_result)["z_reference_m"]
    passed = 1.2365 <= z <= 1.2375
    _report(capsys, 6, passed,
            f"T/60 step at 532 nm, 1 mm waist -> {z:.6f} m, "
            f"window [1.2365, 1.2375]")


def test_criterion_7_convergence_slopes(trotter_result, capsys):
    s = _scalars(trotter_result)
    passed = (-2.4 <= s["slope_second"] <= -1.6
              and -1.3 <= s["slope_first"] <= -0.7)
    _report(capsys, 7, passed,
            f"log-log error slopes: second order {s['slope_second']:.3f} in "
            f"[-2.4, -1.6], first order {s['slope_first']:.3f} in [-1.3, -0.7]")


def test_criterion_8_property_suites(grid, W, v1, v2, psi0, battery,
                                     basis_v1, basis_v2, units, capsys):
    checks = []

    # unitarity of both product orders over 60 steps
    for order in ("first", "second"):
        plan = so.TrotterPlan(2.0 * math.pi / 60.0, 60, order=order)
        final = so.trotter_evolve(psi0, v2, plan)
        checks.append((f"unitarity[{order}]", abs(so.norm(final) - 1.0) <= 1e-12))

    # Parseval: the momentum map preserves norms and inner products
    a, b = battery[0], battery[1]
    pa, pb = so.to_momentum(a), so.to_momentum(b)
    checks.append(("parseval_norm", abs(so.norm(pa) - so.norm(a)) <= 1e-12))
    checks.append(("parseval_inner",
                   abs(so.inner(pa, pb) - so.inner(a, b)) <= 1e-12))

    # adjointness of the ladder pair on random smooth states
    adj = max(abs(so.inner(so.apply_B(x, W), y)
                  - so.inner(x, so.apply_B_dag(y, W)))
              for x, y in zip(battery[:-1], battery[1:]))
    checks.append(("adjointness", adj <= 1e-10))

    # intertwining through the diagonalization oracle over 3T
    t = 3 * 2.0 * math.pi
    worst = min(
        so.fidelity(so.apply_B_dag(so.exact_evolve(s, v1, t, basis=basis_v1), W),
                    so.exact_evolve(so.apply_B_dag(s, W), v2, t, basis=basis_v2))
        for s in battery)
    checks.append(("intertwining", worst >= 1.0 - 1e-6))

    # raising maps level n of the first partner onto level n+1 of the second
    s1 = so.bound_spectrum(v1, 6)
    s2 = so.bound_spectrum(v2, 7)
    mapped = min(so.fidelity(so.apply_B_dag(s1.states[n], W), s2.states[n + 1])
                 for n in range(6))
    checks.append(("eigenstate_mapping", mapped >= 1.0 - 1e-6))

    # the compiled plate train reproduces the abstract propagator
    plan = so.TrotterPlan(2.0 * math.pi / 60.0, 30)
    train_out = so.simulate_train(psi0, so.compile_trotter_train(plan, v2, units))
    plain_out = so.trotter_evolve(psi0, v2, plan)
    mu = np.vdot(train_out.values, plain_out.values)
    dev = np.max(np.abs(train_out.values * (mu / abs(mu)) - plain_out.values))
    checks.append(("train_equivalence", dev / np.max(np.abs(plain_out.values)) <= 1e-10))

    # harmonic regressions with the barrier off
    w0 = so.Superpotential(1.0, 0.0)
    h1 = so.partner_potential(w0, 1, grid)
    h2 = so.partner_potential(w0, 2, grid)
    e1 = so.bound_spectrum(h1, 8).energies
    e2 = so.bound_spectrum(h2, 8).energies
    checks.append(("harmonic_spectra",
                   bool(np.max(np.abs(e1 - np.arange(8) - 1.0)) <= 1e-9
                        and np.max(np.abs(e2 - np.arange(8))) <= 1e-9)))
    revival = so.fidelity(
        so.trotter_evolve(psi0, h2, so.TrotterPlan(2.0 * math.pi / 60.0, 60)), psi0)
    checks.append(("coherent_revival", revival >= 0.9999))
    z0 = so.zero_mode(W, grid)
    checks.append(("zero_mode_annihilation",
                   so.norm(so.apply_B(z0, W)) <= 1e-8))

    failed = [name for name, ok in checks if not ok]
    detail = (f"{len(checks)} property checks green" if not failed
              else f"failed: {', '.join(failed)}")
    _report(capsys, 8, not failed, detail)
