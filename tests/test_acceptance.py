"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavier driven-chain
criteria run in a few minutes each on a workstation; everything else is
seconds.
"""

import math

import numpy as np
import pytest

from scarsim.analysis import (
    RIGIDITY_GRID,
    fit_damped_cosine,
    fit_decay_plane,
    fourier_spectrum,
    imbalance,
    subharmonic_rigidity,
    subharmonic_weight,
    weight_at,
)
from scarsim.evolve import (
    EvolutionConfig,
    build_system,
    dense_propagator,
    entanglement_entropy,
    propagate_step,
    reduced_density_matrix,
    run_quench,
)
from scarsim.floquet import (
    TAU_C,
    PulsedParams,
    apply_period,
    pulsed_subharmonic_map,
    revival_fidelity_map,
)
from scarsim.hamiltonian import (
    DriveProfile,
    build_pxp,
    build_rydberg,
    detuning_at,
    parity_diagonal,
)
from scarsim.hilbert import (
    canonical_states,
    enumerate_blockaded,
    reflection_grouping,
)
from scarsim.lattice import (
    PhysicalParams,
    build_lattice,
    decay_predictors,
    optimal_detuning,
    predict_lifetime,
)

P42_51 = PhysicalParams.from_mhz(4.2, 51.0)


def _report(n: int, text: str) -> None:
    print(f"\n[acceptance] criterion {n:2d}: PASS - {text}")


def unit_state(basis, state):
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index_of(state)] = 1.0
    return psi


def af1_quench(lat, basis, parts, drive, total_time, record_stride=2,
               entropy_cuts=(), record_probs=False, dt=0.002, psi0=None):
    """A quench from AF1; ``psi0`` is AF1 in the basis of ``parts`` when
    they are restricted (:func:`scarsim.evolve.build_system`)."""
    if psi0 is None:
        psi0 = unit_state(basis, canonical_states(lat)[0])
    cfg = EvolutionConfig(total_time=total_time, dt=dt,
                          record_stride=record_stride)
    return run_quench(lat, basis, parts, drive, psi0, cfg,
                      entropy_cuts=entropy_cuts, record_probs=record_probs)


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def test_criterion_01_constrained_basis_exactness():
    lat9 = build_lattice("chain", 9)
    basis9 = enumerate_blockaded(lat9)
    assert basis9.dim == 89
    ordering = reflection_grouping(basis9, lat9)
    assert ordering.n_classes == 51
    for length in range(3, 21):
        lat = build_lattice("chain", length)
        basis = enumerate_blockaded(lat)
        assert basis.dim == fib(length + 2)
        if length <= 16:
            brute = [s for s in range(1 << length)
                     if all(not ((s >> int(i)) & (s >> int(j)) & 1)
                            for i, j in lat.nn_pairs)]
            assert basis.states.tolist() == brute
    _report(1, "9-chain: 89 states -> 51 classes; Fibonacci law exact for "
               "L=3..20 with brute-force match to L=16")


def test_criterion_02_optimal_detuning_constants():
    p = P42_51
    checks = [("chain", 41, 0.0173), ("honeycomb", 10.0, 0.153), ("square", 15, 0.33)]
    got = {}
    for kind, extent, want in checks:
        lat = build_lattice(kind, extent)
        assert lat.n_sites >= {"chain": 41, "honeycomb": 200, "square": 225}[kind]
        val = optimal_detuning(lat, p) / p.v0
        assert val == pytest.approx(want, rel=0.02), kind
        got[kind] = val
    _report(2, "bulk detuning/V0 = "
               + ", ".join(f"{k} {v:.5f}" for k, v in got.items())
               + " (each within 2%)")


def test_criterion_03_many_body_echo_and_particle_hole():
    lat = build_lattice("chain", 12, periodic=True)
    basis = enumerate_blockaded(lat)
    parts = build_pxp(lat, basis, PhysicalParams(omega=1.0, v0=1.0))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        tau = rng.uniform(0.1, math.tau)
        pp = PulsedParams(theta=math.pi, tau=tau)
        for _ in range(10):
            psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
            psi /= np.linalg.norm(psi)
            out = apply_period(apply_period(psi, pp, basis, parts), pp, basis, parts)
            worst = max(worst, float(np.linalg.norm(out - psi)))
    assert worst < 1e-8
    c = parity_diagonal(basis)
    h = parts.flip.matrix
    diff = h.multiply(np.outer(c, c)) + h
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
    _report(3, f"echo deviation {worst:.2e} over 100 states x 10 taus; "
               "particle-hole anticommutation exact")


def test_criterion_04_krylov_vs_dense_oracle():
    p = P42_51
    worst_const, worst_cos, worst_norm = 0.0, 0.0, 0.0
    geometries = [build_lattice("chain", 8),
                  build_lattice("zigzag_chain", 8, 1.45),
                  build_lattice("zigzag_chain", 8, 1.7)]
    for gi, lat in enumerate(geometries):
        basis = enumerate_blockaded(lat)
        parts = build_rydberg(lat, basis, p)
        rng = np.random.default_rng(gi)
        psi0 = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        psi0 /= np.linalg.norm(psi0)
        # constant drive, 5 us total
        drive = DriveProfile.constant(0.3 * p.omega)
        dt, steps = 0.002, 2500
        psi = psi0.copy()
        for k in range(steps):
            psi = propagate_step(parts, drive, psi, k * dt, dt)
        ref = dense_propagator(parts, drive.delta0, steps * dt) @ psi0
        worst_const = max(worst_const, float(np.abs(psi - ref).max()))
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(psi)) - 1.0))
        # cosine drive against the dense stepwise oracle
        drive = DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, 1.2 * p.omega)
        psi, ref = psi0.copy(), psi0.copy()
        for k in range(400):
            t = k * 0.001
            psi = propagate_step(parts, drive, psi, t, 0.001)
            ref = dense_propagator(parts, detuning_at(drive, t + 0.0005), 0.001) @ ref
        worst_cos = max(worst_cos, float(np.abs(psi - ref).max()))
    assert worst_const < 1e-8 and worst_cos < 1e-8
    assert worst_norm < 1e-9
    _report(4, f"max amplitude error {max(worst_const, worst_cos):.2e} "
               f"(constant and cosine drives), norm drift {worst_norm:.2e}")


def test_criterion_05_scar_revival_frequency():
    p = P42_51
    lat = build_lattice("chain", 12, periodic=True)
    basis, parts, psi0 = build_system(lat, "pxp", p, "AF1")
    res = af1_quench(lat, basis, parts, DriveProfile.constant(0.0), 1.5,
                     record_stride=1, psi0=psi0)
    fit = fit_damped_cosine(imbalance(res), res.times)
    assert fit.converged
    ratio = fit.omega_tilde / p.omega
    assert 0.55 <= ratio <= 0.75
    _report(5, f"fitted oscillation frequency {ratio:.4f} Omega in [0.55, 0.75]")


def test_criterion_06_lifetime_prediction_consistency():
    # formula-level check at the published coefficients
    p_chain = PhysicalParams.from_mhz(4.2, 19.0)
    x, y = decay_predictors(build_lattice("chain", 9), p_chain)
    tau_chain = predict_lifetime(x, y, 0.72, 0.58, 1 / 0.4)
    assert tau_chain == pytest.approx(0.9, rel=0.15)
    hc = build_lattice("honeycomb", 4.0)
    taus = []
    for fv in np.linspace(5.0, 16.0, 45):
        p = PhysicalParams.from_mhz(4.2, fv)
        x, y = decay_predictors(hc, p)
        taus.append(predict_lifetime(x, y, 0.72, 0.58, 1 / 0.4))
    tau_hc = max(taus)
    assert tau_hc == pytest.approx(0.4, rel=0.15)

    # simulated 9-site sweeps: decay rate affine in the predictors
    points = []
    for fo in [1.4, 1.7, 2.0, 2.3, 2.6]:
        p = PhysicalParams.from_mhz(fo, 5.9)
        lat = build_lattice("zigzag_chain", 9, 2.0)
        basis = enumerate_blockaded(lat)
        parts = build_rydberg(lat, basis, p)
        res = af1_quench(lat, basis, parts,
                         DriveProfile.constant(optimal_detuning(lat, p)), 3.0,
                         record_stride=1)
        fit = fit_damped_cosine(imbalance(res), res.times)
        assert fit.converged
        xx, yy = decay_predictors(lat, p)
        points.append((xx, yy, 1.0 / fit.tau))
    p171 = PhysicalParams.from_mhz(4.2, 17.1)
    for ratio in [2.0, 1.8, 1.6, 1.45, 1.35]:
        lat = build_lattice("zigzag_chain", 9, ratio)
        basis = enumerate_blockaded(lat)
        parts = build_rydberg(lat, basis, p171)
        res = af1_quench(lat, basis, parts,
                         DriveProfile.constant(optimal_detuning(lat, p171)), 2.0,
                         record_stride=1)
        fit = fit_damped_cosine(imbalance(res), res.times)
        assert fit.converged
        xx, yy = decay_predictors(lat, p171)
        points.append((xx, yy, 1.0 / fit.tau))
    plane = fit_decay_plane(points)
    assert plane.r_squared >= 0.9
    _report(6, f"tau_max chain {tau_chain:.3f} us / honeycomb {tau_hc:.3f} us "
               f"(within 15%); sweep plane fit R^2 = {plane.r_squared:.3f} >= 0.9")


def _driven_nine_chain_spectrum(wm_over_omega, initial="AF1", total_time=4.0):
    p = P42_51
    lat = build_lattice("chain", 9)
    basis = enumerate_blockaded(lat)
    parts = build_rydberg(lat, basis, p)
    wm = wm_over_omega * p.omega
    drive = DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, wm)
    af1, af2, ggg = canonical_states(lat)
    start = {"AF1": af1, "AF2": af2, "GGG": ggg}[initial]
    cfg = EvolutionConfig(total_time=total_time, dt=0.002, record_stride=2)
    res = run_quench(lat, basis, parts, drive, unit_state(basis, start), cfg,
                     record_probs=False)
    spec = fourier_spectrum(imbalance(res), res.times, calibration_omega=wm / 2)
    return res, spec, wm


def test_criterion_07_subharmonic_locking():
    p = P42_51
    lines = []
    for wmo in (1.0, 1.2, 1.4):
        _, spec, wm = _driven_nine_chain_spectrum(wmo)
        bin_width = spec.omegas[1] - spec.omegas[0]
        peak = spec.peak_omega()
        assert abs(peak - wm / 2) <= bin_width, f"wm = {wmo} Omega"
        lines.append(f"{wmo}->sub")
    _, spec, wm = _driven_nine_chain_spectrum(0.6)
    bin_width = spec.omegas[1] - spec.omegas[0]
    assert abs(spec.peak_omega() - wm) <= bin_width
    _report(7, "dominant peak at omega_m/2 for omega_m in {1.0, 1.2, 1.4} Omega "
               "and at omega_m for 0.6 Omega (all within one grid bin)")


def test_criterion_08_driven_pxp_stabilization():
    p = P42_51
    lat = build_lattice("chain", 16, periodic=True)
    basis, parts, psi0 = build_system(lat, "pxp", p, "AF1")
    assert parts.dim == 187
    half = (tuple(range(8)),)

    def run(drive):
        res = af1_quench(lat, basis, parts, drive, 1.5, record_stride=5,
                         entropy_cuts=half, psi0=psi0)
        s_mean = float(res.entropies[:, 0].mean())
        late = res.times >= 1.0
        revival = float(imbalance(res)[late].max())
        return s_mean, revival

    s_bare, rev_bare = run(DriveProfile.constant(0.0))
    s_drive, rev_drive = run(
        DriveProfile.cosine(0.5 * p.omega, 1.0 * p.omega, 1.33 * p.omega))
    assert s_drive < s_bare
    assert rev_drive > rev_bare

    scan_grid = np.arange(1.0, 1.501, 0.05)
    means = []
    for wmo in scan_grid:
        drive = DriveProfile.cosine(0.5 * p.omega, 1.0 * p.omega, wmo * p.omega)
        means.append(run(drive)[0])
    k = int(np.argmin(means))
    assert 0 < k < len(scan_grid) - 1, "minimum must be interior"
    assert 1.1 <= scan_grid[k] <= 1.4
    _report(8, f"driven entropy {s_drive:.3f} < bare {s_bare:.3f}; late revival "
               f"{rev_drive:.3f} > {rev_bare:.3f}; entropy minimum at "
               f"{scan_grid[k]:.2f} Omega (inside 1.2-1.3 +- 0.1)")


def test_criterion_09_initial_state_dependence():
    res_af, spec_af, wm = _driven_nine_chain_spectrum(1.2, "AF1")
    w_af = subharmonic_weight(spec_af, wm)
    assert w_af > 0.2
    res_gg, spec_gg, _ = _driven_nine_chain_spectrum(1.2, "GGG")
    w_gg = subharmonic_weight(spec_gg, wm)
    assert w_gg < 0.05
    # the vacuum start responds at the drive frequency itself: dominant peak
    # of the per-sublattice average spectrum sits at omega_m
    spec_a = fourier_spectrum(res_gg.n_a, res_gg.times, calibration_omega=wm / 2)
    spec_b = fourier_spectrum(res_gg.n_b, res_gg.times, calibration_omega=wm / 2)
    avg = (spec_a.s2 + spec_b.s2) / 2
    peak = float(spec_a.omegas[int(np.argmax(avg))])
    bin_width = spec_a.omegas[1] - spec_a.omegas[0]
    assert abs(peak - wm) <= 2 * bin_width
    _report(9, f"subharmonic weight: AF1 {w_af:.3f} > 0.2, GGG {w_gg:.5f} < 0.05 "
               "with the harmonic peak present")


def test_criterion_10_spectral_calibration_and_rigidity():
    t = np.arange(0, 2.0 + 0.0025, 0.005)
    window = t[-1] - t[0]
    w0 = 60 * math.tau / (8 * window)
    spec = fourier_spectrum(np.cos(w0 * t), t)
    assert weight_at(spec, w0) == pytest.approx(1.0, abs=1e-6)
    assert subharmonic_rigidity(list(RIGIDITY_GRID), np.ones(11)) == 11.0

    p = P42_51

    def rigidity_for(length):
        lat = build_lattice("chain", length)
        basis = enumerate_blockaded(lat)
        parts = build_rydberg(lat, basis, p)
        weights = []
        for wmo in RIGIDITY_GRID:
            wm = wmo * p.omega
            drive = DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, wm)
            res = af1_quench(lat, basis, parts, drive, 3.0)
            spec = fourier_spectrum(imbalance(res), res.times,
                                    calibration_omega=wm / 2)
            weights.append(subharmonic_weight(spec, wm))
        return subharmonic_rigidity(list(RIGIDITY_GRID), weights)

    r3, r9 = rigidity_for(3), rigidity_for(9)
    assert r9 > r3
    _report(10, f"pure-cosine peak exactly 1; all-ones rigidity 11; "
                f"rigidity L=9 ({r9:.2f}) > L=3 ({r3:.2f})")


def test_criterion_11_entropy_properties():
    lat = build_lattice("chain", 10)
    basis = enumerate_blockaded(lat)
    af1, af2, ggg = canonical_states(lat)
    rng = np.random.default_rng(7)
    for state in (af1, af2, ggg):
        psi = unit_state(basis, state)
        for cut in ((0,), (0, 1, 2), tuple(range(5))):
            rho = reduced_density_matrix(psi, basis, cut)
            assert entanglement_entropy(rho) < 1e-12
    for seed in range(5):
        psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        psi /= np.linalg.norm(psi)
        for cut_len in (2, 3, 5):
            cut = tuple(range(cut_len))
            rho = reduced_density_matrix(psi, basis, cut)
            evals = np.linalg.eigvalsh(rho)
            assert evals.min() > -1e-12
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            sub_dim = enumerate_blockaded(build_lattice("chain", cut_len)).dim
            assert entanglement_entropy(rho) <= math.log(sub_dim) + 1e-12
    _report(11, "product states pure to 1e-12; PSD/trace-1 to 1e-12; entropies "
                "bounded by the blockaded subset dimension")


def test_criterion_12_pulsed_model_maps():
    ring = build_lattice("chain", 14, periodic=True)
    smoke = revival_fidelity_map(ring, [0.0], [0.5 * math.tau, TAU_C], n_periods=100)
    assert np.allclose(smoke, 1.0, atol=1e-9)
    rev = revival_fidelity_map(ring, [0.3, 1.5], [TAU_C], n_periods=100)
    assert rev[0, 0] > rev[1, 0]
    sub = pulsed_subharmonic_map(ring, [0.5], [TAU_C / 2, TAU_C], n_periods=400)
    assert sub[0, 1] > sub[0, 0]
    _report(12, f"echo row identically 1; revival {rev[0, 0]:.3f} > "
                f"{rev[1, 0]:.3f} at eps 0.3 vs 1.5; subharmonic weight "
                f"{sub[0, 1]:.3f} (tau_c) > {sub[0, 0]:.4f} (tau_c/2)")
