import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarsim.analysis import (
    RIGIDITY_GRID,
    Spectrum,
    fit_damped_cosine,
    fit_decay_plane,
    fourier_spectrum,
    imbalance,
    microstate_matrix,
    subharmonic_rigidity,
    subharmonic_weight,
    weight_at,
)
from scarsim.errors import ConfigError, NumericalError
from scarsim.evolve import QuenchResult


def synthetic_result(times, n_a, n_b, probs=None):
    n = len(times)
    return QuenchResult(times=np.asarray(times), site_pops=np.zeros((n, 2)),
                        n_a=np.asarray(n_a), n_b=np.asarray(n_b), probs=probs)


class TestImbalance:
    def test_product_state_values(self):
        t = np.arange(5) * 0.1
        assert np.allclose(imbalance(synthetic_result(t, np.ones(5), np.zeros(5))), 1.0)
        assert np.allclose(imbalance(synthetic_result(t, np.zeros(5), np.ones(5))), -1.0)
        assert np.allclose(imbalance(synthetic_result(t, np.full(5, .3), np.full(5, .3))), 0.0)


class TestDampedCosineFit:
    dt = 0.01
    t = np.arange(0, 2.0 + 0.005, 0.01)

    def model(self, t):
        return 0.1 + 0.8 * np.cos(math.tau * 2.5 * t) * np.exp(-t / 0.5)

    def test_exact_recovery(self):
        fit = fit_damped_cosine(self.model(self.t), self.t)
        assert fit.converged
        assert fit.y0 == pytest.approx(0.1, rel=1e-6)
        assert fit.c == pytest.approx(0.8, rel=1e-6)
        assert fit.omega_tilde == pytest.approx(math.tau * 2.5, rel=1e-6)
        assert fit.tau == pytest.approx(0.5, rel=1e-6)

    def test_noise_robustness_monte_carlo(self):
        clean = self.model(self.t)
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            fit = fit_damped_cosine(clean + rng.normal(0, 0.02, clean.shape), self.t)
            worst = max(worst, abs(fit.tau / 0.5 - 1.0))
        assert worst < 0.10

    def test_time_origin_shift_invariance(self):
        period = 1 / 2.5
        t2 = self.t + 3 * period
        y2 = 0.1 + 0.8 * np.cos(math.tau * 2.5 * t2) * np.exp(-t2 / 0.5)
        f1 = fit_damped_cosine(self.model(self.t), self.t)
        f2 = fit_damped_cosine(y2, t2)
        assert f2.omega_tilde == pytest.approx(f1.omega_tilde, rel=1e-6)
        assert f2.tau == pytest.approx(f1.tau, rel=1e-6)

    def test_degenerate_input(self):
        fit = fit_damped_cosine(np.full(60, 0.3), np.arange(60) * 0.01)
        assert not fit.converged

    def test_guards(self):
        with pytest.raises(ConfigError):
            fit_damped_cosine(np.sin(np.arange(10.0)), np.arange(10.0))
        short_t = np.arange(30) * 0.001  # 0.03 span, one slow oscillation
        with pytest.raises(ConfigError):
            fit_damped_cosine(np.cos(math.tau * 2.0 * short_t), short_t)
        with pytest.raises(ConfigError):
            fit_damped_cosine(np.ones(30), np.concatenate([np.arange(29) * 0.1, [9.9]]))


def _least_squares_reference(values, times):
    """The fit as scipy.optimize.least_squares runs it, from the same initial
    guess with the bounds tau >= 1e-9 and w >= 0, xtol = ftol = 1e-12 and at
    most 2000 evaluations: parameters, cost and convergence."""
    from scipy.optimize import least_squares

    from scarsim.analysis import _initial_guess, _jacobian, _model

    tt = times - times[0]
    res = least_squares(lambda p: _model(tt, p) - values, _initial_guess(tt, values),
                        jac=lambda p: _jacobian(tt, p),
                        bounds=([-np.inf, -np.inf, 0.0, 1e-9], np.inf),
                        xtol=1e-12, ftol=1e-12, gtol=None, max_nfev=2000)
    converged = bool(res.success and res.x[3] > 0 and np.isfinite(res.cost))
    return res.x, res.cost, converged


# omegam / Omega of the nine points of the benchmark's seed-1 driven 9-chain
# sweep (fig3c-chain physics, 1 us).  At the last one the initial frequency
# guess, 16.96 rad/us, is far from the fitted 20.67.
_SEED1_OMEGAM = [0.8111398339327717, 0.899136982769386, 0.9888431465864265,
                 1.1140296537185614, 1.2062225491965572, 1.2569924391456897,
                 1.367290568642932, 1.512345625222288, 1.567854604602019]


@pytest.fixture(scope="module")
def simulated_series():
    """(name, times, imbalance) of the seed-1 sweep points and of the
    fig3d-drive and fig3d-bare presets."""
    from scarsim.cli import _run_quenches, _sweep_groups, _sweep_worker
    from scarsim.config import parse_config
    from scarsim.presets import get_preset

    doc = {"lattice": {"kind": "chain", "extent": 9},
           "physical": {"omega_mhz": 4.2, "v0_mhz": 51.0}, "model": "rydberg",
           "drive": {"shape": "cosine", "delta0_over_omega": 0.55,
                     "deltam_over_omega": 0.55},
           "initial_state": "AF1",
           "evolution": {"total_time": 1.0, "dt": 0.002, "record_stride": 2,
                         "krylov_dim": 16}}
    cfgs = [parse_config({**doc, "drive": {**doc["drive"], "omegam_over_omega": w}})
            for w in _SEED1_OMEGAM]
    out = []
    for group in _sweep_groups(cfgs):
        for k, (_, r) in zip(group, _sweep_worker([cfgs[k] for k in group])):
            out.append((f"seed1-point{k}", r.times, imbalance(r)))
    for name in ("fig3d-drive", "fig3d-bare"):
        _, (r,) = _run_quenches([parse_config(get_preset(name))], record_probs=False)
        out.append((name, r.times, imbalance(r)))
    return out


class TestFitAgainstLeastSquares:
    """The in-module Levenberg-Marquardt fit finds the parameters that
    scipy.optimize.least_squares finds, to 1e-6 relative, and agrees on
    convergence."""

    t = np.arange(301) * 0.01

    def assert_agrees(self, values, times, rtol=1e-6):
        fit = fit_damped_cosine(values, times)
        ref, cost, converged = _least_squares_reference(values, times)
        assert fit.converged == converged
        np.testing.assert_allclose([fit.y0, fit.c, fit.omega_tilde, fit.tau], ref,
                                   rtol=rtol)
        assert fit.residual == pytest.approx(cost, rel=1e-9)

    def test_simulated_imbalance(self, simulated_series):
        fitted = []
        for name, times, values in simulated_series:
            try:
                fit_damped_cosine(values, times)
            except ConfigError:  # under two periods of the guessed frequency
                continue
            self.assert_agrees(values, times)
            fitted.append(name)
        assert {"seed1-point8", "fig3d-drive", "fig3d-bare"} <= set(fitted)
        assert len(fitted) == 9

    def test_far_initial_damping_minimum(self):
        """fig4c-chain point 30 (omegam 1.25 Omega, V0 8 MHz), where starting
        Marquardt's damping at 1e-3 or 0.1 instead of 10 ends in another
        minimum (cost 21.41 against 19.67).  Its cost is flat enough that
        either fit stops up to 1e-5 from the other (3.9e-6 measured)."""
        from scarsim.cli import _run_quenches
        from scarsim.config import parse_config
        from scarsim.presets import get_preset

        doc = get_preset("fig4c-chain")
        del doc["sweep"]
        doc["drive"]["omegam_over_omega"] = 1.25
        doc["physical"]["v0_mhz"] = 8.0
        _, (r,) = _run_quenches([parse_config(doc)], record_probs=False)
        self.assert_agrees(imbalance(r), r.times, rtol=1e-5)

    @pytest.mark.parametrize("tau,noise", [(0.5, 0.1), (10.0, 0.02)],
                             ids=["noisy", "slow-decay"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synthetic_series(self, tau, noise, seed):
        rng = np.random.default_rng(seed)
        values = (0.1 + 0.8 * np.cos(math.tau * 2.5 * self.t) * np.exp(-self.t / tau)
                  + rng.normal(0, noise, self.t.shape))
        self.assert_agrees(values, self.t)

    def test_growing_series(self):
        """A series whose best fit grows has no minimum at finite tau: both
        fits run tau far past the window and agree on the cost and on the
        other parameters."""
        rng = np.random.default_rng(0)
        values = (0.1 + 0.8 * np.cos(math.tau * 2.5 * self.t) * np.exp(self.t / 20.0)
                  + rng.normal(0, 0.05, self.t.shape))
        fit = fit_damped_cosine(values, self.t)
        ref, cost, converged = _least_squares_reference(values, self.t)
        assert fit.converged and converged
        assert fit.tau > 1e9 and ref[3] > 1e9
        np.testing.assert_allclose([fit.y0, fit.c, fit.omega_tilde], ref[:3], rtol=1e-6)
        assert fit.residual == pytest.approx(cost, rel=1e-9)


class TestDecayPlane:
    def test_exact_recovery(self):
        rng = np.random.default_rng(1)
        x, y = rng.uniform(0, 2, 12), rng.uniform(0, 2, 12)
        fit = fit_decay_plane(np.column_stack([x, y, 0.72 * x + 0.58 * y + 0.4]))
        assert fit.alpha == pytest.approx(0.72, abs=1e-12)
        assert fit.beta == pytest.approx(0.58, abs=1e-12)
        assert fit.inv_tau0 == pytest.approx(0.4, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_three_point_interpolation(self):
        fit = fit_decay_plane([(0, 0, 0.4), (1, 0, 1.12), (0, 1, 0.98)])
        assert fit.alpha == pytest.approx(0.72, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-20)

    def test_rank_deficiency(self):
        with pytest.raises(NumericalError):
            fit_decay_plane([(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4)])
        with pytest.raises(ConfigError):
            fit_decay_plane([(0, 0, 1), (1, 0, 2)])


class TestSpectrum:
    T = 2.0
    dt = 0.005
    t = np.arange(0, 2.0 + 0.0025, 0.005)

    def grid_frequency(self, k=60):
        window = self.t[-1] - self.t[0]
        return k * math.tau / (8 * window)

    def test_pure_cosine_peak_is_unity(self):
        w0 = self.grid_frequency()
        spec = fourier_spectrum(np.cos(w0 * self.t), self.t)
        assert weight_at(spec, w0) == pytest.approx(1.0, abs=1e-6)
        assert spec.peak_omega() == pytest.approx(w0, abs=1e-12)

    def test_other_grid_frequencies_also_unity(self):
        for k in (20, 100, 250):
            w0 = self.grid_frequency(k)
            spec = fourier_spectrum(np.cos(w0 * self.t), self.t)
            assert weight_at(spec, w0) == pytest.approx(1.0, abs=1e-6)

    def test_calibration_is_shared_but_exact(self):
        # the reference cosine's peak is computed once per time grid and
        # frequency; every later series must scale by exactly that value
        from scarsim.analysis import _normalized_intensity

        rng = np.random.default_rng(4)
        tt = self.t - self.t[0]
        for omega_ref in (math.pi, None):
            for _ in range(3):
                values = rng.normal(size=len(self.t))
                spec = fourier_spectrum(values, self.t, calibration_omega=omega_ref)
                raw = _normalized_intensity(values, tt, spec.omegas)
                w = omega_ref if omega_ref is not None else spec.omegas[np.argmax(raw)]
                ref = _normalized_intensity(np.cos(w * tt), tt, spec.omegas)
                expected = raw / float(np.interp(w, spec.omegas, ref))
                assert np.array_equal(spec.s2, expected)

    @pytest.mark.parametrize("omega_ref", [math.pi, None])
    def test_series_rows_equal_single_series(self, omega_ref):
        # the rows of one call share each cosine-table chunk; every row,
        # flat ones included, must equal its own single-series spectrum
        rng = np.random.default_rng(5)
        rows = np.vstack([rng.normal(size=(3, len(self.t))),
                          np.full((1, len(self.t)), 2.2),
                          np.cos(self.grid_frequency() * self.t)[None]])
        spec = fourier_spectrum(rows, self.t, calibration_omega=omega_ref)
        weights = weight_at(spec, 40.0)
        assert spec.s2.shape == (5, len(spec.omegas))
        assert weights.shape == (5,)
        for r, values in enumerate(rows):
            one = fourier_spectrum(values, self.t, calibration_omega=omega_ref)
            assert np.array_equal(spec.s2[r], one.s2)
            assert weights[r] == weight_at(one, 40.0)

    @staticmethod
    def trapezoid_reference(values, times):
        """The direct quadrature, per-row np.trapezoid over the whole cosine
        table of the fourier_spectrum grid, and each row's rounding scale
        (2/T) sum |w f|."""
        omegas = fourier_spectrum(values, times).omegas
        f = values - values.mean(axis=-1, keepdims=True)
        tt = times - times[0]
        table = np.cos(omegas[:, None] * tt[None, :])
        rows = [np.trapezoid(table * row[None, :], tt, axis=1)
                for row in f.reshape(-1, len(times))]
        window = times[-1] - times[0]
        expected = (2.0 / window) * np.reshape(rows, f.shape[:-1] + (len(omegas),))
        scale = (2.0 / window) * np.trapezoid(np.abs(f), tt, axis=-1)
        return omegas, expected, scale[..., None]

    @pytest.mark.parametrize("times", [
        np.arange(401, dtype=float),          # a map's unit-spaced periods
        np.arange(0, 501, 2) * 0.002,         # a sweep's records at k * dt
        np.arange(0, 1501, 2) * 0.002,        # fig4c-chain's records
        np.arange(0, 6, 5) * 0.002,           # one record interval of a ring
    ], ids=["map", "sweep", "fig4c", "ring"])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["1d", "rows"])
    def test_transform_matches_trapezoid(self, times, shape):
        # the real FFT evaluates the same trapezoid sums in another order
        from scarsim.analysis import _inphase_transform

        values = np.random.default_rng(len(times)).normal(size=shape + times.shape)
        omegas, expected, scale = self.trapezoid_reference(values, times)
        got = _inphase_transform(values, times - times[0], omegas)
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-13 * scale)

    @pytest.mark.parametrize("n_omegas", [513, 1601])
    @pytest.mark.parametrize("stride,dt", [(1, 1.0), (4, 0.002)],
                             ids=["map", "sweep"])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["1d", "rows"])
    def test_transform_is_bitwise_trapezoid(self, n_omegas, stride, dt, shape):
        # the name is kept from the cosine-table quadrature, which matched
        # np.trapezoid byte for byte; the real FFT sums in another order, so
        # the match is now to rounding, on grids of N = 128 (an FFT length
        # of 1024) and 400 periods or records at stride 4
        from scarsim.analysis import _inphase_transform

        n = (n_omegas - 1) // 4
        times = np.arange(0, n * stride + 1, stride) * dt
        values = np.random.default_rng(n_omegas).normal(size=shape + times.shape)
        omegas, expected, scale = self.trapezoid_reference(values, times)
        assert len(omegas) == n_omegas
        got = _inphase_transform(values, times, omegas)
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-13 * scale)

    @pytest.mark.parametrize("n_omegas", [511, 512])
    def test_transform_refuses_other_grid_lengths(self, n_omegas):
        # the FFT bins are the fourier_spectrum grid only: 4N + 1 points
        from scarsim.analysis import _inphase_transform

        times = np.arange(128.0)
        omegas = np.linspace(0.0, math.pi, n_omegas)
        with pytest.raises(NumericalError, match="not 4N \\+ 1 = 509"):
            _inphase_transform(np.cos(times), times, omegas)

    @pytest.mark.parametrize("stride,dt", [(1, 1.0), (1, 0.002), (2, 0.002),
                                           (5, 0.002)],
                             ids=["map", "stride1", "stride2", "stride5"])
    def test_grid_has_4n_plus_1_points(self, stride, dt):
        # one point per real-FFT bin of the 8N-padded series, for map
        # periods and for quench records at step * dt
        for n in range(1, 65):
            times = np.arange(0, n * stride + 1, stride) * dt
            spec = fourier_spectrum(np.cos(np.arange(n + 1.0)), times)
            assert len(spec.omegas) == 4 * n + 1

    @pytest.mark.parametrize("n", [40, 250, 400])
    @pytest.mark.parametrize("pattern", ["random", "half"])
    def test_jittered_grid_stays_near_trapezoid(self, n, pattern):
        # the FFT places sample j at j T / N; a spacing that _check_uniform
        # accepts moves it by at most about N dt 1e-9, a phase of pi N 1e-9
        # at the Nyquist frequency
        from scarsim.analysis import _inphase_transform

        rng = np.random.default_rng(n)
        if pattern == "random":
            jitter = rng.uniform(-0.9e-9, 0.9e-9, size=n - 1)
        else:
            jitter = np.where(np.arange(n - 1) < n // 2, 0.9e-9, -0.9e-9)
        dt = 0.004
        steps = dt * (1.0 + np.concatenate([[0.0], jitter]))
        times = np.concatenate([[0.0], np.cumsum(steps)])
        values = rng.normal(size=(2, n + 1))
        omegas, expected, scale = self.trapezoid_reference(values, times)
        got = _inphase_transform(values, times, omegas)
        assert np.all(np.abs(got - expected) <= math.pi * n * 1e-9 * scale)

    def test_constant_series_is_zero(self):
        spec = fourier_spectrum(np.full_like(self.t, 2.2), self.t)
        assert np.allclose(spec.s2, 0.0)

    def test_sine_in_phase_leakage_bound(self):
        w0 = self.grid_frequency()
        spec = fourier_spectrum(np.sin(w0 * self.t), self.t, calibration_omega=w0)
        window = self.t[-1] - self.t[0]
        assert weight_at(spec, w0) <= 2.0 / (w0 * window)

    def test_amplitude_invariance(self):
        w0 = self.grid_frequency()
        s1 = fourier_spectrum(np.cos(w0 * self.t), self.t)
        s2 = fourier_spectrum(3.7 * np.cos(w0 * self.t), self.t)
        assert np.allclose(s1.s2, s2.s2, atol=1e-12)

    def test_normalization_integral_consistency(self):
        # the intensity normalization uses the same quadrature as the grid sum
        from scarsim.analysis import _inphase_transform

        w0 = self.grid_frequency()
        y = np.cos(w0 * self.t) + 0.3 * np.cos(2.3 * w0 * self.t)
        spec = fourier_spectrum(y, self.t)
        window = self.t[-1] - self.t[0]
        transform = _inphase_transform(y, self.t - self.t[0], spec.omegas)
        total = np.trapezoid(transform**2, spec.omegas)
        raw = transform**2 / (2 * total * window / math.tau)
        calib = raw.max() / spec.s2.max()
        assert np.allclose(raw / calib, spec.s2, atol=1e-12)

    def test_non_uniform_rejected(self):
        t = np.concatenate([self.t[:-1], [self.t[-1] + 0.3]])
        with pytest.raises(ConfigError):
            fourier_spectrum(np.cos(t), t)

    def test_grid_spacing_bound(self):
        spec = fourier_spectrum(np.cos(3.0 * self.t), self.t)
        window = self.t[-1] - self.t[0]
        assert np.diff(spec.omegas).max() <= math.tau / (8 * window) + 1e-12


class TestWeights:
    t = np.arange(0, 4.0 + 0.005, 0.01)

    def test_perfect_subharmonic(self):
        wm = 8.0
        spec = fourier_spectrum(np.cos(wm / 2 * self.t), self.t,
                                calibration_omega=wm / 2)
        assert subharmonic_weight(spec, wm) == pytest.approx(1.0, abs=1e-9)

    def test_harmonic_only_response(self):
        wm = 8.0
        spec = fourier_spectrum(np.cos(wm * self.t), self.t,
                                calibration_omega=wm / 2)
        # only finite-window leakage remains at the subharmonic frequency
        assert subharmonic_weight(spec, wm) < 0.01
        assert weight_at(spec, wm) > 100 * subharmonic_weight(spec, wm)

    def test_fourth_subharmonic_order(self):
        wm = 8.0
        spec = fourier_spectrum(np.cos(wm / 4 * self.t), self.t,
                                calibration_omega=wm / 4)
        assert subharmonic_weight(spec, wm, order=4) == pytest.approx(1.0, abs=1e-6)
        with pytest.raises(ConfigError):
            subharmonic_weight(spec, wm, order=3)

    def test_out_of_range(self):
        spec = fourier_spectrum(np.cos(2.0 * self.t), self.t)
        with pytest.raises(ConfigError):
            weight_at(spec, spec.omegas[-1] * 2.1)

    @given(st.floats(0.1, 50.0))
    @settings(deadline=None, max_examples=30)
    def test_scaling_never_exceeds_unity_much(self, a):
        wm = 8.0
        spec = fourier_spectrum(a * np.cos(wm / 2 * self.t), self.t,
                                calibration_omega=wm / 2)
        assert subharmonic_weight(spec, wm) == pytest.approx(1.0, abs=1e-9)


class TestRigidity:
    def test_sums(self):
        assert subharmonic_rigidity(list(RIGIDITY_GRID), np.ones(11)) == 11.0
        assert subharmonic_rigidity(list(RIGIDITY_GRID), np.zeros(11)) == 0.0

    def test_sums_in_grid_order(self):
        # the order the sweep's rigidity.csv is written in; numpy's pairwise
        # sum differs in the last bit for these weights
        w = np.random.default_rng(1).uniform(0.0, 1.0, 11)
        expect = 0.0
        for v in w:
            expect += v
        assert w.sum() != expect
        assert subharmonic_rigidity(list(RIGIDITY_GRID), w) == expect

    def test_wrong_grid_rejected(self):
        with pytest.raises(ConfigError):
            subharmonic_rigidity([0.70 + 0.1 * k for k in range(11)], np.ones(11))
        with pytest.raises(ConfigError):
            subharmonic_rigidity(list(RIGIDITY_GRID)[:-1], np.ones(10))


class TestSweepProtocols:
    """Simulation-backed checks of the decay-model pipeline on 9-site chains."""

    def test_blockade_violation_sweep_slope(self):
        from scarsim.evolve import EvolutionConfig, run_block
        from scarsim.hamiltonian import DriveProfile, build_rydberg
        from scarsim.hilbert import enumerate_blockaded
        from scarsim.lattice import (
            PhysicalParams,
            build_lattice,
            decay_predictors,
            optimal_detuning,
        )

        xs, inv_taus = [], []
        for fo in [1.4, 1.7, 2.0, 2.3, 2.6]:
            p = PhysicalParams.from_mhz(fo, 5.9)
            lat = build_lattice("zigzag_chain", 9, 2.0)
            basis = enumerate_blockaded(lat)
            parts = build_rydberg(lat, basis, p)
            psi0 = np.zeros(basis.dim, dtype=complex)
            psi0[basis.index_of(sum(1 << i for i in range(0, 9, 2)))] = 1
            cfg = EvolutionConfig(total_time=3.0, dt=0.002, record_stride=1)
            res = run_block(lat, basis, parts,
                            [DriveProfile.constant(optimal_detuning(lat, p))],
                            psi0, cfg, record_probs=False)[0]
            fit = fit_damped_cosine(imbalance(res), res.times)
            assert fit.converged
            x, _ = decay_predictors(lat, p)
            xs.append(x)
            inv_taus.append(1.0 / fit.tau)
        slope, intercept = np.polyfit(xs, inv_taus, 1)
        fitted = slope * np.asarray(xs) + intercept
        ss_res = float(((np.asarray(inv_taus) - fitted) ** 2).sum())
        ss_tot = float(((np.asarray(inv_taus) - np.mean(inv_taus)) ** 2).sum())
        assert 1 - ss_res / ss_tot >= 0.9
        # frozen from this deterministic pipeline; the experimental slope for
        # the same protocol is larger, consistent with the known curvature of
        # the decay response over narrow predictor ranges
        assert slope == pytest.approx(0.603, abs=0.05)


class TestMicrostateMatrix:
    def test_initial_state_and_row_sums(self, chain9, chain9_states):
        from scarsim.hilbert import reflection_grouping

        lat, basis = chain9
        af1, _, _ = chain9_states
        ordering = reflection_grouping(basis, lat)
        probs = np.zeros((3, basis.dim))
        probs[0, basis.index_of(af1)] = 1.0
        probs[1:] = 1.0 / basis.dim
        res = synthetic_result(np.arange(3) * 0.1, np.zeros(3), np.zeros(3), probs)
        m = microstate_matrix(res, ordering)
        assert m[0, 0] == pytest.approx(1.0)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-9)

    def test_requires_probabilities(self, chain9):
        from scarsim.hilbert import reflection_grouping

        lat, basis = chain9
        ordering = reflection_grouping(basis, lat)
        res = synthetic_result(np.arange(3) * 0.1, np.zeros(3), np.zeros(3))
        with pytest.raises(ConfigError):
            microstate_matrix(res, ordering)

    def test_class_sums_match_per_class_sums_bitwise(self, chain9, chain9_states):
        """On the driven 9-chain, class_sums gives each class the bits of its
        members' probabilities summed per class."""
        from scarsim.evolve import EvolutionConfig, run_block
        from scarsim.hamiltonian import DriveProfile, build_rydberg
        from scarsim.hilbert import reflection_grouping
        from scarsim.lattice import PhysicalParams

        p = PhysicalParams.from_mhz(4.2, 51.0)
        lat, basis = chain9
        af1, _, _ = chain9_states
        parts = build_rydberg(lat, basis, p)
        ordering = reflection_grouping(basis, lat)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[basis.index_of(af1)] = 1
        drive = DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, 1.15 * p.omega)
        res = run_block(lat, basis, parts, [drive], psi0,
                        EvolutionConfig(total_time=0.2, dt=0.002, record_stride=10))[0]
        want = np.column_stack([
            res.probs[:, np.flatnonzero(ordering.labels == k)].sum(axis=1)
            for k in range(ordering.n_classes)])
        got = ordering.class_sums(res.probs)
        assert got.shape == (len(res.times), 51)
        assert got.tobytes() == want.tobytes()

    def test_driven_chain_concentrates_on_high_difference_classes(
            self, chain9, chain9_states):
        """Stroboscopic snapshots of the driven chain keep most weight on the
        classes closest to the fully ordered state, unlike the bare quench."""
        from scarsim.evolve import EvolutionConfig, run_block
        from scarsim.hamiltonian import DriveProfile, build_rydberg
        from scarsim.hilbert import reflection_grouping
        from scarsim.lattice import PhysicalParams

        p = PhysicalParams.from_mhz(4.2, 51.0)
        lat, basis = chain9
        af1, _, _ = chain9_states
        parts = build_rydberg(lat, basis, p)
        ordering = reflection_grouping(basis, lat)
        wm = 1.15 * p.omega
        period = math.tau / wm
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[basis.index_of(af1)] = 1
        cfg = EvolutionConfig(total_time=10 * period, dt=period / 250, record_stride=250)

        def stroboscopic_weight(drive):
            res = run_block(lat, basis, parts, [drive], psi0, cfg)[0]
            m = microstate_matrix(res, ordering)
            high = np.array([k[0] >= 3 for k in ordering.keys])
            even_late = (np.arange(len(res.times)) % 2 == 0) & (res.times >= 0.5)
            return float(m[even_late][:, high].sum(axis=1).mean())

        driven = stroboscopic_weight(
            DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, wm))
        bare = stroboscopic_weight(DriveProfile.constant(0.21 * p.omega))
        assert driven > 0.5
        assert driven > 2 * bare
