import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import scarsim.evolve
import scarsim.hamiltonian
from scarsim.errors import CapacityError, ConfigError, NumericalError
from scarsim.evolve import (
    MAX_STEPS,
    EvolutionConfig,
    build_system,
    dense_propagator,
    entanglement_entropy,
    propagate,
    quench_from_csv,
    quench_to_csv,
    reduced_density_matrix,
    run_block,
    symmetric_restriction,
)
from scarsim.hamiltonian import (
    DriveProfile,
    build_pxp,
    build_rydberg,
    detuning_at,
)
from scarsim.hilbert import (
    enumerate_blockaded,
    named_state,
    site_bit_table,
    symmetric_isometry,
)
from scarsim.lattice import (
    PhysicalParams,
    build_lattice,
    optimal_detuning,
    symmetry_permutations,
)


@pytest.fixture(scope="module")
def p():
    return PhysicalParams.from_mhz(4.2, 51.0)


@pytest.fixture(scope="module")
def system8(p):
    lat = build_lattice("chain", 8)
    basis = enumerate_blockaded(lat)
    parts = build_rydberg(lat, basis, p)
    return lat, basis, parts


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestPropagateStep:
    def test_zero_hamiltonian_identity(self):
        lat = build_lattice("chain", 5)
        basis = enumerate_blockaded(lat)
        parts = build_pxp(lat, basis, PhysicalParams(omega=1e-300, v0=1.0))
        psi = random_state(basis.dim, 0)
        out = propagate(parts, (DriveProfile.constant(0.0),), psi, (0.0,), 0.01)
        assert np.allclose(out, psi, atol=1e-12)

    def test_diagonal_phases_exact(self, p):
        lat = build_lattice("chain", 6)
        basis = enumerate_blockaded(lat)
        parts = build_rydberg(lat, basis, PhysicalParams(omega=1e-300, v0=p.v0))
        psi = random_state(basis.dim, 1)
        delta = 0.4 * p.omega
        dt = 0.02
        out = propagate(parts, (DriveProfile.constant(delta),), psi, (0.0,), dt)
        expect = psi * np.exp(-1j * parts.diagonal(delta) * dt)
        assert np.abs(out - expect).max() < 1e-12

    def test_matches_dense_oracle_constant(self, system8):
        _, basis, parts = system8
        psi = random_state(basis.dim, 2)
        drive = DriveProfile.constant(0.3)
        dt, steps = 0.002, 400
        out = psi.copy()
        for k in range(steps):
            out = propagate(parts, (drive,), out, (k * dt,), dt)
        ref = dense_propagator(parts, drive.delta0, steps * dt) @ psi
        assert np.abs(out - ref).max() < 1e-8

    def test_matches_dense_oracle_cosine(self, p, system8):
        _, basis, parts = system8
        psi = random_state(basis.dim, 3)
        drive = DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, 1.2 * p.omega)
        dt = 0.001
        out, ref = psi.copy(), psi.copy()
        for k in range(300):
            t = k * dt
            out = propagate(parts, (drive,), out, (t,), dt)
            ref = dense_propagator(parts, detuning_at(drive, t + dt / 2), dt) @ ref
        assert np.abs(out - ref).max() < 1e-8

    def test_second_order_in_dt(self, p, system8):
        _, basis, parts = system8
        psi0 = random_state(basis.dim, 4)
        drive = DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, 1.2 * p.omega)

        def final(dt):
            n = int(round(0.2 / dt))
            psi = psi0.copy()
            for k in range(n):
                psi = propagate(parts, (drive,), psi, (k * dt,), dt)
            return psi

        r1 = np.linalg.norm(final(0.004) - final(0.002))
        r2 = np.linalg.norm(final(0.002) - final(0.001))
        assert 3.2 < r1 / r2 < 4.8

    def test_reversibility(self, p, system8):
        _, basis, parts = system8
        psi0 = random_state(basis.dim, 5)
        drive = DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, 1.2 * p.omega)
        dt, n = 0.002, 500
        psi = psi0.copy()
        for k in range(n):
            psi = propagate(parts, (drive,), psi, (k * dt,), dt)
        for k in reversed(range(n)):
            psi = propagate(parts, (drive,), psi, ((k + 1) * dt,), -dt)
        assert np.linalg.norm(psi - psi0) < 1e-7

    def test_breakdown_early_termination(self, system8):
        # an exact eigenstate collapses the subspace after one vector
        _, basis, parts = system8
        h = parts.dense(0.0)
        evals, vecs = np.linalg.eigh(h)
        psi = vecs[:, 0].astype(complex)
        out = propagate(parts, (DriveProfile.constant(0.0),), psi, (0.0,), 0.01)
        expect = psi * np.exp(-1j * evals[0] * 0.01)
        assert np.abs(out - expect).max() < 1e-10


class TestChebyshevStep:
    """Each step is one Chebyshev series, whatever its length."""

    # b * dt from a sweep substep up past an apply_period-length step
    BDTS = [1e-3, 0.1, 0.3, 1.0, 5.0, 20.0, 60.0, -0.3, -60.0]

    @pytest.mark.parametrize("bdt", BDTS)
    @pytest.mark.parametrize("build", [build_rydberg, build_pxp])
    def test_matches_dense_propagator(self, p, system8, build, bdt):
        lat, basis, _ = system8
        parts = build(lat, basis, p)
        delta = 0.4 * p.omega
        dt = bdt / parts.spectral_bound(delta)
        psi = random_state(basis.dim, 7)
        out = propagate(parts, (DriveProfile.constant(delta),), psi, (0.0,), dt)
        ref = dense_propagator(parts, delta, dt) @ psi
        assert np.abs(out - ref).max() < 1e-12

    @pytest.mark.parametrize("bdt", [1e-3, 1.0, 60.0, -60.0])
    def test_exact_eigenstate_gets_its_phase(self, system8, bdt):
        _, basis, parts = system8
        evals, vecs = np.linalg.eigh(parts.dense(0.0))
        psi = vecs[:, 3].astype(complex)
        dt = bdt / parts.spectral_bound(0.0)
        out = propagate(parts, (DriveProfile.constant(0.0),), psi, (0.0,), dt)
        assert np.abs(out - psi * np.exp(-1j * evals[3] * dt)).max() < 1e-12

    @pytest.mark.parametrize("x", [0.0, 1e-300, 1e-3, 0.25, 7.0, 60.0, -60.0, 3000.0])
    def test_degree_is_the_first_below_the_tail_tolerance(self, x):
        from scipy.special import jv

        coef = scarsim.evolve._chebyshev_coefficients(x)
        mags = 2.0 * np.abs(jv(np.arange(len(coef) + 200), x))
        assert mags[len(coef):].sum() < 1e-15
        if len(coef) > 1:
            assert mags[len(coef) - 1:].sum() >= 1e-15
        y = np.linspace(-1.0, 1.0, 9)
        series = np.polynomial.chebyshev.chebval(y, coef)
        # rounding grows with the phase x * y and with the number of terms
        err = np.abs(series - np.exp(-1j * x * y)).max()
        assert err < 1e-15 * (len(coef) + abs(x))

    def test_bessel_values_match_jv(self):
        from scipy.special import jv

        rng = np.random.default_rng(5)
        xs = np.concatenate([[0.0, 1e-300, 1e-9, 1e-8, 2.404825557695773, 300.0],
                             rng.uniform(-300.0, 300.0, 40),
                             10.0 ** rng.uniform(-8.0, 2.0, 40)])
        for x in xs.tolist():
            kmax = len(scarsim.evolve._chebyshev_coefficients(x)) + 10
            ours = np.array(scarsim.evolve._bessel_j(x, kmax))
            assert np.abs(ours - jv(np.arange(kmax + 1), x)).max() <= 2e-14

    def test_large_arguments_stay_finite(self):
        # the recurrence rescales where its running values would overflow
        for x in (3000.0, -1e4):
            coef = scarsim.evolve._chebyshev_coefficients(x)
            assert np.isfinite(coef).all()
            assert abs(np.polynomial.chebyshev.chebval(0.5, coef)
                       - np.exp(-0.5j * x)) < 1e-15 * (len(coef) + abs(x))

    def test_nonfinite_bound_refused(self):
        with pytest.raises(NumericalError):
            scarsim.evolve._chebyshev_coefficients(math.inf)

    def test_krylov_dim_has_no_effect(self, p, chain9):
        lat, basis = chain9
        parts = build_rydberg(lat, basis, p)
        drive = DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, 1.2 * p.omega)
        psi0 = named_state(lat, basis, "AF1")
        texts = [
            quench_to_csv(run_block(
                lat, basis, parts, [drive], psi0,
                EvolutionConfig(total_time=0.1, dt=0.002, record_stride=5,
                                krylov_dim=m),
                entropy_cuts=((0, 1, 2, 3),), record_probs=False)[0])
            for m in (4, 16)
        ]
        assert texts[0] == texts[1]


def _jv_series(x: float) -> np.ndarray:
    """Reference: the one-value Chebyshev sizing, written as a plain loop on
    the Bessel values of scipy.special.jv."""
    from scipy.special import jv

    ax = max(abs(x), 1e-300)

    def log_bound(k):
        return k * math.log(ax / 2) - math.lgamma(k + 1)

    kmax = math.ceil(ax)
    while log_bound(kmax) > math.log(1e-3 * 1e-15):
        kmax += 1
    bessel = jv(np.arange(kmax + 1), x)
    degree, dropped = kmax, 2.0 * math.exp(log_bound(kmax))
    while degree > 0 and dropped + 2.0 * abs(bessel[degree]) < 1e-15:
        dropped += 2.0 * abs(bessel[degree])
        degree -= 1
    coef = 2.0 * (-1j) ** np.arange(degree + 1) * bessel[:degree + 1]
    coef[0] /= 2.0
    return coef


def _padded(a: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate([a, np.zeros(n - len(a), dtype=a.dtype)])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


class TestBlockStep:
    """A (dim, P) block step gives each column its own single-state step."""

    X = [0.0, 1e-300, 1e-3, 0.25, 7.0, 60.0, -60.0, 3000.0]

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_block_coefficients_equal_the_scalar_series(self, seed):
        if seed is None:
            xs = np.array(self.X)
        else:
            rng = np.random.default_rng(seed)
            xs = rng.uniform(-4.0, 4.0, 7) * 10.0 ** rng.integers(-6, 2, 7)
        block = scarsim.evolve._chebyshev_coefficients(xs)
        assert block.shape[1] == len(xs)
        for j, x in enumerate(xs):
            single = scarsim.evolve._chebyshev_coefficients(float(x))
            assert np.array_equal(_bits(block[:len(single), j]), _bits(single))
            assert not block[len(single):, j].any()
            if abs(x) <= 300.0:
                ref = _jv_series(float(x))
                n = max(len(ref), len(single))
                assert np.abs(_padded(single, n) - _padded(ref, n)).max() <= 2e-14

    def test_block_step_equals_single_steps(self, p, system8):
        _, basis, parts = system8
        drives = [DriveProfile.cosine(0.5 * p.omega, 0.6 * p.omega, 1.3 * p.omega),
                  DriveProfile.square(0.2 * p.omega, 0.9 * p.omega, 1.1 * p.omega),
                  DriveProfile.constant(-0.4 * p.omega)]
        block = np.column_stack([random_state(basis.dim, s) for s in range(3)])
        for dt in (0.0007, 0.05):
            out = propagate(parts, drives, block, (0.013,), dt)
            for j, drive in enumerate(drives):
                one = propagate(parts, (drive,), block[:, j].copy(), (0.013,), dt)
                assert np.array_equal(_bits(out[:, j]), _bits(one))

    def test_block_step_checks_the_drive_count(self, p, system8):
        _, basis, parts = system8
        block = np.column_stack([random_state(basis.dim, s) for s in range(2)])
        with pytest.raises(ConfigError):
            propagate(parts, [DriveProfile.constant(0.0)], block, (0.0,), 0.01)


def _plain_steps(parts, drives, psi, starts, dt):
    """propagate written with plain numpy and scipy expressions: the bound
    is the largest of the midpoints' own bounds, and each substep uses
    scipy's ``@`` on the float64 CSR matrix, complex division by b and then
    by b / 2, and one np.linalg.norm per column."""
    deltas = [np.array([detuning_at(d, t + dt / 2.0) for d in drives])
              .reshape(psi.shape[1:]) for t in starts]
    bound = np.max([parts.spectral_bound(delta) for delta in deltas], axis=0)
    coef = scarsim.evolve._chebyshev_coefficients(bound * dt)
    off = parts.flip.matrix
    bound, half = np.asarray(bound, dtype=complex), np.asarray(bound / 2.0, dtype=complex)
    for delta in deltas:
        diag = parts.diagonal(delta).astype(complex)
        out, prev, cur = coef[0] * psi, None, psi
        for c in coef[1:]:
            nxt = off @ cur
            nxt += diag * cur
            if prev is None:
                nxt /= bound
            else:
                nxt /= half
                nxt -= prev
            prev, cur = cur, nxt
            out += c * cur
        norms = [float(np.linalg.norm(col)) for col in out.reshape(len(out), -1).T]
        psi = out / np.array(norms).reshape(psi.shape[1:])
    return psi


class TestStepKeepsPlainArithmetic:
    """propagate's cached-kernel products, reciprocal
    scalings, shared buffer and in-place norms give the bits of the plain
    expressions, for lone steps and for runs of substeps that share one
    series."""

    @pytest.mark.parametrize("width", [1, 5])
    @pytest.mark.parametrize("shape", ["cosine", "square"])
    @pytest.mark.parametrize("sized", [False, True])
    def test_bitwise(self, p, chain9, width, shape, sized):
        lat, basis = chain9
        parts = build_rydberg(lat, basis, p)
        drives = [getattr(DriveProfile, shape)((0.3 + 0.1 * j) * p.omega, 0.6 * p.omega,
                                               (1.1 + 0.05 * j) * p.omega)
                  for j in range(width)]
        psi = np.column_stack([random_state(basis.dim, s) for s in range(width)])
        psi[basis.index_of(0)] = 0.0    # exact zeros keep their signs too
        psi /= np.linalg.norm(psi, axis=0)
        if width == 1:
            psi = psi[:, 0].copy()
        # sized: runs of 8 substeps, each sharing the series of its largest bound
        run = 8 if sized else 1
        for k in range(0, 40, run):
            starts = [j * 0.002 + 0.0007 for j in range(k, k + run)]
            want = _plain_steps(parts, drives, psi, starts, 0.002)
            psi = propagate(parts, drives, psi, starts, 0.002)
            assert np.array_equal(_bits(psi), _bits(want))


class TestBlockRunner:
    """Each column of a block quench equals that drive's own run."""

    def _check(self, lat, basis, parts, drives, cfg, cuts=(), psi0=None):
        if psi0 is None:
            psi0 = named_state(lat, basis, "AF1")
        block = run_block(lat, basis, parts, drives, psi0, cfg, entropy_cuts=cuts)
        assert len(block) == len(drives)
        for res, drive in zip(block, drives):
            one = run_block(lat, basis, parts, [drive], psi0, cfg, entropy_cuts=cuts)[0]
            assert quench_to_csv(res) == quench_to_csv(one)
            assert np.array_equal(res.probs, one.probs)

    @pytest.mark.parametrize("build", [build_rydberg, build_pxp])
    def test_drive_mix_with_one_substep_count(self, p, build):
        lat = build_lattice("chain", 8)
        basis = enumerate_blockaded(lat)
        drives = [DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, 1.1 * p.omega),
                  DriveProfile.square(0.3 * p.omega, 0.8 * p.omega, 0.5 * p.omega),
                  DriveProfile.constant(0.4 * p.omega)]
        cfg = EvolutionConfig(total_time=0.06, dt=0.001, record_stride=5)
        assert {scarsim.evolve.substep_count(d, cfg.dt) for d in drives} == {1}
        self._check(lat, basis, build(lat, basis, p), drives, cfg)

    @pytest.mark.parametrize("build", [build_rydberg, build_pxp])
    def test_ring_in_the_symmetric_subspace(self, p, build, step_dims):
        """The restricted parts and projected state that build_system gives
        run as a block; the state, operator and basis must agree."""
        lat = build_lattice("chain", 12, periodic=True)
        model = build.__name__.removeprefix("build_")
        basis, parts, psi0 = build_system(lat, model, p, "AF1")
        assert parts.iso is not None and len(psi0) == parts.dim == 47
        drives = [DriveProfile.cosine(0.5 * p.omega, p.omega, f * p.omega)
                  for f in (1.3, 1.33, 1.36)]
        cfg = EvolutionConfig(total_time=0.02, dt=0.002, record_stride=5)
        self._check(lat, basis, parts, drives, cfg, cuts=(tuple(range(6)),), psi0=psi0)
        assert set(step_dims) == {47}
        # a full-basis state, or a basis the isometry does not map into
        with pytest.raises(ConfigError, match="dimensions disagree"):
            run_block(lat, basis, parts, [drives[0]], named_state(lat, basis, "AF1"),
                      cfg)
        with pytest.raises(ConfigError, match="dimensions disagree"):
            run_block(lat, enumerate_blockaded(build_lattice("chain", 12)), parts,
                      [drives[0]], psi0, cfg)

    def test_refuses_unequal_substep_counts(self, p, chain9):
        lat, basis = chain9
        parts = build_rydberg(lat, basis, p)
        drives = [DriveProfile.cosine(0.5 * p.omega, 0.5 * p.omega, f * p.omega)
                  for f in (0.8, 1.6)]
        cfg = EvolutionConfig(total_time=0.01, dt=0.002)
        counts = [scarsim.evolve.substep_count(d, cfg.dt) for d in drives]
        assert counts[0] != counts[1]
        with pytest.raises(ConfigError, match="substep"):
            run_block(lat, basis, parts, drives, named_state(lat, basis, "AF1"), cfg)

    def test_substep_rule(self, p):
        dt = 0.002
        assert scarsim.evolve.substep_count(DriveProfile.constant(1.0), dt) == 1
        slow = DriveProfile.cosine(0.0, 1.0, math.tau / (400 * dt))
        assert scarsim.evolve.substep_count(slow, dt) == 1
        fast = DriveProfile.cosine(0.0, 1.0, 1.2 * p.omega)
        period = math.tau / fast.omegam
        assert scarsim.evolve.substep_count(fast, dt) == math.ceil(dt * 200 / period)


@pytest.fixture
def sizing_log(monkeypatch):
    """Calls of the series sizing (coefficients and bounds) a run makes, the
    bounds those calls return, and each propagate call as
    (starts, h, psi in, psi out)."""
    calls = {"coef": 0, "bound": 0}
    bounds, runs = [], []
    coef = scarsim.evolve._chebyshev_coefficients
    bound = scarsim.hamiltonian.HamiltonianParts.spectral_bound
    propagate = scarsim.evolve.propagate

    def spy_coef(x):
        calls["coef"] += 1
        return coef(x)

    def spy_bound(parts, delta):
        calls["bound"] += 1
        bounds.append(bound(parts, delta))
        return bounds[-1]

    def spy_propagate(parts, drives, psi, starts, h):
        out = propagate(parts, drives, psi, starts, h)
        runs.append((tuple(starts), h, psi, out))
        return out

    monkeypatch.setattr(scarsim.evolve, "_chebyshev_coefficients", spy_coef)
    monkeypatch.setattr(scarsim.hamiltonian.HamiltonianParts, "spectral_bound", spy_bound)
    monkeypatch.setattr(scarsim.evolve, "propagate", spy_propagate)
    return calls, bounds, runs


class TestIntervalSeries:
    """A quench sizes one Chebyshev series per record interval and column."""

    @pytest.mark.parametrize("n_drives", [1, 2])
    def test_driven_run_sizes_once_per_interval(self, p, chain9, sizing_log, n_drives):
        lat, basis = chain9
        parts = build_rydberg(lat, basis, p)
        drives = [DriveProfile.cosine(0.5 * p.omega, 0.5 * p.omega, f * p.omega)
                  for f in (1.2, 1.25)[:n_drives]]
        # 12 steps of 3 substeps; strides of 3 make 4 intervals of 9 substeps
        cfg = EvolutionConfig(total_time=0.024, dt=0.002, record_stride=3)
        assert {scarsim.evolve.substep_count(d, cfg.dt) for d in drives} == {3}
        run_block(lat, basis, parts, drives, named_state(lat, basis, "AF1"), cfg)
        calls, _, runs = sizing_log
        assert calls == {"coef": 4, "bound": 4}
        assert [len(starts) for starts, *_ in runs] == [9] * 4

    def test_constant_drive_equals_single_steps(self, p, chain9, sizing_log):
        lat, basis = chain9
        parts = build_rydberg(lat, basis, p)
        drive = DriveProfile.constant(0.4 * p.omega)
        psi = named_state(lat, basis, "AF1").astype(complex)
        cfg = EvolutionConfig(total_time=0.048, dt=0.002, record_stride=4)
        res = run_block(lat, basis, parts, [drive], psi, cfg)[0]
        _, _, runs = sizing_log
        intervals = list(runs)
        assert [len(starts) for starts, *_ in intervals] == [4] * 6
        # each interval equals lone steps, which size their own series
        for starts, dt, _, out in intervals:
            for t in starts:
                psi = propagate(parts, (drive,), psi, (t,), dt)
            assert np.array_equal(_bits(psi), _bits(out))
        assert np.array_equal(res.probs[-1], np.abs(psi) ** 2)

    @pytest.mark.parametrize("shape", ["square", "cosine"])
    def test_each_step_matches_the_dense_oracle(self, p, chain9, sizing_log, shape):
        """Per interval, against the product of exp(-i H(midpoint) h) over
        its substeps to 1e-12, where the interval's bound exceeds the
        substeps' own: the square wave's intervals straddle its jumps, and
        the cosine's reach its extrema."""
        lat, basis = chain9
        parts = build_rydberg(lat, basis, p)
        drive = getattr(DriveProfile, shape)(0.55 * p.omega, 0.55 * p.omega,
                                             1.1 * p.omega)
        cfg = EvolutionConfig(total_time=0.3, dt=0.002, record_stride=5)
        run_block(lat, basis, parts, [drive], named_state(lat, basis, "AF1"), cfg,
                  record_probs=False)
        _, bounds, runs = sizing_log
        bounds, runs = list(bounds), list(runs)
        assert len(bounds) == len(runs) == 30
        gaps = []
        for (starts, h, psi, out), pair in zip(runs, bounds):
            ref, own = psi, []
            for t in starts:
                delta = detuning_at(drive, t + h / 2)
                own.append(float(parts.spectral_bound(delta)))
                ref = dense_propagator(parts, delta, h) @ ref
            # the bound at the least and greatest detuning is the largest
            assert pair.max() == max(own)
            gaps += [pair.max() - b for b in own]
            assert np.abs(out - ref).max() < 1e-12
        assert min(gaps) == 0.0
        # a jump or an extremum inside an interval widens its substeps' bounds
        assert max(gaps) > (1.0 if shape == "square" else 0.1) * p.omega


class TestDensePropagator:
    def test_identity_at_zero(self, system8):
        _, basis, parts = system8
        u = dense_propagator(parts, 0.1, 0.0)
        assert np.abs(u - np.eye(basis.dim)).max() < 1e-12

    def test_semigroup_and_unitarity(self, system8):
        _, basis, parts = system8
        u1 = dense_propagator(parts, 0.2, 0.35)
        u2 = dense_propagator(parts, 0.2, 0.27)
        u3 = dense_propagator(parts, 0.2, 0.62)
        assert np.abs(u1 @ u2 - u3).max() < 1e-9
        assert np.abs(u1.conj().T @ u1 - np.eye(basis.dim)).max() < 1e-10

    def test_dimension_guard(self, p):
        lat = build_lattice("chain", 16)
        basis = enumerate_blockaded(lat)
        parts = build_pxp(lat, basis, p)
        with pytest.raises(CapacityError):
            dense_propagator(parts, 0.0, 1.0)


class TestRunQuench:
    def test_probability_and_norm_conservation(self, p, chain9, chain9_states):
        lat, basis = chain9
        af1, _, _ = chain9_states
        parts = build_rydberg(lat, basis, p)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[basis.index_of(af1)] = 1
        cfg = EvolutionConfig(total_time=0.5, dt=0.002, record_stride=5)
        res = run_block(lat, basis, parts, [DriveProfile.constant(0.0)], psi0, cfg)[0]
        assert np.allclose(res.probs.sum(axis=1), 1.0, atol=1e-9)
        stride_t = cfg.dt * cfg.record_stride
        assert np.allclose(res.times, np.arange(len(res.times)) * stride_t)

    def test_energy_conservation_constant_drive(self, p, system8):
        _, basis, parts = system8
        drive = DriveProfile.constant(0.3 * p.omega)
        off, diag = parts.flip, parts.diagonal(drive.delta0)
        psi = random_state(basis.dim, 6)
        e0 = np.vdot(psi, off @ psi + diag * psi).real
        for k in range(1000):
            psi = propagate(parts, (drive,), psi, (k * 0.002,), 0.002)
        e1 = np.vdot(psi, off @ psi + diag * psi).real
        assert abs(e1 - e0) / abs(e0) < 1e-6

    def test_sublattice_symmetric_ggg(self, p):
        # even ring: a lattice automorphism exchanges the sublattices
        lat = build_lattice("chain", 10, periodic=True)
        basis = enumerate_blockaded(lat)
        parts = build_pxp(lat, basis, p)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[basis.index_of(0)] = 1
        cfg = EvolutionConfig(total_time=0.4, dt=0.002, record_stride=10)
        res = run_block(lat, basis, parts, [DriveProfile.constant(0.0)], psi0, cfg,
                        record_probs=False)[0]
        assert np.abs(res.n_a - res.n_b).max() < 1e-9

    def test_scar_revival_frequency_band(self, p, chain9, chain9_states):
        from scarsim.analysis import fit_damped_cosine, imbalance

        lat, basis = chain9
        af1, _, _ = chain9_states
        parts = build_pxp(lat, basis, p)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[basis.index_of(af1)] = 1
        dq = optimal_detuning(lat, p)
        cfg = EvolutionConfig(total_time=1.5, dt=0.002, record_stride=1)
        res = run_block(lat, basis, parts, [DriveProfile.constant(dq)], psi0, cfg,
                        record_probs=False)[0]
        fit = fit_damped_cosine(imbalance(res), res.times)
        assert fit.converged
        assert 0.55 <= fit.omega_tilde / p.omega <= 0.75

    def test_drive_resolution_guard_subdivides(self, p):
        # coarse dt with a fast drive must still integrate accurately
        lat = build_lattice("chain", 6)
        basis = enumerate_blockaded(lat)
        parts = build_rydberg(lat, basis, p)
        drive = DriveProfile.cosine(0.55 * p.omega, 0.55 * p.omega, 1.75 * p.omega)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[basis.index_of(0)] = 1
        cfg = EvolutionConfig(total_time=0.1, dt=0.005, record_stride=4)
        res = run_block(lat, basis, parts, [drive], psi0, cfg, record_probs=False)[0]
        # reference with a fine explicit grid
        fine = psi0.copy()
        n = 2000
        dt = 0.1 / n
        for k in range(n):
            fine = propagate(parts, (drive,), fine, (k * dt,), dt)
        pops = np.abs(fine) ** 2
        shifts = np.arange(6)
        site = pops @ ((basis.states[:, None] >> shifts) & 1).astype(float)
        assert np.abs(res.site_pops[-1] - site).max() < 1e-4

    def test_input_validation(self, p, system8):
        lat, basis, parts = system8
        cfg = EvolutionConfig(total_time=0.1)
        with pytest.raises(ConfigError):
            run_block(lat, basis, parts, [DriveProfile.constant(0.0)],
                      np.ones(basis.dim, dtype=complex), cfg)
        with pytest.raises(ConfigError):
            EvolutionConfig(total_time=1.0, dt=-0.1)
        with pytest.raises(ConfigError):
            EvolutionConfig(total_time=1.0, krylov_dim=2)
        # grids a run would truncate, refused also outside a config document
        with pytest.raises(ConfigError, match="evolution.total_time: must be a whole"):
            EvolutionConfig(total_time=0.0105, dt=0.002)
        with pytest.raises(ConfigError, match="evolution.record_stride: must divide"):
            EvolutionConfig(total_time=0.02, dt=0.002, record_stride=3)
        # a step count past the float range, refused before round(inf)
        for total_time, dt in ((1e300, 1e-10), (1.0, 1e-320)):
            with pytest.raises(ConfigError, match="evolution.dt: .* overflows"):
                EvolutionConfig(total_time=total_time, dt=dt)
        # a finite step count over the bound, refused before the run steps
        for total_time in (1e300, (MAX_STEPS + 1) * 0.5):
            with pytest.raises(CapacityError, match="evolution.total_time: .* bound"):
                EvolutionConfig(total_time=total_time, dt=0.5)
        assert EvolutionConfig(total_time=MAX_STEPS * 0.5, dt=0.5).n_steps == MAX_STEPS
        assert EvolutionConfig(total_time=0.7, dt=0.002, record_stride=5).n_steps == 350


class TestReducedDensityMatrix:
    def test_product_state_is_pure(self, chain9, chain9_states):
        _, basis = chain9
        af1, _, _ = chain9_states
        psi = np.zeros(basis.dim, dtype=complex)
        psi[basis.index_of(af1)] = 1
        rho = reduced_density_matrix(psi, basis, (0, 1, 2))
        evals = np.linalg.eigvalsh(rho)
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)
        assert entanglement_entropy(rho) < 1e-12

    def test_single_site_of_af1(self, chain9, chain9_states):
        _, basis = chain9
        af1, _, _ = chain9_states
        psi = np.zeros(basis.dim, dtype=complex)
        psi[basis.index_of(af1)] = 1
        rho = reduced_density_matrix(psi, basis, (0,))
        assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-14)

    def test_bell_pair(self):
        lat = build_lattice("chain", 2)
        basis = enumerate_blockaded(lat)
        psi = np.zeros(basis.dim, dtype=complex)
        psi[basis.index_of(0b01)] = 1 / math.sqrt(2)
        psi[basis.index_of(0b10)] = 1 / math.sqrt(2)
        rho = reduced_density_matrix(psi, basis, (0,))
        assert np.allclose(rho, np.diag([0.5, 0.5]), atol=1e-14)
        assert entanglement_entropy(rho) == pytest.approx(math.log(2), rel=1e-12)

    def test_properties_random_states(self, chain9):
        lat, basis = chain9
        for seed, subset in [(0, (0, 1)), (1, (2, 5, 7)), (2, tuple(range(4)))]:
            psi = random_state(basis.dim, seed)
            rho = reduced_density_matrix(psi, basis, subset)
            evals = np.linalg.eigvalsh(rho)
            assert evals.min() > -1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.abs(rho - rho.conj().T).max() < 1e-14
            sub_lat = build_lattice("chain", len(subset))
            max_dim = enumerate_blockaded(sub_lat).dim
            # contiguous chain cuts: entropy bounded by the valid subspace size
            if subset == tuple(range(len(subset))):
                assert entanglement_entropy(rho) <= math.log(max_dim) + 1e-12

    def test_subset_validation(self, chain9):
        _, basis = chain9
        psi = random_state(basis.dim, 3)
        with pytest.raises(ConfigError):
            reduced_density_matrix(psi, basis, ())
        with pytest.raises(ConfigError):
            reduced_density_matrix(psi, basis, (9,))
        with pytest.raises(ConfigError):
            reduced_density_matrix(psi, basis, tuple(range(9)))

    @pytest.mark.parametrize("subset", [(0,), (2, 5, 7), tuple(range(4))])
    def test_precomputed_index_keeps_the_bits(self, chain9, subset):
        """A cut index computed once gives the bits of a call that computes
        its own, and both equal the plain 0.5 (rho + rho^dagger)."""
        _, basis = chain9
        index = scarsim.evolve._cut_index(basis, subset)
        for seed in range(3):
            psi = random_state(basis.dim, seed)
            rho = reduced_density_matrix(psi, basis, subset)
            assert np.array_equal(reduced_density_matrix(psi, basis, subset, index), rho)
            mask = sum(1 << site for site in subset)
            _, rows = np.unique(basis.states & mask, return_inverse=True)
            _, cols = np.unique(basis.states & ~mask, return_inverse=True)
            m = np.zeros((rows.max() + 1, cols.max() + 1), dtype=complex)
            m[rows, cols] = psi
            plain = m @ m.conj().T
            assert np.array_equal(rho, 0.5 * (plain + plain.conj().T))

    def test_entropy_guards(self):
        with pytest.raises(NumericalError):
            entanglement_entropy(np.diag([1.2, -0.2]))
        assert entanglement_entropy(np.diag([0.5, 0.5])) == pytest.approx(math.log(2))

    @pytest.mark.parametrize("kind,extent,periodic,subset,n_valid", [
        ("chain", 16, True, tuple(range(8)), 55),    # half of the 16-site ring
        ("chain", 9, False, (0, 2, 3, 7), 12),        # non-contiguous chain cut
        ("square", 4, False, (0, 1, 4, 5, 10), 14),  # 2x2 block plus one site
    ])
    def test_rows_are_valid_patterns(self, kind, extent, periodic, subset, n_valid):
        lat = build_lattice(kind, extent, periodic=periodic)
        basis = enumerate_blockaded(lat)
        # count blockade-valid patterns of the kept sites from the bond list
        bonds = [(int(i), int(j)) for i, j in lat.nn_pairs
                 if i in subset and j in subset]
        valid = [occ for occ in np.ndindex(*(2,) * len(subset))
                 if not any(occ[subset.index(i)] and occ[subset.index(j)]
                            for i, j in bonds)]
        assert len(valid) == n_valid
        psi = random_state(basis.dim, 6)
        rho = reduced_density_matrix(psi, basis, subset)
        assert rho.shape == (n_valid, n_valid)
        # reference: Schmidt values of the amplitude matrix psi[kept, rest]
        mask = sum(1 << s for s in subset)
        rows: dict[int, int] = {}
        cols: dict[int, int] = {}
        amp = np.zeros((n_valid, basis.dim), dtype=complex)
        for state, c in zip(basis.states.tolist(), psi):
            r = rows.setdefault(state & mask, len(rows))
            amp[r, cols.setdefault(state & ~mask, len(cols))] = c
        p = np.linalg.svd(amp, compute_uv=False) ** 2
        p = p[p >= 1e-14]
        expect = float(-(p * np.log(p)).sum())
        assert abs(entanglement_entropy(rho) - expect) < 1e-12


@pytest.fixture
def step_dims(monkeypatch):
    """Dimension of the operator each propagate call of run_block gets."""
    dims = []
    propagate = scarsim.evolve.propagate

    def spy(parts, *args):
        dims.append(parts.dim)
        return propagate(parts, *args)

    monkeypatch.setattr(scarsim.evolve, "propagate", spy)
    return dims


class TestRingSymmetricSubspace:
    """Ring quenches from symmetric states propagate in the orbit subspace."""

    @pytest.mark.parametrize("n", [10, 11, 12])
    @pytest.mark.parametrize("build", [build_pxp, build_rydberg])
    def test_restriction_is_exact(self, p, ring_of, dense_isometry, n, build):
        """The parts built from the orbit representatives are P^T H P of
        the full build, and H P = P S."""
        lat = ring_of(n)
        basis = enumerate_blockaded(lat)
        parts = build(lat, basis, p)
        iso = symmetric_isometry(basis, symmetry_permutations(lat))
        small = build(lat, basis, p, iso)
        assert small.iso is iso and small.dim == iso.n_orbits
        dense_iso = dense_isometry(iso)
        for delta in (0.0, 0.7 * p.omega):
            h = parts.dense(delta)
            assert np.abs(dense_iso.T @ h @ dense_iso - small.dense(delta)).max() < 1e-13
            assert np.abs(h @ dense_iso - dense_iso @ small.dense(delta)).max() < 1e-13

    @pytest.mark.parametrize("n", [16, 22])
    @pytest.mark.parametrize("build", [build_pxp, build_rydberg])
    def test_restriction_is_the_sparse_product(self, p, n, build):
        """On the larger rings the restricted flip operator stores the
        pattern of P^T O P, taken with scipy from the full build, and its
        values to 1e-14 relative; the diagonals are the representatives'."""
        import scipy.sparse as sp

        lat = build_lattice("chain", n, periodic=True)
        basis = enumerate_blockaded(lat)
        parts = build(lat, basis, p)
        iso = symmetric_isometry(basis, symmetry_permutations(lat))
        small = build(lat, basis, p, iso)
        p_sparse = sp.csr_matrix((iso.weight, (np.arange(basis.dim), iso.orbit)),
                                 shape=(basis.dim, iso.n_orbits))
        ref = (p_sparse.T @ parts.flip.matrix @ p_sparse).tocsr()
        ref.sort_indices()
        assert np.array_equal(small.flip.indptr, ref.indptr)
        assert np.array_equal(small.flip.indices, ref.indices)
        assert np.abs(small.flip.data - ref.data).max() < 1e-14 * np.abs(ref.data).max()
        for name in ("diag_static", "diag_number"):
            assert np.array_equal(getattr(small, name), getattr(parts, name)[iso.first])

    def test_restriction_refuses_broken_symmetry(self, p, monkeypatch):
        """A beyond-NN diagonal that is not constant on the orbits (a
        site-0 potential) runs the Rydberg model in the full basis."""
        lat = build_lattice("chain", 12, periodic=True)
        assert build_system(lat, "rydberg", p, "AF1")[1].iso is not None
        diagonal = scarsim.hamiltonian._interaction_diagonal

        def pinned(lat, basis, p):
            return diagonal(lat, basis, p) + 0.3 * (basis.states & 1)

        monkeypatch.setattr(scarsim.hamiltonian, "_interaction_diagonal", pinned)
        basis, parts, psi0 = build_system(lat, "rydberg", p, "AF1")
        assert parts.iso is None and parts.dim == basis.dim
        assert np.array_equal(psi0, named_state(lat, basis, "AF1"))
        assert np.array_equal(parts.diag_static, pinned(lat, basis, p))

    @pytest.mark.parametrize("group", ["swap", "unclosed", "not_a_permutation"])
    def test_restriction_refuses_a_group_of_non_automorphisms(self, p, monkeypatch, group):
        """A group with an element that does not map the bonds onto
        themselves (sites 0 and 2 swapped), automorphisms that are not
        closed under composition (the translation by two alone) and a row
        that is no permutation are each refused: the quench runs in the
        full basis."""
        lat = build_lattice("chain", 12, periodic=True)
        sites = np.arange(12)
        perms = {"swap": [sites, np.r_[2, 1, 0, sites[3:]]],
                 "unclosed": [(sites + 2) % 12],
                 "not_a_permutation": [sites, np.r_[0, 0, sites[2:]]]}[group]
        monkeypatch.setattr(scarsim.evolve, "symmetry_permutations",
                            lambda lat: np.array(perms))
        basis, parts, psi0 = build_system(lat, "pxp", p, "AF1")
        # the start state lies in the group's subspace; the build refuses
        assert symmetric_restriction(lat, basis, psi0) is not None
        assert parts.iso is None and parts.dim == basis.dim
        assert np.array_equal(psi0, named_state(lat, basis, "AF1"))

    def test_restriction_refuses_rows_that_store_other_columns(self, p):
        """Each orbit member's flip row must store the columns of its
        representative's: a ring with one extra bond, between sites 0 and
        2, changes the rows of some members but not of their images, and
        its ring group is refused."""
        ring = build_lattice("chain", 12, periodic=True)
        bent = dataclasses.replace(ring, nn_pairs=np.vstack([ring.nn_pairs, [[0, 2]]]))
        for lat, exact in ((ring, True), (bent, False)):
            basis = enumerate_blockaded(lat)
            iso = symmetric_isometry(basis, symmetry_permutations(ring))
            parts = build_pxp(lat, basis, p, iso)
            assert (parts.iso is iso) == exact
            assert parts.dim == (iso.n_orbits if exact else basis.dim)

    def test_ring_build_never_makes_the_full_operator(self, p, monkeypatch):
        """A 22-ring build_system builds the restricted parts without the
        full-basis flip operator; a chain still builds it."""
        def refuse(*args):
            raise AssertionError("_flip_operator called")

        monkeypatch.setattr(scarsim.hamiltonian, "_flip_operator", refuse)
        basis, parts, psi0 = build_system(build_lattice("chain", 22, periodic=True),
                                          "pxp", p, "AF1")
        assert (basis.dim, parts.dim, len(parts.flip.data)) == (39_603, 1990, 22_180)
        with pytest.raises(AssertionError, match="_flip_operator"):
            build_system(build_lattice("chain", 12), "pxp", p, "AF1")

    def _oracle(self, parts, drive, psi0s, cfg, nsub):
        """Full-basis dense midpoint propagation of each column of psi0s, one
        eigendecomposition per substep; the states on the record grid."""
        h = cfg.dt / nsub
        states, psi = [psi0s], psi0s.astype(complex)
        for step in range(int(round(cfg.total_time / cfg.dt))):
            for k in range(nsub):
                t = step * cfg.dt + k * h
                psi = dense_propagator(parts, detuning_at(drive, t + h / 2), h) @ psi
            if (step + 1) % cfg.record_stride == 0:
                states.append(psi)
        return states

    @pytest.mark.parametrize("model", [build_pxp, build_rydberg])
    def test_matches_full_basis_dense_oracle(self, p, model, step_dims):
        """Quenches from build_system's restricted parts, expanded at every
        snapshot, match the full-basis dense propagation."""
        lat = build_lattice("chain", 12, periodic=True)
        basis = enumerate_blockaded(lat)
        parts = model(lat, basis, p)
        drive = DriveProfile.cosine(0.5 * p.omega, p.omega, 1.33 * p.omega)
        cfg = EvolutionConfig(total_time=0.02, dt=0.002, record_stride=2)
        nsub = math.ceil(cfg.dt * 200 / drive.period)
        assert nsub == 3
        half = tuple(range(6))
        bits = ((basis.states[:, None] >> np.arange(12)) & 1).astype(float)
        names = ("AF1", "AF2", "GGG")
        psi0s = np.column_stack([named_state(lat, basis, name) for name in names])
        ref = self._oracle(parts, drive, psi0s, cfg, nsub)
        for col, name in enumerate(names):
            sys_basis, small, psi0 = build_system(
                lat, model.__name__.removeprefix("build_"), p, name)
            assert np.array_equal(sys_basis.states, basis.states)
            step_dims.clear()
            res = run_block(lat, sys_basis, small, [drive], psi0, cfg,
                            entropy_cuts=(half,))[0]
            # one propagation per record interval
            assert set(step_dims) == {47} and len(step_dims) == 5
            states = [s[:, col] for s in ref]
            probs = np.array([np.abs(s) ** 2 for s in states])
            ents = [entanglement_entropy(reduced_density_matrix(s, basis, half))
                    for s in states]
            assert np.abs(res.probs - probs).max() < 1e-10
            assert np.abs(res.site_pops - probs @ bits).max() < 1e-10
            assert np.abs(res.entropies[:, 0] - ents).max() < 1e-10
            # the phases too: the restricted parts stepped on their own and
            # expanded to the full basis
            psi, h = psi0, cfg.dt / nsub
            for step in range(int(round(cfg.total_time / cfg.dt))):
                for k in range(nsub):
                    psi = propagate(small, (drive,), psi, (step * cfg.dt + k * h,), h)
            assert np.abs(small.iso.expand(psi) - states[-1]).max() < 1e-10

    @pytest.mark.parametrize("n", [10, 14, 22])
    @pytest.mark.parametrize("driven", [True, False])
    def test_orbit_space_populations_equal_the_full_basis(self, p, n, driven):
        """Site populations, nA and nB read in the orbit space equal those
        of the expanded state, |P psi|^2 @ site_bit_table, to 1e-14."""
        lat = build_lattice("chain", n, periodic=True)
        basis, parts, psi0 = build_system(lat, "pxp", p, "AF1")
        assert parts.iso is not None and parts.dim < basis.dim
        drive = (DriveProfile.cosine(0.5 * p.omega, p.omega, 1.33 * p.omega) if driven
                 else DriveProfile.constant(0.4 * p.omega))
        cfg = EvolutionConfig(total_time=0.02, dt=0.002, record_stride=2)
        res = run_block(lat, basis, parts, [drive], psi0, cfg, record_probs=True)[0]
        site = res.probs @ site_bit_table(basis)
        assert np.abs(res.site_pops - site).max() < 1e-14
        assert np.abs(res.n_a - site[:, lat.sites_of(0)].mean(axis=1)).max() < 1e-14
        assert np.abs(res.n_b - site[:, lat.sites_of(1)].mean(axis=1)).max() < 1e-14
        # the populations move away from AF1
        assert np.abs(np.diff(res.n_a)).max() > 1e-3

    def test_ring_run_never_builds_the_bit_table(self, p, monkeypatch):
        """A ring run reads populations from its per-orbit table, also with
        entropy cuts and probabilities; a chain run still uses the bits."""
        def refuse(basis):
            raise AssertionError("site_bit_table called")

        monkeypatch.setattr(scarsim.evolve, "site_bit_table", refuse)
        cfg = EvolutionConfig(total_time=0.01, dt=0.002)
        ring = build_lattice("chain", 12, periodic=True)
        basis, parts, psi0 = build_system(ring, "pxp", p, "AF1")
        assert parts.iso is not None
        run_block(ring, basis, parts, [DriveProfile.constant(0.0)], psi0, cfg,
                  entropy_cuts=(tuple(range(6)),), record_probs=True)
        chain = build_lattice("chain", 12)
        basis, parts, psi0 = build_system(chain, "pxp", p, "AF1")
        with pytest.raises(AssertionError, match="site_bit_table"):
            run_block(chain, basis, parts, [DriveProfile.constant(0.0)], psi0, cfg)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_cut_index_once_per_cut(self, p, monkeypatch, periodic):
        """run_block computes each cut's index once, not once per snapshot,
        and its entropies equal those of reduced_density_matrix alone."""
        calls = []
        cut_index = scarsim.evolve._cut_index

        def spy(basis, subset):
            calls.append(subset)
            return cut_index(basis, subset)

        monkeypatch.setattr(scarsim.evolve, "_cut_index", spy)
        lat = build_lattice("chain", 12, periodic=periodic)
        basis, parts, psi0 = build_system(lat, "pxp", p, "AF1")
        cuts = (tuple(range(6)), (0, 3, 4))
        cfg = EvolutionConfig(total_time=0.02, dt=0.002, record_stride=2)
        res = run_block(lat, basis, parts, [DriveProfile.constant(0.3 * p.omega)],
                        psi0, cfg, entropy_cuts=cuts)[0]
        assert calls == list(cuts) and len(res.times) == 6
        # the start state's entropies, from indices computed per call
        psi = psi0 if parts.iso is None else parts.iso.expand(psi0)
        assert res.entropies[0].tolist() == [
            entanglement_entropy(reduced_density_matrix(psi, basis, cut)) for cut in cuts]
        assert len(calls) == 2 * len(cuts)

    def test_random_state_runs_unreduced(self, p, step_dims):
        lat = build_lattice("chain", 12, periodic=True)
        basis = enumerate_blockaded(lat)
        parts = build_pxp(lat, basis, p)
        psi0 = random_state(basis.dim, 3)
        assert symmetric_restriction(lat, basis, psi0) is None
        assert symmetric_restriction(lat, basis,
                                     named_state(lat, basis, "AF1")).n_orbits == 47
        # the same lattice without the wrap flag has no isometry at all
        assert symmetric_restriction(dataclasses.replace(lat, periodic=False), basis,
                                     named_state(lat, basis, "AF1")) is None
        drive = DriveProfile.cosine(0.5 * p.omega, p.omega, 1.33 * p.omega)
        cfg = EvolutionConfig(total_time=0.01, dt=0.002)
        run_block(lat, basis, parts, [drive], psi0, cfg, entropy_cuts=((0, 1, 2),))
        assert set(step_dims) == {basis.dim}

    def test_open_chain_is_never_reduced(self, p, step_dims):
        lat = build_lattice("chain", 12)
        basis, parts, psi0 = build_system(lat, "pxp", p, "AF1")
        assert parts.iso is None and parts.dim == basis.dim
        assert np.array_equal(psi0, named_state(lat, basis, "AF1"))
        run_block(lat, basis, parts, [DriveProfile.constant(0.0)], psi0,
                  EvolutionConfig(total_time=0.01, dt=0.002))
        assert set(step_dims) == {basis.dim}


class TestQuenchCsv:
    def test_round_trip_exact(self, p, chain9, chain9_states):
        lat, basis = chain9
        af1, _, _ = chain9_states
        parts = build_rydberg(lat, basis, p)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[basis.index_of(af1)] = 1
        cfg = EvolutionConfig(total_time=0.2, dt=0.002, record_stride=5)
        res = run_block(lat, basis, parts, [DriveProfile.constant(0.1)], psi0, cfg,
                        entropy_cuts=((0, 1, 2, 3),), record_probs=False)[0]
        back = quench_from_csv(quench_to_csv(res))
        assert np.array_equal(back.times, res.times)
        assert np.array_equal(back.site_pops, res.site_pops)
        assert np.array_equal(back.n_a, res.n_a)
        assert np.array_equal(back.entropies, res.entropies)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated (tracemalloc,
    which sees numpy's array buffers)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestSetupMemory:
    """A quench's set-up allocates in proportion to what it keeps, on the
    22-site ring (dim 39,603, 481,624 flips, 1,990 orbits)."""

    @pytest.fixture(scope="class")
    def ring22(self, p):
        lat = build_lattice("chain", 22, periodic=True)
        basis = enumerate_blockaded(lat)
        return lat, basis, build_pxp(lat, basis, p)

    def test_flip_operator(self, p, ring22):
        lat, basis, _ = ring22
        op, peak = _traced_peak(scarsim.hamiltonian._flip_operator, lat, basis, p.omega)
        # the kept CSR arrays alone take 12.3 bytes per entry
        assert len(op.data) == 481_624
        assert peak <= 22 * len(op.data)

    def test_restriction(self, p, ring22):
        """build_system builds the ring's restricted parts from the orbit
        representatives and never makes the full flip operator, whose
        kept arrays alone take 481,624 x 12.3 bytes (5.9 MB).  The measured
        peak is 3.9 MB."""
        lat, _, parts = ring22
        build_system(lat, "pxp", p, "AF1")    # lazy imports, made once
        (_, small, _), peak = _traced_peak(build_system, lat, "pxp", p, "AF1")
        assert small.dim == 1990
        assert peak <= len(parts.flip.data) * 123 // 10

    def test_ring_run_block_snapshots(self, p, ring22):
        """A 22-ring quench with the half-cut entropy reads populations
        from a 1,990 x 22 per-orbit table (0.35 MB), so the whole run
        allocates less than the 39,603 x 22 float bit table (6.97 MB) that
        the full-basis read took alone.  The measured peak is 4.1 MB, most
        of it the 233 x 233 product m m^dagger of one entropy snapshot
        (three 0.87 MB matrices)."""
        lat, basis, _ = ring22
        _, small, psi0 = build_system(lat, "pxp", p, "AF1")
        drive = DriveProfile.cosine(0.5 * p.omega, p.omega, 1.33 * p.omega)
        cfg = EvolutionConfig(total_time=0.01, dt=0.002, record_stride=5)

        def run():
            return run_block(lat, basis, small, [drive], psi0, cfg,
                             entropy_cuts=(tuple(range(11)),), record_probs=False)

        run()    # the operator's complex copy and lazy imports, made once
        (res,), peak = _traced_peak(run)
        assert res.entropies.shape == (2, 1)
        assert peak <= 2 * basis.dim * basis.n_sites * 8 // 3

    def test_site_bit_table(self, ring22):
        _, basis, _ = ring22
        table, peak = _traced_peak(site_bit_table, basis)
        assert table.shape == (39_603, 22)
        assert np.array_equal(table, ((basis.states[:, None] >> np.arange(22)) & 1))
        assert peak <= 9 * table.size
