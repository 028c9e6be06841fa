import math

import numpy as np
import pytest

from scarsim.analysis import fourier_spectrum, weight_at
from scarsim.errors import CapacityError, ConfigError
from scarsim.floquet import (
    TAU_C,
    PulsedParams,
    _pulsed_grid,
    apply_period,
    excitation_zz_affine_defect,
    pulsed_subharmonic_map,
    revival_fidelity_map,
)
from scarsim.hamiltonian import build_pxp
from scarsim.hilbert import canonical_states, enumerate_blockaded, named_state
from scarsim.lattice import PhysicalParams, build_lattice


def chain(l, boundary="periodic"):
    return build_lattice("chain", l, periodic=boundary == "periodic")


@pytest.fixture(scope="module")
def ring10():
    lat = build_lattice("chain", 10, periodic=True)
    basis = enumerate_blockaded(lat)
    parts = build_pxp(lat, basis, PhysicalParams(omega=1.0, v0=1.0))
    return lat, basis, parts


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestApplyPeriod:
    def test_identity_at_zero(self, ring10):
        _, basis, parts = ring10
        psi = random_state(basis.dim, 0)
        pp = PulsedParams(theta=0.0, tau=0.0)
        assert np.abs(apply_period(psi, pp, basis, parts) - psi).max() < 1e-12

    def test_full_turn_kick_is_trivial(self, ring10):
        _, basis, parts = ring10
        psi = random_state(basis.dim, 1)
        a = apply_period(psi, PulsedParams(theta=math.tau, tau=0.9), basis, parts)
        b = apply_period(psi, PulsedParams(theta=0.0, tau=0.9), basis, parts)
        assert np.abs(a - b).max() < 1e-10

    def test_unitarity(self, ring10):
        _, basis, parts = ring10
        psi = random_state(basis.dim, 2)
        out = apply_period(psi, PulsedParams(theta=2.1, tau=1.7), basis, parts)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9

    def test_echo_involution(self, ring10):
        _, basis, parts = ring10
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(10):
            tau = rng.uniform(0.2, math.tau)
            pp = PulsedParams(theta=math.pi, tau=tau)
            for seed in range(10):
                psi = random_state(basis.dim, seed)
                out = apply_period(apply_period(psi, pp, basis, parts), pp, basis, parts)
                worst = max(worst, float(np.linalg.norm(out - psi)))
        assert worst < 1e-8

    def test_epsilon_bookkeeping(self):
        pp = PulsedParams.from_epsilon(0.3, 1.0)
        assert pp.theta == pytest.approx(math.pi + 0.3)


class TestDiagonalIdentities:
    def test_ring_number_zz_affine(self, ring10):
        lat, basis, _ = ring10
        assert excitation_zz_affine_defect(lat, basis) < 1e-12

    def test_open_chain_edges_break_it(self):
        lat = build_lattice("chain", 9)
        basis = enumerate_blockaded(lat)
        assert excitation_zz_affine_defect(lat, basis) > 0.1


class TestRevivalMap:
    def test_perfect_echo_row(self):
        m = revival_fidelity_map(chain(10), [0.0], [0.4, TAU_C, 5.0],
                                 n_periods=25)
        assert np.allclose(m, 1.0, atol=1e-10)

    def test_plateau_beats_large_detuning_kick(self):
        m = revival_fidelity_map(chain(12), [0.3, 1.5], [TAU_C], n_periods=60)
        assert m[0, 0] > m[1, 0]

    def test_af_beats_vacuum_start(self):
        m_af = revival_fidelity_map(chain(12), [0.3], [TAU_C], n_periods=60)
        m_gg = revival_fidelity_map(chain(12), [0.3], [TAU_C], n_periods=60,
                                    initial_state="GGG")
        assert m_af[0, 0] > m_gg[0, 0]

    def test_guards(self):
        with pytest.raises(CapacityError):
            revival_fidelity_map(chain(22), [0.0], [1.0], n_periods=1)
        # the block guard counts the propagated dim: 89 on the 14-ring
        with pytest.raises(CapacityError, match="1000x800 map at dim 89"):
            revival_fidelity_map(chain(14), [0.1] * 1000, [1.0] * 800,
                                 n_periods=1)

    def test_oversize_grid_refused_before_eigendecomposition(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        with pytest.raises(CapacityError, match="1000x800 map at dim 89"):
            _pulsed_grid(chain(14), [0.1] * 1000, [1.0] * 800, "AF1")
        assert calls == []
        _pulsed_grid(chain(14), [0.1], [1.0], "AF1")
        assert calls == [(89, 89)]


class TestSubharmonicMap:
    def test_echo_gives_unit_weight(self):
        m = pulsed_subharmonic_map(chain(10), [0.0], [TAU_C], n_periods=60)
        assert m[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_exchange_time_outperforms_half(self):
        m = pulsed_subharmonic_map(chain(12), [0.5], [TAU_C / 2, TAU_C],
                                   n_periods=120)
        assert m[0, 1] > m[0, 0]

    def test_spin_exchange_peak_location(self):
        # the AF1 -> AF2 transfer peaks near tau = 0.755 * 2 pi
        lat = build_lattice("chain", 14, periodic=True)
        basis = enumerate_blockaded(lat)
        parts = build_pxp(lat, basis, PhysicalParams(omega=1.0, v0=1.0))
        af1, af2, _ = canonical_states(lat)
        h = parts.dense(0.0)
        evals, q = np.linalg.eigh(h)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[basis.index_of(af1)] = 1
        i2 = basis.index_of(af2)
        taus = np.linspace(0.70 * math.tau, 0.81 * math.tau, 45)
        amp = [abs(((q * np.exp(-1j * t * evals)) @ (q.conj().T @ psi0))[i2]) ** 2
               for t in taus]
        k = int(np.argmax(amp))
        assert 0 < k < len(taus) - 1
        assert abs(taus[k] - TAU_C) < 0.02 * math.tau
        assert amp[k] > 0.85


GRID_EPS = [0.0, 0.35, 1.1]
GRID_TAUS = [0.9, TAU_C, 5.0]
MAPS = {"revival": revival_fidelity_map, "subharmonic": pulsed_subharmonic_map}
N_PERIODS = {"revival": 12, "subharmonic": 30}


def krylov_map(kind, l, boundary, epsilons, taus, n_periods):
    """Per-point reference through apply_period (Krylov), one point at a time."""
    lat = chain(l, boundary)
    basis = enumerate_blockaded(lat)
    parts = build_pxp(lat, basis, PhysicalParams(omega=1.0, v0=1.0))
    psi0 = named_state(lat, basis, "AF1")
    bits = ((basis.states[:, None] >> np.arange(l)) & 1).astype(float)
    a_sites, b_sites = lat.sites_of(0), lat.sites_of(1)

    def imbalance(psi):
        site = (np.abs(psi) ** 2) @ bits
        return site[a_sites].mean() - site[b_sites].mean()

    out = np.empty((len(epsilons), len(taus)))
    for i, eps in enumerate(epsilons):
        for j, tau in enumerate(taus):
            pp = PulsedParams.from_epsilon(eps, tau)
            psi = psi0
            if kind == "revival":
                acc = 0.0
                for _ in range(n_periods):
                    psi = apply_period(apply_period(psi, pp, basis, parts), pp,
                                       basis, parts)
                    acc += abs(np.vdot(psi0, psi)) ** 2
                out[i, j] = acc / n_periods
            else:
                series = [imbalance(psi)]
                for _ in range(n_periods):
                    psi = apply_period(psi, pp, basis, parts)
                    series.append(imbalance(psi))
                spec = fourier_spectrum(np.array(series),
                                        np.arange(n_periods + 1, dtype=float),
                                        calibration_omega=math.pi)
                out[i, j] = weight_at(spec, math.pi)
    return out


@pytest.mark.parametrize("l,boundary", [(10, "periodic"), (9, "open")])
class TestBatchedMaps:
    """The whole grid advances as one block; columns must not interact."""

    @pytest.mark.parametrize("kind", sorted(MAPS))
    def test_matches_krylov_reference(self, kind, l, boundary):
        n = N_PERIODS[kind]
        got = MAPS[kind](chain(l, boundary), GRID_EPS, GRID_TAUS, n_periods=n)
        ref = krylov_map(kind, l, boundary, GRID_EPS, GRID_TAUS, n)
        assert got.shape == (3, 3)
        assert np.abs(got - ref).max() < 1e-9

    @pytest.mark.parametrize("kind", sorted(MAPS))
    def test_point_alone_equals_point_in_grid(self, kind, l, boundary):
        n = N_PERIODS[kind]
        full = MAPS[kind](chain(l, boundary), GRID_EPS, GRID_TAUS, n_periods=n)
        for i, eps in enumerate(GRID_EPS):
            for j, tau in enumerate(GRID_TAUS):
                alone = MAPS[kind](chain(l, boundary), [eps], [tau], n_periods=n)
                assert abs(alone[0, 0] - full[i, j]) < 1e-12

    def test_echo_row(self, l, boundary):
        m = revival_fidelity_map(chain(l, boundary), GRID_EPS, GRID_TAUS,
                                 n_periods=N_PERIODS["revival"])
        assert np.abs(m[0] - 1.0).max() < 1e-9


@pytest.mark.parametrize("n_periods", [0, -1])
@pytest.mark.parametrize("kind", sorted(MAPS))
def test_maps_refuse_fewer_than_one_period(kind, n_periods, monkeypatch):
    """Refused before the grid is built: zero periods would divide by zero
    (revival) or leave a single sample to transform (subharmonic)."""
    import scarsim.floquet

    def unreachable(*args):
        raise AssertionError("_pulsed_grid ran")

    monkeypatch.setattr(scarsim.floquet, "_pulsed_grid", unreachable)
    with pytest.raises(ConfigError, match="n_periods: must be at least 1"):
        MAPS[kind](chain(10), [0.1], [1.0], n_periods=n_periods)


class TestRingSubspaceMaps:
    """Ring maps propagate in the <T^2, R>-symmetric subspace of AF1."""

    def test_propagated_dims(self):
        def dim(l, boundary):
            block, _, psi0, weights = _pulsed_grid(chain(l, boundary), [0.1, 0.2],
                                                   [1.0], "AF1")
            assert block.shape == (len(psi0), 2) and weights.shape == psi0.shape
            return len(psi0)

        assert (dim(14, "periodic"), dim(20, "periodic")) == (89, 881)
        # open chains keep the full basis
        assert dim(9, "open") == enumerate_blockaded(build_lattice("chain", 9)).dim

    # rings over 18 sites were refused while maps ran in the full basis
    @pytest.mark.parametrize("l", [16, 18, 20])
    @pytest.mark.parametrize("kind,n_periods", [("revival", 2), ("subharmonic", 5)])
    def test_matches_full_basis_krylov_reference(self, l, kind, n_periods):
        got = MAPS[kind](chain(l), [0.35], [0.9, TAU_C], n_periods=n_periods)
        ref = krylov_map(kind, l, "periodic", [0.35], [0.9, TAU_C], n_periods)
        assert got.shape == (1, 2)
        assert np.abs(got - ref).max() < 1e-9

    def test_echo_row_at_twenty_sites(self):
        m = revival_fidelity_map(chain(20), [0.0], [0.9, TAU_C, 5.0],
                                 n_periods=10)
        assert np.abs(m - 1.0).max() < 1e-9

    def test_no_full_basis_fallback(self, monkeypatch):
        import scarsim.evolve as evolve

        monkeypatch.setattr(evolve, "symmetric_restriction", lambda *args: None)
        with pytest.raises(ConfigError, match="symmetric subspace"):
            revival_fidelity_map(chain(10), [0.0], [1.0], n_periods=1)

    def test_oversize_ring_refused_before_full_enumeration(self):
        # 22 sites: |G| = 22, so enumeration stops past 22 * 1024 states,
        # long before the 39,603-state full basis
        with pytest.raises(CapacityError, match="22528 state bound"):
            _pulsed_grid(chain(22), [0.0], [1.0], "AF1")
