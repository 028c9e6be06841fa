import json
import math

import numpy as np
import pytest

from scarsim.errors import ConfigError, GeometryError
from scarsim.lattice import (
    LATTICE_KINDS,
    PhysicalParams,
    blockade_radius,
    build_lattice,
    bulk_site,
    decay_predictors,
    interaction_matrix,
    lattice_to_json,
    optimal_detuning,
    pair_distances,
    predict_lifetime,
    shell_masks,
    symmetry_permutations,
)


@pytest.fixture(scope="module")
def p():
    return PhysicalParams.from_mhz(4.2, 51.0)


class TestBuild:
    def test_chain3_geometry(self):
        lat = build_lattice("chain", 3)
        assert np.allclose(lat.positions, [(0, 0), (1, 0), (2, 0)])
        assert lat.sublattice.tolist() == [0, 1, 0]
        assert lat.coordination.tolist() == [1, 2, 1]

    def test_degenerate_zigzag_is_chain(self):
        z = build_lattice("zigzag_chain", 9, 2.0)
        c = build_lattice("chain", 9)
        assert np.allclose(z.positions, c.positions)
        assert (z.sublattice == c.sublattice).all()

    def test_honeycomb_nnn_shell(self):
        lat = build_lattice("honeycomb", 4.0)
        _, nnn, _ = shell_masks(lat)
        d = pair_distances(lat)
        assert nnn.any()
        assert np.allclose(d[nnn], math.sqrt(3.0), atol=1e-9)

    def test_zigzag_second_shell_distance(self):
        lat = build_lattice("zigzag_chain", 9, 1.5)
        _, nnn, _ = shell_masks(lat)
        d = pair_distances(lat)
        assert np.allclose(d[nnn], 1.5, atol=1e-9)

    @pytest.mark.parametrize("kind,extent,ratio", [
        ("chain", 11, None),
        ("zigzag_chain", 10, 1.4),
        ("square", 5, None),
        ("honeycomb", 4.0, None),
        ("lieb", 3, None),
        ("decorated_honeycomb", 5.0, None),
        ("edge_imbalanced_decorated_honeycomb", 6.0, None),
    ])
    def test_bipartite_and_majority_a(self, kind, extent, ratio):
        lat = build_lattice(kind, extent, ratio)
        nn, _, _ = shell_masks(lat)
        ii, jj = np.nonzero(nn)
        assert (lat.sublattice[ii] != lat.sublattice[jj]).all()
        assert (lat.sublattice == 0).sum() >= (lat.sublattice == 1).sum()
        assert (lat.coordination == nn.sum(axis=1)).all()

    def test_periodic_ring(self):
        lat = build_lattice("chain", 12, periodic=True)
        assert lat.periodic
        assert set(lat.coordination.tolist()) == {2}
        assert len(lat.nn_pairs) == 12

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_ring_group_is_t2_and_inversion(self, ring_of, n):
        """On odd rings T^2 generates every translation, so |G| = 2n."""
        perms = symmetry_permutations(ring_of(n))
        rows = {tuple(row) for row in perms.tolist()}
        assert len(rows) == len(perms) == (n if n % 2 == 0 else 2 * n)
        assert all(sorted(row) == list(range(n)) for row in rows)
        # closed under composition, and generated by i -> i + 2 and i -> -i
        assert {tuple(np.array(a)[list(b)]) for a in rows for b in rows} == rows
        gens = {tuple((np.arange(n) + 2) % n), tuple(-np.arange(n) % n)}
        group = {tuple(range(n))}
        while True:
            bigger = group | {tuple(np.array(g)[list(h)]) for g in group for h in gens}
            if bigger == group:
                break
            group = bigger
        assert group == rows

    def test_only_rings_have_a_symmetry_group(self):
        for kind, extent, ratio in (("chain", 9, None), ("zigzag_chain", 9, 1.4),
                                    ("square", 3, None), ("honeycomb", 2.1, None)):
            assert symmetry_permutations(build_lattice(kind, extent, ratio)) is None

    def test_errors(self):
        with pytest.raises(ConfigError):
            build_lattice("kagome", 3)
        with pytest.raises(ConfigError):
            build_lattice("chain", 5, 1.5)
        with pytest.raises(ConfigError):
            build_lattice("zigzag_chain", 5)
        with pytest.raises(ConfigError):
            build_lattice("chain", 0)
        # odd ring is frustrated, collapsing ratio merges the shells
        with pytest.raises(GeometryError):
            build_lattice("chain", 9, periodic=True)
        with pytest.raises(GeometryError):
            build_lattice("zigzag_chain", 9, 1.0)


class TestInteractions:
    def test_power_law_values(self, p):
        lat = build_lattice("chain", 5)
        v = interaction_matrix(lat, p)
        assert v[0, 1] == pytest.approx(p.v0, rel=1e-12)
        assert v[0, 2] == pytest.approx(p.v0 / 64.0, rel=1e-12)
        assert (v == v.T).all()
        assert (np.diag(v) == 0).all()
        assert v.max() == pytest.approx(p.v0, rel=1e-12)

    def test_honeycomb_nnn_coupling(self, p):
        lat = build_lattice("honeycomb", 3.0)
        v = interaction_matrix(lat, p)
        _, nnn, _ = shell_masks(lat)
        assert np.allclose(v[nnn], p.v0 / 27.0, rtol=1e-9)


class TestOptimalDetuning:
    def test_long_chain_constant(self, p):
        lat = build_lattice("chain", 41)
        assert optimal_detuning(lat, p) / p.v0 == pytest.approx(0.0173, rel=0.02)

    def test_brute_force_center_sum(self, p):
        # independent oracle: half the sum of V0/k^6 over both directions
        for length in (9, 15, 21):
            lat = build_lattice("chain", length)
            mid = length // 2
            expect = sum(p.v0 / k**6 for k in range(2, mid + 1))
            assert optimal_detuning(lat, p) == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_patch_size(self, p):
        vals = [optimal_detuning(build_lattice("chain", n), p) for n in (5, 7, 9, 11)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bulk_site_is_center(self):
        lat = build_lattice("chain", 9)
        assert bulk_site(lat) == 4
        sq = build_lattice("square", 5)
        assert np.allclose(sq.positions[bulk_site(sq)], (2.0, 2.0))

    def test_too_small(self, p):
        with pytest.raises(GeometryError):
            optimal_detuning(build_lattice("chain", 2), p)


class TestBlockadeRadius:
    def test_sixth_root(self):
        rb, arb = blockade_radius(PhysicalParams(omega=1.0, v0=64.0))
        assert arb == pytest.approx(0.5, rel=1e-12)
        rb, arb = blockade_radius(PhysicalParams(omega=2.0, v0=2.0))
        assert rb == pytest.approx(1.0, rel=1e-12)

    def test_experiment_scale_value(self):
        _, arb = blockade_radius(PhysicalParams.from_mhz(4.2, 8.0))
        assert arb == pytest.approx(0.8981727690217912, abs=1e-12)


class TestDecayPredictors:
    def test_chain_bulk(self, p):
        lat = build_lattice("chain", 9)
        x, y = decay_predictors(lat, p)
        assert x == pytest.approx(2 * p.omega**2 / (4 * p.v0) / math.tau, rel=1e-12)
        assert y == pytest.approx(2 * (p.v0 / 64.0) / math.tau, rel=1e-12)

    def test_zigzag_nnn_scaling(self, p):
        for ratio in (1.3, 1.6, 1.9):
            lat = build_lattice("zigzag_chain", 9, ratio)
            _, y = decay_predictors(lat, p)
            assert y == pytest.approx(2 * p.v0 / ratio**6 / math.tau, rel=1e-9)

    def test_square_bulk(self, p):
        lat = build_lattice("square", 5)
        x, y = decay_predictors(lat, p)
        assert x == pytest.approx(4 * p.omega**2 / (4 * p.v0) / math.tau, rel=1e-12)
        assert y == pytest.approx(4 * p.v0 / 8.0 / math.tau, rel=1e-9)


class TestPredictLifetime:
    def test_degenerate_and_monotone(self):
        assert predict_lifetime(0, 0, 0.72, 0.58, 2.5) == pytest.approx(2.5)
        base = predict_lifetime(1.0, 1.0, 0.72, 0.58, 2.5)
        assert predict_lifetime(1.1, 1.0, 0.72, 0.58, 2.5) < base
        assert predict_lifetime(1.0, 1.1, 0.72, 0.58, 2.5) < base
        assert predict_lifetime(1.0, 1.0, 0.72, 0.58, 2.0) < base

    def test_validation(self):
        with pytest.raises(ConfigError):
            predict_lifetime(-0.1, 0, 0.72, 0.58, 1.0)
        with pytest.raises(ConfigError):
            predict_lifetime(0.1, 0.1, 0.72, 0.58, 0.0)


class TestSerialization:
    @pytest.mark.parametrize("kind,extent,ratio,periodic", [
        ("chain", 8, None, False),
        ("chain", 10, None, True),
        ("zigzag_chain", 7, 1.5, False),
        ("honeycomb", 3.0, None, False),
        ("lieb", 2, None, False),
    ])
    def test_round_trip(self, kind, extent, ratio, periodic):
        """lattice.json holds the kind, the boundary, the positions and the
        A/B label of every site."""
        lat = build_lattice(kind, extent, ratio, periodic=periodic)
        doc = json.loads(lattice_to_json(lat))
        assert doc["kind"] == lat.kind
        assert doc["periodic"] == lat.periodic
        assert np.allclose(doc["positions"], lat.positions, atol=1e-9)
        assert doc["sublattice"] == ["AB"[s] for s in lat.sublattice]

    def test_all_kinds_buildable(self, p):
        extents = {"chain": 9, "zigzag_chain": 9, "square": 4, "honeycomb": 3.0,
                   "lieb": 2, "decorated_honeycomb": 4.0,
                   "edge_imbalanced_decorated_honeycomb": 5.0}
        for kind in LATTICE_KINDS:
            ratio = 1.5 if kind == "zigzag_chain" else None
            lat = build_lattice(kind, extents[kind], ratio)
            assert lat.n_sites >= 3
