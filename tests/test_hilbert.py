import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarsim.errors import CapacityError, GeometryError
from scarsim.hilbert import (
    canonical_states,
    enumerate_blockaded,
    orbits,
    permute_states,
    reflection_grouping,
    sublattice_mask,
    symmetric_isometry,
)
from scarsim.lattice import build_lattice, symmetry_permutations

def state_to_string(state, n_sites):
    """Bit string with site 0 leftmost."""
    return "".join(str((state >> i) & 1) for i in range(n_sites))


def string_to_state(bits):
    return int(bits[::-1], 2)


# Reference grouped ordering of the 9-site chain (51 class representatives,
# one row per class, listed in presentation order).
REFERENCE_9CHAIN_ROWS = """101010101 100010101 101010100 101000101 001010001
100000101 001010100 100010001 101000100 000010101 010010101 101001001
100000001 100000100 100010000 001000100 000000101 001010000 000100101
010010001 010000101 010010100 001001001 100001001 000010000 100000000
000000100 101001010 100101001 000010010 010000001 100100000 001000010
100001000 001001000 000000000 001001010 010100001 100101000 100100010
010010010 000000010 000100000 010101001 000001010 010000010 010001000
000101000 010001010 010101000 010101010""".split()


def brute_force_states(lat):
    """Every one of the 2**n bit patterns with no excited neighbour pair."""
    every = np.arange(1 << lat.n_sites, dtype=np.int64)
    valid = np.ones(len(every), dtype=bool)
    for i, j in lat.nn_pairs.tolist():
        valid &= ((every >> i) & (every >> j) & 1) == 0
    return every[valid].tolist()


def mirror(state, n):
    """Image of one state under the chain reversal i -> n - 1 - i."""
    return int(permute_states([state], np.arange(n)[::-1])[0])


def class_members(basis, ordering):
    """The basis states of each class, ascending, in class order."""
    return [tuple(basis.states[ordering.labels == k].tolist())
            for k in range(ordering.n_classes)]


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


class TestEnumeration:
    def test_nine_chain_dimension(self, chain9):
        _, basis = chain9
        assert basis.dim == 89

    def test_single_site(self):
        lat = build_lattice("chain", 1)
        assert enumerate_blockaded(lat).dim == 2

    @pytest.mark.parametrize("length", range(3, 21))
    def test_fibonacci_law(self, length):
        lat = build_lattice("chain", length)
        assert enumerate_blockaded(lat).dim == fib(length + 2)

    @pytest.mark.parametrize("length,lucas", [(12, 322), (14, 843), (16, 2207)])
    def test_ring_dimensions(self, length, lucas):
        lat = build_lattice("chain", length, periodic=True)
        assert enumerate_blockaded(lat).dim == lucas

    @pytest.mark.parametrize("kind,extent,ratio,periodic", [
        ("chain", 12, None, False),
        ("chain", 12, None, True),
        ("zigzag_chain", 11, 1.4, False),
        ("square", 3, None, False),
        ("honeycomb", 2.0, None, False),
        ("lieb", 1, None, False),
        ("chain", 2, None, False),
        ("chain", 17, None, False),
        ("chain", 4, None, True),
        ("chain", 18, None, True),
        ("square", 4, None, False),
        ("honeycomb", 2.1, None, False),
        ("lieb", 2, None, False),
    ])
    def test_matches_brute_force(self, kind, extent, ratio, periodic):
        lat = build_lattice(kind, extent, ratio, periodic=periodic)
        basis = enumerate_blockaded(lat)
        assert basis.states.tolist() == brute_force_states(lat)

    def test_refused_exactly_past_max_dim(self):
        lat = build_lattice("honeycomb", 2.1)
        dim = enumerate_blockaded(lat).dim
        assert enumerate_blockaded(lat, max_dim=dim).dim == dim
        with pytest.raises(CapacityError, match=f"the {dim - 1} state bound"):
            enumerate_blockaded(lat, max_dim=dim - 1)

    def test_refuses_states_that_need_bit_63(self, monkeypatch):
        # 2**32 states on each sublattice pass a bound of 2**40; the
        # 64th site's bit would be the sign bit of an int64, and the
        # refusal comes before any enumeration
        import scarsim.hilbert

        monkeypatch.setattr(scarsim.hilbert, "_enumerate",
                            lambda *args: pytest.fail("enumerated 64 sites"))
        with pytest.raises(CapacityError, match="more than 63 bits"):
            enumerate_blockaded(build_lattice("chain", 64), max_dim=1 << 40)

    def test_ascending_and_blockade_invariant(self, chain9):
        lat, basis = chain9
        assert (np.diff(basis.states) > 0).all()
        for i, j in lat.nn_pairs:
            both = (basis.states >> int(i)) & (basis.states >> int(j)) & 1
            assert not both.any()

    def test_dfs_path_agrees(self):
        # a basis of 317,811 states, larger than any chain checked by brute force
        lat = build_lattice("chain", 26)
        basis = enumerate_blockaded(lat)
        assert basis.dim == fib(28)
        assert (np.diff(basis.states) > 0).all()

    def test_capacity_guard_names_bound(self):
        with pytest.raises(CapacityError, match="16777216"):
            enumerate_blockaded(build_lattice("chain", 51))
        with pytest.raises(CapacityError, match="200"):
            enumerate_blockaded(build_lattice("chain", 12), max_dim=200)
        with pytest.raises(CapacityError):
            enumerate_blockaded(build_lattice("chain", 30), max_dim=40000)

    def test_index_lookup(self, chain9):
        _, basis = chain9
        for k in (0, 5, 42, 88):
            assert basis.index_of(int(basis.states[k])) == k
        with pytest.raises(KeyError):
            basis.index_of(0b11)


class TestCanonicalStates:
    def test_nine_chain(self, chain9):
        lat, basis = chain9
        af1, af2, ggg = canonical_states(lat)
        assert state_to_string(af1, 9) == "101010101"
        assert state_to_string(af2, 9) == "010101010"
        assert ggg == 0
        for s in (af1, af2, ggg):
            basis.index_of(s)

    def test_square_patch(self):
        lat = build_lattice("square", 3)
        af1, af2, _ = canonical_states(lat)
        assert bin(af1).count("1") == 5
        assert bin(af2).count("1") == 4
        assert af1 & af2 == 0


class TestGroupingAndOrdering:
    def test_class_count(self, chain9):
        lat, basis = chain9
        grouping = reflection_grouping(basis, lat)
        assert grouping.n_classes == 51

    def test_palindrome_singleton_and_mirror_pair(self, chain9):
        lat, basis = chain9
        grouping = reflection_grouping(basis, lat)
        members_of = class_members(basis, grouping)
        by_member = {s: members for members in members_of for s in members}
        assert by_member[string_to_state("101010101")] == (string_to_state("101010101"),)
        left = string_to_state("100000000")
        right = string_to_state("000000001")
        assert set(by_member[left]) == {left, right}

    def test_non_chain_rejected(self):
        lat = build_lattice("square", 3)
        basis = enumerate_blockaded(lat)
        with pytest.raises(GeometryError):
            reflection_grouping(basis, lat)

    def test_landmark_positions(self, chain9):
        lat, basis = chain9
        ordering = reflection_grouping(basis, lat)
        members_of = class_members(basis, ordering)
        assert string_to_state("101010101") in members_of[0]
        assert members_of[35] == (0,)
        assert string_to_state("010101010") in members_of[50]

    def test_keys_non_increasing(self, chain9):
        lat, basis = chain9
        ordering = reflection_grouping(basis, lat)
        diffs = [k[0] for k in ordering.keys]
        assert diffs == sorted(diffs, reverse=True)

    @pytest.mark.parametrize("extent", [9, 12])
    def test_presentation_order(self, extent):
        """Classes are numbered by n_A - n_B and n_A + n_B descending, then
        by smallest member ascending, which orders mirror classes as their
        smallest display strings would."""
        lat = build_lattice("chain", extent)
        basis = enumerate_blockaded(lat)
        ordering = reflection_grouping(basis, lat)
        members_of = class_members(basis, ordering)
        rows = [(-key[0], -key[1], members[0])
                for key, members in zip(ordering.keys, members_of)]
        assert rows == sorted(rows)
        strings = [min(state_to_string(s, extent) for s in members)
                   for members in members_of]
        assert [(r[0], r[1], t) for r, t in zip(rows, strings)] == \
            sorted((r[0], r[1], t) for r, t in zip(rows, strings))

    def test_reference_table_row_by_row(self, chain9):
        """Keys match the reference ordering exactly; class sets match within
        each key (the intra-key order is fixed only by this artifact's
        lexicographic tie-break)."""
        lat, basis = chain9
        ordering = reflection_grouping(basis, lat)
        ma, mb = sublattice_mask(lat, 0), sublattice_mask(lat, 1)
        assert len(REFERENCE_9CHAIN_ROWS) == 51
        ref_by_key, mine_by_key = {}, {}
        for row, bits in enumerate(REFERENCE_9CHAIN_ROWS):
            s = string_to_state(bits)
            na, nb = bin(s & ma).count("1"), bin(s & mb).count("1")
            key = (na - nb, na + nb)
            assert ordering.keys[row] == key, f"row {row + 1}"
            ref_by_key.setdefault(key, []).append(
                frozenset({s, mirror(s, 9)}))
        for k, members in enumerate(class_members(basis, ordering)):
            mine_by_key.setdefault(ordering.keys[k], []).append(frozenset(members))
        assert set(ref_by_key) == set(mine_by_key)
        for key in ref_by_key:
            assert sorted(map(sorted, ref_by_key[key])) == \
                sorted(map(sorted, mine_by_key[key]))

    @pytest.mark.parametrize("kind,extent,ratio", [
        ("chain", 9, None),
        ("chain", 12, None),
        ("zigzag_chain", 10, 1.4),
        ("zigzag_chain", 11, 1.4),
    ])
    def test_classes_match_brute_force(self, kind, extent, ratio):
        """Each class is a state and its reversed bit string; the key counts
        the smaller member, which matters on even chains, where the mirror
        swaps the sublattices."""
        lat = build_lattice(kind, extent, ratio)
        basis = enumerate_blockaded(lat)
        grouping = reflection_grouping(basis, lat)
        n = lat.n_sites
        ma, mb = sublattice_mask(lat, 0), sublattice_mask(lat, 1)
        want = {}
        for s in brute_force_states(lat):
            m = string_to_state(state_to_string(s, n)[::-1])
            small = min(s, m)
            na, nb = bin(small & ma).count("1"), bin(small & mb).count("1")
            want[small] = (tuple(sorted({s, m})), (na - nb, na + nb))
        members_of = class_members(basis, grouping)
        got = {members[0]: (members, key)
               for members, key in zip(members_of, grouping.keys)}
        assert got == want
        # the labels partition the basis, and class_sums counts each class
        assert len(grouping.labels) == basis.dim
        assert sorted(s for members in members_of for s in members) \
            == basis.states.tolist()
        assert grouping.class_sums(np.ones(basis.dim)).tolist() \
            == [len(members) for members in members_of]
        if n % 2 == 0:
            swapped = [k for k, (members, _) in want.items()
                       if len(members) == 2 and bin(members[0] & ma).count("1")
                       != bin(members[1] & ma).count("1")]
            assert swapped


class TestHamming:
    @given(st.integers(0, (1 << 12) - 1))
    @settings(deadline=None, max_examples=200)
    def test_mirror_involution(self, s):
        assert mirror(mirror(s, 12), 12) == s
        assert bin(mirror(s, 12)).count("1") == bin(s).count("1")


def _brute_permute(state, perm):
    return sum(1 << perm[i] for i in range(len(perm)) if (state >> i) & 1)


class TestPermuteStates:
    @given(st.integers(3, 24).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.permutations(range(n)),
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16))))
    @settings(deadline=None, max_examples=200)
    def test_matches_per_integer_brute_force(self, case):
        p, q, states = case
        n = len(p)
        images = permute_states(states, p)
        assert images.dtype == np.uint64
        assert images.tolist() == [_brute_permute(s, p) for s in states]
        assert permute_states(states, range(n)).tolist() == states
        # p then q moves site i to q[p[i]]
        qp = [q[p[i]] for i in range(n)]
        assert permute_states(images, q).tolist() == permute_states(states, qp).tolist()
        assert [bin(s).count("1") for s in images.tolist()] == \
            [bin(s).count("1") for s in states]

    def test_rings_over_31_sites_wrap(self):
        for n in (32, 40, 63):
            sites = np.arange(n)
            assert permute_states([(1 << (n - 1)) | 1], (sites + 1) % n).tolist() == [0b11]
            assert permute_states([1], sites[::-1]).tolist() == [1 << (n - 1)]


def _site_map(state, n, image_of_site):
    return sum(1 << image_of_site(i) for i in range(n) if (state >> i) & 1)


class TestRingSymmetricIsometry:
    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_columns_are_normalized_orbits_of_t2_and_inversion(self, ring_of,
                                                               dense_isometry, n):
        lat = ring_of(n)
        basis = enumerate_blockaded(lat)
        iso = symmetric_isometry(basis, symmetry_permutations(lat))
        # one nonzero per row: a column and a positive weight per state
        assert iso.orbit.shape == iso.weight.shape == (basis.dim,)
        assert (iso.weight > 0).all()
        p_dense = dense_isometry(iso)
        eye = np.eye(iso.n_orbits)
        assert np.abs(p_dense.T @ p_dense - eye).max() < 1e-13
        # reference orbits, closed under site maps i -> i + 2 and i -> -i
        column = dict(zip(basis.states.tolist(), iso.orbit.tolist()))
        orbits = {}
        for s in basis.states.tolist():
            orbit, todo = {s}, [s]
            while todo:
                t = todo.pop()
                for image in (_site_map(t, n, lambda i: (i + 2) % n),
                              _site_map(t, n, lambda i: -i % n)):
                    if image not in orbit:
                        orbit.add(image)
                        todo.append(image)
            orbits[min(orbit)] = orbit
        assert iso.n_orbits == len(orbits)
        for rep, orbit in orbits.items():
            assert {column[t] for t in orbit} == {column[rep]}
        # columns ascend by representative
        assert [column[rep] for rep in sorted(orbits)] == list(range(len(orbits)))

    def test_orbit_counts_and_canonical_singletons(self):
        for n, n_orbits in ((16, 187), (22, 1990)):
            lat = build_lattice("chain", n, periodic=True)
            basis = enumerate_blockaded(lat)
            iso = symmetric_isometry(basis, symmetry_permutations(lat))
            assert (len(iso.orbit), iso.n_orbits) == (basis.dim, n_orbits)
            for state in canonical_states(lat):
                k = basis.index_of(state)
                assert iso.weight[k] == 1.0    # an orbit of one state

    @pytest.mark.parametrize("n", [10, 12])
    def test_project_and_expand_are_the_matrix_products(self, ring_of, dense_isometry, n):
        lat = ring_of(n)
        basis = enumerate_blockaded(lat)
        iso = symmetric_isometry(basis, symmetry_permutations(lat))
        p_dense = dense_isometry(iso)
        rng = np.random.default_rng(n)
        psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        assert np.abs(iso.project(psi) - p_dense.T @ psi).max() < 1e-13
        phi = rng.normal(size=iso.n_orbits) + 1j * rng.normal(size=iso.n_orbits)
        assert np.array_equal(iso.expand(phi), p_dense @ phi)

    @pytest.mark.parametrize("n", [11, 22])
    def test_orbits_equal_the_plain_images(self, ring_of, n):
        """Reflections, read as rotations of one mirrored copy, give the
        representatives, labels and sizes of the minimum over the plain
        permute_states images, as do arbitrary permutations; the
        isometry's ``first`` indexes each representative."""
        basis = enumerate_blockaded(ring_of(n))
        ring = symmetry_permutations(ring_of(n))
        shuffle = np.random.default_rng(n).permutation(n)
        for perms in (np.array([np.arange(n), shuffle, np.argsort(shuffle)]), ring):
            rep = np.min([permute_states(basis.states, g) for g in perms], axis=0)
            expect = np.unique(rep, return_inverse=True, return_counts=True)
            got = orbits(basis.states, perms)
            assert all(np.array_equal(a, b) for a, b in zip(got, expect))
        iso = symmetric_isometry(basis, ring)
        assert np.array_equal(basis.states[iso.first], expect[0])
        assert np.array_equal(iso.orbit[iso.first], np.arange(iso.n_orbits))

    def test_open_chain_has_none(self):
        lat = build_lattice("chain", 12)
        assert symmetry_permutations(lat) is None
