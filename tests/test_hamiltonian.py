import importlib.machinery
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from scarsim.errors import ConfigError
from scarsim.hamiltonian import (
    DriveProfile,
    SparseOperator,
    _flip_operator,
    _sparsetools,
    _square_sign,
    build_pxp,
    build_rydberg,
    detuning_at,
    parity_diagonal,
)
from scarsim.hilbert import enumerate_blockaded, symmetric_isometry
from scarsim.lattice import (
    PhysicalParams,
    build_lattice,
    interaction_matrix,
    shell_masks,
    symmetry_permutations,
)


@pytest.fixture(scope="module")
def p():
    return PhysicalParams.from_mhz(4.2, 51.0)


class TestFlipStructure:
    def test_two_site_chain(self, p):
        lat = build_lattice("chain", 2)
        basis = enumerate_blockaded(lat)
        parts = build_rydberg(lat, basis, p)
        f = parts.flip.matrix.toarray()
        i00 = basis.index_of(0b00)
        i10 = basis.index_of(0b01)  # site 0 excited
        i01 = basis.index_of(0b10)  # site 1 excited
        half = p.omega / 2
        assert f[i00, i10] == pytest.approx(half)
        assert f[i00, i01] == pytest.approx(half)
        assert f[i10, i01] == 0
        assert np.allclose(parts.diag_static, 0)

    def test_pxp_equals_rydberg_flip(self, p, chain9):
        lat, basis = chain9
        ryd = build_rydberg(lat, basis, p)
        pxp = build_pxp(lat, basis, p)
        assert (ryd.flip.matrix != pxp.flip.matrix).nnz == 0
        assert np.allclose(pxp.diag_static, 0)

    def test_connection_counts(self, p, chain9, chain9_states):
        lat, basis = chain9
        af1, _, ggg = chain9_states
        pxp = build_pxp(lat, basis, p)
        assert pxp.flip.matrix[basis.index_of(ggg)].nnz == 9
        assert pxp.flip.matrix[basis.index_of(af1)].nnz == 5

    @pytest.mark.parametrize("length,periodic", [(8, False), (10, False), (12, True)])
    def test_nnz_matches_brute_force(self, p, length, periodic):
        lat = build_lattice("chain", length, periodic=periodic)
        basis = enumerate_blockaded(lat)
        parts = build_pxp(lat, basis, p)
        count = 0
        for s in basis.states:
            for i in range(length):
                if int(s) & int(basis.nn_masks[i]) == 0:
                    count += 1
        assert parts.flip.matrix.nnz == count


class TestDiagonals:
    def test_af1_interaction_energy(self, p, chain9, chain9_states):
        lat, basis = chain9
        af1, _, _ = chain9_states
        parts = build_rydberg(lat, basis, p)
        want = 4 * p.v0 / 2**6 + 3 * p.v0 / 4**6 + 2 * p.v0 / 6**6 + p.v0 / 8**6
        assert parts.diag_static[basis.index_of(af1)] == pytest.approx(want, rel=1e-12)

    def test_number_diagonal_is_popcount(self, p, chain9):
        _, basis = chain9
        parts = build_rydberg(build_lattice("chain", 9), basis, p)
        assert np.array_equal(parts.diag_number,
                              np.bitwise_count(basis.states).astype(float))

    @pytest.mark.parametrize("kind,extent,ratio,periodic", [
        ("chain", 9, None, False),
        ("chain", 12, None, True),
        ("chain", 16, None, True),
        ("zigzag_chain", 8, 1.45, False),
        ("square", 4, None, False),
        ("lieb", 2, None, False),
        ("honeycomb", 2.1, None, False),
    ])
    def test_static_diagonal_sums_the_interaction_matrix(self, p, kind, extent, ratio,
                                                         periodic):
        # the couplings are lattice's V_ij, added over each state's excited
        # beyond-NN pairs with i < j ascending
        lat = build_lattice(kind, extent, ratio, periodic=periodic)
        basis = enumerate_blockaded(lat)
        v = interaction_matrix(lat, p)
        _, _, beyond = shell_masks(lat)
        want = np.zeros(basis.dim)
        for k, s in enumerate(basis.states.tolist()):
            sites = [i for i in range(lat.n_sites) if s >> i & 1]
            for a, i in enumerate(sites):
                for j in sites[a + 1:]:
                    if beyond[i, j]:
                        want[k] += v[i, j]
        assert np.array_equal(build_rydberg(lat, basis, p).diag_static, want)


def _transpose_arrays(op):
    """Canonical CSR arrays of the transpose of ``op``: its entries taken in
    column-major order."""
    order = np.lexsort((op.rows(), op.indices))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(op.indices, minlength=op.dim))])
    return indptr, op.rows()[order], op.data[order]


class TestHermiticityAndSymmetry:
    @pytest.mark.parametrize("builder", [build_rydberg, build_pxp])
    def test_exact_hermiticity(self, p, builder):
        lat = build_lattice("zigzag_chain", 8, 1.45)
        basis = enumerate_blockaded(lat)
        parts = builder(lat, basis, p)
        op = parts.flip
        # real entries, so the adjoint is the transpose
        assert op.data.dtype == np.float64
        indptr, indices, data = _transpose_arrays(op)
        assert np.array_equal(indptr, op.indptr)
        assert np.array_equal(indices, op.indices)
        assert np.abs(data - op.data).max() == 0.0
        # every model's H is real symmetric, so its dense form is float64
        h = parts.dense(0.3 * p.omega)
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)

    def test_particle_hole_anticommutation(self, p, chain9):
        lat, basis = chain9
        pxp = build_pxp(lat, basis, p)
        c = parity_diagonal(basis)
        h = pxp.flip.matrix
        conjugated = h.multiply(np.outer(c, c))
        diff = conjugated + h
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


class TestStepInvariants:
    def test_computed_once_with_unchanged_arithmetic(self, p, chain9):
        lat, basis = chain9
        parts = build_rydberg(lat, basis, p)
        row_sums = np.asarray(abs(parts.flip.matrix).sum(axis=1)).ravel()
        for delta in (0.0, 0.5 * p.omega, -2.0 * p.omega):
            want = float(np.max(row_sums + np.abs(parts.diagonal(delta))))
            assert parts.spectral_bound(delta) == want


def _scipy_csr(op, rng):
    """scipy's COO to CSR conversion of the operator's entries, fed in a
    shuffled order."""
    import scipy.sparse as sp

    order = rng.permutation(len(op.data))
    return sp.csr_matrix((op.data[order], (op.rows()[order], op.indices[order])),
                         shape=(op.dim, op.dim))


def _same_csr(ours, ref):
    return all(getattr(ours, name).dtype == getattr(ref, name).dtype
               and np.array_equal(getattr(ours, name), getattr(ref, name))
               for name in ("indptr", "indices", "data"))


def _assert_product_is_scipys(op, rng):
    """``op @ x`` equals scipy's ``op.matrix @ x`` bit for bit, for a state
    and a (dim, 5) block of random complex amplitudes."""
    for shape in ((op.dim,), (op.dim, 5)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ours, ref = op @ x, op.matrix @ x
        assert ours.dtype == ref.dtype and ours.shape == ref.shape
        assert np.array_equal(ours.view(np.float64), ref.view(np.float64))


class TestCsrArraysMatchScipy:
    """The numpy assembly gives scipy's canonical CSR arrays bit for bit,
    and the absolute row sums equal scipy's abs(csr).sum(axis=1)."""

    @pytest.mark.parametrize("kind, extent, extra", [
        ("chain", 9, {}), ("chain", 12, {"periodic": True}),
        ("zigzag_chain", 8, {"zigzag_nnn_ratio": 1.45}), ("square", 4, {}),
        ("honeycomb", 2.1, {}), ("lieb", 2, {})])
    @pytest.mark.parametrize("builder", [build_pxp, build_rydberg])
    def test_assembly(self, p, kind, extent, extra, builder):
        lat = build_lattice(kind, extent, **extra)
        basis = enumerate_blockaded(lat)
        parts = builder(lat, basis, p)
        rng = np.random.default_rng(0)
        op = parts.flip
        ref = _scipy_csr(op, rng)
        assert _same_csr(op, ref)
        assert op.matrix.nnz == len(op.data)
        row_sums = np.asarray(abs(ref).sum(axis=1)).ravel()
        assert parts._abs_row_sums.dtype == row_sums.dtype
        assert np.array_equal(parts._abs_row_sums, row_sums)
        _assert_product_is_scipys(op, rng)

    def test_product_of_restricted_and_int64_operators(self, p):
        """The product keeps scipy's bits on a ring-restricted operator,
        whose data are not all equal, and with int64 indices."""
        rng = np.random.default_rng(1)
        lat = build_lattice("chain", 12, periodic=True)
        basis = enumerate_blockaded(lat)
        parts = build_pxp(lat, basis, p)
        small = build_pxp(lat, basis, p, symmetric_isometry(basis, symmetry_permutations(lat)))
        assert small.iso is not None and len(np.unique(small.flip.data)) > 1
        _assert_product_is_scipys(small.flip, rng)
        # scipy's CSR view may narrow the indices; the product reads them as
        # they are
        flip = parts.flip
        wide = SparseOperator(indptr=flip.indptr.astype(np.int64),
                              indices=flip.indices.astype(np.int64),
                              data=rng.normal(size=len(flip.data)))
        _assert_product_is_scipys(wide, rng)


class TestKernelLoader:
    """``_sparsetools`` loads scipy's CSR kernel extension by its file when
    scipy.sparse has not, and falls back to the package import when the file
    is not found; either way the products keep scipy's bits."""

    NAME = "scipy.sparse._sparsetools"

    @pytest.fixture
    def unloaded(self, monkeypatch):
        """The process as if scipy.sparse had not loaded its kernels yet;
        the loader's cache is cleared before and after."""
        import scipy.sparse as sp

        monkeypatch.setattr(sp, "_sparsetools", sp._sparsetools)
        monkeypatch.delitem(sys.modules, self.NAME)
        _sparsetools.cache_clear()
        yield sp
        _sparsetools.cache_clear()

    def _operator(self, p):
        lat = build_lattice("chain", 9)
        return build_rydberg(lat, enumerate_blockaded(lat), p).flip

    def test_loads_the_file_outside_sys_modules(self, p, unloaded):
        module = _sparsetools()
        assert module is not unloaded._sparsetools and self.NAME not in sys.modules
        assert Path(module.__file__).parent == Path(unloaded.__file__).parent
        op = self._operator(p)
        assert op._kernel[:2] == (module.csr_matvec, module.csr_matvecs)
        _assert_product_is_scipys(op, np.random.default_rng(2))

    def test_falls_back_to_the_package_import(self, p, unloaded, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        module = _sparsetools()
        assert module is sys.modules[self.NAME] is unloaded._sparsetools
        op = self._operator(p)
        assert op._kernel[:2] == (module.csr_matvec, module.csr_matvecs)
        _assert_product_is_scipys(op, np.random.default_rng(3))


class TestFlipWrittenInPlace:
    """_flip_operator writes its CSR arrays slot by slot; they equal, with
    their dtypes, scipy's COO to CSR conversion of the same flips listed
    site by site."""

    @pytest.mark.parametrize("kind, extent, extra", [
        ("chain", 9, {}), ("chain", 14, {"periodic": True}),
        ("zigzag_chain", 8, {"zigzag_nnn_ratio": 1.45}), ("square", 4, {}),
        ("honeycomb", 2.1, {}), ("lieb", 2, {}), ("decorated_honeycomb", 2.1, {}),
        ("edge_imbalanced_decorated_honeycomb", 2.1, {})])
    def test_matches_scipy_conversion(self, p, kind, extent, extra):
        import scipy.sparse as sp

        lat = build_lattice(kind, extent, **extra)
        basis = enumerate_blockaded(lat)
        states = basis.states
        rows, cols = [], []
        for i in range(lat.n_sites):
            movable = np.flatnonzero((states & int(basis.nn_masks[i])) == 0)
            rows.append(movable)
            cols.append(np.searchsorted(states, states[movable] ^ (1 << i)))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        ref = sp.csr_matrix((np.full(len(rows), p.omega / 2.0), (rows, cols)),
                            shape=(basis.dim, basis.dim))
        assert _same_csr(_flip_operator(lat, basis, p.omega), ref)


class TestDriveProfile:
    def test_cosine_values(self):
        d = DriveProfile.cosine(1.0, 0.5, 2.0)
        assert detuning_at(d, 0.0) == pytest.approx(1.5)
        assert detuning_at(d, math.pi / 4) == pytest.approx(1.0, abs=1e-12)
        assert detuning_at(d, math.pi / 2) == pytest.approx(0.5)

    def test_square_values_and_step_convention(self):
        d = DriveProfile.square(1.0, 0.5, 2.0)
        assert detuning_at(d, 0.0) == pytest.approx(1.5)
        assert detuning_at(d, math.pi / 2) == pytest.approx(0.5)
        assert _square_sign(0.0) == 1.0
        assert _square_sign(-0.0) == 1.0

    def test_constant(self):
        assert detuning_at(DriveProfile.constant(0.7), 123.4) == 0.7

    def test_validation(self):
        with pytest.raises(ConfigError):
            DriveProfile.cosine(1.0, 0.5, 0.0)
        with pytest.raises(ConfigError):
            DriveProfile.square(1.0, 0.5, -1.0)

    def test_period(self):
        d = DriveProfile.cosine(0.0, 1.0, 4.0)
        assert d.period == pytest.approx(math.tau / 4.0)
        assert DriveProfile.constant(1.0).period is None
