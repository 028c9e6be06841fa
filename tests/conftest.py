import numpy as np
import pytest

from scarsim.hilbert import canonical_states, enumerate_blockaded
from scarsim.lattice import Lattice, PhysicalParams, build_lattice


@pytest.fixture(scope="session")
def params51():
    return PhysicalParams.from_mhz(4.2, 51.0)


@pytest.fixture(scope="session")
def chain9(params51):
    lat = build_lattice("chain", 9)
    basis = enumerate_blockaded(lat)
    return lat, basis


def unit_state(basis, state):
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index_of(state)] = 1.0
    return psi


@pytest.fixture(scope="session")
def chain9_states(chain9):
    lat, basis = chain9
    af1, af2, ggg = canonical_states(lat)
    return af1, af2, ggg


@pytest.fixture(scope="session")
def ring_of():
    """Builder of an n-site ring; odd rings, which build_lattice refuses as
    not bipartite, get arbitrary alternating sublattice labels."""
    def build(n):
        if n % 2 == 0:
            return build_lattice("chain", n, periodic=True)
        ang = 2 * np.pi * np.arange(n) / n
        radius = 0.5 / np.sin(np.pi / n)
        pairs = sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))
        return Lattice(kind="chain",
                       positions=np.column_stack([radius * np.cos(ang),
                                                  radius * np.sin(ang)]),
                       sublattice=(np.arange(n) % 2).astype(np.int8),
                       coordination=np.full(n, 2, dtype=np.int64),
                       nn_pairs=np.array(pairs, dtype=np.int64), periodic=True)
    return build


@pytest.fixture(scope="session")
def dense_isometry():
    """The (dim, n_orbits) matrix P of a :class:`scarsim.hilbert.OrbitIsometry`."""
    def dense(iso):
        p = np.zeros((len(iso.orbit), iso.n_orbits))
        p[np.arange(len(iso.orbit)), iso.orbit] = iso.weight
        return p
    return dense
