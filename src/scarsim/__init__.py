"""Desk-scale simulation of Rydberg-blockaded atom arrays.

Library layout:

* :mod:`scarsim.lattice`     geometries, interactions, lifetime predictors
* :mod:`scarsim.hilbert`     blockade-constrained basis and microstate ordering
* :mod:`scarsim.hamiltonian` sparse operators and detuning drives
* :mod:`scarsim.evolve`      Chebyshev time evolution, entropies, dense oracle
* :mod:`scarsim.analysis`    fits, spectra, subharmonic weights
* :mod:`scarsim.floquet`     pulsed driving model and stroboscopic maps
* :mod:`scarsim.cli`         the ``scarsim`` command-line front end
"""

__version__ = "0.1.0"
