"""Shipping presets for the published system and drive parameter sets.

Each preset is one of six base documents with whole top-level sections
replaced, ``{**BASE, "drive": {...}}``: an override replaces its section
and never merges into it, so a preset restates every field of a section it
changes.  ``get_preset`` returns a deep copy of the full document.  To add a
preset, spread the nearest base and restate the sections that differ.

Geometry extents for the decorated two-dimensional patches are
parameterized approximations of the pictured arrays; their drive
parameters are exact.  Presets marked
``reference-only`` in NOTES describe arrays whose constrained space exceeds
the desk-scale capacity guard: the geometry commands work, dynamics commands
refuse them with a capacity error.
"""

from __future__ import annotations

import json

# Evolution sections.  Every one still carries the no-op krylov_dim, so the
# documents and their config hashes stay as they were.
_EV = {"total_time": 2.0, "dt": 0.002, "record_stride": 2, "krylov_dim": 16}
_EV3 = {"total_time": 3.0, "dt": 0.002, "record_stride": 2, "krylov_dim": 16}

# The constant drive at the optimal static detuning.
_OPT = {"shape": "constant", "delta0": "opt"}

# Drive-frequency sweep axes.  The 11-point grid stays a literal:
# analysis.RIGIDITY_GRID holds 0.75 + 0.1 k, whose floats differ from it.
_OMEGAM_9 = {"parameter": "drive.omegam_over_omega",
             "grid": [0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6]}
_OMEGAM_11 = {"parameter": "drive.omegam_over_omega",
              "grid": [0.75, 0.85, 0.95, 1.05, 1.15, 1.25, 1.35, 1.45, 1.55,
                       1.65, 1.75]}
_V0_6 = {"parameter": "physical.v0_mhz", "grid": [8.0, 15.0, 25.0, 40.0, 60.0, 90.0]}

# -- base documents ----------------------------------------------------------
# The constant-drive quench of the geometry gallery.
_GALLERY = {
    "lattice": {"kind": "honeycomb", "extent": 6.0},
    "physical": {"omega_mhz": 4.2, "v0_mhz": 9.1},
    "model": "rydberg",
    "drive": _OPT,
    "initial_state": "AF1",
    "evolution": _EV,
}
# The zigzag decay-plane sweep.
_PLANE = {
    "lattice": {"kind": "zigzag_chain", "extent": 9, "zigzag_nnn_ratio": 2.0},
    "physical": {"omega_mhz": 4.2, "v0_mhz": 17.1},
    "model": "rydberg",
    "drive": _OPT,
    "initial_state": "AF1",
    "evolution": {"total_time": 2.0, "dt": 0.002, "record_stride": 1,
                  "krylov_dim": 16},
    "sweep": [
        {"parameter": "physical.omega_mhz", "grid": [2.0, 2.6, 3.2, 3.8]},
        {"parameter": "lattice.zigzag_nnn_ratio", "grid": [2.0, 1.7, 1.5, 1.35]},
    ],
}
# The driven 9-atom chain.
_CHAIN = {
    "lattice": {"kind": "chain", "extent": 9},
    "physical": {"omega_mhz": 4.2, "v0_mhz": 51.0},
    "model": "rydberg",
    "drive": {"shape": "cosine", "delta0_over_omega": 0.55,
              "deltam_over_omega": 0.55, "omegam_over_omega": 1.2},
    "initial_state": "AF1",
    "evolution": _EV,
}
# The driven honeycomb patch and its drive-frequency sweep.
_HONEYCOMB = {
    "lattice": {"kind": "honeycomb", "extent": 4.1},
    "physical": {"omega_mhz": 4.2, "v0_mhz": 24.0},
    "model": "rydberg",
    "drive": {"shape": "cosine", "delta0_over_omega": 0.87,
              "deltam_over_omega": 0.87, "omegam_over_omega": 1.2},
    "initial_state": "AF1",
    "evolution": _EV,
    "sweep": [_OMEGAM_9],
}
# The 1.5 us quench with entanglement entropy cuts.
_ENTROPY = {
    "lattice": {"kind": "chain", "extent": 16},
    "physical": {"omega_mhz": 4.2, "v0_mhz": 51.0},
    "model": "rydberg",
    "drive": {"shape": "cosine", "delta0_over_omega": 0.55,
              "deltam_over_omega": 0.55, "omegam_over_omega": 1.20},
    "initial_state": "AF1",
    "evolution": {"total_time": 1.5, "dt": 0.002, "record_stride": 5,
                  "krylov_dim": 16},
    "observables": {"entropy_cuts": [[8], "half"]},
}
# The pulsed map on the 14-site ring.
_MAP = {
    "floquet": {
        "l": 14, "boundary": "periodic", "map": "subharmonic",
        "epsilons": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0],
        "taus_over_2pi": [0.3, 0.4, 0.5, 0.6, 0.7, 0.755, 0.8, 0.9, 1.0, 1.1],
        "n_periods": 400,
        "initial_state": "AF1",
    },
}

# Each preset is a base with whole top-level sections replaced.
PRESETS: dict[str, dict] = {
    # -- fixed-detuning quenches on the geometry gallery -------------------
    "fig1-honeycomb": _GALLERY,
    "fig2-chain": {**_GALLERY, "lattice": {"kind": "chain", "extent": 9},
                   "physical": {"omega_mhz": 4.2, "v0_mhz": 19.0}},
    "fig2-square": {**_GALLERY, "lattice": {"kind": "square", "extent": 7}},
    "fig2-honeycomb": _GALLERY,
    "fig2-lieb": {**_GALLERY, "lattice": {"kind": "lieb", "extent": 6}},
    "fig2-dechon": {
        **_GALLERY, "lattice": {"kind": "decorated_honeycomb", "extent": 6.0},
        "drive": {"shape": "constant", "delta0_over_v0": 0.10},
    },
    "fig2-eidh": {
        **_GALLERY,
        "lattice": {"kind": "edge_imbalanced_decorated_honeycomb", "extent": 7.0},
        "drive": {"shape": "constant", "delta0_over_v0": 0.10},
    },
    # -- decay-plane protocol sweeps ---------------------------------------
    "fig2-plane": _PLANE,
    "fig2-alpha-sweep": {
        **_PLANE, "physical": {"omega_mhz": 4.2, "v0_mhz": 5.9},
        "evolution": {"total_time": 3.0, "dt": 0.002, "record_stride": 1,
                      "krylov_dim": 16},
        "sweep": [{"parameter": "physical.omega_mhz",
                   "grid": [1.4, 1.7, 2.0, 2.3, 2.6]}],
    },
    "fig2-beta-sweep": {
        **_PLANE, "sweep": [{"parameter": "lattice.zigzag_nnn_ratio",
                             "grid": [2.0, 1.8, 1.6, 1.45, 1.35]}],
    },
    # -- driven chains ------------------------------------------------------
    "fig3b-bare": {**_CHAIN, "physical": {"omega_mhz": 4.2, "v0_mhz": 120.0},
                   "drive": _OPT},
    "fig3b-drive": {
        **_CHAIN, "physical": {"omega_mhz": 4.2, "v0_mhz": 120.0},
        "drive": {"shape": "cosine", "delta0_over_omega": 0.85,
                  "deltam_over_omega": 0.98, "omegam_over_omega": 1.24},
    },
    "fig3c-chain": {**_CHAIN, "sweep": [_OMEGAM_9]},
    "fig3c-honeycomb": _HONEYCOMB,
    "fig3c-eidh": {
        **_HONEYCOMB,
        "lattice": {"kind": "edge_imbalanced_decorated_honeycomb", "extent": 7.0},
        "physical": {"omega_mhz": 4.2, "v0_mhz": 29.0},
        "drive": {"shape": "cosine", "delta0_over_omega": 0.78,
                  "deltam_over_omega": 0.98, "omegam_over_omega": 1.2},
    },
    "fig3d-bare": {**_CHAIN, "drive": _OPT, "observables": {"microstates": True}},
    "fig3d-drive": {
        **_CHAIN, "drive": {"shape": "cosine", "delta0_over_omega": 0.55,
                            "deltam_over_omega": 0.55, "omegam_over_omega": 1.15},
        "observables": {"microstates": True},
    },
    "fig3e-bare": {**_ENTROPY, "drive": _OPT},
    "fig3e-drive": _ENTROPY,
    # -- phase diagrams and rigidity -----------------------------------------
    "fig4ab-chain": {
        **_CHAIN, "evolution": {"total_time": 4.0, "dt": 0.002, "record_stride": 2,
                                "krylov_dim": 16},
        "sweep": [{"parameter": "drive.omegam_over_omega",
                   "grid": [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2,
                            1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]}],
    },
    "fig4c-chain": {**_CHAIN, "evolution": _EV3, "sweep": [_OMEGAM_11, _V0_6]},
    "fig4c-honeycomb": {**_HONEYCOMB, "evolution": _EV3,
                        "sweep": [_OMEGAM_11, _V0_6]},
    "fig4d-chain": {
        **_CHAIN, "evolution": _EV3,
        "sweep": [{"parameter": "lattice.extent",
                   "grid": [3, 5, 7, 9, 11, 13, 15, 17]}, _OMEGAM_11],
    },
    "fig4d-honeycomb": {
        **_HONEYCOMB, "physical": {"omega_mhz": 4.2, "v0_mhz": 17.0},
        "evolution": _EV3,
        "sweep": [{"parameter": "lattice.extent", "grid": [2.1, 3.1, 4.1, 5.1, 6.1]},
                  _OMEGAM_11],
    },
    # -- supplementary drive studies -----------------------------------------
    "figS5-square": {
        **_CHAIN, "physical": {"omega_mhz": 4.2, "v0_mhz": 120.0},
        "drive": {"shape": "square", "delta0_over_omega": 0.85,
                  "deltam_over_omega": 0.98, "omegam_over_omega": 1.24},
    },
    "figS6-amplitude": {
        **_CHAIN, "physical": {"omega_mhz": 4.2, "v0_mhz": 120.0},
        "drive": {"shape": "cosine", "delta0_over_omega": 0.5,
                  "deltam_over_omega": 0.7, "omegam_over_omega": 1.28},
        "sweep": [{"parameter": "drive.deltam_over_omega",
                   "grid": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6]}],
    },
    "figS8-pxp-bare": {
        **_ENTROPY, "lattice": {"kind": "chain", "extent": 22, "periodic": True},
        "model": "pxp", "drive": {"shape": "constant", "delta0_over_omega": 0.0},
        "observables": {"entropy_cuts": ["half"]},
    },
    "figS8-pxp-drive": {
        **_ENTROPY, "lattice": {"kind": "chain", "extent": 22, "periodic": True},
        "model": "pxp",
        "drive": {"shape": "cosine", "delta0_over_omega": 0.5,
                  "deltam_over_omega": 1.0, "omegam_over_omega": 1.33},
        "observables": {"entropy_cuts": ["half"]},
    },
    # -- pulsed driving maps ---------------------------------------------------
    "figS9a": {
        **_MAP, "floquet": {
            "l": 14, "boundary": "periodic", "map": "revival",
            "epsilons": [0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.25, 1.5],
            "taus_over_2pi": [0.655, 0.675, 0.695, 0.715, 0.735, 0.755,
                              0.775, 0.795, 0.815, 0.835, 0.855],
            "n_periods": 100,
            "initial_state": "AF1",
        },
    },
    "figS9b": _MAP,
}

NOTES: dict[str, str] = {
    "fig1-honeycomb": "85-atom-class honeycomb; reference-only for dynamics",
    "fig2-square": "49-atom square; reference-only for dynamics",
    "fig2-honeycomb": "85-atom-class honeycomb; reference-only for dynamics",
    "fig2-lieb": "129-atom-class Lieb patch; reference-only for dynamics",
    "fig2-dechon": "54-atom-class decorated patch; reference-only for dynamics; "
                   "detuning uses the published 0.10 V0 choice",
    "fig2-eidh": "66-atom-class imbalanced patch; reference-only for dynamics; "
                 "detuning uses the published 0.10 V0 choice",
    "fig2-chain": "V0/2pi = 19 MHz, the optimal-lifetime interaction strength",
    "fig3c-honeycomb": "41-atom-class honeycomb; reference-only for dynamics",
    "fig3c-eidh": "66-atom-class imbalanced patch; reference-only for dynamics",
    "fig4c-honeycomb": "41-atom-class honeycomb; reference-only for dynamics",
    "fig4d-honeycomb": "honeycomb size scan; larger extents are reference-only",
    "figS5-square": "square-pulse drive variant of the driven 9-atom chain",
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(name)
    return json.loads(json.dumps(PRESETS[name]))
