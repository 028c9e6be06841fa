"""Set-up probe: import scarsim as the CLI does and build one workload's
lattice, basis and operator, then print their size as JSON.  The caller
times the whole process, from interpreter start to exit.

    python3 perfbench/setup_probe.py CONFIG.json
"""

from __future__ import annotations

import json
import sys


def main(path: str) -> int:
    import scarsim.cli  # noqa: F401  (the CLI's own import cost)
    from scarsim.hamiltonian import build_pxp, build_rydberg
    from scarsim.hilbert import enumerate_blockaded
    from scarsim.lattice import PhysicalParams, build_lattice

    with open(path) as fh:
        doc = json.load(fh)
    if "floquet" in doc:
        fq = doc["floquet"]
        lat = build_lattice("chain", fq["l"], periodic=fq["boundary"] == "periodic")
        params = PhysicalParams(omega=1.0, v0=1.0)
        model = "pxp"
    else:
        lt = doc["lattice"]
        lat = build_lattice(lt["kind"], lt["extent"], periodic=lt.get("periodic", False))
        ph = doc["physical"]
        params = PhysicalParams.from_mhz(ph["omega_mhz"], ph["v0_mhz"])
        model = doc["model"]
    basis = enumerate_blockaded(lat)
    build = build_pxp if model == "pxp" else build_rydberg
    parts = build(lat, basis, params)
    print(json.dumps({"dim": basis.dim, "nnz": int(parts.flip.matrix.nnz)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
