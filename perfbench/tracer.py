"""Span recording around scarsim's public functions, and span arithmetic.

Run as a script, it times ``import scarsim.cli``, wraps the public
functions of the traced modules at every place a scarsim module looks them
up (module globals and class attributes), runs ``scarsim.cli.main`` on the
given arguments in this process, and writes the spans and counts as JSON:

    python3 perfbench/tracer.py SPANS.json quench --config c.json --out o

Nothing under ``src/`` changes; spans come from the wrappers only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

TRACED_MODULES = ("lattice", "hilbert", "hamiltonian", "evolve", "analysis",
                  "floquet", "cli")
BYTES_PER_COMPLEX = 16


class Recorder:
    """Spans (name, start, end, parent index) and counts kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, on_result=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else -1
            idx = len(rec.spans)
            rec.spans.append([name, 0.0, 0.0, parent])
            rec._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[idx][1:3] = [start, end]
            if on_result is not None:
                on_result(rec, fn, args, kwargs, out)
            return out

        return traced


# -- counts taken at the layer boundaries -------------------------------------

def _on_enumerate(rec, fn, args, kwargs, basis) -> None:
    rec.counts["last_dim"] = basis.dim
    rec.counts["hilbert.dim"] = max(rec.counts.get("hilbert.dim", 0), basis.dim)


def _on_build(rec, fn, args, kwargs, parts) -> None:
    nnz = parts.flip.matrix.nnz
    if parts.sw2_extra is not None:
        nnz += parts.sw2_extra.matrix.nnz
    rec.counts["hamiltonian.nnz"] = max(rec.counts.get("hamiltonian.nnz", 0), nnz)


def _on_quench(rec, fn, args, kwargs, result) -> None:
    rec.add("evolve.snapshots", len(result.times))


def _on_map(rec, fn, args, kwargs, values) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    per_point = bound.arguments["n_periods"]
    if fn.__name__ == "revival_fidelity_map":
        per_point *= 2      # each sample is two periods
    periods = per_point * values.size
    dim = rec.counts.get("last_dim", 0)
    rec.add("floquet.periods", periods)
    # one period reads the dense eigenvector matrix twice (Q^H psi, Q psi)
    rec.add("floquet.computed_bytes", periods * 2 * dim * dim * BYTES_PER_COMPLEX)


HOOKS = {
    "hilbert.enumerate_blockaded": _on_enumerate,
    "hamiltonian.build_rydberg": _on_build,
    "hamiltonian.build_pxp": _on_build,
    "hamiltonian.build_sw2": _on_build,
    "evolve.run_quench": _on_quench,
    "floquet.pulsed_subharmonic_map": _on_map,
    "floquet.revival_fidelity_map": _on_map,
}


def install(rec: Recorder) -> None:
    """Wrap every public function and public method of the traced modules.

    A function is replaced in every loaded scarsim module that holds it,
    which is where its callers look it up.  The sweep worker is private but
    marks one sweep point, so it is wrapped too as ``cli.point``.
    """
    mods = {short: importlib.import_module(f"scarsim.{short}")
            for short in TRACED_MODULES}
    loaded = [m for n, m in sys.modules.items()
              if (n == "scarsim" or n.startswith("scarsim.")) and m is not None]
    targets = []
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((f"{short}.{attr}", obj))
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(raw):
                        setattr(obj, meth, rec.wrap(f"{short}.{attr}.{meth}", raw))
    targets.append(("cli.point", mods["cli"]._sweep_worker))
    for name, fn in targets:
        wrapped = rec.wrap(name, fn, HOOKS.get(name))
        for m in loaded:
            for attr, obj in list(vars(m).items()):
                if obj is fn:
                    setattr(m, attr, wrapped)


# -- span arithmetic -----------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(idx, ())
                if min(e, end) > max(s, start)]
        out.append((end - start) - union_length(kids))
    return out


def _is_serializer(name: str) -> bool:
    return name.endswith(("_to_csv", "_to_json"))


def layer_metrics(spans, counts: dict) -> dict[str, float]:
    """Per-layer numbers from one traced CLI process."""
    selfs = self_times(spans)

    def covered(pred) -> float:
        return union_length((s, e) for n, s, e, _ in spans if pred(n))

    def calls(name: str) -> int:
        return sum(1 for n, *_ in spans if n == name)

    def self_of(pred) -> float:
        return float(sum(t for (n, *_), t in zip(spans, selfs) if pred(n)))

    builds = {"hamiltonian.build_rydberg", "hamiltonian.build_pxp",
              "hamiltonian.build_sw2"}
    maps = {"floquet.pulsed_subharmonic_map", "floquet.revival_fidelity_map"}
    points = [e - s for n, s, e, _ in spans if n == "cli.point"]
    if not points:   # a single run is one figure point
        points = [e - s for n, s, e, _ in spans if n.startswith("cli.cmd_")]
    bound = "hamiltonian.HamiltonianParts.spectral_bound"
    offdiag = "hamiltonian.HamiltonianParts.offdiagonal"
    return {
        "cli.import_s": covered(lambda n: n == "cli.import"),
        "lattice.build_s": covered(lambda n: n == "lattice.build_lattice"),
        "hilbert.enumerate_s": covered(lambda n: n == "hilbert.enumerate_blockaded"),
        "hilbert.dim": counts.get("hilbert.dim", 0),
        "hamiltonian.build_s": covered(lambda n: n in builds),
        "hamiltonian.nnz": counts.get("hamiltonian.nnz", 0),
        "hamiltonian.spectral_bound_calls": calls(bound),
        "hamiltonian.spectral_bound_s": covered(lambda n: n == bound),
        "hamiltonian.offdiagonal_calls": calls(offdiag),
        "hamiltonian.offdiagonal_s": covered(lambda n: n == offdiag),
        "evolve.steps": calls("evolve.propagate_step"),
        "evolve.step_self_s": self_of(lambda n: n == "evolve.propagate_step"),
        "evolve.snapshots": counts.get("evolve.snapshots", 0),
        "evolve.rdm_s": covered(lambda n: n == "evolve.reduced_density_matrix"),
        "evolve.entropy_s": covered(lambda n: n == "evolve.entanglement_entropy"),
        "analysis.fit_s": covered(lambda n: n in ("analysis.fit_damped_cosine",
                                                  "analysis.fit_decay_plane")),
        "analysis.spectrum_calls": calls("analysis.fourier_spectrum"),
        "analysis.spectrum_s": covered(lambda n: n == "analysis.fourier_spectrum"),
        "floquet.periods": counts.get("floquet.periods", 0),
        "floquet.self_s": self_of(lambda n: n in maps),
        "floquet.computed_gb": counts.get("floquet.computed_bytes", 0) / 1e9,
        "cli.point_s": statistics.median(points) if points else 0.0,
        "cli.serialize_s": covered(_is_serializer),
    }


def main(argv: list[str]) -> int:
    out_path, cli_argv = Path(argv[0]), argv[1:]
    rec = Recorder()
    start = time.perf_counter()
    import scarsim.cli
    rec.spans.append(["cli.import", start, time.perf_counter(), -1])
    install(rec)
    try:
        code = scarsim.cli.main(cli_argv)
    finally:
        counts = {k: v for k, v in rec.counts.items() if k != "last_dim"}
        out_path.write_text(json.dumps({"spans": rec.spans, "counts": counts}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
