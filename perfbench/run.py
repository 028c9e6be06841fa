"""scarsim benchmark: seeded workloads driven through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn.  Every CLI run is a fresh process started from the repository root
with ``src`` on PYTHONPATH; BLAS threads are left as found.

--trace 0 (end-to-end): times set-up in fresh probe processes, then runs
the CLI until S seconds are used and reports medians of wall_s, setup_s and
peak_rss_mb.  --trace 1 (per layer): one untraced run, one traced run
through tracer.py, and per-module numbers from the spans.  Both modes check
the outputs (checks.py); runs that exit non-zero or fail their check count
as failed, and fail_ratio = failed / attempted is printed.

Inputs, outputs, the environment record and result.json go to
perfbench/runs/<workload>-seed<N>[-trace]/.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
RSS_POLL_S = 0.1
CLI_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"_s": "s", "_gb": "GB", "_err": "dimensionless"}


@dataclass
class Proc:
    label: str
    wall_s: float
    returncode: int
    peak_rss_mb: float
    cpu_s: float
    stdout: str
    errors: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in
                ("label", "wall_s", "returncode", "peak_rss_mb", "cpu_s", "errors")}


def _tree_rss_kb(root_pid: int) -> int:
    """Summed resident memory of a process and all its descendants."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, pp in parents.items() if pp == pid and p not in tree]
        tree.update(kids)
        frontier.extend(kids)
    total = 0
    page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * page_kb
        except OSError:
            continue
    return total


def run_process(label: str, argv: list[str], env: dict, log: Path) -> Proc:
    """Run one process to completion; wall time, peak tree RSS, CPU time."""
    peak = [0]
    done = threading.Event()
    with open(log, "w") as fh:
        start = time.perf_counter()
        # own session, so a timeout also ends the process's pool workers
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)

        def poll() -> None:
            while not done.wait(RSS_POLL_S):
                peak[0] = max(peak[0], _tree_rss_kb(proc.pid))

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        watchdog = threading.Timer(CLI_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:   # interrupted: end the whole group, then re-raise
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
            done.set()
            poller.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss (kB) is the largest single process of the waited-for tree
    rss_mb = max(peak[0], usage.ru_maxrss) / 1024
    out = log.read_text()
    result = Proc(label, wall, proc.returncode, rss_mb,
                  usage.ru_utime + usage.ru_stime, out)
    if proc.returncode != 0:
        tail = out.strip().splitlines()[-3:]
        result.errors.append(f"{label}: exit code {proc.returncode}: {' | '.join(tail)}")
    return result


def environment(probe: dict) -> dict:
    """Where the numbers were taken; BLAS threads are recorded as found."""
    import numpy
    import scipy

    commit = None   # stays None in an exported tree that is not a git checkout
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "dim": probe.get("dim"),
        "nnz": probe.get("nnz"),
    }


def _blas_info() -> dict:
    """Build-time BLAS of numpy plus OpenBLAS's run-time config and threads."""
    import ctypes

    import numpy

    info: dict = {}
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                info.update(library=path, config=get_config().decode(),
                            threads=get_threads())
                return info
    return info


class Run:
    """One benchmark invocation for one workload and seed."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.dir = HERE / "runs" / f"{name}-seed{seed}{'-trace' if trace else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.doc = workloads.generate(name, seed)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.doc, indent=2, sort_keys=True) + "\n")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.procs: list[Proc] = []

    def _run(self, label: str, argv: list[str]) -> Proc:
        proc = run_process(label, argv, self.env, self.dir / f"{label}.log")
        self.procs.append(proc)
        return proc

    def probe(self, label: str) -> tuple[Proc, dict]:
        proc = self._run(label, [sys.executable, str(HERE / "setup_probe.py"),
                                 str(self.config)])
        sizes = json.loads(proc.stdout.strip().splitlines()[-1]) \
            if proc.returncode == 0 else {}
        return proc, sizes

    def cli(self, label: str, jobs: int | None = None, traced: bool = False) -> tuple[Proc, Path]:
        out = self.dir / label
        argv = workloads.cli_argv(self.name, str(self.config), str(out), jobs)
        prefix = [sys.executable, str(HERE / "tracer.py"), str(self.dir / "spans.json")] \
            if traced else [sys.executable, "-m", "scarsim.cli"]
        return self._run(label, prefix + argv), out

    def check(self, proc: Proc, out: Path) -> checks.CheckResult:
        try:
            res = checks.CHECKS[self.name](self.doc, out, self.seed)
        except Exception:   # a malformed output is a failed check, not a crash
            res = checks.CheckResult([traceback.format_exc(limit=3)])
        proc.errors += [f"{proc.label}: {e}" for e in res.errors]
        return res

    def same_as(self, proc: Proc, ref: Path, out: Path) -> None:
        diff = checks.differing_files(ref, out)
        if diff:
            proc.errors.append(f"{proc.label}: outputs differ from {ref.name}: {diff}")

    def end_to_end(self) -> dict[str, float]:
        setups = [self.probe(f"setup{k}")[0] for k in range(SETUP_REPEATS)]
        reps: list[Proc] = []
        start = time.perf_counter()
        while not reps or time.perf_counter() - start + statistics.median(
                [p.wall_s for p in reps]) <= self.seconds:
            reps.append(self.cli(f"rep{len(reps)}")[0])
        # checks run after the timed loop so they do not use its time
        for k, proc in enumerate(reps):
            if proc.returncode == 0:
                out = self.dir / proc.label
                if k == 0:
                    self.check(proc, out)
                else:
                    self.same_as(proc, self.dir / "rep0", out)
        return {
            "wall_s": statistics.median([p.wall_s for p in reps]),
            "setup_s": statistics.median([p.wall_s for p in setups]),
            "peak_rss_mb": statistics.median([p.peak_rss_mb for p in reps]),
        }

    def per_layer(self) -> dict[str, float]:
        base, base_out = self.cli("untraced")
        oracle = self.check(base, base_out) if base.returncode == 0 else checks.CheckResult()
        ref = base
        if workloads.WORKLOADS[self.name].command == "sweep":
            # traced spans stay in one process, so compare against --jobs 1
            ref, ref_out = self.cli("untraced-jobs1", jobs=1)
            self.same_as(ref, base_out, ref_out)
        traced, traced_out = self.cli("traced", jobs=1, traced=True)
        self.same_as(traced, base_out, traced_out)
        data = json.loads((self.dir / "spans.json").read_text()) \
            if traced.returncode == 0 else {"spans": [], "counts": {}}
        metrics = tracer.layer_metrics(data["spans"], data["counts"])
        floquet = workloads.WORKLOADS[self.name].command == "floquet"
        metrics.update({
            "cli.cpu_s": base.cpu_s,
            "evolve.oracle_err": 0.0 if floquet else oracle.oracle_err,
            "floquet.oracle_err": oracle.oracle_err if floquet else 0.0,
            "trace.overhead_s": traced.wall_s - ref.wall_s,
            "trace.unattributed_s": traced.wall_s - tracer.union_length(
                (s, e) for _, s, e, _ in data["spans"]),
        })
        return metrics

    def execute(self) -> dict:
        # untimed: compiles the bytecode on a fresh checkout, reports dim/nnz
        _, self.sizes = self.probe("warmup")
        values = self.per_layer() if self.trace else self.end_to_end()
        attempted = len(self.procs)
        failed = sum(1 for p in self.procs if p.errors)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
        }
        record = {"workload": self.name, "seed": self.seed, "seconds": self.seconds,
                  "trace": self.trace, "config": self.doc,
                  "environment": environment(self.sizes),
                  "processes": [p.to_json() for p in self.procs], "result": result}
        (self.dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
        self.report(result)
        return result

    def report(self, result: dict) -> None:
        print(f"{self.name} seed {self.seed} ({'per layer' if self.trace else 'end to end'})"
              f": {result['attempted']} processes, {result['failed']} failed")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        print(f"  {'fail_ratio':34s} {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']})")
        for p in self.procs:
            for err in p.errors:
                print(f"  FAILED {err}")
        print(f"  record: {self.dir.relative_to(ROOT)}/result.json")


def unit_of(metric: str) -> str:
    units = dict(END_TO_END)
    if metric in units:
        return units[metric]
    for suffix, unit in PER_LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "scarsim" / "cli.py").is_file():
        print(f"scarsim sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))   # the output checks call into scarsim
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: Run(n, args.seed, args.seconds, bool(args.trace)).execute()
               for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
