"""symgeo benchmark: time to a verified result, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout against that checkout's ``src/``.  One
process drives the workload as a closed loop with one client: it repeats the
workload's fixed op list (one *pass*) as long as another whole pass fits in
``--seconds`` (at least one pass), checks every op's output, and prints one
JSON result as the last line of stdout.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  Times are reference seconds: wall time
corrected for the host's speed, which a sampler measures during the run
(speed.py).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads
from setup_probe import setup
from workloads import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"

#: fresh interpreters timed per run for setup_s; their median is reported
SETUP_PROBES = 3


def nearest_rank(values: list[float], pct: float) -> float:
    """The pct-th percentile by nearest rank: an observed value, so repeats of
    one op list do not interpolate between op sizes."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def probe_setup(workload, seed: int) -> tuple[float, float, dict]:
    """Set up in a fresh interpreter; returns the spawn-to-exit time in
    reference seconds and in raw seconds, and the child's own record."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload.name, str(seed),
         *workload.modules],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    child = json.loads(proc.stdout.splitlines()[-1])
    return (elapsed - child["sampler_s"]) * child["mean_speed"], elapsed, child


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


class Ledger:
    """Per-op outcomes: first outputs (to test byte-identical repeats),
    attempted and failed counts and the first failure messages."""

    def __init__(self):
        self.first: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, index: int, op, output, error: Exception | None):
        self.attempted += 1
        try:
            if error is not None:
                raise error
            if index not in self.first:
                op.check(output)
                self.first[index] = output
            elif output != self.first[index]:
                raise CheckFailed("output differs from the first run of this op")
        except Exception as exc:  # every op failure is counted, none aborts the run
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{op.label}: {type(exc).__name__}: {exc}")


def run_pass(ops, ledger: Ledger, tracer=None, sampler=None) -> list[tuple]:
    """One pass of the op list; returns (kind, work, (start, end), busy
    intervals) per op, where the busy intervals are the part that delivered
    the op's work."""
    timings = []
    for index, op in enumerate(ops):
        output = error = None
        if sampler is not None:
            sampler.sample_if_stale()
        start = time.perf_counter()
        try:
            output = tracer.run_op("op." + op.kind, op.run) if tracer else op.run()
        except Exception as exc:
            error = exc
        end = time.perf_counter()
        if sampler is not None:
            sampler.sample_if_stale()
        ledger.record(index, op, output, error)
        busy = op.busy() if op.busy is not None and error is None else [(start, end)]
        timings.append((op.kind, op.work, (start, end), busy))
    return timings


def to_reference(passes, sampler: speed.SpeedSampler) -> list[list[tuple[str, int, float, float]]]:
    """(kind, work, seconds, busy seconds) per op of each pass, in
    reference seconds."""
    return [[(kind, work, sampler.reference_seconds(*span),
              sum(sampler.reference_seconds(*interval) for interval in busy))
             for kind, work, span, busy in timings]
            for timings in passes]


def measure(ops, seconds: float, trace: bool, ledger: Ledger):
    """Repeat passes while another whole pass fits; with trace, alternate
    untraced and traced passes (at least one of each).  Returns the passes
    in raw perf_counter times, the tracer and the speed sampler."""
    untraced, traced = [], []
    tracer = tracing.Tracer() if trace else None
    sampler = speed.SpeedSampler()
    start = time.perf_counter()
    with sampler:
        while True:
            if trace and len(traced) < len(untraced):
                tracer.install()
                try:
                    traced.append(run_pass(ops, ledger, tracer, sampler))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(run_pass(ops, ledger, sampler=sampler))
            elapsed = time.perf_counter() - start
            passes = len(untraced) + len(traced)
            if trace and not traced:
                continue
            if elapsed + elapsed / passes > seconds:
                break
    return untraced, traced, tracer, sampler


def pass_wall(timings) -> float:
    return sum(t[2] for t in timings)


def op_times(untraced, field: int = 2) -> list[float]:
    """Each op's median time (field 2) or busy time (field 3) over the passes."""
    return [statistics.median(timings[i][field] for timings in untraced)
            for i in range(len(untraced[0]))]


def end_to_end(workload, untraced, setup_s: float) -> tuple[dict, dict]:
    kinds = [(kind, work) for kind, work, _, _ in untraced[0]]
    times = op_times(untraced)
    latencies = [t for (kind, _), t in zip(kinds, times) if kind == workload.latency_kind]
    work = sum(w for _, w in kinds)
    busy = sum(t for (_, w), t in zip(kinds, op_times(untraced, 3)) if w)
    work_time = sum(t for (_, w), t in zip(kinds, times) if w)
    tail = nearest_rank(latencies, workload.tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times), "s"),
        "op_p50_s": (nearest_rank(latencies, 50), "s"),
        "op_tail_s": (tail, "s"),
        "throughput_per_s": (work / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "latency": {"kind": workload.latency_kind, "ops": len(latencies),
                    "tail_percentile": workload.tail_pct,
                    "ops_beyond_tail": sum(t > tail for t in latencies)},
        "throughput": {workload.throughput_name: work / busy,
                       "busy_share_of_work_ops": busy / work_time},
    }
    return metrics, details


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def openblas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "openblas_threads": openblas_threads(),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symgeo" / "__init__.py").is_file():
        print(f"error: no symgeo sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    # in-process set-up first, so the probes find compiled bytecode
    ledger = Ledger()
    times, ops, warm, (output, error) = setup(workload.name, args.seed, workload.modules)
    ledger.record(-1, warm, output, error)
    probes = [probe_setup(workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(ref for ref, _, _ in probes)
    import_cli_s = statistics.median(child["import_cli_s"] for _, _, child in probes)

    untraced, traced, tracer, sampler = measure(ops, args.seconds, bool(args.trace), ledger)
    if len(untraced) + len(traced) == 1:
        # every op repeats when there are two passes; otherwise re-run the
        # first op, whose output must be byte-identical
        run_pass(ops[:1], ledger)
    raw_walls = [sum(end - start for _, _, (start, end), _ in p) for p in untraced]
    untraced = to_reference(untraced, sampler)

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "ops_per_pass": len(ops),
        "pass_wall_s": [pass_wall(p) for p in untraced],
        "raw_pass_wall_s": raw_walls,
        "speed": {"samples": len(sampler.starts),
                  "median": statistics.median(sampler.speeds()),
                  "min": min(sampler.speeds()), "max": max(sampler.speeds())},
        "setup": {"probes_s": [ref for ref, _, _ in probes],
                  "raw_probes_s": [raw for _, raw, _ in probes],
                  "probes": [child for _, _, child in probes], "in_process": times},
        "failures": ledger.messages,
    }
    if args.trace:
        traced_walls = to_reference(traced, sampler)
        tracer.rescale(sampler.reference_seconds)
        walls = [pass_wall(p) for p in traced_walls]
        wall_ratio = statistics.median(walls) / statistics.median(details["pass_wall_s"])
        values = tracing.layer_metrics(tracer, len(traced), import_cli_s, wall_ratio)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write_spans(spans_path)
        details["traced_pass_wall_s"] = walls
        details["self_times"] = tracing.self_time_table(tracer, len(traced))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        e2e, extra = end_to_end(workload, untraced, setup_s)
        details.update(extra)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    for message in ledger.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
