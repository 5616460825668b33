"""Set up one workload and print its phase times as JSON.

    python3 bench/setup_probe.py WORKLOAD SEED MODULE...

run.py starts this in several fresh interpreters per run and reports the
median spawn-to-exit time, in reference seconds (see speed.py), as setup_s.
The probe samples host speed from its start, with the pure-Python kernel
only, since numpy must not be imported before the program imports it, and
prints the mean speed and the sampler's own time; run.py converts with
them.  The MODULEs (the
symgeo modules the workload uses, symgeo.cli first) are imported before
anything else of the harness, so their import time includes the
standard-library modules they pull in, and the harness's own imports stay
out of setup_s.  speed.py itself imports only builtin modules.
"""

import sys
import time
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(workload: str, seed: int, modules):
    """Import, generate inputs and run the warm-up op.  Returns the phase
    times, the pass ops, the warm-up op and its (output, error)."""
    times = {}
    start = time.perf_counter()
    for name in modules:
        __import__(name)
        times.setdefault("import_cli_s", time.perf_counter() - start)
    times["import_s"] = time.perf_counter() - start
    mark = time.perf_counter()
    import workloads

    ops, warm = workloads.WORKLOADS[workload].build(seed)
    times["inputs_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    try:
        outcome = warm.run(), None
    except Exception as exc:
        outcome = None, exc
    times["warmup_s"] = time.perf_counter() - mark
    return times, ops, warm, outcome


def main(argv) -> int:
    workload, seed, *modules = argv
    sys.path.insert(0, str(SRC))
    sampler = speed.SpeedSampler(with_numpy=False)
    with sampler:
        start = time.perf_counter()
        times, _, _, (_, error) = setup(workload, int(seed), modules)
        end = time.perf_counter()
    if error is not None:
        raise error
    import json

    times["import_cli_s"] = sampler.reference_seconds(start, start + times["import_cli_s"])
    times["mean_speed"] = sampler.mean_speed(start, end)
    times["sampler_s"] = sampler.sampler_seconds(start, end)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
