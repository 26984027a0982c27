"""One fresh benchmark process: set up a workload, time its repeats, check them, print JSON.

Started by run.py, never by hand. Set-up is measured from the moment the
parent spawned this process (``--spawned-at``, a ``time.perf_counter`` value,
which is a system-wide monotonic clock on Linux) to the first timed repeat,
so it covers interpreter start, imports, config validation and the cold pass.
Each timed repeat is followed by timed calls of the host-speed reference
(``hostref.py``), so the parent can state its rate at nominal host speed.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    """numpy version, OpenBLAS build string and thread count, read without changing the thread setting."""
    import numpy as np

    info: dict = {"blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("openblas configuration")}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])  # already loaded by numpy: dlopen returns the same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                break
    info["numpy"] = np.__version__
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True, help="which slice of the seed's inputs to run")
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hostref
    import qpc_sim
    import tracer
    import workloads

    if not Path(qpc_sim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported qpc_sim from {qpc_sim.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, args.part)
    if args.trace:
        cold_fourier_s = tracer.cold_fourier_seconds(workload.cold)
    else:
        workload.cold()
    setup_s = perf_counter() - args.spawned_at
    hostref.reference()  # its own warm-up, outside set-up and outside the timed loop

    spans = tracer.Tracer()
    repeats, traced, reference_s = [], [], []
    start = perf_counter()
    # at least two repeats, so that every process checks its repeats reproduce the same bytes
    while len(repeats) < 2 or perf_counter() - start < args.budget:
        repeats.append(workload.repeat())
        reference_s.append([hostref.time_reference() for _ in range(hostref.calls_after(repeats[-1].elapsed_s))])
        if args.trace:
            # paired with the untraced repeat just before it, for trace.overhead_frac
            spans.install()
            try:
                traced.append(workload.repeat())
            finally:
                spans.uninstall()

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "repeats": [dict(dataclasses.asdict(r), reference_s=t) for r, t in zip(repeats, reference_s)],
        "traced": [dataclasses.asdict(r) for r in traced],
        "env": environment(),
    }
    if args.trace:
        result["layers"] = spans.summary()
        result["layers"]["qudit.fourier_matrix.cold_s"] = cold_fourier_s
        result["span_self_total_s"] = spans.total_self_s()
        result["span_root_total_s"] = spans.root_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
