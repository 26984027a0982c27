#!/usr/bin/env python3
"""qpc-sim benchmark: trials/s, set-up time, peak memory and correctness per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload honest-two-tp --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload in fresh worker processes, one at a time, and
reports the end-to-end metrics; ``trials_per_s`` and ``setup_s`` are stated at
nominal host speed (see ``hostref.py``; the raw values are on the detail
line). ``--trace 1`` alternates untraced and traced repeats in one worker and
reports the per-layer metrics. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the details (environment, canonical_sha256, failed_frac, and with
tracing every layer metric, null where a span never fired).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostref import host_factor, scaled_setup, start_reference  # numpy only; qpc_sim is imported by the workers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every workload workloads.py defines, named here so the parent does not import qpc_sim.
NAMES = ("honest-two-tp", "intercept-abort", "d-sweep", "privacy-audit")

#: Fresh processes per untraced run; setup_s and peak_rss_mb are their medians.
PROCESSES = 10
#: The whole run, all workers included, ends within this many seconds or fails.
RUN_TIMEOUT_S = 170


def commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args: argparse.Namespace, part: int, budget: float, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--part", str(part), "--budget", repr(budget), "--trace", str(args.trace), "--spawned-at"]
    reference_s = start_reference()
    spawned = perf_counter()
    # subprocess.run kills and reaps the worker when the timeout expires
    done = subprocess.run(command + [repr(spawned)], stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - spawned, 1.0), check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return dict(json.loads(done.stdout.splitlines()[-1]), start_reference_s=reference_s)


def rates(repeats: list[dict]) -> list[float]:
    return [r["trials"] / r["elapsed_s"] for r in repeats]


def scaled_rates(repeats: list[dict]) -> list[float]:
    """Each repeat's rate at nominal host speed, by the reference calls timed right after it."""
    return [r["trials"] / r["elapsed_s"] * host_factor(r["reference_s"]) for r in repeats]


def tally(repeats: list[dict]) -> tuple[int, int]:
    """Checks attempted and failed over one process's repeats: each repeat's own
    checks, plus one per repeat that it reproduced the first repeat's canonical bytes."""
    first = repeats[0]["digest"]
    attempted = sum(r["attempted"] for r in repeats) + len(repeats)
    failed = sum(r["failed"] for r in repeats) + sum(r["digest"] != first for r in repeats)
    return attempted, failed


def main(argv: list[str] | None = None) -> int:
    # Metric names and units come from the contract file. Layer metrics that
    # fire on some workloads only (apply_shift, tap, coalition_view and
    # secret_support times, the fold, the CLI) are absent there, because the
    # final line carries numbers only; the detail line has them, null where a
    # span never fired. d-sweep is not among the contract's workloads (its
    # spread comes from OpenBLAS threading on a shared host, which the host
    # reference does not track) but stays runnable by hand.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qpc_sim" / "__init__.py").is_file():
        print(f"error: no qpc_sim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    processes = 1 if args.trace else PROCESSES
    deadline = perf_counter() + RUN_TIMEOUT_S
    try:
        workers = [run_worker(args, part, args.seconds / processes, deadline) for part in range(processes)]
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    repeats = [r for w in workers for r in w["repeats"]]
    traced = [r for w in workers for r in w["traced"]]
    attempted, failed = map(sum, zip(*(tally(w["repeats"] + w["traced"]) for w in workers)))
    # the run's canonical bytes: every part's report, in part order
    digest = hashlib.sha256("".join(w["repeats"][0]["digest"] for w in workers).encode()).hexdigest()

    factor = host_factor([t for r in repeats for t in r["reference_s"]])
    raw_rate = statistics.median(rates(repeats))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "canonical_sha256": digest,
        "failed_frac": failed / attempted,
        "processes": processes,
        "repeats": len(repeats),
        "traced_repeats": len(traced),
        "trials_per_repeat": repeats[0]["trials"],
        "host_factor": factor,
        "raw_trials_per_s": raw_rate,
        "raw_setup_s": statistics.median(w["setup_s"] for w in workers),
        "process_trials_per_s": [statistics.median(rates(w["repeats"])) for w in workers],
        "env": {"commit": commit(), "nproc": os.cpu_count(), "python": platform.python_version(),
                **workers[0]["env"]},
    }
    if args.trace:
        layers = dict(workers[0]["layers"])
        layers["trace.overhead_frac"] = 1.0 - statistics.median(rates(traced)) / raw_rate
        outs = [r["out_bytes"] for r in traced if r["out_bytes"] is not None]
        layers["cli.out_bytes"] = statistics.median(outs) if outs else None
        detail["layers"] = layers
        detail["span_self_total_s"] = workers[0]["span_self_total_s"]
        detail["span_root_total_s"] = workers[0]["span_root_total_s"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "trials_per_s": statistics.median(scaled_rates(repeats)),
            "setup_s": statistics.median(scaled_setup(w["setup_s"], w["start_reference_s"]) for w in workers),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        for name, metric in metrics.items():
            print(f"{args.workload:16} {name:14} {metric['value']:12.4f} {metric['unit']}")
        print(f"{args.workload:16} {'failed_frac':14} {failed / attempted:12.4f} ({failed} of {attempted} checks)")

    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
