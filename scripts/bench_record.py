#!/usr/bin/env python3
"""Bench record: fold paired perfbench runs of a parent and a change into one BENCH_<pr>.json.

Each input file is the stdout of one ``perfbench/run.py`` run; its last two
lines are the run's detail line and final line. List each side's files in run
order: the i-th ``--parent`` file of a workload pairs with the i-th
``--change`` file of that workload, and the pairs are expected to alternate
which side runs first, parent first in odd pairs. Traced runs (``--trace 1``,
whose detail line has ``layers``) are kept as ``trace_final_lines``, one per
side and workload, and are not paired. Every run, on both sides, must be
made at one benchmark seed, and each workload needs as many parent runs as
change runs; otherwise the script exits 2 with one ``error:`` line.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the record
holds each side's q1, median and q3 (inclusive quartiles) and in how many pairs
the change was better, then the set of ``canonical_sha256`` values over both
sides, each side's failed checks and every final line.

Example:
    python3 scripts/bench_record.py --seconds 25 --out BENCH_18.json \\
        --parent runs/parent-*.out --change runs/change-*.out
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "python", "numpy", "blas", "blas_threads")


def read_run(path: Path) -> tuple[dict, dict]:
    """The (detail, final) lines of one perfbench run's stdout."""
    *_, detail, final = path.read_text().splitlines()
    return json.loads(detail), json.loads(final)


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def record(parent: list[tuple[dict, dict]], change: list[tuple[dict, dict]], metrics: list[dict], seconds: float) -> dict:
    """The BENCH record of paired runs: ``metrics`` are BENCHMARK.json's end-to-end entries."""
    sides = {"parent": parent, "change": change}
    seeds = sorted({detail["seed"] for lines in sides.values() for detail, _ in lines})
    if len(seeds) > 1:
        raise ValueError(f"the runs were made at more than one benchmark seed: {seeds}")
    runs = {side: {} for side in sides}
    traced = {side: {} for side in sides}
    for side, lines in sides.items():
        for detail, final in lines:
            target = traced if "layers" in detail else runs
            target[side].setdefault(detail["workload"], []).append((detail, final))
    workloads = {}
    for name in {**runs["parent"], **runs["change"]}:
        parent_runs, change_runs = runs["parent"].get(name, []), runs["change"].get(name, [])
        if len(change_runs) != len(parent_runs):
            raise ValueError(f"{name}: {len(parent_runs)} parent runs but {len(change_runs)} change runs")
        entry: dict = {"pairs": len(parent_runs)}
        for metric in metrics:
            values = {side: [f["metrics"][metric["name"]]["value"] for _, f in side_runs]
                      for side, side_runs in (("parent", parent_runs), ("change", change_runs))}
            sign = 1 if metric["better"] == "higher" else -1
            better = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            entry[metric["name"]] = {side: quartiles(v) for side, v in values.items()}
            entry[metric["name"]]["change_better_in_pairs"] = better
        both = parent_runs + change_runs
        entry["canonical_sha256"] = sorted({d["canonical_sha256"] for d, _ in both})
        entry["failed"] = {"parent": sum(f["failed"] for _, f in parent_runs),
                           "change": sum(f["failed"] for _, f in change_runs)}
        entry["final_lines"] = {"parent": [f for _, f in parent_runs], "change": [f for _, f in change_runs]}
        trace = {side: traced[side][name][-1][1] for side in sides if name in traced[side]}
        if trace:
            entry["trace_final_lines"] = trace
        workloads[name] = entry
    if not workloads:
        raise ValueError("no untraced parent runs given")
    detail = parent[0][0]
    command = f"python3 perfbench/run.py --workload W --seed {detail['seed']} --seconds {seconds:g}"
    return {
        "command": f"{command} --trace 0",
        "seed": detail["seed"],
        "parent": detail["env"]["commit"],
        "order": "pairs alternate which side runs first (odd pairs: parent first)",
        "host": {key: detail["env"].get(key) for key in HOST_KEYS},
        "workloads": workloads,
        "trace_command": f"{command} --trace 1",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True, help="parent runs' stdout, in run order")
    parser.add_argument("--change", type=Path, nargs="+", required=True, help="change runs' stdout, in run order")
    parser.add_argument("--seconds", type=float, required=True, help="the runs' --seconds, for the command line")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        bench = record([read_run(p) for p in args.parent], [read_run(p) for p in args.change], metrics, args.seconds)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
