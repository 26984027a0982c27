#!/usr/bin/env python3
"""Interleaved timing: one benchmark workload on two checkouts, in one process, round by round.

perfbench/run.py times each checkout in fresh processes, so runs made
minutes apart see a shared host at different loads. This script loads both
checkouts into one process instead. It copies each tree's ``src/qpc_sim``
into a temporary directory under its own package name, ``qpc_base`` or
``qpc_change`` (the package imports itself only relatively), and loads each
tree's ``perfbench/workloads.py`` with ``qpc_sim`` bound to that tree's copy
and builds the workload at benchmark seed ``SEED``, part ``PART``.
So a CLI workload runs through its own package's ``cli.main``, and the audit
loop runs on its own package's ``ExperimentConfig``. Then it calls the two
sides' ``repeat()`` in turn, the side that goes first alternating from round
to round, with GC on as in a benchmark worker (``timeit`` turns it off).
Neither tree is written to.

The script prints one JSON line: each side's median trials/s, the median of
the per-round ratios change/base, the rounds the change won, whether every
repeat of both sides gave one digest, and the failed checks of all repeats.
It also gives the inclusive quartiles, as scripts/bench_record.py takes them,
of the base's trials/s (``base_q1``, ``base_q3``) and of the ratios
(``ratio_q1``, ``ratio_q3``), so that a verdict can be read against the spread
of the base's own rounds.

Example:
    python3 scripts/interleave.py --base ../parent --change . --workload privacy-audit --rounds 100
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from qpc_sim.cli import write_out

#: The workloads perfbench/workloads.py builds, named here so that no tree's workloads.py is imported to list them.
WORKLOADS = ("honest-two-tp", "intercept-abort", "d-sweep", "privacy-audit")
#: The two sides, as their package names end.
SIDES = ("base", "change")
#: Module names that workloads.py imports absolutely and that each tree binds to its own.
_BOUND = ("qpc_sim", "checks")
#: The benchmark seed and part the workload is built from.
SEED, PART = 5150, 0


def _tree(text: str) -> Path:
    path = Path(text).resolve()
    for part in ("src/qpc_sim/__init__.py", "perfbench/workloads.py"):
        if not (path / part).is_file():
            raise argparse.ArgumentTypeError(f"{text} is not a qpc-sim checkout: it has no {part}")
    return path


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _modules(prefix: str) -> list[str]:
    return [name for name in sys.modules if name.split(".")[0] == prefix]


def _forget(prefix: str) -> None:
    for name in _modules(prefix):
        del sys.modules[name]


def load_workload(tree: Path, package: str, scratch: Path, workload: str, seed: int, part: int):
    """``workload`` as ``tree``'s perfbench/workloads.py builds it, on a copy of ``tree``'s package named ``package``."""
    shutil.copytree(tree / "src" / "qpc_sim", scratch / package, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{package}.cli")  # the package's __init__ imports every module but cli
    own = {"qpc_sim" + name[len(package):]: sys.modules[name] for name in _modules(package)}
    saved = {name: sys.modules.pop(name) for prefix in _BOUND for name in _modules(prefix)}
    sys.modules.update(own)
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        # registered, as dataclasses look their module up, under the package, so that it is forgotten with it
        spec = importlib.util.spec_from_file_location(f"{package}._workloads", tree / "perfbench" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(tree / "perfbench"))
        for prefix in _BOUND:
            _forget(prefix)
        sys.modules.update(saved)
    return workloads.build(workload, seed, part)


def _quartiles(values: list[float]) -> list[float]:
    """Q1, median and Q3, inclusive; one value is all three."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def interleave(sides: dict, rounds: int) -> dict:
    """Time ``rounds`` repeats of each side's workload, alternating which goes first; the summary line's fields."""
    for workload in sides.values():
        workload.cold()
    rates: dict[str, list[float]] = {side: [] for side in SIDES}
    digests, failed = set(), 0
    for i in range(rounds):
        for side in SIDES[:: 1 if i % 2 == 0 else -1]:
            repeat = sides[side].repeat()
            rates[side].append(repeat.trials / repeat.elapsed_s)
            digests.add(repeat.digest)
            failed += repeat.failed
    ratios = [change / base for base, change in zip(rates["base"], rates["change"])]
    base_q1, _, base_q3 = _quartiles(rates["base"])
    ratio_q1, _, ratio_q3 = _quartiles(ratios)
    return {
        **{f"{side}_trials_per_s": statistics.median(rates[side]) for side in SIDES},
        "base_q1": base_q1,
        "base_q3": base_q3,
        "median_ratio": statistics.median(ratios),
        "ratio_q1": ratio_q1,
        "ratio_q3": ratio_q3,
        "change_won": sum(ratio > 1 for ratio in ratios),
        "same_digest": len(digests) == 1,
        "failed": failed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=_tree, required=True, help="the checkout to compare against")
    parser.add_argument("--change", type=_tree, required=True, help="the checkout with the change")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--rounds", type=_positive, required=True, help="repeats of each side")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch, contextlib.ExitStack() as undo:
        undo.callback(setattr, sys, "dont_write_bytecode", sys.dont_write_bytecode)
        sys.dont_write_bytecode = True  # no __pycache__ in either tree
        if not gc.isenabled():
            undo.callback(gc.disable)
            gc.enable()
        sys.path.insert(0, scratch)
        undo.callback(sys.path.remove, scratch)
        trees = {"base": args.base, "change": args.change}
        sides = {}
        for side in SIDES:
            undo.callback(_forget, f"qpc_{side}")
            sides[side] = load_workload(trees[side], f"qpc_{side}", Path(scratch), args.workload, SEED, PART)
        summary = interleave(sides, args.rounds)
    summary = {"workload": args.workload, "seed": SEED, "part": PART, "rounds": args.rounds, **summary}
    return write_out(None, lambda write: write(json.dumps(summary)))


if __name__ == "__main__":
    sys.exit(main())
