#!/usr/bin/env python3
"""Call counts: Python and C function calls per trial of a benchmark config shape.

Wall-clock timings on a shared host spread by several percent between runs;
call counts do not. For a CLI workload the script takes its config shape from
the arguments perfbench/workloads.py gives it and runs ``TRIALS`` trials of it
at ``SEED`` through ``run_experiment``. For ``privacy-audit`` it takes the two
configs perfbench/workloads.py builds (part 0, benchmark seed 0) and audits
trials 0..``AUDIT_TRIALS``-1 of each as the benchmark does: one ``run_trial``,
then ``Coalition``, ``coalition_view`` and ``secret_support`` for every
coalition of ``allowed_coalitions``, in that order. The work runs once to warm
up (imports, memos) and once under ``sys.setprofile`` with the cyclic garbage
collector paused, so no ``gc.callbacks`` hook is counted. The counted run pays
what a benchmark repeat pays: ``cli.main`` builds a fresh config on every call,
so a CLI workload counts a fresh config equal to the warmed one, and the audit
counts the configs it warmed, which the benchmark's audit keeps across its
repeats. The work then runs once more with the collector on and no profiler,
from just after a full collection, which also empties the free lists, for the
cyclic collector's work: its gen0, gen1 and gen2 collections. The script prints
one JSON line: the Python and C calls per trial in total, the ``TOP``
functions by calls per trial, each named by its module and qualified name, and
the collections per 1000 trials. Two runs of one version of the code, Python
and numpy give identical counts, so a change in them is a change in the work a
trial does.

Example:
    python3 scripts/call_counts.py --workload privacy-audit
"""
from __future__ import annotations

import argparse
import collections
import dataclasses
import gc
import json
import sys
from pathlib import Path

import numpy as np

from qpc_sim import (
    Coalition,
    ExperimentConfig,
    allowed_coalitions,
    cli,
    coalition_view,
    run_experiment,
    run_trial,
    secret_support,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py, which states each workload's CLI arguments)

#: Counted trials, the experiment's seed and the functions listed.
TRIALS, SEED, TOP = 300, 7, 10
#: Audited trials of each privacy-audit config.
AUDIT_TRIALS = 100
#: The CLI workloads of one config each, then the audit.
WORKLOADS = ("honest-two-tp", "intercept-abort", "privacy-audit")


def shape(workload: str) -> ExperimentConfig:
    """``workload``'s config as perfbench/workloads.py gives its CLI arguments, at ``TRIALS`` trials and ``SEED``."""
    args = cli.build_parser().parse_args(workloads.build(workload, 0).args)
    return ExperimentConfig(args.variant, args.n, args.d, args.r, args.l, attack=args.attack, trials=TRIALS, seed=SEED)


def _name(frame, event: str, arg) -> str:
    """``module.qualname`` of the Python function a ``call`` enters, or of the C function a ``c_call`` calls."""
    if event == "call":
        code = frame.f_code
        return f"{frame.f_globals.get('__name__')}.{getattr(code, 'co_qualname', code.co_name)}"
    module = getattr(arg, "__module__", None)
    qualname = getattr(arg, "__qualname__", type(arg).__name__)
    return f"{module}.{qualname}" if module else qualname


def _counted(work, warm: tuple, fresh) -> tuple[collections.Counter, tuple[int, ...]]:
    """(kind, name) -> calls made by ``work(*fresh())`` after a warm-up call ``work(*warm)``, GC paused; and the
    collections of each generation during another ``work(*fresh())``, GC on, started after a full collection.

    kind is ``python`` or ``c``.
    """
    work(*warm)
    counts: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            counts["python" if event == "call" else "c", _name(frame, event, arg)] += 1

    args = fresh()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        work(*args)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    del counts["c", "sys.setprofile"]  # the call that ends the count

    args = fresh()
    gc.collect()  # a full collection also empties the free lists, so every run starts from the same state
    before = [generation["collections"] for generation in gc.get_stats()]
    gc.enable()
    try:
        work(*args)
    finally:
        if not enabled:
            gc.disable()
    return counts, tuple(generation["collections"] - b for generation, b in zip(gc.get_stats(), before))


def count_calls(config: ExperimentConfig) -> tuple[collections.Counter, tuple[int, ...]]:
    """(kind, name) -> calls made by ``run_experiment`` of a fresh config equal to ``config``, after a warm-up run
    of ``config``, kind ``python`` or ``c``; and the collections per generation of another fresh run."""
    return _counted(run_experiment, (config,), lambda: (dataclasses.replace(config),))


def _audit(plans: list, trials: int) -> None:
    for config, params, coalitions in plans:
        for t in range(trials):
            transcript = run_trial(config, t).transcript
            for members, target in coalitions:
                secret_support(coalition_view(transcript, Coalition(members, target)), params)


def count_audit_calls(configs: list[ExperimentConfig], trials: int) -> tuple[collections.Counter, tuple[int, ...]]:
    """(kind, name) -> calls made by auditing trials 0..trials-1 of each config, after a warm-up audit; and the
    collections per generation of another such audit."""
    plans = []
    for config in configs:
        params, _ = config.validate()
        coalitions = [c for t in range(params.n) for c in allowed_coalitions(params.variant, params.n, t)]
        plans.append((config, params, [(c.members, c.target) for c in coalitions]))
    return _counted(_audit, (plans, trials), lambda: (plans, trials))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    args = parser.parse_args(argv)
    if args.workload == "privacy-audit":
        configs = workloads.build(args.workload, 0).configs
        (counts, collected), trials = count_audit_calls(configs, AUDIT_TRIALS), AUDIT_TRIALS * len(configs)
    else:
        (counts, collected), trials = count_calls(shape(args.workload)), TRIALS
    totals = collections.Counter()
    for (kind, _), calls in counts.items():
        totals[kind] += calls
    top = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:TOP]
    return cli.write_out(None, lambda write: write(json.dumps({
        "workload": args.workload,
        "trials": trials,
        "seed": None if args.workload == "privacy-audit" else SEED,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "python_calls_per_trial": totals["python"] / trials,
        "c_calls_per_trial": totals["c"] / trials,
        "top": [{"kind": kind, "function": name, "calls_per_trial": calls / trials} for (kind, name), calls in top],
        "gc_collections_per_1000_trials": [1000 * n / trials for n in collected],
    })))


if __name__ == "__main__":
    sys.exit(main())
