#!/usr/bin/env python3
"""Privacy audit: what each allowed coalition can infer about one party's secret.

For a batch of honest runs of both variants, the script computes the secret
support of every coalition in ``allowed_coalitions`` (all candidate values
consistent with its transcript view, with the announced ordering deliberately
excluded) and checks that it holds the true secret. It prints a support-size
histogram for each TP and for the n-1 other parties, and reports the two
known edge leaks explicitly:

* the measuring TP narrows the support near extreme measured values
  (a measured 0 with complement equal to the run constant pins the secret);
* the lone TP of the single-TP variant learns secret + key for every party,
  hence every pairwise difference of secrets, even though each individual
  secret keeps a key-sized uncertainty window.

The runs of each variant are trials 0..runs-1 of one harness experiment
seeded by ``--seed``, drawn in one pass, and any of them replays alone with
``run_trial``. A support that excludes the true secret is a bug in the audit,
not a finding: the script then prints one ``error:`` line per variant naming
the run and target, and exits 1.

Example:
    python3 scripts/privacy_audit.py --runs 200 --seed 7
"""
from __future__ import annotations

import argparse
import collections
import sys

from qpc_sim import (
    ExperimentConfig,
    ParameterError,
    allowed_coalitions,
    coalition_view,
    secret_support,
)
from qpc_sim.harness import _trial_runs
from qpc_sim.protocol import WIRING


def _histogram(sizes: list[int], r: int) -> str:
    counts = collections.Counter(sizes)
    total = len(sizes)
    return "  ".join(f"|S|={k}: {counts.get(k, 0) / total:.2%}" for k in range(1, r + 1))


def audit(config: ExperimentConfig) -> str | None:
    """Truth-check every allowed coalition and print the report; return the first inconsistency instead."""
    params, _ = config.validate()
    n, runs = params.n, config.trials
    preparer, measurer = WIRING[params.variant]
    sizes: dict[str, list[int]] = {name: [] for name in (preparer, "parties", measurer)}
    plans = [allowed_coalitions(params.variant, n, target) for target in range(n)]
    diffs_exact = 0
    for run in _trial_runs(config, range(runs)):
        t = run.trial_index
        for target, plan in enumerate(plans):
            for coalition in plan:
                # a plan ends with the n-1 other parties
                name = "parties" if coalition is plan[-1] else "+".join(sorted(coalition.members))
                support = secret_support(coalition_view(run.transcript, coalition), params).candidates
                if run.secrets[target] not in support:
                    return f"{config.variant} trial {t} target {target}: the {name} support excludes the true secret"
                if name in sizes:
                    sizes[name].append(len(support))
        if preparer == measurer:
            # the lone TP reads secret + key for every party off its own view,
            # so every pairwise secret difference leaks exactly
            events = run.transcript.view(measurer)
            [prep] = [e for e in events if e["kind"] == "carrier_prep"]
            measured = [e for e in events if e["kind"] == "carrier_measurement"]
            diffs_exact += len({e["value"] - prep["pads"][e["party"]] - run.secrets[e["party"]] for e in measured}) == 1
    print(f"{config.variant} (n={n}, d={params.d}, r={params.r}, seed={config.seed}), {runs} runs x {n} targets:")
    for name, found in sizes.items():
        print(f"  {name:8} {_histogram(found, params.r)}")
    if preparer == measurer:
        print(f"  pairwise secret differences were exactly recoverable by the {measurer} in {diffs_exact}/{runs} runs.")
    else:
        pinned = sizes[measurer].count(1)
        print(f"  {measurer} pinned a secret exactly in {pinned} of {runs * n} cases (extreme measured values).")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=200, help="honest runs per variant (default 200)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    two_tp = ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=8, trials=args.runs, seed=args.seed)
    one_tp = ExperimentConfig(variant="one-tp", n=3, d=17, r=5, l=8, trials=args.runs, seed=args.seed)
    for config in (two_tp, one_tp):
        try:
            config.validate()
        except ParameterError as exc:
            parser.error(str(exc))
    status = 0
    for i, config in enumerate((two_tp, one_tp)):
        if i:
            print()
        error = audit(config)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
