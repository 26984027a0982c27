#!/usr/bin/env python3
"""Privacy audit: what each allowed coalition can infer about one party's secret.

For a batch of honest runs of both variants, the script computes the
secret support (all candidate values consistent with the coalition's
transcript view, with the announced ordering deliberately excluded; a
closed-form interval, whose brute-force enumeration is the test oracle) and
prints a support-size histogram per coalition. It also reports the two known
edge leaks explicitly:

* the measuring TP narrows the support near extreme measured values
  (a measured 0 with complement equal to the run constant pins the secret);
* the lone TP of the single-TP variant learns secret + key for every party,
  hence every pairwise difference of secrets, even though each individual
  secret keeps a key-sized uncertainty window.

The runs of each variant are trials 0..runs-1 of one harness experiment
seeded by ``--seed``, so any of them replays with ``run_trial``. A support
that excludes the true secret is a bug in the audit, not a finding: the
script then prints one ``error:`` line per variant naming the run and target,
and exits 1.

Example:
    python3 scripts/privacy_audit.py --runs 200 --seed 7
"""
from __future__ import annotations

import argparse
import collections
import sys

from qpc_sim import (
    Coalition,
    ConfigError,
    ExperimentConfig,
    coalition_view,
    run_trial,
    secret_support,
)


def _histogram(sizes: list[int], r: int) -> str:
    counts = collections.Counter(sizes)
    total = len(sizes)
    return "  ".join(f"|S|={k}: {counts.get(k, 0) / total:.2%}" for k in range(1, r + 1))


def _excluded(variant: str, trial: int, target: int, name: str) -> str:
    return f"{variant} trial {trial} target {target}: the {name} support excludes the true secret"


def audit_two_tp(config: ExperimentConfig) -> str | None:
    """Print the two-tp histograms; return the first inconsistency instead, if any."""
    params, _ = config.validate()
    runs, seed = config.trials, config.seed
    sizes: dict[str, list[int]] = {"TP1": [], "TP2": [], "parties": []}
    pinned = []
    for t in range(runs):
        run = run_trial(config, t)
        secrets, transcript = run.secrets, run.transcript
        for target in range(params.n):
            others = frozenset(f"P{i + 1}" for i in range(params.n) if i != target)
            for name, members in (("TP1", frozenset({"TP1"})), ("TP2", frozenset({"TP2"})), ("parties", others)):
                view = coalition_view(transcript, Coalition(members, target))
                support = secret_support(view, params).candidates
                if secrets[target] not in support:
                    return _excluded("two-tp", t, target, name)
                sizes[name].append(len(support))
                if name == "TP2" and len(support) == 1:
                    pinned.append((secrets[target], target))
    print(f"two-tp (n=3, d=13, r=5, seed={seed}), {runs} runs x 3 targets:")
    for name in ("TP1", "parties", "TP2"):
        print(f"  {name:8} {_histogram(sizes[name], params.r)}")
    print(f"  TP2 pinned a secret exactly in {len(pinned)} of {runs * 3} cases (extreme measured values).")
    return None


def audit_one_tp(config: ExperimentConfig) -> str | None:
    """Print the one-tp histograms and difference leak; return the first inconsistency instead, if any."""
    params, _ = config.validate()
    runs, seed = config.trials, config.seed
    tp_sizes: list[int] = []
    party_sizes: list[int] = []
    diffs_exact = 0
    for t in range(runs):
        run = run_trial(config, t)
        secrets, transcript = run.secrets, run.transcript
        events = transcript.events()
        [prep] = [e for e in events if e["kind"] == "carrier_prep"]
        measured = {e["party"]: e["value"] for e in events if e["kind"] == "carrier_measurement"}
        # the TP reads secret+key for every party straight off its own view,
        # so pairwise secret differences leak exactly
        shifted = [measured[i] - prep["pads"][i] for i in range(params.n)]
        diffs_exact += all(
            shifted[i] - shifted[j] == secrets[i] - secrets[j]
            for i in range(params.n)
            for j in range(params.n)
        )
        for target in range(params.n):
            others = frozenset(f"P{i + 1}" for i in range(params.n) if i != target)
            for name, members, sizes in (("TP", frozenset({"TP"}), tp_sizes), ("parties", others, party_sizes)):
                support = secret_support(coalition_view(transcript, Coalition(members, target)), params).candidates
                if secrets[target] not in support:
                    return _excluded("one-tp", t, target, name)
                sizes.append(len(support))
    print(f"\none-tp (n=3, d=17, r=5, seed={seed}), {runs} runs x 3 targets:")
    print(f"  TP       {_histogram(tp_sizes, params.r)}")
    print(f"  parties  {_histogram(party_sizes, params.r)}")
    print(f"  pairwise secret differences were exactly recoverable by the TP in {diffs_exact}/{runs} runs.")
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
        except ConfigError as exc:
            parser.error(str(exc))
    status = 0
    for audit, config in ((audit_two_tp, two_tp), (audit_one_tp, one_tp)):
        error = audit(config)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
