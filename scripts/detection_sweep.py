#!/usr/bin/env python3
"""Detection-rate sweep: Monte-Carlo abort rates vs. the closed form.

Runs every active attack strategy over a list of qudit dimensions and prints,
per cell, the analytic per-decoy detection probability, the predicted
run-abort probability 1 - (1 - p)^D (D = tapped-and-checked decoys per run),
and the observed abort rate with its binomial standard error. Each cell is one
experiment run by the harness with the seed ``derive_cell_seed(seed, cell)``,
so any trial of any row replays with ``run_trial``. Insider attacks model the
two-TP wiring and are skipped for ``one-tp``, as are dimensions below a
variant's bound. Bad input exits 2; an unwritable ``--out`` exits 3 before
any cell runs.

Example:
    python3 scripts/detection_sweep.py --trials 400 --dims 2,4,8,13 --l 8
"""
from __future__ import annotations

import argparse
import csv
import math
import sys

from qpc_sim import (
    ATTACK_IDS,
    ConfigError,
    ExperimentConfig,
    derive_cell_seed,
    per_decoy_detection_probability,
    run_experiment,
    strategy_from_id,
    tapped_checked_decoys,
)

# registry order: a cell's index, and so its seed, follows this tuple
ACTIVE_ATTACKS = tuple(a for a in ATTACK_IDS if strategy_from_id(a).active)

COLUMNS = ("variant", "attack", "d", "l", "seed", "per_decoy", "tapped", "analytic", "observed", "stderr")


def cell_config(variant: str, attack: str, d: int, n: int, l: int, trials: int, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        variant=variant, n=n, d=d, r=1 if d < 3 else 2, l=l, attack=attack, trials=trials, seed=seed
    )


def sweep_cells(n: int, l: int, dims: list[int], trials: int, seed: int):
    """Return an iterator of one row per runnable cell.

    Input no cell can run with raises ConfigError here, before any cell runs.
    """
    for d in dims:
        # an honest two-tp run has the loosest dimension bound, so what it rejects is bad input, not a skip
        cell_config("two-tp", "none", d, n, l, trials, seed).validate()
    return _run_cells(n, l, dims, trials, seed)


def _run_cells(n: int, l: int, dims: list[int], trials: int, seed: int):
    cells = [(variant, attack, d) for variant in ("two-tp", "one-tp") for attack in ACTIVE_ATTACKS for d in dims]
    for index, (variant, attack, d) in enumerate(cells):
        config = cell_config(variant, attack, d, n, l, trials, derive_cell_seed(seed, index))
        try:
            params, strategy = config.validate()
        except ConfigError:
            continue  # below the variant's dimension bound, or an insider attack on one-tp
        report = run_experiment(config)
        cfg = report.config
        yield {
            "variant": cfg["variant"],
            "attack": cfg["attack"],
            "d": cfg["d"],
            "l": cfg["l"],
            "seed": cfg["seed"],
            "per_decoy": per_decoy_detection_probability(strategy, d),
            "tapped": tapped_checked_decoys(strategy, params),
            "analytic": report.analytic_abort,
            "observed": report.abort_rate,
            "stderr": report.abort_stderr,
        }


def deviation(observed: float, analytic: float, trials: int) -> float:
    """|observed - analytic| in units of the analytic binomial sigma.

    At an analytic rate of 0 or 1 the sigma is 0: an exact match scores 0 and
    any other observation scores ``inf``.
    """
    sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
    if sigma == 0.0:
        return 0.0 if observed == analytic else math.inf
    return abs(observed - analytic) / sigma


def _dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        dims = []
    if not dims:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return dims


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=400, help="runs per cell (default 400)")
    parser.add_argument("--n", type=int, default=2, help="comparing parties (default 2)")
    parser.add_argument("--l", type=int, default=8, help="decoys per transmission (default 8)")
    parser.add_argument("--dims", type=_dims, default="2,4,8,13", help="comma-separated qudit dimensions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="also write the table to this CSV path")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")

    try:
        cells = sweep_cells(args.n, args.l, args.dims, args.trials, args.seed)
    except ConfigError as exc:
        parser.error(str(exc))
    out = None
    if args.out:
        try:
            out = open(args.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    rows = list(cells)

    header = f"{'variant':8} {'attack':12} {'d':>3} {'l':>3} {'p/decoy':>8} {'tapped':>6} {'analytic':>9} {'observed':>9} {'stderr':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['variant']:8} {row['attack']:12} {row['d']:>3} {row['l']:>3} "
            f"{row['per_decoy']:>8.4f} {row['tapped']:>6} {row['analytic']:>9.4f} "
            f"{row['observed']:>9.4f} {row['stderr']:>8.4f}"
        )

    worst = max((deviation(r["observed"], r["analytic"], args.trials) for r in rows), default=0.0)
    print(f"\ncells: {len(rows)}, trials per cell: {args.trials}, worst |observed-analytic|: {worst:.2f} analytic sigma")

    if out:
        with out:
            writer = csv.DictWriter(out, fieldnames=COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        print(f"table written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
