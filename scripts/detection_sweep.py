#!/usr/bin/env python3
"""Detection-rate sweep: Monte-Carlo abort rates vs. the closed form.

Runs every active attack strategy over a list of qudit dimensions and prints,
per cell, the analytic per-decoy detection probability, the predicted
run-abort probability 1 - (1 - p)^D (D = tapped-and-checked decoys per run),
and the observed abort rate with its binomial standard error. Each row is one
cell of ``harness.sweep`` over (variant, attack, d, r), and its seed column is
the cell's, so any trial of any row replays with ``run_trial``. Insider attacks
model the two-TP wiring and are skipped for ``one-tp``, as are dimensions below
a variant's bound. Bad input exits 2; an unwritable ``--out`` exits 3 before
any cell runs, and a failed write to stdout or ``--out`` exits 3 too.

Example:
    python3 scripts/detection_sweep.py --trials 400 --dims 2,4,8,13 --l 8
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import sys

from qpc_sim import (
    ATTACK_IDS,
    ExperimentConfig,
    ParameterError,
    Variant,
    per_decoy_detection_probability,
    strategy_from_id,
    sweep,
    tapped_checked_decoys,
)
from qpc_sim.cli import write_out

# registry order: a cell's index, and so its seed, follows this tuple
ACTIVE_ATTACKS = tuple(a for a in ATTACK_IDS if strategy_from_id(a).active)

COLUMNS = ("variant", "attack", "d", "l", "seed", "per_decoy", "tapped", "analytic", "observed", "stderr")

#: The config fields each cell sets, in the order of its value tuple.
AXIS = ("variant", "attack", "d", "r")


def cell_values(dims: list[int]) -> list[tuple[str, str, int, int]]:
    """Every cell's (variant, attack, d, r), variant slowest and d fastest; r is 2, or 1 at d=2, where two-tp needs it."""
    return [
        (variant.value, attack, d, 1 if d < 3 else 2)
        for variant in Variant
        for attack in ACTIVE_ATTACKS
        for d in dims
    ]


def rows(cells) -> list[dict]:
    """One row per cell that ran; a skipped cell is below its variant's dimension bound, or an insider on one-tp."""
    out = []
    for cell in cells:
        if cell.report is None:
            continue
        params, strategy = ExperimentConfig(**cell.config).validate()
        out.append(
            {
                "variant": params.variant.value,
                "attack": strategy.id,
                "d": params.d,
                "l": params.l,
                "seed": cell.seed,
                "per_decoy": per_decoy_detection_probability(strategy, params.d),
                "tapped": tapped_checked_decoys(strategy, params),
                "analytic": cell.report.analytic_abort,
                "observed": cell.report.abort_rate,
                "stderr": cell.report.abort_stderr,
            }
        )
    return out


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


def _report(table: list[dict], trials: int, out: str | None) -> str:
    """The table as text, the worst deviation from the closed form, and where the CSV went, if anywhere."""
    header = f"{'variant':8} {'attack':12} {'d':>3} {'l':>3} {'p/decoy':>8} {'tapped':>6} {'analytic':>9} {'observed':>9} {'stderr':>8}"
    lines = [header, "-" * len(header)]
    for row in table:
        lines.append(
            f"{row['variant']:8} {row['attack']:12} {row['d']:>3} {row['l']:>3} "
            f"{row['per_decoy']:>8.4f} {row['tapped']:>6} {row['analytic']:>9.4f} "
            f"{row['observed']:>9.4f} {row['stderr']:>8.4f}"
        )
    worst = max((deviation(r["observed"], r["analytic"], trials) for r in table), default=0.0)
    lines += ["", f"cells: {len(table)}, trials per cell: {trials}, worst |observed-analytic|: {worst:.2f} analytic sigma"]
    if out:
        lines.append(f"table written to {out}")
    return "\n".join(lines) + "\n"


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

    values = cell_values(args.dims)
    # d and r are set per cell
    base = ExperimentConfig(variant="two-tp", n=args.n, d=2, r=1, l=args.l, trials=args.trials, seed=args.seed)
    try:
        for _, _, d, r in values:
            # an honest two-tp run has the loosest dimension bound, so what it rejects is bad input, not a skip
            dataclasses.replace(base, d=d, r=r).validate()
    except ParameterError as exc:
        parser.error(str(exc))

    table = []

    def run() -> str:
        """Run the sweep into ``table`` and give it as CSV."""
        table.extend(rows(sweep(base, AXIS, values)))
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(table)
        return buffer.getvalue()

    if args.out:
        # --out opens before the sweep, so an unwritable path fails before any cell runs
        status = write_out(args.out, run)
        if status:
            return status
    else:
        run()
    return write_out(None, lambda: _report(table, args.trials, args.out))


if __name__ == "__main__":
    sys.exit(main())
