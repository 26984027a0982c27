"""Command-line front end.

Single-run mode writes one experiment report; adding ``--axis``/``--values``
turns the same invocation into a sweep. This module renders every text form
of the output: the indented JSON of ``to_dict``, or CSV. Exit codes: 0
success, 2 bad configuration, 3 I/O failure. A sweep is a bad configuration
only when none of its cells is valid; it runs the others and skips the
invalid ones.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import sys
from typing import Sequence

from .adversary import ATTACK_IDS
from .harness import ExperimentConfig, ExperimentReport, SweepCell, run_experiment, sweep
from .protocol import MAX_DIM, Variant
from .qudit import ParameterError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

#: Fixed column order of CSV output (the trailing note column carries sweep-skip reasons).
CSV_COLUMNS = (
    "variant",
    "n",
    "d",
    "r",
    "l",
    "attack",
    "trials",
    "correct",
    "aborts",
    "rate",
    "stderr",
    "analytic",
    "note",
)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the CLI's flags; ``main`` parses with one built on its first call."""
    parser = argparse.ArgumentParser(
        prog="qpc-sim",
        description="Monte-Carlo simulator for d-level single-particle private-comparison protocols.",
    )
    parser.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    parser.add_argument("--n", type=int, required=True, help="number of comparing parties")
    parser.add_argument("--d", type=int, required=True, help=f"qudit dimension, at most {MAX_DIM}")
    parser.add_argument("--r", type=int, required=True, help="secrets lie in [0, r)")
    parser.add_argument("--l", type=int, default=8, help="decoys per transmission (default 8)")
    parser.add_argument(
        "--secrets",
        default="random",
        help="comma-separated secrets (fixed across trials), or 'random' to redraw per trial",
    )
    parser.add_argument(
        "--c",
        dest="shared_key",
        default="random",
        help="one-tp shared key: an integer, or 'random' to redraw per trial",
    )
    parser.add_argument("--attack", default="none", choices=list(ATTACK_IDS))
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--threshold", type=float, default=0.0, help="tolerated decoy error rate (default 0)")
    parser.add_argument("--out", default=None, help="output path (default: print to stdout)")
    parser.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    parser.add_argument("--axis", choices=["d", "l", "attack"], default=None, help="sweep this parameter")
    parser.add_argument("--values", default=None, help="comma-separated values for --axis")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call: parsing leaves it unchanged, and each build leaves cycles to collect."""
    return build_parser()


def _parse_secrets(text: str) -> tuple[int, ...] | str:
    if text.strip().lower() == "random":
        return "random"
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParameterError(f"--secrets expects comma-separated integers or 'random', got {text!r}") from None


def _parse_shared_key(text: str) -> int | str:
    if text.strip().lower() == "random":
        return "random"
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"--c expects an integer or 'random', got {text!r}") from None


def _parse_axis_values(axis: str, text: str | None) -> list:
    if text is None:
        raise ParameterError("--axis requires --values")
    parts = [part.strip() for part in text.split(",") if part.strip() != ""]
    if not parts:
        raise ParameterError(f"--values for axis {axis!r} names no value, got {text!r}")
    if axis == "attack":
        return parts
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ParameterError(f"--values for axis {axis!r} expects integers, got {text!r}") from None


def _check_cells(base: ExperimentConfig, axis: str, values: list) -> None:
    """Refuse a sweep none of whose cells is valid, with the first cell's reason; a cell is ``base`` with ``axis`` set."""
    errors = []
    for value in values:
        try:
            dataclasses.replace(base, **{axis: value}).validate()
            return
        except ParameterError as exc:
            errors.append(exc)
    raise errors[0]


def _csv_row(config: dict, report: ExperimentReport | None, skipped: str | None = None) -> list[str]:
    """One line in CSV_COLUMNS order: seven config columns, five results (empty if skipped), the skip note."""
    results = [""] * 5
    if report is not None:
        rates = (report.abort_rate, report.abort_stderr, report.analytic_abort)
        results = [str(report.n_correct), str(report.n_aborted), *("" if x is None else f"{x:.12g}" for x in rates)]
    note = "" if skipped is None else f"skipped: {skipped}"
    return [str(config[name]) for name in CSV_COLUMNS[:7]] + [*results, note]


def _csv_text(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buffer.getvalue()


def _render_report(report: ExperimentReport, fmt: str) -> str:
    if fmt == "csv":
        return _csv_text([_csv_row(report.config, report)])
    return json.dumps(report.to_dict(), indent=2)


def _render_sweep(cells: list[SweepCell], fmt: str) -> str:
    if fmt == "csv":
        return _csv_text([_csv_row(cell.config, cell.report, cell.skipped) for cell in cells])
    return json.dumps([cell.to_dict() for cell in cells], indent=2)


def _summary(report: ExperimentReport) -> str:
    analytic = "n/a" if report.analytic_abort is None else f"{report.analytic_abort:.6g}"
    return (
        f"trials={report.n_trials} completed={report.n_completed} aborted={report.n_aborted} "
        f"correct={report.n_correct} abort_rate={report.abort_rate:.6g} analytic={analytic}"
    )


def _run(config: ExperimentConfig, axis: str | None, values: list, fmt: str) -> tuple[str, str]:
    """The rendered output and its one-line summary, for one report or a sweep over ``axis``."""
    if axis is None:
        report = run_experiment(config)
        return _render_report(report, fmt), _summary(report)
    cells = sweep(config, axis, values)
    done = sum(1 for c in cells if c.report is not None)
    return _render_sweep(cells, fmt), f"sweep over {axis}: {done}/{len(cells)} cells run"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message; code 2 on bad flags
        return int(exc.code or 0)
    try:
        config = ExperimentConfig(
            variant=args.variant,
            n=args.n,
            d=args.d,
            r=args.r,
            l=args.l,
            secrets=_parse_secrets(args.secrets),
            shared_key=_parse_shared_key(args.shared_key),
            attack=args.attack,
            trials=args.trials,
            seed=args.seed,
            threshold=args.threshold,
        )
        values = []
        if args.axis is not None:
            values = _parse_axis_values(args.axis, args.values)
            _check_cells(config, args.axis, values)
        else:
            config.validate()
            if args.values is not None:
                raise ParameterError("--values requires --axis")
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # --out opens before the run, so an unwritable path fails before any trial is spent
    try:
        out = None if args.out is None else open(args.out, "w", encoding="utf-8")
        with out or contextlib.nullcontext():
            text, summary = _run(config, args.axis, values, args.fmt)
            if out is not None:
                out.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(text if out is None else f"{summary} -> {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
