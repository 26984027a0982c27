"""Command-line front end.

Single-run mode writes one experiment report; adding ``--axis``/``--values``
turns the same invocation into a sweep. This module renders every text form
of the output, the indented JSON of ``to_dict`` or CSV, in one place, and
writes it through one path to stdout or to ``--out``: the same bytes, ending
in one newline. A report is written row by row as its trials run, and a
sweep cell by cell, each cell's report as a single one is; no row and no
finished cell is kept, so memory is flat in ``--trials`` and in the number of
cells, for JSON and CSV. Exit codes: 0 success, 2 bad configuration, 3 I/O
failure (a failed write to stdout or to ``--out``, which also stops the run).
A sweep is a bad configuration only when none of its cells is valid; it runs
the others and skips the invalid ones.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
from typing import Callable, Sequence

from .adversary import ATTACK_IDS
# ``sweep`` is not called here, only kept because perfbench's tracer patches ``cli.sweep``; ROADMAP item 16 drops it.
from .harness import ExperimentConfig, ExperimentReport, _sweep_cells, run_experiment, sweep  # noqa: F401
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once and shared: parsing leaves it unchanged, and each build leaves cycles to collect."""
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


def _random_or_ints(text: str, expects: str, many: bool = False) -> tuple[int, ...] | int | str:
    """``"random"`` in any case, else an integer, or comma-separated ones if ``many``; ``expects`` names the flag."""
    if text.strip().lower() == "random":
        return "random"
    try:
        return tuple(int(part) for part in text.split(",")) if many else int(text)
    except ValueError:
        raise ParameterError(f"{expects} or 'random', got {text!r}") from None


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


def _csv_row(config: dict, report: ExperimentReport | None, skipped: str | None = None) -> list[str]:
    """One line in CSV_COLUMNS order: seven config columns, five results (empty if skipped), the skip note."""
    results = [""] * 5
    if report is not None:
        rates = (report.abort_rate, report.abort_stderr, report.analytic_abort)
        results = [str(report.n_correct), str(report.n_aborted), *("" if x is None else f"{x:.12g}" for x in rates)]
    note = "" if skipped is None else f"skipped: {skipped}"
    return [str(config[name]) for name in CSV_COLUMNS[:7]] + [*results, note]


def _csv_line(row: list[str]) -> str:
    """``row`` as csv.writer quotes it, after a newline: the text after the header ends in no newline."""
    line = io.StringIO()
    csv.writer(line, lineterminator="").writerow(row)
    return "\n" + line.getvalue()


def _nested(value: object, depth: int) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it ``depth`` levels deep, its first line unindented."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _json_row(row: dict, depth: int) -> str:
    """A trial row as the report's indent=2 JSON writes it ``depth`` levels deep, after a comma unless it is trial 0;
    for ``run_experiment``'s rows: ints, non-empty lists of ints, a ``CHECK_STEPS`` name, bools, or None."""
    p0 = "\n" + "  " * depth
    p1, p2, p3 = p0 + "  ", p0 + "    ", p0 + "      "
    key, step, ranking = row["shared_key"], row["aborted_at"], row["ranking"]
    step = "null" if step is None else f'"{step}"'
    if ranking is not None:
        ranking = "[" + ",".join([f"{p2}[{p3}{(',' + p3).join(map(str, g))}{p2}]" for g in ranking]) + p1 + "]"
    secrets, literal = ("," + p2).join(map(str, row["secrets"])), {None: "null", True: "true", False: "false"}
    return (
        f'{"," if row["trial"] else ""}{p0}{{{p1}"trial": {row["trial"]},{p1}"secrets": [{p2}{secrets}{p1}],'
        f'{p1}"shared_key": {"null" if key is None else key},{p1}"aborted_at": {step},'
        f'{p1}"ranking": {"null" if ranking is None else ranking},{p1}"correct": {literal[row["correct"]]}{p0}}}'
    )


def _report(config: ExperimentConfig, fmt: str, write: Callable[[str], object], depth: int = 0) -> ExperimentReport:
    """Run ``config``; in JSON, write its report ``depth`` levels deep as it runs: the config, each row as the run makes
    it, then the fields after the rows. The report keeps no row."""
    if fmt == "csv":
        return run_experiment(config, lambda row: None)
    pad = "\n" + "  " * (depth + 1)
    write(f'{{{pad}"config": {_nested(config.to_dict(), depth + 1)},{pad}"trials": [')
    report = run_experiment(config, lambda row: write(_json_row(row, depth + 2)))
    summary = {key: value for key, value in report.to_dict().items() if key not in ("config", "trials")}
    write(pad + "]," + _nested(summary, depth)[1:])
    return report


def _run(config: ExperimentConfig, cells: list | None, fmt: str, write: Callable[[str], object]) -> str:
    """Write the output in ``fmt`` through ``write``: one report of ``config``, or the sweep of ``cells`` from
    ``_sweep_cells``; give its summary line. Each report is written as it runs, each cell before the next runs."""
    if fmt == "csv":
        write(",".join(CSV_COLUMNS))
    if cells is None:
        report = _report(config, fmt, write)
        if fmt == "csv":
            write(_csv_line(_csv_row(report.config, report)))
        analytic = "n/a" if report.analytic_abort is None else f"{report.analytic_abort:.6g}"
        return (
            f"trials={report.n_trials} completed={report.n_completed} aborted={report.n_aborted} "
            f"correct={report.n_correct} abort_rate={report.abort_rate:.6g} analytic={analytic}"
        )
    if fmt == "json":
        write("[")
    for index, (cell, cfg) in enumerate(cells):
        if fmt == "json":  # the cell's own fields in one dump, cut where its report goes
            head, _, tail = _nested(cell.to_dict(), 1).partition('"report": null')
            write(("," if index else "") + "\n  " + head + '"report": ' + ("null" if cell.skipped else ""))
        report = None if cell.skipped else _report(cfg, fmt, write, 2)
        write(tail if fmt == "json" else _csv_line(_csv_row(cell.config, report, cell.skipped)))
    if fmt == "json":
        write("\n]")
    return f"sweep over {cells[0][0].axis}: {sum(not cell.skipped for cell, _ in cells)}/{len(cells)} cells run"


def write_out(path: str | None, emit: Callable[[Callable[[str], object]], object]) -> int:
    """Open ``path`` first, or take stdout, and call ``emit(write)``, which writes the text in chunks but not its final
    newline, then add that: EXIT_OK, or EXIT_IO and one error line, and a failed write ends ``emit`` where it stands."""
    try:
        stream = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")
        with stream as out:
            if out is None:  # python's sys.stdout when file descriptor 1 was closed at start
                raise OSError("stdout is closed")
            emit(out.write)
            out.write("\n")
            out.flush()
    except OSError as exc:
        if path is None and sys.stdout is not None:
            with contextlib.suppress(OSError):
                sys.stdout.close()  # else python retries the unwritten rest at exit and reports that failure too
        print(f"error: cannot write {'stdout' if path is None else path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message; code 2 on bad flags
        return int(exc.code or 0)
    try:
        config = ExperimentConfig(
            variant=args.variant,
            n=args.n,
            d=args.d,
            r=args.r,
            l=args.l,
            secrets=_random_or_ints(args.secrets, "--secrets expects comma-separated integers", many=True),
            shared_key=_random_or_ints(args.shared_key, "--c expects an integer"),
            attack=args.attack,
            trials=args.trials,
            seed=args.seed,
            threshold=args.threshold,
        )
        cells = None
        if args.axis is not None:  # every cell is built and checked before any runs
            cells = _sweep_cells(config, args.axis, _parse_axis_values(args.axis, args.values))
            if all(cell.skipped for cell, _ in cells):
                raise ParameterError(cells[0][0].skipped)
        else:
            config.validate()
            if args.values is not None:
                raise ParameterError("--values requires --axis")
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    summary: list[str] = []
    # --out opens before the run, so an unwritable path fails before any trial is spent
    status = write_out(args.out, lambda write: summary.append(_run(config, cells, args.fmt, write)))
    return write_out(None, lambda write: write(f"{summary[0]} -> {args.out}")) if args.out and not status else status


if __name__ == "__main__":
    sys.exit(main())
