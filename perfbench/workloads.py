"""The four benchmark workloads, driven through the entry points a user calls.

A workload is built from the benchmark seed and a part number alone; the
program only sees the configs and inputs derived from them. Each worker
process of a run takes its own part, so a run averages over the trials of
several parts (a trial's cost depends on its random decoy bases).

``cold()`` is the warm-up pass that belongs to set-up (it builds the per-d
``fourier_matrix`` entries); ``repeat()`` is one timed unit of work whose
outputs are then checked. Repeats of one part redo identical work, so their
digests must agree.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from time import perf_counter

from qpc_sim import adversary, cli, harness
from qpc_sim.harness import ExperimentConfig, ExperimentReport

import checks


@dataclass
class Repeat:
    """One timed unit of work: trials done, wall time of the program call, digest and checks."""

    trials: int
    elapsed_s: float
    digest: str
    attempted: int
    failed: int
    out_bytes: int | None = None


def program_seed(workload: str, seed: int, part: int) -> int:
    """Master seed handed to the program; depends only on (workload, benchmark seed, part)."""
    return random.Random(f"{workload}:{seed}:{part}").getrandbits(32)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CliWorkload:
    """One ``qpc_sim.cli.main`` invocation per repeat; its stdout report is parsed and checked."""

    def __init__(self, name: str, seed: int, part: int, args: list[str], trials: int) -> None:
        self.name = name
        self.args = args + ["--seed", str(program_seed(name, seed, part))]
        self.trials = trials

    def _call(self, trials: int) -> tuple[str, float]:
        buffer = io.StringIO()
        argv = self.args + ["--trials", str(trials)]
        with redirect_stdout(buffer):
            start = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"qpc-sim {' '.join(argv)} exited with {code}")
        return buffer.getvalue(), elapsed

    def cold(self) -> None:
        self._call(1)

    def repeat(self) -> Repeat:
        text, elapsed = self._call(self.trials)
        reports = self.reports(text)
        attempted, failed = self.check(reports)
        digest = _sha("\n".join(r.canonical_json() for r in reports))
        return Repeat(self.trials * len(reports), elapsed, digest, attempted, failed, len(text.encode()))

    def reports(self, text: str) -> list[ExperimentReport]:
        return [ExperimentReport.from_json(text)]

    def check(self, reports: list[ExperimentReport]) -> tuple[int, int]:
        """One check per trial: it completed with the oracle's ranking."""
        rows = [row for report in reports for row in report.trials]
        return len(rows), sum(not checks.ranked_trial_ok(row) for row in rows)


class SweepWorkload(CliWorkload):
    """``--axis d`` sweep: the CLI prints one report per cell."""

    def reports(self, text: str) -> list[ExperimentReport]:
        cells = json.loads(text)
        if any(cell["report"] is None for cell in cells):
            raise RuntimeError(f"sweep skipped a cell: {[cell['skipped'] for cell in cells]}")
        return [ExperimentReport.from_dict(cell["report"]) for cell in cells]


class InterceptWorkload(CliWorkload):
    """Every trial aborts at step 3, so the checks are statistical, two per repeat."""

    def check(self, reports: list[ExperimentReport]) -> tuple[int, int]:
        [report] = reports
        ok_decoy = checks.per_decoy_ok(report.decoy_stats["step3"], report.config["d"])
        ok_abort = checks.abort_rate_ok(report.abort_rate, report.analytic_abort, report.n_trials)
        return 2, (not ok_decoy) + (not ok_abort)


class AuditWorkload:
    """Replay honest trials of both wirings through ``run_trial`` and audit every allowed coalition.

    Per target: each third party alone, and every non-empty subset of the
    other parties. One check per (trial, target, coalition).
    """

    name = "privacy-audit"

    def __init__(self, seed: int, part: int, trials: int) -> None:
        base = program_seed(self.name, seed, part)
        # the guard limits of secret_support: r <= 16, d <= 64
        self.configs = [
            ExperimentConfig(variant="two-tp", n=5, d=31, r=16, l=8, seed=base),
            ExperimentConfig(variant="one-tp", n=5, d=47, r=16, l=8, seed=base + 1),
        ]
        self.trials = trials

    @staticmethod
    def coalitions(variant: str, n: int, target: int) -> list[tuple[frozenset[str], bool]]:
        """(members, must see the full support) for every coalition allowed against ``target``."""
        others = [f"P{i + 1}" for i in range(n) if i != target]
        tps = [("TP1", True), ("TP2", False)] if variant == "two-tp" else [("TP", False)]
        out = [(frozenset({tp}), full) for tp, full in tps]
        for size in range(1, n):
            for members in itertools.combinations(others, size):
                out.append((frozenset(members), size == n - 1))
        return out

    def _audit(self, trials: int) -> tuple[list, float, int]:
        supports: list[list[int]] = []
        failed = 0
        elapsed = 0.0
        for config in self.configs:
            params, _ = config.validate()
            plans = [self.coalitions(config.variant, config.n, target) for target in range(config.n)]
            audits = [(target, full) for target, plan in enumerate(plans) for _, full in plan]
            for t in range(trials):
                start = perf_counter()
                run = harness.run_trial(config, t)
                found = []
                for target, plan in enumerate(plans):
                    for members, _ in plan:
                        view = adversary.coalition_view(run.transcript, adversary.Coalition(members, target))
                        found.append(adversary.secret_support(view, params).candidates)
                elapsed += perf_counter() - start
                for (target, full), candidates in zip(audits, found):
                    failed += not checks.support_ok(candidates, run.secrets[target], config.r, full)
                    supports.append(sorted(candidates))
        return supports, elapsed, failed

    def cold(self) -> None:
        self._audit(1)

    def repeat(self) -> Repeat:
        supports, elapsed, failed = self._audit(self.trials)
        digest = _sha(json.dumps(supports, separators=(",", ":")))
        return Repeat(self.trials * len(self.configs), elapsed, digest, len(supports), failed)


def build(name: str, seed: int, part: int = 0) -> CliWorkload | AuditWorkload:
    """The named workload at its benchmark size. Trial counts make one repeat take a fraction of a second."""
    if name == "honest-two-tp":
        args = ["--variant", "two-tp", "--n", "5", "--d", "13", "--r", "5", "--l", "8", "--attack", "none"]
        return CliWorkload(name, seed, part, args, trials=100)
    if name == "intercept-abort":
        args = ["--variant", "two-tp", "--n", "2", "--d", "4", "--r", "2", "--l", "32", "--attack", "ir-random"]
        return InterceptWorkload(name, seed, part, args, trials=400)
    if name == "d-sweep":
        args = ["--variant", "two-tp", "--n", "2", "--d", "256", "--r", "2", "--l", "8", "--attack", "none",
                "--axis", "d", "--values", "256,1024,2048"]
        return SweepWorkload(name, seed, part, args, trials=2)
    if name == "privacy-audit":
        return AuditWorkload(seed, part, trials=8)
    raise ValueError(f"unknown workload {name!r}; expected one of: {', '.join(NAMES)}")


NAMES = ("honest-two-tp", "intercept-abort", "d-sweep", "privacy-audit")
