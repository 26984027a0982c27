"""Monte-Carlo harness: validated experiment configs, deterministic trial
seeding, aggregated reports, and one-axis parameter sweeps.

Determinism contract: trial t of an experiment is driven by a generator
derived purely from (master seed, t), and sweep cell i reseeds purely from
(master seed, i), so any trial or cell can be reproduced in isolation.
Aggregation is a plain fold in trial order.
"""
from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adversary import (
    AttackStrategy,
    analytic_abort_probability,
    strategy_from_id,
)
from .channel import OUTSIDER, Transcript
from .protocol import (
    WIRING,
    ComparisonOutcome,
    ProtocolParams,
    Variant,
    _check_shared_key,
    _normalize_secrets,
    rank_descending,
    run_one_tp_protocol,
    run_two_tp_protocol,
)
from .qudit import ParameterError

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

_CHECK_STEPS = ("step3", "step5", "step6")
_SWEEP_TAG = 0x53574545


class ConfigError(ValueError):
    """An experiment configuration violates a documented constraint."""


def derive_rng(*entropy: int) -> np.random.Generator:
    """Generator seeded purely by the given non-negative integers.

    Bit for bit the generator of ``SeedSequence(entropy)``, children included.
    The entropy goes in as the uint32 words numpy's own coercion makes of the
    tuple (each int as its little-endian 32-bit words, 0 as one zero word):
    numpy copies a uint32 array as it is, but coerces a tuple element by
    element in Python, once more for every child that ``spawn`` makes.
    """
    words = []
    for value in entropy:
        if value < 0:
            raise ValueError(f"entropy must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def derive_cell_seed(master_seed: int, cell_index: int) -> int:
    """Master seed for one sweep cell; depends only on (master seed, cell index)."""
    seq = np.random.SeedSequence((master_seed, _SWEEP_TAG, cell_index))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: protocol parameters, inputs, adversary, and trial count.

    ``secrets="random"`` redraws the secret vector every trial; an explicit
    tuple is held fixed across trials. The shared key (single-TP variant)
    follows the same rule.
    """

    variant: str
    n: int
    d: int
    r: int
    l: int
    secrets: tuple[int, ...] | str = "random"
    shared_key: int | str | None = "random"
    attack: str = "none"
    trials: int = 100
    seed: int = 0
    threshold: float = 0.0

    def validate(self) -> tuple[ProtocolParams, AttackStrategy]:
        """Resolve to protocol params and a strategy, or raise ConfigError naming the violated constraint."""
        try:
            variant = Variant(self.variant)
        except ValueError:
            raise ConfigError(
                f"unknown variant {self.variant!r}; expected one of: "
                + ", ".join(v.value for v in Variant)
            ) from None
        try:
            params = ProtocolParams(
                variant=variant, n=self.n, d=self.d, r=self.r, l=self.l, error_threshold=self.threshold
            )
            strategy = strategy_from_id(self.attack)
            if strategy.owner not in (OUTSIDER, *WIRING[variant]):
                raise ConfigError(
                    f"attack {self.attack!r} models a two-tp insider and does not apply to {variant.value}"
                )
            if self.secrets != "random":
                _normalize_secrets(self.secrets, params)
            if self.shared_key not in (None, "random"):
                if variant is Variant.TWO_TP:
                    raise ConfigError("a shared key (--c) applies to the one-tp variant only")
                _check_shared_key(self.shared_key, params)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from None
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        return params, strategy

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["secrets"] != "random":
            out["secrets"] = list(out["secrets"])
        return out


@dataclass(frozen=True)
class TrialRun:
    """Raw material of a single trial (transcript included), for inspection and audits."""

    trial_index: int
    secrets: tuple[int, ...]
    shared_key: int | None
    transcript: Transcript
    outcome: ComparisonOutcome


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRun:
    """Execute trial ``trial_index`` of ``config`` exactly as run_experiment would."""
    params, strategy = config.validate()
    return _run_trial(config, params, strategy, trial_index)


def _run_trial(
    config: ExperimentConfig, params: ProtocolParams, strategy: AttackStrategy, trial_index: int
) -> TrialRun:
    rng = derive_rng(config.seed, trial_index)
    # draw order is fixed: secrets first, then the shared key, then the run
    if config.secrets == "random":
        secrets = tuple(int(s) for s in rng.integers(0, params.r, size=params.n))
    else:
        secrets = tuple(int(s) for s in config.secrets)
    if params.variant is Variant.TWO_TP:
        key = None
        transcript, outcome = run_two_tp_protocol(params, secrets, strategy, rng)
    else:
        if config.shared_key in (None, "random"):
            key = int(rng.integers(0, params.r))
        else:
            key = int(config.shared_key)
        transcript, outcome = run_one_tp_protocol(params, secrets, key, strategy, rng)
    return TrialRun(trial_index, secrets, key, transcript, outcome)


@dataclass
class ExperimentReport:
    """Aggregated result of one experiment.

    ``decoy_stats`` counts measured decoys and mismatches per checking stage
    across all trials (the raw material for detection-rate estimates);
    ``analytic_abort`` is the closed-form abort probability when defined
    (zero error threshold). ``wall_clock_s`` is measured, so it is excluded
    from :meth:`canonical_json`, the determinism-comparable form.
    """

    config: dict
    trials: list[dict]
    n_trials: int
    n_completed: int
    n_aborted: int
    n_correct: int
    correctness_rate: float
    abort_rate: float
    abort_stderr: float
    analytic_abort: float | None
    decoy_stats: dict[str, dict[str, int]]
    wall_clock_s: float

    def to_dict(self) -> dict:
        return _field_dict(self)

    def canonical_dict(self) -> dict:
        out = self.to_dict()
        del out["wall_clock_s"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def canonical_json(self) -> str:
        """Deterministic byte form: identical (config, seed) gives identical bytes."""
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_dict(json.loads(text))

    def csv_row(self) -> list[str]:
        rates = (self.abort_rate, self.abort_stderr, self.analytic_abort)
        return _csv_row(self.config, [str(self.n_correct), str(self.n_aborted), *map(_fmt_float, rates)])


def _fmt_float(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


def _field_dict(record: object) -> dict:
    """A dataclass's fields by name, in declaration order: the JSON key order of the output."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _csv_row(config: dict, results: Sequence[str] = ("",) * 5, note: str = "") -> list[str]:
    """One line in CSV_COLUMNS order: the seven config columns, the five results, then the note."""
    return [str(config[name]) for name in CSV_COLUMNS[:7]] + [*results, note]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all trials of ``config`` and fold the outcomes into a report."""
    params, strategy = config.validate()
    start = time.perf_counter()
    decoy_stats = {step: {"checked": 0, "mismatched": 0} for step in _CHECK_STEPS}
    trial_rows: list[dict] = []
    n_completed = n_aborted = n_correct = 0
    for t in range(config.trials):
        run = _run_trial(config, params, strategy, t)
        for event in run.transcript.events():
            if event["kind"] == "decoy_check":
                bucket = decoy_stats[event["step"]]
                bucket["checked"] += event["checked"]
                bucket["mismatched"] += event["mismatched"]
        outcome = run.outcome
        if outcome.completed:
            n_completed += 1
            correct = outcome.ranking == rank_descending(run.secrets)
            n_correct += correct
        else:
            n_aborted += 1
            correct = None
        trial_rows.append(
            {
                "trial": t,
                "secrets": list(run.secrets),
                "shared_key": run.shared_key,
                "aborted_at": outcome.aborted_at,
                "ranking": [list(g) for g in outcome.ranking] if outcome.completed else None,
                "correct": correct,
            }
        )
    abort_rate = n_aborted / config.trials
    try:
        analytic = analytic_abort_probability(strategy, params)
    except ParameterError:
        analytic = None  # no closed form at a non-zero threshold
    return ExperimentReport(
        config=config.to_dict(),
        trials=trial_rows,
        n_trials=config.trials,
        n_completed=n_completed,
        n_aborted=n_aborted,
        n_correct=n_correct,
        correctness_rate=n_correct / config.trials,
        abort_rate=abort_rate,
        abort_stderr=math.sqrt(abort_rate * (1.0 - abort_rate) / config.trials),
        analytic_abort=analytic,
        decoy_stats=decoy_stats,
        wall_clock_s=time.perf_counter() - start,
    )


@dataclass
class SweepCell:
    """One cell of a sweep: either a finished report or a skip reason."""

    axis: str
    value: object
    seed: int
    config: dict
    report: ExperimentReport | None = None
    skipped: str | None = None

    def to_dict(self) -> dict:
        return {**_field_dict(self), "report": self.report.to_dict() if self.report else None}

    def csv_row(self) -> list[str]:
        if self.report is not None:
            return self.report.csv_row()
        return _csv_row(self.config, note=f"skipped: {self.skipped}")


def sweep(base: ExperimentConfig, axis: str, values: Sequence) -> list[SweepCell]:
    """Run ``base`` once per value of ``axis`` (one of d, l, attack).

    Each cell reseeds deterministically from (base seed, cell index). Cells
    whose configuration is invalid are returned as skipped, with the reason,
    instead of failing the whole sweep. An empty value list is an empty sweep.
    """
    if axis not in ("d", "l", "attack"):
        raise ConfigError(f"sweep axis must be one of d, l, attack; got {axis!r}")
    cells: list[SweepCell] = []
    for index, value in enumerate(values):
        cell_seed = derive_cell_seed(base.seed, index)
        cfg = dataclasses.replace(base, **{axis: value}, seed=cell_seed)
        try:
            cfg.validate()
        except ConfigError as exc:
            cells.append(
                SweepCell(axis=axis, value=value, seed=cell_seed, config=cfg.to_dict(), skipped=str(exc))
            )
            continue
        cells.append(
            SweepCell(axis=axis, value=value, seed=cell_seed, config=cfg.to_dict(), report=run_experiment(cfg))
        )
    return cells
