"""Monte-Carlo harness: validated experiment configs, deterministic trial
seeding, aggregated reports, and parameter sweeps.

Determinism contract: trial t of an experiment is driven by a generator
derived purely from (master seed, t), and sweep cell i reseeds purely from
(master seed, i), so any trial or cell can be reproduced in isolation.
Aggregation is a plain fold in trial order.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .adversary import (
    AttackStrategy,
    analytic_abort_probability,
    strategy_from_id,
    tap_plan,
)
from .channel import OUTSIDER, Transcript
from .protocol import (
    CHECK_STEPS,
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
from .qudit import ParameterError, _expect, _expect_int, _plain_int
from .streams import RunDraws, trial_streams

_SWEEP_TAG = 0x53574545


def derive_cell_seed(master_seed: int, cell_index: int) -> int:
    """Master seed for one sweep cell; depends only on (master seed, cell index)."""
    seq = np.random.SeedSequence((master_seed, _SWEEP_TAG, cell_index))
    return int(seq.generate_state(1, np.uint64)[0])


def _check_seed(seed: object) -> int:
    """The one check of a master seed: an integer other than a bool in [0, 2**64), numpy's stored as an int."""
    seed = _expect_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: protocol parameters, inputs, adversary, and trial count.

    ``secrets="random"`` redraws the secret vector every trial; an explicit
    tuple is held fixed across trials. The shared key (single-TP variant)
    follows the same rule. Fields store their plain JSON value (numpy integers
    as ints, a numpy threshold as a float, a :class:`Variant` as its name), so
    reports and transcripts stay JSON; :meth:`validate` refuses anything else.
    """

    variant: str
    n: int
    d: int
    r: int
    l: int
    secrets: tuple[int, ...] | str = "random"
    shared_key: int | str = "random"
    attack: str = "none"
    trials: int = 100
    seed: int = 0
    threshold: float = 0.0

    def __post_init__(self) -> None:
        for name in ("n", "d", "r", "l", "trials", "seed", "shared_key"):
            object.__setattr__(self, name, _plain_int(getattr(self, name)))
        if isinstance(self.secrets, (tuple, list, np.ndarray)):
            object.__setattr__(self, "secrets", tuple(map(_plain_int, self.secrets)))
        if isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", self.variant.value)
        if isinstance(self.threshold, numbers.Real) and not isinstance(self.threshold, (int, float)):
            object.__setattr__(self, "threshold", float(self.threshold))

    def validate(self) -> tuple[ProtocolParams, AttackStrategy]:
        """Resolve to protocol params and a strategy, or raise ParameterError naming the violated constraint.

        A config that resolves keeps its pair outside its fields, so equality,
        hash and ``to_dict`` ignore it, and every later call returns that pair;
        a refused config is checked again on every call.
        """
        if "_resolved" in vars(self):
            return self._resolved
        try:
            variant = Variant(self.variant)
        except ValueError:
            raise ParameterError(
                f"unknown variant {self.variant!r}; expected one of: "
                + ", ".join(v.value for v in Variant)
            ) from None
        for name in ("trials", "seed"):  # ProtocolParams checks n, d, r and l
            _expect_int(getattr(self, name), name)
        params = ProtocolParams(
            variant=variant, n=self.n, d=self.d, r=self.r, l=self.l, error_threshold=self.threshold
        )
        strategy = strategy_from_id(self.attack)
        if strategy.owner not in (OUTSIDER, *WIRING[variant]):
            raise ParameterError(
                f"attack {self.attack!r} models a two-tp insider and does not apply to {variant.value}"
            )
        if self.secrets != "random":
            _normalize_secrets(self.secrets, params)
        if not (isinstance(self.shared_key, str) and self.shared_key == "random"):  # an array compares elementwise
            if variant is Variant.TWO_TP:
                raise ParameterError("a shared key (--c) applies to the one-tp variant only")
            _check_shared_key(self.shared_key, params)
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        _check_seed(self.seed)
        object.__setattr__(self, "_resolved", (params, strategy))
        return self._resolved

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
    """Execute trial ``trial_index`` (an integer >= 0) of ``config`` exactly as run_experiment would."""
    _expect(config, ExperimentConfig, "config")
    config.validate()
    t = _expect_int(trial_index, "trial_index", "an integer >= 0", 0)
    return next(_trial_runs(config, range(t, t + 1)))


def _trial_runs(config: ExperimentConfig, trials: range) -> Iterator[TrialRun]:
    """Trials ``trials`` (a range of step 1) of ``config``, each as ``run_trial`` runs it, in one draw pass.

    Each trial's root stream draws the random secrets, then a random one-tp key.
    """
    params, strategy = config.validate()
    random_key = params.variant is Variant.ONE_TP and config.shared_key == "random"
    root_draws = params.n * (config.secrets == "random") + random_key
    draws = trial_streams(config.seed, trials, params, root_draws, tap_plan(params, strategy))
    for t, run_draws in zip(trials, draws):
        yield _run_trial(config, params, strategy, t, run_draws)


def _run_trial(
    config: ExperimentConfig,
    params: ProtocolParams,
    strategy: AttackStrategy,
    trial_index: int,
    draws: RunDraws,
) -> TrialRun:
    # draw order is fixed: secrets first, then the shared key, then the run
    root = iter(draws.root)
    secrets = tuple(islice(root, params.n)) if config.secrets == "random" else config.secrets
    if params.variant is Variant.TWO_TP:
        key = None
        transcript, outcome = run_two_tp_protocol(params, secrets, strategy, draws)
    else:
        key = next(root) if config.shared_key == "random" else config.shared_key
        transcript, outcome = run_one_tp_protocol(params, secrets, key, strategy, draws)
    return TrialRun(trial_index, secrets, key, transcript, outcome)


@dataclass
class ExperimentReport:
    """Aggregated result of one experiment.

    ``decoy_stats`` counts measured decoys and mismatches per checking stage
    across all trials (the raw material for detection-rate estimates);
    ``analytic_abort`` is the closed-form abort probability when defined
    (zero error threshold). ``wall_clock_s`` is measured, and ``env`` names
    the qpc_sim, numpy and Python versions that made the report (or is empty);
    both are left out of :meth:`canonical_json`, the determinism-comparable form.
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
    env: dict[str, str] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return _field_dict(self)

    def canonical_json(self) -> str:
        """Deterministic byte form: identical (config, seed) gives identical bytes."""
        out = self.to_dict()
        del out["wall_clock_s"], out["env"]
        return json.dumps(out, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls) if f.name != "env" or "env" in data})

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_dict(json.loads(text))


@lru_cache(maxsize=1)
def _environment() -> tuple[tuple[str, str], ...]:
    """The versions a report names, read once per process."""
    from . import __version__  # the package module, complete by the time a report is made

    return ("qpc_sim", __version__), ("numpy", np.__version__), ("python", "%d.%d.%d" % sys.version_info[:3])


def _field_dict(record: object) -> dict:
    """A dataclass's fields by name, in declaration order: the JSON key order of the output."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all trials of ``config`` and fold the outcomes into a report."""
    _expect(config, ExperimentConfig, "config")
    params, strategy = config.validate()
    start = time.perf_counter()
    decoy_stats = {step: {"checked": 0, "mismatched": 0} for step in CHECK_STEPS}
    trial_rows: list[dict] = []
    n_completed = n_aborted = n_correct = 0
    for run in _trial_runs(config, range(config.trials)):
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
                "trial": run.trial_index,
                "secrets": list(run.secrets),
                "shared_key": run.shared_key,
                "aborted_at": outcome.aborted_at,
                "ranking": [list(g) for g in outcome.ranking] if outcome.completed else None,
                "correct": correct,
            }
        )
    abort_rate = n_aborted / config.trials
    analytic = None if params.error_threshold else analytic_abort_probability(strategy, params)
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
        env=dict(_environment()),
    )


@dataclass
class SweepCell:
    """One cell of a sweep: either a finished report or a skip reason; ``value`` is stored as ``config`` stores it."""

    axis: str | tuple[str, ...]
    value: object
    seed: int
    config: dict
    report: ExperimentReport | None = None
    skipped: str | None = None

    def to_dict(self) -> dict:
        return {**_field_dict(self), "report": self.report.to_dict() if self.report else None}


#: The config fields a sweep may set: every one but the seed, which each cell derives.
_SWEEP_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "seed")


def sweep(base: ExperimentConfig, axis: str | tuple[str, ...], values: Sequence) -> list[SweepCell]:
    """Run ``base`` once per value of ``axis``, in order.

    ``axis`` names one config field other than ``seed``, or is a tuple of
    distinct ones; then each value is a tuple of the same length, and its
    items set those fields together. Cell i reseeds deterministically from
    (base seed, i). Cells whose configuration is invalid are returned as
    skipped, with the reason, instead of failing the whole sweep. An empty
    value list is an empty sweep.
    """
    _expect(base, ExperimentConfig, "base")
    base_seed = _check_seed(base.seed)  # only the seed: a sweep may set any other field to a valid value
    try:
        names = (axis,) if isinstance(axis, str) else tuple(axis)
        settings = [(value,) if isinstance(axis, str) else value for value in values]
    except TypeError:  # not iterable
        raise ParameterError(f"a sweep takes an axis and an iterable of values, got {axis!r} and {values!r}") from None
    if not names or any(name not in _SWEEP_FIELDS for name in names) or len(set(names)) != len(names):
        raise ParameterError(f"sweep axis must name distinct fields among {', '.join(_SWEEP_FIELDS)}; got {axis!r}")
    for setting in settings:
        if not isinstance(setting, tuple) or len(setting) != len(names):
            raise ParameterError(f"a value of sweep axis {axis!r} is a tuple of {len(names)} items, got {setting!r}")
    cells: list[SweepCell] = []
    for index, setting in enumerate(settings):
        cell_seed = derive_cell_seed(base_seed, index)
        cfg = dataclasses.replace(base, **dict(zip(names, setting)), seed=cell_seed)
        value = getattr(cfg, axis) if isinstance(axis, str) else tuple(getattr(cfg, name) for name in names)
        cell = SweepCell(axis=axis, value=value, seed=cell_seed, config=cfg.to_dict())
        try:
            cfg.validate()
        except ParameterError as exc:
            cell.skipped = str(exc)
        else:
            cell.report = run_experiment(cfg)
        cells.append(cell)
    return cells
