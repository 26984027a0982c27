"""Host-speed references: fixed work timed beside the workload, to take host drift out of its times.

On a shared host the speed of the CPU the benchmark gets drifts by a quarter
or more, in phases from seconds to minutes that outlast single repeats and
whole runs, and CPU-bound code of every kind slows alike. ``reference()`` is
a fixed piece of work of the same kind as a trial: small numpy vectors
(sampling a measurement outcome) mixed with interpreter-bound list and dict
work. It is benchmark code only, so no change to qpc_sim can change its cost.

A worker times ``reference()`` right after every timed repeat, once per
``EVERY_S`` of the repeat's time. The median of those times over ``REF_S``
is the repeat's host factor ``f``: above 1 the host ran slower than nominal.
The repeat's rate times ``f`` is its rate at the nominal host speed (the
speed at which ``reference()`` takes ``REF_S``), and ``trials_per_s`` is the
median of these over the run; the raw median goes on the detail line.

Set-up time drifts as much, but it does not follow ``reference()``: most of
it is a fresh interpreter importing numpy, whose speed drifts apart from
that of interpreted code. So run.py times
``start_reference()``, a fresh interpreter that imports numpy and exits,
right before it spawns each worker, and states that worker's set-up at the
nominal start-up speed (the speed at which it takes ``START_S``).
"""
from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter
from typing import Sequence

import numpy as np

#: Nominal time of one ``reference()`` call, in seconds.
REF_S = 0.008
#: One reference call per this many seconds of timed work (about 3% more time).
EVERY_S = 0.25
#: Nominal time of one ``start_reference()`` call, in seconds.
START_S = 0.16

_DIM = 16
_ROUNDS = 600


def reference() -> float:
    """The fixed reference work; returns a checksum so none of it can be skipped."""
    rng = np.random.default_rng(12345)
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(_ROUNDS):
        amplitudes = rng.standard_normal(_DIM) + 1j * rng.standard_normal(_DIM)
        probabilities = np.abs(amplitudes) ** 2
        probabilities /= probabilities.sum()
        acc += float(probabilities[i % _DIM])
        counts[i % 37] = counts.get(i % 37, 0) + i
        acc += sum([j * j for j in range(40)]) % 7
    return acc


def time_reference() -> float:
    """Wall time of one ``reference()`` call."""
    start = perf_counter()
    reference()
    return perf_counter() - start


def calls_after(repeat_s: float) -> int:
    """Reference calls to make after a repeat that took ``repeat_s``: at least one."""
    return max(1, round(repeat_s / EVERY_S))


def host_factor(reference_s: Sequence[float]) -> float:
    """Median reference time over the nominal one: how much slower than nominal the host ran."""
    return statistics.median(reference_s) / REF_S


def start_reference() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits: the bulk of every worker's set-up."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return perf_counter() - start


def scaled_setup(setup_s: float, start_reference_s: float) -> float:
    """A worker's set-up time at nominal start-up speed, by the start-up reference timed just before it."""
    return setup_s * START_S / start_reference_s
