"""Outside-in tracer: times calls into each qpc_sim layer without editing it.

Every wrapper is installed on the name *where the caller looks it up*:
``protocol.py`` binds ``measure`` at import, so patching ``qpc_sim.qudit.measure``
would record nothing; the tracer patches ``qpc_sim.protocol.measure`` instead.
Spans are kept in memory (one self time and one duration per call) and only
summarised when the traced run ends. A span's self time is its duration minus
the durations of the spans it directly encloses, so the self times of all
spans add up to the durations of the root spans (the traced total).
"""
from __future__ import annotations

import statistics
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable

from qpc_sim import adversary, cli, harness, protocol, qudit
from qpc_sim.adversary import AttackStrategy
from qpc_sim.channel import ClassicalBus, Transcript
from qpc_sim.qudit import Basis

FOURIER = "qudit.measure_fourier"
COMPUTATIONAL = "qudit.measure_computational"
TRIAL = "harness.run_trial"
FOLD = "harness.fold"


class Tracer:
    """Span store plus the patch list that feeds it; ``install``/``uninstall`` bracket a traced run."""

    def __init__(self) -> None:
        self.self_s: dict[str, array] = {}
        self.duration_s: dict[str, array] = {}
        self.per_unit_s: dict[str, array] = {}
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self._stack: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(
        self,
        name: str | Callable[[tuple], str],
        fn: Callable,
        count: Callable[[tuple, dict], None] | None = None,
        units: Callable[[tuple], int] | None = None,
    ) -> Callable:
        """Span around ``fn``. ``name`` may pick the span name from the call's
        arguments, ``count`` bumps boundary counters, and ``units`` divides the
        self time for the per-unit median (e.g. per trial of an experiment)."""
        stack = self._stack

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            if count is not None:
                count(args, kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                own = duration - stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    self.root_s += duration
                self._record(span, duration, own, own / units(args) if units else own)

        return traced

    def _record(self, span: str, duration: float, own: float, per_unit: float) -> None:
        if span not in self.self_s:
            self.self_s[span] = array("d")
            self.duration_s[span] = array("d")
            self.per_unit_s[span] = array("d")
        self.self_s[span].append(own)
        self.duration_s[span].append(duration)
        self.per_unit_s[span].append(per_unit)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: object, attr: str, name, count=None, units=None) -> None:
        original = vars(owner)[attr]
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, count, units))

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        counts = self.counts

        def measure_name(args: tuple) -> str:
            return FOURIER if args[1] is Basis.FOURIER else COMPUTATIONAL

        def count_measure(args: tuple, kwargs: dict) -> None:
            if args[1] is Basis.FOURIER:
                # computed, not measured: one d x d complex128 matrix read plus its conj() copy
                counts["fourier_bytes"] += 2 * 16 * args[0].dim ** 2

        def count_prepared(args: tuple, kwargs: dict) -> None:
            counts["decoys_prepared"] += args[1]

        def count_checked(args: tuple, kwargs: dict) -> None:
            kind = args[2] if len(args) > 2 else kwargs.get("kind")
            if kind == "decoy_check":
                counts["decoys_checked"] += kwargs["checked"]

        for module in (protocol, adversary):
            self._patch(module, "measure", measure_name, count=count_measure)
        self._patch(protocol, "basis_state", "qudit.basis_state")
        self._patch(protocol, "apply_shift", "qudit.apply_shift")
        self._patch(protocol, "build_transmission", "protocol.build_transmission", count=count_prepared)
        self._patch(protocol, "transmit", "channel.transmit")
        self._patch(Transcript, "record", "channel.record", count=count_checked)
        self._patch(Transcript, "events", "channel.events")
        self._patch(ClassicalBus, "broadcast", "channel.broadcast")
        self._patch(AttackStrategy, "tap", "adversary.tap")
        self._patch(harness, "run_two_tp_protocol", "protocol.run")
        self._patch(harness, "run_one_tp_protocol", "protocol.run")
        self._patch(harness, "_run_trial", TRIAL)
        # sweep() reaches run_experiment through harness, the CLI through its own import
        self._patch(harness, "run_experiment", FOLD, units=lambda args: args[0].trials)
        self._patch(cli, "run_experiment", FOLD, units=lambda args: args[0].trials)
        self._patch(cli, "sweep", "harness.sweep")
        self._patch(cli, "main", "cli.main")
        self._patch(adversary, "coalition_view", "adversary.coalition_view")
        self._patch(adversary, "secret_support", "adversary.secret_support")

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- summary -----------------------------------------------------------

    def total_self_s(self) -> float:
        return sum(sum(values) for values in self.self_s.values())

    def _median_us(self, span: str, series: dict[str, array] | None = None) -> float | None:
        values = (series or self.per_unit_s).get(span)
        return statistics.median(values) * 1e6 if values else None

    def _calls(self, span: str, trials: int) -> float:
        return len(self.self_s.get(span, ())) / trials

    def _share(self, span: str) -> float:
        return sum(self.self_s.get(span, ())) / self.root_s if self.root_s else 0.0

    def summary(self) -> dict[str, float | None]:
        """Per-layer metrics, named as in README.md; ``None`` where a span never fired."""
        trials = len(self.self_s.get(TRIAL, ())) or 1
        out: dict[str, float | None] = {}
        for layer in (FOURIER, COMPUTATIONAL, "qudit.basis_state", "channel.record", "channel.events",
                      "adversary.tap", "adversary.coalition_view", "adversary.secret_support"):
            out[f"{layer}.calls"] = self._calls(layer, trials)
            out[f"{layer}.us"] = self._median_us(layer)
            out[f"{layer}.share"] = self._share(layer)
        fourier_calls = len(self.self_s.get(FOURIER, ()))
        out[f"{FOURIER}.bytes"] = self.counts["fourier_bytes"] / fourier_calls if fourier_calls else None
        out["qudit.apply_shift.us"] = self._median_us("qudit.apply_shift")
        for layer in ("channel.transmit", "protocol.run", "protocol.build_transmission", FOLD):
            out[f"{layer}.us"] = self._median_us(layer)
            out[f"{layer}.share"] = self._share(layer)
        out["channel.broadcast.calls"] = self._calls("channel.broadcast", trials)
        out["channel.broadcast.us"] = self._median_us("channel.broadcast")
        prepared = self.counts["decoys_prepared"]
        out["protocol.checked_per_prepared"] = self.counts["decoys_checked"] / prepared if prepared else None
        out[f"{TRIAL}.us"] = self._median_us(TRIAL, self.duration_s)
        main = self.self_s.get("cli.main")
        out["cli.self_s"] = statistics.median(main) if main else None
        return out


def cold_fourier_seconds(run: Callable[[], object]) -> float:
    """Time spent building ``fourier_matrix`` entries (cache misses) while ``run()`` executes.

    ``qudit.basis_state`` and ``qudit.measure`` look ``fourier_matrix`` up in
    qudit's own namespace, so the wrapper sees every call.
    """
    original = vars(qudit)["fourier_matrix"]
    info = getattr(original, "cache_info", None)
    spent = 0.0

    def timed(d):
        nonlocal spent
        misses = info().misses if info else None
        start = perf_counter()
        try:
            return original(d)
        finally:
            if info is None or info().misses != misses:
                spent += perf_counter() - start

    qudit.fourier_matrix = timed
    try:
        run()
    finally:
        qudit.fourier_matrix = original
    return spent
