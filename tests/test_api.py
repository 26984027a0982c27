"""The package's exported names, pinned so that the public API cannot grow unnoticed,
the contract every export keeps on junk input, and the README's library example,
run as it is written."""
from __future__ import annotations

import contextlib
import io
import numbers
import re
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpc_sim
from conftest import ANY_VALUE, seeded_draws
from qpc_sim import (
    Coalition,
    ExperimentConfig,
    ParameterError,
    ProtocolParams,
    Variant,
    coalition_view,
    run_trial,
    strategy_from_id,
)
from qpc_sim.qudit import Basis

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTS = {
    "ATTACK_IDS",
    "Coalition",
    "ExperimentConfig",
    "ExperimentReport",
    "ParameterError",
    "ProtocolParams",
    "Variant",
    "allowed_coalitions",
    "analytic_abort_probability",
    "coalition_view",
    "per_decoy_detection_probability",
    "secret_support",
    "strategy_from_id",
    "tapped_checked_decoys",
    "run_experiment",
    "run_one_tp_protocol",
    "run_trial",
    "run_two_tp_protocol",
    "sweep",
}


def test_the_package_exports_exactly_the_pinned_names():
    public = {
        name
        for name, value in vars(qpc_sim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(EXPORTS) == 19
    assert public == EXPORTS


_TWO_TP = ProtocolParams(Variant.TWO_TP, 2, 5, 2, 1)
_ONE_TP = ProtocolParams(Variant.ONE_TP, 2, 5, 2, 1)
_CONFIG = ExperimentConfig("two-tp", 2, 5, 2, 1, trials=2, seed=1)
_TRANSCRIPT = run_trial(_CONFIG, 0).transcript
_COALITION = Coalition(frozenset({"TP2"}), 0)
_TAPPER = strategy_from_id("ir-random")

#: One valid call of each callable export, as its positional arguments (fresh draws each time).
#: ATTACK_IDS is the one export that is not called.
CALLS = {
    "Coalition": lambda: (frozenset({"TP2"}), 0),
    "ExperimentConfig": lambda: ("two-tp", 2, 5, 2, 1, "random", "random", "none", 2, 1, 0.0),
    "ExperimentReport": lambda: ({}, [], 0, 0, 0, 0, 0.0, 0.0, 0.0, None, {}, 0.0),
    "ParameterError": lambda: ("a message",),
    "ProtocolParams": lambda: (Variant.TWO_TP, 2, 5, 2, 1, 0.0),
    "Variant": lambda: ("two-tp",),
    "allowed_coalitions": lambda: (Variant.TWO_TP, 3, 0),
    "analytic_abort_probability": lambda: (_TAPPER, _TWO_TP),
    "coalition_view": lambda: (_TRANSCRIPT, _COALITION),
    "per_decoy_detection_probability": lambda: (_TAPPER, 5, Basis.FOURIER),
    "secret_support": lambda: (coalition_view(_TRANSCRIPT, _COALITION), _TWO_TP),
    "strategy_from_id": lambda: ("ir-random",),
    "tapped_checked_decoys": lambda: (_TAPPER, _TWO_TP),
    "run_experiment": lambda: (_CONFIG, None),
    "run_one_tp_protocol": lambda: (_ONE_TP, (0, 1), 1, _TAPPER, seeded_draws(_ONE_TP, _TAPPER, 0)),
    "run_trial": lambda: (_CONFIG, 0),
    "run_two_tp_protocol": lambda: (_TWO_TP, (0, 1), _TAPPER, seeded_draws(_TWO_TP, _TAPPER, 0)),
    "sweep": lambda: (_CONFIG, "d", (5, 7)),
}
_CASES = [(name, position) for name, args in CALLS.items() for position in range(len(args()))]

#: allowed_coalitions builds 2**(n-1) + 1 two-tp coalitions (524,289 at n=20), so its n stays small here.
_SMALL_N = ANY_VALUE.filter(lambda value: not isinstance(value, numbers.Integral) or value <= 6)


def test_the_contract_calls_every_export():
    assert set(CALLS) | {"ATTACK_IDS"} == EXPORTS


@pytest.mark.parametrize("name, position", _CASES, ids=[f"{name}-{position}" for name, position in _CASES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_export_runs_or_refuses_junk_in_each_argument(name, position, data):
    # a non-config passed to run_experiment, run_trial or sweep, a bad params, adversary or draws passed
    # to either runner, and a non-iterable sweep axis or values used to end in AttributeError or TypeError
    args = list(CALLS[name]())
    args[position] = data.draw(_SMALL_N if (name, position) == ("allowed_coalitions", 1) else ANY_VALUE)
    try:
        getattr(qpc_sim, name)(*args)
    except ParameterError:
        pass
    except ValueError:
        if name != "Variant":  # calling an Enum is its lookup, which refuses with ValueError
            raise


def test_the_readme_library_example_prints_the_ranking_it_documents():
    [example] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue() == "((1,), (0,), (2,))\n"
