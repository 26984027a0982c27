"""The package's exported names, pinned so that the public API cannot grow unnoticed,
and the README's library example, run as it is written."""
from __future__ import annotations

import contextlib
import io
import re
import types
from pathlib import Path

import qpc_sim

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


def test_the_readme_library_example_prints_the_ranking_it_documents():
    [example] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue() == "((1,), (0,), (2,))\n"
