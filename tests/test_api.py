"""The package's exported names, pinned so that the public API cannot grow unnoticed."""
from __future__ import annotations

import types

import qpc_sim

EXPORTS = {
    "ATTACK_IDS",
    "Basis",
    "CSV_COLUMNS",
    "ClassicalBus",
    "Coalition",
    "ComparisonOutcome",
    "ConfigError",
    "DecoySpec",
    "ExperimentConfig",
    "ExperimentReport",
    "OUTSIDER",
    "PUBLIC",
    "ParameterError",
    "ProtocolParams",
    "QuantumLink",
    "Transcript",
    "TransmissionError",
    "TransmissionSequence",
    "Variant",
    "allowed_coalitions",
    "analytic_abort_probability",
    "build_transmission",
    "coalition_view",
    "derive_cell_seed",
    "derive_rng",
    "encode_secret",
    "pad_sum_range",
    "per_decoy_detection_probability",
    "rank_descending",
    "run_experiment",
    "run_one_tp_protocol",
    "run_trial",
    "run_two_tp_protocol",
    "secret_support",
    "strategy_from_id",
    "sweep",
    "tapped_checked_decoys",
    "tp_compute_result",
    "tp_prepare_carriers",
    "transmit",
    "two_phase_disclosure",
}


def test_the_package_exports_exactly_the_pinned_names():
    public = {
        name
        for name, value in vars(qpc_sim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(EXPORTS) == 41
    assert public == EXPORTS
