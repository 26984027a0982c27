"""Exact Monte-Carlo simulator for multi-party private comparison over
d-level single-particle states, with pluggable eavesdropping strategies.
"""
from .adversary import (
    ATTACK_IDS,
    Coalition,
    allowed_coalitions,
    analytic_abort_probability,
    coalition_view,
    per_decoy_detection_probability,
    secret_support,
    strategy_from_id,
    tapped_checked_decoys,
)
from .channel import (
    OUTSIDER,
    PUBLIC,
    ClassicalBus,
    QuantumLink,
    Transcript,
    TransmissionError,
    TransmissionSequence,
    transmit,
)
from .harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    derive_cell_seed,
    derive_rng,
    run_experiment,
    run_trial,
    sweep,
)
from .protocol import (
    ComparisonOutcome,
    DecoySpec,
    ProtocolParams,
    Variant,
    build_transmission,
    encode_secret,
    pad_sum_range,
    rank_descending,
    run_one_tp_protocol,
    run_two_tp_protocol,
    tp_compute_result,
    tp_prepare_carriers,
    two_phase_disclosure,
)
from .qudit import (
    Basis,
    ParameterError,
    QuditState,
    apply_shift,
    basis_state,
    fourier_matrix,
    iqft,
    measure,
    overlap,
    qft,
)

__version__ = "0.1.0"
