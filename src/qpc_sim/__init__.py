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
from .harness import ExperimentConfig, ExperimentReport, run_experiment, run_trial, sweep
from .protocol import ProtocolParams, Variant, run_one_tp_protocol, run_two_tp_protocol
from .qudit import ParameterError

__version__ = "0.1.0"
