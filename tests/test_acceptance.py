"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints exactly one
``criterion N (...): PASS/FAIL`` line (run with ``pytest -v -s`` to see them
all), then asserts. Statistical criteria use fixed seeds, so reruns are
deterministic.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy import stats

from conftest import ranking_oracle
from qpc_sim import (
    Basis,
    Coalition,
    ExperimentConfig,
    ProtocolParams,
    QuditState,
    Variant,
    apply_shift,
    basis_state,
    coalition_view,
    fourier_matrix,
    measure,
    overlap,
    per_decoy_detection_probability,
    qft,
    run_experiment,
    run_one_tp_protocol,
    run_trial,
    run_two_tp_protocol,
    secret_support,
    strategy_from_id,
)

CRIT1 = ExperimentConfig(variant="two-tp", n=5, d=13, r=5, l=8, trials=1000, seed=101)
CRIT2 = ExperimentConfig(variant="one-tp", n=5, d=17, r=5, l=8, trials=1000, seed=202)


def _report(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({description}): {status}{suffix}")
    assert passed, f"criterion {num} ({description}) failed{suffix}"


def test_criterion_01_honest_correctness_two_tp():
    rep = run_experiment(CRIT1)
    passed = rep.n_correct == 1000 and rep.n_aborted == 0 and rep.wall_clock_s < 10.0
    _report(
        1,
        "honest two-tp ranking, 1000 trials",
        passed,
        f"correct={rep.n_correct}/1000 aborts={rep.n_aborted} wall={rep.wall_clock_s:.2f}s",
    )


def test_criterion_02_honest_correctness_one_tp():
    rep = run_experiment(CRIT2)
    passed = rep.n_correct == 1000 and rep.n_aborted == 0
    _report(
        2,
        "honest one-tp ranking, 1000 trials",
        passed,
        f"correct={rep.n_correct}/1000 aborts={rep.n_aborted}",
    )


def test_criterion_03_score_identity():
    """Every trial's scores are exactly run-constant + secret (+ shared key)."""
    failures = 0
    for config in (CRIT1, CRIT2):
        for t in range(config.trials):
            trial = run_trial(config, t)
            [prep] = [e for e in trial.transcript.events() if e["kind"] == "carrier_prep"]
            key = trial.shared_key or 0
            expected = tuple(prep["pad_sum"] + s + key for s in trial.secrets)
            failures += trial.outcome.scores != expected
    _report(3, "score identity on every trial", failures == 0, f"failures={failures}/2000")


def test_criterion_04_outsider_detection_statistics():
    cfg = ExperimentConfig(
        variant="two-tp", n=2, d=4, r=2, l=32, attack="ir-random", trials=10_000, seed=404
    )
    rep = run_experiment(cfg)
    checked = sum(rep.decoy_stats[s]["checked"] for s in ("step3", "step5", "step6"))
    mismatched = sum(rep.decoy_stats[s]["mismatched"] for s in ("step3", "step5", "step6"))
    freq = mismatched / checked
    p = per_decoy_detection_probability(strategy_from_id("ir-random"), 4)  # 3/8
    ok_freq = abs(freq - p) <= 0.01

    # abort rate against the 32-decoy per-transmission composition ...
    q = 1 - (1 - p) ** 32
    ok_abort = abs(rep.abort_rate - q) <= 3 * math.sqrt(q * (1 - q) / cfg.trials)
    # ... and against the run-level closed form over all tapped checked decoys
    ok_run = abs(rep.abort_rate - rep.analytic_abort) <= 3 * math.sqrt(
        rep.analytic_abort * (1 - rep.analytic_abort) / cfg.trials
    ) + 1e-12
    _report(
        4,
        "outsider intercept-resend detection",
        ok_freq and ok_abort and ok_run,
        f"per-decoy={freq:.4f} (target {p}) abort={rep.abort_rate:.4f}",
    )


def test_criterion_05_preparing_tp_insider_statistics():
    cfg = ExperimentConfig(
        variant="two-tp", n=2, d=4, r=2, l=4, attack="tp1-mr", trials=10_000, seed=505
    )
    rep = run_experiment(cfg)
    s3, s5, s6 = (rep.decoy_stats[s] for s in ("step3", "step5", "step6"))
    freq5 = s5["mismatched"] / s5["checked"]
    expected = per_decoy_detection_probability(strategy_from_id("tp1-mr"), 4, Basis.FOURIER)  # 3/4
    passed = (
        abs(freq5 - expected) <= 0.01
        and s6["checked"] > 0
        and s6["mismatched"] == 0  # computational decoys are untouched by a computational tap
        and s3["mismatched"] == 0  # the first hop is not tapped at all
    )
    _report(
        5,
        "preparing-TP tap: Fourier decoys flag it, computational ones do not",
        passed,
        f"fourier={freq5:.4f} (target {expected}) computational_mismatches={s6['mismatched']}",
    )


def test_criterion_06_measuring_tp_insider_statistics():
    cfg = ExperimentConfig(
        variant="two-tp", n=2, d=4, r=2, l=8, attack="tp2-mr", trials=10_000, seed=606
    )
    rep = run_experiment(cfg)
    s3 = rep.decoy_stats["step3"]
    freq3 = s3["mismatched"] / s3["checked"]
    p = per_decoy_detection_probability(strategy_from_id("tp2-mr"), 4)  # 3/8 over uniform decoys
    tol = 3 * math.sqrt(p * (1 - p) / s3["checked"])
    untouched = rep.decoy_stats["step5"]["mismatched"] == rep.decoy_stats["step6"]["mismatched"] == 0
    passed = abs(freq3 - p) <= tol and untouched
    _report(
        6,
        "measuring-TP tap caught by the first-hop check",
        passed,
        f"step3={freq3:.4f} (target {p} within {tol:.4f})",
    )


def _fixed_seed_views(secrets):
    params = ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8)
    transcript, _ = run_two_tp_protocol(params, secrets, None, np.random.default_rng(777))
    def canon(events):
        return json.dumps(events, sort_keys=True, separators=(",", ":"))
    def strip_ordering(events):
        return [
            e
            for e in events
            if not (e["kind"] == "classical" and e["message"]["kind"] == "ordering_announcement")
        ]
    tp1 = transcript.view("TP1")
    pub = transcript.view()
    ordering = [e["message"] for e in pub if e["kind"] == "classical" and e["message"]["kind"] == "ordering_announcement"]
    return {
        "tp1_full": canon(tp1),
        "tp1_stripped": canon(strip_ordering(tp1)),
        "pub_stripped": canon(strip_ordering(pub)),
        "ordering": canon(ordering),
    }


def test_criterion_07_view_independence():
    same_a = _fixed_seed_views((2, 4, 1))
    same_b = _fixed_seed_views((1, 3, 0))  # same ranking, different values
    other = _fixed_seed_views((0, 2, 4))  # reversed ranking

    identical_ranking_ok = (
        same_a["tp1_full"] == same_b["tp1_full"]
        and same_a["pub_stripped"] == same_b["pub_stripped"]
        and same_a["ordering"] == same_b["ordering"]
    )
    # with any secrets, everything but the announced ordering is unchanged
    stripped_ok = (
        same_a["tp1_stripped"] == other["tp1_stripped"]
        and same_a["pub_stripped"] == other["pub_stripped"]
        and same_a["ordering"] != other["ordering"]
    )
    _report(
        7,
        "views depend on the secrets only through the announced ordering",
        identical_ranking_ok and stripped_ok,
    )


def test_criterion_08_support_soundness():
    params = ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8)
    full = frozenset(range(5))
    runs = 0
    all_full = True
    truth_contained = True
    seeder = np.random.default_rng(808)
    for _ in range(25):
        secrets = tuple(int(s) for s in seeder.integers(0, 5, size=3))
        transcript, _ = run_two_tp_protocol(params, secrets, None, np.random.default_rng(int(seeder.integers(2**32))))
        runs += 1
        for target in range(3):
            others = frozenset({f"P{i + 1}" for i in range(3) if i != target})
            for members in (frozenset({"TP1"}), others):
                view = coalition_view(transcript, Coalition(members, target))
                support = secret_support(view, params).candidates
                all_full &= support == full
                truth_contained &= secrets[target] in support
    _report(
        8,
        "preparing TP and n-1 parties see full secret support",
        all_full and truth_contained,
        f"runs={runs}, coalitions per run=6",
    )


def test_criterion_09_engine_invariants():
    tol = 1e-9
    exact_ok = True
    min_p = 1.0
    for d in range(2, 17):
        comp = [basis_state(d, Basis.COMPUTATIONAL, j) for j in range(d)]
        four = [basis_state(d, Basis.FOURIER, j) for j in range(d)]
        for j in range(d):
            for k in range(d):
                want = 1.0 if j == k else 0.0
                exact_ok &= abs(overlap(comp[j], comp[k]) - want) < tol
                exact_ok &= abs(overlap(four[j], four[k]) - want) < tol
                exact_ok &= abs(overlap(comp[j], four[k]) - 1.0 / d) < tol  # mutual unbiasedness

        rng = np.random.default_rng(d)
        for _ in range(5):
            amps = rng.normal(size=d) + 1j * rng.normal(size=d)
            state = QuditState(amps / np.linalg.norm(amps))
            exact_ok &= abs(np.linalg.norm(qft(state).amplitudes) - 1.0) < tol  # unitarity
            a, b = int(rng.integers(0, d)), int(rng.integers(0, d))
            lhs = apply_shift(apply_shift(state, a), b)
            rhs = apply_shift(state, (a + b) % d)
            exact_ok &= abs(overlap(lhs, rhs) - 1.0) < tol  # shift group law

        for j in range(d):
            exact_ok &= abs(overlap(qft(comp[j]), four[j]) - 1.0) < tol  # transform matches the basis
        exact_ok &= bool(np.allclose(fourier_matrix(d).conj().T @ fourier_matrix(d), np.eye(d), atol=tol))

        # measurement statistics: a computational state measured in the Fourier
        # basis must look uniform over all d outcomes
        counts = np.zeros(d, dtype=int)
        mrng = np.random.default_rng(9000 + d)
        probe = comp[d // 2]
        for _ in range(20_000):
            counts[measure(probe, Basis.FOURIER, mrng).value] += 1
        min_p = min(min_p, stats.chisquare(counts).pvalue)

    passed = exact_ok and min_p > 0.001
    _report(
        9,
        "engine invariants for d in 2..16",
        passed,
        f"min chi-square p={min_p:.4f}",
    )


def test_criterion_10_exhaustive_small_instances():
    runs = 0
    wrong = 0
    seed = itertools.count(1)
    for n in (2, 3):
        for r in (1, 2, 3, 4):
            d2 = max(2, 2 * r - 1)
            params2 = ProtocolParams(Variant.TWO_TP, n=n, d=d2, r=r, l=2)
            for secrets in itertools.product(range(r), repeat=n):
                _, outcome = run_two_tp_protocol(params2, secrets, None, np.random.default_rng(next(seed)))
                runs += 1
                wrong += not (outcome.completed and outcome.ranking == ranking_oracle(secrets))

            d1 = 3 * r - 1
            params1 = ProtocolParams(Variant.ONE_TP, n=n, d=d1, r=r, l=2)
            for secrets in itertools.product(range(r), repeat=n):
                for key in range(r):
                    _, outcome = run_one_tp_protocol(params1, secrets, key, None, np.random.default_rng(next(seed)))
                    runs += 1
                    wrong += not (outcome.completed and outcome.ranking == ranking_oracle(secrets))
    _report(
        10,
        "exhaustive minimum-dimension sweep matches the sort oracle",
        wrong == 0 and runs == 584,
        f"runs={runs} wrong={wrong}",
    )
