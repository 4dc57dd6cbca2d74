"""Every slot loop keeps its random stream, pinned to exact values.

All simulation loops start from `pricing.SlotSystem` and draw in the order
`reference_model.py` sets out: coordination and the learning curve step it
slot by slot, and the frozen-rule walks (`replay`, `run_episode`) draw the
same uniforms in blocks, one `rng.random(k)` call yielding the doubles of
k scalar draws. Coordination's main loop is the one exception: it draws
the next channel state before the traffic, because learning agents
observe it. A reordered draw moves every value below, so each is compared
with ==.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from wvsched.harness import (
    ProposedSolution,
    UniformPriceSolution,
    build_solution,
    compute_metrics,
    pds_learning_curve,
    run_episode,
)
from wvsched.scenario import preset

PINNED = [0, 1, 1, 1, 0]


@pytest.fixture(scope="module")
def independent():
    """tiny-sym with independent channels: one draw per user per channel step."""
    return replace(preset("tiny-sym"), channel_correlation="independent")


def test_coordination_stream_decomposed(independent):
    sol = ProposedSolution(independent, max_slots=20_000, eval_slots=500)
    sol.prepare(np.random.default_rng(5))
    report = sol.report
    assert report.slots_run == 799
    assert report.prices == {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.5}
    assert report.expected_usage == {(0, 0): 0.4444444444444434,
                                     (0, 1): 0.7222222222222238,
                                     (1, 0): 0.7222222222222237,
                                     (1, 1): 1.0}


def test_coordination_stream_learning(independent):
    # exploring agents draw from the same stream and observe the next state
    sol = ProposedSolution(independent, agent_kind="pds", max_slots=20_000,
                           eval_slots=500)
    sol.prepare(np.random.default_rng(5))
    report = sol.report
    assert report.slots_run == 1083
    assert report.prices == {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0,
                             (1, 1): 0.2797075478823566}
    assert report.expected_usage == {(0, 0): 0.446360153256704,
                                     (0, 1): 0.7276119402985093,
                                     (1, 0): 0.7222222222222237,
                                     (1, 1): 1.007936507936508}


def test_calibrated_clearing_prices(illustration):
    assert illustration["proposed"].prices.lam == {(0, 0): 54.3190712334803,
                                                   (1, 1): 84.26217413477612}


def test_uniform_price_simulated_usage(independent):
    uni = UniformPriceSolution(independent, usage_slots=300)
    uni.prepare(np.random.default_rng(7))
    assert uni.price == 2.29791259765625
    assert uni.result.usage_by_state == {(0, 0): 0.613488714754536,
                                         (0, 1): 0.5991318280050666,
                                         (1, 0): 0.5679740442398662,
                                         (1, 1): 0.553617157490397}
    trace = run_episode(independent, uni, 60, np.random.default_rng(8))
    assert compute_metrics(trace, independent).network_payoff == 11.849007785360358


def test_episode_streams_free_and_pinned(illustration):
    sc, sol = illustration["scenario"], illustration["proposed"]
    free = run_episode(sc, sol, 60, np.random.default_rng(9))
    assert compute_metrics(free, sc).network_payoff == 348.14737940336494
    pinned = run_episode(sc, sol, 12, np.random.default_rng(9), pinned_channels=PINNED)
    assert [r.s0[0] for r in pinned.records] == PINNED + [0] * 7
    assert compute_metrics(pinned, sc).network_payoff == 181.580931599679
    myopic = build_solution(sc, "myopic")
    myopic.prepare(np.random.default_rng(0))
    pinned = run_episode(sc, myopic, 12, np.random.default_rng(9), pinned_channels=PINNED)
    assert compute_metrics(pinned, sc).network_payoff == 164.22116326986307


def test_pds_learning_curve_stream():
    rows, _ = pds_learning_curve(preset("pds-toy"), np.array([0.2, 0.6]), 600,
                                 np.random.default_rng(13), every=200)
    assert rows == [(200, "solo", 3.111607142857143, 0.6185020558338179),
                    (400, "solo", 3.828928571428568, 0.6280845356403706),
                    (600, "solo", 3.703928571428567, 0.5941340818400009)]
