"""Each output check accepts real output and rejects a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from wvsched.harness import DecomposedAgent, build_solution, build_views, run_episode  # noqa: E402
from wvsched.scenario import preset  # noqa: E402


@pytest.fixture(scope="module")
def episode():
    sc = preset("illustration-2user")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    return sc, run_episode(sc, sol, 12, np.random.default_rng(5))


def _first_send(trace):
    for t, rec in enumerate(trace.records):
        for i, ur in enumerate(rec.users):
            for j, y in enumerate(ur.sent):
                if y > 0:
                    return t, i, j
    raise AssertionError("episode sent nothing")


def _errors(trace, sc):
    return " | ".join(checks.audit_trace(trace, sc).errors)


def test_audit_accepts_real_trace(episode):
    sc, trace = episode
    audit = checks.audit_trace(trace, sc)
    assert audit.errors == []
    assert audit.late_i_loss >= 0 and audit.network_payoff > 0


def test_audit_rejects_a_packet_removed_from_the_sends(episode):
    sc, trace = episode
    bad = copy.deepcopy(trace)
    t, i, j = _first_send(bad)
    ur = bad.records[t].users[i]
    ur.sent = ur.sent[:j] + (ur.sent[j] - 1,) + ur.sent[j + 1:]
    assert "library sent" in _errors(bad, sc)


def test_audit_rejects_a_packet_removed_from_a_buffer(episode):
    sc, trace = episode
    bad = copy.deepcopy(trace)
    ur = bad.records[3].users[0]
    j = max(range(len(ur.traffic)), key=lambda k: ur.traffic[k][1] - ur.sent[k])
    name, x = ur.traffic[j]
    ur.traffic[j] = (name, x - 1)
    assert _errors(bad, sc)


def test_audit_rejects_sends_beyond_the_buffer(episode):
    sc, trace = episode
    bad = copy.deepcopy(trace)
    ur = bad.records[0].users[0]
    ur.sent = (ur.traffic[0][1] + 1,) + ur.sent[1:]
    assert "sends" in _errors(bad, sc)


def test_audit_rejects_sends_beyond_the_band(episode):
    sc, trace = episode
    narrow = dataclasses.replace(sc, bandwidth=0.1)
    assert "of band" in _errors(trace, narrow)


def test_audit_rejects_a_hidden_drop(episode):
    sc, trace = episode
    bad = copy.deepcopy(trace)
    rec = next(r for r in bad.records if any(u.dropped for u in r.users))
    ur = next(u for u in rec.users if u.dropped)
    ur.dropped = {}
    assert "dropped" in _errors(bad, sc)


def test_audit_rejects_a_wrong_payoff(episode):
    sc, trace = episode
    bad = copy.deepcopy(trace)
    bad.records[2].users[1].payoff += 1.0
    assert "payoff" in _errors(bad, sc)


def test_du_tables_match_reference_and_reject_a_perturbed_entry():
    sc = preset("gop16-default")
    prices = {(0, 0): 1.2, (1, 1): 1.4}
    agent = DecomposedAgent(sc.users[0], build_views(sc)[0], sc.discount)
    agent.refresh(agent.view.price_vector(prices, sc.bits_per_packet))
    assert checks.du_table_errors(agent, sc, prices, user=0) == []
    du_id = sc.users[0].template.dus[3].du_id
    agent.tables[du_id].values[2, 1, 1] += 1e-6
    errors = checks.du_table_errors(agent, sc, prices, user=0)
    assert len(errors) == 1 and f"DU {du_id}" in errors[0]


def test_scalar_checks_reject_corrupted_values():
    report = dataclasses.make_dataclass("Report", ["converged"])
    assert checks.coordination_errors("x", report(True), {(0, 0): 0.0, (1, 1): 1.0}) == []
    assert checks.coordination_errors("x", report(False), {(0, 0): 0.0})
    assert checks.coordination_errors("x", report(True), {(0, 0): -1e-9})
    assert checks.uniform_usage_errors({(0, 0): 0.9, (1, 1): 1.0}, 1.0) == []
    assert checks.uniform_usage_errors({(0, 0): 0.9, (1, 1): 1.01}, 1.0)
    assert checks.better_errors("payoff", "a", 2.0, "b", 1.0) == []
    assert checks.better_errors("payoff", "a", 1.0, "b", 1.0)
    assert checks.replay_errors({"proposed": 0, "myopic": 30}) == []
    assert checks.replay_errors({"proposed": 10, "myopic": 30})
    assert checks.replay_errors({"proposed": 0, "myopic": 0})
    assert checks.binding_price_errors({(0, 0): 0.0, (1, 1): 1.7}, (0, 0), (1, 1)) == []
    assert checks.binding_price_errors({(0, 0): 0.1, (1, 1): 1.7}, (0, 0), (1, 1))
    assert checks.binding_price_errors({(0, 0): 0.0}, (0, 0), (1, 1))
    assert checks.oracle_bound_errors(19.3, 18.1, "myopic") == []
    assert checks.oracle_bound_errors(18.0, 18.1, "myopic")


def test_speed_probe_scales_each_operation_by_its_own_probes():
    from speed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    probe.starts = [0.1 * k for k in range(20)]
    probe.samples = [2 * REFERENCE_S] * 10 + [REFERENCE_S / 2] * 10   # slow, then fast
    assert probe.scaled([(0.0, 1.0)]) == pytest.approx(0.5)            # 10 slow probes
    assert probe.scaled([(1.0, 1.5), (1.5, 2.0)]) == pytest.approx(2.0)
    assert probe.scaled([(0.0, 0.2)]) == pytest.approx(0.2 * probe.factor())
    with SpeedProbe() as live:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(live.samples) >= 5
