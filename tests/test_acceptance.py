"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Heavy preparations (coordination runs, oracles, exact evaluations) are shared
through session fixtures in conftest.py.
"""

from __future__ import annotations

import time
from itertools import product

import numpy as np
import pytest

from conftest import DriftValueTable, energy_only_payoff, raw_pds_key, shared_view
from reference_model import SlotModel
from wvsched.harness import compute_metrics, run_episode, write_replay_table
from wvsched.learning import PdsLearner, pds_greedy_action
from wvsched.baselines import lyapunov_action
from wvsched.mdp import TrafficLayout, UserMdp, ValueTable
from wvsched.model import ChannelModel, DataUnitSpec, GopTemplate, iter_actions
from wvsched.scenario import preset
from wvsched.scheduling import build_du_tables, decomposed_schedule

GOLDEN_UNIFORM_MARGIN = 0.030292414   # pinned from the first derived run
PINNED_CHANNELS = [0, 1, 1, 1, 0]


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_1_decentralized_matches_oracle(trio_results):
    """Three tiny fixtures: network utility within 1e-2 of the joint oracle."""
    details = []
    for name, data in trio_results.items():
        gap = abs(data["proposed_value"] - data["oracle"].mean_value) / abs(
            data["oracle"].mean_value)
        assert gap <= 1e-2, (name, gap)
        assert data["elapsed"] <= 60.0, (name, data["elapsed"])
        details.append(f"{name}: gap {gap:.5f} in {data['elapsed']:.1f}s")
    report(1, "; ".join(details))


def test_criterion_2_complementary_slackness(trio_results):
    """Residual |lambda0 * (E[usage] - B)| <= 1e-2 B on every priced state."""
    details = []
    for name, data in trio_results.items():
        bw = data["scenario"].bandwidth
        worst = max(data["report"].residuals.values())
        assert worst <= 1e-2 * bw, (name, data["report"].residuals)
        for s0, usage in data["report"].expected_usage.items():
            assert usage <= bw * (1 + 1e-2), (name, s0, usage)
        details.append(f"{name}: max residual {worst:.2e}")
    report(2, "; ".join(details))


def test_criterion_3_per_state_price_beats_uniform(priced_results):
    """Bad-state-only binding fixture: proposed beats the uniform price."""
    margin = priced_results["margin"]
    sol = priced_results["solution"]
    usage = sol.report.expected_usage
    bw = priced_results["scenario"].bandwidth
    # the band binds only in the bad joint state; good stays strictly slack
    assert sol.prices.get((0, 0)) == 0.0
    assert usage[(0, 0)] < 0.99 * bw
    assert usage[(1, 1)] > bw
    assert margin >= 0.01
    assert margin == pytest.approx(GOLDEN_UNIFORM_MARGIN, rel=1e-6)
    report(3, f"margin {margin:.4%} (golden {GOLDEN_UNIFORM_MARGIN:.4%}), "
              f"usage good {usage[(0, 0)]:.3f} / bad {usage[(1, 1)]:.3f}")


def test_criterion_4_decomposition_attains_joint_optimum():
    """500 random myopic instances: sequential DU scheduling is exact."""
    rng = np.random.default_rng(2024)
    chan = ChannelModel(["g", "b"], [1.4, 1.4], [6.0, 3.0],
                        [[0.7, 0.3], [0.4, 0.6]])
    view = shared_view(chan, 1)
    start = time.time()
    for trial in range(500):
        n = int(rng.integers(1, 4))
        qs = np.sort(rng.uniform(0.5, 9.0, n))[::-1]
        caps = rng.integers(1, 7, n)
        dus = []
        for i in range(n):
            parents = [i - 1] if i > 0 and rng.random() < 0.5 else []
            dus.append(DataUnitSpec(i, f"DU{i}", float(qs[i]), 0,
                                    ((int(caps[i]), 1.0),), tuple(parents)))
        tpl = GopTemplate(dus, 1, 1)
        lam = float(rng.uniform(0.0, 9.0))
        tables = build_du_tables(tpl, view, 0.0, np.array([lam, lam]))
        buf = tuple(int(rng.integers(0, c + 1)) for c in caps)
        act = decomposed_schedule(tpl.context(0), buf, 0, lam, tables, 0.0)
        got = float(np.dot(qs, act.sends)) - lam * act.total
        best = max(float(np.dot(qs, sends)) - lam * sum(sends)
                   for sends in product(*(range(x + 1) for x in buf)))
        assert got == pytest.approx(best, abs=1e-9), (trial, buf, qs, lam)
    elapsed = time.time() - start
    assert elapsed <= 10.0
    report(4, f"500 instances exact in {elapsed:.1f}s")


def test_criterion_5_pds_learning_convergence():
    """Learned post-decision values reach the planning values; the learned
    policy's payoff lands within 2% of the planning policy's."""
    sc = preset("pds-toy")
    u = sc.users[0]
    view = shared_view(u.channel, 1)
    mdp = UserMdp(u.template, view, u.beta, u.min_quality, sc.bits_per_packet,
                  sc.discount)
    price = np.array([0.2, 0.6])
    planning = mdp.solve(price, tol=1e-9)
    plan_u = mdp.pds_planning_values(planning)
    value_range = float(plan_u.max() - plan_u.min())
    lay = mdp.layout

    learner = PdsLearner(lay, view.gain, u.beta, sc.discount)
    rng = np.random.default_rng(13)
    model = SlotModel([u.template], [u.channel], rng, s0=(0,))
    slots_used, gap = None, None
    for t in range(100_000):
        phase, (h,), (buf,) = model.phase(0), model.s0, model.buffers()
        act = learner.act(phase, buf, h, float(price[h]), rng=rng)
        ((arrivals, _),) = model.run_slot([act.sends])
        learner.observe((phase, buf, h, act, arrivals, *model.buffers(), *model.s0), price)
        if (t + 1) % 10_000 == 0:
            gap = max(abs(learner.table.value((p, s, v))
                          - plan_u[lay.pds_index(p, s), v])
                      for p in range(lay.period)
                      for s in product(*(range(c + 1) for c in lay.pds_caps[p]))
                      for v in range(2))
            if gap <= 0.05 * value_range:
                slots_used = t + 1
                break
    assert slots_used is not None, f"gap {gap} vs {0.05 * value_range}"

    # learned-greedy policy, evaluated exactly against the planning policy
    policy = np.empty_like(planning.policy)
    for t_idx in range(lay.n_traffic):
        p, b = lay.decode(t_idx)
        for v in range(2):
            act, _ = pds_greedy_action(lay, p, b, v, learner.table,
                                       float(price[v]), u.beta,
                                       float(view.gain[v]), sc.discount)
            policy[t_idx, v] = mdp.ta_of(t_idx, act)
    learned_table = ValueTable(mdp, np.zeros_like(planning.values), policy, price)
    learned_pay = float(mdp.exact_policy_value(learned_table).mean())
    planning_pay = float(mdp.exact_policy_value(planning).mean())
    rel = abs(learned_pay - planning_pay) / abs(planning_pay)
    assert rel <= 0.02
    report(5, f"sup gap {gap:.4f} <= {0.05 * value_range:.4f} after "
              f"{slots_used} slots; payoff within {rel:.3%}")


def test_criterion_6_drift_framework_is_pds_special_case():
    """lyapunov_action equals the PDS greedy under the drift table, 1e4 states."""
    sc = preset("illustration-2user")
    templates = [u.template for u in sc.users]
    layouts = [TrafficLayout(t) for t in templates]
    rng = np.random.default_rng(66)
    mismatches = 0
    checked = 0
    while checked < 10_000:
        i = int(rng.integers(len(templates)))
        tpl, lay = templates[i], layouts[i]
        phase = int(rng.integers(tpl.period))
        ctx = tpl.context(phase)
        buf = tuple(int(rng.integers(0, 4)) for _ in ctx.slots)
        lam = float(rng.uniform(0.0, 5.0))
        beta = float(rng.choice([0.0, 0.2, 1.0]))
        arrivals = float(rng.uniform(0.0, 5.0))
        table = DriftValueTable(arrivals)
        got, _ = pds_greedy_action(lay, phase, buf, 0, table, lam, beta, 1.4,
                                   sc.discount,
                                   payoff_fn=energy_only_payoff(beta, 1.4),
                                   key_fn=raw_pds_key)
        want = lyapunov_action(ctx, buf, lam, beta, 1.4, sc.discount, arrivals)
        mismatches += got.sends != want.sends
        checked += 1
    assert mismatches == 0
    report(6, f"{checked} sampled states, zero mismatches")


def test_criterion_7_illustration_replay(illustration, tmp_path):
    """Pinned replay: reference packet-loss pattern for the myopic run, no
    I-frame loss after slot 1 for the proposed run, table shape as published."""
    from wvsched.harness import build_solution

    sc = illustration["scenario"]
    myopic = build_solution(sc, "myopic")
    myopic.prepare(np.random.default_rng(0))
    mtrace = run_episode(sc, myopic, 5, np.random.default_rng(1),
                         pinned_channels=PINNED_CHANNELS)
    # published myopic run: I losses in slot 1 (both users), the replayed
    # bad-channel slot 3 (user 1), and slot 5 (user 1)
    m_sched1 = [rec.users[0].sent for rec in mtrace.records]
    assert m_sched1 == [(30, 0, 0), (10, 10, 0), (20, 0, 0), (10, 10, 0),
                        (30, 0, 0)]
    assert mtrace.records[2].users[0].dropped == {"I": 20}
    assert mtrace.records[0].users[0].dropped == {"I": 10}
    assert mtrace.records[0].users[1].dropped == {"I": 10}
    myopic_late_i = compute_metrics(mtrace, sc).i_loss_after_first_slot
    assert myopic_late_i > 0

    ptrace = run_episode(sc, illustration["proposed"], 5,
                         np.random.default_rng(1),
                         pinned_channels=PINNED_CHANNELS)
    p_metrics = compute_metrics(ptrace, sc)
    assert p_metrics.i_loss_after_first_slot == 0

    import csv
    path = write_replay_table(ptrace, sc, tmp_path / "replay.csv")
    rows = list(csv.reader(open(path, encoding="utf-8")))
    assert len(rows) == 8 and all(len(r) == 6 for r in rows)
    report(7, f"myopic late I-loss {myopic_late_i} packets reproduced; "
              f"proposed late I-loss 0; 5-slot table emitted")


def _battery(sc, solutions, seeds=100, slots=140):
    means = {}
    for name, sol in solutions.items():
        vals = []
        for k in range(seeds):
            tr = run_episode(sc, sol, slots, np.random.default_rng(5000 + k))
            vals.append(compute_metrics(tr, sc).network_distortion)
        vals = np.asarray(vals)
        means[name] = (float(vals.mean()),
                       float(1.96 * vals.std(ddof=1) / np.sqrt(seeds)))
    return means


@pytest.fixture(scope="session")
def illustration_battery(illustration_suite):
    sc = illustration_suite["scenario"]
    sols = illustration_suite["solutions"]
    return _battery(sc, sols)


def test_criterion_8_solution_ordering(illustration_battery):
    """Proposed >= MU-MDP >= drift >= myopic on mean distortion utility."""
    b = illustration_battery
    order = ["proposed", "mu-mdp", "lyapunov", "myopic"]
    for hi, lo in zip(order, order[1:]):
        assert b[hi][0] >= b[lo][0], (hi, b[hi], lo, b[lo])
    # non-overlapping 95% intervals for proposed vs myopic
    assert b["proposed"][0] - b["proposed"][1] > b["myopic"][0] + b["myopic"][1]
    report(8, "; ".join(f"{n}: {b[n][0]:.1f}±{b[n][1]:.1f}" for n in order))


def test_criterion_9_simple_schedulers_keep_allocation_advantage(
        illustration_battery):
    """Proposed allocation beats the static one under EDF, FIFO, and HDF."""
    b = illustration_battery
    details = []
    for sched in ("edf", "fifo", "hdf"):
        hi, lo = b[f"proposed+{sched}"][0], b[f"myopic+{sched}"][0]
        assert hi > lo, (sched, hi, lo)
        details.append(f"{sched}: {hi:.1f} > {lo:.1f}")
    report(9, "; ".join(details))


def test_criterion_10_property_budget():
    """The property suites across modules draw at least 1e4 generated cases."""
    import tests.test_baselines as tb
    import tests.test_learning as tl
    import tests.test_mdp as tm
    import tests.test_model as tmod
    import tests.test_scheduling as ts

    total = sum(sum(m.EXAMPLES.values())
                for m in (tmod, tm, ts, tl, tb))
    assert total >= 10_000
    report(10, f"{total} generated property cases configured across modules")
