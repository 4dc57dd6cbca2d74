from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DriftValueTable, drift_objective, energy_only_payoff, raw_pds_key,
                      shared_view)
from wvsched.baselines import (
    lyapunov_action,
    myopic_static_shares,
    scale_up_to_budget,
    uniform_price_solve,
)
from wvsched.learning import pds_greedy_action
from wvsched.mdp import TrafficLayout
from wvsched.model import DataUnitSpec, GopTemplate, ModelError, ScheduleAction
from wvsched.scenario import preset

EXAMPLES = {"drift_impact_blind": 1200}


def du(i, q, d, size, parents=(), name=None):
    return DataUnitSpec(i, name or f"DU{i}", q, d, ((size, 1.0),), tuple(parents))


# ---------------------------------------------------------------------------
# myopic static shares
# ---------------------------------------------------------------------------

def test_near_identical_users_split_evenly():
    sc = preset("illustration-2user")
    shares = myopic_static_shares(sc.templates)
    assert shares == pytest.approx([0.5, 0.5])


def test_single_user_gets_everything():
    tpl = GopTemplate([du(0, 3.0, 0, 10)], 1, 1)
    assert myopic_static_shares([tpl]) == pytest.approx([1.0])


def test_impact_proportional_split():
    heavy = GopTemplate([du(0, 4.0, 0, 10)], 1, 1)   # total impact 40
    light = GopTemplate([du(0, 2.0, 0, 10)], 1, 1)   # total impact 20
    shares = myopic_static_shares([heavy, light])
    assert shares == pytest.approx([2 / 3, 1 / 3])


# ---------------------------------------------------------------------------
# drift scheduling
# ---------------------------------------------------------------------------

def test_quadratic_drift_term_arithmetic():
    # backlog 3, send 1, no arrivals: (3-1)^2 - 3^2 = -5
    drift = (3 - 1 + 0) ** 2 - 3 ** 2
    assert drift == -5
    # the objective's continuation matches the movable part of that drift
    j1 = drift_objective(3, 1, 0.0, price=0.0, beta=0.0, gain_to_noise=1.4, delta=1.0)
    assert j1 == pytest.approx(-(3 - 1) ** 2)


def test_empty_queue_sends_nothing():
    tpl = GopTemplate([du(0, 3.0, 0, 5)], 1, 1)
    act = lyapunov_action(tpl.context(0), (0,), 0.0, 0.0, 1.4, 0.9, 1.0)
    assert act.sends == (0,)


def test_drift_drains_queue_when_free():
    tpl = GopTemplate([du(0, 3.0, 0, 5)], 1, 2)
    ctx = tpl.context(0)
    act = lyapunov_action(ctx, (5, 5), 0.0, 0.0, 1.4, 0.9, 2.0)
    assert act.total == 10


def test_drift_equals_pds_greedy_under_substituted_table():
    sc = preset("illustration-2user")
    tpl = sc.users[0].template
    lay = TrafficLayout(tpl)
    rng = np.random.default_rng(5)
    for _ in range(300):
        phase = int(rng.integers(tpl.period))
        ctx = tpl.context(phase)
        buf = tuple(int(rng.integers(0, 4)) for _ in ctx.slots)
        lam = float(rng.uniform(0, 5))
        beta = float(rng.choice([0.0, 0.4]))
        arrivals = float(rng.uniform(0, 4))
        table = DriftValueTable(arrivals)
        got, _ = pds_greedy_action(lay, phase, buf, 0, table, lam, beta, 1.4,
                                   0.95, payoff_fn=energy_only_payoff(beta, 1.4),
                                   key_fn=raw_pds_key)
        want = lyapunov_action(ctx, buf, lam, beta, 1.4, 0.95, arrivals)
        assert got.sends == want.sends


@settings(max_examples=EXAMPLES["drift_impact_blind"], deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
       st.floats(0.0, 5.0), st.floats(0.0, 3.0),
       st.permutations([9.0, 5.0, 2.0]))
def test_drift_ignores_impact_permutations(buf, lam, arrivals, impacts):
    # same deadlines and sizes, permuted distortion impacts: identical action
    base = [du(0, 9.0, 0, 4), du(1, 5.0, 1, 4), du(2, 2.0, 1, 4)]
    perm = [du(0, impacts[0], 0, 4), du(1, impacts[1], 1, 4), du(2, impacts[2], 1, 4)]
    # keep the impact ordering DAG-legal by dropping dependencies
    a = GopTemplate(base, 2, 2)
    b = GopTemplate(perm, 2, 2)
    act_a = lyapunov_action(a.context(0), buf, lam, 0.0, 1.4, 0.9, arrivals)
    act_b = lyapunov_action(b.context(0), buf, lam, 0.0, 1.4, 0.9, arrivals)
    assert act_a.sends == act_b.sends


def test_drift_ignores_deadline_permutations():
    # swapping the two later deadlines changes nothing state-for-state
    a = GopTemplate([du(0, 5.0, 0, 4), du(1, 3.0, 1, 4), du(2, 3.0, 2, 4)], 3, 3)
    b = GopTemplate([du(0, 5.0, 0, 4), du(1, 3.0, 2, 4), du(2, 3.0, 1, 4)], 3, 3)
    for buf in ((4, 4, 4), (2, 0, 3), (0, 1, 1)):
        act_a = lyapunov_action(a.context(0), buf, 1.0, 0.0, 1.4, 0.9, 2.0)
        act_b = lyapunov_action(b.context(0), buf, 1.0, 0.0, 1.4, 0.9, 2.0)
        assert act_a.sends == act_b.sends


# ---------------------------------------------------------------------------
# uniform price
# ---------------------------------------------------------------------------

def test_uniform_price_zero_when_never_binding():
    def estimate(lam):
        return {(0, 0): 0.4, (1, 1): 0.8}

    res = uniform_price_solve(estimate, [(0, 0), (1, 1)], 1.0)
    assert res.price == 0.0


def test_uniform_price_bisection_finds_threshold():
    # demand 1.4 below price 2, then 0.9: smallest feasible price is 2
    def estimate(lam):
        return {(1, 1): 1.4 if lam < 2.0 else 0.9}

    res = uniform_price_solve(estimate, [(1, 1)], 1.0, tol=1e-4)
    assert res.price == pytest.approx(2.0, abs=1e-3)
    assert res.price >= 2.0


def test_uniform_price_reports_curve_when_no_bracket():
    def estimate(lam):
        return {(1, 1): 2.0}

    with pytest.raises(ModelError, match="curve"):
        uniform_price_solve(estimate, [(1, 1)], 1.0, max_doublings=6)


@pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan"), float("inf")])
def test_uniform_price_rejects_a_tolerance_outside_zero_to_inf(tol):
    """A zero or negative tolerance would bisect forever once a midpoint
    rounds to an end, and a NaN one would return the first bracket."""
    calls = []

    def estimate(lam):
        calls.append(lam)
        return {(1, 1): 1.5 / (1.0 + lam)}

    with pytest.raises(ModelError, match="tol"):
        uniform_price_solve(estimate, [(1, 1)], 1.0, tol=tol)
    assert calls == []


def test_uniform_price_bisection_stops_where_no_double_is_left():
    """A tolerance below the doubles' spacing stops once the bracket holds
    no double strictly inside, at the smallest price feasible within the
    usage slack of 1e-12."""
    res = uniform_price_solve(lambda lam: {(1, 1): 1.5 / (1.0 + lam)}, [(1, 1)], 1.0,
                              tol=1e-300)
    assert res.price == pytest.approx(0.5, abs=1e-11)
    assert np.nextafter(res.price, 0.0) == max(lam for lam, w in res.curve if w > 1.0 + 1e-12)
    assert res.iterations < 100


def test_inflate_action_adds_high_impact_first():
    tpl = GopTemplate([du(0, 4.0, 0, 6, name="I"),
                       du(1, 2.0, 1, 6, parents=[0], name="P")], 2, 2)
    ctx = tpl.context(0)
    # one user requesting 4 packets at rate 4 fills the band 1.75 (99/4)
    # times over: 7 (99) packets, capped by the buffer (6, 6)
    (grown,) = scale_up_to_budget([ctx], [ScheduleAction((2, 2))], [(6, 6)], [4.0],
                                  1.0, 1.75)
    assert grown.sends == (5, 2)
    (capped,) = scale_up_to_budget([ctx], [ScheduleAction((2, 2))], [(6, 6)], [4.0],
                                   1.0, 99 / 4)
    assert capped.sends == (6, 6)


def test_scale_up_is_buffer_capped_and_proportional():
    tpl = GopTemplate([du(0, 4.0, 0, 10)], 1, 1)
    ctx = tpl.context(0)
    acts = [ScheduleAction((2,)), ScheduleAction((2,))]
    out = scale_up_to_budget([ctx, ctx], acts, [(10,), (10,)], [10.0, 10.0],
                             1.0, 1.0)
    # gamma = 1.0 / 0.4 = 2.5 -> budget 5 packets each
    assert [a.total for a in out] == [5, 5]


def test_uniform_price_exceeds_nonbinding_state_prices(priced_results):
    sol = priced_results["solution"]
    uni = priced_results["uniform"]
    good = (0, 0)
    assert uni.price > sol.prices.get(good)
    assert sol.prices.get(good) == 0.0


def test_uniform_price_usage_is_conservative_before_scaling(priced_results):
    usage = priced_results["uniform"].result.usage_by_state
    bw = priced_results["scenario"].bandwidth
    assert all(u <= bw + 1e-9 for u in usage.values())
    assert usage[(0, 0)] < bw  # slack state strictly under-requested


def test_proposed_beats_uniform_on_binding_fixture(priced_results):
    assert priced_results["margin"] >= 0.01


# ---------------------------------------------------------------------------
# myopic equivalence with a zero-discount priced solve
# ---------------------------------------------------------------------------

def test_edf_matches_myopic_priced_greedy_at_du_boundary_cuts():
    from wvsched.mdp import UserMdp
    from wvsched.model import ChannelModel
    from wvsched.scheduling import edf_rank, fill

    # DAG-consistent impacts align EDF order with value order; with the
    # capacity cutting exactly at a DU boundary, the static-share shadow
    # price (the first excluded DU's impact) reproduces the EDF fill.
    dus = [du(0, 5.0, 0, 2, name="A"), du(1, 3.0, 0, 2, name="B"),
           du(2, 1.0, 0, 2, name="C")]
    tpl = GopTemplate(dus, 1, 1)
    chan = ChannelModel(["only"], [1.4], [10.0], [[1.0]])
    mdp = UserMdp(tpl, shared_view(chan, 1), 0.0, 0.0, 1.0, 0.0)
    capacity = 4                      # cuts after DU B
    shadow = 1.0                      # impact of the first excluded DU
    table = mdp.solve(np.array([shadow]))
    buf = (2, 2, 2)
    greedy = table.action_of(0, buf, 0)
    edf = fill(buf, capacity, edf_rank(tpl.context(0)))
    assert greedy.sends == edf.sends == (2, 2, 0)
