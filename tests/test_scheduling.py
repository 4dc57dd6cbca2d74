from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvsched.mdp import common_view
from wvsched.model import ChannelModel, DataUnitSpec, GopTemplate, ModelError
from wvsched.scheduling import (
    SingleDuModel,
    build_du_tables,
    decomposed_schedule,
    dependency_order_check,
    edf_schedule,
    fifo_schedule,
    hdf_schedule,
    packet_capacity,
)

EXAMPLES = {"joint_optimum": 1400, "capacity_respect": 1200}


def du(i, q, d, size, parents=(), name=None):
    return DataUnitSpec(i, name or f"DU{i}", q, d, ((size, 1.0),), tuple(parents))


def make_view():
    chan = ChannelModel(["good", "bad"], [1.4, 1.4], [6.0, 3.0],
                        [[0.7, 0.3], [0.4, 0.6]])
    return common_view(chan, 1)


def test_dependency_order_check():
    edges = [(0, 1), (1, 2)]  # I -> P -> B as slot indices
    assert dependency_order_check(edges, [0, 1, 2])
    assert not dependency_order_check([(0, 1)], [1, 0])


def test_single_du_myopic_sends_all_when_margin_positive():
    tpl = GopTemplate([du(0, 10.0, 0, 4)], 1, 1)
    tables = build_du_tables(tpl, make_view(), 0.0, np.array([3.0, 3.0]))
    ctx = tpl.context(0)
    act, order = decomposed_schedule(ctx, (4,), 0, 3.0, tables, 0.0)
    assert act.sends == (4,)
    assert order == [0]


def test_zero_margin_defers_nothing_to_send():
    tpl = GopTemplate([du(0, 2.0, 0, 4)], 1, 1)
    tables = build_du_tables(tpl, make_view(), 0.0, np.array([5.0, 5.0]))
    act, _ = decomposed_schedule(tpl.context(0), (4,), 0, 5.0, tables, 0.0)
    assert act.sends == (0,)


def test_empty_context_returns_empty_action():
    tpl = GopTemplate([du(0, 2.0, 0, 4)], 2, 1)
    ctx = tpl.context(1)
    assert len(ctx) == 0
    act, order = decomposed_schedule(ctx, (), 0, 1.0, {}, 0.9)
    assert act.sends == () and order == []


def _joint_best(impacts, buffers, lam):
    best = -1e18
    for sends in product(*(range(x + 1) for x in buffers)):
        val = sum(q * y for q, y in zip(impacts, sends)) - lam * sum(sends)
        best = max(best, val)
    return best


def test_two_du_myopic_matches_joint_brute_force():
    dus = [du(0, 7.0, 0, 3), du(1, 4.0, 0, 3)]
    tpl = GopTemplate(dus, 1, 1)
    tables = build_du_tables(tpl, make_view(), 0.0, np.array([5.0, 5.0]))
    ctx = tpl.context(0)
    act, _ = decomposed_schedule(ctx, (3, 3), 0, 5.0, tables, 0.0)
    got = sum(q * y for q, y in zip((7.0, 4.0), act.sends)) - 5.0 * act.total
    assert got == pytest.approx(_joint_best((7.0, 4.0), (3, 3), 5.0))


@settings(max_examples=EXAMPLES["joint_optimum"], deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.floats(0.0, 9.0), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9),
       st.booleans(), st.booleans())
def test_myopic_decomposition_attains_joint_optimum(n, x0, x1, x2, lam,
                                                    q0, q1, q2, dep1, dep2):
    qs = sorted([q0, q1, q2], reverse=True)[:n]
    xs = [x0, x1, x2][:n]
    dus = []
    for i in range(n):
        parents = []
        if i == 1 and dep1:
            parents = [0]
        if i == 2 and dep2:
            parents = [1] if dep1 else [0]
        dus.append(du(i, float(qs[i]), 0, max(xs[i], 1), parents))
    tpl = GopTemplate(dus, 1, 1)
    tables = build_du_tables(tpl, make_view(), 0.0, np.array([lam, lam]))
    ctx = tpl.context(0)
    act, order = decomposed_schedule(ctx, tuple(xs), 0, lam, tables, 0.0)
    got = sum(q * y for q, y in zip(qs, act.sends)) - lam * act.total
    assert got == pytest.approx(_joint_best(qs, xs, lam), abs=1e-9)
    # structural rule: ancestors are always processed first
    assert dependency_order_check(ctx.edges, order)


def test_rounds_equal_context_size():
    dus = [du(0, 5.0, 0, 2), du(1, 3.0, 1, 2, parents=[0]), du(2, 2.0, 1, 2, parents=[0])]
    tpl = GopTemplate(dus, 2, 2)
    tables = build_du_tables(tpl, make_view(), 0.9, np.array([0.5, 1.0]))
    for phase in range(2):
        ctx = tpl.context(phase)
        buf = tuple(s.du.max_size for s in ctx.slots)
        _, order = decomposed_schedule(ctx, buf, 0, 0.5, tables, 0.9)
        assert len(order) == len(ctx)
        assert dependency_order_check(ctx.edges, order)


def test_foresighted_single_du_defers_when_future_cheaper():
    # bad state prices high, good state free: a DU with a slot of life left
    # should wait for the cheap state when persistence makes that likely
    tpl = GopTemplate([du(0, 3.0, 1, 4)], 2, 2)
    chan = ChannelModel(["good", "bad"], [1.4, 1.4], [6.0, 3.0],
                        [[0.9, 0.1], [0.6, 0.4]])
    view = common_view(chan, 1)
    tables = build_du_tables(tpl, view, 0.95, np.array([0.0, 2.9]))
    ctx = tpl.context(0)   # the DU has remaining=1 here
    act_bad, _ = decomposed_schedule(ctx, (4,), 1, 2.9, tables, 0.95)
    act_good, _ = decomposed_schedule(ctx, (4,), 0, 0.0, tables, 0.95)
    assert act_bad.total == 0
    assert act_good.total == 4


def test_per_round_price_sequence_flag():
    dus = [du(0, 5.0, 0, 2), du(1, 5.0, 0, 2)]
    tpl = GopTemplate(dus, 1, 1)
    tables = build_du_tables(tpl, make_view(), 0.0, np.array([0.0, 0.0]))
    ctx = tpl.context(0)
    # first round sends at the cheap price, second round is priced out
    for price in ([1.0, 9.0], (1.0, 9.0), np.array([1.0, 9.0]),
                  np.array([1.0, 9.0, 9.0])):     # length x + 1 must not broadcast
        act, _ = decomposed_schedule(ctx, (2, 2), 0, price, tables, 0.0)
        assert act.total == 2
    with pytest.raises(ModelError):
        decomposed_schedule(ctx, (2, 2), 0, np.ones((2, 2)), tables, 0.0)


# ---------------------------------------------------------------------------
# simple schedulers
# ---------------------------------------------------------------------------

def illustration_context(phase):
    dus = [du(0, 4.0, 0, 40, name="I"),
           du(1, 2.0, 1, 10, parents=[0], name="P"),
           du(2, 2.0, 1, 10, parents=[1], name="B")]
    tpl = GopTemplate(dus, 2, 2)
    return tpl.context(phase)


def test_edf_fills_earliest_deadline_first():
    ctx = illustration_context(0)  # I expiring, then P, B
    act = edf_schedule(ctx, (40, 10, 10), 30)
    assert act.sends == (30, 0, 0)


def test_edf_serves_expiring_low_impact_before_late_i_frame():
    ctx = illustration_context(1)  # P, B expiring; next GOP's I has a slot left
    act = edf_schedule(ctx, (10, 10, 40), 20)
    assert act.sends == (10, 10, 0)


def test_edf_zero_capacity():
    ctx = illustration_context(0)
    assert edf_schedule(ctx, (40, 10, 10), 0).sends == (0, 0, 0)


def test_hdf_fills_by_impact():
    dus = [du(0, 4.0, 0, 40, name="I"), du(1, 2.0, 1, 10, parents=[0], name="P"),
           du(2, 1.0, 1, 10, parents=[1], name="B")]
    tpl = GopTemplate(dus, 2, 2)
    act = hdf_schedule(tpl.context(0), (40, 10, 10), 45)
    assert act.sends == (40, 5, 0)


def test_hdf_equal_impacts_fall_back_to_deadline_order():
    dus = [du(0, 2.0, 0, 10), du(1, 2.0, 1, 10, parents=[0])]
    tpl = GopTemplate(dus, 2, 2)
    act = hdf_schedule(tpl.context(0), (10, 10), 12)
    assert act.sends == (10, 2)


def test_fifo_single_du_matches_edf():
    tpl = GopTemplate([du(0, 3.0, 0, 9)], 1, 1)
    ctx = tpl.context(0)
    assert fifo_schedule(ctx, (9,), 5).sends == edf_schedule(ctx, (9,), 5).sends


def test_fifo_prefers_older_gop():
    tpl = GopTemplate([du(0, 3.0, 0, 5)], 1, 2)
    ctx = tpl.context(0)   # current GOP's DU (expiring) and next GOP's
    assert [s.key[0] for s in ctx.slots] == [0, 1]
    act = fifo_schedule(ctx, (5, 5), 6)
    assert act.sends == (5, 1)


@settings(max_examples=EXAMPLES["capacity_respect"], deadline=None)
@given(st.integers(0, 60), st.tuples(st.integers(0, 9), st.integers(0, 9),
                                     st.integers(0, 9)))
def test_simple_schedulers_respect_capacity_and_buffers(cap, bufs):
    ctx = illustration_context(0)
    buf = tuple(min(b, s.du.max_size) for b, s in zip(bufs, ctx.slots))
    for sched in (edf_schedule, fifo_schedule, hdf_schedule):
        act = sched(ctx, buf, cap)
        assert act.total <= cap
        assert all(0 <= y <= x for y, x in zip(act.sends, buf))


def test_packet_capacity_floor():
    assert packet_capacity(0.5, 1.0, 60.0, 1.0) == 30
    assert packet_capacity(0.33, 1.0, 10.0, 1.0) == 3


def test_single_du_model_tables_have_backward_consistency():
    chan = ChannelModel(["good", "bad"], [1.4, 1.4], [6.0, 3.0],
                        [[0.7, 0.3], [0.4, 0.6]])
    view = common_view(chan, 1)
    d = du(0, 4.0, 1, 3)
    model = SingleDuModel(d, 2, view, 0.9)
    table = model.solve(np.array([0.5, 1.5]))
    # final age: value is just the best one-shot margin
    for x in range(4):
        for v in range(2):
            margin = (1 - 0.9) * (4.0 - [0.5, 1.5][v])
            expect = max(margin * y for y in range(x + 1))
            assert table.values[1, x, v] == pytest.approx(expect)
    # post table at age 0 is the channel-mixed value at age 1
    mixed = table.values[1] @ view.transition.T
    assert np.allclose(table.post[0], mixed)
