from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import context_edges
from wvsched import model
from wvsched.pricing import JointChannel
from wvsched.model import (
    ChannelModel,
    ContextStep,
    DataUnitSpec,
    GopTemplate,
    ModelError,
    ScheduleAction,
    UserState,
    _check_step,
    advance_traffic,
    bandwidth_usage,
    iter_actions,
    payoff,
    slot_payoff,
    transmit_energy,
)

EXAMPLES = {"periodicity": 1400, "energy_convexity": 1400,
            "usage_linearity": 1400, "dependency_rule": 800}


def du(i, q, d, sizes, parents=(), name=None):
    pmf = tuple((v, p) for v, p in sizes)
    return DataUnitSpec(i, name or f"DU{i}", q, d, pmf, tuple(parents))


def two_state_channel(rate=(60.0, 40.0), trans=((0.7, 0.3), (0.4, 0.6))):
    return ChannelModel(["good", "bad"], [1.4, 1.4], rate, trans)


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

def fig_template():
    # five DUs over a three-slot GOP, window 2: deadlines 0, 1, 1, 2, 2
    dus = [
        du(1, 4.0, 0, [(4, 1.0)]),
        du(2, 3.0, 1, [(2, 1.0)], parents=[1]),
        du(3, 3.0, 1, [(2, 1.0)], parents=[1]),
        du(4, 2.0, 2, [(2, 1.0)], parents=[2]),
        du(5, 2.0, 2, [(2, 1.0)], parents=[3]),
    ]
    return GopTemplate(dus, period=3, window=2)


def test_window_two_contexts_cycle_through_du_groups():
    tpl = fig_template()
    ids = lambda ctx: [s.key[1] for s in ctx.slots]
    assert ids(tpl.context(0)) == [1, 2, 3]
    assert ids(tpl.context(1)) == [2, 3, 4, 5]
    # third context wraps into the next GOP's first DU
    ctx2 = tpl.context(2)
    assert ids(ctx2) == [4, 5, 1]
    assert ctx2.slots[-1].key == (1, 1)


def test_window_one_contains_exactly_the_expiring_du():
    dus = [du(i, 3.0, i, [(1, 1.0)]) for i in range(4)]
    tpl = GopTemplate(dus, period=4, window=1)
    for p in range(4):
        ctx = tpl.context(p)
        assert len(ctx) == 1
        assert ctx.slots[0].key[1] == p
        assert ctx.slots[0].remaining == 0


def test_context_periodicity():
    tpl = fig_template()
    for p in range(tpl.period):
        a, b = tpl.context(p), tpl.context(p + tpl.period)
        assert [s.key[1] for s in a.slots] == [s.key[1] for s in b.slots]
        assert context_edges(a) == context_edges(b)


def test_dependency_rule_violations_rejected():
    with pytest.raises(ModelError, match="deadline"):
        GopTemplate([du(0, 3.0, 1, [(1, 1.0)]),
                     du(1, 2.0, 0, [(1, 1.0)], parents=[0])], 2, 2)
    with pytest.raises(ModelError, match="impact"):
        GopTemplate([du(0, 2.0, 0, [(1, 1.0)]),
                     du(1, 3.0, 1, [(1, 1.0)], parents=[0])], 2, 2)
    with pytest.raises(ModelError, match="cycle"):
        GopTemplate([du(0, 3.0, 0, [(1, 1.0)], parents=[1]),
                     du(1, 3.0, 0, [(1, 1.0)], parents=[0])], 1, 1)
    with pytest.raises(ModelError, match="window"):
        # parent/child deadlines 3 slots apart never co-occur with W=2
        GopTemplate([du(0, 3.0, 0, [(1, 1.0)]),
                     du(1, 2.0, 3, [(1, 1.0)], parents=[0])], 3, 2)


def test_pmf_validation():
    with pytest.raises(ModelError, match="sums"):
        du(0, 1.0, 0, [(1, 0.5), (2, 0.6)])
    with pytest.raises(ModelError, match="negative"):
        du(0, 1.0, 0, [(-1, 1.0)])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, match", [
    (lambda: du(0, NAN, 0, [(1, 1.0)]), "distortion_impact"),
    (lambda: du(0, INF, 0, [(1, 1.0)]), "distortion_impact"),
    (lambda: du(0, 1.0, 0, [(1, NAN)]), "probability"),
    (lambda: du(0, 1.0, 0, [(1, 0.5), (2, NAN)]), "probability"),
    (lambda: two_state_channel(rate=(NAN, 40.0)), "rate"),
    (lambda: two_state_channel(rate=(INF, 40.0)), "rate"),
    (lambda: ChannelModel(["a", "b"], [INF, 1.4], [1.0, 1.0], [[1, 0], [0, 1]]),
     "gain_to_noise"),
    (lambda: two_state_channel(trans=((NAN, 0.3), (0.4, 0.6))), "transition"),
    (lambda: two_state_channel(trans=((0.7, 0.3), (1.0,))), "transition"),
    (lambda: model.UserConfig("u", fig_template(), two_state_channel(), beta=NAN), "beta"),
    (lambda: model.UserConfig("u", fig_template(), two_state_channel(), min_quality=INF),
     "min_quality"),
    (lambda: du(0, 1.0, 0, [(2.5, 1.0)]), "size_pmf size"),
    (lambda: du(0, 1.0, 0, [(NAN, 1.0)]), "size_pmf size"),
    (lambda: du(0, 1.0, 0, [(True, 1.0)]), "size_pmf size"),
    (lambda: du(0, 1.0, 0.7, [(1, 1.0)]), "deadline_offset"),
    (lambda: du(1.5, 1.0, 0, [(1, 1.0)]), "du_id"),
    (lambda: du(1, 1.0, 0, [(1, 1.0)], parents=[0.5]), "parent"),
    (lambda: GopTemplate([du(0, 1.0, 0, [(1, 1.0)])], 1.9, 1), "gop.period"),
    (lambda: GopTemplate([du(0, 1.0, 0, [(1, 1.0)])], NAN, 1), "gop.period"),
    (lambda: GopTemplate([du(0, 1.0, 0, [(1, 1.0)])], 2, 1.5), "gop.window"),
])
def test_non_finite_numbers_are_rejected(build, match):
    """A NaN passes every `x < 0` test, so each number is checked finite,
    and a count is checked an integer rather than truncated by `int`."""
    with pytest.raises(ModelError, match=match):
        build()


def test_numpy_integers_pass_as_integer_fields():
    """numpy integers are `numbers.Integral`, so they pass where a float or
    a bool is refused; sizes come out as Python ints."""
    one = np.int64(1)
    spec = du(np.int64(0), 1.0, np.int64(0), [(np.int64(2), 1.0)])
    assert spec.size_pmf == ((2, 1.0),) and type(spec.size_pmf[0][0]) is int
    tpl = GopTemplate([spec, du(one, 1.0, one, [(one, 1.0)], parents=[np.int64(0)])], 2, 2 * one)
    assert (tpl.period, tpl.window) == (2, 2)
    user = model.UserConfig("u", fig_template(), two_state_channel())
    assert model.ScenarioConfig("s", (user,), seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("field, value", [
    ("bandwidth", NAN), ("bandwidth", INF), ("bits_per_packet", NAN),
    ("price_tolerance", NAN), ("discount", NAN), ("seed", -3),
    ("seed", 1.5), ("seed", NAN), ("seed", True),
])
def test_scenario_config_rejects_non_finite_numbers_and_negative_seeds(field, value):
    user = model.UserConfig("u", fig_template(), two_state_channel())
    with pytest.raises(ModelError, match=field):
        model.ScenarioConfig("s", (user,), **{field: value})


def test_user_states_compare_by_value_and_context_identity():
    """Equal states are equal and hash alike; a state of another template's
    context (equal in phase and slots) differs; a state equals nothing that
    is not a state."""
    tpl, other = fig_template(), fig_template()
    state = UserState(tpl.context(0), (1, 0, 2), 1)
    same = UserState(tpl.context(0), (1, 0, 2), 1)
    assert state == same and hash(state) == hash(same)
    assert state != UserState(tpl.context(0), (1, 0, 2), 0)
    assert state != UserState(other.context(0), (1, 0, 2), 1)
    assert state != None  # noqa: E711
    assert state not in [1, 2]
    assert {state: 1}[same] == 1


# ---------------------------------------------------------------------------
# actions and payoffs
# ---------------------------------------------------------------------------

def single_du_state(q, x, cap=None, channel=0):
    tpl = GopTemplate([du(0, q, 0, [(cap or x, 1.0)])], 1, 1)
    return tpl, UserState(tpl.context(0), (x,), channel)


def test_action_set_unconstrained():
    _, state = single_du_state(3.0, 2)
    acts = list(iter_actions(state.context, state.buffer, 0.0))
    assert [a.sends for a in acts] == [(0,), (1,), (2,)]


def test_action_set_quality_floor():
    _, state = single_du_state(10.0, 4)
    acts = list(iter_actions(state.context, state.buffer, 25.0))
    assert [a.sends for a in acts] == [(3,), (4,)]


def test_action_set_clamps_on_empty_buffer():
    tpl = GopTemplate([du(0, 10.0, 0, [(4, 1.0)])], 1, 1)
    state = UserState(tpl.context(0), (0,), 0)
    acts = list(iter_actions(state.context, state.buffer, 50.0))
    assert [a.sends for a in acts] == [(0,)]


def test_distortion_reduction_weighted_sum():
    """`slot_payoff`'s distortion reduction sums q * y; `payoff` refuses
    sends past the buffer."""
    dus = [du(0, 10.0, 0, [(2, 1.0)]), du(1, 5.0, 0, [(3, 1.0)])]
    tpl = GopTemplate(dus, 1, 1)
    state = UserState(tpl.context(0), (2, 3), 0)
    assert slot_payoff(state.context.impacts, (2, 3), 0.0, 1.4)[1] == 35.0
    assert slot_payoff(state.context.impacts, (0, 0), 0.0, 1.4)[1] == 0.0
    with pytest.raises(ModelError):
        payoff(state, ScheduleAction((3, 0)), 0.0, two_state_channel())


def test_distortion_reduction_illustration_first_slot():
    # I-frame impact 4, thirty packets sent, other DUs untouched
    dus = [du(0, 4.0, 0, [(40, 1.0)], name="I"),
           du(1, 2.0, 0, [(10, 1.0)], name="P"),
           du(2, 1.0, 0, [(10, 1.0)], name="B")]
    tpl = GopTemplate(dus, 1, 1)
    state = UserState(tpl.context(0), (40, 10, 10), 0)
    assert slot_payoff(state.context.impacts, (30, 0, 0), 0.0, 1.4)[1] == 120.0


def test_transmit_energy_closed_form():
    assert transmit_energy(1.4, 0) == 0.0
    assert transmit_energy(1.4, 1) == pytest.approx(0.714286, abs=1e-6)
    assert transmit_energy(1.4, 2) == pytest.approx(2.142857, abs=1e-6)


def test_payoff_combines_distortion_and_energy():
    tpl, state = single_du_state(10.0, 5)
    chan = two_state_channel()
    assert payoff(state, ScheduleAction((5,)), 1.0, chan) == pytest.approx(
        27.857143, abs=1e-6)
    assert payoff(state, ScheduleAction((0,)), 7.0, chan) == 0.0
    assert payoff(state, ScheduleAction((5,)), 0.0, chan) == 50.0


def test_bandwidth_usage():
    assert bandwidth_usage((30, 30), (60.0, 60.0), 1.0) == pytest.approx(1.0)
    assert bandwidth_usage((0, 0), (60.0, 60.0), 1.0) == 0.0
    assert bandwidth_usage((40, 40), (60.0, 60.0), 1.0) == pytest.approx(4 / 3)


# ---------------------------------------------------------------------------
# traffic dynamics
# ---------------------------------------------------------------------------

def test_expiring_unsent_packets_are_dropped():
    tpl = GopTemplate([du(0, 3.0, 0, [(7, 1.0)])], 1, 1)
    step = advance_traffic(tpl, tpl.context(0), (7,), ScheduleAction((0,)),
                           np.random.default_rng(0))
    assert step.dropped == {(0, 0): 7}


def test_point_mass_arrival_fills_entering_du():
    tpl = GopTemplate([du(0, 4.0, 0, [(40, 1.0)], name="I")], 1, 1)
    step = advance_traffic(tpl, tpl.context(0), (40,), ScheduleAction((40,)),
                           np.random.default_rng(0))
    assert step.buffer == (40,)
    assert list(step.arrivals.values()) == [40]


def test_surviving_buffers_decrement_without_context_change():
    # both DUs stay active across the step: no drops, no arrivals
    dus = [du(0, 3.0, 1, [(5, 1.0)]), du(1, 2.0, 2, [(3, 1.0)], parents=[0])]
    tpl = GopTemplate(dus, period=3, window=3)
    ctx = tpl.context(0)
    assert [s.remaining for s in ctx.slots] == [1, 2]
    step = advance_traffic(tpl, ctx, (5, 3), ScheduleAction((2, 1)), np.random.default_rng(0))
    assert step.arrivals == {} and step.dropped == {}
    assert step.buffer == (3, 2)


def two_du_template():
    # both DUs stay active from phase 0 to phase 1
    dus = [du(0, 3.0, 1, [(5, 1.0)]), du(1, 2.0, 2, [(3, 1.0)], parents=[0])]
    return GopTemplate(dus, period=3, window=3)


def test_every_shipped_step_moves_each_slot_once():
    tpl = two_du_template()
    for p in range(tpl.period):
        _check_step(tpl.context(p), tpl.context(p + 1), tpl.step(p))


@pytest.mark.parametrize("broken", [
    # forgets DU1's survivor: its packets would be neither kept nor dropped
    lambda s: ContextStep(s.survivors[:1], s.expiring, s.entering),
    # both survivors land in one slot
    lambda s: ContextStep(((0, 0), (1, 0)), s.expiring, s.entering),
    # DU0 both survives and expires
    lambda s: ContextStep(s.survivors, (0,), s.entering),
    # a surviving slot also draws a fresh size
    lambda s: ContextStep(s.survivors, s.expiring, (0,)),
])
def test_step_that_loses_or_doubles_packets_raises(broken):
    tpl = two_du_template()
    with pytest.raises(ModelError, match="does not move each slot exactly once"):
        _check_step(tpl.context(0), tpl.context(1), broken(tpl.step(0)))


def test_transition_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(model, "TRANSITION_MEMO", 3)
    tpl = two_du_template()
    keys = [(x, y) for x in range(4) for y in range(3)]
    for x, y in keys:
        step = advance_traffic(tpl, tpl.context(0), (5, 3), ScheduleAction((x, y)),
                               np.random.default_rng(0))
        assert step.buffer == (5 - x, 3 - y)
    assert len(tpl._transitions) == 3
    again = advance_traffic(tpl, tpl.context(0), (5, 3), ScheduleAction(keys[-1]),
                            np.random.default_rng(0))
    assert again.buffer == (2, 1)


@pytest.mark.parametrize("buffer, sends, match", [
    ((5, 3), (6, 0), "sends 6 from a buffer of 5"),
    ((5, 4), (0, 0), "outside"),
    ((5, 3), (1,), "action length"),
    ((5,), (1,), "buffer length"),
])
def test_invalid_step_raises_every_time(buffer, sends, match):
    tpl = two_du_template()
    for _ in range(2):
        with pytest.raises(ModelError, match=match):
            advance_traffic(tpl, tpl.context(0), buffer, ScheduleAction(sends),
                            np.random.default_rng(0))
    step = advance_traffic(tpl, tpl.context(0), (5, 3), ScheduleAction((2, 1)),
                           np.random.default_rng(0))
    assert step.buffer == (3, 2)


def test_step_rejects_another_templates_context():
    tpl, other = two_du_template(), two_du_template()
    with pytest.raises(ModelError, match="not this template's"):
        advance_traffic(tpl, other.context(0), (5, 3), ScheduleAction((2, 1)),
                        np.random.default_rng(0))


def test_returned_step_dicts_are_fresh():
    tpl = GopTemplate([du(0, 3.0, 0, [(7, 1.0)])], 1, 1)
    first = advance_traffic(tpl, tpl.context(0), (7,), ScheduleAction((2,)),
                            np.random.default_rng(0))
    assert first.dropped == {(0, 0): 5} and first.arrivals == {(0, 0): 7}
    first.dropped.clear()
    first.arrivals[(0, 0)] = 99
    again = advance_traffic(tpl, tpl.context(0), (7,), ScheduleAction((2,)),
                            np.random.default_rng(0))
    assert again.dropped == {(0, 0): 5} and again.arrivals == {(0, 0): 7}


def test_channel_step_identity_and_frequencies():
    """`JointChannel.step` of one channel draws from its state's row."""
    ident = JointChannel([ChannelModel(["a", "b"], [1.0, 1.0], [1.0, 1.0],
                                       [[1.0, 0.0], [0.0, 1.0]])])
    rng = np.random.default_rng(0)
    assert all(ident.step((1,), rng) == (1,) for _ in range(20))

    chan = JointChannel([two_state_channel()])
    rng = np.random.default_rng(1)
    stays = sum(chan.step((0,), rng) == (0,) for _ in range(10_000))
    assert stays / 10_000 == pytest.approx(0.7, abs=0.02)


def test_a_common_channel_of_three_users_is_its_one_chain():
    """Three users on one common chain: the joint channel draws that chain
    alone, one uniform a step, and its states, transition, initial state
    and steps are the chain's, its state repeated for every user."""
    chan = two_state_channel()
    joint = JointChannel([chan] * 3, "common")
    assert joint.chains == [chan] and joint.chain_of == (0, 0, 0)
    assert joint.all_states() == [(0, 0, 0), (1, 1, 1)]
    assert joint.transition.tolist() == [[0.7, 0.3], [0.4, 0.6]]
    assert not np.shares_memory(joint.transition, chan.transition)
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        h = 0 if ref.random() < chan.stationary()[0] else 1
        assert joint.initial(rng) == (h, h, h)
        for s0 in [(0, 0, 0), (1, 1, 1), (0, 0, 0)]:
            h = 0 if ref.random() < (0.7 if s0 == (0, 0, 0) else 0.4) else 1
            assert joint.step(s0, rng) == (h, h, h)
        assert rng.random() == ref.random()


def test_a_joint_channel_of_no_channels_is_refused():
    """No channels make no joint channel, on either correlation: not a
    one-state channel of the empty tuple, nor an `IndexError`."""
    for correlation in ("independent", "common"):
        with pytest.raises(ModelError, match="at least one channel"):
            JointChannel([], correlation)


@pytest.mark.parametrize("trans", [[[1.0, 0.0], [0.0, 1.0]],
                                   [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.2, 0.8]]])
def test_stationary_law_of_a_chain_with_two_closed_classes_is_refused(trans):
    """Each closed class has a stationary law of its own, so a chain with
    two has none unique: the identity chain, and a chain with the blocks
    {0} and {1, 2}, raise naming the two classes rather than return a mix
    (the identity's least-squares law would be (0.5, 0.5))."""
    n = len(trans)
    chan = ChannelModel([str(h) for h in range(n)], [1.0] * n, [1.0] * n, trans)
    assert chan.closed_classes() == 2
    with pytest.raises(ModelError, match="2 closed classes"):
        chan.stationary()


def test_stationary_law_of_one_closed_class_is_the_solve():
    """A chain with one closed class, irreducible, periodic or with a
    transient state, keeps its stationary law: the least-squares solve of
    pi (P - I) = 0 with the normalization row, clipped and normalised."""
    for trans in ([[0.7, 0.3], [0.4, 0.6]], [[0.0, 1.0], [1.0, 0.0]],
                  [[0.5, 0.5, 0.0], [0.0, 0.2, 0.8], [0.0, 0.6, 0.4]]):
        chan = ChannelModel([str(h) for h in range(len(trans))], [1.0] * len(trans),
                            [1.0] * len(trans), trans)
        assert chan.closed_classes() == 1
        n = len(trans)
        a = np.vstack([np.array(trans).T - np.eye(n), np.ones((1, n))])
        pi, *_ = np.linalg.lstsq(a, np.concatenate([np.zeros(n), [1.0]]), rcond=None)
        pi = np.clip(pi, 0.0, None)
        assert chan.stationary().tolist() == (pi / pi.sum()).tolist()


def test_non_stochastic_transition_rejected():
    with pytest.raises(ModelError, match="sums"):
        ChannelModel(["a", "b"], [1.0, 1.0], [1.0, 1.0], [[0.5, 0.6], [0.5, 0.5]])


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def templates(draw):
    period = draw(st.integers(1, 4))
    window = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    dus = []
    for i in range(n):
        d = draw(st.integers(0, period))
        q = draw(st.integers(1, 8))
        cap = draw(st.integers(1, 4))
        parents = []
        for j, prev in enumerate(dus):
            gap = d - prev.deadline_offset
            if 0 <= gap < window and prev.distortion_impact >= q and draw(st.booleans()):
                parents.append(prev.du_id)
        dus.append(du(i, float(q), d, [(cap, 1.0)], parents=parents))
    return GopTemplate(dus, period, window)


@settings(max_examples=EXAMPLES["periodicity"], deadline=None)
@given(templates(), st.integers(0, 11))
def test_periodicity_property(tpl, p):
    a = tpl.context(p % tpl.period)
    b = tpl.context(p % tpl.period + tpl.period)
    assert [s.key[1] for s in a.slots] == [s.key[1] for s in b.slots]
    assert [s.remaining for s in a.slots] == [s.remaining for s in b.slots]
    assert context_edges(a) == context_edges(b)


@settings(max_examples=EXAMPLES["energy_convexity"], deadline=None)
@given(st.floats(0.2, 10.0), st.integers(0, 12))
def test_energy_convexity(gain, n):
    inc1 = transmit_energy(gain, n + 1) - transmit_energy(gain, n)
    inc2 = transmit_energy(gain, n + 2) - transmit_energy(gain, n + 1)
    assert inc2 >= inc1 >= 0


@settings(max_examples=EXAMPLES["usage_linearity"], deadline=None)
@given(st.integers(0, 50), st.integers(0, 50), st.floats(1.0, 100.0),
       st.floats(1.0, 100.0), st.floats(0.1, 4.0))
def test_bandwidth_usage_linearity(t1, t2, r1, r2, b):
    # linear in each total with coefficient b / r_i
    base = bandwidth_usage((t1, t2), (r1, r2), b)
    bumped = bandwidth_usage((t1 + 1, t2), (r1, r2), b)
    assert bumped - base == pytest.approx(b / r1, rel=1e-9)
    assert base == pytest.approx(t1 * b / r1 + t2 * b / r2, rel=1e-9)


@settings(max_examples=EXAMPLES["dependency_rule"], deadline=None)
@given(templates(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_dependency_rule_holds_in_all_contexts(tpl, p, pyrng):
    ctx = tpl.context(p % tpl.period)
    for pi, ci in context_edges(ctx):
        parent, child = ctx.slots[pi], ctx.slots[ci]
        assert child.du.deadline_offset >= parent.du.deadline_offset
        assert child.du.distortion_impact <= parent.du.distortion_impact
