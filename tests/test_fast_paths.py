"""Differential tests: every fast path against the simple reference code.

The reference implementations below are the plain versions the fast paths
replaced: the per-buffer-level loop solve, the round-by-round decomposed
scheduler that re-evaluates every root each round (for planned tables) and a
per-DU loop over sends (for learned tables), `rng.choice` draws, the
user MDP's per-action loops (traffic kernel, policy chain, post-decision
kernel, action lookups by re-walking `iter_actions`), the joint kernel's
loop over (joint state, joint action) pairs with its `choices` callback,
the frozen-rule `replay` (evaluation replay, clearing calibration,
uniform-price usage) deciding every slot afresh and stepping it through
`SlotSystem.advance` instead of walking memoised transitions once per
`slot_key` on block-drawn uniforms, the slot step drawing each entering DU and each channel with
its own scalar sampler call, and the per-user trim and inflate loops of
the band scaling.
Results must agree exactly (==), not approximately. The one exception is the
user MDP's policy-iteration solve: its reference, value iteration, stops at
a tolerance, so the two agree within it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from itertools import islice, product

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import context_edges
from wvsched import harness, oracle, pricing
from wvsched.baselines import scale_up_to_budget
from wvsched.harness import (
    DecomposedAgent,
    ProposedSolution,
    UniformPriceSolution,
    build_solution,
    make_agents,
)
from wvsched.learning import DuPdsLearner
from wvsched.mdp import (
    TrafficLayout,
    UserMdp,
    ValueTable,
    buffer_grid,
    common_view,
    entering_combos,
    joint_view,
    own_view,
    value_iteration,
)
from wvsched.model import (
    ChannelModel,
    DataUnitSpec,
    GopTemplate,
    ModelError,
    ScenarioConfig,
    ScheduleAction,
    UserConfig,
    bandwidth_usage,
    draw,
    initial_buffer,
    iter_actions,
    sample_channel,
    transmit_energy,
)
from wvsched.oracle import JointSpace
from wvsched.pricing import (
    JointChannel,
    SlotSystem,
    replay,
    scale_to_budget,
    slot_key,
    slot_requests,
)
from wvsched.scenario import preset
from wvsched.scheduling import SingleDuModel, build_du_tables, decomposed_schedule

EXAMPLES = 300


# ---------------------------------------------------------------------------
# Reference code
# ---------------------------------------------------------------------------

def reference_solve(model: SingleDuModel, price):
    """Backward induction with a Python loop over buffer levels.

    Returns (values, post, best_send); best_send is the first argmax over y.
    """
    n_view = len(model.view)
    w, cap, delta = model.window, model.cap, model.discount
    values = np.zeros((w + 1, cap + 1, n_view))
    post = np.zeros((w, cap + 1, n_view))
    best_send = np.zeros((w, cap + 1, n_view), dtype=int)
    margin = (1.0 - delta) * (model.du.distortion_impact - np.asarray(price))
    for age in range(w - 1, -1, -1):
        if age < w - 1:
            post[age] = values[age + 1] @ model.view.transition.T
        for x in range(cap + 1):
            ys = np.arange(x + 1)
            q = ys[:, None] * margin[None, :] + delta * post[age, x - ys, :]
            values[age, x] = q.max(axis=0)
            best_send[age, x] = q.argmax(axis=0)
    return values, post, best_send


def reference_schedule(context, buffer, view_state, price, tables, discount):
    """O(n^2) scheduler over planned tables: every round re-evaluates every
    current root of the context DAG and fixes the best one's send."""
    n = len(context)
    sends = [0] * n
    done = [False] * n
    parents = [[] for _ in range(n)]
    for p, c in context_edges(context):
        parents[c].append(p)
    for _ in range(n):
        best = None
        for i in range(n):
            if done[i] or any(not done[p] for p in parents[i]):
                continue
            slot = context.slots[i]
            margin = (1.0 - discount) * (slot.du.distortion_impact - price)
            x = buffer[i]
            cont = tables[slot.du.du_id].post_slice(context.age_of(i), x, view_state)
            vals = margin * np.arange(x + 1) + discount * cont
            y_best = int(np.argmax(vals))
            val = float(vals[y_best])
            if best is None or val > best[0] + 1e-12:
                best = (val, i, y_best)
        _, i, y = best
        sends[i] = y
        done[i] = True
    return tuple(sends)


def reference_learned_schedule(context, buffer, view_state, price, learners, discount):
    """Per-DU first maximiser over y = 0..x, one send at a time."""
    sends = []
    for i, slot in enumerate(context.slots):
        lr = learners[slot.du.du_id]
        margin = (1.0 - discount) * (slot.du.distortion_impact - price)
        best_val, best_y = None, 0
        for y in range(buffer[i] + 1):
            val = margin * y + discount * lr.continuation(context.age_of(i),
                                                          buffer[i] - y, view_state)
            if best_val is None or val > best_val:
                best_val, best_y = val, y
        sends.append(best_y)
    return tuple(sends)


def reference_product_chain(channels) -> np.ndarray:
    keys = list(product(*(range(len(c)) for c in channels)))
    trans = np.ones((len(keys), len(keys)))
    for a, ka in enumerate(keys):
        for b, kb in enumerate(keys):
            for c, (ha, hb) in zip(channels, zip(ka, kb)):
                trans[a, b] *= c.transition[ha, hb]
    return trans


def reference_initial(joint: JointChannel, rng):
    if joint.correlation == "common":
        c = joint.channels[0]
        return (int(rng.choice(len(c), p=c.stationary())),) * len(joint.channels)
    return tuple(int(rng.choice(len(c), p=c.stationary())) for c in joint.channels)


def reference_traffic_kernel(mdp: UserMdp) -> sp.csr_matrix:
    """Traffic kernel built by re-walking each state's actions with islice."""
    lay = mdp.layout
    combos = [entering_combos(lay, p) for p in range(lay.period)]
    rows, cols, vals = [], [], []
    ta = 0
    for t_idx, phase, buf in lay.iter_states():
        nxt_phase = (phase + 1) % lay.period
        step = lay.steps[phase]
        offs, probs = combos[phase]
        n_actions = mdp.group_start[t_idx + 1] - mdp.group_start[t_idx]
        ctx = lay.contexts[phase]
        for act in islice(iter_actions(ctx, buf, mdp.min_quality), int(n_actions)):
            surv = lay.base[nxt_phase] + sum(
                (buf[i] - act.sends[i]) * lay.strides[nxt_phase][j]
                for i, j in step.survivors)
            rows.append(np.full(len(offs), ta, dtype=np.int64))
            cols.append(surv + offs)
            vals.append(probs)
            ta += 1
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mdp.n_ta, lay.n_traffic))


def reference_policy_transition(mdp: UserMdp, table: ValueTable) -> sp.csr_matrix:
    n_view = len(mdp.view)
    n = mdp.n_states
    rows, cols, vals = [], [], []
    for t in range(mdp.layout.n_traffic):
        for v in range(n_view):
            ta = table.policy[t, v]
            row = mdp.traffic_kernel.getrow(ta)
            for t2, p_tr in zip(row.indices, row.data):
                for v2 in range(n_view):
                    p = p_tr * mdp.view.transition[v, v2]
                    if p > 0:
                        rows.append(t * n_view + v)
                        cols.append(t2 * n_view + v2)
                        vals.append(p)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def reference_exact_policy_value(mdp: UserMdp, table: ValueTable, price=None):
    n_view = len(mdp.view)
    u = np.empty(mdp.n_states)
    for t in range(mdp.layout.n_traffic):
        for v in range(n_view):
            ta = table.policy[t, v]
            u[t * n_view + v] = mdp.payoff_table[ta, v]
            if price is not None:
                u[t * n_view + v] -= price[v] * mdp.ta_total[ta]
    a = sp.eye(mdp.n_states, format="csr") - mdp.discount * reference_policy_transition(
        mdp, table)
    return spla.spsolve(a.tocsc(), (1.0 - mdp.discount) * u).reshape(-1, n_view)


def reference_user_solve(mdp: UserMdp, price, tol: float, init=None) -> np.ndarray:
    """The user MDP's values by value iteration from `init` (zeros if None)."""
    reward = mdp.priced_reward(price)
    values = np.zeros((mdp.layout.n_traffic, len(mdp.view))) if init is None else init
    values, _ = value_iteration(lambda v: mdp.backup(v, reward)[0], values, mdp.discount,
                                tol, 1_000_000, "reference")
    return values


def reference_pds_kernel(lay: TrafficLayout) -> sp.csr_matrix:
    """Post-decision kernel built one survivor vector at a time."""
    rows, cols, vals = [], [], []
    for p in range(lay.period):
        offs, probs = entering_combos(lay, p)
        nxt = (p + 1) % lay.period
        step = lay.steps[p]
        for surv in product(*(range(c + 1) for c in lay.pds_caps[p])):
            pidx = lay.pds_index(p, surv)
            base = lay.base[nxt] + sum(
                x * lay.strides[nxt][j] for x, (_, j) in zip(surv, step.survivors))
            rows.append(np.full(len(offs), pidx, dtype=np.int64))
            cols.append(base + offs)
            vals.append(probs)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(lay.n_pds, lay.n_traffic))


def reference_decode(space: JointSpace, t: int) -> tuple[int, list[tuple[int, ...]]]:
    """Joint phase and per-user buffers of joint traffic state t."""
    jphase = max(p for p in range(space.period) if space.base[p] <= t)
    acc = t - space.base[jphase]
    locals_ = []
    for cnt in reversed(space.counts[jphase]):
        locals_.append(acc % cnt)
        acc //= cnt
    locals_.reverse()
    buffers = []
    for lay, loc in zip(space.layouts, locals_):
        _, buf = lay.decode(lay.base[jphase % lay.period] + loc)
        buffers.append(buf)
    return jphase, buffers


def reference_next_local_branches(space: JointSpace, combos_by_user, jphase, buffers, sent):
    """Per-user survivor part + entering-size branches, crossed over users."""
    per_user = []
    njp = (jphase + 1) % space.period
    for lay, combos, buf, act in zip(space.layouts, combos_by_user, buffers, sent):
        p = jphase % lay.period
        step = lay.steps[p]
        surv = sum((buf[i] - act.sends[i]) * lay.strides[njp % lay.period][j]
                   for i, j in step.survivors)
        offs, probs = combos[p]
        per_user.append([(int(surv + o), float(pr)) for o, pr in zip(offs, probs)])
    out = []
    for combo in product(*per_user):
        pr = 1.0
        for c in combo:
            pr *= c[1]
        out.append(([c[0] for c in combo], pr))
    return out


def reference_joint_kernel(space: JointSpace, scenario, choices):
    """The pair loop: choices(jphase, buffers, c0, user_acts) lists a state's
    (joint action, reward offset) pairs, user_acts() each user's actions."""
    combos_by_user = [[entering_combos(lay, p) for p in range(lay.period)]
                      for lay in space.layouts]
    nc = len(space.c0_states)
    chan_rows = [[(c1, p) for c1, p in enumerate(row) if p > 0]
                 for row in space.transition.tolist()]
    rows, cols, vals, rewards, starts, pair_actions = [], [], [], [], [], []
    for t in range(space.n_traffic):
        jphase, buffers = reference_decode(space, t)
        ctxs = [lay.contexts[jphase % lay.period] for lay in space.layouts]
        njp = (jphase + 1) % space.period

        def user_acts(jphase=jphase, buffers=buffers):
            return [list(iter_actions(lay.contexts[jphase % lay.period], buf, u.min_quality))
                    for u, lay, buf in zip(scenario.users, space.layouts, buffers)]

        for c0 in range(nc):
            s0 = space.c0_states[c0]
            starts.append(len(rewards))
            for joint_act, rew in choices(jphase, buffers, c0, user_acts):
                for u, ctx, act, h in zip(scenario.users, ctxs, joint_act, s0):
                    gain = sum(s.du.distortion_impact * y for s, y in zip(ctx.slots, act.sends))
                    rew += gain - u.beta * u.channel.energy(h, act.total)
                pair = len(rewards)
                for locs, p_tr in reference_next_local_branches(
                        space, combos_by_user, jphase, buffers, joint_act):
                    acc = 0
                    for loc, cnt in zip(locs, space.counts[njp]):
                        acc = acc * cnt + loc
                    for c1, p_ch in chan_rows[c0]:
                        rows.append(pair)
                        cols.append((space.base[njp] + acc) * nc + c1)
                        vals.append(p_tr * p_ch)
                rewards.append(rew)
                pair_actions.append(joint_act)
    kernel = sp.csr_matrix((np.array(vals, dtype=float),
                            (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
                           shape=(len(rewards), space.n_states))
    return kernel, np.asarray(rewards), np.asarray(starts, dtype=np.int64), pair_actions


def reference_oracle(scenario, pair_cap=5_000_000):
    """Kernel, rewards, starts, values, policy and sweeps of the oracle."""
    space = JointSpace(scenario)
    delta = scenario.discount
    pairs = 0

    def feasible(jphase, buffers, c0, user_acts):
        nonlocal pairs
        s0 = space.c0_states[c0]
        rates = [u.channel.rate[h] for u, h in zip(scenario.users, s0)]
        out = [(joint_act, 0.0) for joint_act in product(*user_acts())
               if bandwidth_usage([a.total for a in joint_act], rates,
                                  scenario.bits_per_packet) <= scenario.bandwidth + 1e-9]
        if not out:
            raise ModelError(
                f"no feasible joint action in joint channel state {s0} "
                "(quality floors exceed the band)")
        pairs += len(out)
        if pairs > pair_cap:
            raise ModelError(f"joint state-action pairs exceed cap {pair_cap}")
        return out

    kernel, reward, starts, pair_actions = reference_joint_kernel(space, scenario, feasible)
    scaled = (1.0 - delta) * reward
    values, sweeps = value_iteration(
        lambda v: np.maximum.reduceat(scaled + delta * (kernel @ v), starts),
        np.zeros(space.n_states), delta, 1e-9, 100_000, "oracle value iteration")
    q = scaled + delta * (kernel @ values)
    ends = np.append(starts[1:], len(reward))
    policy = {idx: tuple(a.sends for a in pair_actions[lo + int(np.argmax(q[lo:hi]))])
              for idx, (lo, hi) in enumerate(zip(starts, ends))}
    return kernel, reward, starts, values, policy, sweeps


def reference_penalized(scenario, prices):
    """Kernel, rewards, starts and values of the priced joint problem."""
    space = JointSpace(scenario)
    delta = scenario.discount

    def priced(jphase, buffers, c0, user_acts):
        s0 = space.c0_states[c0]
        rates = [u.channel.rate[h] for u, h in zip(scenario.users, s0)]
        lam = prices.get(s0, 0.0)
        return [(joint_act, lam * (scenario.bandwidth - bandwidth_usage(
                    [a.total for a in joint_act], rates, scenario.bits_per_packet)))
                for joint_act in product(*user_acts())]

    kernel, reward, starts, _ = reference_joint_kernel(space, scenario, priced)
    scaled = (1.0 - delta) * reward
    values, _ = value_iteration(
        lambda v: np.maximum.reduceat(scaled + delta * (kernel @ v), starts),
        np.zeros(space.n_states), delta, 1e-9, 100_000, "penalized joint value iteration")
    return kernel, reward, starts, values


def reference_joint_value(scenario, act_rule):
    """Kernel, rewards and values of a deterministic slot rule."""
    space = JointSpace(scenario)
    delta = scenario.discount
    kernel, rewards, starts, _ = reference_joint_kernel(
        space, scenario,
        lambda jphase, buffers, c0, _acts: [(act_rule(jphase, buffers, c0), 0.0)])
    a = sp.eye(space.n_states, format="csr") - delta * kernel
    values = spla.spsolve(a.tocsc(), (1.0 - delta) * rewards)
    return kernel, rewards, starts, values


def reference_replay(system, decide, slots):
    """`replay` deciding every slot afresh."""
    total, visits = {}, {}
    for _ in range(slots):
        s0 = system.s0
        value, sent = decide(system)
        total[s0] = total.get(s0, 0.0) + value
        visits[s0] = visits.get(s0, 0) + 1
        system.advance(sent)
    return {s0: t / visits[s0] for s0, t in total.items()}, slots


def reference_trim(context, action, budget):
    """At most `budget` packets of `action`, kept in impact order."""
    if action.total <= budget:
        return action
    sends = [0] * len(context)
    room = budget
    for i in context.impact_order():
        take = min(action.sends[i], room)
        sends[i] = take
        room -= take
    return ScheduleAction(tuple(sends))


def reference_inflate(context, action, budget, buffer):
    """`action` grown toward `budget` packets in impact order, buffer-capped."""
    if action.total >= budget:
        return action
    sends = list(action.sends)
    room = budget - action.total
    for i in context.impact_order():
        take = min(buffer[i] - sends[i], room)
        sends[i] += take
        room -= take
        if room == 0:
            break
    return ScheduleAction(tuple(sends))


def reference_scale_to_budget(contexts, actions, rates, bits_per_packet, bandwidth):
    usage = bandwidth_usage([a.total for a in actions], rates, bits_per_packet)
    if usage <= bandwidth + 1e-12:
        return list(actions)
    gamma = bandwidth / usage
    return [reference_trim(ctx, act, int(np.floor(gamma * act.total + 1e-9)))
            for ctx, act in zip(contexts, actions)]


def reference_scale_up_to_budget(contexts, actions, buffers, rates, bits_per_packet,
                                 bandwidth):
    usage = bandwidth_usage([a.total for a in actions], rates, bits_per_packet)
    if usage <= 0 or usage >= bandwidth - 1e-12:
        return list(actions)
    gamma = bandwidth / usage
    return [reference_inflate(ctx, act, int(np.floor(gamma * act.total + 1e-9)), buf)
            for ctx, act, buf in zip(contexts, actions, buffers)]


def reference_advance(templates, joint, s0, contexts, buffers, sent, rng):
    """One slot with a `sample_size` call per entering DU, user by user, then
    a `sample_channel` call per channel draw: (context, buffer, arrivals,
    drops) per user, and the next joint state."""
    out = []
    for tpl, ctx, buf, act in zip(templates, contexts, buffers, sent):
        step, nxt = tpl.step(ctx.phase), tpl.context(ctx.phase + 1)
        left = [x - y for x, y in zip(buf, act.sends)]
        dropped = {ctx.slots[i].key: left[i] for i in step.expiring if left[i] > 0}
        new = [0] * len(nxt)
        for i, j in step.survivors:
            new[j] = left[i]
        arrivals = {}
        for j in step.entering:
            new[j] = arrivals[nxt.slots[j].key] = nxt.slots[j].du.sample_size(rng)
        out.append((nxt, tuple(new), arrivals, dropped))
    if joint.correlation == "common":
        s0_next = (sample_channel(joint.channels[0], s0[0], rng),) * len(s0)
    else:
        s0_next = tuple(sample_channel(c, h, rng) for c, h in zip(joint.channels, s0))
    return out, s0_next


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# A small value set makes exact ties (and near-ties at the 1e-12 rule) common.
values_ = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]),
                    st.floats(0.0, 10.0, allow_nan=False))


@st.composite
def pmfs(draw_, max_size=8):
    support = draw_(st.lists(st.integers(0, max_size), min_size=1, max_size=4,
                             unique=True))
    weights = draw_(st.lists(st.floats(0.01, 1.0), min_size=len(support),
                             max_size=len(support)))
    total = sum(weights)
    return tuple((v, w / total) for v, w in zip(support, weights))


@st.composite
def channels(draw_, max_states=3):
    n = draw_(st.integers(1, max_states))
    rows = []
    for _ in range(n):
        w = draw_(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        w[draw_(st.integers(0, n - 1))] += 0.05
        total = sum(w)
        rows.append([p / total for p in w])
    return ChannelModel([f"s{h}" for h in range(n)], [1.4] * n,
                        [float(3 + h) for h in range(n)], rows)


@st.composite
def instances(draw_):
    """(template, view, discount, price vector, context, buffer, view state)."""
    window = draw_(st.integers(1, 4))
    n = draw_(st.integers(1, 4))
    impacts = sorted((draw_(values_) for _ in range(n)), reverse=True)
    deadlines = sorted(draw_(st.integers(0, 3)) for _ in range(n))
    dus = []
    for i in range(n):
        parents = ()
        able = [j for j in range(i) if deadlines[i] - deadlines[j] < window]
        if able and draw_(st.booleans()):
            parents = (draw_(st.sampled_from(able)),)
        dus.append(DataUnitSpec(i, f"D{i}", impacts[i], deadlines[i], draw_(pmfs()),
                                parents))
    tpl = GopTemplate(dus, max(deadlines[-1], 1) + draw_(st.integers(0, 1)), window)
    view = common_view(draw_(channels()), 1)
    delta = draw_(st.floats(0.0, 0.99, exclude_max=True))
    price = np.array([draw_(values_) for _ in range(len(view))])
    ctx = tpl.context(draw_(st.integers(0, tpl.period - 1)))
    buffer = tuple(draw_(st.integers(0, s.du.max_size)) for s in ctx.slots)
    v = draw_(st.integers(0, len(view) - 1))
    return tpl, view, delta, price, ctx, buffer, v


@st.composite
def small_templates(draw_, max_window=3, max_dus=3, max_deadline=3):
    """Templates with sizes 0-2, zero-probability sizes among them."""
    window = draw_(st.integers(1, max_window))
    n = draw_(st.integers(1, max_dus))
    impacts = sorted((draw_(values_) for _ in range(n)), reverse=True)
    deadlines = sorted(draw_(st.integers(0, max_deadline)) for _ in range(n))
    dus = []
    for i in range(n):
        parents = ()
        able = [j for j in range(i) if deadlines[i] - deadlines[j] < window]
        if able and draw_(st.booleans()):
            parents = (draw_(st.sampled_from(able)),)
        support = draw_(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        weights = draw_(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]),
                                 min_size=len(support), max_size=len(support)))
        weights[0] += 0.1
        pmf = tuple((v, w / sum(weights)) for v, w in zip(support, weights))
        dus.append(DataUnitSpec(i, f"D{i}", impacts[i], deadlines[i], pmf, parents))
    return GopTemplate(dus, max(deadlines[-1], 1) + draw_(st.integers(0, 1)), window)


@st.composite
def user_mdps(draw_):
    """(UserMdp, price vector, seed) on small templates: several phases, DUs
    entering together, window 1, quality floors, zero-probability sizes and
    channel moves; the view is a common one, or the joint or own view of one
    of two channels whose states differ in gain."""
    tpl = draw_(small_templates())
    assume(TrafficLayout(tpl).n_traffic <= 300)
    kind = draw_(st.sampled_from(["common", "joint", "own"]))
    if kind == "common":
        view = common_view(draw_(channels()), 1)
    else:
        chans = []
        for _ in range(2):
            c = draw_(channels(max_states=2))
            gains = [draw_(st.sampled_from([0.5, 1.4, 3.0])) for _ in range(len(c))]
            chans.append(ChannelModel(c.names, gains, c.rate, c.transition))
        view = (joint_view if kind == "joint" else own_view)(chans, draw_(st.integers(0, 1)))
    min_quality = draw_(st.one_of(st.just(0.0), values_))
    mdp = UserMdp(tpl, view, draw_(st.floats(0.0, 1.0)), min_quality, 1.0,
                  draw_(st.floats(0.0, 0.95)))
    price = np.array([draw_(values_) for _ in range(len(view))])
    return mdp, price, draw_(st.integers(0, 2**32 - 1))


@st.composite
def priced_solves(draw_):
    """(UserMdp, price, warm-start price or None, tol) on small templates with
    1-2 view states, quality floors and discounts 0, 0.5 and 0.95."""
    tpl = draw_(small_templates())
    assume(TrafficLayout(tpl).n_traffic <= 300)
    view = common_view(draw_(channels(max_states=2)), 1)
    mdp = UserMdp(tpl, view, draw_(st.floats(0.0, 1.0)),
                  draw_(st.one_of(st.just(0.0), values_)), 1.0,
                  draw_(st.sampled_from([0.0, 0.5, 0.95])))
    prices = st.lists(st.one_of(st.just(0.0), values_), min_size=len(view),
                      max_size=len(view)).map(np.array)
    return (mdp, draw_(prices), draw_(st.one_of(st.none(), prices)),
            draw_(st.sampled_from([1e-6, 1e-9])))


@st.composite
def joint_scenarios(draw_):
    """(scenario, prices) of 2 or 3 users with small templates (periods 1-3,
    so the joint period can exceed each user's), quality floors, common or
    independent channels of 1-2 states, a band that binds in some states and
    discounts from 0."""
    n_users = draw_(st.integers(2, 3))
    common = draw_(st.booleans())
    shared = draw_(channels(max_states=2))
    users = []
    for i in range(n_users):
        tpl = draw_(small_templates(max_window=2, max_dus=4 - n_users, max_deadline=2))
        users.append(UserConfig(f"u{i}", tpl, shared if common else draw_(channels(max_states=2)),
                                min_quality=draw_(st.one_of(st.just(0.0), values_)),
                                beta=draw_(st.sampled_from([0.0, 0.3, 1.0]))))
    sc = ScenarioConfig("joint", tuple(users), bandwidth=draw_(st.sampled_from([0.5, 1.0, 2.0])),
                        discount=draw_(st.one_of(st.just(0.0), st.floats(0.0, 0.9))),
                        channel_correlation="common" if common else "independent")
    space = JointSpace(sc)
    assume(space.n_states <= 600)
    return sc, {s0: draw_(values_) for s0 in space.c0_states}


# one 2-packet DU every other slot: a single-point PMF, and a phase at which
# no DU enters
SPARSE_TEMPLATE = GopTemplate([DataUnitSpec(0, "I", 1.0, 0, ((2, 1.0),))], 2, 1)


@st.composite
def slot_systems(draw_, common=None):
    """(templates, joint channel, seed) of 1-3 users: small templates (sizes
    0-2 with zero-probability sizes, several DUs entering together) or the
    sparse one, on common or independent channels (drawn unless `common` is
    given)."""
    n_users = draw_(st.integers(1, 3))
    common = draw_(st.booleans()) if common is None else common
    shared = draw_(channels())
    templates = [draw_(st.one_of(small_templates(), st.just(SPARSE_TEMPLATE)))
                 for _ in range(n_users)]
    chans = [shared if common else draw_(channels()) for _ in range(n_users)]
    joint = JointChannel(chans, "common" if common else "independent")
    return templates, joint, draw_(st.integers(0, 2**32 - 1))


def random_table(mdp: UserMdp, price, seed) -> ValueTable:
    """Arbitrary values and an arbitrary feasible action per state."""
    rng = np.random.default_rng(seed)
    shape = (mdp.layout.n_traffic, len(mdp.view))
    sizes = np.diff(mdp.group_start)[:, None]
    policy = mdp.group_start[:-1, None] + (rng.random(shape) * sizes).astype(np.int64)
    return ValueTable(mdp, rng.normal(size=shape), policy, price)


def learners_for(draw_, tpl, delta, n_view):
    """DuPdsLearner tables with arbitrary learned entries."""
    out = {}
    for du in tpl.dus:
        lr = DuPdsLearner(du.distortion_impact, tpl.window, delta)
        for age in range(tpl.window - 1):
            for x in range(du.max_size + 1):
                for v in range(n_view):
                    if draw_(st.booleans()):
                        lr.u[(age, x, v)] = draw_(values_)
        out[du.du_id] = lr
    return out


# ---------------------------------------------------------------------------
# Per-DU solve and tables
# ---------------------------------------------------------------------------

@settings(max_examples=EXAMPLES, deadline=None)
@given(instances())
def test_vectorised_solve_equals_loop_solve(inst):
    tpl, view, delta, price, *_ = inst
    for du in tpl.dus:
        model = SingleDuModel(du, tpl.window, view, delta)
        tab = model.solve(price)
        values, post, best_send = reference_solve(model, price)
        assert np.array_equal(tab.values, values)
        assert np.array_equal(tab.post, post)
        assert np.array_equal(tab.best_send, best_send)


@settings(max_examples=EXAMPLES, deadline=None)
@given(instances())
def test_each_du_gets_its_own_model_and_arrays(inst):
    tpl, view, delta, price, *_ = inst
    tables = build_du_tables(tpl, view, delta, price)
    assert set(tables) == {du.du_id for du in tpl.dus}
    arrays = []
    for du in tpl.dus:
        tab = tables[du.du_id]
        assert tab.model.du is du
        own = SingleDuModel(du, tpl.window, view, delta).solve(price)
        for name in ("values", "post", "best_send", "margin"):
            assert np.array_equal(getattr(tab, name), getattr(own, name))
            arrays.append(getattr(tab, name))
    for a in range(len(arrays)):
        for b in range(a + 1, len(arrays)):
            assert not np.shares_memory(arrays[a], arrays[b])


# ---------------------------------------------------------------------------
# Decomposed scheduling
# ---------------------------------------------------------------------------

def _same(ctx, buf, v, price, tables, delta):
    act = decomposed_schedule(ctx, buf, v, price, tables, delta)
    assert act.sends == reference_schedule(ctx, buf, v, price, tables, delta)


@settings(max_examples=EXAMPLES, deadline=None)
@given(instances(), values_, st.floats(0.0, 0.99, exclude_max=True))
def test_schedule_at_solved_and_arbitrary_scalar_prices(inst, lam, other_delta):
    tpl, view, delta, price, ctx, buf, v = inst
    tables = build_du_tables(tpl, view, delta, price)
    _same(ctx, buf, v, float(price[v]), tables, delta)     # table lookups
    _same(ctx, buf, v, price[v], tables, delta)            # numpy scalar
    _same(ctx, buf, v, lam, tables, delta)                 # evaluated from post
    _same(ctx, buf, v, float(price[v]), tables, other_delta)
    if len(ctx):
        # a zero margin at the queried view is the same under either discount,
        # but the tables still carry the solved discount through `post`
        q = ctx.slots[0].du.distortion_impact
        mixed = price.copy()
        mixed[v] = q
        tables = build_du_tables(tpl, view, delta, mixed)
        _same(ctx, buf, v, q, tables, other_delta)


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data(), instances(), values_)
def test_schedule_with_learned_tables(data, inst, lam):
    tpl, view, delta, _price, ctx, buf, v = inst
    learners = learners_for(data.draw, tpl, delta, len(view))
    act = decomposed_schedule(ctx, buf, v, lam, learners, delta)
    assert act.sends == reference_learned_schedule(ctx, buf, v, lam, learners, delta)


def test_learned_and_planned_tables_share_the_exact_tie_rule():
    """A margin in (0, 1e-12) still wins: both kinds of table send their
    smallest exact maximiser, with no tolerance on ties."""
    du = DataUnitSpec(0, "F", 5e-13, 0, ((1, 1.0),))
    tpl = GopTemplate([du], 1, 1)
    ctx = tpl.context(0)
    view = common_view(ChannelModel(["only"], [1.0], [1.0], [[1.0]]), 1)
    planned = build_du_tables(tpl, view, 0.0, np.zeros(1))
    learned = {0: DuPdsLearner(du.distortion_impact, tpl.window, 0.0)}
    for tables in (planned, learned):
        assert decomposed_schedule(ctx, (1,), 0, 0.0, tables, 0.0).sends == (1,)


# ---------------------------------------------------------------------------
# Categorical sampler
# ---------------------------------------------------------------------------

@settings(max_examples=EXAMPLES, deadline=None)
@given(pmfs(), st.integers(0, 2**32 - 1))
@example(((3, 1.0),), 0)
@example(((0, 0.0), (5, 1.0)), 1)
def test_sample_size_equals_choice(pmf, seed):
    du = DataUnitSpec(0, "D", 1.0, 0, pmf)
    values = [v for v, _ in du.size_pmf]
    probs = [p for _, p in du.size_pmf]
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(40):
        assert du.sample_size(fast) == int(values[ref.choice(len(values), p=probs)])
    assert fast.random() == ref.random()


@settings(max_examples=EXAMPLES, deadline=None)
@given(channels(), st.integers(0, 2**32 - 1))
def test_channel_draws_equal_choice(chan, seed):
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for h in range(len(chan)):
        for _ in range(20):
            assert sample_channel(chan, h, fast) == \
                int(ref.choice(len(chan), p=chan.transition[h]))
    for _ in range(20):
        assert draw(chan.stationary_cdf, fast) == \
            int(ref.choice(len(chan), p=chan.stationary()))
    assert fast.random() == ref.random()


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(st.lists(channels(), min_size=1, max_size=3))
def test_product_chain_equals_loop(chans):
    expect = reference_product_chain(chans)
    for user in range(len(chans)):
        trans = joint_view(chans, user).transition
        assert np.array_equal(trans, expect)
        assert not any(np.shares_memory(trans, c.transition) for c in chans)


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(st.lists(channels(), min_size=1, max_size=3), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_joint_initial_equals_choice(chans, common, seed):
    if common:
        chans = [chans[0]] * len(chans)
    joint = JointChannel(chans, "common" if common else "independent")
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(10):
        assert joint.initial(fast) == reference_initial(joint, ref)
    assert fast.random() == ref.random()


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(slot_systems())
@example(([SPARSE_TEMPLATE, SPARSE_TEMPLATE], JointChannel(
    [ChannelModel(["g", "b"], [1.0, 1.0], [2.0, 1.0], [[0.5, 0.5], [0.0, 1.0]])] * 2,
    "independent"), 3))
def test_batched_slot_engine_equals_per_du_draws(inst):
    templates, joint, seed = inst
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    system = SlotSystem(templates, joint, fast)
    s0 = joint.initial(ref)
    buffers = [initial_buffer(t, 0, ref) for t in templates]
    contexts = [t.context(0) for t in templates]
    assert (system.s0, system.buffers) == (s0, buffers)
    for t in range(25):
        sent = [ScheduleAction(tuple(x * (t + u + 1) % (x + 1) for x in buf))
                for u, buf in enumerate(buffers)]
        expect, s0 = reference_advance(templates, joint, s0, contexts, buffers, sent, ref)
        steps = system.advance(sent)
        assert [(st_.context, st_.buffer, st_.arrivals, st_.dropped) for st_ in steps] \
            == expect
        assert system.s0 == s0
        contexts = [c for c, _, _, _ in expect]
        buffers = [b for _, b, _, _ in expect]
    assert fast.random() == ref.random()


# ---------------------------------------------------------------------------
# Frozen-policy memos
# ---------------------------------------------------------------------------

@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(slot_systems(), st.data())
def test_frozen_usage_equals_fresh_decisions(inst, data):
    """Decomposed agents at arbitrary fixed prices on small templates, where
    different phases often hold equal buffers and channel states differ in
    price: `replay` decides each distinct slot once, with the same usage and
    the same stream as deciding every slot."""
    templates, joint, seed = inst
    users = tuple(UserConfig(f"u{i}", t, c)
                  for i, (t, c) in enumerate(zip(templates, joint.channels)))
    sc = ScenarioConfig("memo", users, bandwidth=data.draw(st.sampled_from([0.5, 1.0, 2.0])),
                        channel_correlation=joint.correlation)
    agents = make_agents(sc, "decomposed")
    for a in agents:
        a.refresh(np.array([data.draw(values_) for _ in range(len(a.view))]))

    def band_request(system):
        requests, sent = slot_requests(agents, system, 1.0, sc.bandwidth)
        return sum(requests), sent

    results = []
    for run in (replay, reference_replay):
        rng = np.random.default_rng(seed)
        mean, _ = run(SlotSystem(templates, joint, rng), band_request, 200)
        results.append((mean, rng.random()))
    assert results[0] == results[1]


@pytest.mark.parametrize("common", [False, True])
@settings(max_examples=EXAMPLES // 6, deadline=None)
@given(st.data())
def test_block_drawn_replay_equals_fresh_decisions(common, data):
    """Over more than two draw blocks plus a remainder, `replay` gives the
    reference's per-state means, decides once per distinct slot state the
    reference visits, leaves the system in the reference's final slot and
    the generator where the reference leaves it."""
    templates, joint, seed = data.draw(slot_systems(common=common))
    users = tuple(UserConfig(f"u{i}", t, c)
                  for i, (t, c) in enumerate(zip(templates, joint.channels)))
    sc = ScenarioConfig("blocks", users, bandwidth=data.draw(st.sampled_from([0.5, 1.0, 2.0])),
                        channel_correlation=joint.correlation)
    agents = make_agents(sc, "decomposed")
    for a in agents:
        a.refresh(np.array([data.draw(values_) for _ in range(len(a.view))]))
    slots = 2 * pricing.REPLAY_BLOCK + 452

    results = []
    for run in (replay, reference_replay):
        rng = np.random.default_rng(seed)
        system = SlotSystem(templates, joint, rng)
        keys = []

        def band_request(system):
            keys.append(slot_key(system.s0, system.contexts, system.buffers))
            requests, sent = slot_requests(agents, system, 1.0, sc.bandwidth)
            return sum(requests), sent

        mean, decisions = run(system, band_request, slots)
        final = (system.s0, [c.phase for c in system.contexts], list(system.buffers))
        results.append((mean, final, rng.random(), decisions, keys))
    (mean, final, after, decisions, keys), (ref_mean, ref_final, ref_after, _, ref_keys) = results
    assert (mean, final, after) == (ref_mean, ref_final, ref_after)
    assert decisions == len(keys) == len(set(ref_keys))
    assert len(ref_keys) == slots


def _prepared(sol, seed):
    """Prepare `sol` on its own stream; return it and that stream's next draw."""
    rng = np.random.default_rng(seed)
    sol.prepare(rng)
    return sol, rng.random()


@pytest.mark.parametrize("name, solution", [("gop16-default", "proposed"),
                                            ("tiny-priced", "proposed-full"),
                                            ("illustration-2user", "proposed-learning")])
def test_memoised_evaluation_replay_equals_fresh_decisions(name, solution, monkeypatch):
    sc = preset(name)
    fast, fast_next = _prepared(build_solution(sc, solution, eval_slots=5_000), sc.seed)
    monkeypatch.setattr(pricing, "replay", reference_replay)
    ref, ref_next = _prepared(build_solution(sc, solution, eval_slots=5_000), sc.seed)
    assert fast.report.expected_usage == ref.report.expected_usage
    assert fast.report.residuals == ref.report.residuals
    assert fast_next == ref_next
    assert fast.report.eval_decisions < ref.report.eval_decisions == 5_000


@pytest.mark.parametrize("name", ["illustration-2user", "tiny-priced"])
def test_memoised_calibration_equals_fresh_clearing(name, monkeypatch):
    sc = preset(name)
    fast, fast_next = _prepared(ProposedSolution(sc, eval_slots=2_000, clearing=True),
                                sc.seed)
    cached = ProposedSolution.sent_actions

    def uncached(self, *state):
        decision = cached(self, *state)
        self._cache = {}
        return decision

    monkeypatch.setattr(harness, "replay", reference_replay)
    monkeypatch.setattr(ProposedSolution, "sent_actions", uncached)
    ref, ref_next = _prepared(ProposedSolution(sc, eval_slots=2_000, clearing=True),
                              sc.seed)
    assert fast.prices.lam == ref.prices.lam
    assert fast_next == ref_next


@pytest.mark.parametrize("name", ["illustration-2user", "tiny-priced"])
def test_memoised_uniform_price_usage_equals_fresh_decisions(name, monkeypatch):
    sc = preset(name)
    fast, fast_next = _prepared(UniformPriceSolution(sc, usage_slots=600), sc.seed)
    calls = []

    def counted_replay(*args):
        calls.append(1)
        return reference_replay(*args)

    # the agents' `usage_by_view` runs the replay
    monkeypatch.setattr(pricing, "replay", counted_replay)
    ref, ref_next = _prepared(UniformPriceSolution(sc, usage_slots=600), sc.seed)
    assert calls
    assert fast.result.usage_by_state == ref.result.usage_by_state
    assert fast.price == ref.price
    assert fast_next == ref_next


@settings(max_examples=EXAMPLES // 6, deadline=None)
@given(slot_systems(), st.data())
def test_decomposed_usage_by_view_equals_fresh_decisions(inst, data):
    """An agent's single-user `usage_by_view` replay gives the usage and
    leaves the generator as deciding and advancing every slot does."""
    templates, joint, seed = inst
    user = UserConfig("u", templates[0], joint.channels[0])
    agent = DecomposedAgent(user, own_view([user.channel], 0),
                            data.draw(st.sampled_from([0.0, 0.9])))
    agent.refresh(np.array([data.draw(values_) for _ in range(len(agent.view))]))
    b = data.draw(st.sampled_from([0.5, 1.0]))

    def request(system):
        (h,), (buf,), (ctx,) = system.s0, system.buffers, system.contexts
        act = agent.act(ctx, buf, h)
        return act.total * b / user.channel.rate[h], [act]

    rng = np.random.default_rng(seed)
    mean, _ = reference_replay(SlotSystem([user.template], JointChannel([user.channel]), rng),
                               request, 300)
    fast_rng = np.random.default_rng(seed)
    assert agent.usage_by_view(b, fast_rng, 300).tolist() == \
        [mean.get((h,), 0.0) for h in range(len(user.channel))]
    assert fast_rng.random() == rng.random()


# ---------------------------------------------------------------------------
# Band scaling
# ---------------------------------------------------------------------------

@st.composite
def band_slots(draw_):
    """1-3 users' contexts, buffers and feasible actions, with per-user rates
    and a band from far below to far above the total request."""
    users = []
    for _ in range(draw_(st.integers(1, 3))):
        ctx, buffer = draw_(instances())[4:6]
        action = ScheduleAction(tuple(draw_(st.integers(0, x)) for x in buffer))
        users.append((ctx, buffer, action))
    contexts, buffers, actions = (list(col) for col in zip(*users))
    rates = [draw_(st.sampled_from([1.0, 2.0, 3.0, 4.5])) for _ in users]
    bits = draw_(st.sampled_from([0.5, 1.0]))
    bandwidth = draw_(st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                                st.floats(0.01, 20.0, allow_nan=False)))
    return contexts, buffers, actions, rates, bits, bandwidth


@settings(max_examples=EXAMPLES, deadline=None)
@given(band_slots())
def test_budget_scaling_equals_impact_order_loops(inst):
    """The trim and the inflate fill in impact order through `hdf_schedule`:
    send for send what the per-user loops they replaced produced."""
    contexts, buffers, actions, rates, bits, bandwidth = inst
    down = scale_to_budget(contexts, actions, rates, bits, bandwidth)
    assert [a.sends for a in down] == [a.sends for a in reference_scale_to_budget(
        contexts, actions, rates, bits, bandwidth)]
    up = scale_up_to_budget(contexts, actions, buffers, rates, bits, bandwidth)
    assert [a.sends for a in up] == [a.sends for a in reference_scale_up_to_budget(
        contexts, actions, buffers, rates, bits, bandwidth)]


# ---------------------------------------------------------------------------
# User MDP action table
# ---------------------------------------------------------------------------

@settings(max_examples=EXAMPLES, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=5))
@example([])
@example([0, 3, 0])
def test_buffer_grid_equals_product_enumeration(caps):
    grid = buffer_grid(caps)
    count = int(np.prod([c + 1 for c in caps]))
    want = np.array(list(product(*(range(c + 1) for c in caps))),
                    dtype=np.int64).reshape(count, len(caps))
    assert (grid.dtype, grid.shape) == (want.dtype, want.shape)
    assert np.array_equal(grid, want)


def assert_same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
    assert a.shape == b.shape
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@settings(max_examples=EXAMPLES, deadline=None)
@given(user_mdps())
def test_traffic_kernel_equals_action_walk(inst):
    mdp, _price, _seed = inst
    assert_same_csr(mdp.traffic_kernel, reference_traffic_kernel(mdp))
    walk = [(p, act) for _, p, buf in mdp.layout.iter_states()
            for act in iter_actions(mdp.layout.contexts[p], buf, mdp.min_quality)]
    assert mdp.ta_total.tolist() == [act.total for _, act in walk]
    gains = [float(np.dot(mdp.layout.impacts[p], act.sends)) for p, act in walk]
    assert mdp.ta_gain.tolist() == gains
    assert mdp.payoff_table.tolist() == [
        [g - mdp.beta * transmit_energy(float(h), act.total) for h in mdp.view.gain]
        for g, (_, act) in zip(gains, walk)]


@settings(max_examples=EXAMPLES, deadline=None)
@given(user_mdps())
def test_action_lookups_equal_action_walk(inst):
    mdp, price, seed = inst
    lay = mdp.layout
    table = random_table(mdp, price, seed)
    for t_idx, phase, buf in lay.iter_states():
        walk = list(iter_actions(lay.contexts[phase], buf, mdp.min_quality))
        lo = int(mdp.group_start[t_idx])
        assert int(mdp.group_start[t_idx + 1]) - lo == len(walk)
        for k, act in enumerate(walk):
            got = mdp.action_for(t_idx, lo + k)
            assert got == act and all(type(y) is int for y in got.sends)
            assert mdp.ta_of(t_idx, act) == lo + k
        for v in range(len(mdp.view)):
            assert table.action_of(phase, buf, v) == walk[table.policy[t_idx, v] - lo]
        with pytest.raises(ModelError, match="not in the action set"):
            mdp.ta_of(t_idx, ScheduleAction(buf + (0,)))
        if buf:
            with pytest.raises(ModelError, match="not in the action set"):
                mdp.ta_of(t_idx, ScheduleAction((buf[0] + 1,) + buf[1:]))


@settings(max_examples=EXAMPLES, deadline=None)
@given(user_mdps())
def test_policy_chain_and_exact_value_equal_loops(inst):
    mdp, price, seed = inst
    table = random_table(mdp, price, seed)
    assert_same_csr(mdp.policy_transition(table), reference_policy_transition(mdp, table))
    assert np.array_equal(mdp.exact_policy_value(table),
                          reference_exact_policy_value(mdp, table))
    assert np.array_equal(mdp.exact_policy_value(table, price),
                          reference_exact_policy_value(mdp, table, price))


@settings(max_examples=EXAMPLES, deadline=None)
@given(priced_solves())
def test_policy_iteration_solve_matches_value_iteration(inst):
    mdp, price, warm_price, tol = inst
    init = None if warm_price is None else mdp.solve(warm_price, tol=tol).values
    table = mdp.solve(price, tol=tol, init=init)
    reward = mdp.priced_reward(price)
    margin = tol * (1.0 - mdp.discount)
    ref = reference_user_solve(mdp, price, 1e-12, init)
    best = mdp.backup(table.values, reward)[0]
    assert np.max(np.abs(table.values - ref)) <= tol + 1e-12
    assert np.max(np.abs(best - table.values)) <= margin
    assert np.array_equal(table.policy, mdp.greedy(table.values, reward))
    chosen = np.take_along_axis(mdp.q_values(table.values, reward), table.policy, axis=0)
    assert np.all(chosen >= best - margin)


def test_policy_iteration_steps_on_gop16_user():
    """gop16-default user 1 (11,264 states), whose DUs of equal worth give
    many near-tied actions: a cold solve at the settled prices and a warm
    re-solve after a 1% price move stop within 10 and 2 steps, and a cap
    below the cold solve's steps raises."""
    sc = preset("gop16-default")
    u = sc.users[1]
    view = common_view(u.channel, len(sc.users), user=1)
    mdp = UserMdp(u.template, view, u.beta, u.min_quality, sc.bits_per_packet,
                  sc.discount)
    lam = {(0, 0): 1.267, (1, 1): 1.419}
    cold = mdp.solve(view.price_vector(lam, sc.bits_per_packet), tol=1e-7)
    moved = view.price_vector({k: 1.01 * x for k, x in lam.items()}, sc.bits_per_packet)
    warm = mdp.solve(moved, tol=1e-7, init=cold.values)
    assert cold.steps <= 10 and warm.steps <= 2
    with pytest.raises(ModelError, match=r"did not converge in 2 steps \(last step's largest gain"):
        mdp.solve(view.price_vector(lam, sc.bits_per_packet), tol=1e-7, max_iter=2)


@settings(max_examples=EXAMPLES, deadline=None)
@given(user_mdps())
def test_pds_planning_values_equal_per_post_kernel(inst):
    mdp, price, seed = inst
    table = random_table(mdp, price, seed)
    expect = reference_pds_kernel(mdp.layout) @ (table.values @ mdp.view.transition.T)
    assert np.array_equal(mdp.pds_planning_values(table), expect)


# ---------------------------------------------------------------------------
# Joint kernel
# ---------------------------------------------------------------------------

@contextmanager
def built_kernels():
    """Record every result of oracle.build_joint_kernel while open."""
    built = []
    build = oracle.build_joint_kernel

    def record(*args, **kwargs):
        out = build(*args, **kwargs)
        built.append(out)
        return out

    oracle.build_joint_kernel = record
    try:
        yield built
    finally:
        oracle.build_joint_kernel = build


def assert_same_kernel(built, kernel, reward, starts) -> None:
    assert len(built) == 1
    got_kernel, got_reward, got_starts = built[0]
    assert_same_csr(got_kernel, kernel)
    assert got_reward.dtype == reward.dtype and got_reward.tobytes() == reward.tobytes()
    assert got_starts.dtype == starts.dtype and np.array_equal(got_starts, starts)


def mixed_rule(jphase, buffers, c0):
    """A deterministic rule that sends anything from 0 to the whole buffer."""
    return [ScheduleAction(tuple(x * (jphase + c0 + u + 1) % (x + 1) for x in buf))
            for u, buf in enumerate(buffers)]


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(joint_scenarios())
def test_joint_kernel_callers_equal_pair_loop(inst):
    sc, prices = inst
    try:
        kernel, reward, starts, values, policy, sweeps = reference_oracle(sc)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            oracle.centralized_oracle(sc)
        assert str(got.value) == str(exc)
    else:
        with built_kernels() as built:
            orc = oracle.centralized_oracle(sc)
        assert_same_kernel(built, kernel, reward, starts)
        assert orc.values.tobytes() == values.tobytes()
        assert orc.policy == policy and orc.sweeps == sweeps
        assert all(type(y) is int for acts in orc.policy.values() for a in acts for y in a)

    kernel, reward, starts, values = reference_penalized(sc, prices)
    with built_kernels() as built:
        got, _ = oracle.penalized_joint_value(sc, prices)
    assert_same_kernel(built, kernel, reward, starts)
    assert got.tobytes() == values.tobytes()

    kernel, reward, starts, values = reference_joint_value(sc, mixed_rule)
    with built_kernels() as built:
        got, _ = oracle.joint_value_of(sc, mixed_rule)
    assert_same_kernel(built, kernel, reward, starts)
    assert got.tobytes() == values.tobytes()


@pytest.mark.parametrize("name", ["myopic", "proposed"])
def test_evaluate_solution_equals_pair_loop(name):
    sc = replace(preset("tiny-asym"), channel_correlation="independent")
    sol = build_solution(sc, name)
    sol.prepare(np.random.default_rng(sc.seed))
    states = JointChannel(sc.channels, sc.channel_correlation).all_states()

    def rule(jphase, buffers, c0):
        ctxs = [t.context(jphase % t.period) for t in sc.templates]
        return sol.sent_actions(states[c0], ctxs, buffers).sent

    kernel, reward, starts, values = reference_joint_value(sc, rule)
    with built_kernels() as built:
        got, _ = oracle.evaluate_solution(sc, sol)
    assert_same_kernel(built, kernel, reward, starts)
    assert got.tobytes() == values.tobytes()
