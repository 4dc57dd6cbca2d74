"""Differential tests: every fast path against simple reference code.

The slot loops are stepped against `reference_model.SlotModel`, a
dict-based simulator written from the model's definitions that shares no
code with the library: `SlotSystem`'s start-up and `advance` directly;
the frozen-rule `walk` (evaluation replay, clearing calibration,
uniform-price usage, episodes) against `reference_replay` and
`reference_run_episode`, which decide every slot afresh and build every
record field from the model's instances, drops, payoffs and band usage;
the coordination loop against `reference_run_coordination`, which
recomputes every agent's price vector, refresh gate and settle window
each slot; and the clearing search on the slot states of model episodes.

The other references are plain versions of what the fast paths compute:
the per-buffer-level loop solve, the round-by-round decomposed scheduler
that re-evaluates every root each round (for planned tables) and a per-DU
loop over sends (for learned tables), `rng.choice` draws, the user MDP's
per-action loops (traffic kernel, policy chain, post-decision kernel,
action lookups by re-walking `iter_actions`, a fresh `spsolve` for each
exact evaluation in place of the kept LU factor), the joint kernel's loop
over (joint state, joint action) pairs with its `choices` callback, the
exact evaluation asking `sent_actions` at every joint state in place of
the table solutions' one array pass, `size_at` and `bisect_right` on each
uniform in place of the block-wide outcome tuples, the per-user trim and
inflate loops of the band scaling, the slot-by-slot fills and trims in
place of their row-array forms, the within-slot clearing search
re-pricing every agent with `act_at` at each trial price in place of its
per-slot price responses, the drift rule's loop over send totals and the
user MDP's warm start maximising every view state from the table's
values. Results must agree exactly (==), not approximately. The one
exception is the user MDP's policy-iteration solve: its reference, value
iteration, stops at a tolerance, so the two agree within it.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from itertools import islice, product

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    ThresholdAgent,
    assert_same_tables,
    context_edges,
    drift_objective,
    episode_slot_states,
    model_slot,
    scenario_model,
    shared_view,
)
from reference_model import SlotModel
from wvsched import harness, oracle, pricing, scheduling
from wvsched.baselines import lyapunov_action, scale_rows_up_to_budget, scale_up_to_budget
from wvsched.harness import (
    DecomposedAgent,
    ProposedSolution,
    UniformPriceSolution,
    build_solution,
    make_agents,
)
from wvsched.learning import DuPdsLearner
from wvsched.mdp import (
    ChannelView,
    TrafficLayout,
    UserMdp,
    ValueTable,
    buffer_grid,
    entering_combos,
    joint_view,
    own_view,
    stationary_law,
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
    iter_actions,
    transmit_energy,
)
from wvsched.oracle import JointSpace
from wvsched.pricing import (
    JointChannel,
    PriceTable,
    SlotSystem,
    replay,
    scale_rows_to_budget,
    scale_to_budget,
    slot_key,
    slot_requests,
)
from wvsched.scenario import list_presets, preset
from wvsched.scheduling import (
    SingleDuModel,
    build_du_tables,
    decomposed_response,
    decomposed_schedule,
    fill,
    fill_rows,
)

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
            cont = tables[slot.du.du_id].post[context.age_of(i), x::-1, view_state]
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


def reference_closed_classes(p: np.ndarray) -> list[np.ndarray]:
    """The closed classes of the dense chain `p`, from its reachability
    closure: a state is in one when every state it reaches reaches it back,
    and its class is the set it reaches."""
    reach = (p > 0) | np.eye(len(p), dtype=bool)
    while True:
        wider = (reach.astype(float) @ reach.astype(float)) > 0
        if (wider == reach).all():
            break
        reach = wider
    closed = [i for i in range(len(p)) if (reach[:, i] | ~reach[i]).all()]
    return [np.array(c) for c in sorted({tuple(np.flatnonzero(reach[i])) for i in closed})]


def reference_stationary_law(p: np.ndarray) -> np.ndarray:
    """The stationary law of the irreducible dense chain `p`: its
    eigenvector of eigenvalue 1, normalised."""
    w, v = np.linalg.eig(p.T)
    law = v[:, np.argmin(np.abs(w - 1.0))].real
    return law / law.sum()


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
    """`replay` on the reference model from the system's slot: each slot is
    written to the system, decided afresh by `decide` and stepped by the
    model; the slot after the last is written back."""
    model = SlotModel(system.templates, system.joint.channels, system.rng,
                      system.joint.correlation == "common", system.s0,
                      [c.phase for c in system.contexts], system.buffers)
    total, visits = {}, {}
    for _ in range(slots):
        system.s0, system.contexts, system.buffers = model_slot(model)
        s0 = model.s0
        value, sent = decide(system)
        total[s0] = total.get(s0, 0.0) + value
        visits[s0] = visits.get(s0, 0) + 1
        model.run_slot([a.sends for a in sent])
    system.s0, system.contexts, system.buffers = model_slot(model)
    return {s0: t / visits[s0] for s0, t in total.items()}, slots


def replays(templates, joint, seed, decide, slots):
    """`replay`, then `reference_replay`, of the rule `decide` for `slots`
    slots from a `SlotSystem` started on a generator seeded `seed`: each
    one's means, decisions, the slot keys it decided in order, its final
    slot key and the generator's next draw."""
    out = []
    for run in (replay, reference_replay):
        rng = np.random.default_rng(seed)
        system = SlotSystem(templates, joint, rng)
        keys = []

        def decided(system):
            keys.append(slot_key(system.s0, system.contexts, system.buffers))
            return decide(system)

        mean, decisions = run(system, decided, slots)
        out.append((mean, decisions, keys, slot_key(system.s0, system.contexts, system.buffers),
                    rng.random()))
    return out


def sent_totals(solution):
    """The rule deciding `solution`'s sends, valued by their total."""
    def decide(system):
        decision = solution.sent_actions(system.s0, system.contexts, system.buffers)
        return float(sum(a.total for a in decision.sent)), decision.sent
    return decide


def tally(totals: dict, pairs) -> dict:
    """`totals` with each (name, count) of `pairs` added, in order."""
    for name, n in pairs:
        totals[name] = totals.get(name, 0) + n
    return totals


def reference_run_episode(scenario, solution, slots, rng, pinned_channels=None):
    """`run_episode` on the reference model: every slot decided afresh, its
    record built from the model's instances, payoffs, band usage and drops,
    and the totals folded from the records and arrivals; `decisions`
    counts the distinct slot states it visited."""
    sc, n = scenario, len(scenario.users)
    if pinned_channels is not None and sc.channel_correlation != "common":
        raise ModelError("pinned channel replay requires common correlation")
    pins = None if pinned_channels is None else [(int(h),) * n for h in pinned_channels]
    model = scenario_model(sc, rng, None if pins is None else pins[0])
    trace = harness.EpisodeTrace(sc.name, solution.name)
    trace.arrived = [tally({}, model.traffic(i)) for i in range(n)]
    keys = set()
    for t in range(slots):
        s0, contexts, buffers = model_slot(model)
        keys.add(slot_key(s0, contexts, buffers))
        decision = solution.sent_actions(s0, contexts, buffers)
        usage = model.usage([act.total for act in decision.sent], sc.bits_per_packet)
        users = [harness.UserSlotRecord(model.traffic(i), decision.raw[i].sends, act.sends, {},
                                        *model.payoff(i, act.sends, u.beta), usage[i] / sc.bandwidth)
                 for i, (u, act) in enumerate(zip(sc.users, decision.sent))]
        steps = model.run_slot([act.sends for act in decision.sent],
                               None if pins is None else pins[min(t + 1, len(pins) - 1)])
        for i, (rec, (arrivals, drops)) in enumerate(zip(users, steps)):
            tally(rec.dropped, ((model.name(i, key), x) for key, x in drops.items()))
            tally(trace.arrived[i], ((model.name(i, key), x) for key, x in arrivals.items()))
        names = tuple(u.channel.names[h] for u, h in zip(sc.users, s0))
        trace.records.append(harness.SlotRecord(t + 1, tuple(s0), names, decision.lam0, users,
                                                2 * n))
    recs = [[rec.users[i] for rec in trace.records] for i in range(n)]
    trace.sent_totals = [tally({}, ((name, y) for ur in urs for (name, _), y in
                                    zip(ur.traffic, ur.sent) if y)) for urs in recs]
    trace.dropped_totals = [tally({}, (x for ur in urs for x in ur.dropped.items()))
                            for urs in recs]
    trace.remaining = [tally({}, model.traffic(i)) for i in range(n)]
    trace.decisions = len(keys)
    return trace


def reference_clear(solution, s0, contexts, buffers, raw):
    """`PricedRuntime._clear` re-pricing every agent with `act_at` at each
    trial price. Returns the actions, the clearing price and each trial's
    band price and actions in order."""
    sc = solution.scenario
    rates = [u.channel.rate[h] for u, h in zip(sc.users, s0)]
    trials = []

    def acts_at(lam0):
        acts = [a.act_at(ctx, buf, a.view.view_state(s0),
                         lam0 * sc.bits_per_packet / a.channel.rate[s0[i]])
                for i, (a, ctx, buf) in enumerate(zip(solution.agents, contexts, buffers))]
        trials.append((lam0, acts))
        return acts

    def fits(acts) -> bool:
        return bandwidth_usage([a.total for a in acts], rates,
                               sc.bits_per_packet) <= sc.bandwidth + 1e-12

    lam0 = solution.prices.get(tuple(s0))
    if fits(raw):
        return raw, lam0, trials
    lo, hi = lam0, max(lam0, 1e-3)
    acts_hi = raw
    for _ in range(60):
        hi *= 2.0
        acts_hi = acts_at(hi)
        if fits(acts_hi):
            break
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        acts_mid = acts_at(mid)
        if fits(acts_mid):
            hi, acts_hi = mid, acts_mid
        else:
            lo = mid
    return acts_hi, hi, trials


def reference_lyapunov_action(context, buffer, price, beta, gain_to_noise, delta,
                              expected_arrivals) -> ScheduleAction:
    """The drift-greedy action by a Python loop over totals: the last total
    of the best `drift_objective`, drained by buffer position."""
    backlog = int(sum(buffer))
    best_m, best_val = 0, -np.inf
    for m in range(backlog + 1):
        val = drift_objective(backlog, m, expected_arrivals, price, beta,
                              gain_to_noise, delta)
        if val >= best_val:
            best_val, best_m = val, m
    sends = []
    room = best_m
    for x in buffer:
        take = min(x, room)
        sends.append(take)
        room -= take
    return ScheduleAction(tuple(sends))


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


def reference_first_maximiser(mdp: UserMdp, q: np.ndarray) -> np.ndarray:
    """Each traffic state's first maximising row of `q`, one view state
    (column) at a time."""
    vmax = np.maximum.reduceat(q, mdp.group_start[:-1], axis=0)
    pos = np.arange(mdp.n_ta, dtype=np.int64)
    policy = np.empty(vmax.shape, dtype=np.int64)
    for v in range(q.shape[1]):
        hit = np.where(q[:, v] >= vmax[mdp.ta_state, v], pos, mdp.n_ta)
        policy[:, v] = np.minimum.reduceat(hit, mdp.group_start[:-1])
    return policy


def reference_warm_solve(mdp: UserMdp, price, tol: float, init_values=None,
                         max_iter: int = 1_000) -> ValueTable:
    """`UserMdp.solve` started from the greedy policy of `init_values` (of
    zeros if None) in every view state, each Q built afresh from values,
    every array (rows, view states) in C order. The table carries the last
    step's continuation."""
    reward = mdp.priced_reward(price)
    values = (np.zeros((mdp.layout.n_traffic, len(mdp.view))) if init_values is None
              else init_values)

    def cont_of(values):
        mixed = values @ mdp.view.transition.T
        return mdp.discount * (mdp.traffic_kernel @ mixed)

    policy = reference_first_maximiser(mdp, reward + cont_of(values))
    margin = tol * (1.0 - mdp.discount)
    for steps in range(1, max_iter + 1):
        values = mdp.exact_policy_value(ValueTable(mdp, values, policy, price), price)
        cont = cont_of(values)
        q = reward + cont
        best = np.maximum.reduceat(q, mdp.group_start[:-1], axis=0)
        choice = reference_first_maximiser(mdp, q)
        better = best - values > margin
        if not better.any():
            return ValueTable(mdp, values, choice, np.asarray(price), steps, cont)
        policy = np.where(better, choice, policy)
    raise ModelError("reference policy iteration did not converge")


def reference_run_coordination(agents, *, bandwidth, bits_per_packet, correlation="independent",
                               tolerance=1e-3, max_slots=200_000, eval_slots=20_000, rng=None):
    """`run_coordination` recomputing everything every slot (each agent's
    whole `price_vector`, the refresh gate for every agent, every window's
    settle test) on the reference model's traffic and channel, then the
    library's frozen replay from the model's last slot."""
    rng = rng if rng is not None else np.random.default_rng(0)
    table = PriceTable()
    joint = JointChannel([a.channel for a in agents], correlation)
    model = SlotModel([a.template for a in agents], joint.channels, rng, correlation == "common")
    # what `slot_requests` and `replay` read: a `SlotSystem`, whose own
    # start-up draws go to a spare generator, put at the model's slot
    system = SlotSystem(model.templates, joint, np.random.default_rng(0))
    system.rng = rng
    last_price_vec = [None] * len(agents)
    refreshes = [0] * len(agents)
    solves = [a.solves for a in agents]
    refresh_gate = tolerance / 10.0
    windows = {}
    converged = False
    slots = 0

    def state_settled(win):
        if len(win) < pricing.SWEEP_FACTOR + 1:
            return False
        if max(step for step, _ in win) > tolerance:
            return False
        return abs(win[-1][1] - win[0][1]) <= tolerance

    for slots in range(1, max_slots + 1):
        for i, agent in enumerate(agents):
            vec = agent.view.price_vector(table.lam, bits_per_packet)
            now, last = vec.tolist(), last_price_vec[i]
            if last is None or any(abs(a - b) > refresh_gate for a, b in zip(now, last)):
                agent.refresh(vec)
                last_price_vec[i] = now
                refreshes[i] += 1
        system.s0, system.contexts, system.buffers = model_slot(model)
        s0, contexts = system.s0, system.contexts
        requests, sent = slot_requests(agents, system, bits_per_packet, bandwidth)
        lam_before = table.get(s0)
        pricing.update_prices(table, s0, requests, bandwidth)
        win = windows.setdefault(s0, deque(maxlen=pricing.SWEEP_FACTOR + 1))
        win.append((abs(table.get(s0) - lam_before), table.get(s0)))
        s0_next = model.next_channel()
        for i, agent in enumerate(agents):
            agent.observe(contexts[i], system.buffers[i], agent.view.view_state(s0),
                          sent[i], agent.view.view_state(s0_next))
        model.run_slot([act.sends for act in sent], s0_next)
        if all(state_settled(w) for w in windows.values()):
            converged = True
            break
    system.s0, system.contexts, system.buffers = model_slot(model)

    report = pricing.CoordinationReport(
        prices=dict(table.lam), counts=dict(table.counts), slots_run=slots,
        converged=converged, price_trace=list(table.history),
        price_trace_dropped=table.updates - len(table.history),
        exchange_messages_per_slot=2 * len(agents), refreshes=refreshes,
        solves=[a.solves - before for a, before in zip(agents, solves)])
    if not converged:
        raise pricing.CoordinationError("reference did not settle", report)
    for agent in agents:
        agent.freeze()
        agent.refresh(agent.view.price_vector(table.lam, bits_per_packet))

    def band_request(system):
        requests, sent = slot_requests(agents, system, bits_per_packet, bandwidth)
        return sum(requests), sent

    memo = {}
    report.expected_usage, report.eval_decisions = replay(system, band_request, eval_slots, memo)
    report.eval_transitions = sum(len(entry[-1]) for entry in memo.values())
    report.eval_slots = eval_slots
    for key, mean_usage in report.expected_usage.items():
        report.residuals[key] = abs(table.get(key) * (mean_usage - bandwidth))
    return table, report


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
def channels(draw_, max_states=3, min_states=1, one_class=True):
    """Chains of min_states to max_states states, zero-probability moves
    among them. Only chains with one closed class, whose stationary law is
    unique, unless `one_class` is False: `ChannelModel.stationary` refuses
    the others, so those serve only tests that read no stationary law."""
    n = draw_(st.integers(min_states, max_states))
    rows = []
    for _ in range(n):
        w = draw_(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        w[draw_(st.integers(0, n - 1))] += 0.05
        total = sum(w)
        rows.append([p / total for p in w])
    chan = ChannelModel([f"s{h}" for h in range(n)], [1.4] * n,
                        [float(3 + h) for h in range(n)], rows)
    assume(not one_class or chan.closed_classes() == 1)
    return chan


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
    view = shared_view(draw_(channels(one_class=False)), 1)
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
        view = shared_view(draw_(channels(one_class=False)), 1)
    else:
        chans = []
        for _ in range(2):
            c = draw_(channels(max_states=2, one_class=(kind == "own")))
            gains = [draw_(st.sampled_from([0.5, 1.4, 3.0])) for _ in range(len(c))]
            chans.append(ChannelModel(c.names, gains, c.rate, c.transition))
        view = (joint_view if kind == "joint" else own_view)(JointChannel(chans),
                                                               draw_(st.integers(0, 1)))
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
    view = shared_view(draw_(channels(max_states=2, one_class=False)), 1)
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


def priced_agents(templates, joint, data, name):
    """A scenario of `templates` on `joint` at a drawn band, and its
    decomposed agents refreshed at drawn prices."""
    users = tuple(UserConfig(f"u{i}", t, c)
                  for i, (t, c) in enumerate(zip(templates, joint.channels)))
    sc = ScenarioConfig(name, users, bandwidth=data.draw(st.sampled_from([0.5, 1.0, 2.0])),
                        channel_correlation=joint.correlation)
    agents = make_agents(sc, "decomposed")
    for a in agents:
        a.refresh(np.array([data.draw(values_) for _ in range(len(a.view))]))
    return sc, agents


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
    assert set(tables.layout.kind_of) == {du.du_id for du in tpl.dus}
    arrays = []
    for du in tpl.dus:
        tab = tables[du.du_id]
        assert tables[du.du_id] is tab
        own = SingleDuModel(du, tpl.window, view, delta).solve(price)
        for name in ("values", "post", "best_send", "margin"):
            assert np.array_equal(getattr(tab, name), getattr(own, name))
            arrays.append(getattr(tab, name))
    for a in range(len(arrays)):
        for b in range(a + 1, len(arrays)):
            assert not np.shares_memory(arrays[a], arrays[b])


def assert_tables_match_reference(tpl, view, delta, price):
    """Each DU's `build_du_tables` arrays are `reference_solve` of its own
    model, byte for byte (so signed zeros count), with the margins it was
    solved at."""
    tables = build_du_tables(tpl, view, delta, price)
    for du in tpl.dus:
        tab = tables[du.du_id]
        values, post, best_send = reference_solve(SingleDuModel(du, tpl.window, view, delta),
                                                  price)
        margin = (1.0 - delta) * (du.distortion_impact - np.asarray(price))
        for got, want in ((tab.values, values), (tab.post, post),
                          (tab.best_send, best_send), (tab.margin, margin)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@settings(max_examples=EXAMPLES, deadline=None)
@given(instances())
def test_one_induction_over_all_kinds_equals_loop_solve_per_du(inst):
    tpl, view, delta, price, *_ = inst
    assert_tables_match_reference(tpl, view, delta, price)


def _two_kinds(caps, window=3):
    return GopTemplate([DataUnitSpec(0, "I", 4.0, 0, ((caps[0], 1.0),)),
                        DataUnitSpec(1, "P", 1.5, 1, ((0, 0.5), (caps[1], 0.5)), (0,))],
                       2, window)


def _gop16_cases():
    sc = preset("gop16-default")
    return [(u.template, v, sc.discount, np.array([1.2, 1.4]))
            for u, v in zip(sc.users, harness.build_views(sc))]


TWO_STATE = ChannelModel(["bad", "good"], [1.0, 1.4], [2.0, 6.0], [[0.7, 0.3], [0.4, 0.6]])


@pytest.mark.parametrize("case", [
    "caps 1 and 40", "gop16", "one kind", "one DU", "joint view", "prices above impacts"])
def test_one_induction_on_fixed_templates_equals_loop_solve_per_du(case):
    common = shared_view(TWO_STATE, 2)
    if case == "caps 1 and 40":
        cases = [(_two_kinds((1, 40)), common, 0.9, np.array([0.5, 2.0]))]
    elif case == "gop16":
        cases = _gop16_cases()
        assert {cap for tpl, *_ in cases for _, cap in tpl.du_layout.kinds} == {2, 3, 6}
        assert {tpl.window for tpl, *_ in cases} == {8}
    elif case == "one kind":
        dus = [DataUnitSpec(i, f"D{i}", 2.0, i, ((3, 1.0),)) for i in range(3)]
        cases = [(GopTemplate(dus, 3, 2), common, 0.8, np.array([1.0, 2.5]))]
        assert len(cases[0][0].du_layout.kinds) == 1
    elif case == "one DU":
        cases = [(GopTemplate([DataUnitSpec(0, "D", 2.0, 0, ((5, 1.0),))], 1, 4),
                  common, 0.8, np.array([1.0, 2.5]))]
    elif case == "joint view":
        view = joint_view(JointChannel([TWO_STATE, TWO_STATE]), 0)
        assert len(view) == 4
        cases = [(_two_kinds((2, 6), window=4), view, 0.95, np.array([0.3, 1.1, 2.0, 5.0]))]
    else:
        # every margin negative: each DU sends nothing, and y = 0's gain of
        # 0 * margin = -0.0 plus a zero continuation reads +0.0
        cases = [(_two_kinds((3, 5)), common, 0.0, np.array([7.0, 9.0]))]
    for tpl, view, delta, price in cases:
        assert_tables_match_reference(tpl, view, delta, price)


def test_templates_with_equal_du_counts_get_their_own_layouts():
    """The layout lives on its template: two live templates with as many DUs
    but other caps each solve on their own rows."""
    view = shared_view(TWO_STATE, 2)
    small, large = _two_kinds((2, 1)), _two_kinds((5, 3))
    assert small.du_layout is small.du_layout
    assert small.du_layout is not large.du_layout
    assert small.du_layout.kinds == ((4.0, 2), (1.5, 1))
    assert large.du_layout.kinds == ((4.0, 5), (1.5, 3))
    for tpl, caps in ((small, (2, 1)), (large, (5, 3)), (small, (2, 1))):
        tables = build_du_tables(tpl, view, 0.9, np.array([0.5, 2.0]))
        assert [tables[i].values.shape[1] for i in (0, 1)] == [c + 1 for c in caps]
        assert_tables_match_reference(tpl, view, 0.9, np.array([0.5, 2.0]))


# ---------------------------------------------------------------------------
# Decomposed scheduling
# ---------------------------------------------------------------------------

def _same(ctx, buf, v, price, tables, delta):
    act = decomposed_schedule(ctx, buf, v, price, tables, delta)
    assert act.sends == reference_schedule(ctx, buf, v, price, tables, delta)
    assert decomposed_response(ctx, buf, v, tables, delta)(price) == act


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
    view = shared_view(ChannelModel(["only"], [1.0], [1.0], [[1.0]]), 1)
    planned = build_du_tables(tpl, view, 0.0, np.zeros(1))
    learned = {0: DuPdsLearner(du.distortion_impact, tpl.window, 0.0)}
    for tables in (planned, learned):
        assert decomposed_schedule(ctx, (1,), 0, 0.0, tables, 0.0).sends == (1,)


def decomposed_agent(tpl, view, delta, price) -> DecomposedAgent:
    """A DecomposedAgent of `tpl` on `view`, refreshed at `price`."""
    channel = ChannelModel([f"s{h}" for h in range(len(view))], view.gain, view.rate,
                           view.transition)
    agent = DecomposedAgent(UserConfig("u", tpl, channel), view, delta)
    agent.refresh(price)
    return agent


def reference_best(tab, age: int, x: int, view_state: int, margin: float,
                   discount: float) -> int:
    """The per-DU rule: the smallest y = 0..x maximising
    margin * y + discount * post[age, x - y] of one DU's `DuValueTable`
    (post is 0 at the last age)."""
    vals = margin * np.arange(x + 1) + discount * tab.post[age, x::-1, view_state]
    return int(np.argmax(vals))


def per_du_schedule(context, buffer, view_state, price, tables, discount) -> tuple:
    """The decomposed rule as one `reference_best` query per DU, in double
    arithmetic: price, discount and each impact taken as Python floats."""
    price, discount = float(price), float(discount)
    return tuple(reference_best(
        tables[slot.du.du_id], context.age_of(i), buffer[i], view_state,
        (1.0 - discount) * (float(slot.du.distortion_impact) - price), discount)
        for i, slot in enumerate(context.slots))


@contextmanager
def no_evaluation():
    """Fail any planned decision that is evaluated rather than looked up."""
    def evaluated(*args):
        raise AssertionError("a planned decision was evaluated, not looked up")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduling, "decomposed_response", evaluated)
        yield


def assert_lookup_is_the_scalar_rule(agent, ctx, buffers, views, lams=()) -> None:
    """`act` at each (buffer, view state), and `table_sends` of the stacked
    buffers row by row, are lookups that build no per-DU table, and are the
    per-DU rule and the evaluated `reference_schedule` at the agent's own
    price there, where every DU's margin is the solved one. `act_at` and
    `price_response` at each price of `lams` are the per-DU rule too."""
    built = set(agent.tables._tables)
    rows = np.array(buffers, dtype=np.int64).reshape(len(buffers), len(ctx))
    with no_evaluation():
        acts = [agent.act(ctx, buf, v).sends for buf, v in zip(buffers, views)]
        got = agent.table_sends(ctx, rows, np.array(views, dtype=np.int64))
    assert set(agent.tables._tables) == built
    assert got.dtype == np.int64 and got.shape == rows.shape
    assert list(map(tuple, got.tolist())) == acts
    for sends, buf, v in zip(acts, buffers, views):
        price = float(agent.price_vec[v])
        assert all(type(y) is int for y in sends)
        assert sends == per_du_schedule(ctx, buf, v, price, agent.tables, agent.discount)
        assert sends == reference_schedule(ctx, buf, v, price, agent.tables, agent.discount)
        for slot in ctx.slots:
            margin = (1.0 - agent.discount) * (slot.du.distortion_impact - price)
            assert margin == agent.tables[slot.du.du_id].margin[v]
        respond = agent.price_response(ctx, buf, v)
        for lam in lams:
            want = per_du_schedule(ctx, buf, v, lam, agent.tables, agent.discount)
            assert agent.act_at(ctx, buf, v, lam).sends == want
            assert respond(lam).sends == want


def test_lookup_takes_equal_values_of_any_number_type(monkeypatch):
    """Price and discount enter as floats and margins are float64 from the
    layout's impacts, so int and np.float32 prices, discounts and impacts
    are looked up wherever their values are the solved ones, and evaluated
    in float64 elsewhere, on other templates' contexts too."""
    evaluated = []
    response = scheduling.decomposed_response

    def counted(*args):
        evaluated.append(args)
        return response(*args)

    monkeypatch.setattr(scheduling, "decomposed_response", counted)
    view = shared_view(TWO_STATE, 2)
    ints = GopTemplate([DataUnitSpec(0, "I", 4, 0, ((3, 1.0),)),
                        DataUnitSpec(1, "P", 1, 1, ((0, 0.5), (2, 0.5)), (0,))], 2, 3)
    singles = GopTemplate([DataUnitSpec(0, "I", np.float32(4.3), 0, ((3, 1.0),)),
                           DataUnitSpec(1, "P", np.float32(1.1), 1, ((0, 0.5), (2, 0.5)),
                                        (0,))], 2, 3)
    for tpl in (_two_kinds((3, 2)), ints, singles):
        ctx = tpl.context(1)
        for delta in (0.5, np.float32(0.5), 0):
            agent = decomposed_agent(tpl, view, delta, np.array([0.5, 2.0]))
            tables = agent.tables
            for v, prices in ((0, (0.5, np.float64(0.5), np.float32(0.5))),
                              (1, (2, np.int64(2), np.float32(2.0), 2.0))):
                for price, discount in product(prices, (delta, float(delta),
                                                        np.float64(delta))):
                    for buf in ((2, 3, 1), (1, 3, 2), (0, 0, 0)):
                        act = decomposed_schedule(ctx, buf, v, price, tables, discount)
                        assert act.sends == per_du_schedule(ctx, buf, v, price, tables,
                                                            discount)
            assert not evaluated
            other = (ctx, (2, 3, 1), 0)
            for args, foreign in (((*other, 2.0, delta), False),
                                  ((*other, np.float32(0.1), delta), False),
                                  ((*other, 0.5, 0.8), False),
                                  ((*other, 0.5, np.float32(0.9)), False),
                                  ((tpl.context(0), (3, 2, 0), 1, 0.5, delta), False),
                                  ((_two_kinds((3, 2)).context(1), (2, 3, 1), 0, 0.5, delta),
                                   True)):
                c, buf, v, price, discount = args
                act = decomposed_schedule(c, buf, v, price, tables, discount)
                assert len(evaluated) == 1
                assert evaluated.pop()[:2] == (c, buf)
                if not foreign:
                    assert act.sends == per_du_schedule(c, buf, v, price, tables, discount)
            assert agent.table_sends(ctx, np.array([[2, 3, 1]]), np.array([1])).tolist() == [
                list(agent.act(ctx, (2, 3, 1), 1).sends)]
    # a float32 impact is a float64 margin: np.float32(0.1) is above the
    # double 0.1, so its packet is worth sending at that price, looked up or
    # evaluated (float32 arithmetic would make the margin 0, a tie won by 0)
    tpl = GopTemplate([DataUnitSpec(0, "I", np.float32(0.1), 0, ((3, 1.0),))], 1, 1)
    for solved in (0.1, 0.7):
        agent = decomposed_agent(tpl, view, 0.5, np.array([solved, 0.1]))
        assert agent.act_at(tpl.context(0), (3,), 0, 0.1).sends == (3,)
        assert agent.price_response(tpl.context(0), (3,), 0)(0.1).sends == (3,)
    assert evaluated


@settings(max_examples=EXAMPLES, deadline=None)
@given(instances(), st.data())
def test_lookup_act_equals_the_scalar_rule_at_the_solved_price(inst, data):
    """On generated templates, also where the price at the queried view
    state is one of the context's impacts: a zero margin, where sends tie.
    `act_at` and `price_response` at a drawn price and at each impact are
    the per-DU rule too."""
    tpl, view, delta, price, ctx, buf, v = inst
    if len(ctx) and data.draw(st.booleans()):
        price = price.copy()
        price[v] = data.draw(st.sampled_from(ctx.impacts))
    agent = decomposed_agent(tpl, view, delta, price)
    caps = tuple(s.du.max_size for s in ctx.slots)
    buffers = [buf, (0,) * len(ctx), caps] + [
        tuple(data.draw(st.integers(0, c)) for c in caps) for _ in range(3)]
    views = [v] + [data.draw(st.integers(0, len(view) - 1)) for _ in range(5)]
    lams = [data.draw(values_), *ctx.impacts]
    assert_lookup_is_the_scalar_rule(agent, ctx, buffers, views, lams)


@pytest.mark.parametrize("name", ["gop16-default", "illustration-2user", "pds-toy",
                                  "tiny-asym", "tiny-mix", "tiny-priced", "tiny-sym"])
def test_lookup_act_equals_the_scalar_rule_on_every_preset_context(name):
    """Every phase's context of every user, at every view state, on the
    empty, the full and 20 drawn buffers, at a drawn price and at one that
    zeroes the margin of the template's last DU; `act_at` and
    `price_response` at a drawn price, at the first DU's impact and at 0."""
    sc = preset(name)
    rng = np.random.default_rng(7)
    for agent in make_agents(sc, "decomposed"):
        tpl, n_view = agent.template, len(agent.view)
        top = max(du.distortion_impact for du in tpl.dus)
        for price in (rng.uniform(0.0, 1.5 * top, n_view),
                      np.full(n_view, tpl.dus[-1].distortion_impact)):
            agent.refresh(price)
            lams = (float(rng.uniform(0.0, 1.5 * top)), tpl.dus[0].distortion_impact, 0.0)
            for ctx in map(tpl.context, range(tpl.period)):
                caps = [s.du.max_size for s in ctx.slots]
                buffers = [(0,) * len(caps), tuple(caps)] + [
                    tuple(int(rng.integers(c + 1)) for c in caps) for _ in range(20)]
                for v in range(n_view):
                    assert_lookup_is_the_scalar_rule(agent, ctx, buffers, [v] * len(buffers),
                                                     lams)


def test_clearing_prepare_and_episode_build_no_per_du_table():
    """Planned decisions read the layout-wide arrays only: a clearing
    `proposed` prepare on illustration-2user, whose search evaluates price
    responses, and an episode after it leave every agent's per-DU table
    cache empty."""
    sc = preset("illustration-2user")
    responses = []
    respond = DecomposedAgent.price_response

    def counted(self, *state):
        responses.append(state)
        return respond(self, *state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DecomposedAgent, "price_response", counted)
        sol = ProposedSolution(sc, eval_slots=2_000, clearing=True)
        sol.prepare(np.random.default_rng(sc.seed))
        harness.run_episode(sc, sol, 140, np.random.default_rng(1))
    assert responses
    assert all(not a.tables._tables for a in sol.agents)


# ---------------------------------------------------------------------------
# Within-slot clearing
# ---------------------------------------------------------------------------

def assert_same_clear(solution, s0, contexts, buffers) -> int:
    """`_clear` over the agents' price responses equals `reference_clear`:
    the same actions and clearing price, and every trial price of the
    reference evaluated, in one batch (`_fits_at`) or alone (`_acts_at`),
    with the reference's fit there and no other. Returns the number of
    searches `_clear` ran: 1 for a slot whose requests overran, else 0."""
    sc = solution.scenario
    raw = [a.act(ctx, buf, a.view.view_state(s0))
           for a, ctx, buf in zip(solution.agents, contexts, buffers)]
    rates = [u.channel.rate[h] for u, h in zip(sc.users, s0)]

    def fits(acts) -> bool:
        return bandwidth_usage([a.total for a in acts], rates,
                               sc.bits_per_packet) <= sc.bandwidth + 1e-12

    seen: dict[float, set[bool]] = {}
    acts_at, fits_at = harness.PricedRuntime._acts_at, harness.PricedRuntime._fits_at

    def single(self, s0, responses, lam0):
        acts = acts_at(self, s0, responses, lam0)
        seen.setdefault(lam0, set()).add(fits(acts))
        return acts

    def batched(self, responses, rates, lams):
        fit = fits_at(self, responses, rates, lams)
        for lam, ok in zip(lams.tolist(), fit.tolist()):
            seen.setdefault(lam, set()).add(ok)
        return fit

    searches = solution.searches
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness.PricedRuntime, "_acts_at", single)
        mp.setattr(harness.PricedRuntime, "_fits_at", batched)
        acts, lam = solution._clear(s0, contexts, buffers, raw)
    ref_acts, ref_lam, ref_trials = reference_clear(solution, s0, contexts, buffers, raw)
    assert (acts, lam) == (ref_acts, ref_lam)
    for price, trial in ref_trials:
        assert seen.get(price) == {fits(trial)}
    assert bool(ref_trials) == (solution.searches > searches)
    return solution.searches - searches


@pytest.mark.parametrize("name", ["proposed", "lyapunov"])
def test_clearing_search_equals_per_agent_repricing_on_episodes(illustration_suite, name):
    """Every slot of three illustration-2user episodes under clearing, with
    decomposed (`proposed`) and drift (`lyapunov`) agents."""
    sc = illustration_suite["scenario"]
    sol = illustration_suite["solutions"][name]
    assert sol.clearing
    searches = [assert_same_clear(sol, *state)
                for seed in (45, 46, 47) for state in episode_slot_states(sc, sol, 140, seed)]
    assert sum(searches) >= 50


@pytest.mark.parametrize("name", ["proposed", "lyapunov"])
@pytest.mark.parametrize("wrong", ["reversed", "zero"])
def test_clearing_search_on_wrong_marginal_prices_equals_per_agent_repricing(
        illustration_suite, name, wrong):
    """Marginal prices only predict the search: decomposed and drift agents
    whose responses give them reversed in size (mirrored about their range,
    so the dearest packet is priced cheapest; a permutation would predict
    the same), or all zero, mispredict trial prices, and the search, run
    again on the checked outcomes, still equals `reference_clear` on every
    slot of three illustration-2user episodes."""
    sc = illustration_suite["scenario"]
    sol = illustration_suite["solutions"][name]
    kind = type(sol.agents[0])
    respond = kind.price_response

    def mispriced(self, *state):
        response = respond(self, *state)
        mu = response.marginals()
        if wrong == "zero":
            bad = np.zeros_like(mu)
        else:
            bad = mu.max() + mu.min() - mu if len(mu) else mu
        return scheduling.PriceResponse(response.at, response.totals, lambda: bad)

    off = sol.off_prediction
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kind, "price_response", mispriced)
        searches = [assert_same_clear(sol, *state) for seed in (45, 46, 47)
                    for state in episode_slot_states(sc, sol, 140, seed)]
    assert sum(searches) >= 50
    assert sol.off_prediction > off


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(slot_systems(), st.data())
def test_clearing_search_equals_per_agent_repricing_on_generated_states(inst, data):
    """Decomposed agents at drawn prices in drawn slot states of small
    templates. The band price is drawn, or puts the first trial price of
    one user at its tables' solved price (so `best` looks its sends up) or
    at one of its slots' impacts (a zero margin, where sends tie)."""
    templates, joint, _seed = inst
    users = tuple(UserConfig(f"u{i}", t, c)
                  for i, (t, c) in enumerate(zip(templates, joint.channels)))
    sc = ScenarioConfig("clear", users, bandwidth=data.draw(st.sampled_from([0.5, 1.0, 2.0])),
                        channel_correlation=joint.correlation)
    sol = harness.PricedRuntime(sc, clearing=True)
    sol.agents = make_agents(sc, "decomposed")
    s0 = data.draw(st.sampled_from(joint.all_states()))
    contexts = [t.context(data.draw(st.integers(0, t.period - 1))) for t in templates]
    buffers = [tuple(data.draw(st.integers(0, s.du.max_size)) for s in ctx.slots)
               for ctx in contexts]
    prices = [np.array([data.draw(values_) for _ in range(len(a.view))]) for a in sol.agents]
    lam0 = data.draw(values_)
    i = data.draw(st.integers(0, len(users) - 1))
    rate = users[i].channel.rate[s0[i]]
    kind = data.draw(st.sampled_from(["drawn", "solved price", "impact"]))
    if kind == "impact" and len(contexts[i]):
        lam0 = data.draw(st.sampled_from(contexts[i].impacts)) * rate / sc.bits_per_packet / 2.0
    if kind == "solved price":
        # `_acts_at`'s price for user i at the first doubling
        prices[i][sol.agents[i].view.view_state(s0)] = \
            max(lam0, 1e-3) * 2.0 * sc.bits_per_packet / rate
    for a, price in zip(sol.agents, prices):
        a.refresh(price)
    sol.prices = pricing.PriceTable()
    sol.prices.lam[s0] = lam0
    assert_same_clear(sol, s0, contexts, buffers)


def test_act_at_only_agent_clears_through_the_default_response(illustration):
    """An agent that defines only `refresh` and `act_at` clears through the
    base class's `price_response`, as `reference_clear` does."""
    sc = illustration["scenario"]
    sol = harness.PricedRuntime(sc, clearing=True)
    sol.agents = [ThresholdAgent(u, v, sc.discount)
                  for u, v in zip(sc.users, harness.build_views(sc))]
    assert type(sol.agents[0]).price_response is pricing.PricedAgent.price_response
    for a in sol.agents:
        a.refresh(np.zeros(len(a.view)))
    sol.prices = illustration["proposed"].prices
    searches = [assert_same_clear(sol, *state)
                for state in episode_slot_states(sc, sol, 140, 45)]
    assert sum(searches) >= 50
    # without a `PriceResponse` each search tries every trial price alone
    assert sol.off_prediction >= 41 * sum(searches)


# ---------------------------------------------------------------------------
# Drift rule
# ---------------------------------------------------------------------------

ILLUSTRATION_TEMPLATES = preset("illustration-2user").templates


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data())
def test_drift_action_equals_loop_over_totals(data):
    """`lyapunov_action` (one `drift_response` evaluation) equals the loop
    over totals on illustration-2user buffers, with beta 0 or positive. The
    price is drawn, or solved from dyadic terms to tie two consecutive
    totals exactly; the objective is concave in the total, so both are
    maxima and the largest maximiser wins."""
    tpl = data.draw(st.sampled_from(ILLUSTRATION_TEMPLATES))
    ctx = tpl.context(data.draw(st.integers(0, tpl.period - 1)))
    buf = tuple(data.draw(st.integers(0, s.du.max_size)) for s in ctx.slots)
    beta = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0))
    gain = data.draw(st.sampled_from([1.0, 2.0, 1.4]))
    delta = data.draw(st.sampled_from([0.5, 0.75]) | st.floats(0.0, 0.99))
    arrivals = data.draw(st.sampled_from([0.0, 1.0, 1.5]) | st.floats(0.0, 5.0))
    backlog = sum(buf)
    m = data.draw(st.integers(0, backlog - 1)) if backlog and data.draw(st.booleans()) else None
    if m is None:
        price = data.draw(values_)
    else:
        # f(m) == f(m + 1) for f the drift objective at this price
        du = -beta * (transmit_energy(gain, m + 1) - transmit_energy(gain, m))
        dc = delta * ((backlog - m + arrivals) ** 2 - (backlog - m - 1 + arrivals) ** 2)
        price = du + dc / (1.0 - delta)
    want = reference_lyapunov_action(ctx, buf, price, beta, gain, delta, arrivals)
    assert lyapunov_action(ctx, buf, price, beta, gain, delta, arrivals) == want
    if m is not None and drift_objective(backlog, m, arrivals, price, beta, gain, delta) == \
            drift_objective(backlog, m + 1, arrivals, price, beta, gain, delta):
        assert want.total >= m + 1


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
            assert JointChannel([chan]).step((h,), fast) == \
                (int(ref.choice(len(chan), p=chan.transition[h])),)
    for _ in range(20):
        assert draw(chan.stationary_cdf, fast) == \
            int(ref.choice(len(chan), p=chan.stationary()))
    assert fast.random() == ref.random()


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(st.lists(channels(one_class=False), min_size=1, max_size=3))
def test_product_chain_equals_loop(chans):
    expect = reference_product_chain(chans)
    for user in range(len(chans)):
        trans = joint_view(JointChannel(chans), user).transition
        assert np.array_equal(trans, expect)
        assert not any(np.shares_memory(trans, c.transition) for c in chans)


def reference_views(sc: ScenarioConfig) -> list[tuple]:
    """Each user's view by the rules written out per kind: (state_of,
    price weights, transition, rate, gain). A common or own view's state of
    s0 is s0[user], a joint view's the product index of s0."""
    chans = sc.channels
    keys = list(product(*(range(len(c)) for c in chans)))
    views = []
    for i, me in enumerate(chans):
        if sc.channel_correlation == "common":
            states = [(h,) * len(chans) for h in range(len(me))]
            views.append(({k: k[i] for k in states}, [[(k, 1.0)] for k in states],
                          me.transition, me.rate, me.gain))
        elif sc.price_view == "full":
            own = [k[i] for k in keys]
            views.append(({k: v for v, k in enumerate(keys)}, [[(k, 1.0)] for k in keys],
                          reference_product_chain(chans), me.rate[own], me.gain[own]))
        else:
            others = [j for j in range(len(chans)) if j != i]
            weights = []
            for h in range(len(me)):
                pairs = []
                for combo in product(*(range(len(chans[j])) for j in others)):
                    key, w = [h] * len(chans), 1.0
                    for j, hj in zip(others, combo):
                        key[j] = hj
                        w *= chans[j].stationary()[hj]
                    pairs.append((tuple(key), w))
                weights.append(pairs)
            views.append(({k: k[i] for k in keys}, weights, me.transition, me.rate, me.gain))
    return views


def assert_views_follow_the_rules(sc: ScenarioConfig) -> None:
    """`build_views` equals `reference_views`, weights and arrays byte for
    byte; the scenario's joint channel is built once; a joint state outside
    a view raises."""
    assert sc.joint is sc.joint
    assert replace(sc).joint is not sc.joint
    views = harness.build_views(sc)
    for view, (state_of, weights, trans, rate, gain) in zip(views, reference_views(sc),
                                                             strict=True):
        assert view.state_of == state_of
        assert [view.view_state(k) for k in state_of] == list(state_of.values())
        assert [[k for k, _ in pairs] for pairs in view.price_weights] == \
            [[k for k, _ in pairs] for pairs in weights]
        for pairs, ref in zip(view.price_weights, weights, strict=True):
            assert np.array([w for _, w in pairs]).tobytes() == \
                np.array([w for _, w in ref]).tobytes()
        for got, want in ((view.transition, trans), (view.rate, rate), (view.gain, gain)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes())
        outside = [(0,) * (len(sc.users) + 1), tuple(len(c) for c in sc.channels)]
        if sc.channel_correlation == "common" and len(sc.users) > 1 and len(sc.channels[0]) > 1:
            outside.append((0, 1) + (0,) * (len(sc.users) - 2))   # users apart
        for s0 in outside:
            with pytest.raises(ModelError, match="not in this view"):
                view.view_state(s0)


@pytest.mark.parametrize("name", list_presets())
def test_preset_views_follow_the_rules(name):
    assert_views_follow_the_rules(preset(name))


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(st.lists(channels(), min_size=1, max_size=3),
       st.sampled_from(["common", "expected", "full"]), st.data())
def test_views_follow_the_rules(chans, how, data):
    """1-3 users on a common channel (one chain; rates and gains apart) or
    on independent ones priced by own or joint views."""
    if how == "common":
        chans = [ChannelModel(chans[0].names, chans[0].gain * (1 + i), chans[0].rate * (1 + i),
                              chans[0].transition) for i in range(len(chans))]
    tpl = GopTemplate([DataUnitSpec(0, "I", 1.0, 0, ((1, 1.0),))], 1, 1)
    users = tuple(UserConfig(f"u{i}", tpl, c) for i, c in enumerate(chans))
    sc = ScenarioConfig("views", users, channel_correlation=(
        "common" if how == "common" else "independent"),
        price_view="full" if how == "full" else "expected")
    assert_views_follow_the_rules(sc)


@pytest.mark.parametrize("how", ["common", "expected", "full"])
def test_three_user_views_follow_the_rules(how):
    """Three users on one common three-state chain (rates and gains apart),
    or on independent chains of 3, 2 and 3 states priced by own or joint
    views."""
    three = ChannelModel(["g", "m", "b"], [2.0, 1.5, 1.0], [3.0, 2.0, 1.0],
                         [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
    if how == "common":
        chans = [ChannelModel(three.names, three.gain * (1 + i), three.rate * (1 + i),
                              three.transition) for i in range(3)]
    else:
        chans = [three, TWO_STATE, ChannelModel(three.names, three.gain, three.rate,
                                                three.transition[::-1])]
    tpl = GopTemplate([DataUnitSpec(0, "I", 1.0, 0, ((1, 1.0),))], 1, 1)
    users = tuple(UserConfig(f"u{i}", tpl, c) for i, c in enumerate(chans))
    sc = ScenarioConfig("views3", users, channel_correlation=(
        "common" if how == "common" else "independent"),
        price_view="full" if how == "full" else "expected")
    assert_views_follow_the_rules(sc)


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(st.lists(channels(), min_size=1, max_size=3), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_joint_initial_equals_choice(chans, common, seed):
    if common:
        chans = [chans[0]] * len(chans)
    joint = JointChannel(chans, "common" if common else "independent")
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(10):
        assert joint.initial(fast) == SlotModel([], chans, ref, common).s0
    assert fast.random() == ref.random()


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(slot_systems())
@example(([SPARSE_TEMPLATE, SPARSE_TEMPLATE], JointChannel(
    [ChannelModel(["g", "b"], [1.0, 1.0], [2.0, 1.0], [[0.5, 0.5], [0.0, 1.0]])] * 2,
    "independent"), 3))
def test_batched_slot_engine_equals_per_du_draws(inst):
    """`SlotSystem`'s start-up and `advance` equal the reference model's: the
    channel states, contexts, buffers, each user's arrivals and drops (the
    library's keys count GOPs from the slot's own GOP, the model's from
    slot 0's) and the generator after."""
    templates, joint, seed = inst
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    system = SlotSystem(templates, joint, fast)
    model = SlotModel(templates, joint.channels, ref, joint.correlation == "common")
    assert (system.s0, system.contexts, system.buffers) == model_slot(model)
    for t in range(25):
        sent = [ScheduleAction(tuple(x * (t + u + 1) % (x + 1) for x in buf))
                for u, buf in enumerate(system.buffers)]
        moves = system.advance(sent)
        steps = model.run_slot([act.sends for act in sent])
        assert (system.s0, system.contexts, system.buffers) == model_slot(model)
        for tpl, move, buf, (arrivals, drops) in zip(templates, moves, system.buffers, steps,
                                                     strict=True):
            now, nxt = t // tpl.period, (t + 1) // tpl.period
            assert {(o + nxt, d): buf[j] for j, _, (o, d) in move.entering} == arrivals
            assert {(o + now, d): n for (o, d), n in move.dropped} == drops
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
    sc, agents = priced_agents(templates, joint, data, "memo")

    def band_request(system):
        requests, sent = slot_requests(agents, system, 1.0, sc.bandwidth)
        return sum(requests), sent

    (mean, _, _, final, after), (ref_mean, _, _, ref_final, ref_after) = \
        replays(templates, joint, seed, band_request, 200)
    assert (mean, final, after) == (ref_mean, ref_final, ref_after)


@pytest.mark.parametrize("common", [False, True])
@settings(max_examples=EXAMPLES // 6, deadline=None)
@given(st.data())
def test_block_drawn_replay_equals_fresh_decisions(common, data):
    """Over more than two draw blocks plus a remainder, `replay` gives the
    reference's per-state means, decides once per distinct slot state the
    reference visits, leaves the system in the reference's final slot and
    the generator where the reference leaves it."""
    templates, joint, seed = data.draw(slot_systems(common=common))
    sc, agents = priced_agents(templates, joint, data, "blocks")
    slots = 2 * pricing.REPLAY_BLOCK + 452

    def band_request(system):
        requests, sent = slot_requests(agents, system, 1.0, sc.bandwidth)
        return sum(requests), sent

    (mean, decisions, keys, final, after), (ref_mean, _, ref_keys, ref_final, ref_after) = \
        replays(templates, joint, seed, band_request, slots)
    assert (mean, final, after) == (ref_mean, ref_final, ref_after)
    assert decisions == len(keys) == len(set(ref_keys))
    assert len(ref_keys) == slots


def breakpoint_uniforms(*cdfs) -> list[float]:
    """0, and every breakpoint of `cdfs` with one ulp either side, as far as
    they lie in [0, 1)."""
    us = {0.0}
    for cdf in cdfs:
        for c in cdf:
            us.update(float(u) for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))
                      if 0.0 <= u < 1.0)
    return sorted(us)


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(channels(one_class=False), small_templates())
def test_draw_buckets_equal_the_scalar_mappings(chan, template):
    """At every CDF breakpoint and one ulp either side, a channel uniform's
    `draw_breaks` bucket fixes `bisect_right` on every row (any uniform of
    the bucket gives the same next states), and a size uniform's
    `SizeDraws` entry is its DU's `size_at`. Zero-probability channel moves
    and sizes repeat breakpoints."""
    breaks = chan.draw_breaks
    for u in breakpoint_uniforms(*chan.transition_cdf):
        b = int(breaks.searchsorted(u, side="right"))
        least = float(breaks[b - 1]) if b else 0.0
        assert b < len(breaks)
        assert [bisect_right(row, u) for row in chan.transition_cdf] == \
            [bisect_right(row, least) for row in chan.transition_cdf]

    lay = template.size_draws
    us = breakpoint_uniforms(*(du.size_cdf for du in template.dus))
    buckets = lay.breaks.searchsorted(us, side="right")
    for p in range(template.period):
        nxt = template.context(p + 1)
        dus = [nxt.slots[j].du for j in template.step(p).entering]
        assert lay.counts[p] == len(dus)
        assert not lay.sizes[lay.rows[len(dus):, p, None] + buckets].any()
        for j, du in enumerate(dus):
            assert lay.sizes[lay.rows[j, p] + buckets].tolist() == [du.size_at(u) for u in us]


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(slot_systems(), st.data())
def test_equal_outcome_codes_draw_equal_outcomes(inst, data):
    """Slots at the same phases with equal `draw_outcomes` outcomes draw the
    same entering sizes and move every joint channel state to the same
    next state, on uniforms at every breakpoint and one ulp either side."""
    templates, joint, seed = inst
    channels_ = joint.chains
    pool = breakpoint_uniforms(*(du.size_cdf for t in templates for du in t.dus),
                               *(cdf for c in channels_ for cdf in c.transition_cdf))
    phases = [data.draw(st.integers(0, t.period - 1)) for t in templates]
    slots = data.draw(st.integers(1, 200))
    rng = np.random.default_rng(seed)
    us, starts, codes = pricing.draw_outcomes(templates, channels_, phases, slots,
                                              lambda n: rng.choice(pool, n))
    assert len(us) == starts[-1] and len(codes) == slots
    outcomes = {}
    for k in range(slots):
        draws = iter(us[starts[k]:starts[k + 1]].tolist())
        sizes = tuple(tuple(t.context(p + k + 1).slots[j].du.size_at(next(draws))
                            for j in t.step(p + k).entering)
                      for t, p in zip(templates, phases))
        rest = list(draws)
        assert len(rest) == len(joint.chains)
        moves = tuple(joint.next_state(s0, iter(rest)) for s0 in joint.all_states())
        state = (tuple((p + k) % t.period for t, p in zip(templates, phases)), codes[k])
        assert outcomes.setdefault(state, (sizes, moves)) == (sizes, moves)


@pytest.mark.parametrize("name", ["illustration-2user", "gop16-default", "tiny-sym"])
def test_blocks_of_one_layout_share_it_read_only(name):
    """Blocks at the same phases and length share one cached layout, whose
    arrays no caller can write, and map their draws as a freshly built
    layout does."""
    sc = preset(name)
    joint = JointChannel(sc.channels, sc.channel_correlation)
    channels_ = joint.chains
    phases = [1] * len(sc.templates)

    def block(seed):
        rng = np.random.default_rng(seed)
        return pricing.draw_outcomes(sc.templates, channels_, phases, 140, rng.random)

    first, second = block(1), block(2)
    assert first[1] is second[1]
    with pytest.raises(ValueError, match="read-only"):
        first[1][0] = 1
    pricing.block_layout.cache_clear()
    fresh = block(2)
    assert fresh[1] is not second[1]
    assert all(np.array_equal(a, b) for a, b in zip(fresh, second, strict=True))


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
    # the reference keeps no memo, so it records no successors
    monkeypatch.setattr(pricing, "replay",
                        lambda system, decide, slots, memo: reference_replay(system, decide,
                                                                             slots))
    ref, ref_next = _prepared(build_solution(sc, solution, eval_slots=5_000), sc.seed)
    assert fast.report.expected_usage == ref.report.expected_usage
    assert fast.report.residuals == ref.report.residuals
    assert fast_next == ref_next
    assert fast.report.eval_decisions < ref.report.eval_decisions == 5_000
    assert fast.report.eval_decisions <= fast.report.eval_transitions
    assert ref.report.eval_transitions == 0


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
    agent = DecomposedAgent(user, own_view(JointChannel([user.channel]), 0),
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
# Episodes
# ---------------------------------------------------------------------------

PINNED = [0, 1, 1, 1, 0]       # the pinned replay of `wvsched replay`


def assert_same_episode(scenario, solution, slots, seed, pinned=None):
    """`run_episode` and the reference give equal traces, record dicts in
    the same order (the trace CSVs print them in order), and leave the
    generator at the same draw. Returns the walk's trace."""
    fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = harness.run_episode(scenario, solution, slots, fast_rng, pinned)
    ref = reference_run_episode(scenario, solution, slots, ref_rng, pinned)
    assert fast.records == ref.records
    assert (fast.arrived, fast.sent_totals, fast.dropped_totals, fast.remaining) == \
        (ref.arrived, ref.sent_totals, ref.dropped_totals, ref.remaining)
    assert fast.decisions == ref.decisions
    assert repr(fast) == repr(ref)
    assert fast_rng.random() == ref_rng.random()
    return fast


def test_episode_walk_equals_reference_on_slot_streams(illustration):
    """The episode streams of test_slot_streams.py, free and pinned (past
    the end of the pins), and tiny-sym with independent channels."""
    sc, sol = illustration["scenario"], illustration["proposed"]
    assert_same_episode(sc, sol, 60, 9)
    assert_same_episode(sc, sol, 12, 9, PINNED)
    myopic = build_solution(sc, "myopic")
    myopic.prepare(np.random.default_rng(0))
    assert_same_episode(sc, myopic, 12, 9, PINNED)
    independent = replace(preset("tiny-sym"), channel_correlation="independent")
    uni = UniformPriceSolution(independent, usage_slots=300)
    uni.prepare(np.random.default_rng(7))
    assert_same_episode(independent, uni, 60, 8)


def test_episode_walk_equals_reference_on_gop16():
    sc = preset("gop16-default")
    sol = build_solution(sc, "proposed")
    sol.prepare(np.random.default_rng(sc.seed))
    for seed in (sc.seed + 1, 44):
        assert_same_episode(sc, sol, 140, seed)


@pytest.mark.parametrize("name", ["proposed+edf", "myopic", "lyapunov", "mu-mdp"])
def test_episode_walk_equals_reference_on_the_battery(illustration_suite, name):
    sc = illustration_suite["scenario"]
    assert_same_episode(sc, illustration_suite["solutions"][name], 140, 45)


def test_episode_walk_equals_reference_with_frozen_learners():
    sc = preset("illustration-2user")
    sol = build_solution(sc, "proposed-learning")
    sol.prepare(np.random.default_rng(sc.seed))
    assert_same_episode(sc, sol, 140, 46)


@settings(max_examples=EXAMPLES // 6, deadline=None)
@given(slot_systems(), st.data())
def test_episode_walk_equals_reference_on_generated_systems(inst, data):
    """Decomposed agents at drawn prices on small templates (phases with no
    DU entering, single-DU entries), common and independent channels,
    pinned or free, with draw blocks from one slot to longer than the
    episode; `replay` of the same rule against its reference at the same
    block size."""
    templates, joint, seed = inst
    sc, agents = priced_agents(templates, joint, data, "walk")
    sol = harness.PricedRuntime(sc)
    sol.agents = agents
    sol.prices = pricing.PriceTable()
    sol.prices.lam.update({s0: data.draw(values_) for s0 in joint.all_states()})
    pinned = None
    if joint.correlation == "common" and data.draw(st.booleans()):
        n = len(joint.channels[0])
        pinned = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    block = data.draw(st.sampled_from([1, 7, pricing.REPLAY_BLOCK]))

    def band_request(system):
        requests, sent = slot_requests(sol.agents, system, 1.0, sc.bandwidth)
        return sum(requests), sent

    # `pricing.walk` reads the block size at each block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pricing, "REPLAY_BLOCK", block)
        assert_same_episode(sc, sol, 60, seed, pinned)
        (mean, _, _, final, after), (ref_mean, _, _, ref_final, ref_after) = \
            replays(templates, joint, seed, band_request, 60)
    assert (mean, final, after) == (ref_mean, ref_final, ref_after)


def slot_state(scenario, rec) -> tuple:
    """A record's `slot_key`: its channel state, every user's phase (one per
    slot from 0) and buffer."""
    return (rec.s0, tuple((rec.slot - 1) % u.template.period for u in scenario.users),
            tuple(tuple(x for _, x in ur.traffic) for ur in rec.users))


def test_episode_records_share_no_mutable_parts():
    """Records of one slot state come from one memo entry, kept across
    episodes, yet each owns its `traffic` list and `dropped` dict: mutating
    one record changes no later record of that state, in the same episode,
    the next or the one after. The trace's totals are folded from parts
    the entries keep too, yet mutating them changes no later episode."""
    sc = preset("tiny-sym")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    want = reference_run_episode(sc, sol, 200, np.random.default_rng(4))
    first = harness.run_episode(sc, sol, 200, np.random.default_rng(4))
    assert first == want
    assert first.decisions < len(first.records)

    states = [slot_state(sc, rec) for rec in first.records]
    k = next(k for k, s_ in enumerate(states) if s_ in states[k + 1:])
    later = states.index(states[k], k + 1)
    for ur in first.records[k].users:
        ur.traffic.append(("X", 1))
        ur.dropped["X"] = 1
    assert first.records[later] == want.records[later]
    for totals in (first.arrived, first.sent_totals, first.dropped_totals):
        for by_name in totals:
            by_name.update(dict.fromkeys(by_name, -1), X=1)
    assert_same_episode(sc, sol, 200, 5)
    assert harness.run_episode(sc, sol, 200, np.random.default_rng(4)) == want


@pytest.mark.parametrize("name", ["proposed", "mu-mdp", "lyapunov", "myopic", "proposed+edf"])
def test_consecutive_episodes_on_one_solution_equal_the_reference(illustration_suite, name):
    """The walk memo outlives each episode: later episodes, free or pinned,
    of other lengths or on a seed run before, reuse the slot states earlier
    ones decided, and each still equals the reference, `decisions` counting
    the slot states of that episode alone."""
    sc = illustration_suite["scenario"]
    sol = illustration_suite["solutions"][name]
    for slots, seed, pinned in [(140, 47, None), (140, 48, None), (12, 9, PINNED),
                                (60, 47, None), (140, 49, None)]:
        assert_same_episode(sc, sol, slots, seed, pinned)


def test_walk_memo_holds_one_entry_per_slot_state_visited():
    """Across the episodes a solution runs, its memo holds exactly the
    distinct slot states they visited; a new `prepare` empties it."""
    sc = preset("illustration-2user")
    for name in ("myopic", "mu-mdp"):
        sol = build_solution(sc, name)
        sol.prepare(np.random.default_rng(0))
        visited = set()
        for seed in (1, 2, 3):
            trace = harness.run_episode(sc, sol, 140, np.random.default_rng(seed))
            visited.update(slot_state(sc, rec) for rec in trace.records)
            memo = sol.episode_memo(sc)[0]
            assert set(memo) == visited
        assert trace.decisions < len(memo)
        sol.prepare(np.random.default_rng(0))
        assert sol.episode_memo(sc)[:2] == ({}, {})


def _re_calibrated(sc):
    """A clearing `proposed` re-priced as its calibration re-prices: the
    price table updated (here doubled), then `_reprice` at its vectors."""
    sol = ProposedSolution(sc, max_slots=40_000, eval_slots=3_000, clearing=True)
    sol.prepare(np.random.default_rng(sc.seed))

    def re_price():
        sol.prices.lam.update({s0: 2 * lam for s0, lam in sol.prices.lam.items()})
        sol._reprice(a.view.price_vector(sol.prices.lam, sc.bits_per_packet)
                     for a in sol.agents)
    return sol, re_price


def _re_prepared_lyapunov(sc):
    """`lyapunov` prepared again after its `proposed` was, on another seed."""
    proposed = ProposedSolution(sc, eval_slots=2_000)
    sol = build_solution(sc, "lyapunov", proposed=proposed)
    sol.prepare(np.random.default_rng(sc.seed))

    def re_prepare():
        proposed.prices.lam.update({s0: 0.5 * lam for s0, lam in proposed.prices.lam.items()})
        sol.prepare(np.random.default_rng(1))
    return sol, re_prepare


def _re_prepared_uniform(sc):
    """`mu-mdp` prepared again for a narrower band: a new uniform price."""
    sol = build_solution(sc, "mu-mdp", usage_slots=600)
    sol.prepare(np.random.default_rng(sc.seed))

    def re_prepare():
        sol.scenario = replace(sc, bandwidth=0.6 * sc.bandwidth)
        sol.prepare(np.random.default_rng(sc.seed))
    return sol, re_prepare


def _re_prepared_shared_proposed(sc):
    """`proposed+edf` whose shared `proposed` alone is prepared again, for a
    narrower band: new capacities, the pairing itself untouched."""
    proposed = ProposedSolution(sc, eval_slots=2_000)
    sol = build_solution(sc, "proposed+edf", proposed=proposed)
    sol.prepare(np.random.default_rng(sc.seed))

    def re_prepare():
        proposed.scenario = replace(sc, bandwidth=0.6 * sc.bandwidth)
        proposed.prepare(np.random.default_rng(sc.seed))
    return sol, re_prepare


@pytest.mark.parametrize("case", [_re_calibrated, _re_prepared_lyapunov,
                                  _re_prepared_uniform, _re_prepared_shared_proposed])
def test_episodes_after_a_rule_change_equal_the_reference(case):
    """Whatever changes a solution's frozen rule drops its walk memo: an
    episode after the change equals the reference under the new rule, not
    the trace a kept memo would replay."""
    sc = preset("illustration-2user")
    sol, change = case(sc)
    before = assert_same_episode(sc, sol, 140, 45)
    change()
    after = assert_same_episode(sc, sol, 140, 45)
    assert after.records != before.records
    assert_same_episode(sc, sol, 12, 9, PINNED)


def test_one_solution_on_two_scenario_objects_equals_the_reference():
    """Records take payoffs, energies and channel names from the scenario
    an episode runs on, so a solution's memo for one scenario object is not
    used for another."""
    sc = preset("illustration-2user")
    costly = replace(sc, users=tuple(replace(u, beta=u.beta + 0.5) for u in sc.users))
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    first = assert_same_episode(sc, sol, 60, 3)
    assert assert_same_episode(costly, sol, 60, 3).records != first.records
    assert assert_same_episode(sc, sol, 60, 3) == first


def test_a_walk_of_no_slots_draws_and_decides_nothing():
    """A 0-slot episode or replay draws no uniform, decides no slot state
    and leaves the system as it was, as the reference does."""
    sc = preset("illustration-2user")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    trace = assert_same_episode(sc, sol, 0, 5)
    assert (trace.records, trace.decisions) == ([], 0)
    assert sol.episode_memo(sc)[:2] == ({}, {})

    joint = JointChannel(sc.channels, sc.channel_correlation)
    start = SlotSystem(sc.templates, joint, np.random.default_rng(5))
    (*got, after), (*want, ref_after) = replays(sc.templates, joint, 5, None, 0)
    assert got == want == [{}, 0, [], slot_key(start.s0, start.contexts, start.buffers)]
    assert after == ref_after


@pytest.mark.parametrize("slots", [1, pricing.REPLAY_BLOCK])
def test_a_walk_decides_no_state_past_its_last_slot(slots):
    """Walks of one slot and of exactly one draw block equal the reference
    and decide exactly the slot states they visit: the state after the last
    slot is left undecided, episode or replay."""
    sc = preset("illustration-2user")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    trace = assert_same_episode(sc, sol, slots, 6)
    memo = sol.episode_memo(sc)[0]
    assert set(memo) == {slot_state(sc, rec) for rec in trace.records}

    joint = JointChannel(sc.channels, sc.channel_correlation)
    (mean, _, keys, final, after), (ref_mean, _, ref_keys, ref_final, ref_after) = \
        replays(sc.templates, joint, 6, sent_totals(sol), slots)
    assert (mean, set(keys), final, after) == (ref_mean, set(ref_keys), ref_final, ref_after)
    assert len(keys) == len(set(ref_keys)) and len(ref_keys) == slots


def test_pinned_and_free_episodes_on_one_memo_equal_the_reference():
    """Pinned slots draw no channel uniform, and their outcomes are kept
    apart from the free ones: pinned and free episodes that share one memo,
    in either order and from the same seed, each equal the reference. The
    pins move between the channel states throughout, so a pinned outcome
    read as a free one sends a free slot to a wrong state. pds-toy has one
    user, whose free (size, bucket) outcome has a pinned one's length."""
    for name in ("tiny-sym", "illustration-2user", "pds-toy"):
        sc = preset(name)
        pins = np.random.default_rng(2).integers(0, len(sc.channels[0]), 140).tolist()
        for pinned_first in (True, False):
            sol = build_solution(sc, "myopic")
            sol.prepare(np.random.default_rng(0))
            runs = [(140, 9, pins), (140, 9, None)]
            for slots, seed, pinned in runs if pinned_first else runs[::-1]:
                assert_same_episode(sc, sol, slots, seed, pinned)
            assert_same_episode(sc, sol, 12, 9, PINNED)


def assert_same_walks(sc, pins):
    """Free, pinned and free episodes of one `myopic` solution, and a
    replay, each equal the reference."""
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    for pinned in (None, pins, None):
        assert_same_episode(sc, sol, 30, 3, pinned)
    joint = JointChannel(sc.channels, sc.channel_correlation)
    (mean, _, _, final, after), (ref_mean, _, _, ref_final, ref_after) = \
        replays(sc.templates, joint, 4, sent_totals(sol), 30)
    assert (mean, final, after) == (ref_mean, ref_final, ref_after)


@pytest.mark.parametrize("states", [2, 3])
def test_walks_of_wide_outcomes_equal_the_reference(states):
    """Forty users whose one DU enters every slot with one of three sizes,
    on a common channel of two or three states: a slot has 3**40 size
    outcomes, past what one int64 code could hold, and with three states
    so has the joint channel (3**40 states), which pinned outcomes must
    not index; free and pinned episodes and a replay still equal the
    reference."""
    tpl = GopTemplate([DataUnitSpec(0, "I", 1.0, 0, ((0, 0.3), (1, 0.3), (2, 0.4)))], 1, 1)
    stay, leave = 0.8, 0.2 / (states - 1)
    move = np.full((states, states), leave) + np.eye(states) * (stay - leave)
    chan = ChannelModel([f"c{h}" for h in range(states)], [1.0] * states,
                        [40.0 * (h + 1) for h in range(states)], move)
    sc = ScenarioConfig("wide", tuple(UserConfig(f"u{i}", tpl, chan) for i in range(40)),
                        channel_correlation="common")
    assert_same_walks(sc, [0, states - 1, 1, states - 1, 0])


def test_a_template_of_wide_outcomes_equals_the_reference():
    """One user whose 17 DUs all enter every slot, the first with 1 or 15
    packets, the others with 2: one template's 17 size digits, each below
    16, pass int64 as one mixed-radix code (16**17). The outcomes tell the
    first lane's two sizes apart, and walks equal the reference."""
    dus = [DataUnitSpec(0, "I", 1.0, 0, ((1, 0.5), (15, 0.5)))] + \
        [DataUnitSpec(i, f"P{i}", 1.0, 0, ((2, 1.0),)) for i in range(1, 17)]
    tpl = GopTemplate(dus, 1, 1)
    assert [tpl.context(1).slots[j].du.du_id for j in tpl.step(0).entering] == list(range(17))
    us, starts, outcomes = pricing.draw_outcomes([tpl], [], [0], 50,
                                                 np.random.default_rng(0).random)
    first = [dus[0].size_at(u) for u in us[starts[:-1]]]
    assert len(set(first)) == 2
    assert len(set(outcomes)) == 2
    assert len(set(zip(first, outcomes))) == 2
    chan = ChannelModel(["g", "b"], [1.0, 1.0], [40.0, 80.0], [[0.7, 0.3], [0.4, 0.6]])
    assert_same_walks(ScenarioConfig("wide-gop", (UserConfig("u", tpl, chan),),
                                     channel_correlation="common"), PINNED)


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
    """The trim and the inflate `fill` in impact order:
    send for send what the per-user loops they replaced produced."""
    contexts, buffers, actions, rates, bits, bandwidth = inst
    down = scale_to_budget(contexts, actions, rates, bits, bandwidth)
    assert [a.sends for a in down] == [a.sends for a in reference_scale_to_budget(
        contexts, actions, rates, bits, bandwidth)]
    up = scale_up_to_budget(contexts, actions, buffers, rates, bits, bandwidth)
    assert [a.sends for a in up] == [a.sends for a in reference_scale_up_to_budget(
        contexts, actions, buffers, rates, bits, bandwidth)]


@st.composite
def band_rows(draw_):
    """1-3 users' contexts, each with the same 1-5 rows (slots) of buffers
    and feasible actions, a rate per user and row, and a band from far below
    to far above the requests; rows that request nothing are common."""
    n_rows = draw_(st.integers(1, 5))
    contexts, buffers, actions, rates = [], [], [], []
    for _ in range(draw_(st.integers(1, 3))):
        ctx = draw_(instances())[4]
        buf = [[draw_(st.integers(0, s.du.max_size)) for s in ctx.slots] for _ in range(n_rows)]
        act = [[draw_(st.integers(0, x)) for x in row] for row in buf]
        contexts.append(ctx)
        buffers.append(np.array(buf, dtype=np.int64).reshape(n_rows, len(ctx)))
        actions.append(np.array(act, dtype=np.int64).reshape(n_rows, len(ctx)))
        rates.append(np.array([draw_(st.sampled_from([1.0, 2.0, 3.0, 4.5]))
                               for _ in range(n_rows)]))
    bits = draw_(st.sampled_from([0.5, 1.0]))
    bandwidth = draw_(st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                                st.floats(0.01, 20.0, allow_nan=False)))
    return contexts, buffers, actions, rates, bits, bandwidth


def as_rows(sends: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(row) for row in sends.tolist()]


@settings(max_examples=EXAMPLES, deadline=None)
@given(band_rows(), st.data())
def test_row_fill_and_trims_equal_slot_by_slot_calls(inst, data):
    """`fill_rows` is `fill` row by row, in any order, and the row trims are
    `scale_to_budget` and `scale_up_to_budget` slot by slot, with no numpy
    warning where a row requests nothing."""
    contexts, buffers, actions, rates, bits, bandwidth = inst
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ctx, buf in zip(contexts, buffers):
            caps = np.array([data.draw(st.integers(0, 12)) for _ in range(len(buf))])
            ranked = data.draw(st.permutations(range(len(ctx))))
            got = fill_rows(buf, caps, ranked)
            assert got.dtype == np.int64
            assert as_rows(got) == [fill(b, c, ranked).sends
                                    for b, c in zip(buf.tolist(), caps.tolist())]
            with pytest.raises(ModelError, match="capacity must be >= 0"):
                fill_rows(buf, caps - caps.max() - 1, ranked)
        down = scale_rows_to_budget(contexts, actions, rates, bits, bandwidth)
        up = scale_rows_up_to_budget(contexts, actions, buffers, rates, bits, bandwidth)
    for k in range(len(rates[0])):
        acts = [ScheduleAction(tuple(a[k].tolist())) for a in actions]
        bufs = [tuple(b[k].tolist()) for b in buffers]
        slot_rates = [r[k] for r in rates]
        assert [tuple(d[k].tolist()) for d in down] == [a.sends for a in scale_to_budget(
            contexts, acts, slot_rates, bits, bandwidth)]
        assert [tuple(u[k].tolist()) for u in up] == [a.sends for a in scale_up_to_budget(
            contexts, acts, bufs, slot_rates, bits, bandwidth)]


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
            want = walk[table.policy[t_idx, v] - lo]
            assert table.action_of(phase, buf, v) == want      # decoded
            assert table.action_of(phase, buf, v) == want      # memoised
        with pytest.raises(ModelError, match="not in the action set"):
            mdp.ta_of(t_idx, ScheduleAction(buf + (0,)))
        if buf:
            with pytest.raises(ModelError, match="not in the action set"):
                mdp.ta_of(t_idx, ScheduleAction((buf[0] + 1,) + buf[1:]))


def test_refreshed_agent_acts_on_its_new_table():
    """Each solved table memoises its own lookups: after a refresh to a price
    whose policy differs, act answers from the new table."""
    sc = preset("tiny-sym")
    agent = make_agents(sc, "full")[0]
    lay = agent.mdp.layout
    states = [(lay.contexts[phase], buf, v) for _, phase, buf in lay.iter_states()
              for v in range(len(agent.view))]
    agent.refresh(np.zeros(len(agent.view)))
    before = [agent.act(*s) for s in states]
    agent.refresh(np.full(len(agent.view), 100.0))
    after = [agent.act(*s) for s in states]
    assert after != before
    table = agent.table
    assert after == [agent.mdp.action_for(t, int(table.policy[t, v]))
                     for t in range(lay.n_traffic) for v in range(len(agent.view))]


def fresh_copy(mdp: UserMdp) -> UserMdp:
    """The same user MDP built anew, holding no policy chain or factor."""
    return UserMdp(mdp.template, mdp.view, mdp.beta, mdp.min_quality,
                   mdp.bits_per_packet, mdp.discount)


@settings(max_examples=EXAMPLES, deadline=None)
@given(user_mdps(), st.integers(0, 2**32 - 1), values_)
def test_policy_chain_and_exact_value_equal_loops(inst, seed_b, bump):
    """One UserMdp evaluates policy A, A at a new price, B, A, then A with no
    price. It keeps the last policy's chain and LU factor, so it builds a
    factor only when the policy changes. Every value is byte-equal to the
    `spsolve` reference, and the stationary law to a fresh UserMdp's."""
    mdp, price, seed = inst
    a, b = random_table(mdp, price, seed), random_table(mdp, price, seed_b)
    assert_same_csr(mdp.policy_transition(a), reference_policy_transition(mdp, a))
    built, last = 0, None
    for table, p in ((a, price), (a, price + bump), (b, price), (a, price), (a, None)):
        got = mdp.exact_policy_value(table, p)
        assert got.tobytes() == reference_exact_policy_value(mdp, table, p).tobytes()
        built += last is None or not np.array_equal(table.policy, last)
        last = table.policy
        assert mdp.factorizations == built
    try:
        want = fresh_copy(mdp).stationary_under(a)
    except ModelError:
        with pytest.raises(ModelError):
            mdp.stationary_under(a)
    else:
        assert mdp.stationary_under(a).tobytes() == want.tobytes()
    assert mdp.factorizations == built


@settings(max_examples=EXAMPLES, deadline=None)
@given(user_mdps())
def test_stationary_law_equals_dense_eigenvector(inst):
    """On an arbitrary policy's chain with one closed class, the sparse
    solve's law is 0 off the class. Where the class's bordered balance
    system is well conditioned (condition number at most 1e3, so rounding
    alone moves the law by about 1e-13 at most), it also raises nothing,
    sums to 1 and is within 1e-12 of the dense eigenvector; a worse
    conditioned one may raise ModelError. A chain with more closed classes
    raises, naming their count."""
    mdp, price, seed = inst
    p = mdp.policy_transition(random_table(mdp, price, seed))
    dense = p.toarray()
    classes = reference_closed_classes(dense)
    if len(classes) > 1:
        with pytest.raises(ModelError, match=f"has {len(classes)} closed classes"):
            stationary_law(p)
        return
    closed = dense[np.ix_(classes[0], classes[0])]
    bordered = closed.T - np.eye(len(closed))
    bordered[0] = 1.0
    well_posed = np.linalg.cond(bordered) <= 1e3
    try:
        got = stationary_law(p)
    except ModelError:
        assert not well_posed
        return
    assert not np.delete(got, classes[0]).any()
    if well_posed:
        assert abs(got.sum() - 1.0) <= 1e-12
        want = reference_stationary_law(closed)
        assert np.abs(got[classes[0]] - want).max() <= 1e-12


@settings(max_examples=EXAMPLES, deadline=None)
@given(priced_solves(), st.lists(values_, min_size=1, max_size=3))
def test_warm_solve_chain_equals_fresh_solves(inst, bumps):
    """Warm re-solves of one UserMdp along a moving price path give the same
    values, policy and steps as each solve on a fresh UserMdp from a table
    of the same values that carries no continuation, so neither a kept
    factor nor a carried continuation is ever stale."""
    mdp, price, warm_price, tol = inst
    path = [price] + ([] if warm_price is None else [warm_price]) + [price + b for b in bumps]
    init = None
    for p in path:
        got = mdp.solve(p, tol=tol, init=init)
        fresh = fresh_copy(mdp)
        want = fresh.solve(p, tol=tol, init=None if init is None else
                           ValueTable(fresh, init.values, init.policy, init.price))
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.policy, want.policy) and got.steps == want.steps
        init = got


@settings(max_examples=EXAMPLES, deadline=None)
@given(user_mdps(), st.sampled_from([1e-6, 1e-9]), st.booleans(), st.data())
def test_warm_solve_equals_the_values_based_start(inst, tol, cold, data):
    """Along a price path whose steps move no view entry, one, or every one
    (often to tied values), `solve(p, init=table)` equals the solve started
    from the greedy policy of the table's values in every view state, byte
    for byte: values, policy, steps and the LU factors built. The path
    starts cold or from a table that carries no continuation."""
    mdp, price, seed = inst
    ref = fresh_copy(mdp)
    table = None if cold else random_table(mdp, price, seed)
    ref_init = None if cold else table.values
    p = price
    for _ in range(data.draw(st.integers(1, 4))):
        got = mdp.solve(p, tol=tol, init=table)
        want = reference_warm_solve(ref, p, tol, ref_init)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.policy.tobytes() == want.policy.tobytes()
        assert (got.steps, mdp.factorizations) == (want.steps, ref.factorizations)
        # the carried continuation is that of the returned values
        assert got.continuation.tobytes() == want.continuation.tobytes()
        table, ref_init = got, want.values
        move = data.draw(st.sampled_from(["none", "one", "every"]))
        p = p.copy()
        if move == "one":
            p[data.draw(st.integers(0, len(p) - 1))] = data.draw(values_)
        elif move == "every":
            p = np.array([data.draw(values_) for _ in p])


def test_warm_solves_along_the_recorded_coordination_path_equal_the_reference(monkeypatch):
    """tiny-priced proposed-full's coordination re-solves each user's MDP at
    581 prices, most of which move one view state's entry. Re-solved in
    order on a fresh UserMdp, each from the table before, they equal
    `reference_warm_solve` from the table before's values byte for byte:
    values, policy, continuation, steps and the LU factors built."""
    sc = preset("tiny-priced")
    seen: dict[str, list[np.ndarray]] = {}
    refresh = harness.FullMdpAgent.refresh

    def spy(agent, price_vec):
        seen.setdefault(agent.user.name, []).append(np.array(price_vec, dtype=float))
        refresh(agent, price_vec)

    monkeypatch.setattr(harness.FullMdpAgent, "refresh", spy)
    solution = build_solution(sc, "proposed-full")
    solution.prepare(np.random.default_rng(sc.seed))
    for agent in solution.agents:
        path = seen[agent.user.name]
        assert len(path) == agent.solves == 581
        mdp, ref = fresh_copy(agent.mdp), fresh_copy(agent.mdp)
        table = ref_values = None
        for p in path:
            got = mdp.solve(p, tol=1e-7, init=table)
            want = reference_warm_solve(ref, p, 1e-7, ref_values)
            for name in ("values", "policy", "continuation"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert (got.steps, mdp.factorizations) == (want.steps, ref.factorizations)
            table, ref_values = got, want.values
        assert got.values.tobytes() == agent.table.values.tobytes()


def test_solve_rejects_an_init_that_is_not_a_finite_table_of_its_mdp():
    sc = preset("tiny-sym")
    u = sc.users[0]
    mdp = UserMdp(u.template, shared_view(u.channel, len(sc.users)), u.beta, u.min_quality,
                  sc.bits_per_packet, sc.discount)
    price = np.full(len(mdp.view), 0.3)
    cold = mdp.solve(price)
    other = fresh_copy(mdp)
    nan = ValueTable(mdp, np.full_like(cold.values, np.nan), cold.policy, cold.price)
    inf = ValueTable(mdp, np.where(cold.values > 0, np.inf, cold.values), cold.policy,
                     cold.price)
    wide = ValueTable(mdp, np.zeros((len(cold.values), len(mdp.view) + 1)), cold.policy,
                      cold.price)
    for init, match in ((nan, "finite"), (inf, "finite"), (wide, "shape"),
                        (cold.values, "ValueTable of this UserMdp"),
                        (other.solve(price), "ValueTable of this UserMdp")):
        with pytest.raises(ModelError, match=match):
            mdp.solve(price, init=init)
    assert mdp.solve(price * 2, init=cold).steps >= 1


@settings(max_examples=EXAMPLES, deadline=None)
@given(priced_solves())
def test_policy_iteration_solve_matches_value_iteration(inst):
    mdp, price, warm_price, tol = inst
    init = None if warm_price is None else mdp.solve(warm_price, tol=tol)
    table = mdp.solve(price, tol=tol, init=init)
    reward = mdp.priced_reward(price)
    margin = tol * (1.0 - mdp.discount)
    ref = reference_user_solve(mdp, price, 1e-12, None if init is None else init.values)
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
    view = shared_view(u.channel, len(sc.users))
    mdp = UserMdp(u.template, view, u.beta, u.min_quality, sc.bits_per_packet,
                  sc.discount)
    lam = {(0, 0): 1.267, (1, 1): 1.419}
    cold = mdp.solve(view.price_vector(lam, sc.bits_per_packet), tol=1e-7)
    moved = view.price_vector({k: 1.01 * x for k, x in lam.items()}, sc.bits_per_packet)
    warm = mdp.solve(moved, tol=1e-7, init=cold)
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
# Coordination loop
# ---------------------------------------------------------------------------

def blurred_view(view: ChannelView) -> ChannelView:
    """`view` with each state's price read 3/4 from its own weights and 1/4
    from the other states', so that every joint key has several readers."""
    n = len(view)
    weights = tuple(
        tuple((key, 0.75 * w) for key, w in view.price_weights[v])
        + tuple((key, 0.25 * w / (n - 1)) for u in range(n) if u != v
                for key, w in view.price_weights[u])
        for v in range(n))
    return ChannelView(view.state_of, view.transition, view.rate, view.gain, weights)


# each view kind's scenario: the preset's common channel, or independent
# channels priced by the own view, the joint view or a blurred own view
COORDINATION_VIEWS = {
    "common": {},
    "own": {"channel_correlation": "independent", "price_view": "expected"},
    "joint": {"channel_correlation": "independent", "price_view": "full"},
    "blurred": {"channel_correlation": "independent", "price_view": "expected"},
}


def reference_coordination(sc, agents, **kwargs):
    """`reference_run_coordination` on the band, bits per packet, channel
    correlation and price tolerance of `sc`."""
    return reference_run_coordination(
        agents, bandwidth=sc.bandwidth, bits_per_packet=sc.bits_per_packet,
        correlation=sc.channel_correlation, tolerance=sc.price_tolerance, **kwargs)


def coordinate(run, sc, kind: str, view_kind: str, max_slots: int):
    """`run` (run_coordination or `reference_coordination`) on fresh agents
    of `kind` and the scenario's generator: the price table (None when it raised
    `CoordinationError`), the report, every refresh vector in call order,
    the generator's state after and the agents."""
    rng = np.random.default_rng(sc.seed)
    views = harness.build_views(sc)
    if view_kind == "blurred":
        views = [blurred_view(v) for v in views]
    make = {"decomposed": lambda u, v: DecomposedAgent(u, v, sc.discount),
            "full": lambda u, v: harness.FullMdpAgent(u, v, sc.bits_per_packet, sc.discount),
            "pds": lambda u, v: harness.PdsDecomposedAgent(u, v, sc.discount, rng),
            "drift": lambda u, v: harness.DriftAgent(u, v, sc.discount)}[kind]
    agents = [make(u, v) for u, v in zip(sc.users, views)]
    calls = []
    for i, agent in enumerate(agents):
        def refresh(vec, i=i, solve=agent.refresh):
            calls.append((i, np.asarray(vec).dtype.str, np.asarray(vec).tobytes()))
            solve(vec)
        agent.refresh = refresh
    try:
        table, report = run(sc, agents, max_slots=max_slots, eval_slots=300, rng=rng)
    except pricing.CoordinationError as err:
        table, report = None, err.report
    return table, report, calls, rng.bit_generator.state, agents


@pytest.mark.parametrize("name,view_kind", [("tiny-mix", v) for v in COORDINATION_VIEWS]
                         + [("tiny-sym", v) for v in ("own", "joint", "blurred")])
@pytest.mark.parametrize("kind", ["decomposed", "full", "pds", "drift"])
def test_incremental_coordination_equals_full_recomputation(name, view_kind, kind):
    """The loop that rewrites only the price entries that read the updated
    state, runs the refresh gate only on moved vectors, re-tests only the
    updated state's window and steps traffic by transition gives the same
    price table, report, refresh vectors, generator state and agents as
    recomputing everything every slot, when it settles and when it hits
    its slot cap."""
    sc = replace(preset(name), **COORDINATION_VIEWS[view_kind])
    cap = 20_000
    for settles in (True, False):
        got = coordinate(pricing.run_coordination, sc, kind, view_kind, cap)
        want = coordinate(reference_coordination, sc, kind, view_kind, cap)
        (table, report, calls, state, agents), (ref_table, ref_report, ref_calls, ref_state,
                                                ref_agents) = got, want
        assert report.converged == settles and (table is not None) == settles
        assert report == ref_report
        assert calls == ref_calls
        assert state == ref_state
        # the loop's refreshes; a settled loop then refreshes each agent once
        in_loop = calls[:-len(agents)] if settles else calls
        assert report.refreshes == [sum(1 for i, *_ in in_loop if i == k)
                                    for k in range(len(agents))]
        if settles:
            assert (table.lam, table.counts, table.history, table.updates) == \
                (ref_table.lam, ref_table.counts, ref_table.history, ref_table.updates)
        if kind == "full":
            for a, b in zip(agents, ref_agents):
                assert a.table.values.tobytes() == b.table.values.tobytes()
                assert a.table.policy.tobytes() == b.table.policy.tobytes()
        cap = report.slots_run // 2


# ---------------------------------------------------------------------------
# Shared inductions
# ---------------------------------------------------------------------------

def assert_own_tables(agent) -> None:
    """The agent's tables equal its own `build_du_tables` at its price."""
    assert_same_tables(agent.tables, build_du_tables(agent.template, agent.view,
                                                     agent.discount, agent.price_vec))


@st.composite
def kind_sharing_scenarios(draw_):
    """Scenarios of 2-3 users whose DU kinds are equal to the first user's
    (one template, or its DUs in reverse order, which reverses the kinds),
    nested in them (a prefix of its DUs, shorter where it can be), disjoint
    from them (impacts moved past every drawn one) or drawn apart, on one
    common channel at equal or unequal rates, in any user order. One in four
    rides independent channels of one state count, 2 or 3, whose own views
    differ in their transitions."""
    base = draw_(small_templates(max_dus=3))
    relation = draw_(st.sampled_from(["equal", "reversed", "nested", "disjoint", "drawn"]))
    common = draw_(st.integers(0, 3)) > 0
    shared = draw_(channels(min_states=1 if common else 2))
    unequal = draw_(st.booleans())
    users = []
    for i in range(draw_(st.integers(2, 3))):
        tpl = base
        if i and relation == "reversed":
            tpl = GopTemplate(base.dus[::-1], base.period, base.window)
        elif i and relation == "nested":
            tpl = GopTemplate(base.dus[:draw_(st.integers(1, max(1, len(base.dus) - 1)))],
                              base.period, base.window)
        elif i and relation == "disjoint":
            tpl = GopTemplate([replace(du, distortion_impact=du.distortion_impact + 20.0 * i)
                               for du in base.dus], base.period, base.window)
        elif i and relation == "drawn":
            tpl = draw_(small_templates(max_dus=3))
        ch = shared if common else draw_(channels(len(shared), len(shared)))
        if unequal:
            ch = ChannelModel(ch.names, ch.gain, ch.rate * (1.0 + 0.5 * i), ch.transition)
        users.append(UserConfig(f"u{i}", tpl, ch))
    order = draw_(st.permutations(range(len(users))))
    return ScenarioConfig("shared", tuple(users[i] for i in order),
                          bandwidth=draw_(st.sampled_from([0.5, 1.0, 3.0])),
                          discount=draw_(st.sampled_from([0.0, 0.5, 0.9])),
                          price_tolerance=0.05,
                          channel_correlation="common" if common else "independent")


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(kind_sharing_scenarios(), values_)
def test_shared_inductions_equal_each_agents_own_solve(sc, lam):
    """After every refresh of a short coordination, and of a re-pricing at
    one band price `lam` as `mu-mdp` makes (equal vectors on independent
    channels with equal rates, whose transitions differ), each decomposed
    agent's tables equal its own `build_du_tables`, byte for byte, whether
    they were solved, reused or gathered from another agent's solve; no
    agent solves more often than its tables change. In the coordination,
    users priced alike on a common channel whose kinds the first user's
    hold solve nothing."""
    agents = make_agents(sc, "decomposed")
    changed = [0] * len(agents)
    for i, agent in enumerate(agents):
        def refresh(vec, i=i, agent=agent, solve=agent.refresh):
            before = agent.tables
            solve(vec)
            changed[i] += agent.tables is not before
            for a in agents:
                if a.tables is not None:
                    assert_own_tables(a)
        agent.refresh = refresh
    try:
        pricing.run_coordination(sc, agents, max_slots=40, eval_slots=20,
                                 rng=np.random.default_rng(0))
    except pricing.CoordinationError:
        pass
    assert all(a.solves <= n for a, n in zip(agents, changed))
    coordinated = [a.solves for a in agents]
    for a in agents:
        a.refresh(lam * sc.bits_per_packet / np.asarray(a.view.rate))
    assert all(a.solves <= n for a, n in zip(agents, changed))
    first = agents[0]
    if sc.channel_correlation == "common" and all(
            (u.channel.rate == sc.users[0].channel.rate).all() for u in sc.users):
        for a in agents[1:]:
            if (a.template.window == first.template.window
                    and set(a.template.du_layout.kinds) <= set(first.template.du_layout.kinds)):
                assert coordinated[agents.index(a)] == 0


def test_gop16_coordination_is_the_same_when_each_agent_solves_alone(monkeypatch):
    """gop16-default's coordination with shared inductions equals, byte for
    byte, one where each agent solves its own tables (a share that never
    answers): prices, update counts and history, the report but for its
    solves, and every agent's tables. Shared, the second user solves
    nothing."""
    sc = preset("gop16-default")

    def prepared():
        sol = ProposedSolution(sc)
        sol.prepare(np.random.default_rng(sc.seed))
        return sol

    shared = prepared()
    monkeypatch.setattr(scheduling.TableShare, "lookup", lambda self, *args: None)
    alone = prepared()
    assert shared.report.solves == [shared.report.refreshes[0], 0]
    assert alone.report.solves == alone.report.refreshes == shared.report.refreshes
    assert replace(shared.report, solves=[]) == replace(alone.report, solves=[])
    assert (shared.prices.lam, shared.prices.counts, shared.prices.history) == \
        (alone.prices.lam, alone.prices.counts, alone.prices.history)
    for a, b in zip(shared.agents, alone.agents):
        assert a.price_vec.tobytes() == b.price_vec.tobytes()
        assert_same_tables(a.tables, b.tables)
        assert_own_tables(a)


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
    """One kernel was built, and its rows gathered at each pair's row are the
    pair loop's kernel, byte for byte; so are the rewards and starts."""
    assert len(built) == 1
    got_kernel, got_row, got_reward, got_starts = built[0]
    assert got_kernel.shape[0] == len(np.unique(got_row))
    assert_same_csr(got_kernel[got_row], kernel)
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
        # a kernel row is a next-state law at one c0; a group, one at a state
        laws = [(row.indices.tobytes(), row.data.tobytes()) for row in kernel]
        state = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(laws))).tolist()
        c0 = [s % len(orc.space.c0_states) for s in state]
        assert (orc.pairs, orc.groups, orc.kernel_rows) == (
            len(laws), len(set(zip(state, laws))), len(set(zip(c0, laws))))
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


@settings(max_examples=EXAMPLES // 6, deadline=None)
@given(joint_scenarios(), st.data())
def test_local_pair_counts_are_the_built_blocks_counts(inst, data):
    """`oracle._local_pairs`, which sizes the enumeration's blocks against
    the pair cap, gives the unfiltered pair count of each of user 0's local
    states in `_joint_products`, and blocks of drawn sizes concatenate to
    one block of the whole phase, on generated instances with quality
    floors."""
    sc, _ = inst
    space = JointSpace(sc)
    actions, _ = oracle._action_rows(space, sc)
    nc = len(space.c0_states)
    for jp in range(space.period):
        per_local = oracle._local_pairs(space, actions, jp)
        width = space.strides[jp][0] * nc
        assert len(per_local) * width == int(np.prod(space.counts[jp])) * nc
        whole, whole_rows = oracle._joint_products(space, actions, jp, range(len(per_local)))
        built = np.bincount((whole - space.base[jp] * nc) // width, minlength=len(per_local))
        assert np.array_equal(per_local, built)
        cuts = sorted(set(data.draw(st.lists(st.integers(1, len(per_local)), max_size=3))))
        blocks = [oracle._joint_products(space, actions, jp, range(a, b))
                  for a, b in zip([0] + cuts, cuts + [len(per_local)]) if a < b]
        assert np.array_equal(np.concatenate([st_ for st_, _ in blocks]), whole)
        assert np.array_equal(np.concatenate([r for _, r in blocks], axis=1), whole_rows)


@pytest.mark.parametrize("name", ["myopic", "myopic+fifo", "myopic+hdf", "proposed",
                                  "proposed-full", "mu-mdp-full", "proposed+edf",
                                  "proposed+fifo", "proposed+hdf", "mu-mdp"])
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


def reference_backup(kernel, pair_row, reward, starts, delta, v):
    """Each state's max, and its first maximising pair, of reward + delta *
    E[v(next)] over its pairs, from the pair-by-state kernel."""
    q = reward + delta * (kernel[pair_row] @ v)
    ends = np.append(starts[1:], len(q))
    return (np.maximum.reduceat(q, starts),
            np.array([lo + int(np.argmax(q[lo:hi])) for lo, hi in zip(starts, ends)]))


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(joint_scenarios(), st.sampled_from(["built", "tied in row", "coarse", "doubled"]),
       st.sampled_from([-1.0, 0.0, 1.0]), st.sampled_from(["spread", "small ints"]),
       st.integers(0, 2**32 - 1), st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
def test_grouped_backup_equals_pair_backup(inst, ties, bump, spread, seed, delta):
    """The backup over each state's (row, largest reward) groups gives the
    pair backup's values byte for byte, and its first maximising pairs, at
    arbitrary value vectors and discounts from 0. The pairs are the priced
    joint problem's, as built, or with ties forced: every pair of a (state,
    row) group at one reward, rewards rounded to integers, or each pair
    doubled at the same row with its reward moved by -1, 0 or 1. Values
    span nine decades or are small integers, so sums tie across rows too."""
    sc, prices = inst
    with built_kernels() as built:
        oracle.penalized_joint_value(sc, prices)
    kernel, pair_row, reward, starts = built[0]
    rng = np.random.default_rng(seed)
    if ties == "tied in row":
        state = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(reward)))
        _, first, group = np.unique(state * kernel.shape[0] + pair_row, return_index=True,
                                    return_inverse=True)
        reward = reward[first][group]
    elif ties == "coarse":
        reward = np.round(reward) + 0.0  # as built, no reward is -0.0
    elif ties == "doubled":
        pair_row, starts = np.repeat(pair_row, 2), 2 * starts
        reward = np.repeat(reward, 2) + np.tile([0.0, bump], len(reward))
    if spread == "small ints":
        v = rng.integers(-2, 3, kernel.shape[1]).astype(float)
    else:
        v = rng.normal(size=kernel.shape[1]) * 10.0 ** rng.integers(-3, 7, kernel.shape[1])
    backup = oracle.PairBackup(kernel, pair_row, reward, starts, delta)
    want, first_best = reference_backup(kernel, pair_row, reward, starts, delta, v)
    assert backup(v).tobytes() == want.tobytes()
    assert np.array_equal(backup.greedy(v), first_best)


# (per-user sends, per-user buffers, rates, bits per packet, band) of one
# slot where some user's gamma * total falls just short of an integer, so
# only the 1e-9 in floor(gamma * total + 1e-9) gives the scalar budget
ROUNDING_EDGES = [
    ([(4, 3, 3), (2, 2)], [(9, 9, 9), (9, 9)], [1.0, 2.0], 0.5, 2.4),     # trim
    ([(1, 1, 1), (3, 2)], [(9, 9, 9), (9, 9)], [3.0, 1.0], 1.0, 2.4),     # trim
    ([(3, 2, 2)], [(20, 20, 20)], [3.0], 0.5, 7.5),                       # inflate
    ([(2, 2, 2), (3, 2)], [(20, 20, 20), (9, 9)], [4.5, 3.0], 1.0, 13.2),  # inflate
]


@pytest.mark.parametrize("sends, buffers, rates, bits, bandwidth", ROUNDING_EDGES)
def test_row_trims_keep_the_scalar_budget_rounding(sends, buffers, rates, bits, bandwidth):
    """At budgets on the rounding edge, and beside a row that sends nothing,
    the row trims give the scalar trims' sends."""
    contexts = [t.context(1) for t in preset("tiny-priced").templates][:len(sends)]
    usage = bandwidth_usage([sum(a) for a in sends], rates, bits)
    gamma = bandwidth / usage
    assert any(np.floor(gamma * sum(a)) != np.floor(gamma * sum(a) + 1e-9) for a in sends)
    acts = [ScheduleAction(a) for a in sends]
    rows = [np.array([a, (0,) * len(a)], dtype=np.int64) for a in sends]
    bufs = [np.array([b, b], dtype=np.int64) for b in buffers]
    row_rates = [np.array([r, r]) for r in rates]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        down = scale_rows_to_budget(contexts, rows, row_rates, bits, bandwidth)
        up = scale_rows_up_to_budget(contexts, rows, bufs, row_rates, bits, bandwidth)
    assert [tuple(d[0].tolist()) for d in down] == \
        [a.sends for a in scale_to_budget(contexts, acts, rates, bits, bandwidth)]
    assert [tuple(u[0].tolist()) for u in up] == \
        [a.sends for a in scale_up_to_budget(contexts, acts, buffers, rates, bits, bandwidth)]
    assert all(not d[1].any() and not u[1].any() for d, u in zip(down, up))


@contextmanager
def recorded_sends():
    """Record the sends array of every user row set the exact evaluation
    builds while open."""
    seen = []
    user_rows = oracle._user_rows

    def record(layout, user, bits_per_packet, state, sends):
        seen.append(sends.copy())
        return user_rows(layout, user, bits_per_packet, state, sends)

    oracle._user_rows = record
    try:
        yield seen
    finally:
        oracle._user_rows = user_rows


def priced_solutions(sc: ScenarioConfig, prices, kind: str) -> list:
    """proposed and mu-mdp on agents of `kind` ("full" or "decomposed"),
    refreshed at the drawn per-state prices (and at their mean as the one
    uniform price), without coordination or bisection; with decomposed
    agents also proposed+edf, +fifo and +hdf on that proposed."""
    suffix = "-full" if kind == "full" else ""
    prop = ProposedSolution(sc, agent_kind=kind)
    prop.name = "proposed" + suffix
    prop.agents = make_agents(sc, kind)
    prop.prices = PriceTable()
    prop.prices.lam.update(prices)
    for a in prop.agents:
        a.refresh(a.view.price_vector(prices, sc.bits_per_packet))
    uni = UniformPriceSolution(sc, agent_kind=kind)
    uni.name = "mu-mdp" + suffix
    uni.agents = make_agents(replace(sc, price_view="expected"), kind)
    uni.price = float(np.mean(list(prices.values())))
    for a in uni.agents:
        a.refresh(uni.price * sc.bits_per_packet / np.asarray(a.view.rate))
    paired = [] if kind == "full" else [build_solution(sc, f"proposed+{name}", proposed=prop)
                                        for name in ("edf", "fifo", "hdf")]
    return [prop, uni, *paired]


def outcome(call):
    """(sends arrays built, value bytes, None) of an evaluation, or (None,
    None, message) if it raised ModelError."""
    with recorded_sends() as seen:
        try:
            values, _ = call()
        except ModelError as exc:
            return None, None, str(exc)
    return seen, values.tobytes(), None


def assert_array_rules_equal_the_per_state_rule(sc: ScenarioConfig, solutions) -> None:
    """The array path of `evaluate_solution` hands the kernel build the same
    per-user sends, and gives the same value bytes or the same ModelError,
    as asking `sent_actions` at every joint state; it fills no decision
    cache, so it is the path every solution took."""
    states = JointChannel(sc.channels, sc.channel_correlation).all_states()
    caches = [sol._cache for sol in solutions if hasattr(sol, "_cache")]
    fast = [outcome(partial(oracle.evaluate_solution, sc, sol)) for sol in solutions]
    assert not any(caches)
    for sol, got in zip(solutions, fast):
        def rule(jphase, buffers, c0, sol=sol):
            ctxs = [t.context(jphase % t.period) for t in sc.templates]
            return sol.sent_actions(states[c0], ctxs, buffers).sent

        ref = outcome(lambda: oracle.joint_value_of(sc, rule))
        assert got[2] == ref[2]
        if ref[2] is None:
            assert len(got[0]) == len(ref[0]) == len(sc.users)
            for a, b in zip(got[0], ref[0]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert got[1] == ref[1]


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(joint_scenarios())
def test_table_rule_sends_equal_the_per_state_rule(inst):
    """The array path of `evaluate_solution` (proposed-full and mu-mdp-full)
    equals the per-state rule (`assert_array_rules_equal_the_per_state_rule`)
    on generated instances with quality floors, beta > 0, common or
    independent channels and binding bands."""
    sc, prices = inst
    assert_array_rules_equal_the_per_state_rule(sc, priced_solutions(sc, prices, "full"))


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(joint_scenarios())
def test_decomposed_rule_sends_equal_the_per_state_rule(inst):
    """The same for proposed, proposed+edf, +fifo, +hdf and mu-mdp on
    decomposed agents, whose lookup rule has no quality floors: generated
    instances with beta 0, 0.3 or 1, common or independent channels and
    binding bands."""
    sc, prices = inst
    sc = replace(sc, users=tuple(replace(u, min_quality=0.0) for u in sc.users))
    assert_array_rules_equal_the_per_state_rule(sc, priced_solutions(sc, prices, "decomposed"))


@pytest.mark.parametrize("name", ["tiny-sym", "tiny-asym", "tiny-mix", "tiny-priced"])
def test_decomposed_rule_sends_equal_the_per_state_rule_on_presets(name):
    """The same for the coordinated and bisected solutions of the presets:
    proposed, proposed+edf, +fifo and +hdf on one proposed, and mu-mdp."""
    sc = preset(name)
    prop = build_solution(sc, "proposed")
    solutions = [prop] + [build_solution(sc, other, proposed=prop) for other in
                          ("proposed+edf", "proposed+fifo", "proposed+hdf", "mu-mdp")]
    for sol in solutions:
        sol.prepare(np.random.default_rng(sc.seed))
    assert_array_rules_equal_the_per_state_rule(sc, solutions)
