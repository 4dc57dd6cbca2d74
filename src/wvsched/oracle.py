"""Exact computations on the joint multi-user MDP.

centralized_oracle solves the constrained joint Bellman equation by value
iteration with the bandwidth constraint enforced inside each state's max;
joint_value_of evaluates an arbitrary deterministic per-slot rule on the
joint chain by a linear solve. Both average uniformly over initial joint
states, matching the design objective's uniform initial-state reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wvsched.mdp import TrafficLayout, entering_combos
from wvsched.model import ModelError, ScenarioConfig, ScheduleAction, iter_actions
from wvsched.pricing import JointChannel


class JointSpace:
    """Enumeration of joint states (joint phase, all buffers, joint channel)."""

    def __init__(self, scenario: ScenarioConfig, state_cap: int = 200_000):
        self.scenario = scenario
        self.layouts = [TrafficLayout(u.template) for u in scenario.users]
        self.joint = JointChannel(scenario.channels, scenario.channel_correlation)
        self.c0_states = self.joint.all_states()
        self.c0_index = {s: i for i, s in enumerate(self.c0_states)}
        self.period = math.lcm(*(u.template.period for u in scenario.users))

        self.counts = []      # per jphase: per-user traffic-state counts
        self.base = []
        offset = 0
        for jp in range(self.period):
            cnt = [lay.phase_count(jp % lay.period) for lay in self.layouts]
            self.counts.append(cnt)
            self.base.append(offset)
            offset += int(np.prod(cnt, dtype=np.int64))
        self.n_traffic = offset
        self.n_states = self.n_traffic * len(self.c0_states)
        if self.n_states > state_cap:
            raise ModelError(
                f"joint state space has {self.n_states} states (cap {state_cap}); "
                f"per-phase traffic counts: {self.counts}, "
                f"joint channel states: {len(self.c0_states)}")

    def index(self, jphase: int, locals_: Sequence[int], c0: int) -> int:
        acc = 0
        for loc, cnt in zip(locals_, self.counts[jphase]):
            acc = acc * cnt + loc
        return (self.base[jphase] + acc) * len(self.c0_states) + c0

    def decode(self, idx: int) -> tuple[int, list[tuple[int, ...]], int]:
        c0 = idx % len(self.c0_states)
        t = idx // len(self.c0_states)
        jphase = max(p for p in range(self.period) if self.base[p] <= t)
        acc = t - self.base[jphase]
        locals_ = []
        for cnt in reversed(self.counts[jphase]):
            locals_.append(acc % cnt)
            acc //= cnt
        locals_.reverse()
        buffers = []
        for lay, loc in zip(self.layouts, locals_):
            p = jphase % lay.period
            _, buf = lay.decode(lay.base[p] + loc)
            buffers.append(buf)
        return jphase, buffers, c0

    def channel_row(self, c0: int) -> list[tuple[int, float]]:
        out = []
        s0 = self.c0_states[c0]
        if self.joint.correlation == "common":
            chain = self.joint.channels[0]
            for h2 in range(len(chain)):
                p = chain.transition[s0[0], h2]
                if p > 0:
                    out.append((self.c0_index[(h2,) * len(s0)], p))
            return out
        for c1, s1 in enumerate(self.c0_states):
            p = 1.0
            for chan, (ha, hb) in zip(self.joint.channels, zip(s0, s1)):
                p *= chan.transition[ha, hb]
            if p > 0:
                out.append((c1, p))
        return out


@dataclass
class OracleResult:
    """Optimal constrained joint values; mean is the network-utility oracle."""

    space: JointSpace
    values: np.ndarray
    mean_value: float
    policy: dict[int, tuple[tuple[int, ...], ...]]
    sweeps: int


def _user_tables(space: JointSpace, scenario: ScenarioConfig):
    """Per user: action lists, gains, totals per traffic state; entering combos."""
    per_user = []
    for u, lay in zip(scenario.users, space.layouts):
        acts: dict[int, list[ScheduleAction]] = {}
        for t_idx, phase, buf in lay.iter_states():
            acts[t_idx] = list(iter_actions(lay.contexts[phase], buf, u.min_quality))
        combos = [entering_combos(lay, p) for p in range(lay.period)]
        per_user.append((acts, combos))
    return per_user


def build_joint_kernel(space: JointSpace, scenario: ScenarioConfig,
                       act_rule: Callable, reward_rule: Callable,
                       ) -> tuple[sp.csr_matrix, np.ndarray]:
    """Transition matrix and per-state reward for one deterministic action rule.

    act_rule(jphase, buffers, c0) returns the per-user sent actions;
    reward_rule(jphase, buffers, c0, sent) returns the instantaneous reward.
    """
    layouts = space.layouts
    combos_by_user = [[entering_combos(lay, p) for p in range(lay.period)]
                      for lay in layouts]
    n = space.n_states
    rows, cols, vals = [], [], []
    rewards = np.zeros(n)
    nc = len(space.c0_states)
    for t in range(space.n_traffic):
        idx0 = t * nc
        jphase, buffers, _ = space.decode(idx0)
        for c0 in range(nc):
            idx = idx0 + c0
            sent = act_rule(jphase, buffers, c0)
            rewards[idx] = reward_rule(jphase, buffers, c0, sent)
            nxt_locals = _next_local_branches(space, combos_by_user, jphase, buffers, sent)
            chan = space.channel_row(c0)
            njp = (jphase + 1) % space.period
            for locs, p_tr in nxt_locals:
                acc = 0
                for loc, cnt in zip(locs, space.counts[njp]):
                    acc = acc * cnt + loc
                tcol = space.base[njp] + acc
                for c1, p_ch in chan:
                    rows.append(idx)
                    cols.append(tcol * nc + c1)
                    vals.append(p_tr * p_ch)
    kernel = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return kernel, rewards


def _next_local_branches(space: JointSpace, combos_by_user, jphase: int,
                         buffers, sent) -> list[tuple[list[int], float]]:
    """Per-user survivor part + entering-size branches, crossed over users."""
    per_user = []
    njp = (jphase + 1) % space.period
    for lay, combos, buf, act in zip(space.layouts, combos_by_user, buffers, sent):
        p = jphase % lay.period
        np_ = njp % lay.period
        step = lay.steps[p]
        # strides-only sums: local offsets within the next phase, no base term
        surv = sum((buf[i] - act.sends[i]) * lay.strides[np_][j] for i, j in step.survivors)
        offs, probs = combos[p]
        per_user.append([(int(surv + o), float(pr)) for o, pr in zip(offs, probs)])
    out = []
    for combo in product(*per_user):
        locs = [c[0] for c in combo]
        pr = 1.0
        for c in combo:
            pr *= c[1]
        out.append((locs, pr))
    return out


def usage_of(scenario: ScenarioConfig, s0: tuple[int, ...],
             totals: Sequence[int]) -> float:
    return sum(t * scenario.bits_per_packet / u.channel.rate[h]
               for t, h, u in zip(totals, s0, scenario.users))


def centralized_oracle(scenario: ScenarioConfig, state_cap: int = 200_000,
                       pair_cap: int = 5_000_000, tol: float = 1e-9,
                       max_iter: int = 100_000) -> OracleResult:
    """Exact value iteration on the joint MDP with the band constraint
    enforced inside every state's maximization."""
    space = JointSpace(scenario, state_cap)
    delta = scenario.discount
    nc = len(space.c0_states)
    per_user = _user_tables(space, scenario)
    combos_by_user = [combos for _, combos in per_user]

    # Enumerate feasible joint state-action pairs.
    group_start = [0]
    sa_reward: list[float] = []
    sa_rows: list[np.ndarray] = []
    sa_cols: list[np.ndarray] = []
    sa_vals: list[np.ndarray] = []
    sa_actions: list[tuple] = []
    sa = 0
    for t in range(space.n_traffic):
        jphase, buffers, _ = space.decode(t * nc)
        locs = [lay.index(jphase % lay.period, buf) for lay, buf in
                zip(space.layouts, buffers)]
        user_acts = [per_user[i][0][loc] for i, loc in enumerate(locs)]
        for c0 in range(nc):
            idx = t * nc + c0
            s0 = space.c0_states[c0]
            chan = space.channel_row(c0)
            found = False
            for joint_act in product(*user_acts):
                totals = [a.total for a in joint_act]
                if usage_of(scenario, s0, totals) > scenario.bandwidth + 1e-9:
                    continue
                found = True
                rew = 0.0
                for i, (u, act) in enumerate(zip(scenario.users, joint_act)):
                    gain = sum(s.du.distortion_impact * y for s, y in zip(
                        space.layouts[i].contexts[jphase % space.layouts[i].period].slots,
                        act.sends))
                    rew += gain - u.beta * u.channel.energy(s0[i], act.total)
                branches = _next_local_branches(space, combos_by_user, jphase,
                                                buffers, joint_act)
                njp = (jphase + 1) % space.period
                r_, c_, v_ = [], [], []
                for locs2, p_tr in branches:
                    acc = 0
                    for loc, cnt in zip(locs2, space.counts[njp]):
                        acc = acc * cnt + loc
                    tcol = space.base[njp] + acc
                    for c1, p_ch in chan:
                        r_.append(sa)
                        c_.append(tcol * nc + c1)
                        v_.append(p_tr * p_ch)
                sa_rows.append(np.asarray(r_, dtype=np.int64))
                sa_cols.append(np.asarray(c_, dtype=np.int64))
                sa_vals.append(np.asarray(v_))
                sa_reward.append((1.0 - delta) * rew)
                sa_actions.append(joint_act)
                sa += 1
                if sa > pair_cap:
                    raise ModelError(
                        f"joint state-action pairs exceed cap {pair_cap}")
            if not found:
                raise ModelError(
                    f"no feasible joint action in joint channel state {s0} "
                    "(quality floors exceed the band)")
            group_start.append(sa)

    kernel = sp.csr_matrix(
        (np.concatenate(sa_vals), (np.concatenate(sa_rows), np.concatenate(sa_cols))),
        shape=(sa, space.n_states))
    reward = np.asarray(sa_reward)
    starts = np.asarray(group_start[:-1], dtype=np.int64)

    values = np.zeros(space.n_states)
    if delta == 0.0:
        values = np.maximum.reduceat(reward, starts)
        sweeps = 1
    else:
        stop = tol * (1.0 - delta) / delta
        sweeps = 0
        for sweeps in range(1, max_iter + 1):
            q = reward + delta * (kernel @ values)
            new = np.maximum.reduceat(q, starts)
            diff = float(np.max(np.abs(new - values)))
            values = new
            if diff < stop:
                break
        else:
            raise ModelError("oracle value iteration did not converge")

    # Greedy joint policy (first maximizer per state).
    q = reward + delta * (kernel @ values)
    policy: dict[int, tuple] = {}
    gs = np.asarray(group_start, dtype=np.int64)
    for idx in range(space.n_states):
        lo, hi = gs[idx], gs[idx + 1]
        k = lo + int(np.argmax(q[lo:hi]))
        policy[idx] = tuple(a.sends for a in sa_actions[k])
    return OracleResult(space, values, float(values.mean()), policy, sweeps)


def joint_value_of(scenario: ScenarioConfig, act_rule: Callable,
                   state_cap: int = 200_000) -> tuple[np.ndarray, float]:
    """Exact discounted network value of a deterministic slot rule.

    act_rule(jphase, buffers, c0) -> list[ScheduleAction] (the physical sends,
    scaling already applied). Averages uniformly over initial joint states.
    """
    space = JointSpace(scenario, state_cap)
    delta = scenario.discount

    def reward_rule(jphase, buffers, c0, sent):
        s0 = space.c0_states[c0]
        rew = 0.0
        for i, (u, act) in enumerate(zip(scenario.users, sent)):
            lay = space.layouts[i]
            ctx = lay.contexts[jphase % lay.period]
            gain = sum(s.du.distortion_impact * y for s, y in zip(ctx.slots, act.sends))
            rew += gain - u.beta * u.channel.energy(s0[i], act.total)
        return rew

    kernel, rewards = build_joint_kernel(space, scenario, act_rule, reward_rule)
    a = sp.eye(space.n_states, format="csr") - delta * kernel
    values = spla.spsolve(a.tocsc(), (1.0 - delta) * rewards)
    return values, float(values.mean())


def evaluate_solution(scenario: ScenarioConfig, solution,
                      state_cap: int = 200_000) -> tuple[np.ndarray, float]:
    """Exact network value of a prepared solution's deterministic slot rule."""
    states = JointChannel(scenario.channels, scenario.channel_correlation).all_states()
    templates = [u.template for u in scenario.users]

    def rule(jphase, buffers, c0):
        s0 = states[c0]
        ctxs = [t.context(jphase % t.period) for t in templates]
        return solution.sent_actions(s0, ctxs, buffers).sent

    return joint_value_of(scenario, rule, state_cap)


def penalized_joint_value(scenario: ScenarioConfig,
                          prices: Mapping[tuple[int, ...], float],
                          state_cap: int = 200_000, tol: float = 1e-9,
                          max_iter: int = 100_000) -> tuple[np.ndarray, float]:
    """Unconstrained joint value with the band constraint priced into the
    objective: reward + lambda0(s0) * (B - usage). Raises ModelError when
    value iteration has not converged after `max_iter` sweeps."""
    space = JointSpace(scenario, state_cap)
    delta = scenario.discount
    nc = len(space.c0_states)
    per_user = _user_tables(space, scenario)
    combos_by_user = [combos for _, combos in per_user]

    group_start = [0]
    sa_reward: list[float] = []
    sa_rows, sa_cols, sa_vals = [], [], []
    sa = 0
    for t in range(space.n_traffic):
        jphase, buffers, _ = space.decode(t * nc)
        locs = [lay.index(jphase % lay.period, buf) for lay, buf in
                zip(space.layouts, buffers)]
        user_acts = [per_user[i][0][loc] for i, loc in enumerate(locs)]
        for c0 in range(nc):
            s0 = space.c0_states[c0]
            lam = prices.get(s0, 0.0)
            chan = space.channel_row(c0)
            for joint_act in product(*user_acts):
                totals = [a.total for a in joint_act]
                usage = usage_of(scenario, s0, totals)
                rew = lam * (scenario.bandwidth - usage)
                for i, (u, act) in enumerate(zip(scenario.users, joint_act)):
                    lay = space.layouts[i]
                    ctx = lay.contexts[jphase % lay.period]
                    gain = sum(s.du.distortion_impact * y
                               for s, y in zip(ctx.slots, act.sends))
                    rew += gain - u.beta * u.channel.energy(s0[i], act.total)
                branches = _next_local_branches(space, combos_by_user, jphase,
                                                buffers, joint_act)
                njp = (jphase + 1) % space.period
                for locs2, p_tr in branches:
                    acc = 0
                    for loc, cnt in zip(locs2, space.counts[njp]):
                        acc = acc * cnt + loc
                    tcol = space.base[njp] + acc
                    for c1, p_ch in chan:
                        sa_rows.append(sa)
                        sa_cols.append(tcol * nc + c1)
                        sa_vals.append(p_tr * p_ch)
                sa_reward.append((1.0 - delta) * rew)
                sa += 1
            group_start.append(sa)

    kernel = sp.csr_matrix((sa_vals, (sa_rows, sa_cols)), shape=(sa, space.n_states))
    reward = np.asarray(sa_reward)
    starts = np.asarray(group_start[:-1], dtype=np.int64)
    values = np.zeros(space.n_states)
    stop = tol * (1.0 - delta) / delta if delta > 0 else None
    for _ in range(max_iter):
        q = reward + delta * (kernel @ values)
        new = np.maximum.reduceat(q, starts)
        diff = float(np.max(np.abs(new - values)))
        values = new
        if delta == 0.0 or diff < stop:
            break
    else:
        raise ModelError(
            f"penalized joint value iteration did not converge in {max_iter} sweeps")
    return values, float(values.mean())
