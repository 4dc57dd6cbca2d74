"""Exact computations on the joint multi-user MDP.

centralized_oracle solves the constrained joint Bellman equation by value
iteration with the bandwidth constraint enforced inside each state's max;
joint_value_of evaluates an arbitrary deterministic per-slot rule on the
joint chain by a linear solve. Both average uniformly over initial joint
states, matching the design objective's uniform initial-state reading.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wvsched.mdp import TrafficLayout, entering_combos, product_chain, value_iteration
from wvsched.model import ModelError, ScenarioConfig, bandwidth_usage, iter_actions
from wvsched.pricing import JointChannel


class JointSpace:
    """Enumeration of joint states (joint phase, all buffers, joint channel)."""

    def __init__(self, scenario: ScenarioConfig, state_cap: int = 200_000):
        self.scenario = scenario
        self.layouts = [TrafficLayout(u.template) for u in scenario.users]
        self.joint = JointChannel(scenario.channels, scenario.channel_correlation)
        self.c0_states = self.joint.all_states()
        # joint channel transition over c0_states; common correlation rides one chain
        self.transition = self.joint.channels[0].transition \
            if self.joint.correlation == "common" else product_chain(self.joint.channels)
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


@dataclass
class OracleResult:
    """Optimal constrained joint values; mean is the network-utility oracle."""

    space: JointSpace
    values: np.ndarray
    mean_value: float
    policy: dict[int, tuple[tuple[int, ...], ...]]
    sweeps: int


def build_joint_kernel(space: JointSpace, scenario: ScenarioConfig, choices: Callable,
                       ) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, list[tuple]]:
    """Transition kernel of the joint chain over each state's candidate actions.

    choices(jphase, buffers, c0, user_acts) lists the state's candidate
    (joint action, reward offset) pairs; user_acts() returns each user's
    feasible actions there. Returns the pair-by-state kernel, each pair's
    reward (its offset plus every user's gain - beta * energy, summed in user
    order), each state's first pair row and the pairs' joint actions.
    """
    layouts = space.layouts
    combos_by_user = [[entering_combos(lay, p) for p in range(lay.period)]
                      for lay in layouts]
    acts: list[dict] = [{} for _ in layouts]   # per user: (phase, buffer) -> actions

    def user_acts_at(jphase, buffers):
        out = []
        for u, lay, cache, buf in zip(scenario.users, layouts, acts, buffers):
            key = (jphase % lay.period, buf)
            if key not in cache:
                cache[key] = list(iter_actions(lay.contexts[key[0]], buf, u.min_quality))
            out.append(cache[key])
        return out

    nc = len(space.c0_states)
    chan_rows = [[(c1, p) for c1, p in enumerate(row) if p > 0]
                 for row in space.transition.tolist()]
    rows, cols, vals = array("q"), array("q"), array("d")
    rewards: list[float] = []
    starts: list[int] = []
    pair_actions: list[tuple] = []
    for t in range(space.n_traffic):
        jphase, buffers, _ = space.decode(t * nc)
        ctxs = [lay.contexts[jphase % lay.period] for lay in layouts]
        njp = (jphase + 1) % space.period
        user_acts = partial(user_acts_at, jphase, buffers)
        for c0 in range(nc):
            s0 = space.c0_states[c0]
            chan = chan_rows[c0]
            starts.append(len(rewards))
            for joint_act, rew in choices(jphase, buffers, c0, user_acts):
                for u, ctx, act, h in zip(scenario.users, ctxs, joint_act, s0):
                    gain = sum(s.du.distortion_impact * y for s, y in zip(ctx.slots, act.sends))
                    rew += gain - u.beta * u.channel.energy(h, act.total)
                pair = len(rewards)
                for locs, p_tr in _next_local_branches(space, combos_by_user, jphase,
                                                       buffers, joint_act):
                    acc = 0
                    for loc, cnt in zip(locs, space.counts[njp]):
                        acc = acc * cnt + loc
                    tcol = space.base[njp] + acc
                    for c1, p_ch in chan:
                        rows.append(pair)
                        cols.append(tcol * nc + c1)
                        vals.append(p_tr * p_ch)
                rewards.append(rew)
                pair_actions.append(joint_act)
    kernel = sp.csr_matrix((np.frombuffer(vals), (np.frombuffer(rows, dtype=np.int64),
                                                  np.frombuffer(cols, dtype=np.int64))),
                           shape=(len(rewards), space.n_states))
    return kernel, np.asarray(rewards), np.asarray(starts, dtype=np.int64), pair_actions


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


def centralized_oracle(scenario: ScenarioConfig, state_cap: int = 200_000,
                       pair_cap: int = 5_000_000, tol: float = 1e-9,
                       max_iter: int = 100_000) -> OracleResult:
    """Exact value iteration on the joint MDP with the band constraint
    enforced inside every state's maximization."""
    space = JointSpace(scenario, state_cap)
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

    kernel, reward, starts, pair_actions = build_joint_kernel(space, scenario, feasible)
    reward = (1.0 - delta) * reward
    values, sweeps = value_iteration(
        lambda v: np.maximum.reduceat(reward + delta * (kernel @ v), starts),
        np.zeros(space.n_states), delta, tol, max_iter, "oracle value iteration")

    # Greedy joint policy (first maximizer per state).
    q = reward + delta * (kernel @ values)
    ends = np.append(starts[1:], len(reward))
    policy = {idx: tuple(a.sends for a in pair_actions[lo + int(np.argmax(q[lo:hi]))])
              for idx, (lo, hi) in enumerate(zip(starts, ends))}
    return OracleResult(space, values, float(values.mean()), policy, sweeps)


def joint_value_of(scenario: ScenarioConfig, act_rule: Callable,
                   state_cap: int = 200_000) -> tuple[np.ndarray, float]:
    """Exact discounted network value of a deterministic slot rule.

    act_rule(jphase, buffers, c0) -> list[ScheduleAction] (the physical sends,
    scaling already applied). Averages uniformly over initial joint states.
    """
    space = JointSpace(scenario, state_cap)
    delta = scenario.discount
    kernel, rewards, _, _ = build_joint_kernel(
        space, scenario,
        lambda jphase, buffers, c0, _acts: [(act_rule(jphase, buffers, c0), 0.0)])
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

    def priced(jphase, buffers, c0, user_acts):
        s0 = space.c0_states[c0]
        rates = [u.channel.rate[h] for u, h in zip(scenario.users, s0)]
        lam = prices.get(s0, 0.0)
        return [(joint_act, lam * (scenario.bandwidth - bandwidth_usage(
                    [a.total for a in joint_act], rates, scenario.bits_per_packet)))
                for joint_act in product(*user_acts())]

    kernel, reward, starts, _ = build_joint_kernel(space, scenario, priced)
    reward = (1.0 - delta) * reward
    values, _ = value_iteration(
        lambda v: np.maximum.reduceat(reward + delta * (kernel @ v), starts),
        np.zeros(space.n_states), delta, tol, max_iter, "penalized joint value iteration")
    return values, float(values.mean())
