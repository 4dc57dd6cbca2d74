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
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wvsched.mdp import (
    TrafficLayout,
    action_table,
    buffer_grid,
    entering_combos,
    product_chain,
    row_terms,
    value_iteration,
)
from wvsched.model import ModelError, ScenarioConfig, UserConfig
# mdp.action_table walks iter_actions; perfbench's tracer also patches this name
from wvsched.model import iter_actions  # noqa: F401
from wvsched.pricing import JointChannel


class JointSpace:
    """Enumeration of joint states (joint phase, all buffers, joint channel).

    A joint traffic state's index is its phase's base plus the users' local
    traffic indices in mixed radix, user 0 most significant; the joint state
    index is traffic index * (joint channel states) + c0.
    """

    def __init__(self, scenario: ScenarioConfig, state_cap: int = 200_000):
        self.scenario = scenario
        self.layouts = [TrafficLayout(u.template) for u in scenario.users]
        self.joint = JointChannel(scenario.channels, scenario.channel_correlation)
        self.c0_states = self.joint.all_states()
        # each user's own channel state in every joint channel state, (n_users, n_c0)
        self.own = np.array(self.c0_states, dtype=np.int64).T
        # joint channel transition over c0_states; common correlation rides one chain
        self.transition = self.joint.channels[0].transition \
            if self.joint.correlation == "common" else product_chain(self.joint.channels)
        self.period = math.lcm(*(u.template.period for u in scenario.users))

        # per jphase: per-user traffic-state counts, the radices of the index
        self.counts = [[lay.phase_count(jp % lay.period) for lay in self.layouts]
                       for jp in range(self.period)]
        self.strides, self.base, self.n_traffic = TrafficLayout._index_scheme(
            [[c - 1 for c in cnt] for cnt in self.counts])
        self.n_states = self.n_traffic * len(self.c0_states)
        if self.n_states > state_cap:
            raise ModelError(
                f"joint state space has {self.n_states} states (cap {state_cap}); "
                f"per-phase traffic counts: {self.counts}, "
                f"joint channel states: {len(self.c0_states)}")

    def locals_of(self, jphase: int) -> np.ndarray:
        """Each user's local traffic index in every joint traffic state of the
        phase, in index order; shape (states in the phase, n_users)."""
        return buffer_grid([c - 1 for c in self.counts[jphase]])


@dataclass
class OracleResult:
    """Optimal constrained joint values; mean is the network-utility oracle."""

    space: JointSpace
    values: np.ndarray
    mean_value: float
    policy: dict[int, tuple[tuple[int, ...], ...]]
    sweeps: int


@dataclass
class UserRows:
    """One user's (traffic state, sends) rows with what the joint kernel reads."""

    sends: np.ndarray      # (n, widest context), zero-padded
    term: np.ndarray       # (n, channel states): gain - beta * energy
    share: np.ndarray      # (n, channel states): band share total * b / rate
    post: np.ndarray       # (n,): the survivors' local index in the next phase


def _user_rows(layout: TrafficLayout, user: UserConfig, bits_per_packet: float,
               state: np.ndarray, sends: np.ndarray) -> UserRows:
    """`mdp.row_terms` of a user's rows over its channel's states, plus the
    rows' band shares; `state` holds each row's traffic index."""
    total, _, term, post = row_terms(layout, state, sends, user.channel.gain, user.beta)
    return UserRows(sends, term, total[:, None] * bits_per_packet / user.channel.rate, post)


def _action_rows(space: JointSpace, scenario: ScenarioConfig) -> tuple[list, list[UserRows]]:
    """Each user's action table and its rows."""
    actions = [action_table(lay, u.min_quality) for lay, u in zip(space.layouts, scenario.users)]
    return actions, [_user_rows(lay, u, scenario.bits_per_packet, ta_state, ta_sends)
                     for lay, u, (ta_state, ta_sends, _) in
                     zip(space.layouts, scenario.users, actions)]


def _joint_products(space: JointSpace, actions: Sequence[tuple], jphase: int,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Every joint action at every joint state of a phase, ordered by joint
    state, then user 0's action, user 1's, ... (itertools.product order).

    Returns each pair's joint state and each user's action row, shape
    (n_users, pairs).
    """
    nc = len(space.c0_states)
    ranges, local = [], []
    for lay, (ta_state, _, group_start) in zip(space.layouts, actions):
        p = jphase % lay.period
        lo, hi = group_start[[lay.base[p], lay.base[p] + lay.phase_count(p)]]
        ranges.append(np.arange(lo, hi))
        local.append(ta_state[lo:hi] - lay.base[p])
    sizes = [len(r) for r in ranges]
    n = math.prod(sizes)
    rows = np.empty((len(ranges), n), dtype=np.int64)
    traffic = np.full(n, space.base[jphase], dtype=np.int64)
    for u, (r, loc, stride) in enumerate(zip(ranges, local, space.strides[jphase])):
        inner, outer = math.prod(sizes[u + 1:]), math.prod(sizes[:u])
        rows[u] = np.tile(np.repeat(r, inner), outer)
        traffic += np.tile(np.repeat(loc * stride, inner), outer)
    # each product at every c0; a stable sort by joint state keeps the
    # product order among a state's pairs
    state = (traffic * nc + np.arange(nc)[:, None]).ravel()
    order = np.argsort(state, kind="stable")
    return state[order], rows[:, order % n]


def _band_usage(space: JointSpace, users: Sequence[UserRows], state: np.ndarray,
                rows: np.ndarray) -> np.ndarray:
    """Each pair's band usage, the users' shares summed in user order."""
    c0 = state % len(space.c0_states)
    usage = np.zeros(len(state))
    for u, ur in enumerate(users):
        usage = usage + ur.share[rows[u], space.own[u][c0]]
    return usage


def build_joint_kernel(space: JointSpace, users: Sequence[UserRows], state: np.ndarray,
                       rows: np.ndarray, offset: np.ndarray | None = None,
                       ) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Transition kernel of the joint chain over (joint state, joint action) pairs.

    The pairs are grouped by joint state in index order: pair k is at joint
    state state[k] and takes row rows[u, k] of users[u]. Returns the
    pair-by-state kernel, each pair's reward (its offset, default 0, plus
    every user's gain - beta * energy, added in user order) and each state's
    first pair row.
    """
    nc = len(space.c0_states)
    c0 = state % nc
    reward = np.zeros(len(state)) if offset is None else offset.copy()
    for u, ur in enumerate(users):
        reward += ur.term[rows[u], space.own[u][c0]]

    # A pair's next-state law: each user's survivors plus its entering DUs'
    # sizes, crossed in user order, then the channel row of c0. Within a
    # (joint phase, c0) block every pair shares one pattern of column offsets
    # and probabilities, sorted by column as CSR rows are.
    chan = [np.flatnonzero(row > 0) for row in space.transition]
    bounds = np.searchsorted(state, np.array([*space.base, space.n_traffic]) * nc)
    patterns = []
    sizes = np.empty(len(state), dtype=np.int64)
    for jp in range(space.period):
        njp = (jp + 1) % space.period
        offs, probs = np.zeros(1, dtype=np.int64), np.ones(1)
        for lay, stride in zip(space.layouts, space.strides[njp]):
            o, pr = entering_combos(lay, jp % lay.period)
            offs = (offs[:, None] + o * stride).ravel()
            probs = (probs[:, None] * pr).ravel()
        block = []
        for c in range(nc):
            cols = (offs[:, None] * nc + chan[c]).ravel()
            vals = (probs[:, None] * space.transition[c, chan[c]]).ravel()
            order = np.argsort(cols, kind="stable")
            block.append((cols[order], vals[order]))
        patterns.append(block)
        lo, hi = bounds[jp], bounds[jp + 1]
        sizes[lo:hi] = np.array([len(cols) for cols, _ in block])[c0[lo:hi]]

    nnz = int(sizes.sum())
    idx = np.int32 if max(nnz, space.n_states) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(len(state) + 1, dtype=idx)
    np.cumsum(sizes, out=indptr[1:])
    del sizes
    indices, data = np.empty(nnz, dtype=idx), np.empty(nnz)
    for jp, block in enumerate(patterns):
        lo, hi = bounds[jp], bounds[jp + 1]
        njp = (jp + 1) % space.period
        nxt = np.full(hi - lo, space.base[njp], dtype=np.int64)
        for u, (ur, stride) in enumerate(zip(users, space.strides[njp])):
            nxt += ur.post[rows[u, lo:hi]] * stride
        for c, (cols, vals) in enumerate(block):
            sel = np.flatnonzero(c0[lo:hi] == c)
            pos = indptr[lo + sel][:, None] + np.arange(len(cols))
            indices[pos] = nxt[sel][:, None] * nc + cols
            data[pos] = vals
            del pos
    kernel = sp.csr_matrix((data, indices, indptr), shape=(len(state), space.n_states))
    return kernel, reward, np.searchsorted(state, np.arange(space.n_states))


def _max_values(kernel: sp.csr_matrix, reward: np.ndarray, starts: np.ndarray,
                delta: float, tol: float, max_iter: int, what: str) -> tuple:
    """Value iteration from zeros on V(s) = max over s's pairs of Q(V) =
    reward + delta * E[V(next)], `reward` already scaled by (1 - delta).
    Returns V, the sweeps and Q as a function of V."""
    def q_of(v: np.ndarray) -> np.ndarray:
        return reward + delta * (kernel @ v)
    values, sweeps = value_iteration(lambda v: np.maximum.reduceat(q_of(v), starts),
                                     np.zeros(kernel.shape[1]), delta, tol, max_iter, what)
    return values, sweeps, q_of


def centralized_oracle(scenario: ScenarioConfig, state_cap: int = 200_000,
                       pair_cap: int = 5_000_000, tol: float = 1e-9,
                       max_iter: int = 100_000) -> OracleResult:
    """Exact value iteration on the joint MDP with the band constraint
    enforced inside every state's maximization."""
    space = JointSpace(scenario, state_cap)
    delta = scenario.discount
    nc = len(space.c0_states)
    actions, users = _action_rows(space, scenario)
    states, rows = [], []
    pairs = 0
    for jp in range(space.period):
        state, row = _joint_products(space, actions, jp)
        keep = _band_usage(space, users, state, row) <= scenario.bandwidth + 1e-9
        state, row = state[keep], row[:, keep]
        # the first state without a feasible pair, or the first whose pairs
        # pass the cap, in state order
        first = space.base[jp] * nc
        counts = np.bincount(state - first, minlength=math.prod(space.counts[jp]) * nc)
        empty = np.flatnonzero(counts == 0)
        over = np.flatnonzero(pairs + np.cumsum(counts) > pair_cap)
        if len(empty) and (not len(over) or empty[0] < over[0]):
            s0 = space.c0_states[(first + empty[0]) % nc]
            raise ModelError(
                f"no feasible joint action in joint channel state {s0} "
                "(quality floors exceed the band)")
        if len(over):
            raise ModelError(f"joint state-action pairs exceed cap {pair_cap}")
        pairs += len(state)
        states.append(state)
        rows.append(row)
    state, rows = np.concatenate(states), np.concatenate(rows, axis=1)
    del states

    kernel, reward, starts = build_joint_kernel(space, users, state, rows)
    reward = (1.0 - delta) * reward
    values, sweeps, q_of = _max_values(kernel, reward, starts, delta, tol, max_iter,
                                       "oracle value iteration")

    # Greedy joint policy (first maximizer per state).
    q = q_of(values)
    hit = np.where(q >= np.maximum.reduceat(q, starts)[state], np.arange(len(q)), len(q))
    best = np.minimum.reduceat(hit, starts)
    policy = {}
    for jp in range(space.period):
        lo, hi = space.base[jp] * nc, (space.base[jp] + math.prod(space.counts[jp])) * nc
        sends = [map(tuple, ur.sends[rows[u, best[lo:hi]], :len(lay.caps[jp % lay.period])]
                     .tolist()) for u, (ur, lay) in enumerate(zip(users, space.layouts))]
        policy.update(zip(range(lo, hi), zip(*sends)))
    return OracleResult(space, values, float(values.mean()), policy, sweeps)


def joint_value_of(scenario: ScenarioConfig, act_rule: Callable,
                   state_cap: int = 200_000) -> tuple[np.ndarray, float]:
    """Exact discounted network value of a deterministic slot rule.

    act_rule(jphase, buffers, c0) -> list[ScheduleAction] (the physical sends,
    scaling already applied). Averages uniformly over initial joint states.
    Raises ModelError when the rule's actions do not match the contexts or
    send more than a buffer holds.
    """
    space = JointSpace(scenario, state_cap)
    delta = scenario.discount
    nc = len(space.c0_states)
    n = space.n_states
    traffic = [np.empty(n, dtype=np.int64) for _ in space.layouts]
    sends = [np.zeros((n, max(len(c) for c in lay.caps)), dtype=np.int64)
             for lay in space.layouts]
    for jp in range(space.period):
        locs = space.locals_of(jp)
        lo, hi = space.base[jp] * nc, (space.base[jp] + len(locs)) * nc
        phases = [jp % lay.period for lay in space.layouts]
        widths = [len(lay.caps[p]) for lay, p in zip(space.layouts, phases)]
        grids = [buffer_grid(lay.caps[p])[locs[:, u]]
                 for u, (lay, p) in enumerate(zip(space.layouts, phases))]
        sent = []
        for buffers in zip(*(map(tuple, g.tolist()) for g in grids)):
            for c0 in range(nc):
                acts = act_rule(jp, list(buffers), c0)
                if [len(a.sends) for a in acts] != widths:
                    raise ModelError(
                        f"slot rule at joint state {lo + len(sent)} sends "
                        f"{[a.sends for a in acts]}; the context widths are {widths}")
                sent.append([a.sends for a in acts])
        for u, (lay, p, grid) in enumerate(zip(space.layouts, phases, grids)):
            block = np.array([s[u] for s in sent], dtype=np.int64).reshape(hi - lo, widths[u])
            buffers = np.repeat(grid, nc, axis=0)
            bad = np.flatnonzero(((block < 0) | (block > buffers)).any(axis=1))
            if len(bad):
                k = bad[0]
                raise ModelError(
                    f"slot rule at joint state {lo + k} has user {u} send "
                    f"{tuple(block[k].tolist())} from buffer {tuple(buffers[k].tolist())}")
            sends[u][lo:hi, :widths[u]] = block
            traffic[u][lo:hi] = np.repeat(lay.base[p] + locs[:, u], nc)
    users = [_user_rows(lay, u, scenario.bits_per_packet, t, s)
             for lay, u, t, s in zip(space.layouts, scenario.users, traffic, sends)]
    state = np.arange(n)
    kernel, rewards, _ = build_joint_kernel(space, users, state,
                                            np.broadcast_to(state, (len(users), n)))
    a = sp.eye(n, format="csr") - delta * kernel
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
    actions, users = _action_rows(space, scenario)
    blocks = [_joint_products(space, actions, jp) for jp in range(space.period)]
    state = np.concatenate([s for s, _ in blocks])
    rows = np.concatenate([r for _, r in blocks], axis=1)
    del blocks
    lam = np.array([prices.get(s0, 0.0) for s0 in space.c0_states], dtype=float)
    offset = lam[state % len(space.c0_states)] * (
        scenario.bandwidth - _band_usage(space, users, state, rows))

    kernel, reward, starts = build_joint_kernel(space, users, state, rows, offset)
    reward = (1.0 - delta) * reward
    values, _, _ = _max_values(kernel, reward, starts, delta, tol, max_iter,
                               "penalized joint value iteration")
    return values, float(values.mean())
