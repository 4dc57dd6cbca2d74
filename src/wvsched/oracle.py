"""Exact computations on the joint multi-user MDP.

centralized_oracle solves the constrained joint Bellman equation by value
iteration with the bandwidth constraint enforced inside each state's max;
joint_value_of evaluates an arbitrary deterministic per-slot rule on the
joint chain by a linear solve. Both average uniformly over initial joint
states, matching the design objective's uniform initial-state reading.

A joint action moves the chain only through its post-decision state (the
buffers the sends leave, before arrivals and the channel move) and c0, so
`build_joint_kernel` builds one kernel row per distinct (post-decision
state, c0), not one per (joint state, joint action) pair, and maps each
pair to its row. A value-iteration sweep (`PairBackup`) maximises over
each state's distinct rows at their best reward, which gives the pairs'
max bit for bit; the greedy policy is still the first maximising pair.

evaluate_solution takes one of two paths to the sends it hands that solve.
Solutions with an array form (`Solution.sent_arrays`) decide every joint
state of a joint phase in one array pass: proposed, proposed-full, mu-mdp
and mu-mdp-full without clearing gather the agents' table sends and trim
them, and myopic, static+<sched> and proposed+<sched> fill their
capacities in the scheduler's rank. The rest (clearing, lyapunov and
proposed-learning) are asked state by state through `sent_actions`. Both
paths check the context widths, 0 <= sends <= buffer and the band, and
give the same sends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from wvsched.mdp import (
    TrafficLayout,
    action_table,
    buffer_grid,
    entering_combos,
    row_terms,
    value_iteration,
)
from wvsched.model import ModelError, ScenarioConfig, UserConfig
# mdp.action_table walks iter_actions; perfbench's tracer also patches this name
from wvsched.model import iter_actions  # noqa: F401

if TYPE_CHECKING:
    # loaded where the joint kernel is built (see mdp)
    import scipy.sparse as sp


class JointSpace:
    """Enumeration of joint states (joint phase, all buffers, joint channel).

    A joint traffic state's index is its phase's base plus the users' local
    traffic indices in mixed radix, user 0 most significant; the joint state
    index is traffic index * (joint channel states) + c0.
    """

    def __init__(self, scenario: ScenarioConfig, state_cap: int = 200_000):
        self.scenario = scenario
        self.layouts = [TrafficLayout(u.template) for u in scenario.users]
        self.c0_states = scenario.joint.all_states()
        # each user's own channel state in every joint channel state, (n_users, n_c0)
        self.own = np.array(self.c0_states, dtype=np.int64).T
        self.transition = scenario.joint.transition    # over c0_states
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
    pairs: int         # feasible (joint state, joint action) pairs
    groups: int        # distinct (joint state, kernel row) among them
    kernel_rows: int   # distinct (post-decision state, c0) among them


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
                    block: range) -> tuple[np.ndarray, np.ndarray]:
    """Every joint action at the joint states of a phase where user 0 is at
    a local traffic state in `block`, ordered by joint state, then user 0's
    action, user 1's, ... (itertools.product order). User 0 is the most
    significant index digit, so those states are one contiguous run.

    Returns each pair's joint state and each user's action row, shape
    (n_users, pairs).
    """
    nc = len(space.c0_states)
    ranges, local = [], []
    for u, (lay, (ta_state, _, group_start)) in enumerate(zip(space.layouts, actions)):
        p = jphase % lay.period
        first, end = (block.start, block.stop) if u == 0 else (0, lay.phase_count(p))
        lo, hi = group_start[[lay.base[p] + first, lay.base[p] + end]]
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
                       ) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """Transition kernel of the joint chain over (joint state, joint action)
    pairs, factored through the post-decision state.

    The pairs are grouped by joint state in index order: pair k is at joint
    state state[k] and takes row rows[u, k] of users[u]. A pair's next-state
    law depends on it only through its post-decision state (the joint
    traffic state of the next phase its survivors leave, entering DUs still
    empty) and c0, so the kernel has one row per distinct such (post-decision
    state, c0) among the pairs, in index order. Returns that kernel, each
    pair's row in it, each pair's reward (its offset, default 0, plus every
    user's gain - beta * energy, added in user order) and each state's first
    pair; kernel[pair_row] is the pair-by-state kernel.
    """
    import scipy.sparse as sp

    nc = len(space.c0_states)
    c0 = state % nc
    reward = np.zeros(len(state)) if offset is None else offset.copy()
    for u, ur in enumerate(users):
        reward += ur.term[rows[u], space.own[u][c0]]

    # each pair's post-decision state and c0 as one joint state index
    phase_starts = np.array([*space.base, space.n_traffic]) * nc
    bounds = np.searchsorted(state, phase_starts)
    post = np.empty(len(state), dtype=np.int64)
    for jp in range(space.period):
        lo, hi = bounds[jp], bounds[jp + 1]
        njp = (jp + 1) % space.period
        nxt = np.full(hi - lo, space.base[njp], dtype=np.int64)
        for u, (ur, stride) in enumerate(zip(users, space.strides[njp])):
            nxt += ur.post[rows[u, lo:hi]] * stride
        post[lo:hi] = nxt * nc + c0[lo:hi]
    del c0
    used = np.zeros(space.n_states, dtype=bool)
    used[post] = True
    keys = np.flatnonzero(used)

    # A row's law: each user's survivors plus its entering DUs' sizes,
    # crossed in user order, then the channel row of c0. Within a (joint
    # phase, c0) block every row shares one pattern of column offsets and
    # probabilities, sorted by column as CSR rows are.
    chan = [np.flatnonzero(row > 0) for row in space.transition]
    key_bounds = np.searchsorted(keys, phase_starts)
    patterns = []
    sizes = np.empty(len(keys), dtype=np.int64)
    for njp in range(space.period):
        jp = (njp - 1) % space.period
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
        lo, hi = key_bounds[njp], key_bounds[njp + 1]
        sizes[lo:hi] = np.array([len(cols) for cols, _ in block])[keys[lo:hi] % nc]

    nnz = int(sizes.sum())
    idx = np.int32 if max(nnz, space.n_states) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(len(keys) + 1, dtype=idx)
    np.cumsum(sizes, out=indptr[1:])
    indices, data = np.empty(nnz, dtype=idx), np.empty(nnz)
    for njp, block in enumerate(patterns):
        lo, hi = key_bounds[njp], key_bounds[njp + 1]
        for c, (cols, vals) in enumerate(block):
            sel = lo + np.flatnonzero(keys[lo:hi] % nc == c)
            pos = indptr[sel][:, None] + np.arange(len(cols))
            indices[pos] = (keys[sel] - c)[:, None] + cols
            data[pos] = vals
    kernel = sp.csr_matrix((data, indices, indptr), shape=(len(keys), space.n_states))
    pair_row = (np.cumsum(used, dtype=idx) - 1)[post]
    return kernel, pair_row, reward, np.searchsorted(state, np.arange(space.n_states))


class PairBackup:
    """The Bellman backup over (joint state, joint action) pairs: pair k
    earns reward[k] (already scaled by 1 - delta) and moves by row
    pair_row[k] of `kernel`; state s's pairs start at starts[s].

    A sweep maximises over each state's groups of pairs that share a row,
    each group at its largest reward. That is the pairs' max to the bit:
    fl(r + c) never decreases as r grows, so max_k fl(r_k + c) =
    fl(max_k r_k + c), and a max does no rounding. Equal sums have equal
    bits because no reward is -0.0: a sum is -0.0 only if both addends are,
    and a user's gain - beta * energy term never is.
    """

    def __init__(self, kernel: sp.csr_matrix, pair_row: np.ndarray, reward: np.ndarray,
                 starts: np.ndarray, delta: float):
        self.kernel, self.pair_row, self.reward, self.starts = kernel, pair_row, reward, starts
        self.delta = delta
        self.counts = np.diff(starts, append=len(reward))
        # (state, row) keys in order; a group is a run of one key
        key = np.repeat(np.arange(len(starts), dtype=np.int64) * kernel.shape[0], self.counts)
        key += pair_row
        order = np.argsort(key)
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        self.group_reward = np.maximum.reduceat(reward[order], first)
        del order
        key = key[first]
        self.group_row = key % kernel.shape[0]
        self.group_starts = np.searchsorted(key, np.arange(len(starts)) * kernel.shape[0])

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Each state's max over its pairs of reward + delta * E[v(next)]."""
        return np.maximum.reduceat(
            self.group_reward + (self.delta * (self.kernel @ v)).take(self.group_row),
            self.group_starts)

    def greedy(self, v: np.ndarray) -> np.ndarray:
        """Each state's first maximising pair under `v`."""
        q = self.reward + (self.delta * (self.kernel @ v)).take(self.pair_row)
        hit = np.where(q >= np.repeat(self(v), self.counts), np.arange(len(q)), len(q))
        return np.minimum.reduceat(hit, self.starts)


def _max_values(space: JointSpace, users: Sequence[UserRows], state: np.ndarray,
                rows: np.ndarray, offset: np.ndarray | None, delta: float, tol: float,
                max_iter: int, what: str) -> tuple[np.ndarray, int, PairBackup]:
    """Value iteration from zeros on V(s) = max over s's pairs of
    (1 - delta) * reward + delta * E[V(next)], the pairs as
    `build_joint_kernel` takes them. Returns V, the sweeps and the backup."""
    kernel, pair_row, reward, starts = build_joint_kernel(space, users, state, rows, offset)
    reward = (1.0 - delta) * reward
    backup = PairBackup(kernel, pair_row, reward, starts, delta)
    values, sweeps = value_iteration(backup, np.zeros(space.n_states), delta, tol, max_iter,
                                     what)
    return values, sweeps, backup


# most joint (state, action) pairs the joint value iterations enumerate
PAIR_CAP = 5_000_000


def _local_pairs(space: JointSpace, actions: Sequence[tuple], jphase: int) -> np.ndarray:
    """The phase's unfiltered pair count at each of user 0's local traffic
    states: a joint state holds the product of its users' action counts at
    every c0, so user 0's count there times every other user's count summed
    over its local states, times the joint channel states."""
    counts = []
    for lay, (_, _, group_start) in zip(space.layouts, actions):
        p = jphase % lay.period
        counts.append(np.diff(group_start[lay.base[p]:lay.base[p] + lay.phase_count(p) + 1]))
    return counts[0] * math.prod(int(c.sum()) for c in counts[1:]) * len(space.c0_states)


def _joint_pairs(space: JointSpace, actions: Sequence[tuple], users: Sequence[UserRows],
                 bandwidth: float | None, pair_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Every joint phase's `_joint_products`, keeping only the pairs whose
    band usage fits `bandwidth` unless it is None. Each phase is built in
    blocks of user 0's local traffic states: a block holds at most what is
    left of `pair_cap` in unfiltered pairs, and at least one local state.
    Raises ModelError at the first state without a pair or the first whose
    pairs pass `pair_cap`, in state order, before the next block is built.
    Unfiltered, every state has a pair, so a phase that passes the cap
    raises before any of it is built."""
    nc = len(space.c0_states)
    states, rows = [], []
    pairs = 0
    for jp in range(space.period):
        per_local = _local_pairs(space, actions, jp)
        if bandwidth is None and pairs + int(per_local.sum()) > pair_cap:
            raise ModelError(f"joint state-action pairs exceed cap {pair_cap}")
        width = space.strides[jp][0] * nc           # joint states per local state of user 0
        first = 0
        while first < len(per_local):
            fits = int(np.count_nonzero(np.cumsum(per_local[first:]) <= pair_cap - pairs))
            block = range(first, first + max(fits, 1))
            state, row = _joint_products(space, actions, jp, block)
            if bandwidth is not None:
                keep = _band_usage(space, users, state, row) <= bandwidth + 1e-9
                state, row = state[keep], row[:, keep]
            start = space.base[jp] * nc + first * width
            counts = np.bincount(state - start, minlength=len(block) * width)
            # the first state without a feasible pair, or the first whose
            # pairs pass the cap, in state order
            empty = np.flatnonzero(counts == 0)
            over = np.flatnonzero(pairs + np.cumsum(counts) > pair_cap)
            if len(empty) and (not len(over) or empty[0] < over[0]):
                s0 = space.c0_states[(start + empty[0]) % nc]
                raise ModelError(
                    f"no feasible joint action in joint channel state {s0} "
                    "(quality floors exceed the band)")
            if len(over):
                raise ModelError(f"joint state-action pairs exceed cap {pair_cap}")
            pairs += len(state)
            states.append(state)
            rows.append(row)
            first = block.stop
    return np.concatenate(states), np.concatenate(rows, axis=1)


def centralized_oracle(scenario: ScenarioConfig, state_cap: int = 200_000,
                       pair_cap: int = PAIR_CAP, tol: float = 1e-9,
                       max_iter: int = 100_000) -> OracleResult:
    """Exact value iteration on the joint MDP with the band constraint
    enforced inside every state's maximization."""
    space = JointSpace(scenario, state_cap)
    delta = scenario.discount
    nc = len(space.c0_states)
    actions, users = _action_rows(space, scenario)
    state, rows = _joint_pairs(space, actions, users, scenario.bandwidth, pair_cap)
    pairs = len(state)

    values, sweeps, backup = _max_values(space, users, state, rows, None, delta, tol,
                                         max_iter, "oracle value iteration")
    del state
    # Greedy joint policy (first maximizer per state).
    best = backup.greedy(values)
    policy = {}
    for jp in range(space.period):
        lo, hi = space.base[jp] * nc, (space.base[jp] + math.prod(space.counts[jp])) * nc
        sends = [map(tuple, ur.sends[rows[u, best[lo:hi]], :len(lay.caps[jp % lay.period])]
                     .tolist()) for u, (ur, lay) in enumerate(zip(users, space.layouts))]
        policy.update(zip(range(lo, hi), zip(*sends)))
    return OracleResult(space, values, float(values.mean()), policy, sweeps, pairs,
                        len(backup.group_row), backup.kernel.shape[0])


def joint_value_of(scenario: ScenarioConfig, act_rule: Callable,
                   state_cap: int = 200_000) -> tuple[np.ndarray, float]:
    """Exact discounted network value of a deterministic slot rule.

    act_rule(jphase, buffers, c0) -> list[ScheduleAction] (the physical sends,
    scaling already applied). Averages uniformly over initial joint states.
    Raises ModelError when the rule's actions do not match the contexts or
    send more than a buffer holds.
    """
    space = JointSpace(scenario, state_cap)
    return _value_of_sends(space, scenario, _per_state(act_rule, len(space.c0_states)))


def _per_state(act_rule: Callable, nc: int) -> Callable:
    """A phase-block rule (see `_value_of_sends`) that asks
    act_rule(jphase, buffers, c0) at each joint state in index order."""
    def block(jphase: int, states: np.ndarray, buffers: list[np.ndarray]) -> list[np.ndarray]:
        widths = [b.shape[1] for b in buffers]
        sent = []
        for s, *bufs in zip(states.tolist(), *(map(tuple, b.tolist()) for b in buffers)):
            acts = act_rule(jphase, bufs, s % nc)
            if [len(a.sends) for a in acts] != widths:
                raise ModelError(
                    f"slot rule at joint state {s} sends "
                    f"{[a.sends for a in acts]}; the context widths are {widths}")
            sent.append([a.sends for a in acts])
        return [np.array([x[u] for x in sent], dtype=np.int64).reshape(len(states), w)
                for u, w in enumerate(widths)]
    return block


def _value_of_sends(space: JointSpace, scenario: ScenarioConfig,
                    block_sends: Callable) -> tuple[np.ndarray, float]:
    """Exact value of the sends a phase-block rule gives every joint state.

    block_sends(jphase, states, buffers) gets the joint states of one joint
    phase in index order and each user's buffer at each of them (user u's
    rows in buffers[u], shape (states, context width)), and returns each
    user's sends shaped as its buffers. Sends outside 0..buffer raise
    ModelError at the first such state of the phase, user by user; the
    checked sends build the joint kernel and a linear solve gives the value.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

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
        buffers = [np.repeat(buffer_grid(lay.caps[p])[locs[:, u]], nc, axis=0)
                   for u, (lay, p) in enumerate(zip(space.layouts, phases))]
        block = block_sends(jp, np.arange(lo, hi), buffers)
        if [s.shape for s in block] != [b.shape for b in buffers]:
            raise ModelError(
                f"slot rule at joint states {lo} to {hi - 1} sends rows of shapes "
                f"{[s.shape for s in block]}; the context widths are "
                f"{[b.shape[1] for b in buffers]}")
        for u, (lay, p, buf, sent) in enumerate(zip(space.layouts, phases, buffers, block)):
            bad = np.flatnonzero(((sent < 0) | (sent > buf)).any(axis=1))
            if len(bad):
                k = bad[0]
                raise ModelError(
                    f"slot rule at joint state {lo + k} has user {u} send "
                    f"{tuple(sent[k].tolist())} from buffer {tuple(buf[k].tolist())}")
            sends[u][lo:hi, :buf.shape[1]] = sent
            traffic[u][lo:hi] = np.repeat(lay.base[p] + locs[:, u], nc)
    users = [_user_rows(lay, u, scenario.bits_per_packet, t, s)
             for lay, u, t, s in zip(space.layouts, scenario.users, traffic, sends)]
    state = np.arange(n)
    kernel, row, rewards, _ = build_joint_kernel(space, users, state,
                                                 np.broadcast_to(state, (len(users), n)))
    a = sp.eye(n, format="csr") - delta * kernel[row]
    values = spla.spsolve(a.tocsc(), (1.0 - delta) * rewards)
    return values, float(values.mean())


def evaluate_solution(scenario: ScenarioConfig, solution,
                      state_cap: int = 200_000) -> tuple[np.ndarray, float]:
    """Exact network value of a prepared solution's deterministic slot rule.

    Each joint phase's states are decided at once by `solution.sent_arrays`
    where the rule has an array form (table agents then trims: proposed,
    proposed-full, mu-mdp and mu-mdp-full without clearing; static shares
    or proposed's trimmed totals, then a simple scheduler's fill: myopic,
    static+<sched> and proposed+<sched>), and else one `sent_actions` call
    per joint state.
    """
    space = JointSpace(scenario, state_cap)
    states, nc = space.c0_states, len(space.c0_states)
    templates = [u.template for u in scenario.users]

    def rule(jphase, buffers, c0):
        ctxs = [t.context(jphase % t.period) for t in templates]
        return solution.sent_actions(states[c0], ctxs, buffers).sent

    per_state = _per_state(rule, nc)

    def block(jphase, joint_states, buffers):
        ctxs = [t.context(jphase % t.period) for t in templates]
        sent = solution.sent_arrays(states, joint_states % nc, ctxs, buffers)
        return per_state(jphase, joint_states, buffers) if sent is None else sent

    return _value_of_sends(space, scenario, block)


def penalized_joint_value(scenario: ScenarioConfig,
                          prices: Mapping[tuple[int, ...], float],
                          state_cap: int = 200_000, tol: float = 1e-9,
                          max_iter: int = 100_000) -> tuple[np.ndarray, float]:
    """Unconstrained joint value with the band constraint priced into the
    objective: reward + lambda0(s0) * (B - usage). Raises ModelError when
    the joint pairs pass `PAIR_CAP` or value iteration has not converged
    after `max_iter` sweeps."""
    space = JointSpace(scenario, state_cap)
    delta = scenario.discount
    actions, users = _action_rows(space, scenario)
    state, rows = _joint_pairs(space, actions, users, None, PAIR_CAP)
    lam = np.array([prices.get(s0, 0.0) for s0 in space.c0_states], dtype=float)
    offset = lam[state % len(space.c0_states)] * (
        scenario.bandwidth - _band_usage(space, users, state, rows))

    values, _, _ = _max_values(space, users, state, rows, offset, delta, tol, max_iter,
                               "penalized joint value iteration")
    return values, float(values.mean())
