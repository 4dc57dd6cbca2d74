"""Tabular solver for a user's priced foresighted scheduling problem.

The user state is (GOP phase, per-DU buffer, channel-view state). Given a
nonnegative per-view-state price on transmitted packets, policy iteration on

    V(s) = max_a (1-delta) * [u(s,a) - price * |a|] + delta * E[V(s')]

yields the priced value table and greedy policy (`value_iteration` serves the
joint oracle). Transition structure is factorized: the traffic part
(deterministic decrements + fresh PMF draws for entering DUs) is independent
of the Markov channel part, which keeps the kernels small and the backups
vectorizable.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wvsched.model import (
    ChannelModel,
    GopTemplate,
    ModelError,
    ScheduleAction,
    check_buffer,
    iter_actions,
    transmit_energy,
)


def value_iteration(backup: Callable[[np.ndarray], np.ndarray], values: np.ndarray,
                    delta: float, tol: float, max_iter: int,
                    what: str) -> tuple[np.ndarray, int]:
    """Apply `backup` from `values` until a sweep moves the values by less than
    tol * (1 - delta) / delta; returns the values and the sweeps taken (one
    sweep at delta = 0). Raises ModelError naming `what` when `max_iter`
    sweeps end unconverged."""
    if delta == 0.0:
        return backup(values), 1
    stop = tol * (1.0 - delta) / delta
    diff = math.inf
    for sweeps in range(1, max_iter + 1):
        new = backup(values)
        diff = float(np.max(np.abs(new - values)))
        values = new
        if diff < stop:
            return values, sweeps
    raise ModelError(f"{what} did not converge in {max_iter} sweeps "
                     f"(last sweep moved {diff:.3e})")


# ---------------------------------------------------------------------------
# Channel views
# ---------------------------------------------------------------------------

class ChannelView:
    """The channel component a user's MDP conditions on.

    kind "own": the user's own channel; prices are expectations over the
    other users' stationary channel states. kind "common": one shared chain,
    the joint state is the shared state repeated. kind "joint": the full
    product chain, giving the user exact per-joint-state prices.
    """

    def __init__(self, kind: str, user: int, transition: np.ndarray,
                 rate: np.ndarray, gain: np.ndarray, price_weights,
                 joint_keys=None):
        self.kind = kind
        self.user = user
        self.transition = transition
        self.rate = rate
        self.gain = gain
        self.price_weights = price_weights
        self.joint_keys = joint_keys
        self._key_index = {k: i for i, k in enumerate(joint_keys)} if joint_keys else None
        # each joint key's readers: the view states whose price weights read
        # its price, so a move of that one price moves only their entries
        readers: dict[tuple[int, ...], dict[int, None]] = {}
        for v, pairs in enumerate(price_weights):
            for key, _ in pairs:
                readers.setdefault(key, {})[v] = None
        self.readers = {key: tuple(vs) for key, vs in readers.items()}

    def __len__(self) -> int:
        return len(self.rate)

    def view_state(self, s0: tuple[int, ...]) -> int:
        """Map a realized joint channel state to this view's state index."""
        if self.kind == "joint":
            return self._key_index[tuple(s0)]
        return int(s0[self.user])

    def price_entry(self, lam: Mapping[tuple[int, ...], float], v: int,
                    bits_per_packet: float) -> float:
        """View state v's packet price: E[lambda0(s0) | v] * b / r(v). It
        reads the prices of the keys whose `readers` hold v, and no other."""
        lam_v = sum(w * lam.get(key, 0.0) for key, w in self.price_weights[v])
        return float(lam_v * bits_per_packet / self.rate[v])

    def price_vector(self, lam: Mapping[tuple[int, ...], float],
                     bits_per_packet: float) -> np.ndarray:
        """Every view state's `price_entry`."""
        return np.array([self.price_entry(lam, v, bits_per_packet) for v in range(len(self))],
                        dtype=float)


def checked_price(view: ChannelView, price) -> np.ndarray:
    """`price` as a new float array, if it is one finite, nonnegative entry
    per state of `view`; else `ModelError`. Every priced agent's refresh
    and every priced solve takes its price through here."""
    price = np.array(price, dtype=float)
    if price.shape != (len(view),):
        raise ModelError(f"price vector must have shape ({len(view)},); got shape {price.shape}")
    listed = price.tolist()
    if not all(0.0 <= p < math.inf for p in listed):
        raise ModelError(f"prices must be finite and nonnegative; got {listed}")
    return price


def common_view(channel: ChannelModel, n_users: int, user: int = 0) -> ChannelView:
    """All users ride one shared channel; joint state = shared state repeated."""
    n = len(channel)
    weights = tuple((((h,) * n_users, 1.0),) for h in range(n))
    return ChannelView(
        kind="common",
        user=user,
        transition=channel.transition.copy(),
        rate=channel.rate.copy(),
        gain=channel.gain.copy(),
        price_weights=weights,
    )


def product_chain(channels: Sequence[ChannelModel]) -> np.ndarray:
    """Transition matrix of independent channels run side by side, joint
    states in itertools.product order."""
    return reduce(np.kron, (c.transition for c in channels), np.ones((1, 1)))


def joint_view(channels: Sequence[ChannelModel], user: int) -> ChannelView:
    """Product chain over all users' independent channels."""
    keys = [tuple(k) for k in product(*(range(len(c)) for c in channels))]
    own = np.array([k[user] for k in keys])
    return ChannelView(
        kind="joint",
        user=user,
        transition=product_chain(channels),
        rate=channels[user].rate[own],
        gain=channels[user].gain[own],
        price_weights=tuple(((k, 1.0),) for k in keys),
        joint_keys=keys,
    )


def own_view(channels: Sequence[ChannelModel], user: int) -> ChannelView:
    """The user's own chain; prices projected via the others' stationary laws."""
    me = channels[user]
    others = [(j, c) for j, c in enumerate(channels) if j != user]
    stat = {j: c.stationary() for j, c in others}
    weights = []
    for h in range(len(me)):
        pairs = []
        for combo in product(*(range(len(c)) for _, c in others)):
            key = [0] * len(channels)
            key[user] = h
            w = 1.0
            for (j, _), hj in zip(others, combo):
                key[j] = hj
                w *= stat[j][hj]
            pairs.append((tuple(key), w))
        weights.append(tuple(pairs))
    return ChannelView(
        kind="own",
        user=user,
        transition=me.transition.copy(),
        rate=me.rate.copy(),
        gain=me.gain.copy(),
        price_weights=tuple(weights),
    )


# ---------------------------------------------------------------------------
# Traffic enumeration
# ---------------------------------------------------------------------------

class TrafficLayout:
    """Index scheme for a template's traffic states and post-decision states.

    Holds structure only (contexts, buffer caps, survivor maps); size
    distributions stay in the template so that learning code can be handed a
    layout without access to any transition statistics.
    """

    def __init__(self, template: GopTemplate):
        self.period = template.period
        self.contexts = tuple(template.context(p) for p in range(template.period))
        self.steps = tuple(template.step(p) for p in range(template.period))
        self.caps = tuple(tuple(s.du.max_size for s in ctx.slots) for ctx in self.contexts)
        self.impacts = tuple(np.array(ctx.impacts) for ctx in self.contexts)

        self.strides, self.base, self.n_traffic = self._index_scheme(self.caps)
        # Next-phase strides of each phase's survivors (ordered as
        # steps[p].survivors): packets left @ these is their next-phase index.
        self.survivor_strides = tuple(
            np.array([self.strides[(p + 1) % self.period][j] for _, j in self.steps[p].survivors],
                     dtype=np.int64) for p in range(self.period))

        # Post-decision space: survivor slots only, ordered as steps[p].survivors.
        pds_caps = tuple(tuple(self.caps[p][i] for i, _ in self.steps[p].survivors)
                         for p in range(self.period))
        self.pds_caps = pds_caps
        self.pds_strides, self.pds_base, self.n_pds = self._index_scheme(pds_caps)

    @staticmethod
    def _index_scheme(caps_by_phase):
        strides, base = [], []
        offset = 0
        for caps in caps_by_phase:
            st = []
            mul = 1
            for c in reversed(caps):
                st.append(mul)
                mul *= c + 1
            st.reverse()
            strides.append(tuple(st))
            base.append(offset)
            offset += mul
        return tuple(strides), tuple(base), offset

    def index(self, phase: int, buffer: Sequence[int]) -> int:
        return self.base[phase] + sum(x * s for x, s in zip(buffer, self.strides[phase]))

    def phase_of(self, idx: int) -> int:
        return bisect_right(self.base, idx) - 1

    def decode(self, idx: int) -> tuple[int, tuple[int, ...]]:
        phase = self.phase_of(idx)
        rem = idx - self.base[phase]
        buf = []
        for s in self.strides[phase]:
            buf.append(rem // s)
            rem %= s
        return phase, tuple(buf)

    def pds_index(self, phase: int, survivors_left: Sequence[int]) -> int:
        return self.pds_base[phase] + sum(
            x * s for x, s in zip(survivors_left, self.pds_strides[phase]))

    def iter_states(self) -> Iterable[tuple[int, int, tuple[int, ...]]]:
        for p in range(self.period):
            for buf in product(*(range(c + 1) for c in self.caps[p])):
                yield self.index(p, buf), p, buf

    def phase_count(self, phase: int) -> int:
        """Number of traffic states at a phase."""
        return int(np.prod([c + 1 for c in self.caps[phase]], dtype=np.int64))


def buffer_grid(caps: Sequence[int]) -> np.ndarray:
    """Every buffer with entries 0..cap in index order, shape (count, len(caps)):
    each index's mixed-radix digits under `TrafficLayout._index_scheme`."""
    (strides,), _, count = TrafficLayout._index_scheme([caps])
    return (np.arange(count, dtype=np.int64)[:, None] // np.array(strides, dtype=np.int64)
            % (np.array(caps, dtype=np.int64) + 1))


def action_table(layout: TrafficLayout, min_quality: float, pair_budget: float = math.inf,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every feasible action of every traffic state, one row each, grouped by
    state in iter_actions order: (each row's traffic state, its sends
    zero-padded to the widest context, each state's first row plus a final
    end). Raises ModelError once the rows exceed pair_budget."""
    width = max(len(ctx) for ctx in layout.contexts)
    states, sends = array("q"), array("q")
    for t_idx, phase, buf in layout.iter_states():
        pad = (0,) * (width - len(buf))
        for act in iter_actions(layout.contexts[phase], buf, min_quality):
            states.append(t_idx)
            sends.extend(act.sends + pad)
        if len(states) > pair_budget:
            raise ModelError(
                f"state-action pairs exceed budget {pair_budget}; "
                "use the decomposed scheduler for this template")
    ta_state = np.frombuffer(states, dtype=np.int64)
    return (ta_state, np.frombuffer(sends, dtype=np.int64).reshape(len(ta_state), width),
            np.searchsorted(ta_state, np.arange(layout.n_traffic + 1)))


def entering_combos(layout: TrafficLayout, phase: int) -> tuple[np.ndarray, np.ndarray]:
    """Next-phase index offsets and probabilities for the entering DUs' sizes."""
    nxt_phase = (phase + 1) % layout.period
    step = layout.steps[phase]
    offsets = np.zeros(1, dtype=np.int64)
    probs = np.ones(1)
    for j in step.entering:
        du = layout.contexts[nxt_phase].slots[j].du
        vals = np.array([v for v, _ in du.size_pmf], dtype=np.int64)
        ps = np.array([p for _, p in du.size_pmf])
        offsets = (offsets[:, None] + vals[None, :] * layout.strides[nxt_phase][j]).ravel()
        probs = (probs[:, None] * ps[None, :]).ravel()
    return offsets, probs


def row_terms(layout: TrafficLayout, state: np.ndarray, sends: np.ndarray,
              gain_to_noise: np.ndarray, beta: float,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row terms of a user's (traffic state, sends) rows, `sends`
    zero-padded to the widest context.

    Returns each row's total packets, its distortion gain (summed slot by
    slot from the left, as a Python sum would), its payoff gain - beta *
    energy at every gain-to-noise value (shape (rows, len(gain_to_noise)))
    and the survivors' local index in the next phase.
    """
    phase = np.searchsorted(layout.base, state, side="right") - 1
    gain = np.zeros(len(state))
    post = np.zeros(len(state), dtype=np.int64)
    for p in range(layout.period):
        sel = np.flatnonzero(phase == p)
        sent = sends[sel, :len(layout.caps[p])]
        g = np.zeros(len(sel))
        for q, y in zip(layout.impacts[p], sent.T):
            g = g + q * y
        gain[sel] = g
        left = buffer_grid(layout.caps[p])[state[sel] - layout.base[p]] - sent
        survivors = [i for i, _ in layout.steps[p].survivors]
        post[sel] = left[:, survivors] @ layout.survivor_strides[p]
    total = sends.sum(axis=1)
    energy = np.array([[transmit_energy(float(g), n) for g in gain_to_noise]
                       for n in range(int(total.max(initial=0)) + 1)])
    return total, gain, gain[:, None] - beta * energy[total], post


def entering_kernel(layout: TrafficLayout, post: Sequence[np.ndarray]) -> sp.csr_matrix:
    """Kernel from post-decision rows to next-phase traffic states.

    post[p] holds, for each of phase p's rows in row order, the survivors'
    local index in the next phase; the entering DUs' sizes are drawn from
    their PMFs.
    """
    rows, cols, vals = [], [], []
    n = 0
    for p, local in enumerate(post):
        base = layout.base[(p + 1) % layout.period] + local
        offs, probs = entering_combos(layout, p)
        rows.append(np.repeat(np.arange(n, n + len(base)), len(offs)))
        cols.append((base[:, None] + offs[None, :]).ravel())
        vals.append(np.tile(probs, len(base)))
        n += len(base)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, layout.n_traffic))


# ---------------------------------------------------------------------------
# Priced user MDP
# ---------------------------------------------------------------------------

class UserMdp:
    """Enumerated per-user MDP with priced payoffs and factorized transitions."""

    def __init__(self, template: GopTemplate, view: ChannelView, beta: float,
                 min_quality: float, bits_per_packet: float, discount: float,
                 state_budget: int = 5_000_000, pair_budget: int = 20_000_000):
        if not 0.0 <= discount < 1.0:
            raise ModelError("discount must be in [0, 1)")
        self.template = template
        self.view = view
        self.beta = float(beta)
        self.min_quality = float(min_quality)
        self.bits_per_packet = float(bits_per_packet)
        self.discount = float(discount)
        self.layout = TrafficLayout(template)

        n_states = self.layout.n_traffic * len(view)
        if n_states > state_budget:
            per_phase = [int(np.prod([c + 1 for c in caps])) for caps in self.layout.caps]
            raise ModelError(
                f"state space has {n_states} states (budget {state_budget}); "
                f"traffic states per phase: {per_phase}, channel-view states: {len(view)}")

        self.ta_state, self.ta_sends, self.group_start = action_table(
            self.layout, self.min_quality, pair_budget)
        self.n_ta = len(self.ta_state)
        self.ta_total, self.ta_gain, self.payoff_table, post = row_terms(
            self.layout, self.ta_state, self.ta_sends, view.gain, self.beta)
        # Payoff without the price term, already scaled by (1 - delta).
        self.base_reward = (1.0 - self.discount) * self.payoff_table
        self.traffic_kernel = entering_kernel(
            self.layout, np.split(post, self.group_start[list(self.layout.base[1:])]))
        row_sums = np.asarray(self.traffic_kernel.sum(axis=1)).ravel()
        if np.any(np.abs(row_sums - 1.0) > 1e-9):
            raise ModelError("traffic kernel rows do not sum to 1")
        # The last evaluated policy's (bytes, P_pi, LU of I - delta P_pi): a
        # warm re-solve mostly re-evaluates one policy at new prices.
        self._chain = None
        self.factorizations = 0          # LU factors built
        # every row's position, a column, for `_best`'s first-maximiser pass
        self._rows = np.arange(self.n_ta, dtype=np.int64)[:, None]
        # `ValueTable.action_of`'s lookups, kept across re-solves: each checked
        # (phase, buffer)'s traffic index and each action-table row's action
        self._traffic_index: dict[tuple, int] = {}
        self._row_action: dict[int, ScheduleAction] = {}

    # -- solving --------------------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.layout.n_traffic * len(self.view)

    def priced_reward(self, price: np.ndarray) -> np.ndarray:
        price = checked_price(self.view, price)
        return self.base_reward - (1.0 - self.discount) * (
            self.ta_total[:, None] * price[None, :])

    def continuation(self, values: np.ndarray) -> np.ndarray:
        """delta * E[V(s') | row, view state]: each row's discounted
        expectation of `values` over the channel and the entering sizes."""
        mixed = values @ self.view.transition.T              # E over channel
        return self.discount * (self.traffic_kernel @ mixed)

    def q_values(self, values: np.ndarray, reward: np.ndarray) -> np.ndarray:
        return reward + self.continuation(values)

    def backup(self, values: np.ndarray, reward: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One Bellman backup: each state's best Q, its first maximiser and
        the continuation of `values` the Qs added to `reward`."""
        cont = self.continuation(values)
        return (*self._best(reward + cont), cont)

    def greedy(self, values: np.ndarray, reward: np.ndarray) -> np.ndarray:
        """First (lexicographically smallest) maximizer per state."""
        return self._best(self.q_values(values, reward))[1]

    def _best(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each traffic state's best Q and first maximising row, per column
        of `q` (rows, columns), in one pass over all columns."""
        starts = self.group_start[:-1]
        vmax = np.maximum.reduceat(q, starts, axis=0)
        hit = np.where(q >= vmax[self.ta_state], self._rows, self.n_ta)
        return vmax, np.minimum.reduceat(hit, starts, axis=0)

    def solve(self, price: np.ndarray, tol: float = 1e-6,
              init: "ValueTable | None" = None, max_iter: int = 1_000) -> "ValueTable":
        """Policy iteration from the greedy policy of `init`, a table of this
        MDP (of zero values if None).

        The start policy is the first maximiser of the priced reward plus
        `init`'s continuation, which is `greedy(init.values, reward)`. A
        table that `solve` returned carries the continuation of the backup
        that chose its policy, so in the view states whose price equals the
        table's, the start is the table's own policy, and only the moved
        ones are maximised; a table that carries none has every view state
        moved. Each step evaluates the policy exactly, takes one backup and
        changes a state's action to the backup's first maximiser only where
        the best Q beats the current one by more than tol * (1 - delta):
        without that margin, first-maximiser improvement can cycle among
        actions whose Qs differ only by rounding. When no state gains more,
        the values are within tol of the optimum; they are returned with
        the backup's first-maximiser policy and its continuation. Raises
        ModelError after `max_iter` steps, and for an `init` that is not a
        table of this MDP with finite values of its shape.
        """
        reward = self.priced_reward(price)
        price = np.asarray(price)
        policy = self._start_policy(reward, price, init)
        margin = tol * (1.0 - self.discount)
        for steps in range(1, max_iter + 1):
            values = self.exact_policy_value(ValueTable(self, None, policy, price), price)
            best, choice, cont = self.backup(values, reward)
            gain = best - values
            better = gain > margin
            if not better.any():
                return ValueTable(self, values, choice, price, steps, cont)
            policy = np.where(better, choice, policy)
        raise ModelError(f"policy iteration did not converge in {max_iter} steps "
                         f"(last step's largest gain {float(gain.max()):.3e})")

    def _start_policy(self, reward: np.ndarray, price: np.ndarray,
                      init: "ValueTable | None") -> np.ndarray:
        """`solve`'s start: the first maximiser of reward plus init's
        continuation in the view states whose price moved, init's policy in
        the others."""
        shape = (self.layout.n_traffic, len(self.view))
        if init is None:
            init = ValueTable(self, np.zeros(shape), None, price)
        elif not isinstance(init, ValueTable) or init.mdp is not self:
            raise ModelError(f"init must be None or a ValueTable of this UserMdp; "
                             f"got {type(init).__name__}")
        values = init.values
        if not isinstance(values, np.ndarray) or values.shape != shape:
            raise ModelError(f"init values must have shape {shape}; "
                             f"got shape {np.shape(values)}")
        if not np.isfinite(values).all():
            raise ModelError("init values must be finite")
        if init.continuation is None:
            cont, moved = self.continuation(values), np.ones(shape[1], dtype=bool)
        else:
            cont, moved = init.continuation, price != init.price
        if moved.all():
            return self._best(reward + cont)[1]
        policy = init.policy.copy()
        if moved.any():
            policy[:, moved] = self._best(reward[:, moved] + cont[:, moved])[1]
        return policy

    # -- lookups --------------------------------------------------------------

    def action_for(self, t_idx: int, ta: int) -> ScheduleAction:
        width = len(self.layout.caps[self.layout.phase_of(t_idx)])
        return ScheduleAction(tuple(self.ta_sends[ta, :width].tolist()))

    def traffic_index(self, phase: int, buffer: Sequence[int]) -> int:
        """The traffic index of (phase, buffer), memoised; a buffer outside
        the phase's caps raises `ModelError` on every call (only checked
        keys are kept)."""
        key = (phase, tuple(buffer))
        t = self._traffic_index.get(key)
        if t is None:
            check_buffer(self.layout.contexts[phase], buffer)
            t = self._traffic_index[key] = self.layout.index(phase, buffer)
        return t

    def row_action(self, t_idx: int, ta: int) -> ScheduleAction:
        """`action_for`, memoised on the row."""
        act = self._row_action.get(ta)
        if act is None:
            act = self._row_action[ta] = self.action_for(t_idx, ta)
        return act

    def ta_of(self, t_idx: int, action: ScheduleAction) -> int:
        """State-action row of a concrete action at a traffic state."""
        lo, hi = self.group_start[t_idx], self.group_start[t_idx + 1]
        if len(action.sends) == len(self.layout.caps[self.layout.phase_of(t_idx)]):
            rows = self.ta_sends[lo:hi, :len(action.sends)]
            hit = np.flatnonzero((rows == np.asarray(action.sends)).all(axis=1))
            if len(hit):
                return int(lo + hit[0])
        raise ModelError(f"action {action.sends} not in the action set at state {t_idx}")

    # -- evaluation -----------------------------------------------------------

    def policy_transition(self, table: "ValueTable") -> sp.csr_matrix:
        """Joint (traffic x view) chain under the table's greedy policy."""
        n_view = len(self.view)
        n = self.n_states
        rows = self.traffic_kernel[table.policy.ravel()].tocoo()
        vals = (rows.data[:, None] * self.view.transition[rows.row % n_view]).ravel()
        keep = vals > 0
        return sp.csr_matrix(
            (vals[keep], (np.repeat(rows.row, n_view)[keep],
                          (rows.col[:, None] * n_view + np.arange(n_view)).ravel()[keep])),
            shape=(n, n))

    def _policy_chain(self, table: "ValueTable") -> tuple[sp.csr_matrix, spla.SuperLU]:
        """P_pi and the LU factor of I - delta P_pi for the table's policy,
        rebuilt only when the policy differs from the last one asked for."""
        key = table.policy.tobytes()
        if self._chain is None or self._chain[0] != key:
            p_pi = self.policy_transition(table)
            a = sp.eye(self.n_states, format="csr") - self.discount * p_pi
            self._chain = (key, p_pi, spla.splu(a.tocsc()))
            self.factorizations += 1
        return self._chain[1:]

    def exact_policy_value(self, table: "ValueTable",
                           price: np.ndarray | None = None) -> np.ndarray:
        """Solve (I - delta P_pi) V = (1-delta) u_pi for the table's policy.

        With `price` given, u includes the packet-price penalty (the quantity
        `solve` optimises); without it, u is the raw long-term payoff. Shape
        (n_traffic, n_view).
        """
        u = self.payoff_table[table.policy, np.arange(len(self.view))]
        if price is not None:
            u = u - np.asarray(price) * self.ta_total[table.policy]
        _, lu = self._policy_chain(table)
        return lu.solve((1.0 - self.discount) * u.ravel()).reshape(u.shape)

    def stationary_under(self, table: "ValueTable") -> np.ndarray:
        """Long-run state distribution of the greedy policy's chain.

        Power iteration on the half-lazy chain; the traffic phase makes the
        raw chain periodic, so plain power iteration would oscillate.
        """
        p_pi = self._policy_chain(table)[0].T.tocsr()
        dist = np.full(self.n_states, 1.0 / self.n_states)
        for _ in range(200_000):
            nxt = 0.5 * (p_pi @ dist) + 0.5 * dist   # lazy chain: aperiodic
            if np.max(np.abs(nxt - dist)) < 1e-13:
                return nxt / nxt.sum()
            dist = nxt
        raise ModelError("stationary distribution did not converge in 200000 power steps")

    def expected_usage_by_view(self, table: "ValueTable") -> np.ndarray:
        """E[bandwidth request | view state] under the policy's stationary law."""
        n_view = len(self.view)
        dist = self.stationary_under(table).reshape(self.layout.n_traffic, n_view)
        usage = np.zeros(n_view)
        for v in range(n_view):
            w = dist[:, v]
            tot = w.sum()
            if tot <= 0:
                continue
            sends = self.ta_total[table.policy[:, v]]
            usage[v] = float(np.dot(w, sends)) / tot * self.bits_per_packet / self.view.rate[v]
        return usage

    def pds_planning_values(self, table: "ValueTable") -> np.ndarray:
        """Exact post-decision values E[V | post-state] from the solved table.

        Shape (n_pds, n_view): expectation over entering-DU sizes and the
        channel transition out of the post-decision view state.
        """
        lay = self.layout
        kernel = entering_kernel(lay, [buffer_grid(caps) @ strides for caps, strides
                                       in zip(lay.pds_caps, lay.survivor_strides)])
        return kernel @ (table.values @ self.view.transition.T)


@dataclass
class ValueTable:
    """Solved value function and greedy policy of a priced user MDP."""

    mdp: UserMdp
    values: np.ndarray               # (n_traffic, n_view)
    policy: np.ndarray               # (n_traffic, n_view) -> state-action row
    price: np.ndarray                # per-view-state packet price used to solve
    steps: int = 0                   # improvement steps of the solve that made it
    # delta * E[V'] per (row, view state) of the backup that chose `policy`,
    # if a solve made the table: a warm re-solve's start (see UserMdp.solve)
    continuation: np.ndarray | None = field(default=None, repr=False, compare=False)

    def action_of(self, phase: int, buffer: Sequence[int], view_state: int) -> ScheduleAction:
        """The policy's action; a buffer outside the phase's caps raises
        `ModelError`. The lookups are the MDP's, so they outlive a re-solve."""
        t = self.mdp.traffic_index(phase, buffer)
        return self.mdp.row_action(t, int(self.policy[t, view_state]))
