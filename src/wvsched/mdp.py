"""Tabular solver for a user's priced foresighted scheduling problem.

The user state is (GOP phase, per-DU buffer, channel-view state). Given a
nonnegative per-view-state price on transmitted packets, value iteration on

    V(s) = max_a (1-delta) * [u(s,a) - price * |a|] + delta * E[V(s')]

yields the priced value table and greedy policy. Transition structure is
factorized: the traffic part (deterministic decrements + fresh PMF draws for
entering DUs) is independent of the Markov channel part, which keeps the
kernels small and the backups vectorizable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wvsched.model import (
    ChannelModel,
    GopTemplate,
    ModelError,
    ScheduleAction,
    iter_actions,
    transmit_energy,
)


def discount_horizon(delta: float, tol: float = 1e-6) -> int:
    """Smallest horizon with delta^horizon < tol (1 when delta == 0)."""
    if delta <= 0.0:
        return 1
    return max(1, int(math.ceil(math.log(tol) / math.log(delta))))


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
                 rate: np.ndarray, gain: np.ndarray, own_channel: np.ndarray,
                 price_weights, joint_keys=None, energy_fn=None):
        self.kind = kind
        self.user = user
        self.transition = transition
        self.rate = rate
        self.gain = gain
        self.own_channel = own_channel
        self.price_weights = price_weights
        self.joint_keys = joint_keys
        self.energy_fn = energy_fn if energy_fn is not None else transmit_energy
        self._key_index = {k: i for i, k in enumerate(joint_keys)} if joint_keys else None

    def __len__(self) -> int:
        return len(self.rate)

    def view_state(self, s0: tuple[int, ...]) -> int:
        """Map a realized joint channel state to this view's state index."""
        if self.kind == "joint":
            return self._key_index[tuple(s0)]
        return int(s0[self.user])

    def price_vector(self, lam: Mapping[tuple[int, ...], float],
                     bits_per_packet: float) -> np.ndarray:
        """Per-view-state packet price: E[lambda0(s0) | view] * b / r."""
        out = np.zeros(len(self))
        for v, pairs in enumerate(self.price_weights):
            lam_v = sum(w * lam.get(key, 0.0) for key, w in pairs)
            out[v] = lam_v * bits_per_packet / self.rate[v]
        return out


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
        own_channel=np.arange(n),
        price_weights=weights,
        energy_fn=channel.energy_fn,
    )


def joint_view(channels: Sequence[ChannelModel], user: int) -> ChannelView:
    """Product chain over all users' independent channels."""
    keys = [tuple(k) for k in product(*(range(len(c)) for c in channels))]
    n = len(keys)
    trans = np.ones((n, n))
    for a, ka in enumerate(keys):
        for b, kb in enumerate(keys):
            for c, (ha, hb) in zip(channels, zip(ka, kb)):
                trans[a, b] *= c.transition[ha, hb]
    own = np.array([k[user] for k in keys])
    return ChannelView(
        kind="joint",
        user=user,
        transition=trans,
        rate=channels[user].rate[own],
        gain=channels[user].gain[own],
        own_channel=own,
        price_weights=tuple(((k, 1.0),) for k in keys),
        joint_keys=keys,
        energy_fn=channels[user].energy_fn,
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
        own_channel=np.arange(len(me)),
        price_weights=tuple(weights),
        energy_fn=me.energy_fn,
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
        self.impacts = tuple(np.array([s.du.distortion_impact for s in ctx.slots])
                             for ctx in self.contexts)

        self.strides, self.base, self.n_traffic = self._index_scheme(self.caps)

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

    def decode(self, idx: int) -> tuple[int, tuple[int, ...]]:
        phase = max(p for p in range(self.period) if self.base[p] <= idx)
        rem = idx - self.base[phase]
        buf = []
        for s, cap in zip(self.strides[phase], self.caps[phase]):
            buf.append(rem // s)
            rem %= s
        return phase, tuple(buf)

    def pds_index(self, phase: int, survivors_left: Sequence[int]) -> int:
        return self.pds_base[phase] + sum(
            x * s for x, s in zip(survivors_left, self.pds_strides[phase]))

    def decode_pds(self, idx: int) -> tuple[int, tuple[int, ...]]:
        phase = max(p for p in range(self.period) if self.pds_base[p] <= idx)
        rem = idx - self.pds_base[phase]
        buf = []
        for s, cap in zip(self.pds_strides[phase], self.pds_caps[phase]):
            buf.append(rem // s)
            rem %= s
        return phase, tuple(buf)

    def survivors_after(self, phase: int, buffer: Sequence[int],
                        sends: Sequence[int]) -> tuple[int, ...]:
        """Post-decision buffer restricted to slots that outlive this slot."""
        return tuple(buffer[i] - sends[i] for i, _ in self.steps[phase].survivors)

    def iter_states(self) -> Iterable[tuple[int, int, tuple[int, ...]]]:
        for p in range(self.period):
            for buf in product(*(range(c + 1) for c in self.caps[p])):
                yield self.index(p, buf), p, buf

    def phase_count(self, phase: int) -> int:
        """Number of traffic states at a phase."""
        return int(np.prod([c + 1 for c in self.caps[phase]], dtype=np.int64))


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


# ---------------------------------------------------------------------------
# Priced user MDP
# ---------------------------------------------------------------------------

class UserMdp:
    """Enumerated per-user MDP with priced payoffs and factorized transitions."""

    def __init__(self, template: GopTemplate, view: ChannelView, beta: float,
                 min_quality: float, bits_per_packet: float, discount: float,
                 state_budget: int = 5_000_000, pair_budget: int = 20_000_000):
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

        self._enumerate_actions(pair_budget)
        self._build_traffic_kernel()
        self._build_rewards()

    # -- construction --------------------------------------------------------

    def _enumerate_actions(self, pair_budget: int) -> None:
        lay = self.layout
        group_sizes = np.zeros(lay.n_traffic, dtype=np.int64)
        gains: list[float] = []
        totals: list[int] = []
        for t_idx, phase, buf in lay.iter_states():
            count = 0
            ctx = lay.contexts[phase]
            for act in iter_actions(ctx, buf, self.min_quality):
                gains.append(float(np.dot(lay.impacts[phase], act.sends)))
                totals.append(act.total)
                count += 1
            group_sizes[t_idx] = count
            if len(gains) > pair_budget:
                raise ModelError(
                    f"state-action pairs exceed budget {pair_budget}; "
                    "use the decomposed scheduler for this template")
        self.group_start = np.concatenate(([0], np.cumsum(group_sizes)))
        self.ta_gain = np.asarray(gains)
        self.ta_total = np.asarray(totals, dtype=np.int64)
        self.n_ta = len(gains)
        self.ta_state = np.repeat(np.arange(lay.n_traffic), group_sizes)

    def _build_traffic_kernel(self) -> None:
        lay = self.layout
        combos = [entering_combos(lay, p) for p in range(lay.period)]
        rows, cols, vals = [], [], []
        ta = 0
        for t_idx, phase, buf in lay.iter_states():
            nxt_phase = (phase + 1) % lay.period
            step = lay.steps[phase]
            offs, probs = combos[phase]
            n_actions = self.group_start[t_idx + 1] - self.group_start[t_idx]
            ctx = lay.contexts[phase]
            for act in islice(iter_actions(ctx, buf, self.min_quality), int(n_actions)):
                surv = lay.base[nxt_phase] + sum(
                    (buf[i] - act.sends[i]) * lay.strides[nxt_phase][j]
                    for i, j in step.survivors)
                rows.append(np.full(len(offs), ta, dtype=np.int64))
                cols.append(surv + offs)
                vals.append(probs)
                ta += 1
        self.traffic_kernel = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_ta, lay.n_traffic))
        row_sums = np.asarray(self.traffic_kernel.sum(axis=1)).ravel()
        if np.any(np.abs(row_sums - 1.0) > 1e-9):
            raise ModelError("traffic kernel rows do not sum to 1")

    def _build_rewards(self) -> None:
        n_view = len(self.view)
        max_total = int(self.ta_total.max(initial=0))
        energy = np.zeros((n_view, max_total + 1))
        for v in range(n_view):
            for n in range(max_total + 1):
                energy[v, n] = self.view.energy_fn(float(self.view.gain[v]), n)
        self.energy_table = energy
        # Payoff without the price term, already scaled by (1 - delta).
        gain = self.ta_gain[:, None]
        self.base_reward = (1.0 - self.discount) * (
            gain - self.beta * energy[:, self.ta_total].T)
        self.payoff_table = gain - self.beta * energy[:, self.ta_total].T

    # -- solving --------------------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.layout.n_traffic * len(self.view)

    def priced_reward(self, price: np.ndarray) -> np.ndarray:
        price = np.asarray(price, dtype=float)
        if price.shape != (len(self.view),):
            raise ModelError(f"price vector must have shape ({len(self.view)},)")
        if np.any(price < 0):
            raise ModelError("prices must be nonnegative")
        return self.base_reward - (1.0 - self.discount) * (
            self.ta_total[:, None] * price[None, :])

    def q_values(self, values: np.ndarray, reward: np.ndarray) -> np.ndarray:
        mixed = values @ self.view.transition.T              # E over channel
        return reward + self.discount * (self.traffic_kernel @ mixed)

    def backup(self, values: np.ndarray, reward: np.ndarray) -> np.ndarray:
        q = self.q_values(values, reward)
        return np.maximum.reduceat(q, self.group_start[:-1], axis=0)

    def greedy(self, values: np.ndarray, reward: np.ndarray) -> np.ndarray:
        """First (lexicographically smallest) maximizer per state."""
        q = self.q_values(values, reward)
        vmax = np.maximum.reduceat(q, self.group_start[:-1], axis=0)
        pos = np.arange(self.n_ta, dtype=np.int64)
        policy = np.empty((self.layout.n_traffic, len(self.view)), dtype=np.int64)
        for v in range(len(self.view)):
            hit = np.where(q[:, v] >= vmax[self.ta_state, v], pos, self.n_ta)
            policy[:, v] = np.minimum.reduceat(hit, self.group_start[:-1])
        return policy

    def solve(self, price: np.ndarray, tol: float = 1e-6,
              init: np.ndarray | None = None, max_iter: int = 200_000) -> "ValueTable":
        reward = self.priced_reward(price)
        values = np.zeros((self.layout.n_traffic, len(self.view))) if init is None \
            else init.copy()
        if self.discount == 0.0:
            values = self.backup(values * 0.0, reward)
            return ValueTable(self, values, self.greedy(values, reward), np.asarray(price))
        stop = tol * (1.0 - self.discount) / self.discount
        for it in range(max_iter):
            new = self.backup(values, reward)
            diff = float(np.max(np.abs(new - values)))
            values = new
            if diff < stop:
                break
        else:
            raise ModelError(
                f"value iteration did not converge in {max_iter} sweeps "
                f"(last sweep moved {diff:.3e}); check the discount and payoff scale")
        return ValueTable(self, values, self.greedy(values, reward), np.asarray(price))

    # -- lookups --------------------------------------------------------------

    def traffic_index(self, phase: int, buffer: Sequence[int]) -> int:
        return self.layout.index(phase, buffer)

    def action_for(self, t_idx: int, ta: int) -> ScheduleAction:
        phase, buf = self.layout.decode(t_idx)
        k = ta - self.group_start[t_idx]
        ctx = self.layout.contexts[phase]
        act = next(islice(iter_actions(ctx, buf, self.min_quality), int(k), None))
        return act

    def ta_of(self, t_idx: int, action: ScheduleAction) -> int:
        """State-action row of a concrete action at a traffic state."""
        phase, buf = self.layout.decode(t_idx)
        ctx = self.layout.contexts[phase]
        for k, act in enumerate(iter_actions(ctx, buf, self.min_quality)):
            if act.sends == tuple(action.sends):
                return int(self.group_start[t_idx] + k)
        raise ModelError(f"action {action.sends} not in the action set at state {t_idx}")

    # -- evaluation -----------------------------------------------------------

    def policy_transition(self, table: "ValueTable") -> sp.csr_matrix:
        """Joint (traffic x view) chain under the table's greedy policy."""
        n_view = len(self.view)
        n = self.n_states
        rows, cols, vals = [], [], []
        for t in range(self.layout.n_traffic):
            for v in range(n_view):
                ta = table.policy[t, v]
                row = self.traffic_kernel.getrow(ta)
                for t2, p_tr in zip(row.indices, row.data):
                    for v2 in range(n_view):
                        p = p_tr * self.view.transition[v, v2]
                        if p > 0:
                            rows.append(t * n_view + v)
                            cols.append(t2 * n_view + v2)
                            vals.append(p)
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def exact_policy_value(self, table: "ValueTable",
                           price: np.ndarray | None = None) -> np.ndarray:
        """Solve (I - delta P_pi) V = (1-delta) u_pi for the greedy policy.

        With `price` given, u includes the packet-price penalty (the quantity
        whose fixed point value iteration computes); without it, u is the raw
        long-term payoff. Shape (n_traffic, n_view).
        """
        n_view = len(self.view)
        p_pi = self.policy_transition(table)
        u = np.empty(self.n_states)
        for t in range(self.layout.n_traffic):
            for v in range(n_view):
                ta = table.policy[t, v]
                u[t * n_view + v] = self.payoff_table[ta, v]
                if price is not None:
                    u[t * n_view + v] -= price[v] * self.ta_total[ta]
        a = sp.eye(self.n_states, format="csr") - self.discount * p_pi
        val = spla.spsolve(a.tocsc(), (1.0 - self.discount) * u)
        return val.reshape(self.layout.n_traffic, n_view)

    def stationary_under(self, table: "ValueTable") -> np.ndarray:
        """Long-run state distribution of the greedy policy's chain.

        Power iteration on the half-lazy chain; the traffic phase makes the
        raw chain periodic, so plain power iteration would oscillate.
        """
        p_pi = self.policy_transition(table).T.tocsr()
        dist = np.full(self.n_states, 1.0 / self.n_states)
        for _ in range(200_000):
            nxt = 0.5 * (p_pi @ dist) + 0.5 * dist   # lazy chain: aperiodic
            if np.max(np.abs(nxt - dist)) < 1e-13:
                dist = nxt
                break
            dist = nxt
        return dist / dist.sum()

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
        kernel = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(lay.n_pds, lay.n_traffic))
        return kernel @ (table.values @ self.view.transition.T)

    def evaluate_policy(self, table: "ValueTable", episodes: int, horizon: int,
                        rng: np.random.Generator) -> float:
        """Monte Carlo estimate of (1-delta) E[sum delta^t u_t], uniform start."""
        total = 0.0
        n_view = len(self.view)
        for _ in range(episodes):
            t = int(rng.integers(self.layout.n_traffic))
            v = int(rng.integers(n_view))
            acc, disc = 0.0, 1.0
            for _step in range(horizon):
                ta = table.policy[t, v]
                acc += disc * self.payoff_table[ta, v]
                disc *= self.discount
                row = self.traffic_kernel.getrow(ta)
                t = int(rng.choice(row.indices, p=row.data))
                v = int(rng.choice(n_view, p=self.view.transition[v]))
            total += (1.0 - self.discount) * acc
        return total / episodes


@dataclass
class ValueTable:
    """Solved value function and greedy policy of a priced user MDP."""

    mdp: UserMdp
    values: np.ndarray               # (n_traffic, n_view)
    policy: np.ndarray               # (n_traffic, n_view) -> state-action row
    price: np.ndarray                # per-view-state packet price used to solve

    def value_of(self, phase: int, buffer: Sequence[int], view_state: int) -> float:
        return float(self.values[self.mdp.traffic_index(phase, buffer), view_state])

    def action_of(self, phase: int, buffer: Sequence[int], view_state: int) -> ScheduleAction:
        t = self.mdp.traffic_index(phase, buffer)
        return self.mdp.action_for(t, int(self.policy[t, view_state]))

    def dump_csv(self, path) -> None:
        """State-id encoding: (phase, buffer vector, channel-view index)."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["phase", "buffer", "channel", "value", "action"])
            for t in range(self.mdp.layout.n_traffic):
                phase, buf = self.mdp.layout.decode(t)
                for v in range(len(self.mdp.view)):
                    act = self.mdp.action_for(t, int(self.policy[t, v]))
                    w.writerow([phase, " ".join(map(str, buf)), v,
                                f"{self.values[t, v]:.9g}",
                                " ".join(map(str, act.sends))])


def bellman_backup(model: UserMdp, values: np.ndarray,
                   price: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous backup; returns (new values, greedy policy)."""
    reward = model.priced_reward(price)
    new = model.backup(values, reward)
    return new, model.greedy(values, reward)

