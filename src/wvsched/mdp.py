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
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from wvsched.model import (
    GopTemplate,
    JointChannel,
    ModelError,
    ScheduleAction,
    check_buffer,
    iter_actions,
    transmit_energy,
)

if TYPE_CHECKING:
    # loaded where a sparse kernel or solve is built, so that the numpy-only
    # paths never import scipy
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla


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


def stationary_law(p: sp.spmatrix) -> np.ndarray:
    """The stationary law of the Markov chain with sparse transition matrix
    `p`: one direct solve (Stewart 1994, *Introduction to the Numerical
    Solution of Markov Chains*, ch. 2) of pi Q = 0 on the chain's closed
    class, one equation replaced by sum(pi) = 1; mass 0 off the class. Raises
    ModelError naming the count of closed classes when there are several,
    and when the equations are singular in floating point."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from scipy.sparse.csgraph import connected_components

    graph = sp.csr_matrix(p > 0)
    n_class, label = connected_components(graph, connection="strong")
    src = label.repeat(np.diff(graph.indptr))            # a closed class has no edge out
    closed = np.bincount(src[src != label[graph.indices]], minlength=n_class) == 0
    if closed.sum() > 1:
        raise ModelError(f"the chain has {closed.sum()} closed classes; its law is not unique")
    keep = np.flatnonzero(closed[label])
    rows = sp.csr_matrix(p)[keep].tocoo()               # the class's rows stay in it
    k, i, j = len(keep), rows.row, np.searchsorted(keep, rows.col)
    off = (i != j) & (rows.data > 0)
    # equation j of pi Q = 0 is column j of Q = P - I, its diagonal the negated off-diagonal
    # row sum (P_ii - 1 would lose a small exit to rounding); equation 0 becomes sum(pi) = 1
    exits = np.bincount(i[off], rows.data[off], k)
    rest = off & (j > 0)
    eq = np.concatenate([np.zeros(k, dtype=np.int64), j[rest], np.arange(1, k)])
    var = np.concatenate([np.arange(k), i[rest], np.arange(1, k)])
    coef = np.concatenate([np.ones(k), rows.data[rest], -exits[1:]])
    a = sp.csc_matrix((coef, (eq, var)), shape=(k, k))
    law = np.zeros(p.shape[0])
    try:
        law[keep] = spla.splu(a).solve(np.eye(1, k)[0])
    except RuntimeError as err:          # SuperLU: "Factor is exactly singular"
        raise ModelError(f"stationary law: the balance equations are singular ({err})") from None
    return law


# ---------------------------------------------------------------------------
# Channel views
# ---------------------------------------------------------------------------

class ChannelView:
    """The channel component a user's MDP conditions on.

    `state_of` maps each joint channel state the view holds to its view
    state; `transition`, `rate` and `gain` are over the view states, and
    `price_weights[v]` holds the (joint state, weight) pairs whose prices
    make up view state v's: E[lambda0(s0) | v].
    """

    def __init__(self, state_of: Mapping[tuple[int, ...], int], transition: np.ndarray,
                 rate: np.ndarray, gain: np.ndarray, price_weights):
        self.state_of = state_of
        self.transition = transition
        self.rate = rate
        self.gain = gain
        self.price_weights = price_weights
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
        """The view state of a realized joint channel state; `ModelError`
        for a joint state the view does not hold."""
        try:
            return self.state_of[s0]
        except KeyError:
            raise ModelError(f"joint channel state {s0} is not in this view") from None

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


def joint_view(joint: JointChannel, user: int) -> ChannelView:
    """The whole joint chain, giving the user exact per-joint-state prices."""
    keys = joint.all_states()
    own = np.array([k[user] for k in keys])
    channel = joint.channels[user]
    return ChannelView(
        state_of={k: i for i, k in enumerate(keys)},
        transition=joint.transition,
        rate=channel.rate[own],
        gain=channel.gain[own],
        price_weights=tuple(((k, 1.0),) for k in keys),
    )


def own_view(joint: JointChannel, user: int) -> ChannelView:
    """The user's own chain; prices projected via the stationary laws of the
    other chains, each read at the state of its first user. On a common
    channel there are none: every weight is 1 and no law is read."""
    me, keys, mine = joint.channels[user], joint.all_states(), joint.chain_of[user]
    others = [(joint.chain_of.index(k), c.stationary())
              for k, c in enumerate(joint.chains) if k != mine]
    weights = [[] for _ in range(len(me))]
    for key in keys:
        w = 1.0
        for j, pi in others:
            w *= pi[key[j]]
        weights[key[user]].append((key, w))
    return ChannelView(
        state_of={key: key[user] for key in keys},
        transition=me.transition.copy(),
        rate=me.rate.copy(),
        gain=me.gain.copy(),
        price_weights=tuple(map(tuple, weights)),
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
    import scipy.sparse as sp

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
        self.ta_total, self.ta_gain, payoff, post = row_terms(
            self.layout, self.ta_state, self.ta_sends, view.gain, self.beta)
        # The priced arrays are stored view-major, (view states, rows), and
        # handed out as their (rows, view states) transposes; payoff_table
        # too: payoff_table[ta, v] is row ta's payoff in view state v.
        self.payoff_table = np.ascontiguousarray(payoff.T).T
        # Payoff without the price term, already scaled by (1 - delta), and
        # the packets the price term charges, as floats.
        self._base_reward = (1.0 - self.discount) * self.payoff_table.T
        self._packets = self.ta_total.astype(float)
        self.traffic_kernel = entering_kernel(
            self.layout, np.split(post, self.group_start[list(self.layout.base[1:])]))
        row_sums = np.asarray(self.traffic_kernel.sum(axis=1)).ravel()
        if np.any(np.abs(row_sums - 1.0) > 1e-9):
            raise ModelError("traffic kernel rows do not sum to 1")
        # The last evaluated policy's (bytes, P_pi, LU of I - delta P_pi): a
        # warm re-solve mostly re-evaluates one policy at new prices.
        self._chain = None
        self.factorizations = 0          # LU factors built
        # `_best` passes over k view-major rows of Q at once, reading the
        # first k view states' share of: each group's flat start and size,
        # and the flat start of its view state's rows
        n_view, n_traffic = len(view), self.layout.n_traffic
        view_rows = np.arange(n_view, dtype=np.int64) * self.n_ta
        self._starts = (self.group_start[:-1] + view_rows[:, None]).ravel()
        self._sizes = np.tile(np.diff(self.group_start), n_view)
        self._view_rows = np.repeat(view_rows, n_traffic)
        # `ValueTable.action_of`'s lookups, kept across re-solves: each checked
        # (phase, buffer)'s traffic index and each action-table row's action
        self._traffic_index: dict[tuple, int] = {}
        self._row_action: dict[int, ScheduleAction] = {}

    # -- solving --------------------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.layout.n_traffic * len(self.view)

    def priced_reward(self, price: np.ndarray) -> np.ndarray:
        """(1 - delta) * (u - price * |a|) per (row, view state)."""
        return self._priced(checked_price(self.view, price)).T

    def _priced(self, price: np.ndarray, views=slice(None)) -> np.ndarray:
        """The priced reward's view-major rows of the view states `views`."""
        return self._base_reward[views] - (1.0 - self.discount) * (
            price[views, None] * self._packets)

    def continuation(self, values: np.ndarray) -> np.ndarray:
        """delta * E[V(s') | row, view state]: each row's discounted
        expectation of `values` over the channel and the entering sizes."""
        return self._continuation(values).T

    def _continuation(self, values: np.ndarray) -> np.ndarray:
        """`continuation`, view-major."""
        mixed = values @ self.view.transition.T              # E over channel
        return np.multiply((self.traffic_kernel @ mixed).T, self.discount,
                           out=np.empty((len(self.view), self.n_ta)))

    def q_values(self, values: np.ndarray, reward: np.ndarray) -> np.ndarray:
        return reward + self.continuation(values)

    def backup(self, values: np.ndarray, reward: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One Bellman backup: each state's best Q, its first maximiser and
        the continuation of `values` the Qs added to `reward`."""
        cont = self._continuation(values)
        best, choice = self._best(reward.T + cont)
        return best.T, choice.T, cont.T

    def greedy(self, values: np.ndarray, reward: np.ndarray) -> np.ndarray:
        """First (lexicographically smallest) maximizer per state."""
        return self._best(self.q_values(values, reward).T)[1].T

    def _best(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each traffic state's best Q and first maximising row, per
        view-major row of `q` (k view states, rows), in one flat pass."""
        k, q = len(q), q.ravel()
        n = k * self.layout.n_traffic
        starts = self._starts[:n]
        vmax = np.maximum.reduceat(q, starts)
        # each group holds its max: its first hit is the first at or after its start
        hits = (q >= vmax.repeat(self._sizes[:n])).nonzero()[0]
        first = hits[hits.searchsorted(starts)] - self._view_rows[:n]
        return vmax.reshape(k, -1), first.reshape(k, -1)

    def solve(self, price: np.ndarray, tol: float = 1e-6,
              init: "ValueTable | None" = None, max_iter: int = 1_000) -> "ValueTable":
        """Policy iteration from the greedy policy of `init`, a table of this
        MDP (of zero values if None).

        The start policy is the first maximiser of the priced reward plus
        `init`'s continuation, which is `greedy(init.values, reward)`. A
        table that `solve` returned carries its priced reward and the
        continuation of the backup that chose its policy, so in the view
        states whose price equals the table's, the start is the table's own
        reward and policy, and only the moved ones are re-priced and
        maximised; a table that carries none has every view state moved.
        Each step evaluates the policy exactly, takes one backup of every
        view state and changes a state's action to the backup's first
        maximiser only where the best Q beats the current one by more than
        tol * (1 - delta): without that margin, first-maximiser improvement
        can cycle among actions whose Qs differ only by rounding. When no
        state gains more, the values are within tol of the optimum; they are
        returned with the backup's first-maximiser policy and its
        continuation. Raises ModelError after `max_iter` steps, and for an
        `init` that is not a table of this MDP with finite values of its
        shape.
        """
        price = checked_price(self.view, price)
        reward, policy = self._start(price, init)
        margin = tol * (1.0 - self.discount)
        for steps in range(1, max_iter + 1):
            values = self.exact_policy_value(ValueTable(self, None, policy, price), price)
            best, choice, cont = self.backup(values, reward)
            gain = best - values
            better = gain > margin
            if not better.any():
                return ValueTable(self, values, choice, price, steps, cont, reward)
            policy = np.where(better, choice, policy)
        raise ModelError(f"policy iteration did not converge in {max_iter} steps "
                         f"(last step's largest gain {float(gain.max()):.3e})")

    def _start(self, price: np.ndarray, init: "ValueTable | None",
               ) -> tuple[np.ndarray, np.ndarray]:
        """`solve`'s priced reward and start policy: init's reward and policy
        in the view states whose price did not move; in the moved ones, the
        reward re-priced and the first maximiser of it plus init's
        continuation."""
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
        if init.continuation is None or init.reward is None:
            reward = self._priced(price)
            return reward.T, self._best(reward + self._continuation(values))[1].T
        moved = price != init.price
        reward, policy = init.reward.T, init.policy.T
        if moved.any():
            fresh = self._priced(price, moved)
            reward, policy = reward.copy(), policy.copy()
            reward[moved] = fresh
            policy[moved] = self._best(fresh + init.continuation.T[moved])[1]
        return reward.T, policy.T

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
        import scipy.sparse as sp

        n_view = len(self.view)
        kernel = self.traffic_kernel
        chosen = table.policy.ravel()            # state t * n_view + v's row
        lo = kernel.indptr[chosen]
        counts = kernel.indptr[chosen + 1] - lo
        ends = counts.cumsum()
        # the chosen rows' kernel entries, state by state, each times its
        # state's row of the channel transition
        entry = np.arange(ends[-1]) + np.repeat(lo - ends + counts, counts)
        state_view = np.repeat(np.arange(len(chosen)) % n_view, counts)
        vals = (kernel.data[entry][:, None] * self.view.transition[state_view]).ravel()
        keep = vals > 0
        cols = (kernel.indices[entry][:, None] * n_view + np.arange(n_view)).ravel()
        kept = np.concatenate(([0], keep.cumsum()))
        return sp.csr_matrix((vals[keep], cols[keep], kept[np.concatenate(([0], ends)) * n_view]),
                             shape=(self.n_states, self.n_states))

    def _policy_chain(self, table: "ValueTable") -> tuple[sp.csr_matrix, spla.SuperLU]:
        """P_pi and the LU factor of I - delta P_pi for the table's policy,
        rebuilt only when the policy differs from the last one asked for."""
        key = table.policy.tobytes()
        if self._chain is None or self._chain[0] != key:
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla

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
        policy = table.policy.T                  # view-major
        u = self.payoff_table.T.take(policy + self._view_rows.reshape(len(policy), -1))
        if price is not None:
            u = u - np.asarray(price)[:, None] * self.ta_total.take(policy)
        _, lu = self._policy_chain(table)
        return lu.solve((1.0 - self.discount) * u.T.ravel()).reshape(table.policy.shape)

    def stationary_under(self, table: "ValueTable") -> np.ndarray:
        """Long-run state distribution of the policy's chain P_pi (`stationary_law`)."""
        return stationary_law(self._policy_chain(table)[0])

    def expected_usage_by_view(self, table: "ValueTable") -> np.ndarray:
        """E[bandwidth request | view state] under the stationary law; 0 where it has no mass."""
        dist = self.stationary_under(table).reshape(self.layout.n_traffic, len(self.view))
        mass = dist.sum(axis=0)
        sent = np.einsum("tv,tv->v", dist, self.ta_total[table.policy])
        mean = np.divide(sent, mass, out=np.zeros_like(mass), where=mass > 0)
        return mean * self.bits_per_packet / self.view.rate

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
    # (1 - delta) * (u - price * |a|) per (row, view state), if a solve made
    # the table: a warm re-solve re-prices only the view states that moved
    reward: np.ndarray | None = field(default=None, repr=False, compare=False)

    def action_of(self, phase: int, buffer: Sequence[int], view_state: int) -> ScheduleAction:
        """The policy's action; a buffer outside the phase's caps raises
        `ModelError`. The lookups are the MDP's, so they outlive a re-solve."""
        t = self.mdp.traffic_index(phase, buffer)
        return self.mdp.row_action(t, int(self.policy[t, view_state]))
