"""Per-channel-state resource pricing by stochastic subgradient.

The coordinator keeps one nonnegative price per joint channel state. Each
slot the users submit bandwidth requests implied by their priced policies;
the visited state's price moves by (sum of requests - bandwidth) with a
1/(k+1) stepsize, where k counts that state's own updates. Convergence is
declared once every visited state is settled: over a sliding window of its
last `SWEEP_FACTOR` + 1 updates, each update moved its price by at most the
tolerance, and so did the window's net movement, first to last.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from numbers import Integral
from typing import Callable, Iterator, Sequence

import numpy as np

from wvsched.mdp import ChannelView
from wvsched.model import (
    ChannelModel,
    GopTemplate,
    ModelError,
    ScheduleAction,
    Transition,
    UserConfig,
    bandwidth_usage,
    draw,
    initial_buffer,
    uniforms,
)
# perfbench's tracer patches the slot engine's traffic step under this name
from wvsched.model import advance_traffic  # noqa: F401
from wvsched.scheduling import fill, fill_rows


class CoordinationError(RuntimeError):
    """Price iteration hit its slot cap; carries the report for diagnosis."""

    def __init__(self, message: str, report: "CoordinationReport"):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Price table
# ---------------------------------------------------------------------------

class PriceTable:
    """lambda0(s0) >= 0 with per-state update counters and a bounded history."""

    def __init__(self, history_len: int = 50_000):
        self.lam: dict[tuple[int, ...], float] = {}
        self.counts: dict[tuple[int, ...], int] = {}
        self.history: deque = deque(maxlen=history_len)
        self.updates = 0

    def get(self, s0: tuple[int, ...]) -> float:
        return self.lam.get(s0, 0.0)


def update_prices(table: PriceTable, s0: tuple[int, ...],
                  requests: Sequence[float], bandwidth: float) -> PriceTable:
    """Stochastic subgradient step on the visited state, projected to >= 0."""
    k = table.counts.get(s0, 0)
    usage = float(sum(requests))
    new = max(0.0, table.get(s0) + (usage - bandwidth) / (k + 1))
    table.lam[s0] = new
    table.counts[s0] = k + 1
    table.updates += 1
    table.history.append((table.updates, s0, usage, new))
    return table


# ---------------------------------------------------------------------------
# Joint channel process
# ---------------------------------------------------------------------------

class JointChannel:
    """Realizes the tuple of user channel states slot by slot."""

    def __init__(self, channels: Sequence[ChannelModel], correlation: str = "independent"):
        if correlation not in ("independent", "common"):
            raise ModelError(f"unknown channel correlation {correlation!r}")
        self.channels = list(channels)
        self.correlation = correlation
        self.draws = 1 if correlation == "common" else len(self.channels)  # uniforms per step
        self._cdfs = [c.transition_cdf for c in self.channels]
        if correlation == "common":
            first = self.channels[0]
            for c in self.channels[1:]:
                if (len(c) != len(first)
                        or not np.allclose(c.transition, first.transition)):
                    raise ModelError(
                        "common channel correlation requires identical channel chains")

    def initial(self, rng: np.random.Generator) -> tuple[int, ...]:
        if self.correlation == "common":
            h = draw(self.channels[0].stationary_cdf, rng)
            return (h,) * len(self.channels)
        return tuple(draw(c.stationary_cdf, rng) for c in self.channels)

    def step(self, s0: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        """The next joint state: one draw if common, else one `uniforms` call
        over the users, giving the states n `sample_channel` calls would."""
        return self.next_state(s0, iter(uniforms(rng, self.draws)))

    def next_state(self, s0: tuple[int, ...], us: Iterator[float]) -> tuple[int, ...]:
        """The joint state after `s0` that the next `draws` uniforms of `us`
        pick, each by `bisect_right` on its row's transition CDF."""
        if self.correlation == "common":
            return (bisect_right(self._cdfs[0][s0[0]], next(us)),) * len(self._cdfs)
        return tuple(bisect_right(cdf[h], u) for cdf, h, u in zip(self._cdfs, s0, us))

    def all_states(self) -> list[tuple[int, ...]]:
        if self.correlation == "common":
            return [(h,) * len(self.channels) for h in range(len(self.channels[0]))]
        from itertools import product
        return [tuple(k) for k in product(*(range(len(c)) for c in self.channels))]


def slot_key(s0, contexts, buffers) -> tuple:
    """The slot state a fixed policy decides on: the joint channel state,
    each user's GOP phase and each user's buffer. Hashable, so loops that
    replay a frozen policy compute each distinct decision once."""
    return (tuple(s0), tuple(c.phase for c in contexts), tuple(buffers))


class SlotSystem:
    """The simulated system: the joint channel state `s0` and each user's
    buffer and context (its GOP phase).

    Every slot loop starts from one. The coordination loop, whose learning
    agents draw between slots, and `harness.pds_learning_curve` step it
    with `advance`; a frozen rule (`replay`, `harness.run_episode`) runs on
    `walk`, which draws the same uniforms in blocks. All of them draw in
    the order set out here but one: `run_coordination` draws each slot's
    next channel state before the traffic, because its agents observe it,
    and hands it to `advance` as `s0_next`.

    Start-up draws the channel state (unless `s0` is given), then each
    user's initial buffer, one scalar draw per DU. Each `advance` then
    steps each user, in user order, by its `GopTemplate.transition` and
    `Transition.buffer`, drawing one block of k uniforms for the k DUs
    entering at its next phase (none when no DU enters), and last the next
    channel state (unless `s0_next` is given): one draw if the channel is
    common, one block over the n users if not. A block is one generator
    call (`model.uniforms`: `rng.random(k)`, or `rng.random()` when k = 1)
    and yields the same doubles as k scalar draws, so the stream is the one
    the per-DU samplers would consume.
    """

    def __init__(self, templates: Sequence[GopTemplate], joint: JointChannel,
                 rng: np.random.Generator, s0: tuple[int, ...] | None = None):
        self.templates = list(templates)
        self.joint = joint
        self.rng = rng
        self.s0 = joint.initial(rng) if s0 is None else s0
        self.buffers = [initial_buffer(t, 0, rng) for t in self.templates]
        self.contexts = [t.context(0) for t in self.templates]

    def advance(self, sent: Sequence[ScheduleAction],
                s0_next: tuple[int, ...] | None = None) -> list[Transition]:
        """Apply every user's sends, then move the channel to `s0_next` or a
        fresh draw. Returns each user's `Transition`; the drawn buffers are
        the system's new `buffers`."""
        rng = self.rng
        moves, buffers = [], []
        for t, ctx, buf, act in zip(self.templates, self.contexts, self.buffers, sent,
                                    strict=True):
            move = t.transition(ctx, buf, act.sends)
            moves.append(move)
            buffers.append(move.buffer(uniforms(rng, len(move.entering))))
        self.buffers = buffers
        self.contexts = [m.context for m in moves]
        self.s0 = self.joint.step(self.s0, rng) if s0_next is None else s0_next
        return moves


# ---------------------------------------------------------------------------
# Transmission scaling (transient feasibility)
# ---------------------------------------------------------------------------

def scale_to_budget(contexts, actions: Sequence[ScheduleAction],
                    rates: Sequence[float], bits_per_packet: float,
                    bandwidth: float) -> list[ScheduleAction]:
    """Proportionally scale overcommitted requests down to the band budget,
    each user keeping its high-impact, near-deadline packets first.

    The unscaled requests drive the price update; the scaled sends are what
    the simulated system actually transmits.
    """
    usage = bandwidth_usage([a.total for a in actions], rates, bits_per_packet)
    if usage <= bandwidth + 1e-12:
        return list(actions)
    gamma = bandwidth / usage
    out = []
    for ctx, act in zip(contexts, actions):
        budget = int(np.floor(gamma * act.total + 1e-9))
        out.append(act if budget == act.total else fill(act.sends, budget, ctx.impact_order()))
    return out


def scale_rows_to_budget(contexts, sends: Sequence[np.ndarray], rates: Sequence[np.ndarray],
                         bits_per_packet: float, bandwidth: float) -> list[np.ndarray]:
    """`scale_to_budget` of many slots at once: row k of every user's sends
    (rows, slots) and rates is one slot at `contexts`. Each row's usage and
    budget take the scalar trim's float operations in its order, and rows
    that fit keep their sends (a budget of their own total)."""
    totals = [s.sum(axis=1) for s in sends]
    usage = sum(t * bits_per_packet / r for t, r in zip(totals, rates))
    gamma = np.divide(bandwidth, usage, out=np.ones(len(usage)),
                      where=usage > bandwidth + 1e-12)
    return [fill_rows(s, np.floor(gamma * t + 1e-9).astype(np.int64), ctx.impact_order())
            for ctx, s, t in zip(contexts, sends, totals)]


# ---------------------------------------------------------------------------
# Coordination loop
# ---------------------------------------------------------------------------

class PricedAgent:
    """A user-side solver: all the coordinator and the solutions ask of a
    user. Subclasses define `refresh` and `act_at` (or `act`); the defaults
    suit a priced scheduler that values packets by impact and does not learn.

    Within-slot clearing asks an agent only for `price_response`: the slot
    state stays fixed while the search tries prices, so an agent may build
    there, once per slot, whatever makes each trial price cheap. The default
    calls `act_at`, so an agent with `act_at` alone clears too.
    """

    def __init__(self, user: UserConfig, view: ChannelView, discount: float):
        self.user = user
        self.template = user.template
        self.channel = user.channel
        self.view = view
        self.discount = discount
        self.price_vec = np.zeros(len(view))

    def refresh(self, price_vec: np.ndarray) -> None:
        """Adopt a new per-view-state price vector (re-solve if it moved)."""
        raise NotImplementedError

    def act(self, context, buffer: tuple[int, ...], view_state: int) -> ScheduleAction:
        """Greedy action in the current state under the refreshed prices.

        Between two refreshes the action depends on the arguments alone: it
        draws no random number and changes no state it reads. Learning
        agents meet this once frozen. Loops that replay a fixed policy rely
        on it to memoise `act` on `slot_key` and to draw the slots'
        uniforms ahead in blocks (see `walk`).
        """
        return self.act_at(context, buffer, view_state, float(self.price_vec[view_state]))

    def price_response(self, context, buffer: tuple[int, ...],
                       view_state: int) -> Callable[[float], ScheduleAction]:
        """`act_at` in this slot state as a function of the per-packet price
        alone. Equal prices give equal actions."""
        return partial(self.act_at, context, buffer, view_state)

    def observe(self, context, buffer: tuple[int, ...], view_state: int,
                sent: ScheduleAction, next_view: int) -> None:
        """See one coordination slot: its state, the sends and the next view
        state. Learning agents update here."""

    def freeze(self) -> None:
        """Stop learning, so that `act` keeps the contract above."""

    def table_sends(self, context, buffers: np.ndarray,
                    views: np.ndarray) -> np.ndarray | None:
        """`act` at every row at once, for an agent that acts from a table:
        row k of `buffers` (rows, slots) at `context` and view state
        views[k]. None (this default) for an agent that decides slot by slot."""
        return None

    def fill_order(self, context) -> Sequence[int]:
        """Slot order in which the user fills leftover band."""
        return context.impact_order()

    def bid(self, context, j: int, backlog: int) -> float:
        """Declared marginal value of one more packet from slot `j`."""
        return float(context.slots[j].du.distortion_impact)

    def usage_by_view(self, bits_per_packet: float, rng: np.random.Generator,
                      slots: int) -> np.ndarray:
        """Long-run E[bandwidth request | own channel state] at the refreshed
        prices, from a `replay` of the user alone (view state = own channel)."""
        def request(system: SlotSystem) -> tuple[float, list[ScheduleAction]]:
            (h,), (buf,), (ctx,) = system.s0, system.buffers, system.contexts
            act = self.act(ctx, buf, h)
            return act.total * bits_per_packet / self.channel.rate[h], [act]

        system = SlotSystem([self.template], JointChannel([self.channel]), rng)
        usage, _ = replay(system, request, slots)
        return np.array([usage.get((h,), 0.0) for h in range(len(self.view))])


@dataclass
class CoordinationReport:
    prices: dict[tuple[int, ...], float]
    counts: dict[tuple[int, ...], int]
    slots_run: int
    converged: bool
    residuals: dict[tuple[int, ...], float] = field(default_factory=dict)
    expected_usage: dict[tuple[int, ...], float] = field(default_factory=dict)
    price_trace: list[tuple[int, tuple[int, ...], float, float]] = field(default_factory=list)
    price_trace_dropped: int = 0          # early updates the bounded history lost
    exchange_messages_per_slot: int = 0
    eval_slots: int = 0                   # slots the frozen policies were replayed
    eval_decisions: int = 0               # distinct slot decisions computed there
    eval_transitions: int = 0             # (slot state, draw outcome) successors it recorded
    refreshes: list[int] = field(default_factory=list)  # per agent, refreshes the loop's gate passed


# price updates per settle sweep of one state (see state_settled)
SWEEP_FACTOR = 10


def run_coordination(agents: Sequence[PricedAgent], *,
                     bandwidth: float, bits_per_packet: float,
                     correlation: str = "independent",
                     tolerance: float = 1e-3, max_slots: int = 200_000,
                     eval_slots: int = 20_000,
                     rng: np.random.Generator | None = None) -> tuple[PriceTable, CoordinationReport]:
    """Iterate priced re-solves, bandwidth requests, and subgradient updates.

    Templates and channels are read off the agents; one price update happens
    per simulated slot, at the realized joint channel state. Afterwards the
    converged policies are frozen and replayed for `eval_slots` to estimate
    per-state expected usage and complementary-slackness residuals; frozen
    policies are deterministic, so the replay computes each distinct slot
    decision once.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    table = PriceTable()
    joint = JointChannel([a.channel for a in agents], correlation)
    system = SlotSystem([a.template for a in agents], joint, rng)

    # each agent's projected prices, kept current as Python floats: a slot
    # moves one price, lam0(s0), so only the entries of the view states
    # that read s0 move, in place
    vecs = [a.view.price_vector(table.lam, bits_per_packet).tolist() for a in agents]
    stale = [True] * len(agents)         # moved since the refresh gate last saw it
    last_price_vec = [None] * len(agents)
    refreshes = [0] * len(agents)
    refresh_gate = tolerance / 10.0
    # per updated state, the price moves and the prices of its last
    # SWEEP_FACTOR + 1 updates
    windows: dict[tuple[int, ...], tuple[deque, deque]] = {}
    unsettled: set[tuple[int, ...]] = set()
    converged = False
    slots = 0

    def state_settled(moves: deque, lams: deque) -> bool:
        # a state is settled once a full sweep of its updates are each small
        # and their net price movement is small (catches slow drift)
        if len(moves) < SWEEP_FACTOR + 1:
            return False
        if max(moves) > tolerance:
            return False
        return abs(lams[-1] - lams[0]) <= tolerance

    for slots in range(1, max_slots + 1):
        # refresh priced policies when the projected prices moved enough,
        # compared as Python floats: as exact as numpy's, and cheaper on a
        # few view states. Prices that have not moved since the gate last
        # saw them get its same answer, no.
        for i, agent in enumerate(agents):
            if stale[i]:
                stale[i] = False
                now, last = vecs[i], last_price_vec[i]
                if last is None or any(abs(a - b) > refresh_gate for a, b in zip(now, last)):
                    agent.refresh(np.array(now))
                    last_price_vec[i] = list(now)
                    refreshes[i] += 1

        s0 = system.s0
        contexts = system.contexts
        requests, sent = slot_requests(agents, system, bits_per_packet, bandwidth)
        lam_before = table.get(s0)
        update_prices(table, s0, requests, bandwidth)
        lam = table.get(s0)
        if lam != lam_before:                # else no entry moves
            for i, agent in enumerate(agents):
                view = agent.view
                for v in view.readers.get(s0, ()):
                    entry = view.price_entry(table.lam, v, bits_per_packet)
                    if entry != vecs[i][v]:
                        vecs[i][v] = entry
                        stale[i] = True
        # a window changes only when its own state is updated
        win = windows.get(s0)
        if win is None:
            win = windows[s0] = (deque(maxlen=SWEEP_FACTOR + 1), deque(maxlen=SWEEP_FACTOR + 1))
        win[0].append(abs(lam - lam_before))
        win[1].append(lam)
        if state_settled(*win):
            unsettled.discard(s0)
        else:
            unsettled.add(s0)

        # the next channel state is drawn before the traffic: observers need it
        s0_next = joint.step(s0, rng)
        for i, agent in enumerate(agents):
            agent.observe(contexts[i], system.buffers[i], agent.view.view_state(s0),
                          sent[i], agent.view.view_state(s0_next))
        system.advance(sent, s0_next)

        if not unsettled:
            converged = True
            break

    report = CoordinationReport(
        prices=dict(table.lam),
        counts=dict(table.counts),
        slots_run=slots,
        converged=converged,
        price_trace=[(it, key, usage, lam) for it, key, usage, lam in table.history],
        price_trace_dropped=table.updates - len(table.history),
        exchange_messages_per_slot=2 * len(agents),  # one price + one request per user
        refreshes=refreshes,
    )
    if not converged:
        raise CoordinationError(
            f"prices did not settle within {max_slots} slots "
            f"(tolerance {tolerance}); see report.price_trace", report)

    # settle policies at the final prices, then measure usage with them frozen
    for agent, vec in zip(agents, vecs):
        agent.freeze()
        agent.refresh(np.array(vec))

    def band_request(system: SlotSystem) -> tuple[float, list[ScheduleAction]]:
        requests, sent = slot_requests(agents, system, bits_per_packet, bandwidth)
        return sum(requests), sent

    memo: dict[tuple, tuple] = {}
    report.expected_usage, report.eval_decisions = replay(system, band_request, eval_slots,
                                                          memo)
    report.eval_transitions = sum(len(entry[-1]) for entry in memo.values())
    report.eval_slots = eval_slots
    for key, mean_usage in report.expected_usage.items():
        report.residuals[key] = abs(table.get(key) * (mean_usage - bandwidth))
    return table, report


def slot_requests(agents: Sequence[PricedAgent], system: SlotSystem,
                  bits_per_packet: float,
                  bandwidth: float) -> tuple[list[float], list[ScheduleAction]]:
    """Each user's band request at its priced action in the system's current
    slot, and the actions scaled to fit the band."""
    s0 = system.s0
    actions = [a.act(ctx, buf, a.view.view_state(s0))
               for a, ctx, buf in zip(agents, system.contexts, system.buffers)]
    rates = [a.channel.rate[h] for a, h in zip(agents, s0)]
    requests = [act.total * bits_per_packet / r for act, r in zip(actions, rates)]
    return requests, scale_to_budget(system.contexts, actions, rates, bits_per_packet,
                                     bandwidth)


# most slots whose uniforms `walk` draws in one generator call: the block's
# uniforms and outcome codes are what bound the walk's memory
REPLAY_BLOCK = 1024

# outcome codes are int64 while they stay below this, and Python ints (an
# object array, much slower) past it
CODE_LIMIT = 1 << 62


def draw_outcomes(templates: Sequence[GopTemplate], channels: Sequence[ChannelModel],
                  phases: Sequence[int], slots: int,
                  draw: Callable[[int], np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uniforms of `slots` slots from `phases` on, where each slot
    draws, per user, one uniform per DU entering its next phase, then one
    per channel of `channels`; `draw(n)` returns all n at once. Phases move
    one per slot whatever is sent, so n is known before any slot is decided.

    Returns the uniforms, the offsets `starts` (slot k's are
    us[starts[k]:starts[k + 1]]; read-only, and shared by every block of
    the same layout) and each slot's outcome code below
    `code_span(templates, channels)` (int64, or Python ints past
    `CODE_LIMIT`): each user's entering sizes, lane by lane (digits below
    its `SizeDraws.bound`), then each channel's `draw_breaks` bucket, as
    the digits of one mixed-radix int. Two slots at the same phases with
    equal codes draw the same sizes and move every channel state to the
    same next state. One `searchsorted` per template and channel maps the
    whole block.
    """
    starts, lanes, base = block_layout(tuple(templates), len(channels), tuple(phases), slots)
    us = draw(int(starts[-1]))
    codes = np.zeros(slots, dtype=np.int64 if code_span(templates, channels) <= CODE_LIMIT
                     else object)
    if not len(us):                    # pinned slots where no DU enters
        return us, starts, codes
    for lay, pos, rows in lanes:
        buckets = lay.breaks.searchsorted(us.take(pos, mode="clip"), side="right")
        # one lane at a time, in the codes' own dtype, so no digit overflows
        for sizes in lay.sizes.take(rows + buckets):
            codes = codes * lay.bound + sizes
    for i, ch in enumerate(channels):
        codes = codes * len(ch.draw_breaks) + ch.draw_breaks.searchsorted(us.take(base + i),
                                                                          side="right")
    return us, starts, codes


@lru_cache(maxsize=16)
def block_layout(templates: tuple[GopTemplate, ...], n_channels: int, phases: tuple[int, ...],
                 slots: int) -> tuple[np.ndarray, tuple[tuple, ...], np.ndarray]:
    """Where `draw_outcomes` finds each uniform of a block, which depends on
    the phases and the block's length alone, not on the draws: the offsets
    `starts`, per template its `SizeDraws`, each (lane, slot) uniform's
    position and its CDF row, and each slot's first channel uniform.
    Cached, as every episode starts from phase 0 with the same length; the
    arrays are read-only."""
    ks = np.arange(slots)
    steps = [(t.size_draws, (p + ks) % t.period) for t, p in zip(templates, phases)]
    counts = [lay.counts.take(ph) for lay, ph in steps]
    starts = np.zeros(slots + 1, dtype=np.int64)
    np.cumsum(sum(counts, n_channels), out=starts[1:])
    base = starts[:-1]                 # each slot's first uniform of the next user
    lanes = []
    for (lay, ph), cnt in zip(steps, counts):
        lanes.append((lay, lay.lanes + base, lay.rows.take(ph, axis=1)))   # (lane, slot)
        base = base + cnt
    for a in [starts, base, *(a for _, *arrays in lanes for a in arrays)]:
        a.flags.writeable = False
    return starts, tuple(lanes), base


def code_span(templates: Sequence[GopTemplate], channels: Sequence[ChannelModel]) -> int:
    """How many outcome codes `draw_outcomes` may give a slot."""
    return math.prod([t.size_draws.bound ** len(t.size_draws.lanes) for t in templates]
                     + [len(ch.draw_breaks) for ch in channels])


def walk(system: SlotSystem, decide: Callable, slots: int, memo: dict,
         pins: Sequence[tuple[int, ...]] | None = None) -> Iterator[tuple]:
    """Step `system` for `slots` slots under a frozen rule: `decide(system)`
    returns a value and every user's `GopTemplate.transition` for the
    current slot. Yields, per slot, the joint channel state, the decided
    value, the transitions and the next buffers; writes the final slot back
    to `system` once exhausted.

    A frozen rule is deterministic and draws no random number (see
    `PricedAgent.act`), so each distinct `slot_key` is decided once, when a
    slot first reaches it, into the caller's `memo`, which may hold entries
    of earlier walks under the same rule. The uniforms are drawn one block
    of at most `REPLAY_BLOCK` slots per `rng.random(n)` call, the same
    doubles in the same order as `SlotSystem.advance` draws, which leaves
    the generator where deciding and advancing every slot afresh would;
    `draw_outcomes` maps each slot's to one outcome code. The memo maps
    each key to (value, transitions, next contexts, next phases, the key,
    successors), where successors maps an outcome code to the next slot's
    key (the key of its memo entry, if it has one). A (state, code) pair
    seen before steps by two dict lookups, there and in the memo; a new one
    maps its uniforms to entering sizes (`Transition.buffer`) and to the
    next channel state (`JointChannel.next_state`) once. With `pins` the
    channel draws nothing: the k-th slot after the system's own is at
    `pins[k]`, and at the last pin past the end; a pinned slot's outcome is
    the pair of its code and its next pin, which equals no free walk's int
    code. The system holds the current slot whenever `decide` runs.

    Raises `ModelError` naming `slots`, before any step, unless it is a
    `slot_count`.
    """
    return _walk(system, decide, slot_count(slots), memo, pins)


def slot_count(slots) -> int:
    """`slots` as an int, if it is an integer (not a bool) of at least 0;
    else raises `ModelError` naming it."""
    if isinstance(slots, bool) or not isinstance(slots, Integral) or slots < 0:
        raise ModelError(f"slots must be an integer >= 0; got {slots!r}")
    return int(slots)


def _walk(system: SlotSystem, decide: Callable, slots: int, memo: dict,
          pins: Sequence[tuple[int, ...]] | None) -> Iterator[tuple]:
    """`walk`'s steps, its slot count checked."""
    templates, joint, rng = system.templates, system.joint, system.rng
    s0, contexts, buffers = system.s0, system.contexts, tuple(system.buffers)
    phases = tuple(c.phase for c in contexts)
    channels = joint.channels[:joint.draws] if pins is None else []
    key = (s0, phases, buffers)
    entry = memo.get(key)
    done = 0
    while done < slots:
        block = min(REPLAY_BLOCK, slots - done)
        us, starts, codes = draw_outcomes(templates, channels, phases, block, rng.random)
        codes = codes.tolist()
        if pins is not None:
            codes = [(code, pins[min(t, len(pins) - 1)])
                     for t, code in enumerate(codes, done + 1)]
        for k, code in enumerate(codes):
            if entry is None:
                system.s0, system.contexts, system.buffers = s0, contexts, list(buffers)
                value, moves = decide(system)
                nxt = tuple(m.context for m in moves)
                entry = memo[key] = (value, moves, nxt, tuple(c.phase for c in nxt), key, {})
            value, moves, contexts, phases, _, successors = entry
            key = successors.get(code)
            if key is None:
                draws = iter(us[starts[k]:starts[k + 1]].tolist())
                buffers = tuple(m.buffer(draws) for m in moves)
                s1 = (joint.next_state(s0, draws) if pins is None
                      else pins[min(done + k + 1, len(pins) - 1)])
                key = (s1, phases, buffers)
                entry = memo.get(key)
                # an existing entry's own key, so that successors share keys
                key = successors[code] = key if entry is None else entry[4]
            else:
                entry = memo.get(key)
            yield s0, value, moves, key[2]
            s0, _, buffers = key
        done += block
    system.s0, system.contexts, system.buffers = s0, contexts, list(buffers)


def replay(system: SlotSystem, decide: Callable, slots: int,
           memo: dict | None = None) -> tuple[dict[tuple[int, ...], float], int]:
    """`walk` `system` for `slots` slots under the frozen rule `decide`,
    which returns a value and the sends for the current slot. Returns the
    mean value per visited joint state and how many distinct decisions
    the walk's memo holds: those it made, as the memo is a new one unless
    the caller passes its own (`memo`) to read its successors after."""
    def decided(system: SlotSystem) -> tuple[float, list[Transition]]:
        value, sent = decide(system)
        return value, [t.transition(ctx, buf, act.sends) for t, ctx, buf, act in
                       zip(system.templates, system.contexts, system.buffers, sent,
                           strict=True)]

    # per visited joint state, its running total (added slot by slot, left
    # to right) and its visits
    sums: dict[tuple[int, ...], list] = {}
    memo = {} if memo is None else memo
    for s0, value, _moves, _buffers in walk(system, decided, slots, memo):
        acc = sums.get(s0)
        if acc is None:
            acc = sums[s0] = [0.0, 0]
        acc[0] += value
        acc[1] += 1
    return {s0: total / visits for s0, (total, visits) in sums.items()}, len(memo)
