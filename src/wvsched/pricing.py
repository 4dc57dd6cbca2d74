"""Per-channel-state resource pricing by stochastic subgradient.

Coordination is a network manager and its users. The `Manager` keeps one
nonnegative price per joint channel state and sees only each slot's state
and the users' band requests: the visited state's price moves by (sum of
requests - bandwidth) with a 1/(k+1) stepsize, k that state's own updates,
until every visited state is settled. The users (`PricedAgent`) decide from
the price vectors it delivers and their own state alone; `run_coordination`
wires them to the simulated system, a `SlotSystem`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from numbers import Integral
from typing import Callable, Iterator, Sequence

import numpy as np

from wvsched.mdp import ChannelView
from wvsched.model import (
    ChannelModel,
    GopTemplate,
    JointChannel,
    ModelError,
    ScenarioConfig,
    ScheduleAction,
    Transition,
    UserConfig,
    bandwidth_usage,
    initial_buffer,
    uniforms,
)
# perfbench's tracer patches the slot engine's traffic step under this name
from wvsched.model import advance_traffic  # noqa: F401
from wvsched.scheduling import fill, fill_rows

# the default slot cap of run_coordination, ProposedSolution and `wvsched run`
MAX_SLOTS = 120_000


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
    the order set out here but one: `run_coordination`, on the scenario's
    templates and `ScenarioConfig.joint`, draws each slot's next channel
    state before the traffic, because its agents observe it, and hands it
    to `advance` as `s0_next`; its `Manager` draws nothing.

    Start-up draws the channel state (unless `s0` is given), then each
    user's initial buffer, one scalar draw per DU. Each `advance` then
    steps each user, in user order, by its `GopTemplate.transition` and
    `Transition.buffer`, drawing one block of k uniforms for the k DUs
    entering at its next phase (none when no DU enters), and last the next
    channel state (unless `s0_next` is given). The channel draws one
    uniform per chain (`JointChannel.chains`; one if it is common, one per
    user if not), in one block. A block is one generator call
    (`model.uniforms`: `rng.random(k)`, or `rng.random()` when k = 1) and
    yields the same doubles as k scalar draws, so the stream is the one the
    per-DU samplers would consume.
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
    there, once per slot, whatever makes its trial prices cheap. The default
    calls `act_at`, so an agent with `act_at` alone clears too, one trial
    price at a time.
    """

    solves = 0       # the solves its refreshes ran; 0 for an agent that solves nothing

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
        alone. Equal prices give equal actions. A response that is a
        `scheduling.PriceResponse` also gives its packet totals at many
        prices at once and its marginal prices; the clearing search then
        predicts its trial prices from the marginal prices and checks all of
        them in one `totals` call. Any other callable is called once per
        trial price."""
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
    refreshes: list[int] = field(default_factory=list)  # per agent, vectors the gate passed
    solves: list[int] = field(default_factory=list)     # per agent, the solves those refreshes ran


# price updates per settle sweep of one state (see `Manager`)
SWEEP_FACTOR = 10


class Manager:
    """The network manager. It sees each slot's joint channel state and the
    users' band requests alone, and holds the `PriceTable`.

    `update` is one `update_prices` step at the visited state s0. It rewrites
    only the projected price entries (Python floats) of the view states whose
    `readers` hold s0, and tests only s0's window of its last `SWEEP_FACTOR`
    + 1 updates: s0 is settled once each of their price moves, and their net
    move (which catches slow drift), is at most the tolerance; `settled` once
    every updated state is. `deliver` hands a user its price vector only when
    an entry moved by more than tolerance / 10 since the last one it was
    sent; `refreshes` counts those.
    """

    def __init__(self, views: Sequence[ChannelView], bandwidth: float,
                 bits_per_packet: float, tolerance: float):
        self.views, self.bandwidth, self.bits_per_packet = list(views), bandwidth, bits_per_packet
        self.tolerance, self.gate, self.table = tolerance, tolerance / 10.0, PriceTable()
        self.vecs = [v.price_vector(self.table.lam, bits_per_packet).tolist() for v in views]
        n = len(self.views)
        # stale: moved since the gate last saw them; sent: the last vector passed
        self.stale, self.sent, self.refreshes = [True] * n, [None] * n, [0] * n
        self.windows = defaultdict(lambda: (deque(maxlen=SWEEP_FACTOR + 1),
                                            deque(maxlen=SWEEP_FACTOR + 1)))
        self.unsettled: set[tuple[int, ...]] = set()
        self.settled = False

    def deliver(self) -> list[tuple[int, np.ndarray]]:
        """(user, price vector) for each user, in order, whose vector passed the gate."""
        out = []
        for i, stale in enumerate(self.stale):
            if stale:
                self.stale[i] = False
                now, last = self.vecs[i], self.sent[i]
                if last is None or any(abs(a - b) > self.gate for a, b in zip(now, last)):
                    self.sent[i] = list(now)
                    self.refreshes[i] += 1
                    out.append((i, np.array(now)))
        return out

    def vectors(self) -> list[np.ndarray]:
        """Every user's price vector, gate or not: the prices users freeze at."""
        return [np.array(vec) for vec in self.vecs]

    def update(self, s0: tuple[int, ...], requests: Sequence[float]) -> None:
        """One price step at s0 from the users' requests; see the class."""
        table, tol, b = self.table, self.tolerance, self.bits_per_packet
        before = table.get(s0)
        update_prices(table, s0, requests, self.bandwidth)
        lam = table.get(s0)
        if lam != before:                # else no entry moves
            for i, (view, vec) in enumerate(zip(self.views, self.vecs)):
                for v in view.readers.get(s0, ()):
                    entry = view.price_entry(table.lam, v, b)
                    if entry != vec[v]:
                        vec[v] = entry
                        self.stale[i] = True
        moves, lams = self.windows[s0]
        moves.append(abs(lam - before))
        lams.append(lam)
        if len(moves) > SWEEP_FACTOR and max(moves) <= tol and abs(lam - lams[0]) <= tol:
            self.unsettled.discard(s0)
        else:
            self.unsettled.add(s0)
        self.settled = not self.unsettled


def run_coordination(scenario: ScenarioConfig, agents: Sequence[PricedAgent], *,
                     max_slots: int = MAX_SLOTS, eval_slots: int = 20_000,
                     rng: np.random.Generator | None = None) -> tuple[PriceTable, CoordinationReport]:
    """Coordinate `agents`, one per user of `scenario` in order, by a
    `Manager` on the scenario's band, bits per packet and price tolerance,
    with the system on its templates and joint channel. Each slot the agents
    refresh at the vectors the manager delivers, their requests update the
    price at the realized state, and they observe the slot, until the
    manager reports every visited state settled. Then the policies are
    frozen at the final prices and replayed (each distinct slot decision
    computed once) for `eval_slots` to estimate per-state expected usage
    and complementary-slackness residuals. A `max_slots` that is not a
    `slot_count` of at least 1 raises ModelError before any draw.
    """
    max_slots = slot_count(max_slots, "max_slots", 1)
    rng = rng if rng is not None else np.random.default_rng(0)
    joint, b, band = scenario.joint, scenario.bits_per_packet, scenario.bandwidth
    system = SlotSystem(scenario.templates, joint, rng)
    manager = Manager([a.view for a in agents], band, b, scenario.price_tolerance)
    solves = [a.solves for a in agents]
    views = [a.view.view_state(system.s0) for a in agents]
    slots = 0
    for slots in range(1, max_slots + 1):
        for i, vec in manager.deliver():
            agents[i].refresh(vec)
        s0, contexts, buffers = system.s0, system.contexts, system.buffers
        requests, sent = slot_requests(agents, system, b, band, views)
        manager.update(s0, requests)
        # the next channel state is drawn before the traffic: observers need it
        s0_next = joint.step(s0, rng)
        next_views = [a.view.view_state(s0_next) for a in agents]
        for a, ctx, buf, v, act, v_next in zip(agents, contexts, buffers, views, sent, next_views):
            a.observe(ctx, buf, v, act, v_next)
        system.advance(sent, s0_next)
        views = next_views
        if manager.settled:
            break

    table = manager.table
    report = CoordinationReport(
        prices=dict(table.lam), counts=dict(table.counts), slots_run=slots,
        converged=manager.settled, price_trace=list(table.history),
        price_trace_dropped=table.updates - len(table.history),
        exchange_messages_per_slot=2 * len(agents),  # one price + one request per user
        refreshes=list(manager.refreshes), solves=[a.solves - k for a, k in zip(agents, solves)])
    if not report.converged:
        unsettled = ", ".join(f"{s0} after {table.counts[s0]} updates"
                              for s0 in sorted(manager.unsettled))
        raise CoordinationError(
            f"prices did not settle within {max_slots} slots (tolerance "
            f"{scenario.price_tolerance}); unsettled states: {unsettled}; "
            "see report.price_trace", report)

    for agent, vec in zip(agents, manager.vectors()):
        agent.freeze()
        agent.refresh(vec)

    def band_request(system: SlotSystem) -> tuple[float, list[ScheduleAction]]:
        requests, sent = slot_requests(agents, system, b, band)
        return sum(requests), sent

    memo: dict[tuple, tuple] = {}
    report.expected_usage, report.eval_decisions = replay(system, band_request, eval_slots,
                                                          memo)
    report.eval_transitions = sum(len(entry[-1]) for entry in memo.values())
    report.eval_slots = eval_slots
    for key, mean_usage in report.expected_usage.items():
        report.residuals[key] = abs(table.get(key) * (mean_usage - band))
    return table, report


def slot_requests(agents: Sequence[PricedAgent], system: SlotSystem,
                  bits_per_packet: float, bandwidth: float,
                  views: Sequence[int] | None = None) -> tuple[list[float], list[ScheduleAction]]:
    """Each user's band request at its priced action in the system's current
    slot, at its view's rate, and the actions scaled to fit the band. `views`
    are the agents' view states of that slot, computed here if None."""
    if views is None:
        views = [a.view.view_state(system.s0) for a in agents]
    actions = [a.act(ctx, buf, v)
               for a, ctx, buf, v in zip(agents, system.contexts, system.buffers, views)]
    rates = [a.view.rate[v] for a, v in zip(agents, views)]
    requests = [act.total * bits_per_packet / r for act, r in zip(actions, rates)]
    return requests, scale_to_budget(system.contexts, actions, rates, bits_per_packet,
                                     bandwidth)


# most slots whose uniforms `walk` draws in one generator call: the block's
# uniforms and outcomes are what bound the walk's memory
REPLAY_BLOCK = 1024


def draw_outcomes(templates: Sequence[GopTemplate], channels: Sequence[ChannelModel],
                  phases: Sequence[int], slots: int,
                  draw: Callable[[int], np.ndarray]) -> tuple[np.ndarray, np.ndarray, list]:
    """The uniforms of `slots` slots from `phases` on, where each slot
    draws, per user, one uniform per DU entering its next phase, then one
    per channel of `channels`; `draw(n)` returns all n at once. Phases move
    one per slot whatever is sent, so n is known before any slot is decided.

    Returns the uniforms, the offsets `starts` (slot k's are
    us[starts[k]:starts[k + 1]]; read-only, and shared by every block of
    the same layout) and each slot's outcome, the tuple of its digits:
    each user's entering sizes, lane by lane (0 on a lane no DU enters),
    then each channel's `draw_breaks` bucket. Two slots at the same phases
    with equal outcomes draw the same sizes and move every channel state
    to the same next state. One `searchsorted` per template and channel
    maps the whole block.
    """
    starts, lanes, base = block_layout(tuple(templates), len(channels), tuple(phases), slots)
    us = draw(int(starts[-1]))
    digits = []
    for lay, pos, rows in lanes:
        # pinned slots where no DU enters draw no uniform: every lane reads 0
        buckets = lay.breaks.searchsorted(us.take(pos, mode="clip"), side="right") \
            if len(us) else 0
        digits.append(lay.sizes.take(rows + buckets))
    digits += [ch.draw_breaks.searchsorted(us.take(base + i), side="right")[None]
               for i, ch in enumerate(channels)]
    return us, starts, list(zip(*np.concatenate(digits).tolist()))


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
    `draw_outcomes` maps each slot's to one outcome tuple. The memo maps
    each key to (value, transitions, next contexts, next phases, the key,
    successors), where successors maps an outcome to the next slot's key
    (the key of its memo entry, if it has one). A (state, outcome) pair
    seen before steps by two dict lookups, there and in the memo; a new one
    maps its uniforms to entering sizes (`Transition.buffer`) and to the
    next channel state (`JointChannel.next_state`) once. With `pins` the
    channel draws nothing: the k-th slot after the system's own is at
    `pins[k]`, and at the last pin past the end; a pinned slot's outcome is
    the pair of its drawn outcome and its next pin, nested so that it
    equals no free walk's flat tuple of ints. The system holds the current
    slot whenever `decide` runs.

    Raises `ModelError` naming `slots`, before any step, unless it is a
    `slot_count`.
    """
    return _walk(system, decide, slot_count(slots), memo, pins)


def slot_count(slots, what: str = "slots", low: int = 0) -> int:
    """`slots` as an int, if it is an integer (not a bool) of at least
    `low`; else raises `ModelError` naming `what` and the value."""
    if isinstance(slots, bool) or not isinstance(slots, Integral) or slots < low:
        raise ModelError(f"{what} must be an integer >= {low}; got {slots!r}")
    return int(slots)


def _walk(system: SlotSystem, decide: Callable, slots: int, memo: dict,
          pins: Sequence[tuple[int, ...]] | None) -> Iterator[tuple]:
    """`walk`'s steps, its slot count checked."""
    templates, joint, rng = system.templates, system.joint, system.rng
    s0, contexts, buffers = system.s0, system.contexts, tuple(system.buffers)
    phases = tuple(c.phase for c in contexts)
    channels = joint.chains if pins is None else []
    key = (s0, phases, buffers)
    entry = memo.get(key)
    done = 0
    while done < slots:
        block = min(REPLAY_BLOCK, slots - done)
        us, starts, outcomes = draw_outcomes(templates, channels, phases, block, rng.random)
        if pins is not None:
            outcomes = [(drawn, pins[min(t, len(pins) - 1)])
                        for t, drawn in enumerate(outcomes, done + 1)]
        for k, outcome in enumerate(outcomes):
            if entry is None:
                system.s0, system.contexts, system.buffers = s0, contexts, list(buffers)
                value, moves = decide(system)
                nxt = tuple(m.context for m in moves)
                entry = memo[key] = (value, moves, nxt, tuple(c.phase for c in nxt), key, {})
            value, moves, contexts, phases, _, successors = entry
            key = successors.get(outcome)
            if key is None:
                draws = iter(us[starts[k]:starts[k + 1]].tolist())
                buffers = tuple(m.buffer(draws) for m in moves)
                s1 = (joint.next_state(s0, draws) if pins is None
                      else pins[min(done + k + 1, len(pins) - 1)])
                key = (s1, phases, buffers)
                entry = memo.get(key)
                # an existing entry's own key, so that successors share keys
                key = successors[outcome] = key if entry is None else entry[4]
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
