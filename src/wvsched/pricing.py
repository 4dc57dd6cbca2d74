"""Per-channel-state resource pricing by stochastic subgradient.

The coordinator keeps one nonnegative price per joint channel state. Each
slot the users submit bandwidth requests implied by their priced policies;
the visited state's price moves by (sum of requests - bandwidth) with a
1/(k+1) stepsize, where k counts that state's own updates. Convergence is
declared when every price update in a sliding window is below tolerance.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from wvsched.mdp import ChannelView
from wvsched.model import (
    ChannelModel,
    GopTemplate,
    ModelError,
    ScheduleAction,
    TrafficStep,
    UserConfig,
    advance_traffic,
    bandwidth_usage,
    draw,
    initial_buffer,
    uniforms,
)
from wvsched.scheduling import hdf_schedule


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
    """The simulated system every slot loop steps: the joint channel state
    `s0` and each user's buffer and context (its GOP phase).

    Start-up draws the channel state (unless `s0` is given), then each
    user's initial buffer, one scalar draw per DU. Each `advance` then
    draws, in user order, one block of k uniforms per user for the k DUs
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
                s0_next: tuple[int, ...] | None = None) -> list[TrafficStep]:
        """Apply every user's sends, then move the channel to `s0_next` or a
        fresh draw."""
        rng = self.rng
        steps = [advance_traffic(t, ctx, buf, act, rng) for t, ctx, buf, act in
                 zip(self.templates, self.contexts, self.buffers, sent, strict=True)]
        self.buffers = [st.buffer for st in steps]
        self.contexts = [st.context for st in steps]
        self.s0 = self.joint.step(self.s0, self.rng) if s0_next is None else s0_next
        return steps


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
        out.append(act if budget == act.total else hdf_schedule(ctx, act.sends, budget))
    return out


# ---------------------------------------------------------------------------
# Coordination loop
# ---------------------------------------------------------------------------

class PricedAgent:
    """A user-side solver: all the coordinator and the solutions ask of a
    user. Subclasses define `refresh` and `act_at` (or `act`); the defaults
    suit a priced scheduler that values packets by impact and does not learn."""

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
        uniforms ahead in blocks (see `replay`).
        """
        return self.act_at(context, buffer, view_state, float(self.price_vec[view_state]))

    def observe(self, context, buffer: tuple[int, ...], view_state: int,
                sent: ScheduleAction, next_view: int) -> None:
        """See one coordination slot: its state, the sends and the next view
        state. Learning agents update here."""

    def freeze(self) -> None:
        """Stop learning, so that `act` keeps the contract above."""

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

    last_price_vec = [None] * len(agents)
    refresh_gate = tolerance / 10.0
    windows: dict[tuple[int, ...], deque] = {}
    converged = False
    slots = 0

    def state_settled(win: deque) -> bool:
        # a state is settled once a full sweep of its updates are each small
        # and their net price movement is small (catches slow drift)
        if len(win) < SWEEP_FACTOR + 1:
            return False
        if max(step for step, _ in win) > tolerance:
            return False
        return abs(win[-1][1] - win[0][1]) <= tolerance

    for slots in range(1, max_slots + 1):
        # refresh priced policies when the projected prices moved enough
        for i, agent in enumerate(agents):
            vec = agent.view.price_vector(table.lam, bits_per_packet)
            if last_price_vec[i] is None or np.max(np.abs(vec - last_price_vec[i])) > refresh_gate:
                agent.refresh(vec)
                last_price_vec[i] = vec

        s0 = system.s0
        contexts = system.contexts
        requests, sent = slot_requests(agents, system, bits_per_packet, bandwidth)
        lam_before = table.get(s0)
        update_prices(table, s0, requests, bandwidth)
        win = windows.setdefault(s0, deque(maxlen=SWEEP_FACTOR + 1))
        win.append((abs(table.get(s0) - lam_before), table.get(s0)))

        # the next channel state is drawn before the traffic: observers need it
        s0_next = joint.step(s0, rng)
        for i, agent in enumerate(agents):
            agent.observe(contexts[i], system.buffers[i], agent.view.view_state(s0),
                          sent[i], agent.view.view_state(s0_next))
        system.advance(sent, s0_next)

        if all(state_settled(w) for w in windows.values()):
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
    )
    if not converged:
        raise CoordinationError(
            f"prices did not settle within {max_slots} slots "
            f"(tolerance {tolerance}); see report.price_trace", report)

    # settle policies at the final prices, then measure usage with them frozen
    for agent in agents:
        agent.freeze()
        agent.refresh(agent.view.price_vector(table.lam, bits_per_packet))

    def band_request(system: SlotSystem) -> tuple[float, list[ScheduleAction]]:
        requests, sent = slot_requests(agents, system, bits_per_packet, bandwidth)
        return sum(requests), sent

    report.expected_usage, report.eval_decisions = replay(system, band_request, eval_slots)
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


# most slots whose uniforms `replay` draws in one generator call: the block's
# list of doubles is what bounds the walk's memory
REPLAY_BLOCK = 1024


def replay(system: SlotSystem, decide: Callable,
           slots: int) -> tuple[dict[tuple[int, ...], float], int]:
    """Step `system` for `slots` slots under a frozen rule: `decide(system)`
    returns a value and the sends for the current slot. Returns the mean
    value per visited joint state and how many distinct decisions were made.

    A frozen rule is deterministic and draws no random number (see
    `PricedAgent.act`), so each distinct `slot_key` is decided once and
    memoised with every user's `GopTemplate.transition`; a slot then only
    maps uniforms to entering sizes and the next channel state. Phases move
    one per slot whatever is decided, so the number of uniforms a run of
    slots consumes is known beforehand: they are drawn one block of at most
    `REPLAY_BLOCK` slots per `rng.random(n)` call, the same doubles in the
    same order as `SlotSystem.advance` draws, which leaves the generator
    where deciding and advancing every slot afresh would. The system holds
    the current slot whenever `decide` runs, and the final one on return.
    """
    templates, joint, rng = system.templates, system.joint, system.rng
    entering = [[len(t.step(p).entering) for p in range(t.period)] for t in templates]
    s0, contexts, buffers = system.s0, system.contexts, system.buffers
    total: dict[tuple[int, ...], float] = {}
    visits: dict[tuple[int, ...], int] = {}
    decisions: dict[tuple, tuple] = {}
    done = 0
    while done < slots:
        block = min(REPLAY_BLOCK, slots - done)
        need = block * joint.draws + sum(
            ks[(ctx.phase + t) % len(ks)] for ks, ctx in zip(entering, contexts)
            for t in range(block))
        us = iter(rng.random(need).tolist())
        for _ in range(block):
            key = slot_key(s0, contexts, buffers)
            decision = decisions.get(key)
            if decision is None:
                system.s0, system.contexts, system.buffers = s0, contexts, buffers
                value, sent = decide(system)
                decision = decisions[key] = (value, [
                    t.transition(ctx, buf, act.sends) for t, ctx, buf, act in
                    zip(templates, contexts, buffers, sent, strict=True)])
            value, moves = decision
            total[s0] = total.get(s0, 0.0) + value
            visits[s0] = visits.get(s0, 0) + 1
            contexts = [m.context for m in moves]
            buffers = [m.buffer(us) for m in moves]
            s0 = joint.next_state(s0, us)
        done += block
    system.s0, system.contexts, system.buffers = s0, contexts, buffers
    return {s0: t / visits[s0] for s0, t in total.items()}, len(decisions)
