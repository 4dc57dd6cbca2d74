"""Per-channel-state resource pricing by stochastic subgradient.

The coordinator keeps one nonnegative price per joint channel state. Each
slot the users submit bandwidth requests implied by their priced policies;
the visited state's price moves by (sum of requests - bandwidth) with a
1/(k+1) stepsize, where k counts that state's own updates. Convergence is
declared when every price update in a sliding window is below tolerance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from wvsched.mdp import ChannelView
from wvsched.model import (
    ChannelModel,
    GopTemplate,
    ModelError,
    ScheduleAction,
    UserState,
    advance_traffic,
    draw,
    initial_buffer,
    payoff,
    sample_channel,
)


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

    def visited(self) -> list[tuple[int, ...]]:
        return sorted(self.counts)

    def copy_prices(self) -> dict[tuple[int, ...], float]:
        return dict(self.lam)


def user_price(lambda0: float, rate: float, bits_per_packet: float) -> float:
    """Per-packet price seen by a user: lambda0 * b / r(h)."""
    if lambda0 < 0:
        raise ModelError("lambda0 must be >= 0")
    return lambda0 * bits_per_packet / rate


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
        if self.correlation == "common":
            h = sample_channel(self.channels[0], s0[0], rng)
            return (h,) * len(self.channels)
        return tuple(sample_channel(c, h, rng) for c, h in zip(self.channels, s0))

    def all_states(self) -> list[tuple[int, ...]]:
        if self.correlation == "common":
            return [(h,) * len(self.channels) for h in range(len(self.channels[0]))]
        from itertools import product
        return [tuple(k) for k in product(*(range(len(c)) for c in self.channels))]


# ---------------------------------------------------------------------------
# Transmission scaling (transient feasibility)
# ---------------------------------------------------------------------------

def trim_action(context, action: ScheduleAction, budget: int) -> ScheduleAction:
    """Reduce an action to at most `budget` packets, keeping high-impact,
    near-deadline packets first."""
    if action.total <= budget:
        return action
    keep_order = sorted(range(len(context)),
                        key=lambda i: (-context.slots[i].du.distortion_impact,
                                       context.slots[i].remaining, i))
    sends = [0] * len(context)
    room = budget
    for i in keep_order:
        take = min(action.sends[i], room)
        sends[i] = take
        room -= take
    return ScheduleAction(tuple(sends))


def scale_to_budget(contexts, actions: Sequence[ScheduleAction],
                    rates: Sequence[float], bits_per_packet: float,
                    bandwidth: float) -> list[ScheduleAction]:
    """Proportionally scale overcommitted requests down to the band budget.

    The unscaled requests drive the price update; the scaled sends are what
    the simulated system actually transmits.
    """
    usage = sum(a.total * bits_per_packet / r for a, r in zip(actions, rates))
    if usage <= bandwidth + 1e-12:
        return list(actions)
    gamma = bandwidth / usage
    out = []
    for ctx, act in zip(contexts, actions):
        budget = int(np.floor(gamma * act.total + 1e-9))
        out.append(trim_action(ctx, act, budget))
    return out


# ---------------------------------------------------------------------------
# Coordination loop
# ---------------------------------------------------------------------------

class PricedUserAgent(Protocol):
    """What the coordinator needs from a user-side solver."""

    template: GopTemplate
    channel: ChannelModel
    view: ChannelView

    def refresh(self, price_vec: np.ndarray) -> None:
        """Adopt a new per-view-state price vector (re-solve if it moved)."""

    def act(self, context, buffer: tuple[int, ...], view_state: int) -> ScheduleAction:
        """Greedy action in the current state under the refreshed prices."""


@dataclass
class CoordinationReport:
    prices: dict[tuple[int, ...], float]
    counts: dict[tuple[int, ...], int]
    slots_run: int
    converged: bool
    residuals: dict[tuple[int, ...], float] = field(default_factory=dict)
    expected_usage: dict[tuple[int, ...], float] = field(default_factory=dict)
    utility_trajectory: list[float] = field(default_factory=list)
    price_trace: list[tuple[int, tuple[int, ...], float, float]] = field(default_factory=list)
    exchange_messages_per_slot: int = 0


def run_coordination(users, agents: Sequence[PricedUserAgent], *,
                     bandwidth: float, bits_per_packet: float,
                     correlation: str = "independent",
                     tolerance: float = 1e-3, max_slots: int = 200_000,
                     eval_slots: int = 20_000, sweep_factor: int = 10,
                     rng: np.random.Generator | None = None,
                     strict: bool = True,
                     price_table: PriceTable | None = None) -> tuple[PriceTable, CoordinationReport]:
    """Iterate priced re-solves, bandwidth requests, and subgradient updates.

    `users` is the scenario's user config list (template/channel pairs are
    read off the agents); one price update happens per simulated slot, at the
    realized joint channel state. Afterwards the converged policies are
    frozen and replayed for `eval_slots` to estimate per-state expected usage
    and complementary-slackness residuals.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    table = price_table if price_table is not None else PriceTable()
    joint = JointChannel([a.channel for a in agents], correlation)

    s0 = joint.initial(rng)
    buffers = []
    for a in agents:
        buffers.append(initial_buffer(a.template, 0, rng))
    phases = [0] * len(agents)

    last_price_vec = [None] * len(agents)
    refresh_gate = tolerance / 10.0
    windows: dict[tuple[int, ...], deque] = {}
    utility_traj: list[float] = []
    util_acc = 0.0
    converged = False
    slots = 0

    def state_settled(win: deque) -> bool:
        # a state is settled once a full sweep of its updates are each small
        # and their net price movement is small (catches slow drift)
        if len(win) < sweep_factor + 1:
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

        contexts = [a.template.context(p) for a, p in zip(agents, phases)]
        actions = []
        requests = []
        for i, agent in enumerate(agents):
            v = agent.view.view_state(s0)
            act = agent.act(contexts[i], buffers[i], v)
            actions.append(act)
            requests.append(act.total * bits_per_packet / agent.channel.rate[s0[i]])

        lam_before = table.get(s0)
        update_prices(table, s0, requests, bandwidth)
        win = windows.setdefault(s0, deque(maxlen=sweep_factor + 1))
        win.append((abs(table.get(s0) - lam_before), table.get(s0)))

        rates = [a.channel.rate[s0[i]] for i, a in enumerate(agents)]
        sent = scale_to_budget(contexts, actions, rates, bits_per_packet, bandwidth)

        s0_next = joint.step(s0, rng)
        slot_util = 0.0
        for i, agent in enumerate(agents):
            state = UserState(contexts[i], buffers[i], s0[i])
            slot_util += payoff(state, sent[i], users[i].beta, agent.channel)
            if hasattr(agent, "observe"):
                agent.observe(contexts[i], buffers[i], agent.view.view_state(s0),
                              sent[i], agent.view.view_state(s0_next))
            step = advance_traffic(agent.template, state, sent[i], rng)
            buffers[i] = step.buffer
            phases[i] = step.context.phase
        util_acc += slot_util
        if slots % 100 == 0:
            utility_traj.append(util_acc / 100.0)
            util_acc = 0.0

        s0 = s0_next

        if all(state_settled(w) for w in windows.values()):
            converged = True
            break

    report = CoordinationReport(
        prices=table.copy_prices(),
        counts=dict(table.counts),
        slots_run=slots,
        converged=converged,
        utility_trajectory=utility_traj,
        price_trace=[(it, key, usage, lam) for it, key, usage, lam in table.history],
        exchange_messages_per_slot=2 * len(agents),  # one price + one request per user
    )
    if not converged:
        if strict:
            raise CoordinationError(
                f"prices did not settle within {max_slots} slots "
                f"(tolerance {tolerance}); see report.price_trace", report)
        return table, report

    # settle policies at the final prices, then measure usage with them frozen
    for i, agent in enumerate(agents):
        if hasattr(agent, "frozen"):
            agent.frozen = True
        agent.refresh(agent.view.price_vector(table.lam, bits_per_packet))
    usage_sum: dict[tuple[int, ...], float] = {}
    usage_n: dict[tuple[int, ...], int] = {}
    for _ in range(eval_slots):
        contexts = [a.template.context(p) for a, p in zip(agents, phases)]
        actions = []
        requests = []
        for i, agent in enumerate(agents):
            v = agent.view.view_state(s0)
            act = agent.act(contexts[i], buffers[i], v)
            actions.append(act)
            requests.append(act.total * bits_per_packet / agent.channel.rate[s0[i]])
        usage_sum[s0] = usage_sum.get(s0, 0.0) + sum(requests)
        usage_n[s0] = usage_n.get(s0, 0) + 1
        rates = [a.channel.rate[s0[i]] for i, a in enumerate(agents)]
        sent = scale_to_budget(contexts, actions, rates, bits_per_packet, bandwidth)
        for i, agent in enumerate(agents):
            state = UserState(contexts[i], buffers[i], s0[i])
            step = advance_traffic(agent.template, state, sent[i], rng)
            buffers[i] = step.buffer
            phases[i] = step.context.phase
        s0 = joint.step(s0, rng)

    for key, total in usage_sum.items():
        mean_usage = total / usage_n[key]
        report.expected_usage[key] = mean_usage
        report.residuals[key] = abs(table.get(key) * (mean_usage - bandwidth))
    return table, report
