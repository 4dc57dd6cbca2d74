"""Slot-by-slot simulation of complete solutions and table-style reporting.

A Solution owns whatever offline work its allocation scheme needs (price
coordination, uniform-price bisection, static shares) and then maps each
slot's joint channel state and user states to physical transmissions.
run_episode drives any solution through the stochastic system and records a
full trace; the same deterministic slot rule can be handed to the joint-MDP
evaluator for exact value computation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from wvsched.baselines import (
    lyapunov_action,
    myopic_static_shares,
    scale_up_to_budget,
    uniform_price_solve,
)
from wvsched.learning import DuPdsLearner
from wvsched.mdp import (
    ChannelView,
    TrafficLayout,
    UserMdp,
    common_view,
    joint_view,
    own_view,
)
from wvsched.model import (
    ModelError,
    ScenarioConfig,
    ScheduleAction,
    UserConfig,
    UserState,
    advance_traffic,
    draw,
    initial_buffer,
    payoff,
    sample_channel,
)
from wvsched.pricing import (
    CoordinationReport,
    JointChannel,
    PriceTable,
    run_coordination,
    scale_to_budget,
)
from wvsched.scheduling import (
    SIMPLE_SCHEDULERS,
    build_du_tables,
    decomposed_schedule,
    packet_capacity,
)


def build_views(scenario: ScenarioConfig) -> list[ChannelView]:
    """One channel view per user, per the scenario's correlation and price view."""
    channels = scenario.channels
    if scenario.channel_correlation == "common":
        return [common_view(channels[i], len(channels), user=i)
                for i in range(len(channels))]
    if scenario.price_view == "full":
        return [joint_view(channels, i) for i in range(len(channels))]
    return [own_view(channels, i) for i in range(len(channels))]


def expected_entering(template, phase: int) -> float:
    """Mean packets entering the context at the next slot."""
    step = template.step(phase)
    nxt = template.context(phase + 1)
    return float(sum(nxt.slots[j].du.mean_size for j in step.entering))


# ---------------------------------------------------------------------------
# User-side agents
# ---------------------------------------------------------------------------

class DecomposedAgent:
    """Priced per-DU tables plus the sequential DAG scheduler."""

    def __init__(self, user: UserConfig, view: ChannelView, discount: float):
        if user.min_quality > 0:
            raise ModelError(
                f"user {user.name}: quality floors need the full solver, "
                "the decomposed scheduler does not support them")
        self.user = user
        self.template = user.template
        self.channel = user.channel
        self.view = view
        self.discount = discount
        self.tables = None
        self.price_vec: np.ndarray | None = None

    def refresh(self, price_vec: np.ndarray) -> None:
        if self.price_vec is not None and np.array_equal(price_vec, self.price_vec):
            return
        self.price_vec = np.asarray(price_vec, dtype=float)
        self.tables = build_du_tables(self.template, self.view, self.discount,
                                      self.price_vec)

    def act(self, context, buffer, view_state: int) -> ScheduleAction:
        return self.act_at(context, buffer, view_state,
                           float(self.price_vec[view_state]))

    def act_at(self, context, buffer, view_state: int, lam: float) -> ScheduleAction:
        act, _ = decomposed_schedule(context, buffer, view_state, lam,
                                     self.tables, self.discount)
        return act


class FullMdpAgent:
    """Exact tabular policy over the user's full (context, buffer, channel) space."""

    def __init__(self, user: UserConfig, view: ChannelView, bits_per_packet: float,
                 discount: float, tol: float = 1e-7):
        self.user = user
        self.template = user.template
        self.channel = user.channel
        self.view = view
        self.tol = tol
        self.mdp = UserMdp(user.template, view, user.beta, user.min_quality,
                           bits_per_packet, discount)
        self.table = None
        self.price_vec: np.ndarray | None = None

    def refresh(self, price_vec: np.ndarray) -> None:
        if self.price_vec is not None and np.array_equal(price_vec, self.price_vec):
            return
        init = self.table.values if self.table is not None else None
        self.price_vec = np.asarray(price_vec, dtype=float)
        self.table = self.mdp.solve(self.price_vec, tol=self.tol, init=init)

    def act(self, context, buffer, view_state: int) -> ScheduleAction:
        return self.table.action_of(context.phase, buffer, view_state)


class PdsDecomposedAgent:
    """Learned per-DU continuations; explores while learning, exact when frozen."""

    def __init__(self, user: UserConfig, view: ChannelView, discount: float,
                 rng: np.random.Generator, tau: float = 100.0):
        if user.min_quality > 0:
            raise ModelError(
                f"user {user.name}: quality floors are not supported while learning")
        self.user = user
        self.template = user.template
        self.channel = user.channel
        self.view = view
        self.discount = discount
        self.rng = rng
        self.tau = tau
        self.learners = {du.du_id: DuPdsLearner(du.distortion_impact,
                                                user.template.window, discount)
                         for du in user.template.dus}
        self.price_vec = np.zeros(len(view))
        self.slots_seen = 0
        self.frozen = False

    def refresh(self, price_vec: np.ndarray) -> None:
        self.price_vec = np.asarray(price_vec, dtype=float)

    def epsilon(self) -> float:
        return 1.0 / (1.0 + self.slots_seen / self.tau)

    def act(self, context, buffer, view_state: int) -> ScheduleAction:
        if not self.frozen and self.rng.random() < self.epsilon():
            sends = tuple(int(self.rng.integers(x + 1)) for x in buffer)
            return ScheduleAction(sends)
        act, _ = decomposed_schedule(context, buffer, view_state,
                                     float(self.price_vec[view_state]),
                                     self.learners, self.discount)
        return act

    def observe(self, context, buffer, view_state: int, sent: ScheduleAction,
                next_view: int) -> None:
        if self.frozen:
            return
        next_price = float(self.price_vec[next_view])
        for i, slot in enumerate(context.slots):
            age = context.age_of(i)
            x_after = buffer[i] - sent.sends[i]
            self.learners[slot.du.du_id].update(age, x_after, view_state,
                                                next_view, next_price)
        self.slots_seen += 1


def make_agents(scenario: ScenarioConfig, kind: str,
                rng: np.random.Generator | None = None) -> list:
    views = build_views(scenario)
    if kind == "decomposed":
        return [DecomposedAgent(u, v, scenario.discount)
                for u, v in zip(scenario.users, views)]
    if kind == "full":
        return [FullMdpAgent(u, v, scenario.bits_per_packet, scenario.discount)
                for u, v in zip(scenario.users, views)]
    if kind == "pds":
        rng = rng if rng is not None else np.random.default_rng(scenario.seed)
        return [PdsDecomposedAgent(u, v, scenario.discount, rng)
                for u, v in zip(scenario.users, views)]
    raise ModelError(f"unknown agent kind {kind!r}")


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------

@dataclass
class SlotDecision:
    raw: list[ScheduleAction]
    sent: list[ScheduleAction]
    lam0: float
    shares: list[float]


class Solution:
    """Base: offline prepare() then a deterministic per-slot transmission rule."""

    name = "abstract"

    def prepare(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def sent_actions(self, s0, contexts, buffers) -> SlotDecision:
        raise NotImplementedError

    def _shares(self, scenario, s0, sent) -> list[float]:
        return [a.total * scenario.bits_per_packet
                / u.channel.rate[h] / scenario.bandwidth
                for a, h, u in zip(sent, s0, scenario.users)]


def agent_fill_order(agent, context, buffer) -> list[int]:
    """Slot order a user fills bonus capacity in: drift users drain by
    position, priced users by impact then urgency."""
    idx = range(len(context))
    if isinstance(agent, DriftAgent):
        return list(idx)
    return sorted(idx, key=lambda j: (-context.slots[j].du.distortion_impact,
                                      context.slots[j].remaining, j))


def agent_bid(agent, context, slot_idx: int, backlog: int) -> float:
    """Declared marginal value of one more packet from this DU."""
    if isinstance(agent, DriftAgent):
        return float(2 * backlog + 1)  # drift marginal, impact-blind
    return float(context.slots[slot_idx].du.distortion_impact)


class PricedRuntime(Solution):
    """Shared per-slot mechanics for price-mediated solutions.

    With clearing off, users request at the coordinator's converged prices
    and overcommitted slots are proportionally trimmed. With clearing on, a
    within-slot price search shrinks requests until they fit the band, then
    leftover capacity is granted to the highest-marginal-value packets users
    still hold, so the band ends up fully utilized.
    """

    def __init__(self, scenario: ScenarioConfig, clearing: bool = False):
        self.scenario = scenario
        self.clearing = clearing
        self.agents = None
        self.prices: PriceTable | None = None
        self._cache: dict = {}
        self._cacheable = False

    def sent_actions(self, s0, contexts, buffers) -> SlotDecision:
        sc = self.scenario
        key = (tuple(s0), tuple(c.phase for c in contexts), tuple(buffers)) \
            if self._cacheable else None
        if key is not None and key in self._cache:
            return self._cache[key]
        raw = [a.act(ctx, buf, a.view.view_state(s0))
               for a, ctx, buf in zip(self.agents, contexts, buffers)]
        rates = [u.channel.rate[h] for u, h in zip(sc.users, s0)]
        if self.clearing:
            cleared, lam0 = self._clear(s0, contexts, buffers, raw)
            sent = self._top_up(s0, contexts, buffers, cleared, rates)
        else:
            lam0 = self.prices.get(tuple(s0))
            sent = scale_to_budget(contexts, raw, rates, sc.bits_per_packet,
                                   sc.bandwidth)
        decision = SlotDecision(raw, sent, lam0, self._shares(sc, s0, sent))
        if key is not None:
            self._cache[key] = decision
        return decision

    def _usage_of(self, acts, rates) -> float:
        b = self.scenario.bits_per_packet
        return sum(x.total * b / r for x, r in zip(acts, rates))

    def _acts_at(self, s0, contexts, buffers, lam0: float):
        sc = self.scenario
        if not all(hasattr(a, "act_at") for a in self.agents):
            raise ModelError(
                "clearing mode needs price-queryable agents; the full tabular "
                "policy cannot be re-priced within a slot")
        return [a.act_at(ctx, buf, a.view.view_state(s0),
                         lam0 * sc.bits_per_packet / a.channel.rate[s0[i]])
                for i, (a, ctx, buf) in enumerate(zip(self.agents, contexts, buffers))]

    def _clear(self, s0, contexts, buffers, raw):
        """Smallest price >= the table's at which requests fit the band.

        Returns the actions and the clearing price actually applied.
        """
        sc = self.scenario
        rates = [u.channel.rate[h] for u, h in zip(sc.users, s0)]
        lam0 = self.prices.get(tuple(s0))
        if self._usage_of(raw, rates) <= sc.bandwidth + 1e-12:
            return raw, lam0
        lo, hi = lam0, max(lam0, 1e-3)
        acts_hi = raw
        for _ in range(60):
            hi *= 2.0
            acts_hi = self._acts_at(s0, contexts, buffers, hi)
            if self._usage_of(acts_hi, rates) <= sc.bandwidth + 1e-12:
                break
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            acts_mid = self._acts_at(s0, contexts, buffers, mid)
            if self._usage_of(acts_mid, rates) <= sc.bandwidth + 1e-12:
                hi, acts_hi = mid, acts_mid
            else:
                lo = mid
        return acts_hi, hi

    def _top_up(self, s0, contexts, buffers, acts, rates):
        """Fill leftover band with the highest-bid buffered packets; each
        user's bid ordering is its own scheduler's."""
        sc = self.scenario
        b = sc.bits_per_packet
        room = sc.bandwidth - self._usage_of(acts, rates)
        if room <= 1e-12:
            return list(acts)
        sends = [list(a.sends) for a in acts]
        candidates = []
        for i, agent in enumerate(self.agents):
            backlog = sum(buffers[i])
            order = agent_fill_order(agent, contexts[i], buffers[i])
            for rank, j in enumerate(order):
                if buffers[i][j] > sends[i][j]:
                    bid = agent_bid(agent, contexts[i], j, backlog)
                    candidates.append((-bid, rank, i, j))
        candidates.sort()
        for _bid, _rank, i, j in candidates:
            cost = b / rates[i]
            user = sc.users[i]
            while room >= cost - 1e-12 and sends[i][j] < buffers[i][j]:
                total = sum(sends[i])
                q = contexts[i].slots[j].du.distortion_impact
                marginal = q - user.beta * (
                    user.channel.energy(s0[i], total + 1)
                    - user.channel.energy(s0[i], total))
                if marginal <= 0:
                    break
                sends[i][j] += 1
                room -= cost
        return [ScheduleAction(tuple(s)) for s in sends]


class ProposedSolution(PricedRuntime):
    """Per-state prices from the coordination loop plus priced scheduling."""

    def __init__(self, scenario: ScenarioConfig, mode: str = "planning",
                 agent_kind: str = "decomposed", max_slots: int = 120_000,
                 eval_slots: int = 20_000, clearing: bool = False):
        if clearing and mode == "learning":
            raise ModelError(
                "clearing mode needs price-queryable agents; the PDS learning "
                "agents of proposed-learning have no act_at and cannot be "
                "re-priced within a slot")
        super().__init__(scenario, clearing)
        self.mode = mode
        self.agent_kind = agent_kind if mode == "planning" else "pds"
        self.max_slots = max_slots
        self.eval_slots = eval_slots
        self.name = "proposed" if mode == "planning" else "proposed-learning"
        self.report: CoordinationReport | None = None

    def prepare(self, rng: np.random.Generator) -> None:
        sc = self.scenario
        self.agents = make_agents(sc, self.agent_kind, rng)
        self.prices, self.report = run_coordination(
            sc.users, self.agents,
            bandwidth=sc.bandwidth, bits_per_packet=sc.bits_per_packet,
            correlation=sc.channel_correlation, tolerance=sc.price_tolerance,
            max_slots=self.max_slots, eval_slots=self.eval_slots, rng=rng)
        for a in self.agents:
            if hasattr(a, "frozen"):
                a.frozen = True
            a.refresh(a.view.price_vector(self.prices.lam, sc.bits_per_packet))
        if self.clearing:
            self._calibrate(rng)
        self._cacheable = True

    def _calibrate(self, rng: np.random.Generator, rounds: int = 2,
                   slots: int = 600) -> None:
        """Re-anchor the price table at observed within-slot clearing prices.

        The subgradient table undershoots when clearing does the real
        rationing; solving the users' tables against the average cleared
        price keeps their continuation values consistent with what the
        market actually charges.
        """
        sc = self.scenario
        joint = JointChannel(sc.channels, sc.channel_correlation)
        for _ in range(rounds):
            tally: dict = {}
            count: dict = {}
            s0 = joint.initial(rng)
            buffers = [initial_buffer(u.template, 0, rng) for u in sc.users]
            phases = [0] * len(sc.users)
            for _t in range(slots):
                contexts = [u.template.context(p) for u, p in zip(sc.users, phases)]
                raw = [a.act(ctx, buf, a.view.view_state(s0))
                       for a, ctx, buf in zip(self.agents, contexts, buffers)]
                rates = [u.channel.rate[h] for u, h in zip(sc.users, s0)]
                cleared, lam_c = self._clear(s0, contexts, buffers, raw)
                sent = self._top_up(s0, contexts, buffers, cleared, rates)
                tally[s0] = tally.get(s0, 0.0) + lam_c
                count[s0] = count.get(s0, 0) + 1
                for i, u in enumerate(sc.users):
                    state = UserState(contexts[i], buffers[i], s0[i])
                    step = advance_traffic(u.template, state, sent[i], rng)
                    buffers[i] = step.buffer
                    phases[i] = step.context.phase
                s0 = joint.step(s0, rng)
            for key, total in tally.items():
                self.prices.lam[key] = total / count[key]
            for a in self.agents:
                a.refresh(a.view.price_vector(self.prices.lam, sc.bits_per_packet))
            self._cache.clear()


class MyopicSolution(Solution):
    """Static impact-proportional shares with earliest-deadline-first filling."""

    name = "myopic"

    def __init__(self, scenario: ScenarioConfig, scheduler: str = "edf"):
        self.scenario = scenario
        self.scheduler = SIMPLE_SCHEDULERS[scheduler]
        self.shares = None

    def prepare(self, rng: np.random.Generator) -> None:
        self.shares = myopic_static_shares(self.scenario.templates)

    def sent_actions(self, s0, contexts, buffers) -> SlotDecision:
        sc = self.scenario
        acts = []
        for i, (u, ctx, buf) in enumerate(zip(sc.users, contexts, buffers)):
            cap = packet_capacity(self.shares[i], sc.bandwidth,
                                  u.channel.rate[s0[i]], sc.bits_per_packet)
            acts.append(self.scheduler(ctx, buf, cap))
        return SlotDecision(acts, acts, 0.0, self._shares(sc, s0, acts))


class PairedSolution(Solution):
    """A resource allocator paired with a simple within-capacity scheduler.

    allocator "proposed": capacities come from the priced agents' scaled
    demands on the current states; allocator "static": the myopic shares.
    """

    def __init__(self, scenario: ScenarioConfig, allocator: str, scheduler: str,
                 proposed: ProposedSolution | None = None):
        self.scenario = scenario
        self.allocator = allocator
        self.scheduler_name = scheduler
        self.scheduler = SIMPLE_SCHEDULERS[scheduler]
        self.proposed = proposed
        self.shares = None
        self.name = f"{allocator}+{scheduler}"

    def prepare(self, rng: np.random.Generator) -> None:
        if self.allocator == "static":
            self.shares = myopic_static_shares(self.scenario.templates)
        else:
            if self.proposed is None:
                self.proposed = ProposedSolution(self.scenario)
            if self.proposed.prices is None:
                self.proposed.prepare(rng)

    def capacities(self, s0, contexts, buffers) -> list[int]:
        sc = self.scenario
        if self.allocator == "static":
            return [packet_capacity(self.shares[i], sc.bandwidth,
                                    u.channel.rate[s0[i]], sc.bits_per_packet)
                    for i, u in enumerate(sc.users)]
        decision = self.proposed.sent_actions(s0, contexts, buffers)
        return [a.total for a in decision.sent]

    def sent_actions(self, s0, contexts, buffers) -> SlotDecision:
        sc = self.scenario
        caps = self.capacities(s0, contexts, buffers)
        acts = [self.scheduler(ctx, buf, cap)
                for ctx, buf, cap in zip(contexts, buffers, caps)]
        lam0 = self.proposed.prices.get(tuple(s0)) if self.proposed else 0.0
        return SlotDecision(acts, acts, lam0, self._shares(sc, s0, acts))


class DriftAgent:
    """Queue-drift demand: price-responsive, blind to impacts and deadlines."""

    def __init__(self, user: UserConfig, view: ChannelView, discount: float):
        self.user = user
        self.template = user.template
        self.channel = user.channel
        self.view = view
        self.discount = discount
        self.arrivals = [expected_entering(user.template, p)
                         for p in range(user.template.period)]
        self.price_vec = np.zeros(len(view))

    def refresh(self, price_vec: np.ndarray) -> None:
        self.price_vec = np.asarray(price_vec, dtype=float)

    def act(self, context, buffer, view_state: int) -> ScheduleAction:
        return self.act_at(context, buffer, view_state,
                           float(self.price_vec[view_state]))

    def act_at(self, context, buffer, view_state: int, lam: float) -> ScheduleAction:
        return lyapunov_action(
            context, buffer, price=lam, beta=self.user.beta,
            gain_to_noise=float(self.view.gain[view_state]),
            delta=self.discount,
            expected_arrivals=self.arrivals[context.phase])


class LyapunovSolution(PricedRuntime):
    """Drift-based demands run through the proposed allocation mechanism."""

    name = "lyapunov"

    def __init__(self, scenario: ScenarioConfig, proposed: ProposedSolution | None = None):
        super().__init__(scenario, clearing=True)
        self.proposed = proposed

    def prepare(self, rng: np.random.Generator) -> None:
        if self.proposed is None:
            self.proposed = ProposedSolution(self.scenario)
        if self.proposed.prices is None:
            self.proposed.prepare(rng)
        self.clearing = self.proposed.clearing
        self.prices = self.proposed.prices
        views = build_views(self.scenario)
        self.agents = [DriftAgent(u, v, self.scenario.discount)
                       for u, v in zip(self.scenario.users, views)]
        for a in self.agents:
            a.refresh(a.view.price_vector(self.prices.lam,
                                          self.scenario.bits_per_packet))
        self._cacheable = True


class UniformPriceSolution(Solution):
    """One price for every joint channel state, chosen by feasibility bisection;
    conservative requests are inflated to full utilization at run time."""

    name = "mu-mdp"

    def __init__(self, scenario: ScenarioConfig, agent_kind: str = "decomposed",
                 usage_slots: int = 2000, tol: float = 1e-4):
        self.scenario = scenario
        self.agent_kind = agent_kind
        self.usage_slots = usage_slots
        self.tol = tol
        self.agents = None
        self.price = None
        self.result = None
        self._cache: dict = {}

    def _usage_estimator(self, rng: np.random.Generator) -> Callable:
        sc = self.scenario
        joint = JointChannel(sc.channels, sc.channel_correlation)
        s0_states = joint.all_states()

        def estimate(lam: float) -> dict:
            per_user = []
            for agent in self.agents:
                vec = lam * sc.bits_per_packet / np.asarray(agent.view.rate)
                agent.refresh(vec)
                if isinstance(agent, FullMdpAgent):
                    per_user.append(agent.mdp.expected_usage_by_view(agent.table))
                else:
                    per_user.append(self._simulated_usage(agent, rng))
            out = {}
            for s0 in s0_states:
                out[s0] = float(sum(us[agent.view.view_state(s0)]
                                    for us, agent in zip(per_user, self.agents)))
            return out

        return estimate

    def _simulated_usage(self, agent, rng: np.random.Generator) -> np.ndarray:
        """Long-run E[bandwidth request | own channel] by simulation."""
        sc = self.scenario
        n = len(agent.view)
        tally = np.zeros(n)
        count = np.zeros(n)
        h = draw(agent.channel.stationary_cdf, rng)
        buf = initial_buffer(agent.template, 0, rng)
        phase = 0
        for _ in range(self.usage_slots):
            ctx = agent.template.context(phase)
            act = agent.act(ctx, buf, h)
            tally[h] += act.total * sc.bits_per_packet / agent.channel.rate[h]
            count[h] += 1
            state = UserState(ctx, buf, h)
            step = advance_traffic(agent.template, state, act, rng)
            buf, phase = step.buffer, step.context.phase
            h = sample_channel(agent.channel, h, rng)
        return np.divide(tally, np.maximum(count, 1))

    def prepare(self, rng: np.random.Generator) -> None:
        sc = self.scenario
        # uniform price only needs the user's own channel to index its tables
        views = ([common_view(sc.channels[i], len(sc.users), user=i)
                  for i in range(len(sc.users))]
                 if sc.channel_correlation == "common"
                 else [own_view(sc.channels, i) for i in range(len(sc.users))])
        if self.agent_kind == "full":
            self.agents = [FullMdpAgent(u, v, sc.bits_per_packet, sc.discount)
                           for u, v in zip(sc.users, views)]
        else:
            self.agents = [DecomposedAgent(u, v, sc.discount)
                           for u, v in zip(sc.users, views)]
        joint = JointChannel(sc.channels, sc.channel_correlation)
        self.result = uniform_price_solve(self._usage_estimator(rng),
                                          joint.all_states(), sc.bandwidth,
                                          tol=self.tol)
        self.price = self.result.price
        for agent in self.agents:
            vec = self.price * sc.bits_per_packet / np.asarray(agent.view.rate)
            agent.refresh(vec)

    def sent_actions(self, s0, contexts, buffers) -> SlotDecision:
        sc = self.scenario
        key = (tuple(s0), tuple(c.phase for c in contexts), tuple(buffers))
        if key in self._cache:
            return self._cache[key]
        raw = [a.act(ctx, buf, a.view.view_state(s0))
               for a, ctx, buf in zip(self.agents, contexts, buffers)]
        rates = [u.channel.rate[h] for u, h in zip(sc.users, s0)]
        sent = scale_up_to_budget(contexts, raw, buffers, rates,
                                  sc.bits_per_packet, sc.bandwidth)
        sent = scale_to_budget(contexts, sent, rates, sc.bits_per_packet, sc.bandwidth)
        decision = SlotDecision(raw, sent, self.price, self._shares(sc, s0, sent))
        self._cache[key] = decision
        return decision


def build_solution(scenario: ScenarioConfig, name: str,
                   proposed: ProposedSolution | None = None, **kwargs) -> Solution:
    """Solution factory; pairings reuse a prepared proposed solution if given."""
    if name in ("proposed", "proposed-decomposed"):
        return proposed if proposed is not None else ProposedSolution(scenario, **kwargs)
    if name == "proposed-full":
        return ProposedSolution(scenario, agent_kind="full", **kwargs)
    if name == "proposed-learning":
        return ProposedSolution(scenario, mode="learning", **kwargs)
    if name == "myopic":
        return MyopicSolution(scenario)
    if name == "lyapunov":
        return LyapunovSolution(scenario, proposed=proposed)
    if name in ("mu-mdp", "uniform-price"):
        return UniformPriceSolution(scenario, **kwargs)
    if name == "mu-mdp-full":
        return UniformPriceSolution(scenario, agent_kind="full", **kwargs)
    if "+" in name:
        alloc, sched = name.split("+", 1)
        if alloc in ("proposed", "static", "myopic") and sched in SIMPLE_SCHEDULERS:
            alloc = "static" if alloc == "myopic" else alloc
            return PairedSolution(scenario, alloc, sched, proposed=proposed)
    raise ModelError(f"unknown solution {name!r}")


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

@dataclass
class UserSlotRecord:
    traffic: list[tuple[str, int]]
    requested: tuple[int, ...]
    sent: tuple[int, ...]
    dropped: dict[str, int]
    payoff: float
    distortion: float
    energy: float
    request_bw: float
    share: float


@dataclass
class SlotRecord:
    slot: int
    s0: tuple[int, ...]
    channel_names: tuple[str, ...]
    lam0: float
    users: list[UserSlotRecord]
    messages: int


@dataclass
class EpisodeTrace:
    scenario: str
    solution: str
    records: list[SlotRecord] = field(default_factory=list)
    arrived: list[dict[str, int]] = field(default_factory=list)
    sent_totals: list[dict[str, int]] = field(default_factory=list)
    dropped_totals: list[dict[str, int]] = field(default_factory=list)
    remaining: list[dict[str, int]] = field(default_factory=list)


def run_episode(scenario: ScenarioConfig, solution: Solution, slots: int,
                rng: np.random.Generator,
                pinned_channels: Sequence[int] | None = None) -> EpisodeTrace:
    """Simulate `slots` slots; channels may be pinned (common correlation only)."""
    sc = scenario
    joint = JointChannel(sc.channels, sc.channel_correlation)
    if pinned_channels is not None:
        if sc.channel_correlation != "common":
            raise ModelError("pinned channel replay requires common correlation")
        s0 = (int(pinned_channels[0]),) * len(sc.users)
    else:
        s0 = joint.initial(rng)
    buffers = [initial_buffer(u.template, 0, rng) for u in sc.users]
    phases = [0] * len(sc.users)

    trace = EpisodeTrace(sc.name, solution.name)
    n_users = len(sc.users)
    trace.arrived = [dict() for _ in range(n_users)]
    trace.sent_totals = [dict() for _ in range(n_users)]
    trace.dropped_totals = [dict() for _ in range(n_users)]
    for i, u in enumerate(sc.users):
        ctx = u.template.context(0)
        for slot, x in zip(ctx.slots, buffers[i]):
            trace.arrived[i][slot.du.name] = trace.arrived[i].get(slot.du.name, 0) + x

    for t in range(slots):
        contexts = [u.template.context(p) for u, p in zip(sc.users, phases)]
        decision = solution.sent_actions(s0, contexts, buffers)
        users_rec = []
        new_buffers, new_phases = [], []
        for i, u in enumerate(sc.users):
            state = UserState(contexts[i], buffers[i], s0[i])
            act = decision.sent[i]
            dist = float(sum(s.du.distortion_impact * y
                             for s, y in zip(contexts[i].slots, act.sends)))
            en = u.channel.energy(s0[i], act.total)
            pay = dist - u.beta * en
            step = advance_traffic(u.template, state, act, rng)
            dropped = {}
            for key, n in step.dropped.items():
                name = u.template.du(key[1]).name
                dropped[name] = dropped.get(name, 0) + n
                trace.dropped_totals[i][name] = trace.dropped_totals[i].get(name, 0) + n
            for key, n in step.arrivals.items():
                name = u.template.du(key[1]).name
                trace.arrived[i][name] = trace.arrived[i].get(name, 0) + n
            for s, y in zip(contexts[i].slots, act.sends):
                if y:
                    trace.sent_totals[i][s.du.name] = trace.sent_totals[i].get(s.du.name, 0) + y
            users_rec.append(UserSlotRecord(
                traffic=[(s.du.name, x) for s, x in zip(contexts[i].slots, buffers[i])],
                requested=decision.raw[i].sends,
                sent=act.sends,
                dropped=dropped,
                payoff=pay,
                distortion=dist,
                energy=en,
                request_bw=decision.raw[i].total * sc.bits_per_packet / u.channel.rate[s0[i]],
                share=decision.shares[i],
            ))
            new_buffers.append(step.buffer)
            new_phases.append(step.context.phase)
        names = tuple(sc.users[i].channel.names[s0[i]] for i in range(n_users))
        trace.records.append(SlotRecord(
            slot=t + 1, s0=tuple(s0), channel_names=names, lam0=decision.lam0,
            users=users_rec, messages=2 * n_users))
        buffers, phases = new_buffers, new_phases
        if pinned_channels is not None:
            nxt = pinned_channels[t + 1] if t + 1 < len(pinned_channels) else pinned_channels[-1]
            s0 = (int(nxt),) * n_users
        else:
            s0 = joint.step(s0, rng)

    for i, u in enumerate(sc.users):
        ctx = u.template.context(phases[i])
        rem = {}
        for slot, x in zip(ctx.slots, buffers[i]):
            rem[slot.du.name] = rem.get(slot.du.name, 0) + x
        trace.remaining.append(rem)
    return trace


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    solution: str
    per_user_payoff: list[float]
    per_user_distortion: list[float]
    network_payoff: float
    network_distortion: float
    total_distortion: float
    total_energy: float
    loss_by_frame: list[dict[str, int]]
    i_loss_after_first_slot: int
    slots: int


def compute_metrics(trace: EpisodeTrace, scenario: ScenarioConfig) -> MetricsReport:
    """Discounted long-term payoff estimates and cumulative loss accounting."""
    delta = scenario.discount
    n = len(scenario.users)
    pay = [0.0] * n
    dist = [0.0] * n
    disc = 1.0
    total_dist = 0.0
    total_energy = 0.0
    i_loss_late = 0
    for rec in trace.records:
        for i, ur in enumerate(rec.users):
            pay[i] += disc * ur.payoff
            dist[i] += disc * ur.distortion
            total_dist += ur.distortion
            total_energy += ur.energy
            if rec.slot > 1:
                i_loss_late += ur.dropped.get("I", 0)
        disc *= delta
    scale = (1.0 - delta) if delta < 1 else 1.0
    pay = [scale * p for p in pay]
    dist = [scale * d for d in dist]
    return MetricsReport(
        solution=trace.solution,
        per_user_payoff=pay,
        per_user_distortion=dist,
        network_payoff=float(sum(pay)),
        network_distortion=float(sum(dist)),
        total_distortion=total_dist,
        total_energy=total_energy,
        loss_by_frame=trace.dropped_totals,
        i_loss_after_first_slot=i_loss_late,
        slots=len(trace.records),
    )


def conservation_ok(trace: EpisodeTrace) -> bool:
    """arrived == sent + dropped + remaining, per user and frame type."""
    for i in range(len(trace.arrived)):
        names = set(trace.arrived[i]) | set(trace.sent_totals[i]) | \
            set(trace.dropped_totals[i]) | set(trace.remaining[i])
        for name in names:
            lhs = trace.arrived[i].get(name, 0)
            rhs = (trace.sent_totals[i].get(name, 0)
                   + trace.dropped_totals[i].get(name, 0)
                   + trace.remaining[i].get(name, 0))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def emit_report(traces: Sequence[EpisodeTrace], scenario: ScenarioConfig,
                out_dir: str | Path) -> list[Path]:
    """Comparison metrics CSV plus one full trace CSV per solution."""
    if not traces:
        raise ModelError("emit_report needs at least one trace")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    metrics_path = out / "metrics.csv"
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        header = ["solution", "network_payoff", "network_distortion",
                  "total_distortion", "total_energy", "i_loss_after_slot1"]
        for i, u in enumerate(scenario.users):
            header += [f"payoff_{u.name}", f"distortion_{u.name}", f"loss_{u.name}"]
        w.writerow(header)
        for trace in traces:
            m = compute_metrics(trace, scenario)
            row = [m.solution, f"{m.network_payoff:.6g}", f"{m.network_distortion:.6g}",
                   f"{m.total_distortion:.6g}", f"{m.total_energy:.6g}",
                   m.i_loss_after_first_slot]
            for i in range(len(scenario.users)):
                loss = sum(m.loss_by_frame[i].values())
                row += [f"{m.per_user_payoff[i]:.6g}",
                        f"{m.per_user_distortion[i]:.6g}", loss]
            w.writerow(row)
    written.append(metrics_path)

    for trace in traces:
        path = out / f"trace_{trace.solution.replace('+', '_')}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["slot", "channel", "lambda0", "user", "traffic",
                        "requested", "sent", "dropped", "payoff", "share"])
            for rec in trace.records:
                for i, ur in enumerate(rec.users):
                    w.writerow([
                        rec.slot, rec.channel_names[i], f"{rec.lam0:.6g}",
                        scenario.users[i].name,
                        " ".join(f"{n}({x})" for n, x in ur.traffic),
                        " ".join(map(str, ur.requested)),
                        " ".join(map(str, ur.sent)),
                        " ".join(f"{n}({x})" for n, x in ur.dropped.items()) or "-",
                        f"{ur.payoff:.6g}", f"{ur.share:.4f}",
                    ])
        written.append(path)
    return written


def pds_learning_curve(scenario: ScenarioConfig, price: np.ndarray, slots: int,
                       rng: np.random.Generator, every: int = 500,
                       with_planning: bool = True, user_index: int = 0):
    """Train a full-state PDS learner on one user at fixed prices.

    Returns (rows, learner): rows carry (slot, user, windowed payoff, sup-norm
    gap to the planning post-decision values when available).
    """
    from itertools import product as _product

    from wvsched.learning import PdsLearner

    u = scenario.users[user_index]
    view = common_view(u.channel, 1)
    plan_u = None
    layout = None
    if with_planning:
        mdp = UserMdp(u.template, view, u.beta, u.min_quality,
                      scenario.bits_per_packet, scenario.discount)
        plan_u = mdp.pds_planning_values(mdp.solve(np.asarray(price)))
        layout = mdp.layout
    learner = PdsLearner(TrafficLayout(u.template) if layout is None else layout,
                         view.gain, u.beta, scenario.discount,
                         min_quality=u.min_quality)
    lay = learner.layout
    h = draw(u.channel.stationary_cdf, rng)
    buf, phase = initial_buffer(u.template, 0, rng), 0
    rows = []
    window_pay = 0.0
    for t in range(slots):
        ctx = u.template.context(phase)
        act = learner.act(phase, buf, h, float(price[h]), rng=rng)
        state = UserState(ctx, buf, h)
        window_pay += payoff(state, act, u.beta, u.channel)
        step = advance_traffic(u.template, state, act, rng)
        h2 = sample_channel(u.channel, h, rng)
        learner.observe((phase, buf, h, act, step.arrivals, step.buffer, h2),
                        np.asarray(price))
        buf, phase, h = step.buffer, step.context.phase, h2
        if (t + 1) % every == 0:
            gap = ""
            if plan_u is not None:
                gap = max(abs(learner.table.value((p, s, v))
                              - plan_u[lay.pds_index(p, s), v])
                          for p in range(lay.period)
                          for s in _product(*(range(c + 1)
                                              for c in lay.pds_caps[p]))
                          for v in range(len(view)))
            rows.append((t + 1, u.name, window_pay / every, gap))
            window_pay = 0.0
    return rows, learner


def write_learning_curve(rows, path: str | Path) -> Path:
    """slot, user, windowed payoff, sup-norm gap to planning values."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["slot", "user", "windowed_payoff", "gap_to_planning"])
        for slot, user, pay, gap in rows:
            w.writerow([slot, user, f"{pay:.6g}",
                        f"{gap:.6g}" if gap != "" else ""])
    return path


def write_price_trace(report: CoordinationReport, path: str | Path) -> Path:
    """Iteration, state, usage, price, residual rows behind a convergence plot."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "s0", "usage", "lambda0", "residual"])
        for it, s0, usage, lam in report.price_trace:
            res = report.residuals.get(s0, "")
            w.writerow([it, "/".join(map(str, s0)), f"{usage:.6g}", f"{lam:.6g}",
                        f"{res:.6g}" if res != "" else ""])
    return path


def format_traffic(ur: UserSlotRecord) -> str:
    return ", ".join(f"{n}({x})" for n, x in ur.traffic)


def format_sched(ur: UserSlotRecord) -> str:
    pairs = [(n, y) for (n, _x), y in zip(ur.traffic, ur.sent)]
    return ", ".join(f"{n}({y})" for n, y in pairs)


def write_replay_table(trace: EpisodeTrace, scenario: ScenarioConfig,
                       path: str | Path) -> Path:
    """Slot-column table: traffic states, channel, allocation, scheduling, loss."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n_slots = len(trace.records)
    rows = []
    for i, u in enumerate(scenario.users):
        rows.append([f"traffic {u.name}"] +
                    [format_traffic(rec.users[i]) for rec in trace.records])
    rows.append(["channel"] + [rec.channel_names[0] for rec in trace.records])
    rows.append(["allocation"] +
                ["(" + ", ".join(f"{ur.share:.2f}" for ur in rec.users) + ")"
                 for rec in trace.records])
    for i, u in enumerate(scenario.users):
        rows.append([f"scheduling {u.name}"] +
                    [format_sched(rec.users[i]) for rec in trace.records])
    loss_cells = []
    for rec in trace.records:
        parts = []
        for i, ur in enumerate(rec.users):
            for name, x in ur.dropped.items():
                parts.append(f"{name}({x}) {scenario.users[i].name}")
        loss_cells.append("; ".join(parts) if parts else "-")
    rows.append(["packet loss"] + loss_cells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([""] + [f"slot {k + 1}" for k in range(n_slots)])
        for row in rows:
            w.writerow(row)
    return path
