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
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import compress, product
from numbers import Integral
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from wvsched.baselines import (
    drift_response,
    lyapunov_action,
    myopic_static_shares,
    scale_rows_up_to_budget,
    scale_up_to_budget,
    uniform_price_solve,
)
from wvsched.learning import EXPLORE_TAU, DuPdsLearner, PdsLearner
from wvsched.mdp import (
    ChannelView,
    UserMdp,
    checked_price,
    joint_view,
    own_view,
)
from wvsched.model import (
    ModelError,
    ScenarioConfig,
    ScheduleAction,
    UserConfig,
    UserState,
    bandwidth_usage,
    check_buffer,
    check_buffer_rows,
    payoff,
    slot_payoff,
)
# perfbench's tracer patches the slot engine's traffic step under this name
from wvsched.model import advance_traffic  # noqa: F401
from wvsched.pricing import (
    MAX_SLOTS,
    CoordinationReport,
    JointChannel,
    PricedAgent,
    PriceTable,
    SlotSystem,
    replay,
    run_coordination,
    scale_rows_to_budget,
    scale_to_budget,
    slot_count,
    slot_key,
    walk,
)
from wvsched.scheduling import (
    SIMPLE_SCHEDULERS,
    PriceResponse,
    TableShare,
    build_du_tables,
    decomposed_response,
    decomposed_schedule,
    fill,
    fill_rows,
    packet_capacities,
    priced_problem,
)


def build_views(scenario: ScenarioConfig) -> list[ChannelView]:
    """One channel view per user of the scenario's joint channel, per its
    price view."""
    view = joint_view if scenario.price_view == "full" else own_view
    return [view(scenario.joint, i) for i in range(len(scenario.users))]


# ---------------------------------------------------------------------------
# User-side agents
# ---------------------------------------------------------------------------

def refuse_floor(user: UserConfig, rule: str) -> None:
    """`ModelError` naming `user` if it has a quality floor, which `rule`
    cannot honour."""
    if user.min_quality > 0:
        raise ModelError(f"user {user.name}: quality floors need the full solver, "
                         f"{rule} does not support them")


class DecomposedAgent(PricedAgent):
    """Priced per-DU tables plus the per-DU decomposed scheduler.

    A refresh solves one `DuTables` for the whole template and builds no
    per-DU object, unless its `TableShare` (one per `make_agents` call)
    holds a solve of the same priced problem over all of the agent's kinds,
    which it then reuses or gathers; `solves` counts the inductions its
    refreshes ran. `act` is `decomposed_schedule` at the agent's own price,
    the tables' solved price, so it is a lookup of their best sends
    (`DuTables.solved_sends`); `table_sends` gathers the same entries for
    many rows at once. Other prices (`act_at` elsewhere, `price_response`)
    are evaluated by `decomposed_response`.
    """

    def __init__(self, user: UserConfig, view: ChannelView, discount: float,
                 share: TableShare | None = None):
        refuse_floor(user, "the decomposed scheduler")
        super().__init__(user, view, discount)
        self.tables = None
        self.share = TableShare() if share is None else share

    def refresh(self, price_vec: np.ndarray) -> None:
        price = np.array(price_vec, dtype=float)
        if self.tables is not None and price.tolist() == self.tables.price:
            return
        problem = priced_problem(self.template.window, self.view, self.discount, price)
        tables = self.share.lookup(problem, self.template, self.view, self.discount, price)
        if tables is None:
            tables = self.share.keep(problem, build_du_tables(self.template, self.view,
                                                              self.discount, price))
            self.solves += 1
        self.tables = tables
        self.price_vec = price

    def table_sends(self, context, buffers: np.ndarray, views: np.ndarray) -> np.ndarray:
        """`act` at every row: slot i of row k sends best_send[age, row +
        buffers[k, i], views[k]] at its `GopTemplate.du_slot_rows` pair, one
        gather for all rows. A row outside the context's caps raises
        `ModelError`."""
        check_buffer_rows(context, buffers)
        ages, rows = np.array(self.template.du_slot_rows[context.phase],
                              dtype=np.intp).reshape(-1, 2).T
        return self.tables.best_send[ages, rows + buffers, views[:, None]]

    def act_at(self, context, buffer, view_state: int, lam: float) -> ScheduleAction:
        return decomposed_schedule(context, buffer, view_state, lam,
                                   self.tables, self.discount)

    def price_response(self, context, buffer, view_state: int):
        return decomposed_response(context, buffer, view_state, self.tables, self.discount)


class FullMdpAgent(PricedAgent):
    """Exact tabular policy over the user's full (context, buffer, channel) space."""

    def __init__(self, user: UserConfig, view: ChannelView, bits_per_packet: float,
                 discount: float):
        super().__init__(user, view, discount)
        self.mdp = UserMdp(user.template, view, user.beta, user.min_quality,
                           bits_per_packet, discount)
        self.table = None
        self.steps = 0                   # the solves' improvement steps in total

    def refresh(self, price_vec: np.ndarray) -> None:
        if self.table is not None and np.array_equal(price_vec, self.price_vec):
            return
        price = np.array(price_vec, dtype=float)
        self.table = self.mdp.solve(price, tol=1e-7, init=self.table)
        self.price_vec = price
        self.solves += 1
        self.steps += self.table.steps

    def act(self, context, buffer, view_state: int) -> ScheduleAction:
        return self.table.action_of(context.phase, buffer, view_state)

    def table_sends(self, context, buffers: np.ndarray, views: np.ndarray) -> np.ndarray:
        """The policy's rows of the action table, gathered: `act` at every
        row. A row outside the context's caps raises `ModelError`."""
        check_buffer_rows(context, buffers)
        lay = self.mdp.layout
        t = lay.base[context.phase] + buffers @ np.array(lay.strides[context.phase],
                                                         dtype=np.int64)
        return self.mdp.ta_sends[self.table.policy[t, views], :len(context)]

    def usage_by_view(self, bits_per_packet: float, rng: np.random.Generator,
                      slots: int) -> np.ndarray:
        """Exact, from the policy's stationary law; draws nothing."""
        return self.mdp.expected_usage_by_view(self.table)


class PdsDecomposedAgent(PricedAgent):
    """Learned per-DU continuations; explores while learning, exact when frozen."""

    def __init__(self, user: UserConfig, view: ChannelView, discount: float,
                 rng: np.random.Generator):
        refuse_floor(user, "the per-DU learning rule")
        super().__init__(user, view, discount)
        self.rng = rng
        self.learners = {du.du_id: DuPdsLearner(du.distortion_impact,
                                                user.template.window, discount)
                         for du in user.template.dus}
        self.slots_seen = 0
        self.frozen = False

    def refresh(self, price_vec: np.ndarray) -> None:
        self.price_vec = checked_price(self.view, price_vec)

    def epsilon(self) -> float:
        return 1.0 / (1.0 + self.slots_seen / EXPLORE_TAU)

    def act(self, context, buffer, view_state: int) -> ScheduleAction:
        check_buffer(context, buffer)
        if not self.frozen and self.rng.random() < self.epsilon():
            sends = tuple(int(self.rng.integers(x + 1)) for x in buffer)
            return ScheduleAction(sends)
        return decomposed_schedule(context, buffer, view_state,
                                   float(self.price_vec[view_state]),
                                   self.learners, self.discount)

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

    def freeze(self) -> None:
        self.frozen = True


class DriftAgent(PricedAgent):
    """Queue-drift demand: price-responsive, blind to impacts and deadlines."""

    def __init__(self, user: UserConfig, view: ChannelView, discount: float):
        refuse_floor(user, "the drift scheduler")
        super().__init__(user, view, discount)
        t = user.template
        # mean packets entering the context at the next slot, per phase
        self.arrivals = [float(sum(t.context(p + 1).slots[j].du.mean_size
                                   for j in t.step(p).entering)) for p in range(t.period)]

    def refresh(self, price_vec: np.ndarray) -> None:
        self.price_vec = checked_price(self.view, price_vec)

    def act_at(self, context, buffer, view_state: int, lam: float) -> ScheduleAction:
        return lyapunov_action(
            context, buffer, price=lam, beta=self.user.beta,
            gain_to_noise=float(self.view.gain[view_state]),
            delta=self.discount,
            expected_arrivals=self.arrivals[context.phase])

    def price_response(self, context, buffer, view_state: int):
        check_buffer(context, buffer)
        return drift_response(buffer, self.user.beta, float(self.view.gain[view_state]),
                              self.discount, self.arrivals[context.phase])

    def fill_order(self, context) -> Sequence[int]:
        """Drains by position."""
        return range(len(context))

    def bid(self, context, j: int, backlog: int) -> float:
        """The drift marginal 2·backlog + 1, blind to impacts."""
        return float(2 * backlog + 1)


def make_agents(scenario: ScenarioConfig, kind: str,
                rng: np.random.Generator | None = None) -> list:
    """One agent of `kind` per user; decomposed agents share one `TableShare`."""
    views = build_views(scenario)
    if kind == "decomposed":
        share = TableShare()
        return [DecomposedAgent(u, v, scenario.discount, share)
                for u, v in zip(scenario.users, views)]
    if kind == "drift":
        return [DriftAgent(u, v, scenario.discount) for u, v in zip(scenario.users, views)]
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

@dataclass(slots=True)
class SlotDecision:
    raw: list[ScheduleAction]
    sent: list[ScheduleAction]
    lam0: float
    shares: list[float]


class Solution:
    """Base: offline prepare() then a deterministic per-slot transmission rule."""

    name = "abstract"
    # `run_episode`'s walk memo: (the objects it was built under, the memo,
    # its interned record parts); see `episode_memo`
    _walks: tuple | None = None

    def prepare(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def sent_actions(self, s0, contexts, buffers) -> SlotDecision:
        raise NotImplementedError

    def _rule_state(self) -> tuple:
        """The objects this solution's decisions derive from. Whatever
        changes the rule replaces one of them, as re-pricing replaces the
        decision cache."""
        return ()

    def episode_memo(self, scenario: ScenarioConfig) -> tuple[dict, dict]:
        """`run_episode`'s `pricing.walk` memo for episodes on `scenario` and
        its table of interned record parts. Both are kept across episodes
        while the frozen rule stands: while `scenario` and every object of
        `_rule_state` are the ones they were built under. Any other call
        drops them, and the successors the memo's entries keep, for new,
        empty ones."""
        owners = (scenario, *self._rule_state())
        walks = self._walks
        if walks is None or any(a is not b for a, b in zip(walks[0], owners, strict=True)):
            walks = self._walks = (owners, {}, {})
        return walks[1:]

    def sent_arrays(self, states, c0, contexts, buffers) -> list[np.ndarray] | None:
        """The sends of `sent_actions` at many slot states at once: row k of
        buffers[u] (rows, slots) is user u's buffer at `contexts` in joint
        channel state states[c0[k]]; returns each user's sends, shaped as
        its buffers. None (this default) for a rule with no array form, which
        is then asked state by state. The decision cache is not touched."""
        return None

    def _shares(self, scenario, s0, sent) -> list[float]:
        """Each user's band share; every new decision passes here, so sends
        that overrun the band beyond float slack raise."""
        shares = [a.total * scenario.bits_per_packet / u.channel.rate[h] / scenario.bandwidth
                  for a, h, u in zip(sent, s0, scenario.users)]
        if sum(shares) > 1 + 1e-9:
            raise self._overrun(sum(shares), s0)
        return shares

    def _overrun(self, share: float, s0) -> ModelError:
        return ModelError(f"{self.name}: sends take {share:.6g} of the band "
                          f"in joint channel state {tuple(s0)}")

    def _row_rates(self, states, c0) -> list[np.ndarray]:
        """Each user's rate at every row of a `sent_arrays` call."""
        own = np.array(states).T[:, c0]
        return [u.channel.rate[h] for u, h in zip(self.scenario.users, own)]

    def _within_band(self, states, c0, sent, rates) -> list[np.ndarray]:
        """`sent`, after `_shares`' band check on every row, raised at the
        first row that overruns."""
        sc = self.scenario
        shares = sum(s.sum(axis=1) * sc.bits_per_packet / r / sc.bandwidth
                     for s, r in zip(sent, rates))
        over = np.flatnonzero(shares > 1 + 1e-9)
        if len(over):
            raise self._overrun(shares[over[0]], states[c0[over[0]]])
        return sent


def fits_band(usage, bandwidth: float):
    """Whether a band usage, or each of an array of them, fits `bandwidth`
    to within 1e-12: the one fit rule of the clearing search and of its
    prediction."""
    return usage <= bandwidth + 1e-12


def clearing_search(lam0: float, fits: Callable[[float], bool]) -> tuple[float, list[float]]:
    """The within-slot clearing search over `fits`, whether the requests fit
    the band at a band price: from max(lam0, 1e-3), up to 60 doublings
    until one fits, then 40 bisections of [lam0, that price]. Returns the
    smallest fitting price found (the last doubling if none fit) and every
    trial price in order."""
    trials: list[float] = []
    lo, hi = lam0, max(lam0, 1e-3)
    for _ in range(60):
        hi *= 2.0
        trials.append(hi)
        if fits(hi):
            break
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        trials.append(mid)
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi, trials


def predicted_clearing_price(responses: Sequence[PriceResponse], rates: Sequence[float],
                             bits_per_packet: float, bandwidth: float) -> float:
    """The band price at and above which the responses' marginal prices
    predict that the sends fit the band; -inf if they all fit.

    An agent at rate r pays a band price lam as the per-packet price
    lam * b / r, so its marginal price mu is the band price mu * r / b below
    which it sends that packet, of band share b / r. The prediction is the
    largest of those band prices at which the shares of the packets priced
    above and at it overrun the band.
    """
    b = bits_per_packet
    marginals = [r.marginals() for r in responses]
    prices = np.concatenate([mu * rate / b for mu, rate in zip(marginals, rates)])
    shares = np.repeat([b / rate for rate in rates], [len(mu) for mu in marginals])
    order = np.argsort(-prices, kind="stable")
    over = np.flatnonzero(~fits_band(np.cumsum(shares[order]), bandwidth))
    return float(prices[order[over[0]]]) if len(over) else -np.inf


class PricedRuntime(Solution):
    """Shared per-slot mechanics for price-mediated solutions.

    Each slot, every agent requests at its own prices and `_fit` fits the
    requests into the band. With clearing off, overcommitted slots are
    proportionally trimmed at the coordinator's converged price. With
    clearing on, a within-slot price search (`clearing_search`) shrinks
    requests until they fit the band, then leftover capacity is granted to
    the highest-marginal-value packets users still hold, so the band ends up
    fully utilized. The search asks each agent for its `price_response` once
    per slot. When every response is a `PriceResponse`, the search is first
    run against the price their marginal prices predict and the real fit at
    all of its trial prices is one `totals` call per agent (`_fits_at`);
    any other trial price is one `_acts_at`, as is the cleared price.
    `searches` counts the searches and `off_prediction` the trial prices
    evaluated one at a time; `prepare` resets both. A subclass may override
    `_fit` and its row form `_fit_rows` (`mu-mdp` does). Decisions are
    cached on `slot_key`; `_reprice` re-prices the agents after replacing
    `_cache`, which also drops `run_episode`'s walk memo.
    """

    def __init__(self, scenario: ScenarioConfig, clearing: bool = False):
        self.scenario = scenario
        self.clearing = clearing
        self.agents = None
        self.prices: PriceTable | None = None
        self._new_rule()

    def _new_rule(self) -> None:
        """Forget the decisions and the search counts of an earlier
        `prepare`."""
        self._cache: dict = {}
        self.searches = self.off_prediction = 0

    def sent_actions(self, s0, contexts, buffers) -> SlotDecision:
        sc = self.scenario
        key = slot_key(s0, contexts, buffers)
        if key in self._cache:
            return self._cache[key]
        raw = [a.act(ctx, buf, a.view.view_state(s0))
               for a, ctx, buf in zip(self.agents, contexts, buffers)]
        rates = [u.channel.rate[h] for u, h in zip(sc.users, s0)]
        sent, lam0 = self._fit(s0, contexts, buffers, raw, rates)
        decision = SlotDecision(raw, sent, lam0, self._shares(sc, s0, sent))
        self._cache[key] = decision
        return decision

    def _fit(self, s0, contexts, buffers, raw, rates) -> tuple[list[ScheduleAction], float]:
        """The requests `raw` fitted into the band, and the price they were
        decided at: cleared then topped up at the cleared price, or
        proportionally trimmed at the table's price."""
        if self.clearing:
            cleared, lam0 = self._clear(s0, contexts, buffers, raw)
            return self._top_up(s0, contexts, buffers, cleared, rates), lam0
        sc = self.scenario
        return (scale_to_budget(contexts, raw, rates, sc.bits_per_packet, sc.bandwidth),
                self.prices.get(tuple(s0)))

    def _fit_rows(self, contexts, buffers, raw, rates) -> list[np.ndarray]:
        """`_fit`'s sends at every row of a `sent_arrays` call, clearing off."""
        sc = self.scenario
        return scale_rows_to_budget(contexts, raw, rates, sc.bits_per_packet, sc.bandwidth)

    def _reprice(self, vectors) -> None:
        """Refresh each agent at its price vector, `vectors` in agent order,
        after replacing the decision cache (which also drops the episodes'
        walk memo), so no decision made at the old prices is served."""
        self._cache = {}
        for a, vec in zip(self.agents, vectors, strict=True):
            a.refresh(vec)

    def _rule_state(self) -> tuple:
        return (self._cache,)

    def sent_arrays(self, states, c0, contexts, buffers) -> list[np.ndarray] | None:
        """Every agent's `table_sends` (decomposed or full), then `_fit_rows`
        and the band check, raised at the first row that overruns. None in
        clearing mode, which has no array form, or if an agent has no table."""
        if self.clearing:
            return None
        raw = []
        for a, ctx, buf in zip(self.agents, contexts, buffers):
            views = np.array([a.view.view_state(s0) for s0 in states])
            sends = a.table_sends(ctx, buf, views[c0])
            if sends is None:
                return None
            raw.append(sends)
        rates = self._row_rates(states, c0)
        sent = self._fit_rows(contexts, buffers, raw, rates)
        return self._within_band(states, c0, sent, rates)

    def _acts_at(self, s0, responses, lam0: float) -> list[ScheduleAction]:
        """Every agent's action at the band price `lam0`, each at its own
        per-packet price; one trial price of the clearing search."""
        b = self.scenario.bits_per_packet
        return [respond(lam0 * b / a.channel.rate[h])
                for respond, a, h in zip(responses, self.agents, s0)]

    def _fits(self, totals, rates):
        """Whether the users' packet totals fit the band (`fits_band`); with
        an array of totals per user, whether they fit at each entry."""
        sc = self.scenario
        return fits_band(bandwidth_usage(totals, rates, sc.bits_per_packet), sc.bandwidth)

    def _fits_at(self, responses, rates, lams: np.ndarray) -> np.ndarray:
        """Whether the agents' sends fit the band at each band price of
        `lams`: one `totals` call per agent, at `_acts_at`'s per-packet
        prices, then `_fits`."""
        b = self.scenario.bits_per_packet
        return self._fits([r.totals(lams * b / rate) for r, rate in zip(responses, rates)],
                          rates)

    def _clear(self, s0, contexts, buffers, raw):
        """Smallest price >= the table's at which requests fit the band.

        `clearing_search` from the table's price, over the agents'
        `price_response`s, built once per search. Agents that all answer a
        `PriceResponse` first predict the search: it runs against
        `predicted_clearing_price`, and `_fits_at` checks the fit at all
        of its trial prices at once. The real search then runs on the
        outcomes checked: where they are the predicted ones it takes the
        same steps and evaluates nothing more, and each trial price off
        them is one `_acts_at`, as is every trial price of agents without
        that array form. Returns the actions at the
        clearing price and the price, those of a search of `_acts_at`
        alone in every case.
        """
        sc = self.scenario
        rates = [u.channel.rate[h] for u, h in zip(sc.users, s0)]

        def fits(acts) -> bool:
            return self._fits([a.total for a in acts], rates)

        lam0 = self.prices.get(tuple(s0))
        if fits(raw):
            return raw, lam0
        self.searches += 1
        responses = [a.price_response(ctx, buf, a.view.view_state(s0))
                     for a, ctx, buf in zip(self.agents, contexts, buffers)]
        known: dict[float, bool] = {}
        if all(isinstance(r, PriceResponse) for r in responses):
            guess = predicted_clearing_price(responses, rates, sc.bits_per_packet,
                                             sc.bandwidth)
            _, trials = clearing_search(lam0, lambda lam: lam >= guess)
            fit = self._fits_at(responses, rates, np.array(trials))
            known = dict(zip(trials, fit.tolist()))
        tried: dict[float, list[ScheduleAction]] = {}

        def fits_at(lam: float) -> bool:
            if lam in known:
                return known[lam]
            self.off_prediction += 1
            tried[lam] = self._acts_at(s0, responses, lam)
            return fits(tried[lam])

        hi, _ = clearing_search(lam0, fits_at)
        acts = tried.get(hi)
        return (self._acts_at(s0, responses, hi) if acts is None else acts), hi

    def _top_up(self, s0, contexts, buffers, acts, rates):
        """Fill leftover band with the highest-bid buffered packets; each
        user's bid ordering is its own scheduler's."""
        sc = self.scenario
        b = sc.bits_per_packet
        room = sc.bandwidth - bandwidth_usage([a.total for a in acts], rates, b)
        if room <= 1e-12:
            return list(acts)
        sends = [list(a.sends) for a in acts]
        candidates = []
        for i, agent in enumerate(self.agents):
            backlog = sum(buffers[i])
            for rank, j in enumerate(agent.fill_order(contexts[i])):
                if buffers[i][j] > sends[i][j]:
                    candidates.append((-agent.bid(contexts[i], j, backlog), rank, i, j))
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
    """Per-state prices from the coordination loop plus priced scheduling,
    with agents of one `make_agents` kind: "decomposed" (proposed), "full"
    (proposed-full) or "pds" (proposed-learning)."""

    name = "proposed"

    def __init__(self, scenario: ScenarioConfig, agent_kind: str = "decomposed",
                 max_slots: int = MAX_SLOTS, eval_slots: int = 20_000,
                 clearing: bool = False):
        no_act_at = {"pds": "the PDS learning agents of proposed-learning",
                     "full": "the full tabular agents of proposed-full"}
        if clearing and agent_kind in no_act_at:
            raise ModelError(
                f"clearing mode needs price-queryable agents; {no_act_at[agent_kind]} "
                "have no act_at and cannot be re-priced within a slot")
        super().__init__(scenario, clearing)
        self.agent_kind = agent_kind
        self.max_slots = max_slots
        self.eval_slots = eval_slots
        self.report: CoordinationReport | None = None

    def prepare(self, rng: np.random.Generator) -> None:
        """Coordinate prices (which leaves the agents frozen at them), then
        calibrate to the cleared prices in clearing mode."""
        sc = self.scenario
        self._new_rule()
        self.agents = make_agents(sc, self.agent_kind, rng)
        self.prices, self.report = run_coordination(
            sc, self.agents, max_slots=self.max_slots, eval_slots=self.eval_slots, rng=rng)
        if self.clearing:
            self._calibrate(rng)

    def _calibrate(self, rng: np.random.Generator) -> None:
        """Re-anchor the price table at observed within-slot clearing prices,
        in 2 rounds of 600 slots.

        The subgradient table undershoots when clearing does the real
        rationing; solving the users' tables against the average cleared
        price keeps their continuation values consistent with what the
        market actually charges. Prices are fixed within a round, so it is a
        `replay`; each round ends in a `_reprice`.
        """
        sc = self.scenario

        def cleared(system: SlotSystem) -> tuple[float, list[ScheduleAction]]:
            decision = self.sent_actions(system.s0, system.contexts, system.buffers)
            return decision.lam0, decision.sent

        for _round in range(2):
            mean_lam, _ = replay(SlotSystem(sc.templates, sc.joint, rng), cleared, 600)
            self.prices.lam.update(mean_lam)
            self._reprice(a.view.price_vector(self.prices.lam, sc.bits_per_packet)
                          for a in self.agents)


class PairedSolution(Solution):
    """A resource allocator paired with a simple within-capacity scheduler:
    each user `fill`s its capacity in the scheduler's per-context `rank`.

    Capacities come from `proposed`'s sends on the current states, or, when
    there is none, from the myopic impact-proportional static shares. The
    myopic baseline is static shares with EDF filling. Static shares ignore
    quality floors, so without `proposed` a user with one raises
    `ModelError`.
    """

    def __init__(self, scenario: ScenarioConfig, scheduler: str,
                 proposed: ProposedSolution | None = None):
        if proposed is None:
            for u in scenario.users:
                refuse_floor(u, "a static-share allocation")
        self.scenario = scenario
        self.rank = SIMPLE_SCHEDULERS[scheduler]
        self.proposed = proposed
        self.shares = None

    def prepare(self, rng: np.random.Generator) -> None:
        self._walks = None
        if self.proposed is None:
            self.shares = myopic_static_shares(self.scenario.templates)
        elif self.proposed.prices is None:
            self.proposed.prepare(rng)

    def _rule_state(self) -> tuple:
        """The rank and, with `proposed`, its decision cache: the
        capacities come from its decisions."""
        return (self.rank, None if self.proposed is None else self.proposed._cache)

    def capacities(self, s0, contexts, buffers) -> list[int]:
        sc = self.scenario
        if self.proposed is None:
            return [int(packet_capacities(self.shares[i], sc.bandwidth,
                                          u.channel.rate[s0[i]], sc.bits_per_packet))
                    for i, u in enumerate(sc.users)]
        decision = self.proposed.sent_actions(s0, contexts, buffers)
        return [a.total for a in decision.sent]

    def sent_arrays(self, states, c0, contexts, buffers) -> list[np.ndarray] | None:
        """`capacities` then the ranked fill, at every row: each row's
        `packet_capacities` at its user's rate, or the row totals of
        `proposed`'s own `sent_arrays`; then `fill_rows` in `rank` and the
        band check. None when `proposed` has no array form."""
        sc = self.scenario
        rates = self._row_rates(states, c0)
        if self.proposed is None:
            caps = [packet_capacities(share, sc.bandwidth, r, sc.bits_per_packet)
                    for share, r in zip(self.shares, rates)]
        else:
            sent = self.proposed.sent_arrays(states, c0, contexts, buffers)
            if sent is None:
                return None
            caps = [s.sum(axis=1) for s in sent]
        sent = [fill_rows(buf, cap, self.rank(ctx))
                for cap, ctx, buf in zip(caps, contexts, buffers)]
        return self._within_band(states, c0, sent, rates)

    def sent_actions(self, s0, contexts, buffers) -> SlotDecision:
        """`fill` in `rank` up to `capacities`; a buffer outside its
        context's `sizes` raises `ModelError`."""
        sc = self.scenario
        for ctx, buf in zip(contexts, buffers):
            check_buffer(ctx, buf)
        caps = self.capacities(s0, contexts, buffers)
        acts = [fill(buf, cap, self.rank(ctx))
                for ctx, buf, cap in zip(contexts, buffers, caps)]
        lam0 = self.proposed.prices.get(tuple(s0)) if self.proposed else 0.0
        return SlotDecision(acts, acts, lam0, self._shares(sc, s0, acts))


class LyapunovSolution(PricedRuntime):
    """Drift-based demands run through the proposed allocation mechanism;
    the drift scheduler ignores quality floors, so a user with one raises
    `ModelError`."""

    name = "lyapunov"

    def __init__(self, scenario: ScenarioConfig, proposed: ProposedSolution):
        for u in scenario.users:
            refuse_floor(u, "the drift scheduler")
        super().__init__(scenario, clearing=proposed.clearing)
        self.proposed = proposed

    def prepare(self, rng: np.random.Generator) -> None:
        self._new_rule()
        if self.proposed.prices is None:
            self.proposed.prepare(rng)
        self.prices = self.proposed.prices
        self.agents = make_agents(self.scenario, "drift")
        self._reprice(a.view.price_vector(self.prices.lam, self.scenario.bits_per_packet)
                      for a in self.agents)


class UniformPriceSolution(PricedRuntime):
    """One price for every joint channel state, chosen by feasibility bisection;
    conservative requests are inflated to full utilization at run time."""

    name = "mu-mdp"

    def __init__(self, scenario: ScenarioConfig, agent_kind: str = "decomposed",
                 usage_slots: int = 2000):
        super().__init__(scenario)
        self.agent_kind = agent_kind
        self.usage_slots = usage_slots
        self.price = None
        self.result = None

    def _usage_estimator(self, rng: np.random.Generator,
                         s0_states: Sequence[tuple[int, ...]]) -> Callable:
        sc = self.scenario

        def estimate(lam: float) -> dict:
            self._reprice(lam * sc.bits_per_packet / np.asarray(a.view.rate)
                          for a in self.agents)
            per_user = [a.usage_by_view(sc.bits_per_packet, rng, self.usage_slots)
                        for a in self.agents]
            return {s0: float(sum(us[agent.view.view_state(s0)]
                                  for us, agent in zip(per_user, self.agents)))
                    for s0 in s0_states}

        return estimate

    def prepare(self, rng: np.random.Generator) -> None:
        sc = self.scenario
        self._new_rule()
        # uniform price only needs the user's own channel to index its tables
        self.agents = make_agents(replace(sc, price_view="expected"), self.agent_kind)
        states = sc.joint.all_states()
        self.result = uniform_price_solve(self._usage_estimator(rng, states), states,
                                          sc.bandwidth)
        self.price = self.result.price
        self._reprice(self.price * sc.bits_per_packet / np.asarray(a.view.rate)
                      for a in self.agents)

    # perfbench's tracer times this class's slot rule under its own name
    sent_actions = PricedRuntime.sent_actions

    def _fit(self, s0, contexts, buffers, raw, rates) -> tuple[list[ScheduleAction], float]:
        """Requests inflated to full utilization, then trimmed, at the one price."""
        sc = self.scenario
        up = scale_up_to_budget(contexts, raw, buffers, rates, sc.bits_per_packet, sc.bandwidth)
        return scale_to_budget(contexts, up, rates, sc.bits_per_packet, sc.bandwidth), self.price

    def _fit_rows(self, contexts, buffers, raw, rates) -> list[np.ndarray]:
        sc = self.scenario
        up = scale_rows_up_to_budget(contexts, raw, buffers, rates,
                                     sc.bits_per_packet, sc.bandwidth)
        return scale_rows_to_budget(contexts, up, rates, sc.bits_per_packet, sc.bandwidth)


def build_solution(scenario: ScenarioConfig, name: str,
                   proposed: ProposedSolution | None = None, **kwargs) -> Solution:
    """Solution factory; the solution carries `name`. `kwargs` configure the
    solution's own allocator: the ProposedSolution of proposed*, lyapunov
    and proposed+<sched>, or the UniformPriceSolution of mu-mdp*. lyapunov
    and proposed+<sched> run on `proposed` if given (and "proposed" returns
    it), else on a new one."""
    kinds = {"proposed": "decomposed", "proposed-full": "full", "proposed-learning": "pds"}
    alloc, _, sched = name.partition("+")
    if name == "proposed" and proposed is not None:
        return proposed
    if name in kinds:
        solution = ProposedSolution(scenario, agent_kind=kinds[name], **kwargs)
    elif name in ("mu-mdp", "mu-mdp-full"):
        kind = "full" if name == "mu-mdp-full" else "decomposed"
        solution = UniformPriceSolution(scenario, agent_kind=kind, **kwargs)
    elif name == "myopic" or (alloc in ("static", "myopic") and sched in SIMPLE_SCHEDULERS):
        solution = PairedSolution(scenario, sched or "edf")
    elif name == "lyapunov" or (alloc == "proposed" and sched in SIMPLE_SCHEDULERS):
        if proposed is None:
            proposed = ProposedSolution(scenario, **kwargs)
        solution = LyapunovSolution(scenario, proposed) if name == "lyapunov" \
            else PairedSolution(scenario, sched, proposed)
    else:
        raise ModelError(f"unknown solution {name!r}")
    solution.name = name
    return solution


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class UserSlotRecord:
    traffic: list[tuple[str, int]]
    requested: tuple[int, ...]
    sent: tuple[int, ...]
    dropped: dict[str, int]
    payoff: float
    distortion: float
    energy: float
    share: float


@dataclass(slots=True)
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
    decisions: int = 0          # distinct slot states the episode visited


def run_episode(scenario: ScenarioConfig, solution: Solution, slots: int,
                rng: np.random.Generator,
                pinned_channels: Sequence[int] | None = None) -> EpisodeTrace:
    """Simulate `slots` slots; channels may be pinned (common correlation only).

    A prepared solution's rule is frozen (see `PricedAgent.act`), so the
    episode is a fold over `pricing.walk`: each distinct `slot_key` is
    decided once, into a memo entry holding every record part the key
    fixes (`_decided_slot`). The memo lives with the solution
    (`Solution.episode_memo`), so a slot state is decided once per frozen
    rule, not once per episode; it is dropped when the solution is prepared
    again, when its decision cache is replaced (re-pricing) and when it runs
    on another scenario object. A bad `slots` (see `pricing.slot_count`)
    or `pinned_channels` raises `ModelError` before any draw. Each slot's
    record is built from its entry
    alone, with its own `traffic` list and `dropped` dict; arrivals are
    added only where DUs enter. The sent and dropped totals are folded after
    the walk, each entry's contribution times its visits, entries in
    first-visit order, so every name lands where slot-by-slot sums put it.
    """
    sc = scenario
    n_users = len(sc.users)
    slots = slot_count(slots)
    pins = None
    if pinned_channels is not None:
        if sc.channel_correlation != "common":
            raise ModelError("pinned channel replay requires common correlation")
        n_states = len(sc.channels[0])
        bad = [h for h in pinned_channels if isinstance(h, bool)
               or not isinstance(h, Integral) or not 0 <= h < n_states]
        if len(pinned_channels) == 0 or bad:
            raise ModelError(f"pinned channels must be a nonempty sequence of integer "
                             f"channel states in [0, {n_states}); got {list(pinned_channels)}")
        pins = [(int(h),) * n_users for h in pinned_channels]
    memo, interned = solution.episode_memo(sc)
    system = SlotSystem(sc.templates, sc.joint, rng, None if pins is None else pins[0])
    steps = walk(system, partial(_decided_slot, sc, solution, interned), slots, memo, pins)

    trace = EpisodeTrace(sc.name, solution.name)
    trace.arrived = [dict() for _ in range(n_users)]
    trace.sent_totals = [dict() for _ in range(n_users)]
    trace.dropped_totals = [dict() for _ in range(n_users)]
    for arrived, ctx, buf in zip(trace.arrived, system.contexts, system.buffers):
        for name, x in zip(ctx.names, buf):
            arrived[name] = arrived.get(name, 0) + x

    records, arrived, messages = trace.records, trace.arrived, 2 * n_users
    visits = {}                 # id of each memo entry visited: [its value, visits]
    for t, (s0, entry, _moves, nxt) in enumerate(steps, 1):
        visits.setdefault(id(entry), [entry, 0])[1] += 1
        lam0, names, parts, entering, _, _ = entry
        records.append(SlotRecord(t, s0, names, lam0, [
            UserSlotRecord(list(traffic), requested, sent, dropped.copy(), pay, dist, en, share)
            for traffic, requested, sent, dropped, pay, dist, en, share in parts], messages))
        for u, j, name in entering:
            arrived[u][name] = arrived[u].get(name, 0) + nxt[u][j]

    for (*_, sent, dropped), n in visits.values():
        for totals, pairs in ((trace.sent_totals, sent), (trace.dropped_totals, dropped)):
            for u, name, x in pairs:
                totals[u][name] = totals[u].get(name, 0) + n * x
    for ctx, buf in zip(system.contexts, system.buffers):
        rem = {}
        for name, x in zip(ctx.names, buf):
            rem[name] = rem.get(name, 0) + x
        trace.remaining.append(rem)
    trace.decisions = len(visits)
    return trace


def _decided_slot(sc: ScenarioConfig, solution: Solution, interned: dict,
                  system: SlotSystem) -> tuple:
    """All that the system's current slot state fixes of its records and
    totals, and every user's transition. The parts are the price, the
    channel names, each user's record part in `UserSlotRecord` field order
    (its (DU name, packets) traffic, requested and sent sends, (DU name,
    packets) drops, payoff, distortion, energy and band share), the
    (user, index, DU name) of each DU entering next, and the (user, DU
    name, packets) sends and drops a visit adds to the totals, each summed
    per name. Equal parts are stored once, in `interned`, as the memo that
    keeps them lives across episodes."""
    s0, contexts, buffers = system.s0, system.contexts, system.buffers
    decision = solution.sent_actions(s0, contexts, buffers)
    parts, moves, entering, sent_totals, dropped_totals = [], [], [], [], []
    for i, (u, h, ctx, buf, raw, act, share) in enumerate(zip(
            sc.users, s0, contexts, buffers, decision.raw, decision.sent, decision.shares,
            strict=True)):
        move = u.template.transition(ctx, buf, act.sends)
        pay, dist, en = slot_payoff(ctx.impacts, act.sends, u.beta, float(u.channel.gain[h]))
        dropped, sent = {}, {}
        for key, n in move.dropped:
            name = u.template.du(key[1]).name
            dropped[name] = dropped.get(name, 0) + n
        for name, y in compress(zip(ctx.names, act.sends), act.sends):
            sent[name] = sent.get(name, 0) + y
        traffic = tuple(zip(ctx.names, buf))
        part = (interned.setdefault(traffic, traffic), raw.sends, act.sends,
                tuple(dropped.items()), pay, dist, en, share)
        # kept with its drops as a dict, which each record copies
        parts.append(interned.setdefault(part, (*part[:3], dropped, *part[4:])))
        moves.append(move)
        entering += [(i, j, du.name) for j, du, _key in move.entering]
        sent_totals += [(i, name, y) for name, y in sent.items()]
        dropped_totals += [(i, name, n) for name, n in dropped.items()]
    names = tuple(u.channel.names[h] for u, h in zip(sc.users, s0))
    names, entering, sent_totals, dropped_totals = [
        interned.setdefault(x, x) for x in (names, tuple(entering), tuple(sent_totals),
                                            tuple(dropped_totals))]
    return (decision.lam0, names, tuple(parts), entering, sent_totals, dropped_totals), \
        tuple(moves)


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
    episodes: int = 1           # episodes averaged (see mean_metrics)


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
    pay = [(1.0 - delta) * p for p in pay]
    dist = [(1.0 - delta) * d for d in dist]
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


def mean_metrics(reports: Sequence[MetricsReport]) -> MetricsReport:
    """One solution's episode reports averaged field by field, each a sum in
    episode order over N, with `episodes` = N."""
    if not reports:
        raise ModelError("mean_metrics needs at least one episode")
    n = len(reports)

    def mean(field_of) -> float:
        return sum(field_of(r) for r in reports) / n

    users = range(len(reports[0].per_user_payoff))
    losses = []
    for i in users:
        names = dict.fromkeys(name for r in reports for name in r.loss_by_frame[i])
        losses.append({name: mean(lambda r: r.loss_by_frame[i].get(name, 0))
                       for name in names})
    return MetricsReport(
        solution=reports[0].solution,
        per_user_payoff=[mean(lambda r: r.per_user_payoff[i]) for i in users],
        per_user_distortion=[mean(lambda r: r.per_user_distortion[i]) for i in users],
        network_payoff=mean(lambda r: r.network_payoff),
        network_distortion=mean(lambda r: r.network_distortion),
        total_distortion=mean(lambda r: r.total_distortion),
        total_energy=mean(lambda r: r.total_energy),
        loss_by_frame=losses,
        i_loss_after_first_slot=mean(lambda r: r.i_loss_after_first_slot),
        slots=mean(lambda r: r.slots),
        episodes=n,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _cell(x):
    """A count as it is, a mean to 6 significant digits."""
    return x if isinstance(x, int) else f"{x:.6g}"


def _write_csv(path: Path, header: list, rows) -> Path:
    """`header` then `rows` as a CSV file at `path`, its folder made if missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def emit_report(traces: Sequence[EpisodeTrace], scenario: ScenarioConfig,
                out_dir: str | Path,
                metrics: Sequence[MetricsReport] | None = None) -> list[Path]:
    """Comparison metrics CSV plus one full trace CSV per solution.

    `metrics` holds one report per trace for the metrics rows, such as a
    `mean_metrics` over several episodes of which the trace is one; by
    default each row is its own trace's `compute_metrics`.
    """
    if not traces:
        raise ModelError("emit_report needs at least one trace")
    if metrics is None:
        metrics = [compute_metrics(trace, scenario) for trace in traces]
    out = Path(out_dir)
    header = ["solution", "episodes", "network_payoff", "network_distortion",
              "total_distortion", "total_energy", "i_loss_after_slot1"]
    for u in scenario.users:
        header += [f"payoff_{u.name}", f"distortion_{u.name}", f"loss_{u.name}"]
    rows = []
    for m in metrics:
        row = [m.solution, m.episodes, f"{m.network_payoff:.6g}",
               f"{m.network_distortion:.6g}", f"{m.total_distortion:.6g}",
               f"{m.total_energy:.6g}", _cell(m.i_loss_after_first_slot)]
        for i in range(len(scenario.users)):
            loss = sum(m.loss_by_frame[i].values())
            row += [f"{m.per_user_payoff[i]:.6g}",
                    f"{m.per_user_distortion[i]:.6g}", _cell(loss)]
        rows.append(row)
    written = [_write_csv(out / "metrics.csv", header, rows)]

    for trace in traces:
        rows = ([rec.slot, rec.channel_names[i], f"{rec.lam0:.6g}", scenario.users[i].name,
                 " ".join(f"{n}({x})" for n, x in ur.traffic),
                 " ".join(map(str, ur.requested)),
                 " ".join(map(str, ur.sent)),
                 " ".join(f"{n}({x})" for n, x in ur.dropped.items()) or "-",
                 f"{ur.payoff:.6g}", f"{ur.share:.4f}"]
                for rec in trace.records for i, ur in enumerate(rec.users))
        written.append(_write_csv(out / f"trace_{trace.solution.replace('+', '_')}.csv",
                                  ["slot", "channel", "lambda0", "user", "traffic",
                                   "requested", "sent", "dropped", "payoff", "share"], rows))
    return written


def pds_learning_curve(scenario: ScenarioConfig, price: np.ndarray, slots: int,
                       rng: np.random.Generator, every: int = 500):
    """Train a full-state PDS learner on the first user at fixed prices.

    Returns (rows, learner): rows carry (slot, user, windowed payoff, sup-norm
    gap to the planning post-decision values). A bad `slots` or `every` (a
    `pricing.slot_count`, `every` >= 1) raises `ModelError` before any draw.
    """
    slots, every = slot_count(slots), slot_count(every, "every", 1)
    u = scenario.users[0]
    joint = JointChannel([u.channel])
    view = own_view(joint, 0)
    mdp = UserMdp(u.template, view, u.beta, u.min_quality,
                  scenario.bits_per_packet, scenario.discount)
    plan_u = mdp.pds_planning_values(mdp.solve(np.asarray(price)))
    lay = mdp.layout
    learner = PdsLearner(lay, view.gain, u.beta, scenario.discount,
                         min_quality=u.min_quality)
    system = SlotSystem([u.template], joint, rng)
    rows = []
    window_pay = 0.0
    for t in range(slots):
        (h,), (buf,), (ctx,) = system.s0, system.buffers, system.contexts
        act = learner.act(ctx.phase, buf, h, float(price[h]), rng)
        window_pay += payoff(UserState(ctx, buf, h), act, u.beta, u.channel)
        (move,) = system.advance([act])
        (nxt,) = system.buffers
        arrivals = {key: nxt[j] for j, _, key in move.entering}
        learner.observe((ctx.phase, buf, h, act, arrivals, nxt, system.s0[0]),
                        np.asarray(price))
        if (t + 1) % every == 0:
            gap = max(abs(learner.table.value((p, s, v)) - plan_u[lay.pds_index(p, s), v])
                      for p in range(lay.period)
                      for s in product(*(range(c + 1) for c in lay.pds_caps[p]))
                      for v in range(len(view)))
            rows.append((t + 1, u.name, window_pay / every, gap))
            window_pay = 0.0
    return rows, learner


def write_learning_curve(rows, path: str | Path) -> Path:
    """slot, user, windowed payoff, sup-norm gap to planning values."""
    return _write_csv(Path(path), ["slot", "user", "windowed_payoff", "gap_to_planning"],
                      ([slot, user, f"{pay:.6g}", f"{gap:.6g}"]
                       for slot, user, pay, gap in rows))


def write_price_trace(report: CoordinationReport, path: str | Path) -> Path:
    """Iteration, state, usage, price, residual rows behind a convergence plot."""
    return _write_csv(Path(path), ["iteration", "s0", "usage", "lambda0", "residual"],
                      ([it, "/".join(map(str, s0)), f"{usage:.6g}", f"{lam:.6g}",
                        f"{report.residuals[s0]:.6g}" if s0 in report.residuals else ""]
                       for it, s0, usage, lam in report.price_trace))


def write_replay_table(trace: EpisodeTrace, scenario: ScenarioConfig,
                       path: str | Path) -> Path:
    """Slot-column table: traffic states, channel, allocation, scheduling, loss."""
    rows = []
    for i, u in enumerate(scenario.users):
        rows.append([f"traffic {u.name}"] +
                    [", ".join(f"{n}({x})" for n, x in rec.users[i].traffic)
                     for rec in trace.records])
    rows.append(["channel"] + [rec.channel_names[0] for rec in trace.records])
    rows.append(["allocation"] +
                ["(" + ", ".join(f"{ur.share:.2f}" for ur in rec.users) + ")"
                 for rec in trace.records])
    for i, u in enumerate(scenario.users):
        rows.append([f"scheduling {u.name}"] +
                    [", ".join(f"{n}({y})" for (n, _x), y in zip(rec.users[i].traffic,
                                                                 rec.users[i].sent))
                     for rec in trace.records])
    loss_cells = []
    for rec in trace.records:
        parts = []
        for i, ur in enumerate(rec.users):
            for name, x in ur.dropped.items():
                parts.append(f"{name}({x}) {scenario.users[i].name}")
        loss_cells.append("; ".join(parts) if parts else "-")
    rows.append(["packet loss"] + loss_cells)
    return _write_csv(Path(path), [""] + [f"slot {k + 1}" for k in range(len(trace.records))],
                      rows)
