"""Online learning of post-decision values, no transition statistics needed.

The post-decision state is the buffer after sends (restricted to DUs that
outlive the slot) together with the pre-transition channel state. Its value
U averages, over arrivals and the channel move, the greedy value of the next
pre-decision state; learning blends observed greedy values into U with a
1/k per-state stepsize. Update code is handed only realized samples and the
structural TrafficLayout: size distributions and channel matrices are out of
reach by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from wvsched.mdp import TrafficLayout
from wvsched.model import ScheduleAction, iter_actions, slot_payoff
# DuPdsLearner tables run under this scheduler; perfbench traces it under this name
from wvsched.scheduling import decomposed_schedule  # noqa: F401


PdsKey = tuple[int, tuple[int, ...], int]  # (phase, survivor buffer, view state)

# exploration decays as 1 / (1 + visits / EXPLORE_TAU)
EXPLORE_TAU = 100.0


@dataclass
class PdsValueTable:
    """Learned post-decision values with per-state visit counts."""

    u: dict[PdsKey, float] = field(default_factory=dict)
    visits: dict[PdsKey, int] = field(default_factory=dict)

    def value(self, key: PdsKey) -> float:
        return self.u.get(key, 0.0)

    def blend(self, key: PdsKey, sample: float) -> None:
        k = self.visits.get(key, 0) + 1
        self.visits[key] = k
        self.u[key] = (1.0 - 1.0 / k) * self.u.get(key, 0.0) + sample / k


def to_pds(buffer: Sequence[int], action: ScheduleAction,
           channel: int) -> tuple[tuple[int, ...], int]:
    """Post-decision state before arrivals: (buffer - sends, same channel)."""
    return tuple(x - y for x, y in zip(buffer, action.sends)), channel


def pds_key(layout: TrafficLayout, phase: int, buffer: Sequence[int],
            action: ScheduleAction, view_state: int) -> PdsKey:
    """Lookup key after the deterministic context shift: expiring DUs drop out."""
    post, _ = to_pds(buffer, action, view_state)
    survivors = tuple(post[i] for i, _ in layout.steps[phase].survivors)
    return (phase, survivors, view_state)


def raw_pds_key(layout: TrafficLayout, phase: int, buffer: Sequence[int],
                action: ScheduleAction, view_state: int) -> PdsKey:
    """Uncollapsed post-decision key (buffer minus sends over all slots)."""
    post, _ = to_pds(buffer, action, view_state)
    return (phase, post, view_state)


def _default_payoff(layout: TrafficLayout, phase: int, action: ScheduleAction,
                    gain_to_noise: float, beta: float) -> float:
    return slot_payoff(layout.contexts[phase].impacts, action.sends, beta, gain_to_noise)[0]


def pds_greedy_action(layout: TrafficLayout, phase: int, buffer: Sequence[int],
                      view_state: int, table, price: float,
                      beta: float, gain_to_noise: float, delta: float,
                      min_quality: float = 0.0,
                      payoff_fn: Callable | None = None,
                      key_fn: Callable = pds_key,
                      ) -> tuple[ScheduleAction, float]:
    """Argmax of (1-delta) [u - price*|a|] + delta * U(post-decision state).

    Ties go to the lexicographically largest send vector. Returns the action
    and its objective value. `payoff_fn(phase, action)` overrides the default
    distortion-minus-energy payoff; `key_fn` controls the post-decision key
    (default: survivor-collapsed).
    """
    best_act, best_val = None, -np.inf
    for act in iter_actions(layout.contexts[phase], buffer, min_quality):
        if payoff_fn is None:
            u = _default_payoff(layout, phase, act, gain_to_noise, beta)
        else:
            u = payoff_fn(phase, act)
        key = key_fn(layout, phase, buffer, act, view_state)
        val = (1.0 - delta) * (u - price * act.total) + delta * table.value(key)
        if val >= best_val:
            best_act, best_val = act, val
    return best_act, best_val


def pds_update(table: PdsValueTable, layout: TrafficLayout,
               transition: tuple, prices: Sequence[float], beta: float,
               gains: Sequence[float], delta: float, min_quality: float = 0.0,
               payoff_fn: Callable | None = None) -> PdsValueTable:
    """Blend the observed next-state greedy value into the visited PDS entry.

    `transition` is the realized sample
    (phase, buffer, view_state, action, arrivals, next_buffer, next_view);
    arrivals are carried for trace symmetry but the next buffer is what the
    update consumes. `prices` and `gains` are per-view-state vectors; the
    greedy value is taken at the next state's view.
    """
    phase, buffer, view_state, action, _arrivals, next_buffer, next_view = transition
    nxt_phase = (phase + 1) % layout.period
    _, v = pds_greedy_action(layout, nxt_phase, next_buffer, next_view, table,
                             float(prices[next_view]), beta,
                             float(gains[next_view]), delta, min_quality,
                             payoff_fn)
    table.blend(pds_key(layout, phase, buffer, action, view_state), v)
    return table


class PdsLearner:
    """Full-state PDS learner for one user with decaying epsilon-greedy.

    Exploration decays per visited pre-decision state, so thinly visited
    buffer levels keep being probed while busy ones settle onto the greedy.
    """

    def __init__(self, layout: TrafficLayout, gain: np.ndarray, beta: float,
                 delta: float, min_quality: float = 0.0):
        self.layout = layout
        self.gain = np.asarray(gain, dtype=float)   # per view state
        self.beta = beta
        self.delta = delta
        self.min_quality = min_quality
        self.table = PdsValueTable()
        self.state_visits: dict = {}

    def epsilon(self, state_key) -> float:
        return 1.0 / (1.0 + self.state_visits.get(state_key, 0) / EXPLORE_TAU)

    def act(self, phase: int, buffer: Sequence[int], view_state: int,
            price: float, rng: np.random.Generator) -> ScheduleAction:
        key = (phase, tuple(buffer), view_state)
        self.state_visits[key] = self.state_visits.get(key, 0) + 1
        if rng.random() < self.epsilon(key):
            acts = list(iter_actions(self.layout.contexts[phase], buffer,
                                     self.min_quality))
            return acts[int(rng.integers(len(acts)))]
        act, _ = pds_greedy_action(self.layout, phase, buffer, view_state,
                                   self.table, price, self.beta,
                                   float(self.gain[view_state]), self.delta,
                                   self.min_quality)
        return act

    def observe(self, transition: tuple, prices: Sequence[float]) -> None:
        pds_update(self.table, self.layout, transition, prices, self.beta,
                   self.gain, self.delta, self.min_quality)


# ---------------------------------------------------------------------------
# Per-DU learned continuation tables (decomposed scheduling while learning)
# ---------------------------------------------------------------------------

class DuPdsLearner(PdsValueTable):
    """Learned continuation for one DU type over its window lifetime.

    Keys are (age, remaining packets after sending, view state); values
    approximate the expected onward value of the instance, terminal zero at
    expiry, blended by the table's 1/k running mean. `decomposed_schedule`
    asks each DU's learner for `best`, the smallest exact maximiser, the tie
    rule of the planned tables.
    """

    def __init__(self, impact: float, window: int, delta: float):
        super().__init__()
        self.impact = float(impact)
        self.window = int(window)
        self.delta = delta

    def continuation(self, age: int, x_after: int, view_state: int) -> float:
        if age >= self.window - 1:
            return 0.0
        return self.u.get((age, x_after, view_state), 0.0)

    def best(self, age: int, x: int, view_state: int, margin: float,
             discount: float) -> tuple[float, int]:
        """max over y = 0..x of margin * y + discount * continuation(age, x - y)
        and its smallest exact maximiser."""
        vals = [margin * y + discount * self.continuation(age, x - y, view_state)
                for y in range(x + 1)]
        top = max(vals)
        return top, vals.index(top)

    def update(self, age: int, x_after: int, view_state: int,
               next_view: int, next_price: float) -> None:
        """One observed step of the instance: blend next-age greedy value."""
        if age >= self.window - 1:
            return
        margin = (1.0 - self.delta) * (self.impact - next_price)
        v, _ = self.best(age + 1, x_after, next_view, margin, self.delta)
        self.blend((age, x_after, view_state), v)
