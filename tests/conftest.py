from __future__ import annotations

import time

import numpy as np
import pytest

from wvsched.harness import ProposedSolution, UniformPriceSolution, build_solution
from wvsched.learning import to_pds
from wvsched.mdp import own_view
from wvsched.model import JointChannel, ScheduleAction, transmit_energy
from wvsched.oracle import centralized_oracle, evaluate_solution
from wvsched.pricing import PricedAgent
from wvsched.scenario import preset
from reference_model import SlotModel

ORACLE_FIXTURES = ("tiny-sym", "tiny-asym", "tiny-mix")


def scenario_model(scenario, rng, s0=None) -> SlotModel:
    """The reference model of `scenario`'s users and channels on `rng`,
    started at channel state `s0` if given."""
    return SlotModel(scenario.templates, scenario.channels, rng,
                     scenario.channel_correlation == "common", s0)


def shared_view(channel, n_users: int):
    """User 0's `own_view` of `n_users` users on one common `channel`."""
    return own_view(JointChannel([channel] * n_users, "common"), 0)


def model_slot(model: SlotModel) -> tuple:
    """The model's slot as the library's rules read it: the joint channel
    state, each user's `Context` at its phase and each buffer. Asserts
    that each user's instance order is its context's slot order."""
    contexts = [tpl.context(model.phase(i)) for i, tpl in enumerate(model.templates)]
    for i, ctx in enumerate(contexts):
        assert [s.key for s in ctx.slots] == model.keys(i), (i, ctx, model.keys(i))
    return model.s0, contexts, model.buffers()


def episode_slot_states(scenario, solution, slots: int, seed: int):
    """Each slot state (s0, contexts, buffers) of an episode of `solution`
    on the reference model, from a generator seeded `seed`."""
    model = scenario_model(scenario, np.random.default_rng(seed))
    for _ in range(slots):
        state = model_slot(model)
        yield state
        model.run_slot([a.sends for a in solution.sent_actions(*state).sent])


def context_edges(context) -> list[tuple[int, int]]:
    """(parent slot index, child slot index) of every dependency inside a
    context: each slot's parents of the same GOP offset that are still in
    the context, children in slot order and each child's parents in order."""
    index = {s.key: i for i, s in enumerate(context.slots)}
    return [(index[(child.key[0], pid)], ci)
            for ci, child in enumerate(context.slots)
            for pid in child.du.parents if (child.key[0], pid) in index]


class ThresholdAgent(PricedAgent):
    """The least a priced agent defines: `refresh` and `act_at`. It sends a
    slot's whole buffer while the price is below the slot's impact."""

    def refresh(self, price_vec):
        self.price_vec = np.asarray(price_vec, dtype=float)

    def act_at(self, context, buffer, view_state, lam):
        return ScheduleAction(tuple(x if s.du.distortion_impact > lam else 0
                                    for s, x in zip(context.slots, buffer)))


def drift_objective(backlog: int, sends: int, expected_arrivals: float,
                    price: float, beta: float, gain_to_noise: float,
                    delta: float) -> float:
    """(1-delta)(-beta*energy - price*m) + delta * (-(backlog - m + arrivals)^2)."""
    u = -beta * transmit_energy(gain_to_noise, sends)
    after = (backlog - sends) + expected_arrivals
    cont = -(after * after)
    return (1.0 - delta) * (u - price * sends) + delta * cont


class DriftValueTable:
    """Virtual post-decision table: U(post) = -(|post|_1 + arrivals)^2.

    Fed to `pds_greedy_action` with `energy_only_payoff` and `raw_pds_key`,
    it reproduces `lyapunov_action` exactly: the drift framework is a
    special case of post-decision scheduling.
    """

    def __init__(self, expected_arrivals: float):
        self.expected_arrivals = expected_arrivals

    def value(self, key) -> float:
        _phase, post, _v = key
        after = sum(post) + self.expected_arrivals
        return -(after * after)


def energy_only_payoff(beta: float, gain_to_noise: float):
    """Payoff ignoring distortion impacts, as the drift framework does."""

    def payoff_fn(_phase, action):
        return -beta * transmit_energy(gain_to_noise, action.total)

    return payoff_fn


def raw_pds_key(layout, phase: int, buffer, action, view_state: int) -> tuple:
    """Uncollapsed post-decision key (buffer minus sends over all slots)."""
    post, _ = to_pds(buffer, action, view_state)
    return (phase, post, view_state)


def assert_same_tables(got, want) -> None:
    """Two `DuTables` with equal solved prices, and equal dtypes, shapes
    and bytes of every array."""
    assert got.price == want.price
    for name in ("values", "post", "best_send", "margin"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="session")
def trio_results():
    """Solve the three oracle-scale fixtures once: coordination + oracle + exact values."""
    out = {}
    for name in ORACLE_FIXTURES:
        started = time.time()
        sc = preset(name)
        sol = ProposedSolution(sc, agent_kind="full", max_slots=80_000,
                               eval_slots=20_000)
        sol.prepare(np.random.default_rng(sc.seed))
        orc = centralized_oracle(sc)
        _, value = evaluate_solution(sc, sol)
        out[name] = {
            "scenario": sc,
            "solution": sol,
            "report": sol.report,
            "oracle": orc,
            "proposed_value": value,
            "elapsed": time.time() - started,
        }
    return out


@pytest.fixture(scope="session")
def priced_results():
    """tiny-priced: per-state vs uniform price, evaluated exactly."""
    sc = preset("tiny-priced")
    sol = ProposedSolution(sc, agent_kind="full", max_slots=80_000,
                           eval_slots=20_000)
    sol.prepare(np.random.default_rng(sc.seed))
    factorizations = [agent.mdp.factorizations for agent in sol.agents]
    _, proposed_value = evaluate_solution(sc, sol, state_cap=40_000)
    uni = UniformPriceSolution(sc, agent_kind="full")
    uni.prepare(np.random.default_rng(sc.seed + 1))
    _, uniform_value = evaluate_solution(sc, uni, state_cap=40_000)
    return {
        "scenario": sc,
        "solution": sol,
        "factorizations": factorizations,   # per agent, right after prepare
        "uniform": uni,
        "proposed_value": proposed_value,
        "uniform_value": uniform_value,
        "margin": (proposed_value - uniform_value) / abs(uniform_value),
    }


@pytest.fixture(scope="session")
def illustration():
    """Prepared clearing-mode proposed solution on the two-user illustration."""
    sc = preset("illustration-2user")
    sol = ProposedSolution(sc, max_slots=40_000, eval_slots=3_000, clearing=True)
    sol.prepare(np.random.default_rng(sc.seed))
    return {"scenario": sc, "proposed": sol}


@pytest.fixture(scope="session")
def illustration_suite(illustration):
    """All comparison solutions prepared against the shared proposed prices."""
    sc = illustration["scenario"]
    proposed = illustration["proposed"]
    sols = {"proposed": proposed}
    for name in ("mu-mdp", "lyapunov", "myopic",
                 "proposed+edf", "proposed+fifo", "proposed+hdf",
                 "myopic+edf", "myopic+fifo", "myopic+hdf"):
        sol = build_solution(sc, name, proposed=proposed)
        sol.prepare(np.random.default_rng(sc.seed))
        sols[name] = sol
    return {"scenario": sc, "solutions": sols}
