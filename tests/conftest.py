from __future__ import annotations

import time

import numpy as np
import pytest

from wvsched.harness import ProposedSolution, UniformPriceSolution, build_solution
from wvsched.model import ScheduleAction, transmit_energy
from wvsched.oracle import centralized_oracle, evaluate_solution
from wvsched.pricing import PricedAgent
from wvsched.scenario import preset

ORACLE_FIXTURES = ("tiny-sym", "tiny-asym", "tiny-mix")


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
