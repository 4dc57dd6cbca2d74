from __future__ import annotations

import time

import numpy as np
import pytest

from wvsched.harness import ProposedSolution, UniformPriceSolution, build_solution
from wvsched.oracle import centralized_oracle, evaluate_solution
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
    _, proposed_value = evaluate_solution(sc, sol, state_cap=40_000)
    uni = UniformPriceSolution(sc, agent_kind="full")
    uni.prepare(np.random.default_rng(sc.seed + 1))
    _, uniform_value = evaluate_solution(sc, uni, state_cap=40_000)
    return {
        "scenario": sc,
        "solution": sol,
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
