"""The benchmark's tracer finds every library name it wraps.

perfbench/tracing.py patches each traced function at every module attribute
callers look it up under (`harness.advance_traffic`, `learning.decomposed_schedule`,
...). A library change that drops one of those names breaks every traced
benchmark run, so these tests resolve each site against the modules the
benchmark imports and check that a traced episode is counted.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
from wvsched.scenario import preset  # noqa: E402


def bench_modules() -> dict:
    return {m: importlib.import_module(f"wvsched.{m}") for m in run.MODULES}


def traced_sites(modules: dict) -> list:
    """(owner, attribute) of every site the tracer patches."""
    return [tracing._resolve(modules[mod], path)
            for table in (tracing.TIMED, tracing.COUNTED)
            for _name, sites in table for mod, path in sites]


def test_every_traced_site_resolves():
    modules = bench_modules()
    sites = traced_sites(modules)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if not hasattr(owner, attr)]
    assert not missing, f"traced names not found: {missing}"
    # the tracer reads a method off its class's own __dict__ (as it does for
    # PricedRuntime._clear), so an inherited method does not resolve
    methods = [site for site in sites if isinstance(site[0], type)]
    inherited = [f"{owner.__name__}.{attr}"
                 for owner, attr in methods + [(modules["harness"].PricedRuntime, "_clear")]
                 if attr not in vars(owner)]
    assert not inherited, f"traced methods not defined on their own class: {inherited}"
    before = [getattr(owner, attr) for owner, attr in sites]
    with tracing.Tracer().active(modules):
        patched = [getattr(owner, attr) for owner, attr in sites]
    assert all(a is not b for a, b in zip(before, patched))
    assert all(a is getattr(owner, attr) for a, (owner, attr) in zip(before, sites))


def test_traced_episode_walks_without_stepping_the_slot_engine():
    """An episode is one memoised walk on block-drawn uniforms: the tracer
    counts the `run_episode` call and sees no per-slot traffic or channel
    step (those sites count the coordination loop alone)."""
    sc = preset("illustration-2user")
    modules = bench_modules()
    harness = modules["harness"]
    sol = harness.build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    tracer = tracing.Tracer()
    with tracer.active(modules):
        trace = harness.run_episode(sc, sol, 7, np.random.default_rng(1))
    metrics = tracer.metrics()
    assert len(trace.records) == 7
    assert metrics["harness.run_episode.calls"] == 1
    assert metrics["model.advance_traffic.calls"] == 0
    assert metrics["pricing.JointChannel.step.calls"] == 0


def test_traced_solve_counts_one_backup_per_sweep():
    """`mdp.sweeps_per_solve` is backup calls over solve calls, so a solve,
    cold or warm-started, must call `UserMdp.backup` once per improvement
    step it reports: the metric's sweeps are policy-iteration steps."""
    modules = bench_modules()
    mdp = modules["mdp"]
    sc = preset("tiny-sym")
    u = sc.users[0]
    model = mdp.UserMdp(u.template, mdp.common_view(u.channel, len(sc.users)), u.beta,
                        u.min_quality, sc.bits_per_packet, sc.discount)
    tracer = tracing.Tracer()
    with tracer.active(modules):
        cold = model.solve(np.full(len(model.view), 0.3))
        warm = model.solve(np.full(len(model.view), 0.6), init=cold)
    metrics = tracer.metrics()
    assert cold.steps + warm.steps > 2
    assert metrics["mdp.UserMdp.solve.calls"] == 2
    assert metrics["mdp.UserMdp.backup.calls"] == cold.steps + warm.steps
    assert metrics["mdp.sweeps_per_solve"] == (cold.steps + warm.steps) / 2


def test_traced_oracle_and_evaluation_build_one_kernel_each():
    """`oracle.build_joint_kernel` times the kernel build apart from value
    iteration and the rule calls, so each caller must build its kernel in
    exactly one call."""
    modules = bench_modules()
    harness, oracle = modules["harness"], modules["oracle"]
    sc = preset("tiny-sym")
    sol = harness.build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    for call in (lambda: oracle.centralized_oracle(sc), lambda: oracle.evaluate_solution(sc, sol)):
        tracer = tracing.Tracer()
        with tracer.active(modules):
            call()
        assert tracer.metrics()["oracle.build_joint_kernel.calls"] == 1


def test_traced_gop16_episode_schedules_once_per_agent_act(monkeypatch):
    """`scheduling.decomposed_schedule.calls` stands for one user decision
    each, so a DecomposedAgent decision must make exactly one call."""
    modules = bench_modules()
    harness = modules["harness"]
    sc = preset("gop16-default")
    sol = harness.build_solution(sc, "proposed")
    sol.prepare(np.random.default_rng(sc.seed))
    acts = []
    act = harness.DecomposedAgent.act

    def counted_act(agent, *args):
        acts.append(1)
        return act(agent, *args)

    monkeypatch.setattr(harness.DecomposedAgent, "act", counted_act)
    tracer = tracing.Tracer()
    with tracer.active(modules):
        harness.run_episode(sc, sol, 20, np.random.default_rng(1))
    assert acts
    assert tracer.metrics()["scheduling.decomposed_schedule.calls"] == len(acts)
