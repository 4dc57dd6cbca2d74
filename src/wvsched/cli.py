"""Command-line entry points.

    wvsched run     --scenario <file|preset> --solution proposed --slots 300 --seed 7 --out out/
    wvsched compare --scenario <file|preset> --solutions proposed,myopic --seeds 5 --out out/
    wvsched oracle  --scenario <file|preset> [--cap 200000]
    wvsched replay  --fixture illustration-2user --solution myopic --out out/
    wvsched learn   --scenario pds-toy --slots 30000 --out out/
    wvsched presets

Exit codes: 0 success, 2 validation failure, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from wvsched.harness import (
    ProposedSolution,
    build_solution,
    compute_metrics,
    emit_report,
    mean_metrics,
    pds_learning_curve,
    run_episode,
    write_learning_curve,
    write_price_trace,
    write_replay_table,
)
from wvsched.model import ModelError
from wvsched.oracle import centralized_oracle
from wvsched.pricing import CoordinationError
from wvsched.scenario import ScenarioError, list_presets, load_scenario

REPLAY_CHANNELS = {"illustration-2user": [0, 1, 1, 1, 0]}


def _at_least(low: int, text: str) -> int:
    n = int(text)
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    return n


def count(text: str) -> int:
    """An integer of at least 1 (slot and seed counts, the price-iteration
    slot cap, the oracle's state cap); argparse exits 2 on anything else,
    before any work starts."""
    return _at_least(1, text)


def solution_names(text: str) -> list[str]:
    """Comma-separated solution names, blanks dropped and each name kept at
    its first place; argparse exits 2 when none is left, before any work
    starts."""
    names = list(dict.fromkeys(n.strip() for n in text.split(",") if n.strip()))
    if not names:
        raise argparse.ArgumentTypeError("no solutions given")
    return names


def seed(text: str) -> int:
    """A random seed, an integer of at least 0; argparse exits 2 on anything
    else, before any work starts."""
    return _at_least(0, text)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wvsched",
                                description="Multi-user wireless video scheduling")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one solution on a scenario")
    run.add_argument("--scenario", required=True)
    run.add_argument("--solution", default=None,
                     help="defaults to the scenario's solver field")
    run.add_argument("--slots", type=count, default=300)
    run.add_argument("--seed", type=seed, default=None)
    run.add_argument("--clearing", action="store_true",
                     help="per-slot price clearing instead of proportional trims")
    run.add_argument("--max-slots", type=count, default=120_000,
                     help="price-iteration slot cap before non-convergence")
    run.add_argument("--out", default="out")

    cmp_ = sub.add_parser("compare", help="run several solutions side by side")
    cmp_.add_argument("--scenario", required=True)
    cmp_.add_argument("--solutions", type=solution_names,
                      default="proposed,mu-mdp,lyapunov,myopic")
    cmp_.add_argument("--slots", type=count, default=300)
    cmp_.add_argument("--seeds", type=count, default=5)
    cmp_.add_argument("--seed", type=seed, default=None)
    cmp_.add_argument("--clearing", action="store_true")
    cmp_.add_argument("--out", default="out")

    orc = sub.add_parser("oracle", help="exact centralized value on a tiny scenario")
    orc.add_argument("--scenario", required=True)
    orc.add_argument("--cap", type=count, default=200_000)

    rep = sub.add_parser("replay", help="replay a pinned channel sequence")
    rep.add_argument("--fixture", default="illustration-2user")
    rep.add_argument("--solution", default="myopic")
    rep.add_argument("--out", default="out")

    lrn = sub.add_parser("learn", help="single-user post-decision learning curve")
    lrn.add_argument("--scenario", default="pds-toy")
    lrn.add_argument("--slots", type=count, default=30_000)
    lrn.add_argument("--seed", type=seed, default=None)
    lrn.add_argument("--out", default="out")

    sub.add_parser("presets", help="list shipped scenario presets")
    return p


def _allocator_kwargs(name: str, **kwargs) -> dict:
    """`kwargs` for the names that run on a ProposedSolution, else none."""
    return kwargs if name.startswith("proposed") or name == "lyapunov" else {}


def _prepare(scenario, name: str, seed: int, clearing: bool,
             max_slots: int = 120_000):
    solution = build_solution(scenario, name, **_allocator_kwargs(
        name, clearing=clearing, max_slots=max_slots))
    solution.prepare(np.random.default_rng(seed))
    return solution


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    name = args.solution if args.solution is not None else scenario.solver
    solution = _prepare(scenario, name, seed, args.clearing,
                        max_slots=args.max_slots)
    trace = run_episode(scenario, solution, args.slots,
                        np.random.default_rng(seed + 1))
    paths = emit_report([trace], scenario, args.out)
    report = solution.report if isinstance(solution, ProposedSolution) else None
    if report is not None:
        paths.append(write_price_trace(report, Path(args.out) / "prices.csv"))
        if report.price_trace_dropped:
            print(f"warning: prices.csv holds the last {len(report.price_trace)} "
                  f"price updates; the first {report.price_trace_dropped} were "
                  "dropped from the bounded history", file=sys.stderr)
    m = compute_metrics(trace, scenario)
    print(f"{solution.name}: network payoff {m.network_payoff:.4f}, "
          f"distortion {m.total_distortion:.1f}, energy {m.total_energy:.4g}")
    if report is not None:
        print(f"coordination: {report.slots_run} slots, policy refreshes per user "
              f"{', '.join(map(str, report.refreshes))}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    # a solution listed twice is built, run and reported once (`solution_names`);
    # proposed, lyapunov and proposed+<sched> share one decomposed allocator;
    # each distinct object is prepared once, in list order
    shared = None
    prepared, solutions = set(), []
    prep_rng = np.random.default_rng(seed)
    for name in args.solutions:
        sol = build_solution(scenario, name, proposed=shared,
                             **_allocator_kwargs(name, clearing=args.clearing))
        alloc = sol if isinstance(sol, ProposedSolution) else getattr(sol, "proposed", None)
        if shared is None and alloc is not None and alloc.agent_kind == "decomposed":
            shared = alloc
        for obj in (alloc, sol):
            if obj is not None and id(obj) not in prepared:
                obj.prepare(prep_rng)
                prepared.add(id(obj))
        solutions.append(sol)
    # metrics.csv holds each solution's means over the seeds, and its trace
    # file the first seed's episode
    traces, means = [], []
    for sol in solutions:
        reports = []
        for k in range(args.seeds):
            trace = run_episode(scenario, sol, args.slots,
                                np.random.default_rng(seed + 1000 + k))
            if not reports:
                traces.append(trace)
            reports.append(compute_metrics(trace, scenario))
        means.append(mean_metrics(reports))
        print(f"{sol.name}: mean network payoff over {args.seeds} seeds: "
              f"{means[-1].network_payoff:.4f}")
    emit_report(traces, scenario, args.out, means)
    return 0


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    result = centralized_oracle(scenario, state_cap=args.cap)
    print(f"joint states: {result.space.n_states}, sweeps: {result.sweeps}, "
          f"feasible pairs: {result.pairs}, (state, row) groups: {result.groups}, "
          f"kernel rows: {result.kernel_rows}")
    print(f"oracle network utility (uniform initial): {result.mean_value:.6f}")
    return 0


def _cmd_replay(args) -> int:
    scenario = load_scenario(args.fixture)
    pinned = REPLAY_CHANNELS.get(args.fixture)
    if pinned is None:
        raise ScenarioError([f"no pinned channel sequence for fixture {args.fixture!r}"])
    solution = _prepare(scenario, args.solution, scenario.seed, clearing=True)
    trace = run_episode(scenario, solution, len(pinned),
                        np.random.default_rng(scenario.seed + 1),
                        pinned_channels=pinned)
    out = Path(args.out)
    path = write_replay_table(trace, scenario,
                              out / f"replay_{solution.name.replace('+', '_')}.csv")
    m = compute_metrics(trace, scenario)
    print(f"{solution.name}: I-frame packets lost after slot 1: "
          f"{m.i_loss_after_first_slot}")
    print(f"wrote {path}")
    return 0


def _cmd_learn(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    user = scenario.users[0]
    # a mid-range fixed price; learning tracks values under it
    price = np.full(len(user.channel), 0.4)
    rows, _ = pds_learning_curve(scenario, price, args.slots,
                                 np.random.default_rng(seed))
    path = write_learning_curve(rows, Path(args.out) / "learning.csv")
    if rows:
        print(f"final windowed payoff {rows[-1][2]:.4f}, "
              f"gap to planning {rows[-1][3]}")
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "learn":
            return _cmd_learn(args)
        if args.command == "presets":
            for name in list_presets():
                print(name)
            return 0
    except (ScenarioError, ModelError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except CoordinationError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
