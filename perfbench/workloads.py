"""The three batch workloads: fixed sequences of the library calls that
``wvsched run|compare|oracle|replay`` make, with the benchmark's checks.

Every prepare draws from the preset's own seed, as ``wvsched run`` does by
default, so each run repeats the same coordination work: on gop16-default
the slot count to settle moves by a quarter between seeds (2,688 at seed 3,
3,412 at seed 17), which would drown a change in speed. The benchmark seed
picks the episode seeds. Each solution's batch also starts with one probe
episode on the preset's seed + 1 (the ``wvsched run`` episode seed), whose
payoff enters the output fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks

EPISODE_SLOTS = 140
PINNED_CHANNELS = [0, 1, 1, 1, 0]      # the replay fixture of `wvsched replay`
BATTERY = ["proposed", "mu-mdp", "lyapunov", "myopic", "proposed+edf",
           "proposed+fifo", "proposed+hdf", "myopic+edf", "proposed-learning"]
ORACLE_I_SIZE = 3                      # tiny-priced has 8-packet I-frames


class Round:
    """One pass over a workload: times library calls, counts operations,
    collects check errors and the fingerprint."""

    def __init__(self, lib, out_dir: Path):
        self.lib = lib
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.episode_slots = 0
        self.coord_slots = 0
        self.network_payoff = float("nan")
        self.errors: list[str] = []
        self.fingerprint: dict = {}
        self.spans: list[tuple[int, str, float, float]] = []   # (op, kind, start, end)

    def call(self, kind: str, fn, *args, **kwargs):
        """One operation: a library call, timed; None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.spans.append((self.attempted, kind, t0, time.perf_counter()))

    def seconds(self, scaled=None) -> dict[str, float]:
        """Seconds per operation kind ("prepare", "episodes", ...) and in
        "total"; `scaled(spans)`, if given, replaces each operation's length."""
        ops, kinds = defaultdict(list), {}
        for op, kind, t0, t1 in self.spans:
            ops[op].append((t0, t1))
            kinds[op] = kind
        out: dict[str, float] = defaultdict(float)
        for op, spans in ops.items():
            length = scaled(spans) if scaled else sum(t1 - t0 for t0, t1 in spans)
            out[kinds[op]] += length
            out["total"] += length
        return out

    def skip(self, what: str) -> None:
        """An operation that cannot run because one it depends on failed."""
        self.attempted += 1
        self.failed += 1
        print(f"skipped {what}: an operation it needs failed", file=sys.stderr)

    def prepare(self, solution, rng):
        """solution.prepare(rng) as one operation; the solution, or None."""
        def prepared():
            solution.prepare(rng)
            return solution
        return self.call("prepare", prepared)

    def episodes(self, label: str, scenario, solution, seeds) -> list | None:
        """One episode batch; each trace is audited and dropped as it ends."""
        self.attempted += 1
        audits = []
        try:
            for seed in seeds:
                t0 = time.perf_counter()
                trace = self.lib.harness.run_episode(scenario, solution, EPISODE_SLOTS,
                                                     np.random.default_rng(seed))
                self.spans.append((self.attempted, "episodes", t0, time.perf_counter()))
                self.episode_slots += EPISODE_SLOTS
                audits.append(checks.audit_trace(trace, scenario))
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        for audit in audits:
            self.errors.extend(f"{label}: {e}" for e in audit.errors[:5])
        self.fingerprint.setdefault("probe_payoff", {})[label] = audits[0].network_payoff
        return audits


def _mean_payoff(audits) -> float:
    return float(np.mean([a.network_payoff for a in audits]))


def _prices(table) -> dict:
    return {",".join(map(str, k)): v for k, v in sorted(table.lam.items())}


def _batch_seeds(seed: int, scenario, count: int) -> list[int]:
    drawn = np.random.default_rng(seed).integers(2**32, size=count)
    return [scenario.seed + 1] + [int(s) for s in drawn]


# ---------------------------------------------------------------------------
# gop16-coord
# ---------------------------------------------------------------------------

def setup_gop16(lib, seed: int) -> dict:
    sc = lib.scenario.preset("gop16-default")
    return {"scenario": sc, "seeds": _batch_seeds(seed, sc, 200)}


def run_gop16(rnd: Round, inputs: dict) -> None:
    lib, sc = rnd.lib, inputs["scenario"]
    sol = rnd.prepare(lib.harness.build_solution(sc, "proposed"),
                      np.random.default_rng(sc.seed))
    if sol is None:
        rnd.skip("episode batch")
        return
    audits = rnd.episodes("proposed", sc, sol, inputs["seeds"])
    report = sol.report
    rnd.coord_slots = report.slots_run
    rnd.fingerprint.update(prices=_prices(sol.prices), coord_slots=report.slots_run)
    rnd.errors += checks.coordination_errors("gop16", report, sol.prices.lam)
    rnd.errors += checks.du_table_errors(sol.agents[0], sc, sol.prices.lam, user=0)
    if audits is not None:
        rnd.network_payoff = _mean_payoff(audits)


# ---------------------------------------------------------------------------
# illustration-battery
# ---------------------------------------------------------------------------

def setup_battery(lib, seed: int) -> dict:
    sc = lib.scenario.preset("illustration-2user")
    return {"scenario": sc, "seeds": _batch_seeds(seed, sc, 40)}


def run_battery(rnd: Round, inputs: dict) -> None:
    lib, sc = rnd.lib, inputs["scenario"]
    harness = lib.harness
    # `wvsched compare --clearing`: one prepare stream, pairings share proposed
    prep_rng = np.random.default_rng(sc.seed)
    sols: dict = {}
    shared = None
    for name in BATTERY:
        if name == "proposed":
            sol = harness.build_solution(sc, name, clearing=True)
        elif name == "proposed-learning":
            # proportional trims: clearing rejects the learning agents
            sol = harness.build_solution(sc, name)
        else:
            if shared is None and name in ("lyapunov", "proposed+edf", "proposed+fifo",
                                           "proposed+hdf"):
                rnd.skip(f"prepare {name}")
                continue
            sol = harness.build_solution(sc, name, proposed=shared)
        sol = rnd.prepare(sol, prep_rng)
        if sol is not None:
            sols[name] = sol
            if name == "proposed":
                shared = sol
    payoffs = {}
    for name in BATTERY:
        if name not in sols:
            rnd.skip(f"{name} episode batch")
            continue
        audits = rnd.episodes(name, sc, sols[name], inputs["seeds"])
        if audits is not None:
            payoffs[name] = _mean_payoff(audits)

    replay = {}
    for name in ("proposed", "myopic"):
        if name not in sols:
            rnd.skip(f"{name} replay")
            continue
        path = rnd.out_dir / f"replay_{name}.csv"

        def pinned(sol=sols[name], path=path):
            trace = harness.run_episode(sc, sol, len(PINNED_CHANNELS),
                                        np.random.default_rng(sc.seed + 1),
                                        pinned_channels=PINNED_CHANNELS)
            harness.write_replay_table(trace, sc, path)
            return trace
        trace = rnd.call("replay", pinned)
        if trace is not None:
            audit = checks.audit_trace(trace, sc)
            rnd.errors.extend(f"replay {name}: {e}" for e in audit.errors)
            replay[name] = audit.late_i_loss
            rnd.fingerprint.setdefault("replay_sha256", {})[name] = \
                hashlib.sha256(path.read_bytes()).hexdigest()

    rnd.coord_slots = sum(sols[n].report.slots_run
                          for n in ("proposed", "proposed-learning") if n in sols)
    rnd.fingerprint["coord_slots"] = rnd.coord_slots
    if "proposed" in sols:
        rnd.fingerprint["prices"] = _prices(sols["proposed"].prices)
    if "proposed-learning" in sols:
        rnd.fingerprint["learning_prices"] = _prices(sols["proposed-learning"].prices)
    if "mu-mdp" in sols:
        uni = sols["mu-mdp"].result
        rnd.fingerprint["uniform_price"] = uni.price
        rnd.errors += checks.uniform_usage_errors(uni.usage_by_state, sc.bandwidth)
    for name in ("proposed", "proposed-learning"):
        if name in sols:
            rnd.errors += checks.coordination_errors(name, sols[name].report,
                                                     sols[name].prices.lam)
    if "proposed" in payoffs and "myopic" in payoffs:
        rnd.errors += checks.better_errors("mean network payoff", "proposed",
                                           payoffs["proposed"], "myopic", payoffs["myopic"])
    if len(replay) == 2:
        rnd.errors += checks.replay_errors(replay)
    rnd.network_payoff = payoffs.get("proposed", float("nan"))


# ---------------------------------------------------------------------------
# tiny-priced-exact
# ---------------------------------------------------------------------------

def oracle_instance(lib):
    """tiny-priced with ORACLE_I_SIZE-packet I-frames and every channel rate
    scaled by the same factor (P and B frames keep their sizes): the oracle's
    joint space shrinks from 20,412 to 4,752 states."""
    raw = json.loads(lib.scenario.preset_path("tiny-priced").read_text(encoding="utf-8"))
    for user in raw["users"]:
        for du in user["gop"]["dus"]:
            if du["name"] == "I":
                scale = ORACLE_I_SIZE / max(v for v, _ in du["size_pmf"])
                du["size_pmf"] = [[ORACLE_I_SIZE, 1.0]]
        user["channel"]["rate"] = [r * scale for r in user["channel"]["rate"]]
    raw["name"] = f"tiny-priced-i{ORACLE_I_SIZE}"
    return lib.scenario.scenario_from_dict(raw)


def setup_exact(lib, seed: int) -> dict:
    sc = lib.scenario.preset("tiny-priced")
    return {"scenario": sc, "oracle_scenario": oracle_instance(lib),
            "seeds": _batch_seeds(seed, sc, 200)}


def run_exact(rnd: Round, inputs: dict) -> None:
    lib, sc = rnd.lib, inputs["scenario"]
    harness, oracle = lib.harness, lib.oracle
    prep_rng = np.random.default_rng(sc.seed)
    sols = {}
    for name in ("proposed-full", "mu-mdp-full", "myopic"):
        sol = rnd.prepare(harness.build_solution(sc, name), prep_rng)
        if sol is not None:
            sols[name] = sol
    values = {}
    for name in ("proposed-full", "mu-mdp-full", "myopic"):
        if name not in sols:
            rnd.skip(f"{name} exact evaluation")
            continue
        out = rnd.call("evaluate", oracle.evaluate_solution, sc, sols[name])
        if out is not None:
            values[name] = out[1]
    if "proposed-full" in sols:
        audits = rnd.episodes("proposed-full", sc, sols["proposed-full"], inputs["seeds"])
        if audits is not None:
            rnd.network_payoff = _mean_payoff(audits)
    else:
        rnd.skip("episode batch")

    inst = inputs["oracle_scenario"]
    orc = rnd.call("oracle", oracle.centralized_oracle, inst)
    inst_myopic = rnd.prepare(harness.build_solution(inst, "myopic"), prep_rng)
    myopic = None
    if inst_myopic is None:
        rnd.skip("myopic exact evaluation on the oracle instance")
    else:
        out = rnd.call("evaluate", oracle.evaluate_solution, inst, inst_myopic)
        myopic = None if out is None else out[1]

    if "proposed-full" in sols:
        sol = sols["proposed-full"]
        rnd.coord_slots = sol.report.slots_run
        rnd.fingerprint.update(prices=_prices(sol.prices), coord_slots=sol.report.slots_run)
        rnd.errors += checks.coordination_errors("tiny-priced", sol.report, sol.prices.lam)
        rnd.errors += checks.binding_price_errors(sol.prices.lam, good=(0, 0), bad=(1, 1))
    if "mu-mdp-full" in sols:
        rnd.fingerprint["uniform_price"] = sols["mu-mdp-full"].price
    rnd.fingerprint["exact_values"] = values
    if "proposed-full" in values and "mu-mdp-full" in values:
        rnd.errors += checks.better_errors("exact value", "proposed-full",
                                           values["proposed-full"], "mu-mdp-full",
                                           values["mu-mdp-full"])
    if orc is not None and myopic is not None:
        rnd.fingerprint.update(oracle_value=orc.mean_value, oracle_myopic_value=myopic)
        rnd.errors += checks.oracle_bound_errors(orc.mean_value, myopic, "myopic")


WORKLOADS = {
    "gop16-coord": (setup_gop16, run_gop16),
    "illustration-battery": (setup_battery, run_battery),
    "tiny-priced-exact": (setup_exact, run_exact),
}
