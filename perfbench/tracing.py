"""Per-layer tracing from outside the library.

The tracer replaces public functions and methods of the wvsched modules by
timing or counting wrappers, at every name a caller looks them up under (a
function imported with ``from wvsched.x import f`` is patched in the
importing module too), and restores the originals afterwards. Nothing inside
the library is edited, so an untraced run executes the library unchanged.

Each timed name reports ``.calls``, ``.s`` (inclusive busy time) and
``.self_s`` (inclusive time minus the time spent in wrapped callees).
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# (metric name, [(module, attribute path), ...]); every site of one name
# shares its counters. Attribute paths with a dot patch a class attribute.
TIMED = [
    ("scenario.load", [("scenario", "load_scenario")]),
    ("model.advance_traffic", [("model", "advance_traffic"), ("harness", "advance_traffic"),
                               ("pricing", "advance_traffic")]),
    ("model.DataUnitSpec.sample_size", [("model", "DataUnitSpec.sample_size")]),
    ("model.UserState.validate", [("model", "UserState.__post_init__")]),
    ("scheduling.build_du_tables", [("scheduling", "build_du_tables"),
                                    ("harness", "build_du_tables")]),
    ("scheduling.SingleDuModel.solve", [("scheduling", "SingleDuModel.solve")]),
    ("scheduling.decomposed_schedule", [("scheduling", "decomposed_schedule"),
                                        ("harness", "decomposed_schedule"),
                                        ("learning", "decomposed_schedule")]),
    ("pricing.run_coordination", [("pricing", "run_coordination"),
                                  ("harness", "run_coordination")]),
    ("pricing.JointChannel.step", [("pricing", "JointChannel.step")]),
    ("pricing.scale_to_budget", [("pricing", "scale_to_budget"), ("harness", "scale_to_budget")]),
    ("mdp.ChannelView.price_vector", [("mdp", "ChannelView.price_vector")]),
    ("mdp.UserMdp.build", [("mdp", "UserMdp.__init__")]),
    ("mdp.UserMdp.solve", [("mdp", "UserMdp.solve")]),
    ("mdp.UserMdp.backup", [("mdp", "UserMdp.backup")]),
    ("mdp.UserMdp.expected_usage_by_view", [("mdp", "UserMdp.expected_usage_by_view")]),
    ("harness.sent_actions", [("harness", "PricedRuntime.sent_actions"),
                              ("harness", "UniformPriceSolution.sent_actions")]),
    ("harness.FullMdpAgent.act", [("harness", "FullMdpAgent.act")]),
    ("harness.run_episode", [("harness", "run_episode")]),
    ("baselines.uniform_price_solve", [("baselines", "uniform_price_solve"),
                                       ("harness", "uniform_price_solve")]),
    ("baselines.lyapunov_action", [("baselines", "lyapunov_action"),
                                   ("harness", "lyapunov_action")]),
    ("learning.DuPdsLearner.update", [("learning", "DuPdsLearner.update")]),
    ("oracle.centralized_oracle", [("oracle", "centralized_oracle")]),
    ("oracle.evaluate_solution", [("oracle", "evaluate_solution")]),
    ("oracle.build_joint_kernel", [("oracle", "build_joint_kernel")]),
]

COUNTED = [
    ("model.iter_actions", [("model", "iter_actions"), ("mdp", "iter_actions"),
                            ("oracle", "iter_actions")]),
    ("pricing.update_prices", [("pricing", "update_prices")]),
    ("harness.agent_refresh", [("harness", f"{cls}.refresh") for cls in
                               ("DecomposedAgent", "FullMdpAgent",
                                "PdsDecomposedAgent", "DriftAgent")]),
    ("harness.clearing.steps", [("harness", "PricedRuntime._acts_at")]),
]

def metric_specs() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for every per-layer metric."""
    specs = {}
    for name, _ in TIMED:
        specs[f"{name}.calls"] = ("count", "lower")
        specs[f"{name}.s"] = ("s", "lower")
        specs[f"{name}.self_s"] = ("s", "lower")
    for name, _ in COUNTED:
        specs[name if name.endswith(".steps") else f"{name}.calls"] = ("count", "lower")
    specs.update({
        "mdp.sweeps_per_solve": ("sweeps", "lower"),
        "harness.agent_refresh.resolve_rate": ("ratio", "lower"),
        "harness.decision_cache.hit_rate": ("ratio", "higher"),
        "harness.clearing.overcommitted_slots": ("count", "lower"),
        "harness.clearing.steps_per_overcommitted_slot": ("steps", "lower"),
        "baselines.uniform_price.evaluations": ("count", "lower"),
        "oracle.sweeps": ("count", "lower"),
        "oracle.joint_states": ("count", "lower"),
        "trace.overhead_s": ("s", "lower"),
    })
    return specs


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Call counts, inclusive and self time per wrapped name."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self._child = [0.0]        # time spent in wrapped callees, per open span

    def timed(self, name: str, fn):
        clock, stack, calls = time.perf_counter, self._child, self.calls
        incl, self_s = self.incl, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                incl[name] += dt
                self_s[name] += dt - inner
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrappers(self, modules):
        """Yield (owner, attribute, original, wrapper) for every patched site."""
        for kind, table in ((self.timed, TIMED), (self.counted, COUNTED)):
            for name, sites in table:
                for mod, path in sites:
                    owner, attr = _resolve(modules[mod], path)
                    orig = owner.__dict__[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                    yield owner, attr, orig, self._special(name, kind(name, orig))

    def _special(self, name: str, wrapped):
        """Derived counters that need the call's arguments or result."""
        tracer = self
        if name == "harness.agent_refresh":
            def refresh(agent, price_vec):
                before = tracer.calls["scheduling.build_du_tables"] + \
                    tracer.calls["mdp.UserMdp.solve"]
                wrapped(agent, price_vec)
                if tracer.calls["scheduling.build_du_tables"] + \
                        tracer.calls["mdp.UserMdp.solve"] > before:
                    tracer.extra["harness.agent_refresh.resolves"] += 1
            return refresh
        if name == "harness.sent_actions":
            def sent_actions(solution, s0, contexts, buffers):
                before = len(solution._cache)
                out = wrapped(solution, s0, contexts, buffers)
                if getattr(solution, "_cacheable", True) and len(solution._cache) == before:
                    tracer.extra["harness.decision_cache.hits"] += 1
                return out
            return sent_actions
        if name == "baselines.uniform_price_solve":
            def uniform_price_solve(estimate_usage, *args, **kwargs):
                def counted_estimate(lam):
                    tracer.extra["baselines.uniform_price.evaluations"] += 1
                    return estimate_usage(lam)
                return wrapped(counted_estimate, *args, **kwargs)
            return uniform_price_solve
        if name == "oracle.centralized_oracle":
            def centralized_oracle(*args, **kwargs):
                result = wrapped(*args, **kwargs)
                tracer.extra["oracle.sweeps"] += result.sweeps
                tracer.extra["oracle.joint_states"] += result.space.n_states
                return result
            return centralized_oracle
        return wrapped

    @contextlib.contextmanager
    def active(self, modules):
        """Patch every site for the duration of the block."""
        saved = []
        try:
            saved.append(self._clear_counter(modules["harness"]))
            for owner, attr, orig, wrapper in self._wrappers(modules):
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _clear_counter(self, harness):
        """Wrap PricedRuntime._clear to count slots whose requests overran the
        band, i.e. slots whose clearing search issued at least one step."""
        runtime = harness.PricedRuntime
        orig = runtime.__dict__["_clear"]
        tracer = self

        def _clear(solution, *args):
            before = tracer.calls["harness.clearing.steps"]
            out = orig(solution, *args)
            if tracer.calls["harness.clearing.steps"] > before:
                tracer.extra["harness.clearing.overcommitted_slots"] += 1
            return out
        runtime._clear = _clear
        return runtime, "_clear", orig

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, zero where a layer did not run."""
        out: dict[str, float] = {}
        for name, _ in TIMED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.incl[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, _ in COUNTED:
            key = name if name.endswith(".steps") else f"{name}.calls"
            out[key] = self.calls[name]

        def ratio(num: float, base: float) -> float:
            return num / base if base else 0.0

        steps = self.calls["harness.clearing.steps"]
        over = self.extra["harness.clearing.overcommitted_slots"]
        out.update({
            "mdp.sweeps_per_solve": ratio(self.calls["mdp.UserMdp.backup"],
                                          self.calls["mdp.UserMdp.solve"]),
            "harness.agent_refresh.resolve_rate": ratio(
                self.extra["harness.agent_refresh.resolves"],
                self.calls["harness.agent_refresh"]),
            "harness.decision_cache.hit_rate": ratio(
                self.extra["harness.decision_cache.hits"],
                self.calls["harness.sent_actions"]),
            "harness.clearing.overcommitted_slots": over,
            "harness.clearing.steps_per_overcommitted_slot": ratio(steps, over),
            "baselines.uniform_price.evaluations":
                self.extra["baselines.uniform_price.evaluations"],
            "oracle.sweeps": self.extra["oracle.sweeps"],
            "oracle.joint_states": self.extra["oracle.joint_states"],
        })
        return out
