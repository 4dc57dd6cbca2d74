"""scipy is loaded only where a sparse solve runs.

The decomposed, learning, drift, uniform-price and paired paths are numpy
table work; only the full per-user MDP, exact evaluation and the joint
oracle build sparse kernels. The check runs in a fresh interpreter,
because this test process has already imported scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import importlib, json, pkgutil, sys

import numpy as np

import wvsched

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

# every module but __main__, which runs the command line when imported
for info in pkgutil.iter_modules(wvsched.__path__):
    if info.name != "__main__":
        importlib.import_module(f"wvsched.{info.name}")
import wvsched.cli

from wvsched.harness import build_solution, run_episode
from wvsched.oracle import centralized_oracle, evaluate_solution
from wvsched.scenario import preset

out = {"after_import": scipy_modules(), "numpy_only": {}}
sc = preset("tiny-sym")
for name in ("proposed", "proposed-learning", "lyapunov", "mu-mdp", "myopic"):
    sol = build_solution(sc, name)
    sol.prepare(np.random.default_rng(0))
    trace = run_episode(sc, sol, 20, np.random.default_rng(1))
    out["numpy_only"][name] = {"slots": len(trace.records), "scipy": scipy_modules()}

full = build_solution(sc, "proposed-full")
full.prepare(np.random.default_rng(0))
_, value = evaluate_solution(sc, full)
oracle = centralized_oracle(sc)
out["sparse"] = {"value": value, "oracle": oracle.mean_value,
                 "scipy": "scipy.sparse.linalg" in sys.modules}
print(json.dumps(out))
"""


def test_numpy_paths_leave_scipy_unloaded_and_sparse_paths_load_it():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["after_import"] == []
    for name, run in out["numpy_only"].items():
        assert run == {"slots": 20, "scipy": []}, name
    # the sparse paths return and did load scipy, so the check above is not
    # vacuous
    sparse = out["sparse"]
    assert sparse["scipy"]
    assert sparse["oracle"] >= sparse["value"] - 1e-9
