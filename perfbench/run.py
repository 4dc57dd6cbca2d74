"""Benchmark entry point: one workload per process, end-to-end metrics from
untraced rounds, per-layer metrics from a traced round.

    python3 perfbench/run.py --workload gop16-coord --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # each in its own process
    python3 perfbench/run.py --workload tiny-priced-exact --write-reference

A run repeats whole rounds of its workload until --seconds have passed
(at least one round) and reports per-round medians. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run it from the repository root; it imports wvsched from ./src only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"
MODULES = ("scenario", "model", "scheduling", "mdp", "pricing", "learning",
           "baselines", "oracle", "harness")
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                + "; ".join(f"import wvsched.{m}" for m in MODULES)
                + "; print(time.perf_counter() - t)")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "prepare_s": "s",
    "episode_slots_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "coord_slots": "slots",
    "network_payoff": "payoff",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's output fingerprint as the reference")
    return p


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load_library():
    """Import wvsched from the checkout's src, nowhere else."""
    if not (SRC / "wvsched" / "__init__.py").is_file():
        _fail(f"{SRC / 'wvsched'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import importlib

    mods = {m: importlib.import_module(f"wvsched.{m}") for m in MODULES}
    if Path(mods["harness"].__file__).resolve().parent != SRC / "wvsched":
        _fail(f"wvsched imported from {mods['harness'].__file__}, not {SRC}")
    return argparse.Namespace(**mods), mods


def _import_seconds() -> float:
    """Median import time of the package in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _fingerprint_status(name: str, fingerprint: dict) -> str:
    path = REFERENCE / f"{name}.json"
    if not path.is_file():
        return f"no reference at {path.relative_to(HERE.parent)}"
    ref = json.loads(path.read_text(encoding="utf-8"))
    if ref == fingerprint:
        return "match"
    keys = sorted(k for k in set(ref) | set(fingerprint) if ref.get(k) != fingerprint.get(k))
    return "MISMATCH in " + ", ".join(keys)


def run_workload(args) -> int:
    lib, mods = _load_library()
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer, metric_specs

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)} or all")
    setup, body = workloads.WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    def one_round(tracer=None):
        rnd = workloads.Round(lib, out_dir)
        if tracer is None:
            body(rnd, inputs)
        else:
            with tracer.active(mods):
                body(rnd, setup(lib, args.seed))
        return rnd

    rounds, traced = [], []
    with SpeedProbe() as probe:
        setup_start = time.perf_counter()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = setup(lib, args.seed)
            setup_times.append(time.perf_counter() - t0)
        setup_s = _import_seconds() + statistics.median(setup_times)
        setup_span = (setup_start, time.perf_counter())
        if args.trace:
            rounds.append(one_round())           # untraced base for the overhead
        start = time.perf_counter()
        while True:
            if args.trace:
                tracer = Tracer()
                traced.append((one_round(tracer), tracer))
            else:
                rounds.append(one_round())
            if time.perf_counter() - start >= args.seconds:
                break

    every = rounds + [r for r, _ in traced]
    errors = [e for r in every for e in r.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    med = statistics.median
    speed = probe.factor()
    raw = [r.seconds() for r in rounds]
    norm = [r.seconds(probe.scaled) for r in rounds]
    if args.trace:
        units = {k: u for k, (u, _) in metric_specs().items()}
        per_round = [t.metrics() for _, t in traced]
        measured = {k: med([m[k] for m in per_round]) for k in per_round[0]}
        measured["trace.overhead_s"] = (med([r.seconds()["total"] for r, _ in traced])
                                        - med([s["total"] for s in raw]))
        # layer times scale by the run's factor; the overhead compares totals
        metrics = {k: v * speed if units[k] == "s" else v for k, v in measured.items()}
        metrics["trace.overhead_s"] = (
            med([r.seconds(probe.scaled)["total"] for r, _ in traced])
            - med([s["total"] for s in norm]))
    else:
        units = END_TO_END

        def rate(secs) -> float:
            return med([r.episode_slots / s["episodes"]
                        for r, s in zip(rounds, secs) if s["episodes"] > 0] or [0.0])

        common = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "coord_slots": med([r.coord_slots for r in rounds]),
            "network_payoff": med([r.network_payoff for r in rounds]),
        }
        measured = {"setup_s": setup_s,
                    "prepare_s": med([s["prepare"] for s in raw]),
                    "episode_slots_per_s": rate(raw),
                    "total_s": med([s["total"] for s in raw]), **common}
        setup_scale = probe.scaled([setup_span]) / (setup_span[1] - setup_span[0])
        metrics = {"setup_s": setup_s * setup_scale,
                   "prepare_s": med([s["prepare"] for s in norm]),
                   "episode_slots_per_s": rate(norm),
                   "total_s": med([s["total"] for s in norm]), **common}

    fingerprint = json.loads(json.dumps(every[0].fingerprint, sort_keys=True))
    (out_dir / "fingerprint.json").write_text(json.dumps(fingerprint, indent=1, sort_keys=True)
                                              + "\n", encoding="utf-8")
    if args.write_reference:
        REFERENCE.mkdir(exist_ok=True)
        (REFERENCE / f"{args.workload}.json").write_text(
            json.dumps(fingerprint, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{args.workload}: {len(every)} round(s), seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, host speed factor {speed:.4f} "
          f"({len(probe.samples)} probes); normalised value, measured value, unit")
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6g} {measured[name]:14.6g} {units[name]}")
    print(f"fingerprint: {_fingerprint_status(args.workload, fingerprint)}")

    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    line = json.dumps(result)
    (out_dir / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, speed_factor=speed, measured=measured)) + "\n",
        encoding="utf-8")
    print(line)
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        part = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, metric in part["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload == "all":
        if not (SRC / "wvsched" / "__init__.py").is_file():
            _fail(f"{SRC / 'wvsched'} not found; run from a full checkout")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
