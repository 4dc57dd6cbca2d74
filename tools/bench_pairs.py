"""Alternating parent/change benchmark pairs, recorded as one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_<n>.json

Each of the PAIRS pairs runs ``perfbench/run.py --workload W --seed S`` once
in each checkout, one process at a time, for every workload BENCHMARK.json
lists, at perfbench's own run length; the side that runs first alternates
from pair to pair, and pair k uses seed FIRST_SEED + k. Every checkout runs
its own ``perfbench`` and ``src``. The record holds, per workload and
end-to-end metric, each side's runs, median and quartiles, how many pairs
the change won and lost (ties count for neither), the relative change of
the medians, and whether the change meets the gain rule: every change run
passes its output checks (perfbench's `correct`), matches its fingerprint
and fails no more operations than its paired parent run, the change wins
at least nine tenths of the pairs, and its median is better than the
parent's by more than the parent's interquartile range. Each metric also
gets a no-regression verdict against its relative ``bound`` in
BENCHMARK.json (see `verdict`), and the record holds every run's check
result, fingerprint status, failed-operation count and number of rounds
(how many whole rounds of the workload fit in the run). `peak_rss_mb` is
comparable only between runs of equal rounds, so its entry also says
whether every pair ran equal rounds on both sides (`rounds_equal`) and,
over the pairs that did, their count, each side's median and the change's
wins (`equal_rounds`). After
the pairs, each checkout runs every workload once more with ``--trace 1``
at FIRST_SEED; the record keeps those per-layer metrics under
``per_layer``, per workload and side.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
FIRST_SEED = 44


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="parent commit checkout")
    p.add_argument("--change", required=True, type=Path, help="changed checkout")
    p.add_argument("--out", required=True, type=Path)
    return p


def run_once(checkout: Path, workload: str, seed: int, trace: bool = False) -> dict:
    """One benchmark process: its metrics (per-layer ones if `trace`),
    check result, fingerprint status and failures."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}")
    return parse_run(proc.stdout, workload)


def parse_run(stdout: str, workload: str) -> dict:
    """A benchmark process's stdout: the metrics and check result
    (`correct`) of its last line, the fingerprint status, the failed
    operations and the rounds it ran, read from its `<workload>: N
    round(s)` line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    status = next((ln.split(":", 1)[1].strip() for ln in lines
                   if ln.startswith("fingerprint:")), "missing")
    counted = (re.match(rf"{re.escape(workload)}: (\d+) round\(s\)", ln) for ln in lines)
    rounds = next((int(m.group(1)) for m in counted if m), None)
    if rounds is None:
        raise RuntimeError(f"no '{workload}: N round(s)' line in the benchmark output")
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "correct": result["correct"], "fingerprint": status,
            "failed": result["failed"], "rounds": rounds}


def summary(runs: list[float]) -> dict:
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = q3 = runs[0]
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def sound(parent: list[dict], change: list[dict]) -> bool:
    """Whether every change run passed its output checks, matched its
    fingerprint and failed no more operations than its paired parent run."""
    return all(c["correct"] is True and c["fingerprint"] == "match"
               and c["failed"] <= p["failed"]
               for p, c in zip(parent, change, strict=True))


def compare(parent: list[float], change: list[float], better: str, ok: bool) -> dict:
    """Pair wins, medians and the gain rule for one metric. `ok` is whether
    the change runs are `sound`; without it no gain counts."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    base, new = summary(parent), summary(change)
    gain = sign * (new["median"] - base["median"])
    return {
        "parent": base, "change": new,
        "change_wins": wins, "change_losses": losses,
        "relative_change": (new["median"] - base["median"]) / base["median"]
        if base["median"] else 0.0,
        "meets_gain_rule": ok and wins >= 0.9 * len(parent)
        and gain > base["q3"] - base["q1"],
    }


def equal_rounds(parent: list[dict], change: list[dict], metric: str, better: str) -> dict:
    """`metric` over the pairs whose two runs fit equal rounds: how many,
    each side's median (None without such pairs) and the change's wins."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(p["metrics"][metric], c["metrics"][metric])
             for p, c in zip(parent, change, strict=True) if p["rounds"] == c["rounds"]]
    return {"pairs": len(pairs),
            "parent_median": statistics.median(p for p, _ in pairs) if pairs else None,
            "change_median": statistics.median(c for _, c in pairs) if pairs else None,
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """`not_worse` if every change run beats every parent run, or if the
    change's median is worse than the parent's by at most `bound` relative
    to it; `unresolved` if, short of the first case, the parent's own
    interquartile range is wider than `bound` relative to its median, so a
    shift within the bound cannot be told from noise; else `worse`."""
    sign = 1.0 if better == "higher" else -1.0
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "not_worse"
    base = summary(parent)
    scale = bound * abs(base["median"])
    if base["q3"] - base["q1"] > scale:
        return "unresolved"
    return "worse" if sign * (base["median"] - statistics.median(change)) > scale \
        else "not_worse"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    runs = {w: {s: [] for s in sides} for w in names}
    seeds = [FIRST_SEED + k for k in range(PAIRS)]
    for k, seed in enumerate(seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for w in names:
            for side in order:
                out = run_once(sides[side], w, seed)
                runs[w][side].append(out)
                print(f"pair {k + 1}/{PAIRS} seed {seed} {w} {side}: "
                      f"prepare_s {out['metrics'].get('prepare_s', float('nan')):.3f}, "
                      f"{out.get('rounds')} round(s), "
                      f"fingerprint {out['fingerprint']}", flush=True)

    per_layer = {w: {side: run_once(sides[side], w, FIRST_SEED, trace=True)["metrics"]
                     for side in sides} for w in names}

    record = {"pairs": PAIRS, "seeds": seeds,
              "rule": "every change run passes its checks, matches its fingerprint "
                      "and fails no more operations than its paired parent run, the "
                      "change wins >= 0.9 of pairs and its median beats the parent's "
                      "by more than the parent's interquartile range",
              "verdict": "not_worse if every change run beats every parent run or the "
                         "change's median is worse by at most the metric's relative bound; "
                         "unresolved if not the first and the parent's interquartile "
                         "range exceeds the bound; else worse",
              "workloads": {}}
    for w in names:
        entry = {"metrics": {}, "correct": {}, "fingerprint": {}, "failed": {}, "rounds": {}}
        for side in sides:
            entry["correct"][side] = [r["correct"] for r in runs[w][side]]
            entry["fingerprint"][side] = [r["fingerprint"] for r in runs[w][side]]
            entry["failed"][side] = [r["failed"] for r in runs[w][side]]
            entry["rounds"][side] = [r.get("rounds") for r in runs[w][side]]
        ok = sound(runs[w]["parent"], runs[w]["change"])
        for metric, direction in better.items():
            parent = [r["metrics"][metric] for r in runs[w]["parent"]]
            change = [r["metrics"][metric] for r in runs[w]["change"]]
            entry["metrics"][metric] = compare(parent, change, direction, ok)
            entry["metrics"][metric]["verdict"] = verdict(parent, change, direction,
                                                          bounds[metric])
        if "peak_rss_mb" in entry["metrics"]:
            rss = entry["metrics"]["peak_rss_mb"]
            rss["rounds_equal"] = entry["rounds"]["parent"] == entry["rounds"]["change"]
            rss["equal_rounds"] = equal_rounds(runs[w]["parent"], runs[w]["change"],
                                               "peak_rss_mb", better["peak_rss_mb"])
        entry["per_layer"] = per_layer[w]
        record["workloads"][w] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
