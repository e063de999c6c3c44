#!/usr/bin/env python3
"""Cold-process benchmark for qcasimir.

    python3 perfbench/run.py --workload blocks --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each pass starts a fresh interpreter (child.py) with PYTHONHASHSEED pinned,
one child at a time, and repeats until the next pass would overrun
``--seconds``.  ``--trace 0`` reports the end-to-end metrics as medians over
passes; ``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics and the tracing overhead.  Times are scaled to reference
seconds against a calibration slice timed all through each pass (speed.py),
so that the drifting speed of a shared host does not show as a change.
Every result is checked by exact equality; the last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

HARD_LIMIT_S = 170.0  # one workload must finish well inside 180 s
MIN_SETUPS = 15
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_s", "s"),
    ("item_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class BenchError(RuntimeError):
    pass


def tail_index(n: int) -> int:
    """Index (ascending order) of the highest percentile that still has at
    least ten items beyond it; the largest item below eleven items."""
    return n - 11 if n >= 11 else n - 1


def context() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except OSError:  # no git binary: the source hash still identifies the code
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "qcasimir").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count()}


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.begin = perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
        self.passes = 0

    def child(self, mode: str) -> dict:
        remaining = HARD_LIMIT_S - (perf_counter() - self.begin)
        if remaining <= 0:
            raise BenchError("time limit reached before the run completed")
        cfg = {"workload": self.workload, "seed": self.seed, "mode": mode,
               "spans": str(OUT / f"spans-{self.workload}-seed{self.seed}-{self.passes}.jsonl")}
        self.passes += 1
        cfg["probe"] = speed.probe()
        cfg["t0"] = perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), json.dumps(cfg)],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass exceeded the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["elapsed_s"] = perf_counter() - cfg["t0"]
        return res


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes until the next would overrun ``seconds``; aggregate."""
    r = Runner(workload, seed)
    r.child("setup")  # compiles bytecode and proves the import path; untimed
    start = perf_counter()
    runs: dict[str, list[dict]] = {"plain": [], "traced": []}
    kind = "traced" if trace else "plain"
    while True:
        runs[kind].append(r.child(kind))
        if trace:
            kind = "plain" if kind == "traced" else "traced"
        done = runs["plain"] and (runs["traced"] or not trace)
        longest = max(p["elapsed_s"] for passes in runs.values() for p in passes)
        if done and perf_counter() - start + longest > seconds:
            break
    setups = [p["setup_s"] for p in runs["plain"]]
    while len(setups) < MIN_SETUPS:
        setups.append(r.child("setup")["setup_s"])

    plain, traced = runs["plain"], runs["traced"]
    every = plain + traced
    problems = []
    if len({p["digest"] for p in every}) != 1:
        problems.append("inputs differ between passes")
    if len({len(p["latencies"]) for p in every}) != 1:
        problems.append("item count differs between passes")
    failures = [f for p in every for f in p["failures"]]
    attempted = sum(len(p["latencies"]) + p.get("probe_items", 0) for p in every)
    n_items = len(plain[0]["latencies"])
    tail = tail_index(n_items)

    # Passes give item latencies in reference seconds (speed.py); an item's
    # latency is its median over the run's passes of one kind, and wall_s is
    # the sum of those, the time to a verified answer.
    def item_medians(passes):
        return sorted(statistics.median(col) for col in zip(*(p["latencies"] for p in passes)))

    lat = item_medians(plain)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(lat),
        "item_p50_s": statistics.median(lat),
        "item_tail_s": lat[tail],
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
    }
    out = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "context": context(),
        "inputs": dict(workloads.summary(workloads.make_inputs(workload, seed)),
                       digest=plain[0]["digest"]),
        "passes": {"plain": len(plain), "traced": len(traced), "setups": len(setups)},
        "items_per_pass": n_items,
        "tail_percentile": round(100 * (tail + 1) / n_items, 1),
        "end_to_end": e2e,
        "pass_wall_s": [sum(p["latencies"]) for p in plain],
        "pass_raw_wall_s": [sum(p["raw_latencies"]) for p in plain],
        "setup_raw_s": statistics.median(p["setup_raw_s"] for p in plain),
        "failed": len(failures), "attempted": attempted, "failures": failures[:20],
    }
    if trace:
        layers = dict(traced[0]["layers"])
        for name in layers:
            values = [p["layers"][name] for p in traced]
            if name.endswith(".self_s"):
                layers[name] = statistics.median(values)
            elif len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
        layers[tracing.OVERHEAD] = sum(item_medians(traced)) / e2e["wall_s"] - 1
        out["per_layer"] = layers
        out["top_level_s"] = traced[0]["top_level"]
    out["problems"] = problems
    out["correct"] = not failures and not problems
    return out


def report(res: dict) -> dict:
    """Print the human-readable table; return the metrics for the JSON line."""
    p = res["passes"]
    print(f"{res['workload']} seed={res['seed']} trace={res['trace']}: "
          f"{p['plain']} untraced + {p['traced']} traced passes, {p['setups']} set-ups, "
          f"{res['items_per_pass']} items per pass, item_tail_s = p{res['tail_percentile']}")
    e2e = {k: {"value": res["end_to_end"][k], "unit": u} for k, u in END_TO_END}
    layers = {}
    if res["trace"]:
        layers = {k: {"value": res["per_layer"][k], "unit": u} for k, u in tracing.metric_names()}
    for name, m in {**e2e, **layers}.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'failed_ratio':44s} {ratio:>14.6g} ratio ({res['failed']} of {res['attempted']} checks)")
    for label, error in res["failures"]:
        print(f"  FAILED {label}: {error}", file=sys.stderr)
    for problem in res["problems"]:
        print(f"  PROBLEM {problem}", file=sys.stderr)
    print("# context " + json.dumps({**res["context"], "inputs": res["inputs"]}))
    return layers if res["trace"] else e2e


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qcasimir" / "__init__.py").is_file():
        print(f"qcasimir sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1))
        results.append((name, res, report(res)))
    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {f"{n}.{k}": v for n, _, m in results for k, v in m.items()}
    print(json.dumps({
        "correct": all(r["correct"] for _, r, _ in results),
        "attempted": sum(r["attempted"] for _, r, _ in results),
        "failed": sum(r["failed"] for _, r, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
