"""One benchmark pass in a fresh interpreter, so every qcasimir cache starts
cold.  Started by run.py; prints one JSON line.

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "mode": ..., "t0": ...}'

``mode`` is ``setup`` (stop after set-up), ``plain`` or ``traced``.  ``t0``
is the parent's ``time.perf_counter()`` just before launch (the monotonic
clock is shared by processes on Linux), so ``setup_s`` includes interpreter
start-up.  ``probe`` is the parent's ``speed.probe()`` just before launch;
with a probe here right after set-up it scales ``setup_s`` to reference
seconds.  Timed passes run under ``speed.Sampler`` and report item
latencies and span self times in reference seconds (``raw_latencies`` keeps
the measured ones, calibration slices left out).
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def run_items(items, tracer=None) -> dict:
    """Run every item; any exception or inequality counts as a failure."""
    bounds, failures = [], []
    for label, check in items:
        if tracer is not None:
            tracer.item = label
        t = perf_counter()
        try:
            error = None if all(a == b for a, b in check()) else "mismatch"
        except Exception as exc:  # a raised check is a failed check
            error = type(exc).__name__
        bounds.append((t, perf_counter()))
        if error:
            failures.append([label, error])
    return {"bounds": bounds, "latencies": [b - a for a, b in bounds],
            "failures": failures}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    import qcasimir

    if SRC.resolve() not in Path(qcasimir.__file__).resolve().parents:
        print(f"qcasimir imported from {qcasimir.__file__}, not {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if cfg["mode"] == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.run = "setup"
    inputs = workloads.make_inputs(cfg["workload"], cfg["seed"])
    items = workloads.build_items(inputs)
    setup_raw = perf_counter() - cfg["t0"]
    out = {"setup_s": setup_raw * 2 * speed.REF_S / (cfg["probe"] + speed.probe()),
           "setup_raw_s": setup_raw, "digest": workloads.digest(inputs)}
    if cfg["mode"] != "setup":
        with speed.Sampler() as sampler:
            if tracer is not None:
                tracer.run = "items"
            out.update(run_items(items, tracer))
            if tracer is not None:
                # B2 probe: every layer is called at least once in every
                # traced pass, so no per-layer time is an unmeasured zero
                tracer.run = "probe"
                tiny = run_items(workloads.build_items(workloads.make_inputs("tiny", 0)), tracer)
                out["failures"] += tiny["failures"]
                out["probe_items"] = len(tiny["latencies"])
        scaled, raw = sampler.clock(), sampler.clock(scaled=False)
        bounds = out.pop("bounds")
        out["latencies"] = [scaled(b) - scaled(a) for a, b in bounds]
        out["raw_latencies"] = [raw(b) - raw(a) for a, b in bounds]
        out["slices"] = len(sampler.samples)
        if tracer is not None:
            tracer.write(cfg["spans"], scaled)
            out["layers"] = tracer.layer_metrics(scaled)
            out["top_level"] = tracer.top_level(scaled)
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
