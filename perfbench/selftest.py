#!/usr/bin/env python3
"""Self-test of the benchmark (not of qcasimir).

    python3 perfbench/selftest.py

Checks that inputs are a function of the seed alone, that the samplers
exclude exactly the genuine poles, that the correctness gate counts a wrong
expected value and a raised DegenerateEvaluation as failures, that tracing
replaces every binding and gives exact, repeatable counts on the B2 input,
that BENCHMARK.json names exactly the metrics the benchmark reports, and
that the benchmark refuses to run without the qcasimir sources.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import qcasimir as qc  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _inputs_bytes(workload: str, seed: int, hashseed: int) -> bytes:
    code = ("import sys, workloads; sys.stdout.buffer.write(workloads.canonical("
            "workloads.make_inputs(sys.argv[1], int(sys.argv[2]))))")
    return subprocess.run(
        [sys.executable, "-c", code, workload, str(seed)], cwd=BENCH, check=True,
        env=dict(os.environ, PYTHONHASHSEED=str(hashseed)), capture_output=True,
    ).stdout


def test_inputs_deterministic():
    for w in workloads.WORKLOADS:
        first = _inputs_bytes(w, 1, 1)
        assert first == _inputs_bytes(w, 1, 2), f"{w}: same seed, different inputs"
        if w != "blocks":
            assert first != _inputs_bytes(w, 2, 1), f"{w}: seed does not change inputs"


def _pole_raises(rs, dbl) -> bool:
    try:
        for s in (2, 3):
            qc.eigenvalue_direct(rs, qc.Weight(dbl), 1, s)
    except qc.DegenerateEvaluation:
        return True
    return False


def test_weight_sampler_excludes_only_poles():
    rng = random.Random(0)
    top = workloads.SPECTRUM_MAX_COORD
    for lie, n in (("B", 3), ("C", 3), ("D", 4)):
        rs = qc.build_root_system(qc.LieType(lie), n)
        box = set()
        for shift in (0, 1) if lie in "BD" else (0,):
            for coords in itertools.product(range(top + 1), repeat=n):
                dbl = tuple(2 * c + shift for c in coords)
                for last in {dbl[-1], -dbl[-1]}:
                    lam = qc.Weight(dbl[:-1] + (last,))
                    if rs.is_dominant(lam):
                        box.add(lam.dbl)
        genuine = {d for d in box if _pole_raises(rs, d)}
        assert {d for d in box if workloads.is_pole(lie, d)} == genuine, f"{lie}{n}"
        assert set(workloads.weight_candidates(lie, n)) == box - genuine, f"{lie}{n}"
        drawn = workloads.sample_weights(lie, n, 20, rng)
        assert len(drawn) == 20 and {tuple(d) for d in drawn} <= box - genuine


def test_point_samplers_exclude_only_poles():
    rng = random.Random(0)
    primes = workloads._PRIMES
    s_values = {workloads.sample_s(rng) for _ in range(500)}
    assert s_values == {Fraction(a, b) for a in primes[:3] for b in primes[:2]} - {1}
    rs = qc.build_root_system(qc.LieType.B, 4)
    coords = set()
    for _ in range(300):
        u = workloads.sample_point(4, rng)
        coords.update(u)
        qc.g_rational_eval(rs, 2, 2, u)  # no pole: must not raise
    assert coords == {Fraction(a, b) for a in primes for b in primes} - {1}
    # every excluded case is a genuine pole of the rational forms
    for bad in ([2, 2, 3, 5], [2, Fraction(1, 2), 3, 5], [1, 2, 3, 5]):
        try:
            qc.g_rational_eval(rs, 2, 2, bad)
        except qc.DegenerateEvaluation:
            continue
        raise AssertionError(f"{bad} is not a pole")


def test_gate_counts_failures():
    items = workloads.build_items(workloads.make_inputs("tiny", 0))
    idx = next(i for i, (label, _) in enumerate(items) if "-c0-" in label)
    label, check = items[idx]
    items[idx] = (label, lambda: [(a, b + 1) for a, b in check()])
    rs = qc.build_root_system(qc.LieType.B, 2)
    items.append(("pole", lambda: [(qc.eigenvalue_direct(rs, qc.Weight((2, 0)), 1, 2), 0)]))
    res = child.run_items(items)
    assert len(res["latencies"]) == len(items)
    assert res["failures"] == [[label, "mismatch"], ["pole", "DegenerateEvaluation"]], res["failures"]


def test_speed_clock():
    sampler = speed.Sampler()
    r = speed.REF_S
    # slices at 0, 1, 2, 3: twice as slow from t = 2 on
    sampler.samples = [(0, r), (1, 1 + r), (2, 2 + 2 * r), (3, 3 + 2 * r)]
    raw, scaled = sampler.clock(scaled=False), sampler.clock()
    spans = [(0.5, 0.6), (0.9, 1.1), (3 - 0.1, 3 + 2 * r)]
    assert [round(raw(b) - raw(a), 9) for a, b in spans] == [0.1, round(0.2 - r, 9), 0.1]
    # WINDOW = 6: every gap's window holds all four slices, median 1.5 r
    assert [round(scaled(b) - scaled(a), 9) for a, b in spans] == [
        round((raw(b) - raw(a)) / 1.5, 9) for a, b in spans]
    with speed.Sampler() as live:  # the timer interrupts a busy loop
        t = speed.perf_counter()
        while speed.perf_counter() - t < 4 * speed.TICK_S:
            pass
        t1 = speed.perf_counter()
    assert len(live.samples) >= 5
    slices = sum(b - a for a, b in live.samples if t <= a and b <= t1)
    raw = live.clock(scaled=False)
    assert abs(raw(t1) - raw(t) + slices - (t1 - t)) < 1e-9


def _traced_tiny(tag: str) -> dict:
    cfg = {"workload": "tiny", "seed": 0, "mode": "traced", "t0": 0, "probe": speed.REF_S,
           "spans": str(BENCH / "out" / f"selftest-spans-{tag}.jsonl")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(cfg)], cwd=ROOT, check=True,
        env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
    )
    res = json.loads(proc.stdout.splitlines()[-1])
    assert not res["failures"], res["failures"]
    return res["layers"]


def test_trace_counts_exact_and_repeatable():
    (BENCH / "out").mkdir(exist_ok=True)
    first, second = _traced_tiny("a"), _traced_tiny("b")
    counts = {k: v for k, v in first.items() if not k.endswith(".self_s")}
    assert counts == {k: v for k, v in second.items() if not k.endswith(".self_s")}
    assert all(first[k] > 0 for k in first if k.endswith(".calls")), "a layer was never called"
    # B2: |W| = 8, four positive roots (one division stage each); the items
    # and then the probe run in one process, so only the first pass is cold
    assert first["chars.enumerate_weyl.calls"] == 1
    assert first["chars.enumerate_weyl.elements"] == 8
    assert first["chars.divide_by_denominator.stages"] == 4 * first["chars.divide_by_denominator.calls"]
    assert first["casimir.h_element.calls"] == 3 + 2 * 3
    assert first["chars.antisymmetrize.kept_ratio"] == (
        first["chars.antisymmetrize.out_terms"] / (8 * first["chars.antisymmetrize.in_terms"]))


def test_benchmark_json_matches():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_without_sources():
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "blocks", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def test_wrappers_cover_every_binding():
    import qcasimir.verify  # noqa: F401  (binds several layers by name)

    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "qcasimir"}
    expected = {}
    for key in tracing.LAYERS:
        if key[1] is None:
            orig = getattr(modules[f"qcasimir.{key[0]}"], key[2])
            expected[tracing.layer_name(key)] = sorted(
                n for n, m in modules.items() if orig in vars(m).values())
    tracer = tracing.Tracer()
    tracer.install()  # raises if any module still binds an original
    for name, binders in expected.items():
        assert sorted(tracer.rebound[name]) == binders, name
    for fn in ("antisymmetrize", "weyl_character"):
        assert {"qcasimir", "qcasimir.casimir", "qcasimir.verify"} <= set(
            tracer.rebound[f"chars.{fn}"]), fn
    assert {"qcasimir", "qcasimir.casimir"} <= set(tracer.rebound["chars.divide_by_denominator"])
    assert "qcasimir.ebasis" in tracer.rebound["chars.weyl_character"]
    qc.ch_g_via_hooks(qc.build_root_system(qc.LieType.B, 3), 2)  # not cached yet
    assert any(s[0] == "chars.weyl_character" for s in tracer.spans)


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    # installing wrappers changes this process for good, so it runs last
    tests.sort(key=lambda t: t is test_wrappers_cover_every_binding)
    failed = 0
    for t in tests:
        try:
            t()
            print(f"ok   {t.__name__}")
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {t.__name__}: {type(exc).__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
