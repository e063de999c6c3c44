"""Traced runs: wrap each qcasimir layer from outside and record spans.

A wrapper replaces the layer's function in every qcasimir module that binds
it (``casimir``, ``ebasis``, ``verify`` and the package ``__init__`` import
several layers by name), and methods are replaced on their class.  Each call
records a span (name, start, end, parent, run id, item) plus counts taken at
the boundary; spans stay in memory and are written out at the end.
Self time is a span's duration minus the time of its direct child spans,
both read on the clock passed in (speed.Sampler.clock: program time in
reference seconds, the calibration slices left out).
"""

from __future__ import annotations

import json
import sys
from math import factorial
from time import perf_counter


def _terms(x) -> int:
    return len(x.terms)


def _orbit_terms(args) -> int:
    x, rs = args[0], args[1]
    order = 2**rs.rank * factorial(rs.rank) // (2 if rs.lie_type.value == "D" else 1)
    return order * len(x.terms)


# (module, class or None, function): (reported stats, counts taken per call
# from (args, result), whether repeated arguments are tracked)
LAYERS = {
    ("roots", None, "build_root_system"): (("calls", "self_s"), None, False),
    ("chars", None, "enumerate_weyl"): (
        ("calls", "self_s", "elements"), lambda a, r: {"elements": len(r)}, False),
    ("chars", None, "weyl_denominator"): (("calls", "self_s"), None, False),
    ("chars", None, "ext_power_char"): (("calls",), None, False),
    ("chars", None, "antisymmetrize"): (
        ("calls", "self_s", "in_terms", "out_terms", "kept_ratio"),
        lambda a, r: {"in_terms": _terms(a[0]), "out_terms": _terms(r),
                      "orbit_terms": _orbit_terms(a)},
        False),
    ("chars", None, "divide_by_denominator"): (
        ("calls", "self_s", "in_terms", "out_terms", "stages"),
        lambda a, r: {"in_terms": _terms(a[0]), "out_terms": _terms(r)},
        False),
    ("chars", None, "weyl_character"): (
        ("calls", "self_s", "out_terms", "repeat_ratio"),
        lambda a, r: {"out_terms": _terms(r)}, True),
    ("chars", None, "alternant"): (
        ("calls", "self_s", "out_terms"), lambda a, r: {"out_terms": _terms(r)}, False),
    ("chars", "GAElem", "div_exact"): (("calls", "self_s"), None, False),
    ("chars", "GAElem", "__mul__"): (
        ("calls", "self_s", "term_pairs", "out_terms", "kept_ratio"),
        lambda a, r: {"term_pairs": _terms(a[0]) * _terms(a[1]), "out_terms": _terms(r)},
        False),
    ("chars", "GAElem", "evaluate"): (
        ("calls", "self_s", "terms"), lambda a, r: {"terms": _terms(a[0])}, False),
    ("casimir", None, "hc_value"): (("calls", "self_s"), None, False),
    ("casimir", None, "eigenvalue_direct"): (("calls", "self_s"), None, False),
    ("casimir", None, "eigenvalue_via_hc"): (("calls", "self_s"), None, False),
    ("casimir", None, "g_rational_eval"): (("calls", "self_s"), None, False),
    ("casimir", None, "c0_rational_eval"): (("calls", "self_s"), None, False),
    ("exact", "QLaurent", "div_exact"): (("calls", "self_s"), None, False),
    ("casimir", None, "ch_g_via_antisym"): (("calls", "self_s", "repeat_ratio"), None, True),
    ("casimir", None, "ch_g_via_hooks"): (("calls", "self_s", "repeat_ratio"), None, True),
    ("casimir", None, "hc_combination"): (("calls", "self_s", "repeat_ratio"), None, True),
    ("casimir", None, "h_element"): (
        ("calls", "self_s", "out_terms"), lambda a, r: {"out_terms": _terms(r)}, False),
    ("ebasis", None, "jt_character"): (("calls", "self_s"), None, False),
    ("ebasis", None, "triangular_solve"): (("calls", "self_s"), None, False),
    ("ebasis", None, "round_trip_ok"): (("calls", "self_s"), None, False),
    ("exact", None, "det_exact"): (("calls", "self_s"), None, False),
    ("exact", "EPoly", "__mul__"): (("calls", "self_s"), None, False),
}

OVERHEAD = "trace.overhead_ratio"
_COUNT_STATS = {"calls", "in_terms", "out_terms", "term_pairs", "terms",
                "elements", "stages"}


def layer_name(key) -> str:
    return ".".join(p for p in key if p)


def stat_unit(stat: str) -> str:
    if stat == "self_s":
        return "s"
    return "count" if stat in _COUNT_STATS else "ratio"


def metric_names() -> list[tuple[str, str]]:
    """[(metric name, unit)] in report order, overhead last."""
    out = [
        (f"{layer_name(key)}.{stat}", stat_unit(stat))
        for key, (stats, _, _) in LAYERS.items()
        for stat in stats
    ]
    return out + [(OVERHEAD, "ratio")]


def _arg_key(a):
    if hasattr(a, "lie_type") and hasattr(a, "rank"):
        return (a.lie_type.value, a.rank)
    if hasattr(a, "dbl"):
        return a.dbl
    return a


class Tracer:
    """Span recorder; ``install`` wraps every layer in LAYERS."""

    def __init__(self):
        self.spans: list = []
        self.run = None
        self.item = None
        self._stack: list[int] = []
        self.rebound: dict[str, list[str]] = {}

    def _wrap(self, name, fn, count, track):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                counts = count(args, result) if count and result is not None else {}
                key = repr(tuple(map(_arg_key, args))) if track else None
                spans[index] = (name, t0, t1, parent, self.run, self.item, counts, key)

        return wrapper

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "qcasimir" or name.startswith("qcasimir.")
        }
        for key, (_, count, track) in LAYERS.items():
            mod_name, cls_name, fn_name = key
            name = layer_name(key)
            home = modules[f"qcasimir.{mod_name}"]
            if cls_name:
                cls = getattr(home, cls_name)
                setattr(cls, fn_name, self._wrap(name, vars(cls)[fn_name], count, track))
                self.rebound[name] = [f"{mod_name}.{cls_name}"]
                continue
            orig = getattr(home, fn_name)
            wrapper = self._wrap(name, orig, count, track)
            self.rebound[name] = []
            for mname, mod in modules.items():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self.rebound[name].append(mname)
            missed = [m for m, mod in modules.items() if orig in vars(mod).values()]
            if missed:
                raise RuntimeError(f"{name} still bound unwrapped in {missed}")

    def self_times(self, clock) -> list[float]:
        """Each span's duration on ``clock`` minus its direct children's."""
        dur = [clock(s[2]) - clock(s[1]) for s in self.spans]
        out = list(dur)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                out[s[3]] -= dur[i]
        return out

    def write(self, path, clock) -> None:
        """Spans with measured start and end, self time on ``clock``."""
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self.self_times(clock)):
                name, t0, t1, parent, run, item, counts, _ = span
                rec = {"name": name, "start": t0, "end": t1, "parent": parent,
                       "run": run, "item": item, "self_s": self_s}
                rec.update(counts)
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, clock) -> dict[str, float]:
        """Per-layer metrics over every recorded span (overhead excluded);
        self times on ``clock``."""
        agg = {layer_name(k): {"calls": 0, "self_s": 0.0, "stages": 0, "repeats": 0}
               for k in LAYERS}
        seen: dict[str, set] = {name: set() for name in agg}
        for span, self_s in zip(self.spans, self.self_times(clock)):
            name, _, _, parent, _, _, counts, key = span
            a = agg[name]
            a["calls"] += 1
            a["self_s"] += self_s
            for c, v in counts.items():
                a[c] = a.get(c, 0) + v
            if key is not None:
                a["repeats"] += key in seen[name]
                seen[name].add(key)
            if name == "chars.GAElem.div_exact" and parent is not None:
                agg[self.spans[parent][0]]["stages"] += 1
        out = {}
        for key, (stats, _, _) in LAYERS.items():
            name = layer_name(key)
            a = agg[name]
            for stat in stats:
                if stat == "kept_ratio":
                    base = a.get("orbit_terms", a.get("term_pairs", 0))
                    value = a.get("out_terms", 0) / base if base else 0.0
                elif stat == "repeat_ratio":
                    value = a["repeats"] / a["calls"] if a["calls"] else 0.0
                else:
                    value = a.get(stat, 0)
                out[f"{name}.{stat}"] = value
        return out

    def top_level(self, clock) -> dict[str, dict[str, float]]:
        """Inclusive time on ``clock`` of the calls the benchmark itself
        made, by item system and layer: where each system's time goes."""
        out: dict[str, dict[str, float]] = {}
        for name, t0, t1, parent, run, item, _, _ in self.spans:
            if parent is None and item is not None:
                system = f"{run}:{item.split('-')[0]}"
                row = out.setdefault(system, {})
                row[name] = row.get(name, 0.0) + clock(t1) - clock(t0)
        return out
