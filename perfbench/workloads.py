"""Seeded inputs and exactly checked items for the qcasimir benchmark.

``make_inputs`` turns (workload, seed) into plain JSON data without touching
qcasimir, so the same seed gives byte-identical inputs in any process.
``build_items`` turns that data into checks: callables returning pairs that
must be exactly equal.  Items call qcasimir through the package namespace at
call time (``qc.weyl_character``), so a traced run sees every call.

Item order is fixed: groups (systems) as listed, then k, weight or point
ascending.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("blocks", "spectrum", "characters")

# blocks: (type, rank, k values).  Each (system, k) gives two items, one per
# criterion, so that the workload has enough items for a tail percentile.
BLOCKS = (
    ("B", 4, range(0, 4)),
    ("C", 4, range(0, 4)),
    ("D", 4, range(0, 5)),
    ("D", 5, range(2, 3)),
)

# spectrum: (type, rank, weights, points).  Bodies are built once per system
# and then evaluated at many exact points.
SPECTRUM = (
    ("B", 3, 10, 3),
    ("C", 3, 10, 3),
    ("D", 4, 10, 3),
    ("B", 4, 10, 3),
    ("C", 4, 10, 3),
)
SPECTRUM_MAX_COORD = 3
EIGEN_S = (2, 3)

# characters: (type, rank, max |lambda| on the integral grid, max |lambda|
# before a spin or half-spin shift).  Every candidate weight is checked once;
# seeded draws with replacement add repeats on top.
CHARACTERS = (
    ("B", 4, 4, 2),
    ("C", 4, 4, 0),
    ("D", 4, 4, 2),
    ("D", 5, 2, 1),
)
REPEAT_SHARE = 0.25

# -- samplers -------------------------------------------------------------


def is_pole(lie: str, dbl: tuple[int, ...]) -> bool:
    """True where the explicit eigenvalue sum has a genuine pole: the last
    coordinate 0 in types B and D, or +-1/2 on the half-spin grid of D."""
    last = dbl[-1]
    if lie == "B":
        return last == 0
    if lie == "D":
        return abs(last) == (1 if last % 2 else 0)
    return False


def weight_candidates(lie: str, n: int) -> list[tuple[int, ...]]:
    """Dominant weights (doubled coordinates) with coordinates up to
    SPECTRUM_MAX_COORD on every grid of the type (both signs of the last
    coordinate in D), minus the genuine poles; smallest first."""
    out = set()
    for shift in (0, 1) if lie in "BD" else (0,):  # integral, spin grid
        for coords in itertools.combinations_with_replacement(
            range(SPECTRUM_MAX_COORD, -1, -1), n
        ):
            dbl = tuple(2 * c + shift for c in coords)
            out.add(dbl)
            if lie == "D":
                out.add(dbl[:-1] + (-dbl[-1],))
    return sorted((d for d in out if not is_pole(lie, d)),
                  key=lambda d: (sum(map(abs, d)), d))


def sample_weights(lie: str, n: int, count: int, rng: random.Random) -> list[list[int]]:
    """``count`` weights drawn with replacement, two from each of count/2
    equal strata of the candidates ordered by size, so that the sizes, and
    with them the cost of exact evaluation, barely depend on the seed."""
    cands = weight_candidates(lie, n)
    strata = count // 2
    out = []
    for i in range(strata):
        stratum = cands[i * len(cands) // strata:(i + 1) * len(cands) // strata]
        out += [list(rng.choice(stratum)) for _ in range(2)]
    return sorted(out)


# Small primes keep the height of every sampled rational alike, so the cost
# of exact evaluation barely depends on the seed.
_PRIMES = (2, 3, 5, 7)


def sample_s(rng: random.Random) -> Fraction:
    """q^(1/4) as a positive rational; only q = 1 is excluded."""
    while True:
        s = Fraction(rng.choice(_PRIMES[:3]), rng.choice(_PRIMES[:2]))
        if s != 1:
            return s


def sample_point(n: int, rng: random.Random) -> list[Fraction]:
    """Positive rational values u_i of e^(eps_i/2).  Only the genuine poles
    are excluded: L_a = L_b for a != b (u_i = u_j or u_i u_j = 1) and
    L_a = 1/L_a (u_i = 1)."""
    while True:
        u = [Fraction(rng.choice(_PRIMES), rng.choice(_PRIMES)) for _ in range(n)]
        clash = any(
            u[i] == u[j] or u[i] * u[j] == 1
            for i in range(n)
            for j in range(i + 1, n)
        )
        if not clash and all(x != 1 for x in u):
            return u


def _partitions(total_max: int, max_len: int) -> list[tuple[int, ...]]:
    out = []

    def rec(rest, top, cur):
        if cur:
            out.append(tuple(cur))
        for p in range(min(rest, top), 0, -1):
            if len(cur) < max_len:
                rec(rest - p, p, cur + [p])

    rec(total_max, total_max, [])
    return sorted(out)


def _character_candidates(lie: str, n: int, int_max: int, spin_max: int) -> list[dict]:
    cands = []
    for parts in _partitions(int_max, n):
        dbl = [2 * p for p in parts] + [0] * (n - len(parts))
        cands.append({"dbl": dbl, "parts": list(parts)})
    if lie in "BD":
        for parts in [()] + _partitions(spin_max, n):
            dbl = [2 * p + 1 for p in parts] + [1] * (n - len(parts))
            cands.append({"dbl": dbl, "parts": None})
            if lie == "D":
                cands.append({"dbl": dbl[:-1] + [-dbl[-1]], "parts": None})
    return cands


# -- inputs -----------------------------------------------------------------


def _blocks_group(lie, n, ks):
    return {"kind": "blocks", "type": lie, "rank": n, "ks": list(ks)}


def _spectrum_group(lie, n, weights, points, rng):
    ws = sample_weights(lie, n, weights, rng)
    pts = []
    for _ in range(points):
        s = sample_s(rng)
        pts.append({"s": str(s), "x": [str(u) for u in sample_point(n, rng)]})
    return {
        "kind": "spectrum", "type": lie, "rank": n,
        "ells": list(range(1, n + 1)), "ks": list(range(0, n + 1)),
        "eigen_s": list(EIGEN_S), "weights": ws, "points": pts,
    }


def _characters_group(lie, n, int_max, spin_max, rng):
    cands = _character_candidates(lie, n, int_max, spin_max)
    extra = [rng.choice(cands) for _ in range(round(REPEAT_SHARE * len(cands)))]
    entries = []
    for c in sorted(cands + extra, key=lambda c: c["dbl"]):
        entry = dict(c)
        if c["parts"] is None:
            entry["point"] = [str(u) for u in sample_point(n, rng)]
        entries.append(entry)
    if lie == "B":
        basis_ks = list(range(1, n))
    elif lie == "C":
        basis_ks = list(range(1, n + 1))
    else:
        basis_ks = list(range(1, n - 1)) + [n]
    return {"kind": "characters", "type": lie, "rank": n,
            "weights": entries, "basis_ks": basis_ks}


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs as plain data; a function of (workload, seed)."""
    rng = random.Random(f"qcasimir-bench:{workload}:{seed}")
    if workload == "blocks":
        groups = [_blocks_group(*g) for g in BLOCKS]
    elif workload == "spectrum":
        groups = [_spectrum_group(*g, rng) for g in SPECTRUM]
    elif workload == "characters":
        groups = [_characters_group(*g, rng) for g in CHARACTERS]
    elif workload == "tiny":  # B2 probe of traced passes, and the self-test
        groups = [
            _blocks_group("B", 2, range(0, 3)),
            {"kind": "division", "type": "B", "rank": 2, "ks": [2]},
            _spectrum_group("B", 2, 2, 1, rng),
            _characters_group("B", 2, 1, 0, rng),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "groups": groups}


def canonical(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def digest(inputs: dict) -> str:
    return hashlib.sha256(canonical(inputs)).hexdigest()


def summary(inputs: dict) -> dict:
    """Per-workload input summary: systems, k ranges, weight and point
    counts, largest coordinate and the share of repeated weights."""
    systems, ks, weights, points, coords = [], [], [], 0, [0]
    for g in inputs["groups"]:
        systems.append(f"{g['type']}{g['rank']}")
        if "ks" in g:
            ks.append(f"{g['type']}{g['rank']}:{g['ks'][0]}..{g['ks'][-1]}")
        for w in g.get("weights", []):
            dbl = w["dbl"] if isinstance(w, dict) else w
            weights.append((g["type"], g["rank"], tuple(dbl)))
            coords.extend(abs(d) for d in dbl)
        points += len(g.get("points", [])) + sum(
            1 for w in g.get("weights", []) if isinstance(w, dict) and "point" in w
        )
    return {
        "systems": systems,
        "k_ranges": ks,
        "weights": len(weights),
        "points": points,
        "max_coord": str(Fraction(max(coords), 2)),
        "repeat_share": round(1 - len(set(weights)) / len(weights), 4) if weights else 0.0,
    }


# -- items ------------------------------------------------------------------


def build_items(inputs: dict) -> list[tuple[str, object]]:
    """[(label, check)] where check() returns [(actual, expected), ...]."""
    import qcasimir as qc

    items = []
    for g in inputs["groups"]:
        rs = qc.build_root_system(qc.LieType(g["type"]), g["rank"])
        name = f"{g['type']}{g['rank']}"
        items.extend(_KINDS[g["kind"]](qc, rs, name, g))
    return items


def _blocks_items(qc, rs, name, g):
    """Two items per k: the two routes agree (criterion 3), then
    Delta * hooks = q^(c_n - 1) A(H_{n,k}) (+ q^-k Delta in type B)
    (criterion 2)."""
    def routes(k):
        return [(qc.ch_g_via_antisym(rs, k).body, qc.ch_g_via_hooks(rs, k).body)]

    def identity(k):
        delta = qc.weyl_denominator(rs)
        lhs = delta * qc.ch_g_via_hooks(rs, k).body
        rhs = qc.antisymmetrize(qc.h_element(rs, k), rs).scale(
            qc.QLaurent.monomial(4 * (rs.c_n - 1))
        )
        if rs.lie_type is qc.LieType.B:
            rhs = rhs + delta.scale(qc.QLaurent.monomial(-4 * k))
        return [(lhs, rhs)]

    items = []
    for k in g["ks"]:
        items.append((f"{name}-routes-k{k}", lambda k=k: routes(k)))
        items.append((f"{name}-identity-k{k}", lambda k=k: identity(k)))
    return items


def _division_items(qc, rs, name, g):
    """Delta * G divided back by Delta in one shot, through the division
    path for q-dependent coefficients."""
    def check(k):
        body = qc.ch_g_via_hooks(rs, k).body
        delta = qc.weyl_denominator(rs)
        return [((delta * body).div_exact(delta), body)]

    return [(f"{name}-div-k{k}", lambda k=k: check(k)) for k in g["ks"]]


def _spectrum_items(qc, rs, name, g):
    pts = [(Fraction(p["s"]), [Fraction(u) for u in p["x"]]) for p in g["points"]]
    lams = [qc.Weight(tuple(w)) for w in g["weights"]]
    items = []
    for k in g["ks"]:
        for i, (s, x) in enumerate(pts):
            items.append((f"{name}-g-k{k}-p{i}", lambda k=k, s=s, x=x: [(
                qc.g_rational_eval(rs, k, s, x),
                qc.ch_g_via_antisym(rs, k).body.evaluate(s, x),
            )]))
    for ell in g["ells"]:
        for i, (s, x) in enumerate(pts):
            items.append((f"{name}-c0-l{ell}-p{i}", lambda ell=ell, s=s, x=x: [(
                qc.c0_rational_eval(rs, ell, s, x),
                qc.hc_value(rs, ell, s, x),
            )]))
    for ell in g["ells"]:
        for i, lam in enumerate(lams):
            for s in g["eigen_s"]:
                items.append((f"{name}-eig-l{ell}-w{i}-s{s}", lambda ell=ell, lam=lam, s=s: [(
                    qc.eigenvalue_direct(rs, lam, ell, s),
                    qc.eigenvalue_via_hc(rs, lam, ell, s),
                )]))
    return items


def _characters_items(qc, rs, name, g):
    n = rs.rank
    ones = [1] * n

    def check(entry):
        lam = qc.Weight(tuple(entry["dbl"]))
        chi = qc.weyl_character(rs, lam)
        pairs = [(chi.evaluate(1, ones), qc.weyl_dimension(rs, lam))]
        parts = entry["parts"]
        if parts is None:
            # Weyl's formula at an exact point: chi * A(rho) = A(lam + rho)
            x = [Fraction(u) for u in entry["point"]]
            delta = qc.weyl_denominator(rs)
            pairs.append((
                chi.evaluate(1, x) * delta.evaluate(1, x),
                qc.alternant(rs, lam + rs.rho).evaluate(1, x),
            ))
            return pairs
        expected = chi
        if rs.lie_type is qc.LieType.D and len(parts) == n:
            # the halved determinant is chi(lam) + chi(lam bar) here
            bar = qc.Weight(lam.dbl[:-1] + (-lam.dbl[-1],))
            expected = chi + qc.weyl_character(rs, bar)
        pairs.append((qc.jt_character(rs, tuple(parts), "ga"), expected))
        return pairs

    def basis():
        sol = qc.triangular_solve(rs)
        return [(qc.round_trip_ok(rs, sol, k), True) for k in g["basis_ks"]]

    items = []
    for e in g["weights"]:
        label = f"{name}-chi-" + ",".join(map(str, e["dbl"]))
        items.append((label, lambda e=e: check(e)))
    items.append((f"{name}-basis", basis))
    return items


_KINDS = {
    "blocks": _blocks_items,
    "division": _division_items,
    "spectrum": _spectrum_items,
    "characters": _characters_items,
}
