"""Machine-checked verification suites.

Every identity the package implements is re-derived here through at least
two independent routes and compared exactly (tolerance zero everywhere).
Each check returns a case record {id, status, detail}; suites aggregate the
records into the reports emitted by the command line and asserted by the
acceptance tests.

Randomized checks draw from a seeded generator; identical (configuration,
seed) pairs produce byte-identical reports.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from types import SimpleNamespace

from .casimir import (
    c0_rational_eval,
    ch_g_via_antisym,
    ch_g_via_hooks,
    chamber_form,
    closed_form_g0,
    closed_form_g1,
    constituents,
    eigenvalue_direct,
    eigenvalue_via_hc,
    g_rational_eval,
    hc_at_weight,
    hc_combination,
    hc_denominator,
    hc_value,
    hook_chamber,
)
from .chars import (
    GAElem,
    alternant,
    antisymmetrize,
    enumerate_weyl,
    is_w_invariant,
    straighten,
    weyl_denominator,
)
from .ebasis import (
    CERTIFICATE_FAILURES,
    HalvingFailed,
    expected_leading_coeff,
    generation_certificate,
    jt_character,
    round_trip_ok,
    triangular_solve,
)
from .exact import EPoly, NotDivisible, QLaurent, det_bareiss, det_cofactor
from .roots import (
    LieType,
    RootSystem,
    Weight,
    build_root_system,
    eps,
    partition_to_weight,
    pairing,
)

IN_SCOPE: tuple[tuple[LieType, int], ...] = (
    (LieType.B, 2),
    (LieType.B, 3),
    (LieType.B, 4),
    (LieType.C, 3),
    (LieType.C, 4),
    (LieType.D, 4),
    (LieType.D, 5),
)


def in_scope_systems(
    lie: LieType | None = None, rank: int | None = None
) -> list[RootSystem]:
    systems = []
    for t, n in IN_SCOPE:
        if lie is not None and t is not lie:
            continue
        if rank is not None and n != rank:
            continue
        systems.append(build_root_system(t, n))
    return systems


def _case(cid: str, ok: bool, detail: str = "") -> dict:
    return {"id": cid, "status": "pass" if ok else "fail", "detail": detail}


def _name(rs: RootSystem) -> str:
    return f"{rs.lie_type.value}{rs.rank}"


# -- identities -------------------------------------------------------------


def denominator_cases(systems) -> list[dict]:
    """The denominator, the rho-alternant, equals the product of
    (e^(alpha/2) - e^(-alpha/2)) over the positive roots."""
    out = []
    for rs in systems:
        product = GAElem.one(rs.rank)
        for alpha in rs.positive_roots:
            # the doubled coordinates of alpha/2 are alpha's own coordinates
            half = Weight(tuple(d // 2 for d in alpha.dbl))
            product = product * (GAElem.exponential(half) - GAElem.exponential(-half))
        out.append(_case(f"denominator-{_name(rs)}", product == weyl_denominator(rs)))
    return out


def chamber_failure(rs: RootSystem, g: GAElem, chamber: GAElem) -> str:
    """Check that g = sum over nu of c_nu chi_{nu - rho} for the chamber
    form ``chamber`` = {nu: c_nu}; return why it fails, or "" when it holds.

    By Weyl's formula this is Delta * g = sum over nu of c_nu A(e^nu), and
    for a W-invariant g, Delta * g = A(e^rho * g): it holds exactly when g
    is W-invariant and e^rho * g straightens to ``chamber``.  The premise
    comes first: a g that is not W-invariant could still straighten to the
    same coefficients (add e^mu with mu + rho on a wall).
    """
    if not is_w_invariant(g, rs):
        return "block is not W-invariant"
    if straighten(g.shift(rs.rho), rs) != chamber:
        return "chamber coefficients differ"
    return ""


def block_identity_cases(systems) -> list[dict]:
    """Delta times the hook-route block equals q^{c_n-1} times the antisymmetrized
    auxiliary element, plus q^{-k} Delta for the zero weight of I' (type B),
    checked in the dominant chamber by :func:`chamber_failure`."""
    out = []
    for rs in systems:
        for k in range(rs.rank + 3):
            g = ch_g_via_hooks(rs, k).body
            why = chamber_failure(rs, g, chamber_form(rs, k))
            out.append(_case(f"block-identity-{_name(rs)}-k{k}", not why, why))
    return out


def route_cases(systems) -> list[dict]:
    """Antisymmetrizer route equals the hook route for every block, as
    chamber forms (characters are linearly independent)."""
    out = []
    for rs in systems:
        for k in range(rs.rank + 3):
            ok = chamber_form(rs, k) == hook_chamber(rs, k)
            out.append(_case(f"routes-{_name(rs)}-k{k}", ok))
    return out


def closed_form_cases(systems) -> list[dict]:
    """The k = 0 and k = 1 blocks match their displayed closed forms."""
    out = []
    for rs in systems:
        ok0 = ch_g_via_antisym(rs, 0).body == closed_form_g0(rs)
        ok1 = ch_g_via_antisym(rs, 1).body == closed_form_g1(rs)
        out.append(_case(f"closed-form-{_name(rs)}-k0", ok0))
        out.append(_case(f"closed-form-{_name(rs)}-k1", ok1))
    return out


# -- numeric oracles ---------------------------------------------------------


def _draw_half_point(rs: RootSystem, rng: random.Random) -> list[Fraction]:
    """Distinct rationals in (1, 3) for the values of e^{eps_i/2}; their
    squares (the L variables) are then distinct in (1, 9) and never collide
    with their inverses."""
    nums = rng.sample(range(21, 60), rs.rank)
    return [Fraction(v, 20) for v in nums]


_S_CYCLE = (Fraction(2), Fraction(3), Fraction(5, 2))


def _oracle_case(cid: str, rs: RootSystem, rng, points: int, oracle, symbolic) -> dict:
    """oracle(s, pt) == symbolic(s, pt) at ``points`` drawn points, s
    cycling through _S_CYCLE."""
    bad = 0
    for i in range(points):
        pt = _draw_half_point(rs, rng)
        s = _S_CYCLE[i % len(_S_CYCLE)]
        if oracle(s, pt) != symbolic(s, pt):
            bad += 1
    return _case(cid, bad == 0, f"{points - bad}/{points} exact matches")


def oracle_cases(systems, points: int = 20, seed: int = 0) -> list[dict]:
    """Raw rational forms agree with the symbolic constructions at random
    exact points: the blocks for k <= n and the torus images for ell <= n."""
    out = []
    for rs in systems:
        rng = random.Random((seed, _name(rs)).__repr__())
        for k in range(rs.rank + 1):
            out.append(_oracle_case(
                f"oracle-block-{_name(rs)}-k{k}", rs, rng, points,
                partial(g_rational_eval, rs, k), ch_g_via_antisym(rs, k).body.evaluate,
            ))
        for ell in range(1, rs.rank + 1):
            out.append(_oracle_case(
                f"oracle-image-{_name(rs)}-ell{ell}", rs, rng, points,
                partial(c0_rational_eval, rs, ell), partial(hc_value, rs, ell),
            ))
    return out


def _hc_weights(rs: RootSystem) -> list[Weight]:
    """Dominant weights with coordinates in {0, 1, 2} and, when there are spin
    indices (B, D), in {1/2, 3/2, 5/2}; type D takes both signs of the last."""
    grids = [(4, 2, 0), (5, 3, 1)] if rs.spin_indices else [(4, 2, 0)]
    out = []
    for grid in grids:
        for dbl in combinations_with_replacement(grid, rs.rank):
            out.append(Weight(dbl))
            if rs.lie_type is LieType.D and dbl[-1]:
                out.append(Weight(dbl[:-1] + (-dbl[-1],)))
    return out


def hc_cases(systems) -> list[dict]:
    """Exact divisibility of the specialised binomial combination, its
    classical limit, and invariance and integral support of the combination.

    The combination is (q^{-1} - q)^ell times the torus image, but it is not
    divisible by (q^{-1} - q)^ell coefficient by coefficient: at q = 1 it
    equals sum over a of (1 - e^{eps_a})^ell, which the ``hc-classical``
    cases assert, while the divisor vanishes there.  The normalisation is
    integral only on eigenvalues: since Gamma = (R^T R - 1)/(q - q^{-1})
    lies in the integral form, substituting e^{eps_a} := q^{2(lam+rho,
    eps_a)} for a dominant weight lam gives a Laurent polynomial divisible
    exactly by (q^{-1} - q)^ell when lam is integral and by
    (q^{-1/2} - q^{1/2})^ell on the spin grid (types B and D), where the
    full power does not divide.  The ``hc-divisible`` cases run that exact
    division on every weight of :func:`_hc_weights`.
    """
    half = QLaurent({-2: 1, 2: -1})  # q^{-1/2} - q^{1/2}
    out = []
    for rs in systems:
        weights = _hc_weights(rs)
        one = GAElem.one(rs.rank)
        for ell in range(1, rs.rank + 1):
            comb_body = hc_combination(rs, ell)
            full, spin = hc_denominator(ell), half**ell
            divisible = 0
            for lam in weights:
                den = full if lam.is_integral() else spin
                try:
                    hc_at_weight(rs, ell, lam).div_exact(den)
                    divisible += 1
                except NotDivisible:
                    pass
            out.append(
                _case(
                    f"hc-divisible-{_name(rs)}-ell{ell}",
                    divisible == len(weights),
                    f"{divisible}/{len(weights)} weights",
                )
            )
            at_one = {
                w: QLaurent.rational(c.evaluate(1))
                for w, c in comb_body._per_weight().items()
            }
            expected = GAElem.zero(rs.rank)
            for a in rs.iprime:
                e_a = GAElem.exponential(eps(rs.rank, a))
                expected = expected + (one - e_a) ** ell
            out.append(
                _case(
                    f"hc-classical-{_name(rs)}-ell{ell}",
                    GAElem(rs.rank, at_one) == expected,
                )
            )
            out.append(
                _case(
                    f"hc-invariant-{_name(rs)}-ell{ell}",
                    is_w_invariant(comb_body, rs)
                    and comb_body.has_integral_support(),
                )
            )
    return out


# -- eigenvalues --------------------------------------------------------------


def sample_dominant_weight(rs: RootSystem, rng: random.Random) -> Weight:
    """Random dominant weight with coordinates bounded by 3; half-grid
    (spin) shifts are mixed in for types B and D, whose lattices contain
    them.  Every draw is kept: no dominant weight is a pole of the
    eigenvalue."""
    coords = sorted((rng.randint(0, 3) for _ in range(rs.rank)), reverse=True)
    dbl = [2 * c for c in coords]
    if rs.lie_type is LieType.B and rng.random() < 0.4:
        dbl = [d + 1 for d in dbl]  # spin shift: all coords + 1/2
    elif rs.lie_type is LieType.D:
        if rng.random() < 0.3:
            dbl = [d + 1 for d in dbl]  # half-spin grid
        if rng.random() < 0.5:
            dbl[-1] = -dbl[-1]
    return Weight(tuple(dbl))


def eigen_cases(systems, seed: int = 0) -> list[dict]:
    """The raw rational torus image at the highest weight
    (:func:`eigenvalue_direct`) agrees with the symbolic torus image
    specialized there, for ten random dominant weights, every order up to
    the rank, and two bases."""
    out = []
    for rs in systems:
        rng = random.Random((seed, "eig", _name(rs)).__repr__())
        weights = [sample_dominant_weight(rs, rng) for _ in range(10)]
        for ell in range(1, rs.rank + 1):
            mismatches = sum(
                eigenvalue_direct(rs, lam, ell, s) != eigenvalue_via_hc(rs, lam, ell, s)
                for lam in weights
                for s in (2, 3)
            )
            out.append(
                _case(
                    f"eigen-{_name(rs)}-ell{ell}",
                    not mismatches,
                    f"{len(weights) * 2 - mismatches}/{len(weights) * 2} weights agree",
                )
            )
    return out


# -- determinantal identities -------------------------------------------------


def _partitions_bounded(total_max: int, max_len: int):
    out = []

    def rec(rest, maxpart, cur):
        if cur:
            out.append(tuple(cur))
        if len(cur) < max_len:
            for p in range(min(rest, maxpart), 0, -1):
                rec(rest - p, p, cur + [p])

    rec(total_max, total_max, [])
    return sorted(out)


def jt_cases(systems) -> list[dict]:
    """Determinant form equals the Weyl character: all partitions with at
    most n parts and size at most 5, and all hooks with arm length at most 3.

    For type D partitions with exactly n nonzero parts (including hooks with
    r = n-1) the determinant is the O(2n) character restricted to SO(2n),
    the sum chi(lam) + chi(lam-bar) of the character and its mirror with the
    last coordinate negated (Koike-Terada), so that sum is the expected
    value there.  :func:`chamber_failure` checks Weyl's formula in
    numerator form, A(e^rho * jt) = A(e^(lam + rho)) (plus the mirror), so
    no character is expanded and nothing is divided.
    """
    out = []
    for rs in systems:
        n = rs.rank
        shapes = set(_partitions_bounded(5, n))
        for r in range(0, n):
            for arm in (1, 2, 3):
                shapes.add((arm,) + (1,) * r)
        for parts in sorted(shapes):
            try:
                jt = jt_character(rs, parts, target="ga")
                lam = partition_to_weight(rs, parts)
                chamber = GAElem.exponential(lam + rs.rho)
                if rs.lie_type is LieType.D and len(parts) == n:
                    mirror = Weight(lam.dbl[:-1] + (-lam.dbl[-1],))
                    chamber = chamber + GAElem.exponential(mirror + rs.rho)
                detail = chamber_failure(rs, jt, chamber)
                ok = not detail
            except HalvingFailed as exc:
                ok, detail = False, f"halving failed: {exc}"
            out.append(_case(f"jt-{_name(rs)}-{','.join(map(str, parts))}", ok, detail))
    return out


def basis_cases(systems) -> list[dict]:
    """Triangular change of basis: solve through n minus the number of spin
    indices (n for C, n-1 for B, n-2 for D, plus k = n in type D), exact
    round trips of the solved (num, den) pairs, the leading pair of every
    solution against the printed b_k (the G_k coefficient of num_k times b_k
    is den_k, so c_k = 1/b_k is nonzero), and the whole first pair,
    E_1 = G_1 / q^{c_n-1}."""
    out = []
    for rs in systems:
        n = rs.rank
        sol = triangular_solve(rs)
        ks = list(range(1, n + 1 - len(rs.spin_indices)))
        if rs.lie_type is LieType.D:
            ks.append(n)
        for k in ks:
            out.append(
                _case(
                    f"basis-roundtrip-{_name(rs)}-k{k}", round_trip_ok(rs, sol, k)
                )
            )
        # c_k = (G_k coefficient of num_k) / den_k = 1 / b_k, so c_k != 0
        nonzero = all(
            den
            and num.coeff(tuple(int(i == k) for i in range(1, n + 1)))
            * expected_leading_coeff(rs, k)
            == den
            for k, (num, den) in enumerate(sol, 1)
        )
        out.append(_case(f"basis-nonzero-coeffs-{_name(rs)}", nonzero))
        ok1 = sol[0] == (EPoly.symbol(n, 1), QLaurent.monomial(4 * (rs.c_n - 1)))
        out.append(_case(f"basis-c1-{_name(rs)}", ok1))
    return out


def certificate_cases(systems) -> list[dict]:
    """Generation certificates with the expected extra generators."""
    expected_extras = {LieType.B: 1, LieType.C: 0, LieType.D: 2}
    out = []
    for rs in systems:
        try:
            rep = generation_certificate(rs)
            ok = len(rep["extra_generators"]) == expected_extras[rs.lie_type]
            detail = "extras: " + ",".join(
                str(g["index"]) for g in rep["extra_generators"]
            )
        except CERTIFICATE_FAILURES as exc:  # CertificateFailed names the identity
            ok, detail = False, str(exc)
        out.append(_case(f"certificate-{_name(rs)}", ok, detail))
    return out


def stability_cases(
    max_rank: int | None = None, lie: LieType | None = None
) -> list[dict]:
    """Normalized constituent lists agree across all in-scope ranks (up to
    ``max_rank``), for the type ``lie`` or for all three, as computed by
    the antisymmetrizer route."""
    out = []
    types = (LieType.B, LieType.C, LieType.D) if lie is None else (lie,)
    for lie in types:
        ranks = [n for t, n in IN_SCOPE if t is lie]
        if max_rank is not None:
            ranks = [n for n in ranks if n <= max_rank]
        for k in range(1, 5):
            admissible = [
                n for n in ranks if (n > k if lie is LieType.D else n >= k)
            ]
            if not admissible:
                continue
            sets = [
                constituents(build_root_system(lie, n), k) for n in admissible
            ]
            ok = all(s == sets[0] for s in sets)
            out.append(
                _case(
                    f"stability-{lie.value}-k{k}",
                    ok,
                    f"ranks {','.join(map(str, admissible))}",
                )
            )
    return out


# -- property bundle (fixed-seed forms of the module invariants) -------------


def property_cases(seed: int = 0) -> list[dict]:
    rng = random.Random((seed, "props").__repr__())
    out = []

    def rand_ql(max_terms=4):
        return QLaurent(
            {
                rng.randint(-8, 8): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(rng.randint(0, max_terms))
            }
        )

    # ring axioms and division round trip
    ok_ring = ok_div = ok_hom = True
    for _ in range(50):
        a, b, c = rand_ql(), rand_ql(), rand_ql()
        if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c):
            ok_ring = False
        if b:
            if (a * b).div_exact(b) != a:
                ok_div = False
        s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        if (a * b).evaluate(s) != a.evaluate(s) * b.evaluate(s) or (
            a + b
        ).evaluate(s) != a.evaluate(s) + b.evaluate(s):
            ok_hom = False
    out.append(_case("props-ring-axioms", ok_ring))
    out.append(_case("props-division-roundtrip", ok_div))
    out.append(_case("props-eval-homomorphism", ok_hom))

    # determinant cross-check, sizes up to 5
    ok_det = True
    for size in range(1, 6):
        m = [[rand_ql(2) for _ in range(size)] for _ in range(size)]
        if det_cofactor(m) != det_bareiss(m):
            ok_det = False
    out.append(_case("props-det-agreement", ok_det))

    # alternating property and the vanishing of alternants on walls
    rs = build_root_system(LieType.B, 3)
    group = enumerate_weyl(rs)
    x = GAElem(
        3,
        {
            (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)): rand_ql(2)
            for _ in range(4)
        },
    )
    ax = antisymmetrize(x, rs)
    ok_alt = all(ax.act(w) == ax.scale(QLaurent({0: w.sgn()})) for w in group)
    out.append(_case("props-alternating", ok_alt))

    ok_vanish = True
    for _ in range(50):
        alpha = rng.choice(rs.positive_roots)
        # random weight forced onto the wall (lam, alpha) = 0: tie or zero
        # the coordinates alpha touches
        dbl = [2 * rng.randint(-4, 4) for _ in range(rs.rank)]
        touched = [i for i, a in enumerate(alpha.dbl) if a]
        if len(touched) == 1:
            dbl[touched[0]] = 0
        else:
            i, j = touched
            dbl[j] = dbl[i] if alpha.dbl[i] != alpha.dbl[j] else -dbl[i]
        lam = Weight(tuple(dbl))
        if pairing(lam, alpha) != 0 or not alternant(rs, lam).is_zero():
            ok_vanish = False
    out.append(_case("props-alternant-vanishes-on-walls", ok_vanish))

    # the cosets of eps_1's stabilizer tile the group (types B and D): equal
    # fibres over the images of eps_1, one per eps_a with 0 != a in I'
    for lie, n in ((LieType.B, 3), (LieType.D, 4)):
        rsn = build_root_system(lie, n)
        group = enumerate_weyl(rsn)
        fibres: dict[Weight, list] = {}
        for w in group:
            fibres.setdefault(w.apply(eps(n, 1)), []).append(w)
        stab = [w for w in group if w.perm[0] == 1 and w.signs[0] == 1]
        ok_tile = (
            set(fibres) == {eps(n, a) for a in rsn.iprime if a}
            and fibres.get(eps(n, 1)) == stab
            and all(len(f) == len(stab) for f in fibres.values())
        )
        out.append(_case(f"props-coset-tiling-{lie.value}{n}", ok_tile))

    # cleared-denominator unit identity behind the rational forms
    ok_unit = True
    for n in (2, 3):
        lhs = GAElem.constant(n, QLaurent.q_power(2 * n))
        rhs = GAElem.one(n)
        for i in range(1, n + 1):
            for sgn_ in (1, -1):
                e = GAElem.exponential(eps(n, i * sgn_), QLaurent.q_power(-1))
                lhs = lhs * (GAElem.one(n) - e)
                e = GAElem.exponential(eps(n, i * sgn_), QLaurent.q_power(1))
                rhs = rhs * (GAElem.one(n) - e)
        if lhs != rhs:
            ok_unit = False
    out.append(_case("props-unit-product-identity", ok_unit))
    return out


# -- suite assembly -----------------------------------------------------------


def _theorem_cases(systems, run) -> list[dict]:
    cases = closed_form_cases(systems) + block_identity_cases(systems)
    return cases + route_cases(systems)


# One row per suite, in the order ``all`` runs them: the type it covers (None:
# every type), the options it takes besides --type and --seed, and its cases,
# a function of the selected systems s and the run's options r.
_SUITES = {
    "denominator": (None, ("--rank",), lambda s, r: denominator_cases(s)),
    "thm44": (LieType.B, ("--rank",), _theorem_cases),
    "thm45": (LieType.C, ("--rank",), _theorem_cases),
    "thm46": (LieType.D, ("--rank",), _theorem_cases),
    "torus": (None, ("--rank",), lambda s, r: hc_cases(s)),
    "oracle": (None, ("--rank", "--points"), lambda s, r: oracle_cases(s, r.points, r.seed)),
    "eigen": (None, ("--rank",), lambda s, r: eigen_cases(s, r.seed)),
    "jt": (None, ("--rank",), lambda s, r: jt_cases(s)),
    "basis": (None, ("--rank",), lambda s, r: basis_cases(s) + certificate_cases(s)),
    "stability": (None, ("--max-rank",), lambda s, r: stability_cases(r.max_rank, r.lie)),
}

SUITES = ("all", *_SUITES)

# the usage error for an option that no selected row takes
_REFUSALS = {
    "--points": "--points sets the oracle suite's sample; suite {} ignores it",
    "--rank": "suite {} compares ranks; bound them with --max-rank, not --rank",
    "--max-rank": "--max-rank bounds the stability suite; suite {} ignores it",
}


def run_suite(
    suite: str,
    lie: LieType | None = None,
    rank: int | None = None,
    points: int | None = None,
    seed: int = 0,
    max_rank: int | None = None,
) -> dict:
    """Run one suite and return {suite, seed, cases}.  ``all`` runs each row
    that covers ``lie`` and takes ``rank``, then the property cases.  ``points``
    (default 20) counts the exact points per oracle case."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "all":
        rows = [
            (t, options, cases)
            for t, options, cases in _SUITES.values()
            if (lie in (None, t) or t is None) and (rank is None or "--rank" in options)
        ]
    else:
        rows = [_SUITES[suite]]
    taken = {option for _, options, _ in rows for option in options}

    def refuse(option: str, value: int | None) -> None:
        if value is not None and option not in taken:
            raise ValueError(_REFUSALS[option].format(suite))

    # a command that breaks two rules reports the first in this order
    refuse("--points", points)
    points = 20 if points is None else points
    if points < 1:
        raise ValueError(f"points must be >= 1, not {points}")
    if (lie, rank) != (None, None) and not in_scope_systems(lie, rank):
        raise ValueError(
            f"no in-scope system has type {lie.value if lie else 'any'} "
            f"and rank {'any' if rank is None else rank}"
        )
    for t, _, _ in rows:
        if lie is not None and t not in (None, lie):
            raise ValueError(f"suite {suite} covers type {t.value}, not {lie.value}")
    refuse("--rank", rank)
    refuse("--max-rank", max_rank)
    run = SimpleNamespace(points=points, seed=seed, max_rank=max_rank, lie=lie)
    cases = []
    for t, _, row_cases in rows:
        cases += row_cases(in_scope_systems(t or lie, rank), run)
    if suite == "all":
        cases += property_cases(seed)
    if not cases:
        raise ValueError(f"suite {suite} selects no cases with these filters")
    return {"suite": suite, "seed": seed, "cases": cases}
