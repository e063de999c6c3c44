"""Exact evaluation at rational points, against literal Fraction oracles.

QLaurent.evaluate and GAElem.specialize sum integer multiples of powers
cleared to one common denominator, and divide at the end.  The raw
rational forms g_rational_eval and c0_rational_eval multiply integers and
build one Fraction per index; eigenvalue_direct is c0_rational_eval at
L_a = q^{2(lam + rho, eps_a)}.  The oracles below keep the plain Fraction
forms those kernels replaced: sum(c * s**e), the per-term product of point
powers, the Fraction bodies of the two rational forms, and the per-type
regrouped eigenvalue sum.  Each kernel must agree with its oracle exactly,
return a Fraction, and raise DegenerateEvaluation (or ValueError) on
exactly the same inputs with the same message.  Two oracles refuse more
than their kernel, and there the kernel must give the symbolic route's
value: the regrouped sum has poles of its own, and the literal rational
forms refuse L_a = 1/L_a in type D too, where nothing divides by it.
"""

import random
import re
from fractions import Fraction

import pytest

from qcasimir.casimir import (
    DegenerateEvaluation,
    c0_rational_eval,
    ch_g_via_antisym,
    eigenvalue_direct,
    eigenvalue_via_hc,
    g_rational_eval,
    hc_combination,
    hc_denominator,
    hc_value,
)
from qcasimir.chars import GridMismatch, weyl_character
from qcasimir.exact import QLaurent, _cleared_powers
from qcasimir.roots import LieType, Weight, build_root_system, eps, pairing

SYSTEMS = {
    "B2": build_root_system(LieType.B, 2),
    "B3": build_root_system(LieType.B, 3),
    "C3": build_root_system(LieType.C, 3),
    "D4": build_root_system(LieType.D, 4),
}
S_VALUES = (2, 3, Fraction(1, 2), -2, Fraction(3, 2))

# Dominant weights: spin weights in B, half-spin weights of both signs in D,
# and last coordinate 0 in B and D (a pole of the literal sum, none of the
# eigenvalue).
WEIGHTS = {
    "B2": ("0,0", "1,0", "2,1", "1/2,1/2", "3/2,1/2"),
    "B3": ("0,0,0", "2,1,0", "1,1,1", "3/2,1/2,1/2", "5/2,3/2,1/2"),
    "C3": ("0,0,0", "1,1,1", "2,1,0", "3,1,1"),
    "D4": (
        "0,0,0,0", "1,0,0,0", "2,1,1,1", "1,1,1,-1",
        "1/2,1/2,1/2,-1/2", "3/2,1/2,1/2,1/2",
    ),
}

# Points with negative entries and entries below 1.
POINTS = (
    (2, -3, Fraction(1, 2), Fraction(-2, 3)),
    (Fraction(5, 4), Fraction(1, 3), -1, 3),
)

# A q-dependent coefficient with Fraction entries, off the integer q grid.
Q_COEFF = QLaurent({-3: Fraction(2, 7), 0: Fraction(-1, 3), 5: 4})


def _weight(text):
    return Weight.from_coords([Fraction(p) for p in text.split(",")])


# -- the literal oracles ---------------------------------------------------


def literal_qlaurent_value(x, s):
    s = Fraction(s)
    return sum((c * s**e for (e,), c in x.terms.items()), Fraction(0))


def literal_specialize(x, half_point):
    acc = {}
    for key, c in x.terms.items():
        value = Fraction(c)
        for u, d in zip(half_point, key[:-1]):
            value *= Fraction(u) ** d
        acc[key[-1]] = acc.get(key[-1], 0) + value
    return QLaurent(acc)


def _literal_qdim_value(rs, s):
    q = Fraction(s) ** 4
    total = Fraction(0)
    for a in rs.iprime:
        total += q ** int(pairing(rs.rho.scale(2), eps(rs.rank, a)))
    return total


def literal_eigenvalue_direct(rs, lam, ell, s):
    rs.check_highest_weight(lam)
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0:
        return _literal_qdim_value(rs, s)
    q = Fraction(s) ** 4
    if q in (0, 1, -1):
        raise DegenerateEvaluation("q must avoid 0 and roots of unity")
    lam_rho = lam + rs.rho
    # pair_a = (eps_a, 2 rho + 2 lam + eps_a); its sign-flipped and zero slots
    def pair_a(a: int) -> int:
        if a == 0:
            return 0
        d = lam_rho.dbl[abs(a) - 1]
        return d + 1 if a > 0 else -d + 1

    def pair_b_minus(b: int) -> int:
        # (eps_b, 2 rho + 2 lam - eps_b)
        if b == 0:
            return 0
        d = lam_rho.dbl[abs(b) - 1]
        return d - 1 if b > 0 else -d - 1

    qdiff = q - 1 / q
    total = Fraction(0)
    for a in rs.iprime:
        ea_sq = 0 if a == 0 else 1
        aa = pair_a(a)
        # f(a)
        if a == 0:
            f = Fraction(1)
        else:
            den = q ** (2 * aa) - 1
            if den == 0:
                raise DegenerateEvaluation(f"f({a}) denominator vanishes")
            if rs.lie_type is LieType.B:
                f = 1 + qdiff * q**aa / den
            elif rs.lie_type is LieType.C:
                f = 1 + (1 - q ** (-2)) / den
            else:
                f = 1 - (q**2 - 1) / den
        term = q ** (rs.c_n - ea_sq) * f * ((q ** (aa - rs.c_n) - 1) / qdiff) ** ell
        qa = q**aa
        for b in rs.iprime:
            if b == a:
                continue
            den = qa - q ** pair_a(b)
            if den == 0:
                raise DegenerateEvaluation(
                    f"index pair ({a},{b}) collides at this weight"
                )
            term *= (qa - q ** pair_b_minus(b)) / den
        total += term
    return total


def _literal_l_table(rs, half_point):
    """L_a for a in {-n..-1,1..n} from the values of e^{eps_a/2}."""
    if len(half_point) != rs.rank:
        raise GridMismatch("point length differs from rank")
    table = {}
    for i, u in enumerate(half_point, start=1):
        u = Fraction(u)
        if u == 0:
            raise DegenerateEvaluation("zero point entry")
        table[i] = u * u
        table[-i] = 1 / (u * u)
    return table


def _literal_pref_and_p(rs, lvals, q, a):
    """prefactor(a) * P_{n,a} of the rational block form."""
    la = lvals[a]
    inv = 1 / la
    if la == inv:
        raise DegenerateEvaluation("L_a on the unit circle: L_a = 1/L_a")
    if rs.lie_type is LieType.B:
        pref = (q * la - inv / q + q - 1 / q) / (la - inv)
    elif rs.lie_type is LieType.C:
        pref = (q * q * la - inv / (q * q)) / (la - inv)
    else:
        pref = Fraction(1)
    prod = pref
    for b in lvals:
        if b == a or b == -a:
            continue
        den = la - lvals[b]
        if den == 0:
            raise DegenerateEvaluation(f"L_{a} collides with L_{b}")
        prod *= (q * la - lvals[b] / q) / den
    return prod


def literal_g_rational_eval(rs, k, s, half_point):
    if k < 0:
        raise ValueError("k must be >= 0")
    q = Fraction(s) ** 4
    if q == 0:
        raise DegenerateEvaluation("q = 0")
    lvals = _literal_l_table(rs, half_point)
    total = Fraction(0)
    for a in lvals:
        total += _literal_pref_and_p(rs, lvals, q, a) * lvals[a] ** k
    if rs.lie_type is LieType.B:
        total += q ** (-k)
    return total


def literal_c0_rational_eval(rs, ell, s, half_point):
    if ell < 1:
        raise ValueError("ell must be >= 1")
    q = Fraction(s) ** 4
    if q == 0:
        raise DegenerateEvaluation("q = 0")
    lvals = _literal_l_table(rs, half_point)
    qdiff = q - 1 / q
    if qdiff == 0:
        raise DegenerateEvaluation("q - 1/q = 0")
    n = rs.rank
    if rs.lie_type is LieType.B:
        shift = q ** (1 - 2 * n)
    elif rs.lie_type is LieType.C:
        shift = q ** (-2 * n)
    else:
        shift = q ** (2 - 2 * n)
    total = Fraction(0)
    for a in lvals:
        core = (shift * lvals[a] - 1) / qdiff
        total += _literal_pref_and_p(rs, lvals, q, a) * core**ell
    if rs.lie_type is LieType.B:
        total += ((q ** (-2 * n) - 1) / qdiff) ** ell
    return total


def _mask(message):
    """An error message with its digits masked, so that branches compare."""
    return re.sub(r"-?\d+", "#", message)


def outcome(f, *args):
    """The exact value (checked to be a Fraction), or the type and message
    of the error a degenerate or malformed input raises."""
    try:
        value = f(*args)
    except (DegenerateEvaluation, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    assert type(value) is Fraction
    return value


# -- the shared table --------------------------------------------------------


@pytest.mark.parametrize("x", [Fraction(3), Fraction(-2, 3), Fraction(5, 4), Fraction(1, 7)])
@pytest.mark.parametrize(
    "exps", [range(-5, 5), [0], range(2, 7), range(-6, -1), [-3, 0], [0, 3, 1], [-9, 4, 40]]
)
def test_cleared_powers_is_every_power_over_one_denominator(x, exps):
    t, num, den = _cleared_powers(x, exps)
    assert sorted(t) == sorted(set(exps))
    assert all(type(v) is int for v in t.values())
    for k in exps:
        assert Fraction(t[k] * num, den) == x**k


# -- QLaurent.evaluate -------------------------------------------------------


def test_evaluate_at_an_integer_with_negative_exponents_stays_a_fraction():
    # int ** negative is a float; the value must stay exact
    value = QLaurent({-4: -3, -8: -1, -3: -1}).evaluate(3)
    assert value == Fraction(-487, 6561)
    assert type(value) is Fraction


def _qlaurent_cases():
    rng = random.Random(12)
    cases = [QLaurent(), QLaurent({0: 5}), Q_COEFF, QLaurent({9: 1, 13: -2})]
    cases += [hc_denominator(ell) for ell in range(4)]
    for _ in range(12):
        cases.append(QLaurent({
            rng.randint(-20, 20): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for _ in range(rng.randint(1, 6))
        }))
    return cases


@pytest.mark.parametrize("s", S_VALUES + (1, -1))
def test_qlaurent_evaluate_matches_the_literal_sum(s):
    for x in _qlaurent_cases():
        value = x.evaluate(s)
        assert type(value) is Fraction
        assert value == literal_qlaurent_value(x, s)


# -- GAElem.specialize ---------------------------------------------------------


def _bodies(name):
    rs = SYSTEMS[name]
    bodies = [ch_g_via_antisym(rs, k).body for k in range(rs.rank + 1)]
    bodies.append(hc_combination(rs, 2))
    spin = "1/2," * (rs.rank - 1) + ("-1/2" if rs.lie_type is LieType.D else "1/2")
    if rs.lie_type is not LieType.C:
        bodies.append(weyl_character(rs, _weight(spin)))
    # q-dependent Fraction coefficients
    bodies += [b.scale(Q_COEFF) for b in bodies[1:3]]
    return bodies


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_specialize_matches_the_per_term_product(name):
    rank = SYSTEMS[name].rank
    for body in _bodies(name):
        for point in POINTS:
            pt = point[:rank]
            literal = literal_specialize(body, pt)
            assert body.specialize(pt) == literal
            for s in S_VALUES:
                value = body.evaluate(s, pt)
                assert type(value) is Fraction
                assert value == literal_qlaurent_value(literal, s)


# -- eigenvalue_direct ---------------------------------------------------------


# The literal sum regroups the rational form and so adds poles of its own:
# f(a) at lam_n = 0 in B and |lam_n| = 1/2 in D, and the colliding pair
# (n, -n) at lam_n = 0 in D.  No dominant weight is a pole of the
# eigenvalue, so there eigenvalue_direct must give the torus route's value.
# Per type, the literal refusals that the weights reach, digits masked:
LITERAL_SUM_POLES = {
    LieType.B: {"f(#) denominator vanishes"},
    LieType.C: set(),
    LieType.D: {"f(#) denominator vanishes", "index pair (#,#) collides at this weight"},
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_eigenvalue_direct_matches_the_literal_sum(name):
    # the q checks are the only refusals left, with identical messages
    rs = SYSTEMS[name]
    poles, refusals = set(), 0
    for text in WEIGHTS[name]:
        lam = _weight(text)
        for ell in range(rs.rank + 1):
            for s in S_VALUES + (1, -1):
                got = outcome(eigenvalue_direct, rs, lam, ell, s)
                literal = outcome(literal_eigenvalue_direct, rs, lam, ell, s)
                if not isinstance(literal, tuple):
                    assert got == literal
                elif literal[1].startswith("q "):
                    assert got == literal
                    refusals += 1
                else:
                    assert got == eigenvalue_via_hc(rs, lam, ell, s)
                    poles.add(_mask(literal[1]))
    # the comparison reaches both kinds of point
    assert refusals
    assert poles == LITERAL_SUM_POLES[rs.lie_type]


@pytest.mark.parametrize(
    "name, lam, ell, s",
    [
        ("C3", "100,50,1", 3, Fraction(3, 2)),
        ("B4", "100,50,1,1", 4, Fraction(3, 2)),
        ("B4", "100,50,1,1", 4, 2),
    ],
)
def test_eigenvalue_direct_at_a_large_weight(name, lam, ell, s):
    # every factor spans hundreds of q-powers here
    rs = build_root_system(name[0], int(name[1:]))
    got = eigenvalue_direct(rs, _weight(lam), ell, s)
    assert type(got) is Fraction
    assert got == literal_eigenvalue_direct(rs, _weight(lam), ell, s)


# -- the raw rational oracles ----------------------------------------------------


# Points off every pole of the rational forms: no L_a is 1 and no two agree.
GENERIC_POINTS = (
    (2, -3, Fraction(5, 7), Fraction(-4, 3)),
    (Fraction(3, 2), 5, Fraction(-2, 7), Fraction(7, 5)),
)


def _oracle_points(rank):
    """GENERIC_POINTS and POINTS cut to the rank, then copies of the first
    generic point that hit every degenerate branch: u_i = 0, u_i = 1 and
    u_i = -1 (L_a = 1/L_a), u_i = u_j and u_i = -u_j (L_a = L_b), u_i u_j =
    1 (L_a = L_{-b}); and one point of the wrong length."""
    pts = [tuple(p[:rank]) for p in GENERIC_POINTS + POINTS]
    base = list(pts[0])
    for i, value in ((1, 0), (0, 1), (rank - 1, -1), (1, base[0]), (rank - 1, -base[0]),
                     (1, 1 / Fraction(base[0]))):
        pt = list(base)
        pt[i] = value
        pts.append(tuple(pt))
    pts.append(tuple(base[:-1]))
    return pts


ORACLE_S = S_VALUES + (1, -1, 0)

# Every error the kernels raise, digits masked, per type.  Only the B and C
# prefactors divide by L_a - L_{-a}; the type D prefactor is 1 and its
# product skips b = -a, so where the literal form refuses L_a = 1/L_a in
# type D the kernel must give the symbolic route's value.
UNIT_CIRCLE = "L_a on the unit circle: L_a = 1/L_a"
COMMON_BRANCHES = {
    "q = #",
    "point length differs from rank",
    "zero point entry",
    "L_# collides with L_#",
}
BRANCHES = {
    LieType.B: COMMON_BRANCHES | {_mask(UNIT_CIRCLE)},
    LieType.C: COMMON_BRANCHES | {_mask(UNIT_CIRCLE)},
    LieType.D: COMMON_BRANCHES,
}


def _against_the_literal_form(rs, kernel, literal, symbolic, orders):
    """Compare kernel with its literal form at every order, s and oracle
    point.  Returns the masked errors the kernel raises, how many values it
    returns, and how many of them sit where only the literal form refuses."""
    seen, values, unit_circle = set(), 0, 0
    for order in orders:
        for s in ORACLE_S:
            for pt in _oracle_points(rs.rank):
                got = outcome(kernel, rs, order, s, pt)
                expected = outcome(literal, rs, order, s, pt)
                if rs.lie_type is LieType.D and expected == (
                    "DegenerateEvaluation", UNIT_CIRCLE
                ):
                    assert got == symbolic(rs, order, s, pt)
                    unit_circle += 1
                else:
                    assert got == expected
                if isinstance(got, tuple):
                    seen.add(_mask(got[1]))
                else:
                    values += 1
    return seen, values, unit_circle


def _block_value(rs, k, s, pt):
    return ch_g_via_antisym(rs, k).body.evaluate(s, pt)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_g_rational_eval_matches_the_literal_form(name):
    rs = SYSTEMS[name]
    seen, values, unit_circle = _against_the_literal_form(
        rs, g_rational_eval, literal_g_rational_eval, _block_value,
        range(-1, rs.rank + 2),
    )
    assert seen == BRANCHES[rs.lie_type] | {"k must be >= #"}
    assert values >= 2 * (rs.rank + 2) * len(S_VALUES)
    # in type D the L_a = 1/L_a points are reached, and evaluate
    assert bool(unit_circle) is (rs.lie_type is LieType.D)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_c0_rational_eval_matches_the_literal_form(name):
    rs = SYSTEMS[name]
    seen, values, unit_circle = _against_the_literal_form(
        rs, c0_rational_eval, literal_c0_rational_eval, hc_value,
        range(0, rs.rank + 1),
    )
    assert seen == BRANCHES[rs.lie_type] | {"ell must be >= #", "q - #/q = #"}
    assert values >= 2 * rs.rank * len(S_VALUES)
    assert bool(unit_circle) is (rs.lie_type is LieType.D)


# -- degenerate and malformed points --------------------------------------------


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_eigenvalue_direct_at_q_zero_is_degenerate(ell):
    rs = SYSTEMS["B2"]
    with pytest.raises(DegenerateEvaluation, match="q must avoid 0"):
        eigenvalue_direct(rs, _weight("1,1"), ell, 0)


def test_c0_rational_eval_at_q_zero_is_degenerate():
    with pytest.raises(DegenerateEvaluation, match="q = 0"):
        c0_rational_eval(SYSTEMS["B3"], 1, 0, [2, 3, 5])


@pytest.mark.parametrize("oracle", [g_rational_eval, c0_rational_eval])
def test_rational_oracles_reject_a_point_of_the_wrong_length(oracle):
    with pytest.raises(GridMismatch):
        oracle(SYSTEMS["B3"], 1, 2, [2, 3])
