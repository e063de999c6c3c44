"""Higher-order Casimir invariants through their torus images.

The order-l central elements act on a highest weight module by an explicit
scalar; projecting onto the torus and shifting by rho identifies them with
symmetric Laurent polynomials in L_a = e^{eps_a} over the weights eps_a of
the natural module (a in I': {-n..-1,1..n}, plus eps_0 = 0 in type B).  A
binomial change of order parameter turns the family into building blocks
G_{n,k}, each realised inside the character ring.

Two independent constructions of the block characters are provided, both
as chamber forms {nu: c_nu} with G_{n,k} = sum over nu of c_nu chi_{nu-rho}:

* :func:`chamber_form` straightens the auxiliary product ``H_{n,k}`` into
  the dominant chamber, with no group enumeration and no division of
  A(H_{n,k}), and
* :func:`hook_chamber` reads the signed q-powers of irreducible characters
  of hook shape listed by the table :func:`hook_terms`.

``ch_g_via_antisym`` and ``ch_g_via_hooks`` expand them by the one shared
step, :func:`~qcasimir.chars.character_sum`.  Their exact agreement (for
every k) is the central identity of the package and is what the
verification suites establish.  A third, purely numeric route evaluates the
raw rational forms at exact rational points and serves as an oracle for
both, stated once for every type: each eps_a carries the product P_{eps_a}
over the roots beta = eps_a - eps_b with m = (eps_a, beta) > 0 of (q^m
e^beta - q^{-m}) / (e^beta - 1) (Zhang, Gould and Bracken, Comm. Math.
Phys. 137, 1991).  The eigenvalue of the order-ell invariant on a
simple module, :func:`eigenvalue_direct`, is the rational torus image at
L_a = q^{2(lam + rho, eps_a)}; :func:`eigenvalue_via_hc` reaches it through
the symbolic torus image instead.  Every invariant is central, so no
dominant weight is a pole: both routes refuse only q in {0, 1}, and the raw
rational forms only where one of their stated denominators vanishes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb
from operator import add
from typing import Iterator, Sequence

from .chars import GAElem, GridMismatch, character_sum, ext_power_char, straighten
from .exact import Coeff, QLaurent, _clean
from .roots import (
    LieType,
    RootSystem,
    Weight,
    _Frozen,
    eps,
    hook_weight,
    pairing,
    tau,
)


class DegenerateEvaluation(ZeroDivisionError):
    """An evaluation point makes one of the rational denominators vanish."""


class CasimirImage(_Frozen):
    """A symmetric character-ring element attached to (type, rank, order).

    ``provenance`` records which construction produced the body, so that
    cross-checks can state what they compared.  The element represented is
    body / denominator; the denominator is 1 for the block characters and
    (q^{-1} - q)^ell for the order-ell torus images, whose coefficients are
    honest rational functions of q (the q-power sums in the numerator do not
    vanish at q = 1, so the denominator never clears).
    """

    __slots__ = _fields = ("lie_type", "rank", "order", "body", "provenance",
                           "denominator")

    def __init__(self, lie_type: LieType, rank: int, order: int, body: GAElem,
                 provenance: str, denominator: QLaurent = QLaurent({0: 1})):
        # provenance: one of {"prop4_3", "hook_expansion", "binomial_transform"}
        self._set(lie_type, rank, order, body, provenance, denominator)

    def to_json(self) -> dict:
        return {
            "type": self.lie_type.value,
            "rank": self.rank,
            "k_or_ell": self.order,
            "provenance": self.provenance,
            "body": self.body.to_json(),
            "denominator": self.denominator.to_json(),
        }


def h_element(rs: RootSystem, k: int) -> GAElem:
    """The auxiliary product e^{rho + k eps_1} * prod over positive roots
    alpha with (alpha, eps_1) > 0 of (1 - q^{-2(alpha,eps_1)} e^{-alpha})."""
    if k < 0:
        raise ValueError("k must be >= 0")
    res = GAElem.exponential(rs.rho + eps(rs.rank, 1).scale(k))
    one = GAElem.one(rs.rank)
    for alpha in rs.positive_roots:
        pa = pairing(alpha, eps(rs.rank, 1))
        if pa <= 0:
            continue
        qpow = QLaurent.monomial(int(-8 * pa))  # q^{-2(alpha,eps_1)}
        res = res * (one - GAElem.exponential(-alpha, qpow))
    return res


def chamber_form(rs: RootSystem, k: int) -> GAElem:
    """The antisymmetrizer form of the k-th block in the dominant chamber:
    the GAElem {nu: c_nu} over strictly dominant nu with

        A(e^rho G_{n,k}) = q^{c_n - 1} A(H_{n,k}) (+ q^{-k} A(e^rho) when 0 in I')
                         = sum over nu of c_nu A(e^nu),

    that is q^{c_n - 1} times the straightened H_{n,k}, plus q^{-k} at rho for
    the zero weight of I' (type B): the block in the basis of irreducible
    characters, with no group enumeration and no division.
    """
    x = h_element(rs, k).scale(QLaurent.monomial(4 * (rs.c_n - 1)))
    if 0 in rs.iprime:
        x = x + GAElem.exponential(rs.rho, QLaurent.monomial(-4 * k))
    return straighten(x, rs)


@cache
def ch_g_via_antisym(rs: RootSystem, k: int) -> CasimirImage:
    """Block character via the antisymmetrizer route: q^{c_n - 1} A(H_{n,k})
    / Delta (plus q^{-k} when 0 in I'), as the character sum of its
    :func:`chamber_form`, without forming A(H_{n,k}) or dividing it."""
    body = character_sum(chamber_form(rs, k), rs)
    return CasimirImage(rs.lie_type, rs.rank, k, body, "prop4_3")


HookTerm = tuple[int, int, tuple[Weight, ...]]


def hook_terms(rs: RootSystem, k: int) -> tuple[HookTerm, ...]:
    """The signed hook expansion of the k-th block (k >= 1), as entries
    (sign, quarter-grid q exponent, highest weights); the block is the sum
    of sign * q^(exponent/4) * (sum of the characters of the weights).  An
    empty weight tuple stands for the constant q^{-k}.

    This table is the one statement of the expansion; :func:`hook_chamber`
    (behind ``ch_g_via_hooks``) and ``ebasis.g_in_e_basis`` only read it:

    * column r carries q^{c_n - 1 - 2r} and the sign (-1)^r, times tau(r) in
      type C (which drops r = n);
    * the columns run over r = 0..min(k-1, top), top the largest admissible
      index, and ``hook_weight`` folds them by rbar;
    * in type D, column n-1 also carries the barred hook;
    * the constant q^{-k} enters in type B with sign + unless k is odd and
      k <= top, and in types C (sign -) and D (sign +) when k is even and
      k <= top.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lie, n = rs.lie_type, rs.rank
    top = rs.c_n - 1
    terms: list[HookTerm] = []
    for r in range(min(k - 1, top) + 1):
        sign = (-1) ** r * (tau(rs, r) if lie is LieType.C else 1)
        if not sign:
            continue
        weights = (hook_weight(rs, k, r),)
        if lie is LieType.D and r == n - 1:
            weights += (hook_weight(rs, k, r, bar=True),)
        terms.append((sign, 4 * (rs.c_n - 1 - 2 * r), weights))
    if lie is LieType.B:
        if k % 2 == 0 or k > top:
            terms.append((1, -4 * k, ()))
    elif k % 2 == 0 and k <= top:
        terms.append((-1 if lie is LieType.C else 1, -4 * k, ()))
    return tuple(terms)


def hook_chamber(rs: RootSystem, k: int) -> GAElem:
    """The hook route as a chamber form: each highest weight lam of
    :func:`hook_terms` at lam + rho, the constant at rho; at k = 0 the
    constant :func:`closed_form_g0`, at rho."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return closed_form_g0(rs).shift(rs.rho)
    terms: dict[tuple, Coeff] = {}
    for sign, qexp, weights in hook_terms(rs, k):
        for w in weights or (Weight.zero(rs.rank),):
            t = (w + rs.rho).dbl + (qexp,)
            terms[t] = terms.get(t, 0) + sign
    return GAElem._flat(rs.rank, _clean(terms))


@cache
def ch_g_via_hooks(rs: RootSystem, k: int) -> CasimirImage:
    """Block character via the signed hook-character expansion: the sum of
    c_nu chi_{nu - rho} over :func:`hook_chamber`."""
    body = character_sum(hook_chamber(rs, k), rs)
    return CasimirImage(rs.lie_type, rs.rank, k, body, "hook_expansion")


def closed_form_g0(rs: RootSystem) -> GAElem:
    """The k = 0 block: the constant sum of q^{(2 rho, eps_a)} over the
    index set (the quantum dimension of the natural module)."""
    const = QLaurent.zero()
    for a in rs.iprime:
        const = const + QLaurent.monomial(
            4 * int(pairing(rs.rho.scale(2), eps(rs.rank, a)))
        )
    return GAElem.constant(rs.rank, const)


def closed_form_g1(rs: RootSystem) -> GAElem:
    """The k = 1 block: q^{c_n - 1} times the natural character, the sum of
    e^{eps_a} over the index set."""
    return ext_power_char(rs, 1).scale(QLaurent.monomial(4 * (rs.c_n - 1)))


@cache
def hc_combination(rs: RootSystem, ell: int) -> GAElem:
    """The binomial combination sum over k of C(ell,k) (-q^{1-c_n})^k times
    the k-th block character: (q^{-1} - q)^ell times the torus image."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    body = GAElem.zero(rs.rank)
    minus_qpow = QLaurent.monomial(4 * (1 - rs.c_n), -1)  # -q^{1-c_n}
    for k in range(ell + 1):
        factor = minus_qpow**k * comb(ell, k)
        body = body + ch_g_via_antisym(rs, k).body.scale(factor)
    return body


@cache
def hc_denominator(ell: int) -> QLaurent:
    """(q^{-1} - q)^ell."""
    return QLaurent({-4: 1, 4: -1}) ** ell


def hc_image(rs: RootSystem, ell: int) -> CasimirImage:
    """Torus image of the order-ell invariant, as the exact pair
    (binomial combination, (q^{-1} - q)^ell).

    The quotient exists only over the rational-function field: every
    coefficient of the combination takes a nonzero value at q = 1 at generic
    points, while the denominator vanishes there, so the division is never
    exact in the Laurent ring.  Evaluation goes through :func:`hc_value`,
    which divides exact rational values instead.  Specialised at a dominant
    weight (:func:`hc_at_weight`) the division becomes exact again.
    """
    return CasimirImage(
        rs.lie_type,
        rs.rank,
        ell,
        hc_combination(rs, ell),
        "binomial_transform",
        hc_denominator(ell),
    )


@cache
def _hc_classes(rs: RootSystem, ell: int) -> tuple[tuple[tuple, tuple], ...]:
    """The weights of :func:`hc_combination` grouped by their q-coefficient:
    one entry per class, its q terms as (quarter-grid exponent, coefficient)
    pairs and its weights as one column of doubled coordinates per lane.
    The combination is W-invariant, so the classes are its W-orbits, but the
    grouping is exact for any element."""
    per_weight: dict[tuple, dict[int, Coeff]] = {}
    for key, c in hc_combination(rs, ell).terms.items():
        per_weight.setdefault(key[:-1], {})[key[-1]] = c
    classes: dict[tuple, list[tuple]] = {}
    for w, qterms in per_weight.items():
        classes.setdefault(tuple(sorted(qterms.items())), []).append(w)
    return tuple((qterms, tuple(zip(*ws))) for qterms, ws in classes.items())


@cache
def hc_at_weight(rs: RootSystem, ell: int, lam: Weight) -> QLaurent:
    """The binomial combination with e^{eps_a} := q^{2(lam + rho, eps_a)}:
    (q^{-1} - q)^ell times the eigenvalue of the order-ell invariant on the
    simple module of highest weight lam, as a Laurent polynomial in q.

    Each coefficient class of :func:`_hc_classes` takes its shifts
    2(lam + rho, w) lane by lane over its columns; each distinct shift then
    meets the class's q terms once, times the number of weights giving it.
    Memoized per (rs, ell, lam): the numerator does not depend on the point
    q is evaluated at."""
    rs.check_highest_weight(lam)
    # 4 (quarter units) * 2 (lam+rho, w/2) on doubled coordinates
    factors = [2 * d for d in (lam + rs.rho).dbl]
    num: dict[int, Coeff] = {}
    for qterms, columns in _hc_classes(rs, ell):
        shifts = map(factors[0].__mul__, columns[0])
        for f, col in zip(factors[1:], columns[1:]):
            shifts = map(add, shifts, map(f.__mul__, col))
        for shift, mult in Counter(shifts).items():
            for e, c in qterms:
                num[e + shift] = num.get(e + shift, 0) + mult * c
    return QLaurent(num)


def _quotient_at(num: QLaurent, den: QLaurent, s: Coeff) -> Fraction:
    """Exact value of num / den at q^(1/4) := s.

    When den(s) = 0, common (v - s) factors (v = q^(1/4)) are cancelled
    first: vanishing at v = s is exactly divisibility by (v - s).  The
    (q^{-1} - q) powers vanish at the rational points v = 1 and v = -1 (both
    q = 1), so this clears the classical limit from either side.  A zero
    numerator is 0 (the trivial module's image at every ell >= 1); a pole
    that survives raises :class:`DegenerateEvaluation`.
    """
    dval = den.evaluate(s)
    if dval:
        return num.evaluate(s) / dval
    if not num.terms:
        return Fraction(0)
    factor = QLaurent({1: 1, 0: -Fraction(s)})  # v - s
    while num.evaluate(s) == 0 and den.evaluate(s) == 0:
        num = num.div_exact(factor)
        den = den.div_exact(factor)
    dval = den.evaluate(s)
    if dval == 0:
        raise DegenerateEvaluation("pole survives cancellation at this point")
    return num.evaluate(s) / dval


def hc_value(
    rs: RootSystem, ell: int, s: Coeff, half_point: Sequence[Coeff]
) -> Fraction:
    """Exact value of the order-ell torus image at e^{eps_i/2} :=
    half_point[i], q^{1/4} := s: the binomial combination specialized at the
    point, over (q^{-1} - q)^ell.  Removable q = 1 singularities (e.g. the
    classical limit at the all-ones point) are cleared by exact cancellation
    rather than by a limit."""
    num = hc_combination(rs, ell).specialize(half_point)
    return _quotient_at(num, hc_denominator(ell), s)


# ---------------------------------------------------------------------------
# numeric oracle: the rational forms evaluated at exact points
#
# With q = Q/R and each L_a = p_a/r_a held as a pair of ints, every factor of
# the rational forms is a ratio of ints, so each index a contributes one
# Fraction.  No symbolic object is involved: this route stays independent of
# both block constructions.
# ---------------------------------------------------------------------------


@cache
def _root_factors(rs: RootSystem) -> dict[int, tuple[int, tuple]]:
    """For each a in I', (eps_a, eps_a) and the factors of P_{eps_a}: the
    (b, m), b in I', with beta = eps_a - eps_b a root and m = (eps_a, beta)
    > 0.  a and b run 0, 1, -1, 2, -2, ...: the order fixes which pole a
    point with several is refused for."""
    roots = set(rs.positive_roots) | {-alpha for alpha in rs.positive_roots}
    e = {a: eps(rs.rank, a) for a in sorted(rs.iprime, key=lambda a: (abs(a), -a))}
    return {
        a: (int(pairing(e_a, e_a)), tuple(
            (b, int(m))
            for b, e_b in e.items()
            if (beta := e_a - e_b) in roots and (m := pairing(e_a, beta)) > 0
        ))
        for a, e_a in e.items()
    }


def _rational_point(
    rs: RootSystem, s: Coeff, half_point: Sequence[Coeff]
) -> tuple[int, int, dict[int, tuple[int, int]]]:
    """q := s^4 as the ints (Q, R) with q = Q/R, and L_a = e^{eps_a} from
    the values u of e^{eps_a/2}, as the int pair (p_a, r_a) with L_a = p_a /
    r_a: (num(u)^2, den(u)^2) for a > 0, swapped for -a, (1, 1) for a = 0."""
    q = Fraction(s) ** 4
    if q == 0:
        raise DegenerateEvaluation("q = 0")
    if len(half_point) != rs.rank:
        raise GridMismatch("point length differs from rank")
    table: dict[int, tuple[int, int]] = {0: (1, 1)}
    for i, u in enumerate(half_point, start=1):
        u = Fraction(u)
        if u == 0:
            raise DegenerateEvaluation("zero point entry")
        p, r = u.numerator ** 2, u.denominator ** 2
        table[i] = (p, r)
        table[-i] = (r, p)
    return q.numerator, q.denominator, table


def _p_weights(rs: RootSystem, Q: int, R: int, lvals: dict) -> Iterator[tuple]:
    """For each a in I': (eps_a, eps_a), p_a, r_a and P_{eps_a} at q = Q/R as
    ints (num, den), the product over the :func:`_root_factors` (b, m) of
    (q^m e^beta - q^{-m}) / (e^beta - 1), e^beta = L_a / L_b, that is
    (Q^{2m} p_a r_b - R^{2m} p_b r_a) / ((QR)^m (p_a r_b - p_b r_a)).  The
    denominators are the whole pole set: L_a = L_b, and L_a = 1/L_a where b
    is 0 (type B) or -a (type C).  The zero weight has no factor."""
    QQ, RR, QR = Q * Q, R * R, Q * R
    for a, (norm, factors) in _root_factors(rs).items():
        pa, ra = lvals[a]
        num = den = 1
        for b, m in factors:
            pb, rb = lvals[b]
            if not (d := pa * rb - pb * ra):
                pole = f"L_{a} collides with L_{b}"
                if b in (0, -a):
                    pole = "L_a on the unit circle: L_a = 1/L_a"
                raise DegenerateEvaluation(pole)
            num *= QQ**m * pa * rb - RR**m * pb * ra
            den *= d * QR**m
        yield norm, pa, ra, num, den


def g_rational_eval(
    rs: RootSystem, k: int, s: Coeff, half_point: Sequence[Coeff]
) -> Fraction:
    """Value of the raw rational block G_{n,k} at L_a := half_point[a]^2,
    q := s^4: the sum over a in I' of P_{eps_a} (q^{(eps_a, eps_a) - 1}
    L_a)^k, one Fraction per index (q^{-k} at the zero weight of type B).
    Independent of the symbolic constructions."""
    if k < 0:
        raise ValueError("k must be >= 0")
    Q, R, lvals = _rational_point(rs, s, half_point)
    total = Fraction(0)
    for norm, pa, ra, num, den in _p_weights(rs, Q, R, lvals):
        e = 1 - norm  # q^{(eps_a, eps_a) - 1} = (R/Q)^e
        total += Fraction(num * (R**e * pa) ** k, den * (Q**e * ra) ** k)
    return total


def c0_rational_eval(
    rs: RootSystem, ell: int, s: Coeff, half_point: Sequence[Coeff]
) -> Fraction:
    """Value of the raw rational order-ell torus image at L_a :=
    half_point[a]^2, q := s^4: the sum over a in I' of P_{eps_a}
    core_a^ell, core_a = (q^shift L_a - 1) / (q - 1/q) with shift =
    (eps_a, eps_a) - c_n (the q^{1-c_n} of :func:`hc_combination`, and
    q^{-c_n} at the zero weight of type B), one Fraction per index."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    Q, R, lvals = _rational_point(rs, s, half_point)
    if Q == R:  # q > 0: q - 1/q = 0 only at q = 1
        raise DegenerateEvaluation("q - 1/q = 0")
    qr, qdiff = Q * R, Q * Q - R * R
    total = Fraction(0)
    for norm, pa, ra, num, den in _p_weights(rs, Q, R, lvals):
        # shift < 0, so q^shift = sn / sd with sn = R^-shift, sd = Q^-shift:
        # core_a = (sn p_a - sd r_a) QR / (sd r_a (Q^2 - R^2))
        sn, sd = R ** (rs.c_n - norm), Q ** (rs.c_n - norm)
        core_num = (sn * pa - sd * ra) * qr
        total += Fraction(num * core_num**ell, den * (sd * ra * qdiff) ** ell)
    return total


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def eigenvalue_direct(
    rs: RootSystem, lam: Weight, ell: int, s: Coeff
) -> Fraction:
    """Scalar by which the order-ell invariant acts on the simple module of
    highest weight lam: the raw rational torus image :func:`c0_rational_eval`
    at e^{eps_i/2} := q^{(lam + rho)_i}, that is L_a = q^{2(lam + rho,
    eps_a)}.

    At ell = 0 the invariant is the quantum dimension of the natural module,
    a constant.  q = 0, and q = 1 at ell >= 1, raise DegenerateEvaluation
    before the point is formed; they are the only refusals, since a
    dominant lam + rho has distinct |coordinates|, nonzero outside the last
    slot of type D, where L_n = L_{-n} = 1 divides by nothing.
    """
    rs.check_highest_weight(lam)
    if ell < 0:
        raise ValueError("ell must be >= 0")
    s = Fraction(s)
    if s == 0 or (ell and s**4 == 1):
        raise DegenerateEvaluation("q must avoid 0 and roots of unity")
    if ell == 0:
        return closed_form_g0(rs).evaluate(s, [1] * rs.rank)
    return c0_rational_eval(rs, ell, s, [s ** (2 * d) for d in (lam + rs.rho).dbl])


def eigenvalue_via_hc(
    rs: RootSystem, lam: Weight, ell: int, s: Coeff
) -> Fraction:
    """The same scalar from the symbolic torus image: the binomial
    combination specialized at e^{eps_a} := q^{2(lam + rho, eps_a)}
    (:func:`hc_at_weight`) over (q^{-1} - q)^ell, at q^{1/4} := s.  At
    s = 1 this is the classical limit, by exact cancellation.  At ell = 0
    the invariant is the constant k = 0 block."""
    rs.check_highest_weight(lam)
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0:
        num = ch_g_via_antisym(rs, 0).body.specialize([1] * rs.rank)
    else:
        num = hc_at_weight(rs, ell, lam)
    return _quotient_at(num, hc_denominator(ell), s)


# ---------------------------------------------------------------------------
# constituents and stability
# ---------------------------------------------------------------------------


def constituents(rs: RootSystem, k: int) -> list[tuple[int, tuple, int]]:
    """Constituent list of the k-th block, normalized for cross-rank
    comparison: a view of the antisymmetrizer route's :func:`chamber_form`.

    Each entry is (q-power, weight, coefficient), one per monomial of c_nu
    on chi_{nu - rho}.  Hooks report the q-power relative to q^{2n} (so it
    is rank-free) and the weight as its partition tuple (the barred type D
    hook keeps its negative last part); the constant term, when present, is
    reported with its absolute power -k and the empty tuple.
    """
    n = rs.rank
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    entries: list[tuple[int, tuple, int]] = []
    for key, m in chamber_form(rs, k).terms.items():
        lam = Weight(key[:-1]) - rs.rho
        parts = tuple(int(c) for c in lam.coords if c)
        power = key[-1] // 4
        entries.append((power - 2 * n if parts else power, parts, m))
    return sorted(entries)
