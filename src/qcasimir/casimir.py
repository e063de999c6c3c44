"""Higher-order Casimir invariants through their torus images.

The order-l central elements act on a highest weight module by an explicit
scalar; projecting onto the torus and shifting by rho identifies them with
symmetric Laurent polynomials in variables L_a (a in {-n..-1,1..n}, plus a
constant slot in type B).  A binomial change of order parameter turns the
family into building blocks G_{n,k}; writing L_a as the formal exponential
e^{eps_a} realises each block inside the character ring.

Two independent constructions of the block characters are provided:

* ``ch_g_via_antisym`` reads the antisymmetrized auxiliary product
  ``H_{n,k}`` divided by the Weyl denominator in the basis of irreducible
  characters: straightening ``H_{n,k}`` into the dominant chamber
  (:func:`chamber_form`) gives the coefficient of each character, with no
  group enumeration and no division of A(H_{n,k}), and
* ``ch_g_via_hooks`` assembles signed q-powers of irreducible characters of
  hook shape, as listed by the table :func:`hook_terms`.

Their exact agreement (for every k) is the central identity of the package
and is what the verification suites establish.  A third, purely numeric
route evaluates the raw rational forms at exact rational points and serves
as an oracle for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from typing import Sequence

from .chars import (
    GAElem,
    natural_character,
    straighten,
    weyl_character,
)
from .exact import Coeff, NotDivisible, QLaurent, _clean
from .roots import (
    LieType,
    RootSystem,
    Weight,
    eps,
    hook_weight,
    pairing,
    tau,
)


class DegenerateEvaluation(ZeroDivisionError):
    """An evaluation point makes one of the rational denominators vanish."""


@dataclass(frozen=True)
class CasimirImage:
    """A symmetric character-ring element attached to (type, rank, order).

    ``provenance`` records which construction produced the body, so that
    cross-checks can state what they compared.  The element represented is
    body / denominator; the denominator is 1 for the block characters and
    (q^{-1} - q)^ell for the order-ell torus images, whose coefficients are
    honest rational functions of q (the q-power sums in the numerator do not
    vanish at q = 1, so the denominator never clears).
    """

    lie_type: LieType
    rank: int
    order: int
    body: GAElem
    provenance: str  # one of {"prop4_3", "hook_expansion", "binomial_transform"}
    denominator: QLaurent = QLaurent({0: 1})

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


def chamber_form(rs: RootSystem, k: int) -> dict[tuple, QLaurent]:
    """The antisymmetrizer form of the k-th block in the dominant chamber:
    {nu: c_nu} over strictly dominant nu (doubled coordinates) with

        A(e^rho G_{n,k}) = q^{c_n - 1} A(H_{n,k}) (+ q^{-k} A(e^rho) in type B)
                         = sum over nu of c_nu A(e^nu),

    that is q^{c_n - 1} times the straightened H_{n,k}, plus q^{-k} at rho in
    type B.  Since A(e^nu) / Delta is the character of highest weight
    nu - rho, G_{n,k} = sum over nu of c_nu chi_{nu - rho}: the block in the
    basis of irreducible characters, with no group enumeration and no
    division.
    """
    x = h_element(rs, k).scale(QLaurent.monomial(4 * (rs.c_n - 1)))
    if rs.lie_type is LieType.B:
        x = x + GAElem.exponential(rs.rho, QLaurent.monomial(-4 * k))
    return straighten(x, rs)


_chg_cache: dict[tuple, GAElem] = {}


def ch_g_via_antisym(rs: RootSystem, k: int) -> CasimirImage:
    """Block character via the antisymmetrizer route: the sum of
    c_nu chi_{nu - rho} over the :func:`chamber_form` of H_{n,k}.

    This is q^{c_n - 1} A(H_{n,k}) / Delta (plus q^{-k} in type B) without
    forming A(H_{n,k}) or dividing it: straightening H_{n,k} gives the
    coefficients, and the characters come from ``weyl_character``.  The
    route shares nothing else with the hook route.
    """
    key = (rs.lie_type, rs.rank, k, "antisym")
    body = _chg_cache.get(key)
    if body is None:
        terms: dict[tuple, Coeff] = {}
        for nu, c in chamber_form(rs, k).items():
            chi = weyl_character(rs, Weight(nu) - rs.rho)
            qs = list(c.terms.items())
            for w, m in chi.terms.items():  # q lane 0: w[:-1] is the weight
                for e, x in qs:
                    t = w[:-1] + e
                    terms[t] = terms.get(t, 0) + m * x
        body = GAElem._flat(rs.rank, _clean(terms))
        _chg_cache[key] = body
    return CasimirImage(rs.lie_type, rs.rank, k, body, "prop4_3")


HookTerm = tuple[int, int, tuple[Weight, ...]]


def hook_terms(rs: RootSystem, k: int) -> tuple[HookTerm, ...]:
    """The signed hook expansion of the k-th block (k >= 1), as entries
    (sign, quarter-grid q exponent, highest weights); the block is the sum
    of sign * q^(exponent/4) * (sum of the characters of the weights).  An
    empty weight tuple stands for the constant q^{-k}.

    This table is the one statement of the expansion; ``ch_g_via_hooks``,
    ``constituents`` and ``ebasis.g_in_e_basis`` only read it:

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
    top = rs.hook_r_range()[-1]
    terms: list[HookTerm] = []
    for r in range(min(k - 1, top) + 1):
        sign = (-1) ** r * (tau(rs, r) if lie is LieType.C else 1)
        if not sign:
            continue
        weights = (hook_weight(rs, k, r).weight,)
        if lie is LieType.D and r == n - 1:
            weights += (hook_weight(rs, k, r, bar=True).weight,)
        terms.append((sign, 4 * (rs.c_n - 1 - 2 * r), weights))
    if lie is LieType.B:
        if k % 2 == 0 or k > top:
            terms.append((1, -4 * k, ()))
    elif k % 2 == 0 and k <= top:
        terms.append((-1 if lie is LieType.C else 1, -4 * k, ()))
    return tuple(terms)


def ch_g_via_hooks(rs: RootSystem, k: int) -> CasimirImage:
    """Block character via the signed hook-character expansion: the sum of
    the Weyl characters over the entries of :func:`hook_terms`.  At k = 0 the
    block is the constant :func:`closed_form_g0`."""
    key = (rs.lie_type, rs.rank, k, "hooks")
    body = _chg_cache.get(key)
    if body is not None:
        return CasimirImage(rs.lie_type, rs.rank, k, body, "hook_expansion")
    if k < 0:
        raise ValueError("k must be >= 0")
    n = rs.rank
    if k == 0:
        body = closed_form_g0(rs)
    else:
        body = GAElem.zero(n)
        for sign, qexp, weights in hook_terms(rs, k):
            term = GAElem.zero(n) if weights else GAElem.one(n)
            for w in weights:
                term = term + weyl_character(rs, w)
            term = term.scale(QLaurent.monomial(qexp))
            body = body + term if sign > 0 else body - term
    _chg_cache[key] = body
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
    """The k = 1 block: q^{c_n - 1} times the natural character."""
    return natural_character(rs).scale(QLaurent.monomial(4 * (rs.c_n - 1)))


_hc_cache: dict[tuple, GAElem] = {}


def hc_combination(rs: RootSystem, ell: int) -> GAElem:
    """The binomial combination sum over k of C(ell,k) (-q^{1-c_n})^k times
    the k-th block character: (q^{-1} - q)^ell times the torus image."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    key = (rs.lie_type, rs.rank, ell)
    body = _hc_cache.get(key)
    if body is None:
        body = GAElem.zero(rs.rank)
        minus_qpow = QLaurent.monomial(4 * (1 - rs.c_n), -1)  # -q^{1-c_n}
        for k in range(ell + 1):
            factor = minus_qpow**k * comb(ell, k)
            body = body + ch_g_via_antisym(rs, k).body.scale(factor)
        _hc_cache[key] = body
    return body


@lru_cache(maxsize=None)
def hc_denominator(ell: int) -> QLaurent:
    """(q^{-1} - q)^ell."""
    return QLaurent({-4: 1, 4: -1}) ** ell


def hc_image(rs: RootSystem, ell: int) -> CasimirImage:
    """Torus image of the order-ell invariant, as the exact pair
    (binomial combination, (q^{-1} - q)^ell).

    The quotient exists only over the rational-function field: every
    coefficient of the combination takes a nonzero value at q = 1 at generic
    points, while the denominator vanishes there, so the division is never
    exact in the Laurent ring.  ``hc_divisibility_failures`` documents this;
    evaluation goes through :func:`hc_value`, which divides exact rational
    values instead.  Specialised at a dominant weight (:func:`hc_at_weight`)
    the division becomes exact again.
    """
    return CasimirImage(
        rs.lie_type,
        rs.rank,
        ell,
        hc_combination(rs, ell),
        "binomial_transform",
        hc_denominator(ell),
    )


def hc_divisibility_failures(rs: RootSystem, ell: int) -> list[tuple]:
    """Attempt the coefficient-wise exact division of the binomial
    combination by (q^{-1} - q)^ell; return the weights where it fails."""
    den = hc_denominator(ell)
    bad = []
    for w, c in hc_combination(rs, ell)._per_weight().items():
        try:
            c.div_exact(den)
        except NotDivisible:
            bad.append(w)
    return sorted(bad)


def hc_at_weight(rs: RootSystem, ell: int, lam: Weight) -> QLaurent:
    """The binomial combination with e^{eps_a} := q^{2(lam + rho, eps_a)}:
    (q^{-1} - q)^ell times the eigenvalue of the order-ell invariant on the
    simple module of highest weight lam, as a Laurent polynomial in q."""
    rs.check_highest_weight(lam)
    lam_rho = (lam + rs.rho).dbl
    shifts: dict[tuple, int] = {}
    num: dict[int, Coeff] = {}
    for key, c in hc_combination(rs, ell).terms.items():
        w = key[:-1]
        shift = shifts.get(w)
        if shift is None:
            # 4 (quarter units) * 2 (lam+rho, w/2) on doubled coordinates
            shift = shifts[w] = 2 * sum(map(mul, lam_rho, w))
        e = key[-1] + shift
        num[e] = num.get(e, 0) + c
    return QLaurent(num)


def _quotient_at(num: QLaurent, den: QLaurent, s: Coeff) -> Fraction:
    """Exact value of num / den at q^(1/4) := s.

    When den(s) = 0, common (v - s) factors (v = q^(1/4)) are cancelled
    first: vanishing at v = s is exactly divisibility by (v - s).  The
    (q^{-1} - q) powers vanish at the rational points v = 1 and v = -1 (both
    q = 1), so this clears the classical limit from either side.  A pole
    that survives raises :class:`DegenerateEvaluation`.
    """
    dval = den.evaluate(s)
    if dval:
        return num.evaluate(s) / dval
    factor = QLaurent({1: 1, 0: -Fraction(s)})  # v - s
    while num.terms and num.evaluate(s) == 0 and den.evaluate(s) == 0:
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
# ---------------------------------------------------------------------------


def _l_table(rs: RootSystem, half_point: Sequence[Coeff]) -> dict[int, Fraction]:
    """L_a for a in {-n..-1,1..n} from the values of e^{eps_a/2}."""
    if len(half_point) != rs.rank:
        raise ValueError("point length differs from rank")
    table: dict[int, Fraction] = {}
    for i, u in enumerate(half_point, start=1):
        u = Fraction(u)
        if u == 0:
            raise DegenerateEvaluation("zero point entry")
        table[i] = u * u
        table[-i] = 1 / (u * u)
    return table


def _pref_and_p(
    rs: RootSystem, lvals: dict[int, Fraction], q: Fraction, a: int
) -> Fraction:
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


def g_rational_eval(
    rs: RootSystem, k: int, s: Coeff, half_point: Sequence[Coeff]
) -> Fraction:
    """Value of the raw rational block G_{n,k} at L_a := half_point[a]^2,
    q := s^4.  Independent of the symbolic constructions."""
    if k < 0:
        raise ValueError("k must be >= 0")
    q = Fraction(s) ** 4
    if q == 0:
        raise DegenerateEvaluation("q = 0")
    lvals = _l_table(rs, half_point)
    total = Fraction(0)
    for a in lvals:
        total += _pref_and_p(rs, lvals, q, a) * lvals[a] ** k
    if rs.lie_type is LieType.B:
        total += q ** (-k)
    return total


def c0_rational_eval(
    rs: RootSystem, ell: int, s: Coeff, half_point: Sequence[Coeff]
) -> Fraction:
    """Value of the raw rational order-ell torus image at L_a :=
    half_point[a]^2, q := s^4."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    q = Fraction(s) ** 4
    lvals = _l_table(rs, half_point)
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
        total += _pref_and_p(rs, lvals, q, a) * core**ell
    if rs.lie_type is LieType.B:
        total += ((q ** (-2 * n) - 1) / qdiff) ** ell
    return total


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def _qdim_value(rs: RootSystem, s: Coeff) -> Fraction:
    q = Fraction(s) ** 4
    total = Fraction(0)
    for a in rs.iprime:
        total += q ** int(pairing(rs.rho.scale(2), eps(rs.rank, a)))
    return total


def eigenvalue_direct(
    rs: RootSystem, lam: Weight, ell: int, s: Coeff
) -> Fraction:
    """Scalar by which the order-ell invariant acts on the simple module of
    highest weight lam, from the explicit per-type sum over the index set.

    At ell = 0 the invariant is the quantum dimension of the natural module,
    a constant.  Points where a denominator vanishes (for instance lam_n = 0
    in types B and D, where the two index signs of the last coordinate
    collide) raise DegenerateEvaluation.
    """
    rs.check_highest_weight(lam)
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0:
        return _qdim_value(rs, s)
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
    comparison: a view of the entries of :func:`hook_terms`.

    Each entry is (q-power, weight, multiplicity).  Hook entries report the
    q-power relative to q^{2n} (so it is rank-free) and the weight as its
    partition tuple (the barred type D hook keeps its negative last part);
    the constant term, when present, is reported with its absolute power -k
    and the empty tuple.
    """
    n = rs.rank
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    entries: list[tuple[int, tuple, int]] = []
    for sign, qexp, weights in hook_terms(rs, k):
        if not weights:
            entries.append((qexp // 4, (), sign))
        for w in weights:
            parts = tuple(int(c) for c in w.coords if c)
            entries.append((qexp // 4 - 2 * n, parts, sign))
    return sorted(entries)
