"""Weyl groups as signed permutations and the group algebra of the weight
lattice.

The Weyl groups of types B and C coincide: all signed permutations of
{1..n}; type D is the index-two subgroup with an even number of sign flips.
One walk lists the group up to rank 7 for :func:`enumerate_weyl` and the
orbit table, and sgn(w), the determinant, is always read off one inversion
count.  Group elements act on weights coordinate-wise, and the antisymmetrizer
``sum over w of sgn(w) * w`` produces alternants.

An alternating element is determined by its coefficients on strictly
dominant weights.  :func:`straighten` computes them with no group
enumeration: each term e^mu moves to the dominant weight of its orbit with
the sign of the Weyl element that moves it there (sort the |mu_i|; the sign
is the parity of the sort, times (-1)^(negative mu_i) in types B and C), and
drops when mu lies on a wall.  The result, a chamber form, is a GAElem
{nu: c_nu} on strictly dominant nu; by Weyl's formula A(e^nu) / Delta =
chi_{nu - rho} it is also a W-invariant in the character basis, which
:func:`character_sum` expands.  The group acts freely on the orbit of a
strictly dominant weight, so expanding the straightened coefficients back
over the group (:func:`antisymmetrize`, :func:`alternant`) stores each image
once and adds no coefficients.

The same two steps multiply an alternating element X by an invariant one Y
(Weyl's trick): with X~ the part of X on strictly dominant weights, X = A(X~)
and X * Y = A(X~ * Y), so the product pairs Y with X~, |W| times fewer terms
than X.  ``GAElem.__mul__`` takes this path when both premises hold exactly,
under the group of B_n or else that of D_n, and EPoly's pair loop for every
other product; the literal Delta * G of criterion 2 is the pair loop's, in
the tests.

Characters (:func:`weyl_character`) divide nothing: Freudenthal's formula
gives the multiplicity of every dominant weight below the highest weight,
in integers, and each multiplicity is written onto the distinct images of
its weight (signed permutations of the coordinates, generated directly), so
no rank limit applies.  Alternant division,
``divide_by_denominator(alternant(rs, lam + rho), rs)``, is kept as the
independent oracle that the tests compare against.

:class:`GAElem` is a finite formal sum of exponentials e^mu with q-Laurent
coefficients.  It is the Laurent ring :class:`~qcasimir.exact.EPoly` with
E_i read as e^(eps_i/2): each term is stored flat, keyed by the doubled
coordinates of mu followed by the quarter-grid q exponent, with a rational
coefficient, and the constructor and the per-weight readers present the
coefficient of e^mu as a :class:`~qcasimir.exact.QLaurent`.  It takes its
ring arithmetic, packed products and leading-term division from EPoly; this
module adds only what depends on weights, each weight's work done once for
all its q terms.  Every ``GAElem.div_exact`` is EPoly's one lexicographic
leading-term elimination, whose remainder reaching zero certifies
exactness.  The Weyl denominator Delta is the rho-alternant
(:func:`weyl_denominator`); it equals
e^rho * prod over positive roots of (1 - e^(-alpha)), and
:func:`divide_by_denominator` divides by it one factor at a time, in a
stage of its own: 1 - e^(-alpha) is divided by summing the numerator down
each chain k, k - alpha, ...; the running sum is the quotient coefficient,
and the division is exact exactly when every chain sum returns to zero, so
no coefficient is ever divided.  Monomial order is lexicographic on doubled
coordinates, highest first (Python tuple comparison).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import factorial, prod
from operator import add, gt, itemgetter, mul, sub
from typing import Sequence

from .exact import (
    QL_ONE,
    Coeff,
    EPoly,
    NotDivisible,
    QLaurent,
    RankMismatch,
    ZeroBase,
    _clean,
    _cleared_powers,
    _norm_coeff,
)
from .roots import (
    MIN_RANK,
    LieType,
    RootSystem,
    Weight,
    _Frozen,
    build_root_system,
    eps,
    pairing,
)


class RankTooLargeForEnumeration(ValueError):
    pass


class GridMismatch(ValueError):
    pass


_ENUM_RANK_LIMIT = 7


class SignedPerm(_Frozen):
    """A signed permutation w of {1..n}: w(eps_i) = signs[i] * eps_{perm[i]}.

    ``perm`` is a tuple with 1-based images, ``signs`` entries are +-1.
    """

    __slots__ = _fields = ("perm", "signs")

    def __init__(self, perm: tuple[int, ...], signs: tuple[int, ...]):
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("perm is not a bijection of 1..n")
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be a +-1 vector of matching length")
        self._set(perm, signs)

    def apply(self, w: Weight) -> Weight:
        if len(w.dbl) != len(self.perm):
            raise RankMismatch("weight rank differs from permutation rank")
        return Weight(_act_dbl(self.perm, self.signs, w.dbl))

    def sgn(self) -> int:
        """Determinant of the signed permutation matrix."""
        return _perm_parity(self.perm) * prod(self.signs)


def _perm_parity(seq: Sequence) -> int:
    """(-1)^(number of inversions i < j, seq[i] > seq[j])."""
    n = len(seq)
    odd = sum(seq[i] > seq[j] for i in range(n) for j in range(i + 1, n)) % 2
    return -1 if odd else 1


def _act_dbl(
    perm: tuple[int, ...], signs: tuple[int, ...], dbl: tuple[int, ...]
) -> tuple[int, ...]:
    out = [0] * len(dbl)
    for i, d in enumerate(dbl):
        out[perm[i] - 1] = d if signs[i] > 0 else -d
    return tuple(out)


def _weyl_elements(rs: RootSystem):
    """Every group element as (perm, signs, sgn(w)) (see :class:`SignedPerm`):
    permutations in lexicographic order, each with every sign pattern (in
    type D the even ones); sgn(w) is perm's parity times the signs' product."""
    n = rs.rank
    if n > _ENUM_RANK_LIMIT:
        raise RankTooLargeForEnumeration(
            f"rank {n} exceeds the enumeration guard ({_ENUM_RANK_LIMIT})"
        )
    patterns = [
        (signs, prod(signs))
        for signs in product((1, -1), repeat=n)
        if rs.lie_type is not LieType.D or prod(signs) > 0
    ]
    for perm in permutations(range(1, n + 1)):
        parity = _perm_parity(perm)
        for signs, sign in patterns:
            yield perm, signs, parity * sign


def enumerate_weyl(rs: RootSystem) -> list[SignedPerm]:
    """All group elements; 2^n * n! for types B/C, half that for type D."""
    return [SignedPerm(perm, signs) for perm, signs, _ in _weyl_elements(rs)]


@cache
def simple_reflections(rs: RootSystem) -> tuple[SignedPerm, ...]:
    """s_alpha for each simple root alpha, read off its action
    eps_i -> eps_i - (eps_i, alpha^vee) alpha, which is +-eps_j."""
    basis = [eps(rs.rank, i) for i in range(1, rs.rank + 1)]
    refls = []
    for alpha in rs.simple_roots:
        coroot = rs.coroot(alpha)
        images = [e - alpha.scale(int(pairing(e, coroot))) for e in basis]
        perm = tuple(next(j for j, d in enumerate(w.dbl, 1) if d) for w in images)
        signs = tuple(1 if w.dbl[j - 1] > 0 else -1 for w, j in zip(images, perm))
        refls.append(SignedPerm(perm, signs))
    return tuple(refls)


class GAElem(EPoly):
    """Finite sum of formal exponentials of weights with q-Laurent
    coefficients.

    The ring is :class:`EPoly` with E_i read as e^(eps_i/2): ``terms`` maps
    the doubled coordinates of each weight, then the quarter-grid q
    exponent, to a nonzero rational.  Immutable; adds the Weyl action and
    the specialization of the weight variables at a point.
    """

    __slots__ = ()
    _json_key = "weight"

    def __mul__(self, other):
        """The product; Weyl's trick when one factor X is W-alternating and
        the other, Y, W-invariant.

        Then X = A(X~) for X~ its part on strictly dominant weights, and
        X * Y = A(X~ * Y), as w(X~) * Y = w(X~ * Y) for every w: the pair
        loop runs over X~, |W| times smaller than X, and :func:`straighten`
        and the orbit expansion give A.  W is the group of B_n (every signed
        permutation, so types B and C) when both factors satisfy it, else
        that of D_n (rank >= 4); both premises are checked exactly
        (:func:`_weyl_product`), from rank 3 to the orbit table's limit.  Every other product, a scalar factor, and
        the errors of mixed classes or ranks are EPoly's.
        """
        if type(other) is type(self) and other.rank == self.rank:
            fast = _weyl_product(self, other)
            if fast is not None:
                return fast
        return _pair_loop(self, other)

    # in this class body because perfbench/tracing.py wraps it through
    # vars(GAElem), as a layer apart from EPoly's
    div_exact = EPoly.div_exact

    @staticmethod
    def exponential(w: Weight, coeff: QLaurent = QL_ONE) -> "GAElem":
        return GAElem(len(w.dbl), {w.dbl: coeff})

    # -- structure ---------------------------------------------------------

    def has_integral_support(self) -> bool:
        return all(all(d % 2 == 0 for d in k[:-1]) for k in self.terms)

    def is_constant_in_q(self) -> bool:
        return not any(k[-1] for k in self.terms)

    def leading(self) -> tuple[tuple, QLaurent]:
        if not self.terms:
            raise ValueError("zero element has no leading term")
        by_weight = self._per_weight()
        w = max(by_weight)
        return w, by_weight[w]

    def shift(self, w: Weight) -> "GAElem":
        """e^w * self, by moving every key."""
        if len(w.dbl) != self.rank:
            raise RankMismatch("weight rank differs from element rank")
        d = w.dbl + (0,)
        return self._like({tuple(map(add, k, d)): c for k, c in self.terms.items()})

    # -- Weyl action -------------------------------------------------------

    def act(self, w: SignedPerm) -> "GAElem":
        if len(w.perm) != self.rank:
            raise RankMismatch("ranks differ")
        # a bijection of the keys, so no two terms meet
        perm, signs = w.perm, w.signs
        images: dict[tuple, tuple] = {}
        res: dict[tuple, Coeff] = {}
        for key, c in self.terms.items():
            weight = key[:-1]
            image = images.get(weight)
            if image is None:
                image = images[weight] = _act_dbl(perm, signs, weight)
            res[image + key[-1:]] = c
        return self._like(res)

    # -- evaluation ---------------------------------------------------------

    def specialize(self, half_point: Sequence[Coeff]) -> QLaurent:
        """The q-Laurent polynomial left by e^(eps_i/2) := half_point[i-1],
        with q kept.

        The point gives the values of the half exponentials, so spin weights
        specialize exactly; integral weights only ever use the squares.  Each
        coordinate's powers come from one cleared-denominator table over its
        exponents in the support, so each weight's value is an integer over
        one common denominator, computed once; each q exponent's sum is
        divided once.
        """
        if len(half_point) != self.rank:
            raise GridMismatch("point length differs from rank")
        pt = [Fraction(x) for x in half_point]
        if any(x == 0 for x in pt):
            raise ZeroBase("zero entry in evaluation point")
        tables, num, den = [], 1, 1
        for x, lane in zip(pt, zip(*self.terms)):
            t, n, d = _cleared_powers(x, lane)
            tables.append(t)
            num, den = num * n, den * d
        values: dict[tuple, int] = {}
        acc: dict[int, Coeff] = {}
        for key, c in self.terms.items():
            w, e = key[:-1], key[-1]
            scalar = values.get(w)
            if scalar is None:
                scalar = 1
                for t, d in zip(tables, w):
                    scalar *= t[d]
                values[w] = scalar
            acc[e] = acc.get(e, 0) + c * scalar
        return QLaurent({e: Fraction(v * num, den) for e, v in acc.items()})

    def evaluate(self, s: Coeff, half_point: Sequence[Coeff]) -> Fraction:
        """Exact value with q^(1/4) := s and e^(eps_i/2) := half_point[i-1]:
        :meth:`specialize`, then evaluate in q."""
        return self.specialize(half_point).evaluate(s)

    # -- display --------------------------------------------------------------

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self._per_weight().items(), reverse=True):
            c = str(c)
            if " " in c:
                c = f"({c})"
            if any(w):
                mono = "e[" + ",".join(str(Fraction(d, 2)) for d in w) + "]"
                if c == "1":
                    parts.append(mono)
                elif c == "-1":
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
            else:
                parts.append(c)
        return " + ".join(parts).replace("+ -", "- ")


def _to_dominant(mags: tuple, key: tuple, type_d: bool) -> tuple[tuple, int]:
    """The dominant weight in the orbit of ``key`` (doubled coordinates,
    ``mags`` their absolute values), and the number of negative coordinates
    of ``key``.

    Sort the |mu_i| in decreasing order; in type D the group flips an even
    number of signs, so an odd number of negative mu_i leaves the last
    coordinate negative (a no-op when it is 0).
    """
    dom = sorted(mags, reverse=True)
    flips = sum(1 for d in key if d < 0)
    if type_d and flips % 2:
        dom[-1] = -dom[-1]
    return tuple(dom), flips


def straighten(x: GAElem, rs: RootSystem) -> GAElem:
    """The alternating element A(x) = sum over w of sgn(w) * w(x), as its
    chamber form: the GAElem of its coefficients c_nu on the strictly
    dominant weights nu, so that A(x) = sum over nu of c_nu A(e^nu).

    A(e^mu) is zero when mu lies on a wall and sgn(w) * A(e^(w mu)) else, so
    each term e^mu moves to the dominant weight of its orbit, carrying the
    sign of the Weyl element that moves it there:

    * types B and C: sort the |mu_i| in decreasing order; the sign is the
      parity of the sort times (-1)^(number of negative mu_i), and the term
      drops on a tie or a zero (walls of eps_i +- eps_j and of eps_i);
    * type D: the same sort with the parity alone as the sign (the group
      flips an even number of signs); an odd number of negative mu_i leaves
      the last coordinate negative unless it is 0, and the term drops on a
      tie (two zeros included).
    """
    n = rs.rank
    if x.rank != n:
        raise RankMismatch("ranks differ")
    type_d = rs.lie_type is LieType.D
    moves: dict[tuple, tuple | None] = {}  # weight -> (dominant, sign) or None
    res: dict[tuple, Coeff] = {}
    for key, c in x.terms.items():
        w = key[:-1]
        if w not in moves:
            mags = tuple(map(abs, w))
            if len(set(mags)) < n or (not type_d and 0 in mags):
                moves[w] = None
            else:
                dom, flips = _to_dominant(mags, w, type_d)
                sign = _perm_parity(mags[::-1])  # of the decreasing sort
                moves[w] = dom, -sign if flips % 2 and not type_d else sign
        move = moves[w]
        if move is not None:
            k = move[0] + key[-1:]
            res[k] = res.get(k, 0) + (c if move[1] > 0 else -c)
    return x._like(_clean(res))


@cache
def _orbit_getters(rs: RootSystem) -> tuple:
    """[(gather, sgn(w))] in the order of :func:`enumerate_weyl`:
    gather(key + -key) is w(key) by C-level indexing, as w(eps_i) =
    +-eps_perm(i) puts key[i] (offset n if flipped) at position perm(i)."""
    n = rs.rank
    out = []
    last = None
    for perm, signs, sgn in _weyl_elements(rs):
        if perm != last:  # the walk yields each perm's sign patterns in a row
            last, inverse = perm, sorted(range(n), key=perm.__getitem__)
        src = [i if signs[i] > 0 else i + n for i in inverse]
        out.append((itemgetter(*src), sgn))
    return tuple(out)


def _orbit_expand(chamber: GAElem, rs: RootSystem) -> GAElem:
    """sum over strictly dominant nu of c_nu * A(e^nu), from the chamber
    form {nu: c_nu}.

    The group acts freely on the orbit of a strictly dominant weight and
    distinct ones have disjoint orbits, so every image is stored once, with
    no coefficient added.
    """
    getters = _orbit_getters(rs)
    res: dict[tuple, Coeff] = {}
    for key, c in chamber.terms.items():
        w, e = key[:-1], key[-1:]
        ext = w + tuple(-d for d in w)
        for gather, sign in getters:
            res[gather(ext) + e] = c if sign > 0 else -c
    return chamber._like(res)


# EPoly's packed pair loop, bound here once: GAElem products call it by this
# name, so that a wrapper on EPoly.__mul__ (perfbench/tracing.py) counts only
# the products of EPolys
_pair_loop = EPoly.__mul__


def _swap_12(key: tuple) -> tuple:
    # s_(eps_1 - eps_2) on a flat key: in the groups of B_n and D_n alike
    return (key[1], key[0]) + key[2:]


def _flip_last(key: tuple) -> tuple:
    # s_(eps_n) on a flat key (the q lane is last): in B_n's group, not D_n's
    return key[:-2] + (-key[-2], key[-1])


def _first_terms_allow(x: GAElem, y: GAElem, image) -> bool:
    """Whether s(x) = -x and s(y) = y hold on the first term of each, for
    the reflection s that ``image`` applies to keys: an O(1) test that every
    alternating x and invariant y pass."""
    (kx, cx), (ky, cy) = next(iter(x.terms.items())), next(iter(y.terms.items()))
    return x.terms.get(image(kx)) == -cx and y.terms.get(image(ky)) == cy


def _chamber_part(x: GAElem, rs: RootSystem) -> GAElem:
    """x's terms on strictly dominant weights, (mu, alpha) > 0 for every
    simple root: mu_1 > ... > mu_n > 0 in types B and C, and mu_1 > ... >
    mu_(n-1) > |mu_n| in type D (each key compared with its successors)."""
    if rs.lie_type is LieType.D:
        def below(k):
            return k[1:-2] + (abs(k[-2]),)
    else:
        def below(k):
            return k[1:-1] + (0,)
    return x._like({k: c for k, c in x.terms.items() if all(map(gt, k, below(k)))})


def _weyl_product(x: GAElem, y: GAElem) -> GAElem | None:
    """x * y as A(X~ * Y) when one factor X is alternating and the other Y
    invariant under one Weyl group, else None.

    Most other products are rejected in O(1): a nonzero alternating X holds
    whole regular orbits, so at least |W| terms for the smaller group (D_n's
    from rank 4, else B_n's), and the first terms must pass
    s_(eps_1 - eps_2), which lies in both groups (s_(eps_n) only in B_n's).
    Then, for B_n's group and else D_n's, X alternating is X = A(X~) with
    X~ = :func:`_chamber_part` (an alternating element vanishes on the walls
    and is sgn(w) c_nu at w nu), and Y invariant is :func:`is_w_invariant`,
    both exact.
    """
    n = x.rank
    # from rank 3, |W| >= 48; in B2 (|W| = 8) the pair loop's 8 pairs per
    # term of Y cost less than checking and straightening Y
    if not 3 <= n <= _ENUM_RANK_LIMIT:
        return None
    least = factorial(n) << (n - (n >= MIN_RANK[LieType.D]))
    for x, y in ((x, y), (y, x)):
        if len(x.terms) >= least and y.terms and _first_terms_allow(x, y, _swap_12):
            break
    else:
        return None
    groups = [LieType.B] if _first_terms_allow(x, y, _flip_last) else []
    if n >= MIN_RANK[LieType.D]:
        groups.append(LieType.D)
    for lie in groups:
        rs = build_root_system(lie, n)
        part = _chamber_part(x, rs)
        if _orbit_expand(part, rs) == x and is_w_invariant(y, rs):
            # antisymmetrize's body, not the function: perfbench/tracing.py
            # times antisymmetrize as a layer of its own
            return _orbit_expand(straighten(_pair_loop(part, y), rs), rs)
    return None


def antisymmetrize(x: GAElem, rs: RootSystem) -> GAElem:
    """sum over the Weyl group of sgn(w) * w(x), as the signed orbit
    expansion of :func:`straighten`: |W| stores per surviving dominant
    weight instead of |W| additions per term of x."""
    return _orbit_expand(straighten(x, rs), rs)


def alternant(rs: RootSystem, lam: Weight) -> GAElem:
    """Antisymmetrized exponential of a single weight (orbit sum with signs)."""
    return _orbit_expand(straighten(GAElem.exponential(lam), rs), rs)


@cache
def weyl_denominator(rs: RootSystem) -> GAElem:
    """The Weyl denominator Delta, as the rho-alternant."""
    return alternant(rs, rs.rho)


def _div_root_factor(x: GAElem, alpha: tuple) -> GAElem:
    """x / (1 - e^(-alpha)) for a lex-positive alpha (doubled coordinates),
    by chain sums; raises NotDivisible when there is no quotient.

    x = y * (1 - e^(-alpha)) reads y[k] = x[k] + y[k + alpha]: down each
    chain k, k - alpha, k - 2 alpha, ... of numerator keys (one q exponent
    each) the quotient coefficient at k is the running sum of the numerator
    from the top of the chain, so no coefficient is ever divided.  When
    every chain sum returns to zero, y * (1 - e^(-alpha)) telescopes to x,
    so y is the (unique) quotient and lies in the support box without a
    per-term check.  A sum that does not return to zero walks out of the
    box in the first coordinate i0 where alpha is nonzero (alpha[i0] > 0),
    which proves the division inexact and ends the walk.
    """
    i0 = next(i for i, a in enumerate(alpha) if a)
    d = alpha + (0,)
    # y[i0] >= min(x)[i0] + alpha[i0]: the box floor
    floor = min(map(itemgetter(i0), x.terms), default=0) + alpha[i0]
    num = dict(x.terms)
    quot: dict[tuple, Coeff] = {}
    for top in sorted(num, reverse=True):
        y = num.pop(top, None)  # None: consumed by a walk from above
        k = top
        while y is not None:
            if k[i0] < floor:
                raise NotDivisible("nonzero remainder in alternant division")
            quot[k] = y
            k = tuple(map(sub, k, d))
            c = num.pop(k, None)
            if c is not None:
                y = _norm_coeff(y + c) or None
    return x._like(quot)


def divide_by_denominator(x: GAElem, rs: RootSystem) -> GAElem:
    """Exact quotient x / Delta, one chain-sum stage per positive root.

    Delta = e^rho * prod over alpha > 0 of (1 - e^(-alpha)), so x is divided
    by each 1 - e^(-alpha) (:func:`_div_root_factor`) and shifted by -rho
    once at the end.  Each stage is linear in the sizes of its numerator
    and quotient, for any q-Laurent coefficients, with no key shifted
    between stages, and is exact on its own whenever the full quotient
    exists (the factors are non-zero-divisors).  The one-shot division
    ``x.div_exact(weyl_denominator(rs))`` takes the leading-term elimination
    instead and must agree; the test suite checks that.
    """
    if x.rank != rs.rank:
        raise RankMismatch("ranks differ")
    for alpha in rs.positive_roots:
        x = _div_root_factor(x, alpha.dbl)
    return x.shift(-rs.rho)


def dominant_multiplicities(rs: RootSystem, lam: Weight) -> dict[tuple, int]:
    """{mu: m(mu)} over the dominant weights mu <= lam (doubled
    coordinates) of the simple module with highest weight lam, by
    Freudenthal's formula.

    The dominant weights below lam are reached from lam by subtracting
    positive roots through dominant weights only (Stembridge: dominant
    covers differ by a positive root).  Freudenthal's recursion

        ((lam+rho, lam+rho) - (mu+rho, mu+rho)) m(mu)
            = 2 * sum over alpha > 0, j >= 1 of (mu + j alpha, alpha) m(mu + j alpha)

    is read on doubled coordinates, where both pairings scale by 4, so it
    stays in integers.  The weights are taken by decreasing (mu+rho, mu+rho):
    every dominant weight above mu comes earlier, and m(mu + j alpha) is the
    multiplicity of the dominant weight in its orbit.  The alpha-string
    through mu is unbroken, so the sum over j stops at the first
    non-weight.  A quotient that does not divide exactly raises
    :class:`NotDivisible`.
    """
    type_d = rs.lie_type is LieType.D
    roots = [a.dbl for a in rs.positive_roots]

    def dominant(key):
        return _to_dominant(tuple(map(abs, key)), key, type_d)[0]

    below = {lam.dbl}
    frontier = [lam.dbl]
    while frontier:
        nxt = []
        for mu in frontier:
            for a in roots:
                nu = tuple(map(sub, mu, a))
                if nu not in below and dominant(nu) == nu:
                    below.add(nu)
                    nxt.append(nu)
        frontier = nxt

    rho = rs.rho.dbl

    def norm_rho(mu):
        return sum((m + r) ** 2 for m, r in zip(mu, rho))

    top = norm_rho(lam.dbl)
    mult: dict[tuple, int] = {}
    for mu in sorted(below, key=norm_rho, reverse=True):
        if mu == lam.dbl:
            mult[mu] = 1
            continue
        total = 0
        for a in roots:
            nu = tuple(map(add, mu, a))
            while (m := mult.get(dominant(nu))) is not None:
                total += sum(map(mul, nu, a)) * m
                nu = tuple(map(add, nu, a))
        gap = top - norm_rho(mu)
        if gap <= 0 or (2 * total) % gap:
            raise NotDivisible(
                f"Freudenthal quotient {2 * total}/{gap} at {mu} is not integral"
            )
        mult[mu] = 2 * total // gap
    return mult


def _orbit(dom: tuple, type_d: bool):
    """The distinct images of the dominant weight ``dom`` under the Weyl
    group: the distinct permutations of the |mu_i| with every sign pattern
    on the nonzero coordinates; in type D with no zero coordinate, only the
    patterns whose number of minus signs has the parity of dom's."""
    mags = tuple(map(abs, dom))
    parity = (dom[-1] < 0) if type_d and mags[-1] else None
    for perm in _distinct_permutations(mags):
        for key in product(*[(d, -d) if d else (0,) for d in perm]):
            if parity is None or (sum(1 for d in key if d < 0) % 2 == 1) == parity:
                yield key


def _distinct_permutations(values: tuple):
    """Each distinct ordering of ``values`` once, values taken in order of
    first appearance, at a cost in proportion to the orderings yielded."""
    if len(values) < 2:
        yield values
        return
    for v in dict.fromkeys(values):
        i = values.index(v)
        for rest in _distinct_permutations(values[:i] + values[i + 1 :]):
            yield (v,) + rest


@cache
def weyl_character(rs: RootSystem, lam: Weight) -> GAElem:
    """Character of the simple module with highest weight lam: the
    Freudenthal multiplicities of :func:`dominant_multiplicities`, each
    written onto the distinct images of its dominant weight.  Nothing is
    divided and the Weyl group is never enumerated, so any rank works; the
    alternant quotient ``divide_by_denominator(alternant(rs, lam + rho),
    rs)`` is the oracle it must equal."""
    rs.check_highest_weight(lam)
    type_d = rs.lie_type is LieType.D
    terms: dict[tuple, int] = {}
    for mu, m in dominant_multiplicities(rs, lam).items():
        for image in _orbit(mu, type_d):
            terms[image + (0,)] = m
    return GAElem._flat(rs.rank, terms)


def character_sum(chamber: GAElem, rs: RootSystem) -> GAElem:
    """sum over nu of c_nu chi_{nu - rho} for a chamber form {nu: c_nu}: by
    Weyl's formula, (sum over nu of c_nu A(e^nu)) / Delta, with nothing
    divided."""
    terms: dict[tuple, Coeff] = {}
    for nu, c in chamber._per_weight().items():
        chi = weyl_character(rs, Weight(nu) - rs.rho)
        qs = list(c.terms.items())
        for w, m in chi.terms.items():  # q lane 0: w[:-1] is the weight
            for e, x in qs:
                t = w[:-1] + e
                terms[t] = terms.get(t, 0) + m * x
    return GAElem._flat(rs.rank, _clean(terms))


@cache
def _ext_power_chars(rs: RootSystem) -> tuple[GAElem, ...]:
    n, d = rs.rank, rs.dim_natural
    # coefficient list in t of prod over a in I' of (1 + t e^{eps_a})
    coeffs: list[GAElem] = [GAElem.one(n)]
    for a in rs.iprime:
        f = GAElem.exponential(eps(n, a))
        new = [GAElem.zero(n)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            new[j] = new[j] + c
            new[j + 1] = new[j + 1] + c * f
        coeffs = new
    assert len(coeffs) == d + 1
    return tuple(coeffs)


def ext_power_char(rs: RootSystem, r: int) -> GAElem:
    """Character of the r-th exterior power of the natural module; zero
    outside 0..dim(V) by convention."""
    if r < 0 or r > rs.dim_natural:
        return GAElem.zero(rs.rank)
    return _ext_power_chars(rs)[r]


def is_w_invariant(x: GAElem, rs: RootSystem) -> bool:
    """Invariance under the Weyl group, checked on the simple reflections,
    which generate it."""
    return all(x.act(w) == x for w in simple_reflections(rs))
