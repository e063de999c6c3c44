"""Weyl groups as signed permutations and the group algebra of the weight
lattice.

The Weyl groups of types B and C coincide: all signed permutations of
{1..n}; type D is the index-two subgroup with an even number of sign flips.
Group elements act on weights coordinate-wise, and the antisymmetrizer
``sum over w of sgn(w) * w`` produces alternants.

An alternating element is determined by its coefficients on strictly
dominant weights.  :func:`straighten` computes them with no group
enumeration: each term e^mu moves to the dominant weight of its orbit with
the sign of the Weyl element that moves it there (sort the |mu_i|; the sign
is the parity of the sort, times (-1)^(negative mu_i) in types B and C), and
drops when mu lies on a wall.  The group acts freely on the orbit of a
strictly dominant weight, so expanding the straightened coefficients back
over the group (:func:`antisymmetrize`, :func:`alternant`) stores each image
once and adds no coefficients.

Characters (:func:`weyl_character`) divide nothing: Freudenthal's formula
gives the multiplicity of every dominant weight below the highest weight,
in integers, and each multiplicity is written onto the distinct images of
its weight (signed permutations of the coordinates, generated directly), so
no rank limit applies.  Alternant division, A(lam + rho) / Delta, is kept as
the independent oracle that the tests and acceptance criterion 8 compare
against.

:class:`GAElem` is a finite formal sum of exponentials e^mu with q-Laurent
coefficients.  It is the Laurent ring :class:`~qcasimir.exact.EPoly` with
E_i read as e^(eps_i/2): each term is stored flat, keyed by the doubled
coordinates of mu followed by the quarter-grid q exponent, with a rational
coefficient, and the constructor and the per-weight readers present the
coefficient of e^mu as a :class:`~qcasimir.exact.QLaurent`.  It takes its
ring arithmetic, packed products and leading-term division from EPoly; this
module adds only what depends on weights, each weight's work done once for
all its q terms.  The Weyl denominator is
Delta = e^rho * prod over positive roots of (1 - e^(-alpha)), and
:func:`divide_by_denominator` divides by it one binomial factor at a time.
A binomial e^u - e^v with u > v is divided by summing the numerator down
each chain k, k - (u - v), ...: the running sum is the quotient
coefficient, and the division is exact exactly when every chain sum returns
to zero, so no coefficient is ever divided.  Other denominators go through
lexicographic leading-term elimination, whose remainder reaching zero
certifies exactness.  Monomial order is lexicographic on doubled
coordinates, highest first (Python tuple comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from collections import Counter
from itertools import permutations, product
from operator import add, itemgetter, mul, sub
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
    _norm_coeff,
)
from .roots import (
    LieType,
    RootSystem,
    Weight,
)


class RankTooLargeForEnumeration(ValueError):
    pass


class GridMismatch(ValueError):
    pass


_ENUM_RANK_LIMIT = 7


@dataclass(frozen=True)
class SignedPerm:
    """A signed permutation w of {1..n}: w(eps_i) = signs[i] * eps_{perm[i]}.

    ``perm`` is a tuple with 1-based images, ``signs`` entries are +-1.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError("perm is not a bijection of 1..n")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be a +-1 vector of matching length")

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(1, n + 1)), (1,) * n)

    @property
    def rank(self) -> int:
        return len(self.perm)

    def apply(self, w: Weight) -> Weight:
        if len(w.dbl) != len(self.perm):
            raise RankMismatch("weight rank differs from permutation rank")
        return Weight(_act_dbl(self.perm, self.signs, w.dbl))

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """self after other: (self*other)(v) = self(other(v))."""
        if len(self.perm) != len(other.perm):
            raise RankMismatch("ranks differ")
        perm = tuple(self.perm[p - 1] for p in other.perm)
        signs = tuple(
            s * self.signs[p - 1] for p, s in zip(other.perm, other.signs)
        )
        return SignedPerm(perm, signs)

    def sign_flips(self) -> int:
        return sum(1 for s in self.signs if s < 0)

    def sgn(self) -> int:
        """Determinant of the signed permutation matrix."""
        return _perm_parity(self.perm) * (1 if self.sign_flips() % 2 == 0 else -1)


def _perm_parity(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    parity = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def _act_dbl(
    perm: tuple[int, ...], signs: tuple[int, ...], dbl: tuple[int, ...]
) -> tuple[int, ...]:
    out = [0] * len(dbl)
    for i, d in enumerate(dbl):
        out[perm[i] - 1] = d if signs[i] > 0 else -d
    return tuple(out)


def enumerate_weyl(rs: RootSystem) -> list[SignedPerm]:
    """All group elements; 2^n * n! for types B/C, half that for type D."""
    n = rs.rank
    if n > _ENUM_RANK_LIMIT:
        raise RankTooLargeForEnumeration(
            f"rank {n} exceeds the enumeration guard ({_ENUM_RANK_LIMIT})"
        )
    even_only = rs.lie_type is LieType.D
    elems = []
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            if even_only and sum(1 for s in signs if s < 0) % 2:
                continue
            elems.append(SignedPerm(perm, signs))
    return elems


def simple_reflections(rs: RootSystem) -> list[SignedPerm]:
    n = rs.rank
    refls = []
    for i in range(1, n):
        perm = list(range(1, n + 1))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        refls.append(SignedPerm(tuple(perm), (1,) * n))
    if rs.lie_type in (LieType.B, LieType.C):
        signs = [1] * n
        signs[n - 1] = -1
        refls.append(SignedPerm(tuple(range(1, n + 1)), tuple(signs)))
    else:
        perm = list(range(1, n + 1))
        perm[n - 2], perm[n - 1] = perm[n - 1], perm[n - 2]
        signs = [1] * n
        signs[n - 2] = signs[n - 1] = -1
        refls.append(SignedPerm(tuple(perm), tuple(signs)))
    return refls


def coset_representatives(rs: RootSystem) -> list[SignedPerm]:
    """The 2n left coset representatives of the rank n-1 subgroup fixing
    eps_1: the identity, the double flip of coordinates 1 and n, and for
    each 2 <= i <= n the plain and the sign-twisted swap of 1 and i."""
    n = rs.rank
    reps = [SignedPerm.identity(n)]
    flip = [1] * n
    flip[0] = flip[n - 1] = -1
    reps.append(SignedPerm(tuple(range(1, n + 1)), tuple(flip)))
    for i in range(2, n + 1):
        perm = list(range(1, n + 1))
        perm[0], perm[i - 1] = i, 1
        reps.append(SignedPerm(tuple(perm), (1,) * n))
        signs = [1] * n
        signs[0] = signs[i - 1] = -1
        reps.append(SignedPerm(tuple(perm), tuple(signs)))
    return reps


class GAElem(EPoly):
    """Finite sum of formal exponentials of weights with q-Laurent
    coefficients.

    The ring is :class:`EPoly` with E_i read as e^(eps_i/2): ``terms`` maps
    the doubled coordinates of each weight, then the quarter-grid q
    exponent, to a nonzero rational.  Immutable; adds the Weyl action, the
    chain-sum division by binomials and the specialization of the weight
    variables at a point.
    """

    __slots__ = ()
    _json_key = "weight"

    # in this class body because perfbench/tracing.py wraps it through
    # vars(GAElem), as a layer apart from EPoly.__mul__
    __mul__ = EPoly.__mul__

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

    # -- exact division ------------------------------------------------------

    def div_exact(self, den: "GAElem") -> "GAElem":
        """Exact quotient self/den; raises NotDivisible when there is none.

        A binomial e^u - e^v with u > v, the shape of every factor of the
        Weyl denominator, is divided by the chain-sum kernel
        (:meth:`_div_chains`).  Any other denominator goes through the
        leading-term elimination of :meth:`EPoly.div_exact`.
        """
        if self.terms and len(den.terms) == 2:
            self._check(den)
            u, v = sorted(den.terms, reverse=True)
            if not u[-1] and not v[-1] and den.terms[u] == 1 and den.terms[v] == -1:
                return self._div_chains(u, v)
        return super().div_exact(den)

    def _div_chains(self, u: tuple, v: tuple) -> "GAElem":
        """self / (e^u - e^v) for u > v, by chain sums.

        ``u`` and ``v`` are flat keys with q lane 0.  With d = u - v, self =
        y * (e^u - e^v) reads y[k-u] = self[k] + y[k-u+d]: down each chain
        k, k-d, k-2d, ... of numerator keys (one q exponent each) the
        quotient coefficient at k-u is the running sum of the numerator from
        the top of the chain, so no coefficient is ever divided.  When every
        chain sum returns to zero, y * (e^u - e^v) telescopes to self, so y
        is the (unique) quotient and lies in the support box without a
        per-term check.  A sum that does not return to zero walks out of the
        box in the first coordinate i0 where d is nonzero (d[i0] > 0), which
        proves the division inexact and ends the walk.
        """
        i0 = next(i for i in range(self.rank) if u[i] != v[i])
        d = tuple(map(sub, u, v))
        # (k - u)[i0] >= min(num)[i0] - v[i0]: the box floor, read on k
        floor = min(map(itemgetter(i0), self.terms)) + d[i0]
        num = dict(self.terms)
        quot: dict[tuple, Coeff] = {}  # keyed by k until the shift by -u
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
        if any(u):
            quot = {tuple(map(sub, k, u)): c for k, c in quot.items()}
        return self._like(quot)

    # -- evaluation ---------------------------------------------------------

    def specialize(self, half_point: Sequence[Coeff]) -> QLaurent:
        """The q-Laurent polynomial left by e^(eps_i/2) := half_point[i-1],
        with q kept.

        The point gives the values of the half exponentials, so spin weights
        specialize exactly; integral weights only ever use the squares.  Each
        power of a point coordinate, and the value of each weight, is computed
        once.
        """
        if len(half_point) != self.rank:
            raise GridMismatch("point length differs from rank")
        pt = [Fraction(x) for x in half_point]
        if any(x == 0 for x in pt):
            raise ZeroBase("zero entry in evaluation point")
        powers: list[dict[int, Fraction]] = [{} for _ in range(self.rank)]
        values: dict[tuple, Coeff] = {}
        acc: dict[int, Coeff] = {}
        for key, c in self.terms.items():
            w, e = key[:-1], key[-1]
            scalar = values.get(w)
            if scalar is None:
                scalar = 1
                for i, d in enumerate(w):
                    if d:
                        p = powers[i].get(d)
                        if p is None:
                            p = powers[i][d] = pt[i] ** d
                        scalar *= p
                values[w] = scalar
            acc[e] = acc.get(e, 0) + c * scalar
        return QLaurent(acc)

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


def straighten(x: GAElem, rs: RootSystem) -> dict[tuple, QLaurent]:
    """The alternating element A(x) = sum over w of sgn(w) * w(x), as its
    coefficients on strictly dominant weights (doubled coordinates).

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
    type_d = rs.lie_type is LieType.D
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    moves: dict[tuple, tuple | None] = {}  # weight -> (dominant, odd) or None
    res: dict[tuple, Coeff] = {}
    for key, c in x.terms.items():
        w = key[:-1]
        if w not in moves:
            mags = tuple(map(abs, w))
            if len(set(mags)) < n or (not type_d and 0 in mags):
                moves[w] = None
            else:
                dom, flips = _to_dominant(mags, w, type_d)
                odd = sum(1 for i, j in pairs if mags[i] < mags[j])
                moves[w] = dom, (odd + (0 if type_d else flips)) % 2
        move = moves[w]
        if move is not None:
            k = move[0] + key[-1:]
            res[k] = res.get(k, 0) + (-c if move[1] else c)
    return x._like(_clean(res))._per_weight()


@lru_cache(maxsize=None)
def _orbit_getters(lie: LieType, n: int) -> tuple:
    """[(gather, sgn(w))] over the group: gather(key + -key) is w(key), read
    off one tuple by C-level indexing."""
    from .roots import build_root_system

    out = []
    for w in enumerate_weyl(build_root_system(lie, n)):
        src = [0] * n
        for i, (p, s) in enumerate(zip(w.perm, w.signs)):
            src[p - 1] = i if s > 0 else i + n
        out.append((itemgetter(*src), w.sgn()))
    return tuple(out)


def _orbit_expand(chamber: dict[tuple, QLaurent], rs: RootSystem) -> dict:
    """sum over strictly dominant nu of c_nu * A(e^nu), from {nu: c_nu}.

    The group acts freely on the orbit of a strictly dominant weight and
    distinct ones have disjoint orbits, so every image is stored once, with
    no coefficient added.
    """
    getters = _orbit_getters(rs.lie_type, rs.rank)
    res: dict[tuple, Coeff] = {}
    for key, c in chamber.items():
        pos = list(c.terms.items())
        neg = [(e, -x) for e, x in pos]
        ext = key + tuple(-d for d in key)
        for gather, sign in getters:
            image = gather(ext)
            for e, x in pos if sign > 0 else neg:
                res[image + e] = x
    return res


def antisymmetrize(x: GAElem, rs: RootSystem) -> GAElem:
    """sum over the Weyl group of sgn(w) * w(x), as the signed orbit
    expansion of :func:`straighten`: |W| stores per surviving dominant
    weight instead of |W| additions per term of x."""
    return x._like(_orbit_expand(straighten(x, rs), rs))


def alternant(rs: RootSystem, lam: Weight) -> GAElem:
    """Antisymmetrized exponential of a single weight (orbit sum with signs)."""
    x = GAElem.exponential(lam)
    return x._like(_orbit_expand(straighten(x, rs), rs))


@lru_cache(maxsize=None)
def _denominator_cached(lie: LieType, n: int) -> GAElem:
    from .roots import build_root_system

    rs = build_root_system(lie, n)
    return alternant(rs, rs.rho)


def weyl_denominator(rs: RootSystem, mode: str = "alternant") -> GAElem:
    """The standard denominator, as the rho-alternant or as the product of
    (e^(alpha/2) - e^(-alpha/2)) over positive roots.  Equality of the two
    modes is a mandatory identity exercised by the test suite."""
    if mode == "alternant":
        return _denominator_cached(rs.lie_type, rs.rank)
    if mode != "product":
        raise ValueError(f"unknown mode {mode!r}")
    res = GAElem.one(rs.rank)
    for alpha in rs.positive_roots:
        # alpha/2 doubled is alpha's (integral) coordinate vector
        factor = GAElem(
            rs.rank,
            {
                tuple(d // 2 for d in alpha.dbl): QL_ONE,
                tuple(-d // 2 for d in alpha.dbl): -QL_ONE,
            },
        )
        res = res * factor
    return res


def divide_by_denominator(x: GAElem, rs: RootSystem) -> GAElem:
    """Exact quotient x / Delta, one GAElem.div_exact stage per positive
    root.

    Delta = e^rho * prod over alpha > 0 of (1 - e^(-alpha)), so x is divided
    by each 1 - e^(-alpha), whose +1 sits on the lex-higher key 0, and
    shifted by -rho once at the end.  Every stage takes the chain-sum
    kernel of ``GAElem.div_exact``: linear in the sizes of its numerator and
    quotient, for any q-Laurent coefficients, with no key shifted between
    stages.  Each stage is exact on its own whenever the full quotient
    exists (the factors are non-zero-divisors).  The one-shot division
    ``x.div_exact(weyl_denominator(rs))`` takes the leading-term elimination
    instead and must agree; the test suite checks that.
    """
    zero = (0,) * rs.rank
    for alpha in rs.positive_roots:
        neg = tuple(-d for d in alpha.dbl)
        x = x.div_exact(GAElem(rs.rank, {zero: QL_ONE, neg: -QL_ONE}))
    return x.shift(-rs.rho)


def character_by_division(rs: RootSystem, lam: Weight) -> GAElem:
    """The oracle for :func:`weyl_character`: A(lam + rho) / Delta by
    alternant division, on the enumerated Weyl group (rank <= 7)."""
    rs.check_highest_weight(lam)
    return divide_by_denominator(alternant(rs, lam + rs.rho), rs)


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
    counts = Counter(values)
    n = len(values)
    prefix: list = []

    def extend():
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in counts:
            if counts[v]:
                counts[v] -= 1
                prefix.append(v)
                yield from extend()
                prefix.pop()
                counts[v] += 1

    return extend()


_char_cache: dict[tuple, GAElem] = {}


def weyl_character(rs: RootSystem, lam: Weight) -> GAElem:
    """Character of the simple module with highest weight lam: the
    Freudenthal multiplicities of :func:`dominant_multiplicities`, each
    written onto the distinct images of its dominant weight.  Nothing is
    divided and the Weyl group is never enumerated, so any rank works; the
    alternant quotient ``divide_by_denominator(alternant(rs, lam + rho),
    rs)`` is the oracle it must equal."""
    key = (rs.lie_type, rs.rank, lam.dbl)
    cached = _char_cache.get(key)
    if cached is not None:
        return cached
    rs.check_highest_weight(lam)
    type_d = rs.lie_type is LieType.D
    terms: dict[tuple, int] = {}
    for mu, m in dominant_multiplicities(rs, lam).items():
        for image in _orbit(mu, type_d):
            terms[image + (0,)] = m
    chi = GAElem._flat(rs.rank, terms)
    _char_cache[key] = chi
    return chi


@lru_cache(maxsize=None)
def _ext_power_chars(lie: LieType, n: int) -> tuple[GAElem, ...]:
    from .roots import build_root_system, eps

    rs = build_root_system(lie, n)
    d = rs.dim_natural
    # coefficient list in t of prod (1 + t e^{+-eps_i}) (times (1+t) in type B)
    coeffs: list[GAElem] = [GAElem.one(n)]
    factors: list[GAElem] = []
    for i in range(1, n + 1):
        factors.append(GAElem.exponential(eps(n, i)))
        factors.append(GAElem.exponential(eps(n, -i)))
    if lie is LieType.B:
        factors.append(GAElem.one(n))
    for f in factors:
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
    return _ext_power_chars(rs.lie_type, rs.rank)[r]


def is_w_invariant(x: GAElem, rs: RootSystem, full: bool = False) -> bool:
    """Invariance under the Weyl group; checking the simple reflections is
    equivalent and is the default, ``full`` forces the whole group."""
    if full:
        return all(
            x.act(w) == x
            for w in enumerate_weyl(rs)
        )
    return all(x.act(w) == x for w in simple_reflections(rs))


def natural_character(rs: RootSystem) -> GAElem:
    """Orbit-sum construction of the character of the natural module: the
    sum of e^mu over its known weight list (+-eps_i, plus 0 in type B).
    Independent of the alternant route; used as an oracle."""
    from .roots import eps

    res: dict[tuple, QLaurent] = {}
    for a in rs.iprime:
        res[eps(rs.rank, a).dbl] = QL_ONE
    return GAElem(rs.rank, res)
