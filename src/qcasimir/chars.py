"""Weyl groups as signed permutations and the group algebra of the weight
lattice.

The Weyl groups of types B and C coincide: all signed permutations of
{1..n}; type D is the index-two subgroup with an even number of sign flips.
Group elements act on weights coordinate-wise, and the antisymmetrizer
``sum over w of sgn(w) * w`` produces alternants.

:class:`GAElem` is a finite formal sum of exponentials e^mu with q-Laurent
coefficients, keyed by the doubled coordinates of mu.  It is the Laurent
ring :class:`~qcasimir.exact.EPoly` with E_i read as e^(eps_i/2), and takes
its ring arithmetic, packed products and leading-term division from there;
this module adds only what depends on weights.  Characters are quotients of
alternants by the Weyl denominator Delta = e^rho * prod over positive roots
of (1 - e^(-alpha)), divided one binomial factor at a time.  A binomial
e^u - e^v with u > v is divided by summing the numerator down each chain k,
k - (u - v), ...: the running sum is the quotient coefficient, and the
division is exact exactly when every chain sum returns to zero, so no
coefficient is ever divided.  Other denominators go through lexicographic
leading-term elimination, whose remainder reaching zero certifies
exactness.  Monomial order is lexicographic on doubled coordinates, highest
first (Python tuple comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from operator import itemgetter, sub
from typing import Sequence

from .exact import (
    QL_ONE,
    Coeff,
    EPoly,
    NotDivisible,
    QLaurent,
    RankMismatch,
    ZeroBase,
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

    def images(self) -> tuple[int, ...]:
        """Signed images: entry i-1 is w(i) in {-n..-1, 1..n}."""
        return tuple(p * s for p, s in zip(self.perm, self.signs))

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


@lru_cache(maxsize=None)
def _weyl_table(lie: LieType, n: int) -> tuple:
    """Precomputed [(perm, signs, sgn)] for the hot loops."""
    from .roots import build_root_system

    rs = build_root_system(lie, n)
    return tuple((w.perm, w.signs, w.sgn()) for w in enumerate_weyl(rs))


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
    """Finite sum of formal exponentials of weights with QLaurent coefficients.

    The ring is :class:`EPoly` with E_i read as e^(eps_i/2): ``terms`` maps
    the doubled coordinates of each weight to a nonzero QLaurent value.
    Immutable; adds the Weyl action, the chain-sum division by binomials and
    exact evaluation.
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
        return all(all(d % 2 == 0 for d in w) for w in self.terms)

    def is_constant_in_q(self) -> bool:
        return all(set(c.terms) <= {0} for c in self.terms.values())

    def leading(self) -> tuple[tuple, QLaurent]:
        if not self.terms:
            raise ValueError("zero element has no leading term")
        w = max(self.terms)
        return w, self.terms[w]

    # -- Weyl action -------------------------------------------------------

    def act(self, w: SignedPerm) -> "GAElem":
        if len(w.perm) != self.rank:
            raise RankMismatch("ranks differ")
        perm, signs = w.perm, w.signs
        res: dict[tuple, QLaurent] = {}
        for key, c in self.terms.items():
            nk = _act_dbl(perm, signs, key)
            prev = res.get(nk)
            res[nk] = c if prev is None else prev + c
        return GAElem(self.rank, res)

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
            if den.terms[u].terms == {0: 1} and den.terms[v].terms == {0: -1}:
                return self._div_chains(u, v)
        return super().div_exact(den)

    def _div_chains(self, u: tuple, v: tuple) -> "GAElem":
        """self / (e^u - e^v) for u > v, by chain sums.

        With d = u - v, self = y * (e^u - e^v) reads y[k-u] = self[k] +
        y[k-u+d]: down each chain k, k-d, k-2d, ... of numerator keys the
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
        quot: dict[tuple, QLaurent] = {}  # keyed by k until the shift by -u
        for top in sorted(num, reverse=True):
            q = num.pop(top, None)  # None: consumed by a walk from above
            k = top
            while q is not None:
                if k[i0] < floor:
                    raise NotDivisible("nonzero remainder in alternant division")
                quot[k] = q
                k = tuple(map(sub, k, d))
                c = num.pop(k, None)
                if c is not None:
                    acc = dict(q.terms)
                    for e, x in c.terms.items():
                        acc[e] = acc.get(e, 0) + x
                    q = QLaurent(acc) or None  # drops zeros, via _norm_coeff
        if any(u):
            quot = {tuple(map(sub, k, u)): c for k, c in quot.items()}
        return self._like(quot)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, s: Coeff, half_point: Sequence[Coeff]) -> Fraction:
        """Exact value with q^(1/4) := s and e^(eps_i/2) := half_point[i-1].

        The point gives the values of the half exponentials, so spin weights
        evaluate exactly; integral weights only ever use the squares.
        """
        if len(half_point) != self.rank:
            raise GridMismatch("point length differs from rank")
        pt = [Fraction(x) for x in half_point]
        if any(x == 0 for x in pt):
            raise ZeroBase("zero entry in evaluation point")
        s = Fraction(s)
        if s == 0:
            raise ZeroBase("evaluation at q^(1/4) = 0")
        powers: list[dict[int, Fraction]] = [{} for _ in range(self.rank)]
        total = Fraction(0)
        for key, c in self.terms.items():
            val = c.evaluate(s)
            for i, d in enumerate(key):
                if d:
                    p = powers[i].get(d)
                    if p is None:
                        p = powers[i][d] = pt[i] ** d
                    val *= p
            total += val
        return total

    # -- display --------------------------------------------------------------

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, reverse=True):
            c = str(self.terms[w])
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


def antisymmetrize(x: GAElem, rs: RootSystem) -> GAElem:
    """sum over the Weyl group of sgn(w) * w(x)."""
    table = _weyl_table(rs.lie_type, rs.rank)
    res: dict[tuple, QLaurent] = {}
    items = tuple(x.terms.items())
    for perm, signs, sign in table:
        for key, c in items:
            nk = _act_dbl(perm, signs, key)
            add = c if sign > 0 else -c
            prev = res.get(nk)
            nc = add if prev is None else prev + add
            if nc:
                res[nk] = nc
            elif nk in res:
                del res[nk]
    return GAElem(x.rank, res)


def alternant(rs: RootSystem, lam: Weight) -> GAElem:
    """Antisymmetrized exponential of a single weight (orbit sum with signs)."""
    table = _weyl_table(rs.lie_type, rs.rank)
    res: dict[tuple, QLaurent] = {}
    key = lam.dbl
    for perm, signs, sign in table:
        nk = _act_dbl(perm, signs, key)
        prev = res.get(nk, 0)
        nc = prev + sign
        if nc:
            res[nk] = nc
        elif nk in res:
            del res[nk]
    return GAElem(
        len(key), {w: QLaurent.rational(c) for w, c in res.items() if c}
    )


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
    shift = rs.rho.dbl
    return x._like({tuple(map(sub, k, shift)): c for k, c in x.terms.items()})


_char_cache: dict[tuple, GAElem] = {}


def weyl_character(rs: RootSystem, lam: Weight) -> GAElem:
    """Character of the simple module with highest weight lam, by exact
    division of alternants."""
    key = (rs.lie_type, rs.rank, lam.dbl)
    cached = _char_cache.get(key)
    if cached is not None:
        return cached
    rs.check_highest_weight(lam)
    num = alternant(rs, lam + rs.rho)
    chi = divide_by_denominator(num, rs)
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


def ga_eval(
    x: GAElem, s: Coeff, half_point: Sequence[Coeff]
) -> Fraction:
    return x.evaluate(s, half_point)


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
