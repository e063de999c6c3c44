"""Root data for the classical types B, C, D in orthogonal coordinates.

Weights live in the span of an orthonormal basis eps_1..eps_n and are stored
with doubled integer coordinates so the half-integer grid of spin weights
stays exact.  A :class:`RootSystem` packages positive/simple roots, the Weyl
vector rho, fundamental weights, the constants attached to the Casimir
formulas, and the index set used by their sums ({-n..-1, 1..n}, plus 0 in
type B, where eps_0 = 0).

Hook weights (k-r)*eps_1 + eps_2 + ... + eps_{rbar+1} parameterize the
irreducible constituents appearing in the character expansions; ``rbar``
folds the raw index r into 0..n-1 with a per-type rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence


class RootDataError(ValueError):
    pass


class RankTooSmall(RootDataError):
    pass


class LengthMismatch(RootDataError):
    pass


class IndexOutOfRange(RootDataError):
    pass


class BarNotApplicable(RootDataError):
    pass


class WrongType(RootDataError):
    pass


class NotDominant(RootDataError):
    pass


class NotOnWeightLattice(RootDataError):
    pass


class LieType(str, enum.Enum):
    B = "B"
    C = "C"
    D = "D"


MIN_RANK = {LieType.B: 2, LieType.C: 3, LieType.D: 4}


@dataclass(frozen=True)
class Weight:
    """Vector over eps_1..eps_n with coordinates in (1/2)Z.

    ``dbl`` holds the doubled coordinates as plain ints.
    """

    dbl: tuple[int, ...]

    @staticmethod
    def from_coords(coords: Sequence) -> "Weight":
        dbl = []
        for c in coords:
            f = Fraction(c) * 2
            if f.denominator != 1:
                raise RootDataError(f"coordinate {c} is not on the half grid")
            dbl.append(f.numerator)
        return Weight(tuple(dbl))

    @staticmethod
    def zero(rank: int) -> "Weight":
        return Weight((0,) * rank)

    @property
    def rank(self) -> int:
        return len(self.dbl)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(d, 2) for d in self.dbl)

    def is_integral(self) -> bool:
        return all(d % 2 == 0 for d in self.dbl)

    def __add__(self, other: "Weight") -> "Weight":
        if len(self.dbl) != len(other.dbl):
            raise LengthMismatch("weight ranks differ")
        return Weight(tuple(a + b for a, b in zip(self.dbl, other.dbl)))

    def __sub__(self, other: "Weight") -> "Weight":
        if len(self.dbl) != len(other.dbl):
            raise LengthMismatch("weight ranks differ")
        return Weight(tuple(a - b for a, b in zip(self.dbl, other.dbl)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.dbl))

    def scale(self, c: int) -> "Weight":
        return Weight(tuple(c * a for a in self.dbl))

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def pairing(a: Weight, b: Weight) -> Fraction:
    """Standard bilinear form with (eps_i, eps_j) = delta_ij."""
    if len(a.dbl) != len(b.dbl):
        raise LengthMismatch("weight ranks differ")
    return Fraction(sum(x * y for x, y in zip(a.dbl, b.dbl)), 4)


def eps(rank: int, i: int) -> Weight:
    """eps_i for 1 <= i <= rank; eps_{-i} = -eps_i; eps_0 = 0."""
    if i == 0:
        return Weight.zero(rank)
    j = abs(i)
    if not 1 <= j <= rank:
        raise IndexOutOfRange(f"eps index {i} out of range for rank {rank}")
    dbl = [0] * rank
    dbl[j - 1] = 2 if i > 0 else -2
    return Weight(tuple(dbl))


def _positive_roots(lie: LieType, n: int) -> tuple[Weight, ...]:
    roots: list[Weight] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append(eps(n, i) - eps(n, j))
            roots.append(eps(n, i) + eps(n, j))
    if lie is LieType.B:
        roots.extend(eps(n, i) for i in range(1, n + 1))
    elif lie is LieType.C:
        roots.extend(eps(n, i).scale(2) for i in range(1, n + 1))
    return tuple(roots)


def _simple_roots(lie: LieType, n: int) -> tuple[Weight, ...]:
    simple = [eps(n, i) - eps(n, i + 1) for i in range(1, n)]
    if lie is LieType.B:
        simple.append(eps(n, n))
    elif lie is LieType.C:
        simple.append(eps(n, n).scale(2))
    else:
        simple.append(eps(n, n - 1) + eps(n, n))
    return tuple(simple)


def _rho(lie: LieType, n: int) -> Weight:
    if lie is LieType.B:
        return Weight(tuple(2 * (n - i) + 1 for i in range(1, n + 1)))
    if lie is LieType.C:
        return Weight(tuple(2 * (n - i + 1) for i in range(1, n + 1)))
    return Weight(tuple(2 * (n - i) for i in range(1, n + 1)))


def _fundamental_weights(lie: LieType, n: int) -> tuple[Weight, ...]:
    fws = []
    for r in range(1, n + 1):
        if lie is LieType.B and r == n:
            fws.append(Weight((1,) * n))
        elif lie is LieType.D and r == n - 1:
            fws.append(Weight((1,) * (n - 1) + (-1,)))
        elif lie is LieType.D and r == n:
            fws.append(Weight((1,) * n))
        else:
            fws.append(Weight((2,) * r + (0,) * (n - r)))
    return tuple(fws)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """The root data of one (type, rank).  :func:`build_root_system` makes
    exactly one instance per (type, rank), so a system compares and hashes
    by identity, and per-system tables are cached with it as their key."""

    lie_type: LieType
    rank: int
    positive_roots: tuple[Weight, ...]
    simple_roots: tuple[Weight, ...]
    rho: Weight
    fundamental_weights: tuple[Weight, ...]
    c_n: int
    kappa_n: Fraction
    dim_natural: int
    iprime: tuple[int, ...]  # index set of the Casimir sums; 0 present in type B

    def fundamental_weight(self, i: int) -> Weight:
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"fundamental weight index {i}")
        return self.fundamental_weights[i - 1]

    def coroot(self, alpha: Weight) -> Weight:
        """2*alpha/(alpha, alpha), exact on the stored grid."""
        norm = pairing(alpha, alpha)
        factor = Fraction(2) / norm
        dbl = tuple(factor * d for d in alpha.dbl)
        if any(x.denominator != 1 for x in dbl):
            raise RootDataError("coroot leaves the half grid")
        return Weight(tuple(int(x) for x in dbl))

    def is_dominant(self, lam: Weight) -> bool:
        """Coordinate test: B/C need lam_1 >= ... >= lam_n >= 0, type D
        allows a negative last coordinate with lam_{n-1} >= |lam_n|."""
        d = lam.dbl
        if len(d) != self.rank:
            raise LengthMismatch("weight rank differs from system rank")
        for i in range(self.rank - 1):
            if d[i] < d[i + 1]:
                return False
        if self.lie_type is LieType.D:
            return self.rank < 2 or d[self.rank - 2] >= abs(d[self.rank - 1])
        return d[self.rank - 1] >= 0

    def is_on_weight_lattice(self, lam: Weight) -> bool:
        """Member of the weight lattice: integral coordinates, or (types B, D)
        all-half-integral coordinates."""
        if lam.rank != self.rank:
            return False
        if lam.is_integral():
            return True
        if self.lie_type is LieType.C:
            return False
        return all(d % 2 != 0 for d in lam.dbl)

    def check_highest_weight(self, lam: Weight) -> None:
        """Raise unless lam is dominant and on the weight lattice, that is,
        the highest weight of a simple module."""
        name = f"{self.lie_type.value}{self.rank}"
        if not self.is_dominant(lam):
            raise NotDominant(f"{lam} is not dominant for {name}")
        if not self.is_on_weight_lattice(lam):
            raise NotOnWeightLattice(f"{lam} is not on the weight lattice of {name}")

    def hook_r_range(self) -> range:
        n = self.rank
        if self.lie_type is LieType.B:
            return range(0, 2 * n)
        if self.lie_type is LieType.C:
            return range(0, 2 * n + 1)
        return range(0, 2 * n - 1)

    def rbar(self, r: int) -> int:
        """Fold the raw column index r into 0..n-1."""
        n = self.rank
        if r not in self.hook_r_range():
            raise IndexOutOfRange(f"r={r} outside the admissible range")
        if self.lie_type is LieType.B:
            return min(r, 2 * n - 1 - r)
        if self.lie_type is LieType.C:
            return min(r, 2 * n - r, n - 1)
        return min(r, 2 * n - 2 - r)

    def to_json(self) -> dict:
        return {
            "type": self.lie_type.value,
            "rank": self.rank,
            "rho": self.rho.to_json(),
            "c_n": self.c_n,
        }


@cache
def build_root_system(lie: LieType, n: int, /) -> RootSystem:
    lie = LieType(lie)
    if n < MIN_RANK[lie]:
        raise RankTooSmall(
            f"type {lie.value} needs rank >= {MIN_RANK[lie]}, got {n}"
        )
    if lie is LieType.B:
        c_n, kappa, dim = 2 * n, Fraction(2 * n - 1, 2), 2 * n + 1
        iprime = tuple(range(-n, n + 1))
    elif lie is LieType.C:
        c_n, kappa, dim = 2 * n + 1, Fraction(n), 2 * n
        iprime = tuple(i for i in range(-n, n + 1) if i)
    else:
        c_n, kappa, dim = 2 * n - 1, Fraction(n - 1), 2 * n
        iprime = tuple(i for i in range(-n, n + 1) if i)
    return RootSystem(
        lie_type=lie,
        rank=n,
        positive_roots=_positive_roots(lie, n),
        simple_roots=_simple_roots(lie, n),
        rho=_rho(lie, n),
        fundamental_weights=_fundamental_weights(lie, n),
        c_n=c_n,
        kappa_n=kappa,
        dim_natural=dim,
        iprime=iprime,
    )


@dataclass(frozen=True)
class HookWeight:
    """The highest weight (k-r)*eps_1 + mu_rbar, or its barred variant
    (type D, r = n-1 only), together with its indexing data."""

    k: int
    r: int
    weight: Weight
    bar_variant: bool = False


def mu_weight(rs: RootSystem, rbar: int) -> Weight:
    """eps_2 + ... + eps_{rbar+1} (zero when rbar == 0)."""
    if not 0 <= rbar <= rs.rank - 1:
        raise IndexOutOfRange(f"rbar={rbar} out of range")
    dbl = [0] + [2] * rbar + [0] * (rs.rank - 1 - rbar)
    return Weight(tuple(dbl))


def hook_weight(rs: RootSystem, k: int, r: int, bar: bool = False) -> HookWeight:
    if k < 0:
        raise IndexOutOfRange("k must be >= 0")
    n = rs.rank
    if bar:
        if rs.lie_type is not LieType.D or r != n - 1:
            raise BarNotApplicable("barred hooks exist only in type D at r = n-1")
        dbl = [2 * (k - n + 1)] + [2] * (n - 2) + [-2]
        return HookWeight(k=k, r=r, weight=Weight(tuple(dbl)), bar_variant=True)
    rbar = rs.rbar(r)
    w = mu_weight(rs, rbar).dbl
    dbl = (2 * (k - r) + w[0],) + w[1:]
    return HookWeight(k=k, r=r, weight=Weight(dbl))


def tau(rs: RootSystem, r: int) -> int:
    """Sign pattern of the index r in the type C expansions: +1 below the
    middle index, 0 at it, -1 above."""
    if rs.lie_type is not LieType.C:
        raise WrongType("tau is defined for type C only")
    n = rs.rank
    if not 0 <= r <= 2 * n:
        raise IndexOutOfRange(f"r={r} outside 0..{2 * n}")
    if r <= n - 1:
        return 1
    if r == n:
        return 0
    return -1


def weyl_dimension(rs: RootSystem, lam: Weight) -> Fraction:
    """prod over positive roots of (lam+rho, alpha)/(rho, alpha)."""
    rs.check_highest_weight(lam)
    num = Fraction(1)
    lam_rho = lam + rs.rho
    for alpha in rs.positive_roots:
        num *= pairing(lam_rho, alpha) / pairing(rs.rho, alpha)
    return num


def partition_to_weight(rs: RootSystem, parts: Sequence[int]) -> Weight:
    """Embed a partition (lam_1 >= lam_2 >= ... >= 0) as a dominant weight."""
    parts = tuple(parts)
    if len(parts) > rs.rank:
        raise IndexOutOfRange("partition has more parts than the rank")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)) or any(
        p < 0 for p in parts
    ):
        raise RootDataError(f"{parts} is not a partition")
    return Weight(tuple(2 * p for p in parts) + (0,) * (rs.rank - len(parts)))
