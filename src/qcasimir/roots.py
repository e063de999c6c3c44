"""Root data for the classical types B, C, D in orthogonal coordinates.

Weights live in the span of an orthonormal basis eps_1..eps_n and are stored
with doubled integer coordinates so the half-integer grid of spin weights
stays exact.  A :class:`RootSystem` packages positive/simple roots, the Weyl
vector rho, fundamental weights and the constants of the Casimir formulas.
Per type, :func:`build_root_system` states only the last simple root (and
``MIN_RANK`` the least rank).  The rest is derived: the positive roots and
the fundamental weights from the simple roots, rho as half the positive-root
sum, the index set I' of the natural weights eps_a ({-n..-1, 1..n}, plus 0,
where eps_0 = 0, exactly when eps_1 is a root: type B), c_n = 1 + (eps_1,
2 rho), dim V = |I'|, kappa_n = (c_n - 1)/2, the hook columns 0..c_n - 1,
and the spin indices (the r whose fundamental weight is not integral).

Hook weights (k-r)*eps_1 + eps_2 + ... + eps_{rbar+1} parameterize the
irreducible constituents appearing in the character expansions; ``rbar``
folds the raw index r into 0..n-1 as min(r, c_n - 1 - r, n - 1).
"""

from __future__ import annotations

import enum
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


class _Frozen:
    """Base of the immutable types.  ``__init__`` sets each of ``_fields``
    once; assigning or deleting an attribute then raises AttributeError.
    Equality (within one class), hash and repr go by the fields, in order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Weight(_Frozen):
    """Vector over eps_1..eps_n with coordinates in (1/2)Z.

    ``dbl`` holds the doubled coordinates as plain ints.
    """

    __slots__ = _fields = ("dbl",)

    def __init__(self, dbl: tuple[int, ...]):
        object.__setattr__(self, "dbl", dbl)

    # the hot value type: equality and hash without the generic field walk
    def __eq__(self, other) -> bool:
        if other.__class__ is not Weight:
            return NotImplemented
        return self.dbl == other.dbl

    def __hash__(self) -> int:
        return hash((self.dbl,))

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


def _simple_roots(lie: LieType, n: int) -> tuple[Weight, ...]:
    """eps_i - eps_{i+1} for i < n, then the one per-type root: eps_n (B),
    2 eps_n (C) or eps_{n-1} + eps_n (D)."""
    last = {LieType.B: eps(n, n), LieType.C: eps(n, n).scale(2)}
    tail = last.get(lie, eps(n, n - 1) + eps(n, n))
    return tuple(eps(n, i) - eps(n, i + 1) for i in range(1, n)) + (tail,)


def _positive_roots(simple: tuple[Weight, ...]) -> tuple[Weight, ...]:
    """eps_i - eps_j and eps_i + eps_j for i < j, then, when the last simple
    root is c eps_n (types B, C), its orbit c eps_1, ..., c eps_n."""
    n, last = len(simple), simple[-1]
    roots: list[Weight] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append(eps(n, i) - eps(n, j))
            roots.append(eps(n, i) + eps(n, j))
    if not any(last.dbl[:-1]):  # last = c eps_n, c = last.dbl[-1] / 2
        roots.extend(eps(n, i).scale(last.dbl[-1] // 2) for i in range(1, n + 1))
    return tuple(roots)


def _fundamental_weights(simple: tuple[Weight, ...]) -> tuple[Weight, ...]:
    """The basis dual to the simple coroots.  Against eps_i - eps_{i+1}
    (i < n) that leaves omega_r = eps_1 + ... + eps_r + c (eps_1 + ... +
    eps_n), and (omega_r, alpha_n) = delta_rn (alpha_n, alpha_n)/2 fixes c."""
    n, alpha = len(simple), simple[-1]
    ones = Weight((2,) * n)
    fws = []
    for r in range(1, n + 1):
        head = Weight((2,) * r + (0,) * (n - r))
        two_c = (r == n) * pairing(alpha, alpha) - 2 * pairing(head, alpha)
        two_c /= pairing(ones, alpha)
        fws.append(Weight(tuple(d + int(two_c) for d in head.dbl)))
    return tuple(fws)


class RootSystem(_Frozen):
    """The root data of one (type, rank).  :func:`build_root_system` makes
    exactly one instance per (type, rank), so a system compares and hashes
    by identity, and per-system tables are cached with it as their key.
    ``spin_indices``: each r whose fundamental weight is off the integral
    lattice, (n) in type B, () in type C, (n-1, n) in type D."""

    _fields = ("lie_type", "rank", "positive_roots", "simple_roots", "rho",
               "fundamental_weights", "c_n", "kappa_n", "dim_natural", "iprime")
    __slots__ = _fields + ("spin_indices",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, lie_type: LieType, rank: int,
                 positive_roots: tuple[Weight, ...], simple_roots: tuple[Weight, ...],
                 rho: Weight, fundamental_weights: tuple[Weight, ...], c_n: int,
                 kappa_n: Fraction, dim_natural: int, iprime: tuple[int, ...]):
        # iprime: the natural weights eps_a; 0 when eps_1 is a root (B)
        self._set(lie_type, rank, positive_roots, simple_roots, rho,
                  fundamental_weights, c_n, kappa_n, dim_natural, iprime)
        fws = enumerate(fundamental_weights, 1)
        spin = tuple(r for r, w in fws if not w.is_integral())
        object.__setattr__(self, "spin_indices", spin)

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
            return d[self.rank - 2] >= abs(d[self.rank - 1])
        return d[self.rank - 1] >= 0

    def is_on_weight_lattice(self, lam: Weight) -> bool:
        """Member of the weight lattice: integral coordinates, or (when there
        are spin indices: types B, D) all-half-integral coordinates."""
        if lam.rank != self.rank:
            return False
        if lam.is_integral():
            return True
        return bool(self.spin_indices) and all(d % 2 != 0 for d in lam.dbl)

    def check_highest_weight(self, lam: Weight) -> None:
        """Raise unless lam is dominant and on the weight lattice, that is,
        the highest weight of a simple module."""
        name = f"{self.lie_type.value}{self.rank}"
        if not self.is_dominant(lam):
            raise NotDominant(f"{lam} is not dominant for {name}")
        if not self.is_on_weight_lattice(lam):
            raise NotOnWeightLattice(f"{lam} is not on the weight lattice of {name}")

    def rbar(self, r: int) -> int:
        """Fold the raw hook column index r, 0 <= r < c_n, into 0..n-1."""
        if not 0 <= r < self.c_n:
            raise IndexOutOfRange(f"r={r} outside the admissible range")
        return min(r, self.c_n - 1 - r, self.rank - 1)

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
    simple = _simple_roots(lie, n)
    positive = _positive_roots(simple)
    # rho = half the sum of the positive roots; 2 rho is integral
    rho = Weight(tuple(sum(col) // 2 for col in zip(*(a.dbl for a in positive))))
    iprime = tuple(i for i in range(-n, n + 1) if i or eps(n, 1) in positive)
    c_n = 1 + int(pairing(eps(n, 1), rho.scale(2)))
    return RootSystem(
        lie_type=lie,
        rank=n,
        positive_roots=positive,
        simple_roots=simple,
        rho=rho,
        fundamental_weights=_fundamental_weights(simple),
        c_n=c_n,
        kappa_n=Fraction(c_n - 1, 2),
        dim_natural=len(iprime),
        iprime=iprime,
    )


def hook_weight(rs: RootSystem, k: int, r: int, bar: bool = False) -> Weight:
    """The highest weight (k-r)*eps_1 + mu_rbar, or its barred variant (type
    D, r = n-1 only)."""
    if k < 0:
        raise IndexOutOfRange("k must be >= 0")
    n = rs.rank
    if bar:
        if rs.lie_type is not LieType.D or r != n - 1:
            raise BarNotApplicable("barred hooks exist only in type D at r = n-1")
        return Weight((2 * (k - n + 1),) + (2,) * (n - 2) + (-2,))
    # (k - r) eps_1 + eps_2 + ... + eps_{rbar+1}
    rbar = rs.rbar(r)
    return Weight((2 * (k - r),) + (2,) * rbar + (0,) * (n - 1 - rbar))


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


def partition_parts(parts: Sequence) -> tuple[int, ...]:
    """The parts as ints, once each is checked integral (an int or an
    integral Fraction), non-negative and no larger than the one before."""
    parts = tuple(parts)
    if not all(
        isinstance(p, int) or (isinstance(p, Fraction) and p.denominator == 1)
        for p in parts
    ) or not all(a >= b >= 0 for a, b in zip(parts, parts[1:] + (0,))):
        raise RootDataError(f"{parts} is not a partition")
    return tuple(int(p) for p in parts)


def partition_to_weight(rs: RootSystem, parts: Sequence[int]) -> Weight:
    """Embed a partition (lam_1 >= lam_2 >= ... >= 0) as a dominant weight."""
    parts = tuple(parts)
    if len(parts) > rs.rank:
        raise IndexOutOfRange("partition has more parts than the rank")
    parts = partition_parts(parts)
    return Weight(tuple(2 * p for p in parts) + (0,) * (rs.rank - len(parts)))
