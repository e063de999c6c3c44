"""Exact arithmetic foundations: the q-Laurent ring and the n-variable
Laurent ring over it.

All scalar arithmetic in this package is exact.  Rational numbers are
``fractions.Fraction`` (plain ``int`` is accepted wherever a rational is,
as a fast path).  The central object is :class:`QLaurent`, a sparse Laurent
polynomial in an internal variable ``v = q^(1/4)``: exponents are stored in
quarter units, so every pairing of weights that occurs in types B, C, D
(including spin weights, whose pairings land in (1/4)Z) stays on the grid.

:class:`EPoly` is the one sparse Laurent polynomial ring in n variables
``E1..En`` with :class:`QLaurent` coefficients.  On its own it expresses
characters "in the exterior-power basis"; ``chars.GAElem`` is the same ring
with E_i read as e^(eps_i/2), the group algebra of the weight lattice keyed
by doubled coordinates.  Products and leading-term division run on packed
integer keys whose lane widths are sized from the operands.

Exact division is single-variable leading-term elimination for
:class:`QLaurent` and box-bounded lexicographic elimination for
:class:`EPoly`; both either return an exact quotient or raise
:class:`NotDivisible`.  Determinants over any of these rings are computed by
cofactor expansion (default at the sizes used here) or by fraction-free
Bareiss elimination, which serve as cross-checks of one another.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence, Union

Coeff = Union[int, Fraction]


class ExactArithmeticError(ArithmeticError):
    """Base class for errors raised by the exact rings."""


class DivisionByZero(ExactArithmeticError):
    pass


class NotDivisible(ExactArithmeticError):
    """Exact division requested but the remainder is nonzero."""


class ZeroBase(ExactArithmeticError):
    """Evaluation point has a zero entry where an inverse is needed."""


def _norm_coeff(c: Coeff) -> Coeff:
    # Collapse Fraction with denominator 1 to int so hot loops stay on ints.
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class QLaurent:
    """Sparse Laurent polynomial in q with exponents on the quarter grid.

    ``terms`` maps the exponent of ``v = q^(1/4)`` (an int) to a nonzero
    rational coefficient.  The zero polynomial has an empty map.  Instances
    are immutable; all operations return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Coeff] | None = None):
        if terms:
            self.terms = {e: _norm_coeff(c) for e, c in terms.items() if c}
        else:
            self.terms = {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "QLaurent":
        return QLaurent()

    @staticmethod
    def one() -> "QLaurent":
        return QLaurent({0: 1})

    @staticmethod
    def rational(c: Coeff) -> "QLaurent":
        return QLaurent({0: c})

    @staticmethod
    def monomial(quarter_exp: int, coeff: Coeff = 1) -> "QLaurent":
        return QLaurent({quarter_exp: coeff})

    @staticmethod
    def q_power(power, coeff: Coeff = 1) -> "QLaurent":
        """q**power with power in units of q; power may be int or Fraction
        with denominator dividing 4."""
        quarter = Fraction(power) * 4
        if quarter.denominator != 1:
            raise ValueError(f"exponent {power} not on the quarter grid")
        return QLaurent({quarter.numerator: coeff})

    # -- ring structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, QLaurent):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == QLaurent.rational(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "QLaurent") -> "QLaurent":
        if not isinstance(other, QLaurent):
            return NotImplemented
        res = dict(self.terms)
        for e, c in other.terms.items():
            nc = res.get(e, 0) + c
            if nc:
                res[e] = nc
            elif e in res:
                del res[e]
        out = QLaurent.__new__(QLaurent)
        out.terms = res
        return out

    def __neg__(self) -> "QLaurent":
        out = QLaurent.__new__(QLaurent)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        if not isinstance(other, QLaurent):
            return NotImplemented
        res = dict(self.terms)
        for e, c in other.terms.items():
            nc = res.get(e, 0) - c
            if nc:
                res[e] = nc
            elif e in res:
                del res[e]
        out = QLaurent.__new__(QLaurent)
        out.terms = res
        return out

    def __mul__(self, other) -> "QLaurent":
        if isinstance(other, (int, Fraction)):
            if not other:
                return QLaurent()
            out = QLaurent.__new__(QLaurent)
            out.terms = {e: _norm_coeff(c * other) for e, c in self.terms.items()}
            return out
        if not isinstance(other, QLaurent):
            return NotImplemented
        res: dict[int, Coeff] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = ea + eb
                nc = res.get(e, 0) + ca * cb
                if nc:
                    res[e] = nc
                elif e in res:
                    del res[e]
        out = QLaurent.__new__(QLaurent)
        out.terms = res
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QLaurent":
        if n < 0:
            raise ValueError("negative powers: divide exactly instead")
        result = QLaurent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- division and evaluation ----------------------------------------

    def div_exact(self, den: "QLaurent") -> "QLaurent":
        """Exact quotient self/den; raises NotDivisible if remainder is nonzero.

        Leading-term elimination from the top exponent.  The quotient of
        Laurent polynomials, when it exists, has top (bottom) exponent equal
        to the difference of tops (bottoms), which bounds the search and
        guarantees termination.
        """
        if not den.terms:
            raise DivisionByZero("division by the zero polynomial")
        if not self.terms:
            return QLaurent()
        lead_den = max(den.terms)
        low_bound = min(self.terms) - min(den.terms)
        den_lead_coeff = den.terms[lead_den]
        rem = dict(self.terms)
        quot: dict[int, Coeff] = {}
        while rem:
            lead_rem = max(rem)
            t = lead_rem - lead_den
            if t < low_bound:
                raise NotDivisible("nonzero remainder in q-Laurent division")
            c = _norm_coeff(Fraction(rem[lead_rem]) / den_lead_coeff)
            quot[t] = c
            for e, dc in den.terms.items():
                k = e + t
                nc = rem.get(k, 0) - c * dc
                if nc:
                    rem[k] = nc
                elif k in rem:
                    del rem[k]
        return QLaurent(quot)

    def evaluate(self, s: Coeff) -> Fraction:
        """Exact value with q^(1/4) := s, i.e. q := s**4."""
        s = Fraction(s)
        if s == 0:
            raise ZeroBase("evaluation at q^(1/4) = 0")
        total = Fraction(0)
        powers: dict[int, Fraction] = {}
        for e, c in self.terms.items():
            p = powers.get(e)
            if p is None:
                p = powers[e] = s**e
            total += c * p
        return total

    # -- inspection / serialization --------------------------------------

    def to_json(self) -> list:
        return [
            {"e": e, "c": str(Fraction(c))} for e, c in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(data: Iterable[Mapping]) -> "QLaurent":
        return QLaurent({int(t["e"]): Fraction(t["c"]) for t in data})

    def __repr__(self) -> str:
        return f"QLaurent({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            if e == 0:
                parts.append(str(c))
                continue
            if c == 1:
                mon = ""
            elif c == -1:
                mon = "-"
            else:
                mon = f"{c}*"
            if e % 4 == 0:
                exp = str(e // 4)
            else:
                exp = f"{Fraction(e, 4)}"
            parts.append(f"{mon}q^{exp}" if exp != "1" else f"{mon}q")
        return " + ".join(parts).replace("+ -", "- ")


QL_ZERO = QLaurent.zero()
QL_ONE = QLaurent.one()


class RankMismatch(ValueError):
    pass


# Products and leading-term division pack an exponent tuple into one int,
# coordinate 0 in the most significant lane, each lane offset by half its
# range.  Packed ints then compare exactly like tuples under lex order, and
# key addition is a single int add (minus the offset constant).  Each caller
# sizes the lanes from a bound on every coordinate it will form, so no lane
# can wrap into its neighbour.


def _max_coord(terms: Mapping[tuple, object]) -> int:
    return max(map(abs, chain.from_iterable(terms)), default=0)


def _lane_bits(bound: int) -> int:
    """Lane width holding every coordinate in [-bound, bound]."""
    return bound.bit_length() + 1


def _pack(key: tuple[int, ...], bits: int) -> int:
    base = 1 << (bits - 1)
    acc = 0
    for c in key:
        acc = (acc << bits) | (c + base)
    return acc


def _unpack(packed: int, n: int, bits: int) -> tuple[int, ...]:
    base = 1 << (bits - 1)
    mask = (1 << bits) - 1
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = (packed & mask) - base
        packed >>= bits
    return tuple(out)


class EPoly:
    """Sparse Laurent polynomial in E_1..E_n over the q-Laurent ring.

    ``terms`` maps exponent tuples (len == rank, entries of any sign) to
    nonzero QLaurent coefficients.  Immutable; every operation returns an
    instance of its operand's class, and only instances of the same class
    and rank combine or compare equal.
    """

    __slots__ = ("rank", "terms")
    _json_key = "exps"

    def __init__(self, rank: int, terms: Mapping[tuple, QLaurent] | None = None):
        self.rank = rank
        if terms:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = {}

    def _like(self, terms: dict) -> "EPoly":
        # same class and rank; ``terms`` is taken as is, zeros already dropped
        out = object.__new__(type(self))
        out.rank, out.terms = self.rank, terms
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "EPoly":
        return cls(rank)

    @classmethod
    def constant(cls, rank: int, c: QLaurent) -> "EPoly":
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def one(cls, rank: int) -> "EPoly":
        return cls.constant(rank, QL_ONE)

    @classmethod
    def symbol(cls, rank: int, i: int, coeff: QLaurent = QL_ONE) -> "EPoly":
        """The symbol E_i (1-based)."""
        if not 1 <= i <= rank:
            raise IndexError(f"symbol index {i} out of range 1..{rank}")
        exps = [0] * rank
        exps[i - 1] = 1
        return cls(rank, {tuple(exps): coeff})

    # -- ring structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EPoly):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def _check(self, other: "EPoly"):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.rank != other.rank:
            raise RankMismatch("ranks differ")

    def __add__(self, other: "EPoly") -> "EPoly":
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            prev = res.get(m)
            nc = c if prev is None else prev + c
            if nc:
                res[m] = nc
            elif m in res:
                del res[m]
        return self._like(res)

    def __neg__(self) -> "EPoly":
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "EPoly") -> "EPoly":
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            prev = res.get(m)
            nc = -c if prev is None else prev - c
            if nc:
                res[m] = nc
            elif m in res:
                del res[m]
        return self._like(res)

    def __mul__(self, other: "EPoly") -> "EPoly":
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        bits = _lane_bits(_max_coord(a) + _max_coord(b))
        off = _pack((0,) * self.rank, bits)
        a_items = [(_pack(m, bits) - off, tuple(c.terms.items())) for m, c in a.items()]
        b_items = [(_pack(m, bits), tuple(c.terms.items())) for m, c in b.items()]
        res: dict[int, dict[int, Coeff]] = {}
        for ma, ca in a_items:
            for mb, cb in b_items:
                m = ma + mb
                acc = res.get(m)
                if acc is None:
                    acc = res[m] = {}
                for ea, va in ca:
                    for eb, vb in cb:
                        e = ea + eb
                        nv = acc.get(e, 0) + va * vb
                        if nv:
                            acc[e] = nv
                        elif e in acc:
                            del acc[e]
        return self._like(
            {_unpack(m, self.rank, bits): QLaurent(d) for m, d in res.items() if d}
        )

    def __pow__(self, n: int) -> "EPoly":
        if n < 0:
            raise ValueError("negative power: divide exactly instead")
        result = self.one(self.rank)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c: QLaurent) -> "EPoly":
        if not c:
            return self.zero(self.rank)
        return type(self)(self.rank, {m: v * c for m, v in self.terms.items()})

    def coeff(self, exps: tuple) -> QLaurent:
        return self.terms.get(tuple(exps), QL_ZERO)

    def max_degree(self, i: int) -> int:
        """Largest exponent of symbol E_i (1-based); 0 for the zero poly."""
        if not self.terms:
            return 0
        return max(m[i - 1] for m in self.terms)

    def uses_symbol(self, i: int) -> bool:
        return any(m[i - 1] for m in self.terms)

    def partial(self, i: int) -> "EPoly":
        """Formal partial derivative with respect to E_i (1-based)."""
        res: dict[tuple, QLaurent] = {}
        j = i - 1
        for m, c in self.terms.items():
            if m[j]:
                mm = list(m)
                k = mm[j]
                mm[j] = k - 1
                key = tuple(mm)
                add = c * k
                prev = res.get(key)
                res[key] = add if prev is None else prev + add
        return type(self)(self.rank, res)

    def substitute(self, values: Sequence, one):
        """Evaluate with E_i := values[i-1] in any ring with +, *, .scale().

        ``one`` must be the multiplicative identity of the target ring.
        """
        if len(values) != self.rank:
            raise ValueError("need one value per symbol")
        total = None
        for m, c in self.terms.items():
            prod = one
            for v, e in zip(values, m):
                if e:
                    prod = prod * v**e
            prod = prod.scale(c)
            total = prod if total is None else total + prod
        if total is None:
            return one.scale(QL_ZERO)
        return total

    # -- exact division ------------------------------------------------------

    def div_exact(self, den: "EPoly") -> "EPoly":
        """Exact quotient via lexicographic leading-term elimination.

        The quotient support is confined to the coordinate box
        [min(num)-min(den), max(num)-max(den)] (per coordinate), and leaving
        the box, or a coefficient failing to divide, proves the division
        inexact.  A lazy max-heap of packed keys finds each leading term.
        """
        self._check(den)
        if not den.terms:
            raise DivisionByZero("division by the zero polynomial")
        if not self.terms:
            return self.zero(self.rank)
        n = self.rank
        num_keys = list(self.terms)
        den_keys = list(den.terms)
        lo = tuple(
            min(k[i] for k in num_keys) - min(k[i] for k in den_keys)
            for i in range(n)
        )
        hi = tuple(
            max(k[i] for k in num_keys) - max(k[i] for k in den_keys)
            for i in range(n)
        )
        if any(a > b for a, b in zip(lo, hi)):
            raise NotDivisible("denominator support wider than numerator")
        # remainder keys stay within max|den| of the box, shifts within 2 max|den|
        bits = _lane_bits(_max_coord(self.terms) + 3 * _max_coord(den.terms))
        off = _pack((0,) * n, bits)
        lead = max(den_keys)
        lead_den, lead_den_coeff = _pack(lead, bits), den.terms[lead]
        den_items = tuple(
            (_pack(k, bits), tuple(c.terms.items())) for k, c in den.terms.items()
        )
        rem: dict[int, dict[int, Coeff]] = {
            _pack(k, bits): dict(c.terms) for k, c in self.terms.items()
        }
        # lazy max-heap of candidate leading keys (negated for heapq)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quot: dict[tuple, QLaurent] = {}
        while rem:
            m = -heapq.heappop(heap)
            if m not in rem:
                continue
            shift = m - lead_den  # packed quotient key, offset by `off`
            t = _unpack(shift + off, n, bits)
            if any(x < a or x > b for x, a, b in zip(t, lo, hi)):
                raise NotDivisible("nonzero remainder in polynomial division")
            try:
                c = QLaurent(rem[m]).div_exact(lead_den_coeff)
            except NotDivisible as exc:
                raise NotDivisible("leading coefficient does not divide") from exc
            quot[t] = c
            c_items = tuple(c.terms.items())
            for dk, dc in den_items:
                k = shift + dk
                acc = rem.get(k)
                if acc is None:
                    acc = rem[k] = {}
                    heapq.heappush(heap, -k)
                for e1, v1 in c_items:
                    for e2, v2 in dc:
                        e = e1 + e2
                        nv = acc.get(e, 0) - v1 * v2
                        if nv:
                            acc[e] = nv
                        elif e in acc:
                            del acc[e]
                if not acc:
                    del rem[k]
        return self._like(quot)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list:
        key = self._json_key
        return [
            {key: list(m), "coeff": self.terms[m].to_json()} for m in sorted(self.terms)
        ]

    @classmethod
    def from_json(cls, rank: int, data: Iterable[Mapping]) -> "EPoly":
        key = cls._json_key
        return cls(rank, {tuple(t[key]): QLaurent.from_json(t["coeff"]) for t in data})

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rank={self.rank}, {len(self.terms)} terms)"

    def format(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"E{i}" for i in range(1, self.rank + 1)]
        parts = []
        for m, c in sorted(self.terms.items(), reverse=True):
            syms = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e
            )
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{syms}" if syms else cs)
        return " + ".join(parts)


def det_cofactor(rows: Sequence[Sequence]) -> object:
    """Determinant by cofactor expansion along the first column."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for i in range(n):
        entry = rows[i][0]
        if not entry:
            continue
        minor = [
            [rows[r][c] for c in range(1, n)] for r in range(n) if r != i
        ]
        term = entry * det_cofactor(minor)
        if i % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return rows[0][0] - rows[0][0]  # zero of the ring
    return total


def det_bareiss(rows: Sequence[Sequence]) -> object:
    """Fraction-free Bareiss determinant; every division is exact."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return rows[0][0] - rows[0][0]  # singular: zero of the ring
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                val = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                if prev is not None:
                    val = val.div_exact(prev)
                m[i][j] = val
            m[i][k] = None  # cleared; never read again
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def det_exact(rows: Sequence[Sequence]) -> object:
    """Exact determinant; cofactor expansion at the sizes used here."""
    if len(rows) <= 6:
        return det_cofactor(rows)
    return det_bareiss(rows)
