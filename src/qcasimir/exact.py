"""Exact arithmetic foundations: one sparse Laurent ring over the rationals,
in n variables and q.

All scalar arithmetic in this package is exact.  Rational numbers are
``fractions.Fraction`` (plain ``int`` is accepted wherever a rational is,
as a fast path).

:class:`EPoly` is the one ring.  Every term is stored flat: ``terms`` maps a
key of n + 1 ints to a nonzero rational.  The first n entries are the
exponents of the variables ``E1..En``; the last is the exponent of the
internal variable ``v = q^(1/4)``, so q exponents are stored in quarter
units and every pairing of weights that occurs in types B, C, D (spin
weights included, whose pairings land in (1/4)Z) stays on the grid.  On its
own the ring expresses characters "in the exterior-power basis";
``chars.GAElem`` is the same ring with E_i read as e^(eps_i/2), the group
algebra of the weight lattice keyed by doubled coordinates.
:class:`QLaurent`, a Laurent polynomial in q alone, is the rank-0 case: its
keys are ``(e,)``.  The constructors and the per-monomial readers
(``coeff``, ``to_json``, ``format``) present the coefficient of each
monomial in the E_i as a :class:`QLaurent`.

Products and leading-term division run on packed integer keys, the q lane
last, whose lane widths are sized from the operands.  Exact division is
box-bounded lexicographic leading-term elimination: it either returns the
exact quotient or raises :class:`NotDivisible`.  Determinants over these
rings are computed by cofactor expansion (default at the sizes used here)
or by fraction-free Bareiss elimination, which serve as cross-checks of one
another.
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


class RankMismatch(ValueError):
    pass


def _norm_coeff(c: Coeff) -> Coeff:
    # Collapse Fraction with denominator 1 to int so hot loops stay on ints.
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _clean(terms: Mapping[tuple, Coeff]) -> dict[tuple, Coeff]:
    """Accumulated flat terms with the zeros dropped and integral Fractions
    made ints."""
    return {k: _norm_coeff(c) for k, c in terms.items() if c}


# Products and leading-term division pack a flat key into one int, lane 0 in
# the most significant position and the q lane last, each lane offset by
# half its range.  Packed ints then compare exactly like tuples under lex
# order, and key addition is a single int add (minus the offset constant).
# Each caller sizes the lanes from a bound on every entry it will form, so
# no lane can wrap into its neighbour.


def _max_coord(terms: Mapping[tuple, object]) -> int:
    return max(map(abs, chain.from_iterable(terms)), default=0)


def _lane_bits(bound: int) -> int:
    """Lane width holding every coordinate in [-bound, bound]."""
    return bound.bit_length() + 1


def _cleared_powers(x: Fraction, exps: Iterable[int]) -> tuple[dict[int, int], int, int]:
    """The powers x**k, k in exps, over one denominator.

    With x = a/b in lowest terms and lo, hi the least and greatest k,
    returns the table {k: a**(k - lo) * b**(hi - k)} of ints and num, den
    with x**k == t[k] * num / den (num / den is a**lo / b**hi).  A sum of
    c_k * x**k is then summed in integers and divided once, and a ratio of
    differences of powers is a ratio of differences of table entries.  Only
    the exponents asked for are built: every entry has the bit size of the
    whole range, so a dense table would grow with the square of it.
    """
    ks = set(exps)
    lo, hi = min(ks), max(ks)
    a, b = x.numerator, x.denominator
    t = {k: a ** (k - lo) * b ** (hi - k) for k in ks}
    num = a ** max(lo, 0) * b ** max(-hi, 0)
    den = a ** max(-lo, 0) * b ** max(hi, 0)
    return t, num, den


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
    """Sparse Laurent polynomial in E_1..E_n and q over the rationals.

    ``terms`` maps flat keys (the n exponents of the E_i, then the
    quarter-grid exponent of q) to nonzero rationals.  The constructor takes
    the per-monomial form ``{exponents: QLaurent}``, every key of length
    n == rank (else :class:`RankMismatch`).  Immutable; every operation
    returns an instance of its operand's class, and only instances of the
    same class and rank combine or compare equal.
    """

    __slots__ = ("rank", "terms")
    _json_key = "exps"

    def __init__(self, rank: int, terms: Mapping[tuple, QLaurent] | None = None):
        self.rank = rank
        self.terms = {}
        for m, c in (terms or {}).items():
            if len(m) != rank:
                raise RankMismatch(f"key {m} has {len(m)} entries, rank is {rank}")
            for e, x in c.terms.items():
                self.terms[m + e] = x

    @classmethod
    def _flat(cls, rank: int, terms: dict) -> "EPoly":
        # ``terms`` is flat and taken as is, zeros already dropped
        out = object.__new__(cls)
        out.rank, out.terms = rank, terms
        return out

    def _like(self, terms: dict) -> "EPoly":
        # same class and rank
        return self._flat(self.rank, terms)

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
    def symbol(cls, rank: int, i: int, coeff: QLaurent | None = None) -> "EPoly":
        """The symbol E_i (1-based), times ``coeff`` (default 1)."""
        if not 1 <= i <= rank:
            raise IndexError(f"symbol index {i} out of range 1..{rank}")
        exps = [0] * rank
        exps[i - 1] = 1
        return cls(rank, {tuple(exps): QL_ONE if coeff is None else coeff})

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
        for k, c in other.terms.items():
            nc = res.get(k, 0) + c
            if nc:
                res[k] = nc
            elif k in res:
                del res[k]
        return self._like(res)

    def __neg__(self) -> "EPoly":
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "EPoly") -> "EPoly":
        self._check(other)
        return self + -other

    def __mul__(self, other: "EPoly") -> "EPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        n = self.rank + 1
        bits = _lane_bits(_max_coord(a) + _max_coord(b))
        off = _pack((0,) * n, bits)
        b_items = [(_pack(k, bits), c) for k, c in b.items()]
        res: dict[int, Coeff] = {}
        for ka, ca in a.items():
            ka = _pack(ka, bits) - off
            for kb, cb in b_items:
                k = ka + kb
                res[k] = res.get(k, 0) + ca * cb
        return self._like(
            {_unpack(k, n, bits): _norm_coeff(c) for k, c in res.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EPoly":
        if n < 0:
            raise ValueError("negative power: divide exactly instead")
        result = self._like({(0,) * (self.rank + 1): 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c: Coeff | QLaurent) -> "EPoly":
        """self times a rational or a QLaurent (which moves the q lane)."""
        if isinstance(c, QLaurent):
            res: dict[tuple, Coeff] = {}
            for (e,), x in c.terms.items():
                for k, v in self.terms.items():
                    t = k[:-1] + (k[-1] + e,)
                    res[t] = res.get(t, 0) + v * x
            return self._like(_clean(res))
        if not c:
            return self._like({})
        return self._like({k: _norm_coeff(x * c) for k, x in self.terms.items()})

    def _per_weight(self) -> dict[tuple, QLaurent]:
        """{exponents: QLaurent}: the flat terms grouped by their monomial in
        the E_i (by weight, in GAElem)."""
        groups: dict[tuple, dict] = {}
        for k, c in self.terms.items():
            groups.setdefault(k[:-1], {})[k[-1:]] = c
        return {m: QLaurent._flat(0, d) for m, d in groups.items()}

    def coeff(self, exps: tuple) -> QLaurent:
        return self._per_weight().get(tuple(exps), QL_ZERO)

    def max_degree(self, i: int) -> int:
        """Largest exponent of symbol E_i (1-based); 0 for the zero poly."""
        if not self.terms:
            return 0
        return max(m[i - 1] for m in self.terms)

    def uses_symbol(self, i: int) -> bool:
        return any(m[i - 1] for m in self.terms)

    def partial(self, i: int) -> "EPoly":
        """Formal partial derivative with respect to E_i (1-based)."""
        j = i - 1
        return self._like(
            {
                m[:j] + (m[j] - 1,) + m[i:]: _norm_coeff(c * m[j])
                for m, c in self.terms.items()
                if m[j]
            }
        )

    def substitute(self, values: Sequence, one):
        """Evaluate with E_i := values[i-1] in any ring with +, *, .scale().

        ``one`` must be the multiplicative identity of the target ring.  Each
        monomial's product of values is formed once, then scaled by its
        QLaurent coefficient.
        """
        if len(values) != self.rank:
            raise ValueError("need one value per symbol")
        total = None
        for m, c in self._per_weight().items():
            prod = one
            for v, e in zip(values, m):
                if e:
                    prod = prod * v**e
            prod = prod.scale(c)
            total = prod if total is None else total + prod
        if total is None:
            return one.scale(0)
        return total

    # -- exact division ------------------------------------------------------

    def div_exact(self, den: "EPoly") -> "EPoly":
        """Exact quotient via lexicographic leading-term elimination.

        The quotient support is confined to the box [min(num)-min(den),
        max(num)-max(den)] (per lane, the q lane included).  Any nonzero
        rational divides the leading coefficient, so what proves the
        division inexact is a quotient term leaving the box.  A lazy
        max-heap of packed keys finds each leading term.
        """
        self._check(den)
        if not den.terms:
            raise DivisionByZero("division by the zero polynomial")
        if not self.terms:
            return self._like({})
        n = self.rank + 1
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
        den_items = tuple((_pack(k, bits), c) for k, c in den.terms.items())
        rem = {_pack(k, bits): c for k, c in self.terms.items()}
        # lazy max-heap of candidate leading keys (negated for heapq)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quot: dict[tuple, Coeff] = {}
        while rem:
            m = -heapq.heappop(heap)
            if m not in rem:
                continue
            shift = m - lead_den  # packed quotient key, offset by `off`
            t = _unpack(shift + off, n, bits)
            if any(x < a or x > b for x, a, b in zip(t, lo, hi)):
                raise NotDivisible("nonzero remainder in polynomial division")
            c = quot[t] = _norm_coeff(Fraction(rem[m]) / lead_den_coeff)
            for dk, dc in den_items:
                k = shift + dk
                prev = rem.get(k)
                if prev is None:
                    heapq.heappush(heap, -k)
                    prev = 0
                nc = prev - c * dc
                if nc:
                    rem[k] = nc
                else:
                    del rem[k]
        return self._like(quot)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list:
        key = self._json_key
        return [
            {key: list(m), "coeff": c.to_json()}
            for m, c in sorted(self._per_weight().items())
        ]

    @classmethod
    def from_json(cls, rank: int, data: Iterable[Mapping]) -> "EPoly":
        key = cls._json_key
        return cls(rank, {tuple(t[key]): QLaurent.from_json(t["coeff"]) for t in data})

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rank={self.rank}, {len(self.terms)} terms)"


class QLaurent(EPoly):
    """Sparse Laurent polynomial in q with exponents on the quarter grid: the
    rank-0 case of :class:`EPoly`.

    Built from ``{e: c}`` with e the exponent of ``v = q^(1/4)`` (an int);
    its flat keys are ``(e,)``.  The ring operations are EPoly's; this class
    adds the constructors in q, evaluation at a value of v, equality with
    rationals, hashing, and its own text and JSON forms.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[int, Coeff] | None = None):
        self.rank = 0
        self.terms = {(e,): _norm_coeff(c) for e, c in (terms or {}).items() if c}

    # in this class body because perfbench/tracing.py wraps div_exact through
    # vars(QLaurent), and EPoly.__mul__ as the layer of polynomial products
    # only
    div_exact = EPoly.div_exact
    __mul__ = EPoly.__mul__

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

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(0,): other} if other else {})
        return super().__eq__(other)

    def __hash__(self):
        if set(self.terms) <= {(0,)}:  # a constant hashes like its rational
            return hash(self.terms.get((0,), 0))
        return hash(frozenset(self.terms.items()))

    def evaluate(self, s: Coeff) -> Fraction:
        """Exact value with q^(1/4) := s, i.e. q := s**4."""
        s = Fraction(s)
        if s == 0:
            raise ZeroBase("evaluation at q^(1/4) = 0")
        if not self.terms:
            return Fraction(0)
        t, num, den = _cleared_powers(s, (e for (e,) in self.terms))
        total = sum(c * t[e] for (e,), c in self.terms.items())
        return Fraction(total * num, den)

    # -- inspection / serialization --------------------------------------

    def to_json(self) -> list:
        return [
            {"e": e, "c": str(Fraction(c))} for (e,), c in sorted(self.terms.items())
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
        for (e,), c in sorted(self.terms.items(), reverse=True):
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
