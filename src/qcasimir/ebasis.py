"""Characters in the exterior-power basis and the triangular change of basis.

Characters indexed by partitions are determinants in the exterior-power
characters e_r (the B/C/D analogue of the classical determinantal
identities): for types B and D half the determinant of
(e_{l'_i-i+j} + e_{l'_i-i-j+2}), for type C the determinant of
(e_{l'_i-i+j} - e_{l'_i-i-j}), where l' is the conjugate partition.  Out of
range indices fold with e_0 = 1, e_r = 0 for r < 0 or r > dim V, and
e_r = e_{dim V - r} for n < r <= dim V.  The determinant is the irreducible
character chi(lam) except in type D for partitions with exactly n nonzero
parts: there it is the O(2n) character restricted to SO(2n), the sum
chi(lam) + chi(lam-bar) with lam-bar the mirror whose last coordinate is
negated (Koike-Terada).

Writing each block character g_k in the folded symbols E_1..E_n exposes a
unit-triangular structure: g_k = b_k E_k + (terms in E_1..E_{k-1}) with
b_k = (-1)^{k+1} (q^{c_n-1} + q^{c_n-3} + ... ), which the solver inverts by
induction, keeping every object inside the Laurent ring by carrying an
explicit denominator: the k-th solution is stored as a pair (num, den) with
E_k = num(G_1..G_k)/den, and all verifications multiply back by den.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .casimir import ch_g_via_antisym, hook_terms
from .chars import GAElem, ext_power_char, weyl_character
from .exact import EPoly, QL_ONE, QLaurent, det_exact
from .roots import (
    IndexOutOfRange,
    LieType,
    RootSystem,
)


class PartitionTooLong(ValueError):
    pass


class HalvingFailed(ArithmeticError):
    """A type B/D determinant had an odd coefficient before the global 1/2."""


class SingularLeadingCoefficient(ArithmeticError):
    """A block character lost its leading exterior-power term."""


class CertificateFailed(AssertionError):
    pass


def conjugate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)
    )


def _halve(x: EPoly, context: str) -> EPoly:
    out = {}
    for k, v in x.terms.items():
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise HalvingFailed(f"non-integer coefficient in {context}")
            v = v.numerator
        if v % 2:
            raise HalvingFailed(f"odd coefficient {v} in {context}")
        out[k] = v // 2
    return x._like(out)


def _e_symbol(rs: RootSystem, idx: int) -> EPoly:
    """The entry e_idx as an abstract symbol, folded by e_r = e_{d-r} above
    n.  Over the group algebra the entry is ``ext_power_char``, which
    satisfies that symmetry on the nose."""
    n, d = rs.rank, rs.dim_natural
    if idx < 0 or idx > d:
        return EPoly.zero(n)
    if idx > n:
        idx = d - idx
    if idx == 0:
        return EPoly.one(n)
    return EPoly.symbol(n, idx)


def _jt_matrix(rs: RootSystem, parts: tuple[int, ...], entry) -> list[list]:
    lam_conj = conjugate_partition(parts)
    size = parts[0]
    rows = []
    plus = rs.lie_type in (LieType.B, LieType.D)
    for i in range(1, size + 1):
        lam_i = lam_conj[i - 1] if i <= len(lam_conj) else 0
        row = []
        for j in range(1, size + 1):
            first = entry(rs, lam_i - i + j)
            if plus:
                row.append(first + entry(rs, lam_i - i - j + 2))
            else:
                row.append(first - entry(rs, lam_i - i - j))
        rows.append(row)
    return rows


def jt_character(rs: RootSystem, parts, target: str = "ga"):
    """Determinantal character of the partition ``parts``.

    ``target='ga'`` returns the GAElem built from actual exterior-power
    characters; ``target='e'`` returns the EPoly over the abstract folded
    symbols E_1..E_n.  In types B and D every coefficient of the determinant
    must be even before the global halving; an odd one raises
    :class:`HalvingFailed`.
    """
    parts = tuple(int(p) for p in parts if p)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)) or any(
        p < 0 for p in parts
    ):
        raise ValueError(f"{parts} is not a partition")
    if len(parts) > rs.rank:
        raise PartitionTooLong(
            f"partition with {len(parts)} parts exceeds rank {rs.rank}"
        )
    halve = rs.lie_type in (LieType.B, LieType.D)
    context = f"{rs.lie_type.value}{rs.rank} partition {parts}"
    if target not in ("ga", "e"):
        raise ValueError(f"unknown target {target!r}")
    if not parts:
        return (GAElem if target == "ga" else EPoly).one(rs.rank)
    entry = ext_power_char if target == "ga" else _e_symbol
    det = det_exact(_jt_matrix(rs, parts, entry))
    return _halve(det, context) if halve else det


def hook_matrix_printed(rs: RootSystem, k: int, r: int) -> list[list]:
    """The (k-r) x (k-r) upper-Hessenberg matrix attached to the hook
    (k-r, 1^r): first row e_{r+j} +- e_{r-+j...}, unit subdiagonal, e_1 on
    the remaining diagonal.  Its plain determinant equals the halved general
    determinant in types B/D, and the general one in type C."""
    if not (k - r >= 1 and 0 <= r <= rs.rank - 1):
        raise IndexOutOfRange("need k-r >= 1 and 0 <= r <= n-1")
    plus = rs.lie_type in (LieType.B, LieType.D)
    size = k - r
    rows = []
    for i in range(1, size + 1):
        row = []
        for j in range(1, size + 1):
            if i == 1:
                if plus:
                    # the j = 1 entry of the general matrix is 2 e_{r+1};
                    # the printed form carries the halving in column 1
                    if j == 1:
                        row.append(ext_power_char(rs, r + 1))
                    else:
                        row.append(
                            ext_power_char(rs, r + j) + ext_power_char(rs, r + 2 - j)
                        )
                else:
                    row.append(ext_power_char(rs, r + j) - ext_power_char(rs, r - j))
            else:
                row.append(ext_power_char(rs, j - i + 1))
        rows.append(row)
    return rows


@cache
def g_in_e_basis(rs: RootSystem, k: int) -> EPoly:
    """The k-th block character written in the folded symbols E_1..E_n.

    Valid for 1 <= k <= n.  Each entry of ``casimir.hook_terms`` contributes
    the determinantal expansion of its hook character; in type D at k = n the
    barred and unbarred hooks of column n-1 merge into the single symbol E_n
    (their characters sum to the n-th exterior power), mirroring the way the
    change of basis is proved.
    """
    n = rs.rank
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"k must lie in 1..{n}")
    total = EPoly.zero(n)
    for sign, qexp, weights in hook_terms(rs, k):
        if not weights:
            term = EPoly.one(n)
        elif len(weights) == 2:
            # chi(hook) + chi(barred hook) is exactly the n-th exterior power
            term = EPoly.symbol(n, n)
        else:
            term = jt_character(rs, weights[0].coords, target="e")
        total = total + term.scale(QLaurent.monomial(qexp, sign))
    return total


@dataclass(frozen=True)
class TriangularEntry:
    """E_k = num(G_1..G_k) / den, with the leading coefficient recorded as
    the exact pair c_k = c_unit / c_denom."""

    k: int
    c_unit: int
    c_denom: QLaurent
    num: EPoly
    den: QLaurent


@dataclass(frozen=True)
class TriangularSolution:
    lie_type: LieType
    rank: int
    entries: tuple[TriangularEntry, ...]

    def entry(self, k: int) -> TriangularEntry:
        return self.entries[k - 1]


def expected_leading_coeff(rs: RootSystem, k: int) -> QLaurent:
    """(-1)^{k+1} * (q^{c_n-1} + q^{c_n-3} + ... + q^{c_n+1-2k})."""
    sign = (-1) ** (k + 1)
    return QLaurent(
        {4 * (rs.c_n - 1 - 2 * r): sign for r in range(k)}
    )


def triangular_solve(rs: RootSystem) -> TriangularSolution:
    """Invert the unit-triangular system expressing blocks in the E-basis.

    By induction on k: isolate E_k in g_in_e_basis(k), substitute the
    previously solved expressions for E_1..E_{k-1}, and clear denominators,
    so that E_k = num_k(G_1..G_k)/den_k with num_k over the Laurent ring.
    """
    n = rs.rank
    solved_num: list[EPoly] = []
    solved_den: list[QLaurent] = []
    entries = []
    e_key = lambda k: tuple(1 if i == k - 1 else 0 for i in range(n))
    for k in range(1, n + 1):
        ghat = g_in_e_basis(rs, k)
        b_k = ghat.coeff(e_key(k))
        if not b_k:
            raise SingularLeadingCoefficient(
                f"E_{k} coefficient vanishes in block {k}"
            )
        if b_k != expected_leading_coeff(rs, k):
            raise SingularLeadingCoefficient(
                f"leading coefficient of block {k} deviates from the "
                f"alternating q-power sum"
            )
        rest = ghat - EPoly.symbol(n, k, b_k)
        if rest.uses_symbol(k) or any(rest.uses_symbol(j) for j in range(k + 1, n + 1)):
            raise SingularLeadingCoefficient(
                f"block {k} is not triangular in the symbols"
            )
        degs = [rest.max_degree(j) for j in range(1, k)]
        common = QL_ONE
        for j in range(1, k):
            common = common * solved_den[j - 1] ** degs[j - 1]
        # rest with E_j := solved_num_j / solved_den_j, cleared by `common`
        cleared = EPoly.zero(n)
        for mono, coeff in rest._per_weight().items():
            term = EPoly.one(n)
            scalar = coeff
            for j in range(1, k):
                e = mono[j - 1]
                if e:
                    term = term * solved_num[j - 1] ** e
                scalar = scalar * solved_den[j - 1] ** (degs[j - 1] - e)
            cleared = cleared + term.scale(scalar)
        num = EPoly.symbol(n, k, common) - cleared
        den = b_k * common
        solved_num.append(num)
        solved_den.append(den)
        entries.append(
            TriangularEntry(
                k=k,
                c_unit=(-1) ** (k + 1),
                c_denom=b_k * ((-1) ** (k + 1)),
                num=num,
                den=den,
            )
        )
    return TriangularSolution(rs.lie_type, rs.rank, tuple(entries))


def round_trip_ok(rs: RootSystem, sol: TriangularSolution, k: int) -> bool:
    """Substituting the E-basis expressions of the blocks into the k-th
    solution must reproduce den * E_k exactly."""
    n = rs.rank
    ghats = [g_in_e_basis(rs, j) for j in range(1, n + 1)]
    entry = sol.entry(k)
    value = entry.num.substitute(ghats, EPoly.one(n))
    return value == EPoly.symbol(n, k, entry.den)


def solution_ok_in_characters(rs: RootSystem, sol: TriangularSolution, k: int) -> bool:
    """The same identity with every symbol bound to its actual character:
    num(g_1..g_n) = den * e_k in the group algebra."""
    n = rs.rank
    gs = [ch_g_via_antisym(rs, j).body for j in range(1, n + 1)]
    entry = sol.entry(k)
    value = entry.num.substitute(gs, GAElem.one(n))
    return value == ext_power_char(rs, k).scale(entry.den)


def fundamental_character_relation(rs: RootSystem, r: int) -> tuple[GAElem, GAElem]:
    """(character of the r-th fundamental weight, its exterior-power
    expression) for r in the range covered by the blocks."""
    chi = weyl_character(rs, rs.fundamental_weight(r))
    if rs.lie_type is LieType.C:
        expr = ext_power_char(rs, r) - ext_power_char(rs, r - 2)
    else:
        expr = ext_power_char(rs, r)
    return chi, expr


def generation_certificate(rs: RootSystem) -> dict:
    """Machine-checked report that the blocks, together with the listed
    extra generators, generate the character ring.

    Covers: the triangular solve through the per-type range (n-1 for B, n
    for C, n-2 for D), the identification of each covered fundamental
    character with its exterior-power expression, and the extra spin-type
    generators attached without such an expression.  Raises
    :class:`CertificateFailed` on the first failing identity.
    """
    n = rs.rank
    if rs.lie_type is LieType.B:
        solved_range, fund_range, extras = n - 1, n - 1, [n]
    elif rs.lie_type is LieType.C:
        solved_range, fund_range, extras = n, n, []
    else:
        solved_range, fund_range, extras = n - 2, n - 2, [n - 1, n]
    checks = []
    sol = triangular_solve(rs)
    for k in range(1, solved_range + 1):
        checks.append((f"solve-E{k}", round_trip_ok(rs, sol, k)))
        checks.append((f"characters-E{k}", solution_ok_in_characters(rs, sol, k)))
    for r in range(1, fund_range + 1):
        chi, expr = fundamental_character_relation(rs, r)
        checks.append((f"fundamental-{r}", chi == expr))
    extra_gens = []
    for r in extras:
        w = rs.fundamental_weight(r)
        chi = weyl_character(rs, w)
        extra_gens.append(
            {
                "index": r,
                "weight": w.to_json(),
                "dim": int(chi.evaluate(1, [1] * n)),
            }
        )
    for name, ok in checks:
        if not ok:
            raise CertificateFailed(f"{rs.lie_type.value}{rs.rank}: {name}")
    return {
        "type": rs.lie_type.value,
        "rank": rs.rank,
        "solved_range": solved_range,
        "extra_generators": extra_gens,
        "checks": [{"name": name, "status": "pass"} for name, _ in checks],
    }
