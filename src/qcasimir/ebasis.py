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

from functools import cache

from .casimir import ch_g_via_antisym, hook_terms
from .chars import GAElem, ext_power_char, weyl_character
from .exact import EPoly, ExactArithmeticError, QL_ONE, QLaurent, det_exact, power_table
from .roots import (
    IndexOutOfRange,
    LieType,
    RootSystem,
    partition_parts,
)


class PartitionTooLong(ValueError):
    pass


class HalvingFailed(ArithmeticError):
    """A type B/D determinant had an odd coefficient before the global 1/2."""


class SingularLeadingCoefficient(ArithmeticError):
    """A block character lost its leading exterior-power term."""


class CertificateFailed(AssertionError):
    pass


# What generation_certificate raises when an identity fails; any other
# exception is a fault of the program and propagates.
CERTIFICATE_FAILURES = (
    CertificateFailed, SingularLeadingCoefficient, HalvingFailed, ExactArithmeticError
)


def conjugate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)
    )


def _halve(x: EPoly, context: str) -> EPoly:
    out = {}
    for k, v in x.terms.items():
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
    parts = tuple(p for p in partition_parts(parts) if p)
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
    (k-r, 1^r).  Row 1 is e_{r+j} - e_{r-j} in type C; in types B/D it is
    e_{r+1}, then e_{r+j} + e_{r+2-j} for j >= 2.  Row i >= 2 is e_{j-i+1}:
    a unit subdiagonal and e_1 on the diagonal.  Its plain determinant equals
    the halved general determinant in types B/D, and the general one in
    type C."""
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
    the determinantal expansion of its first hook.  In type D at k = n that
    hook is the column (1^n), whose determinant is the O(2n) character, the
    sum of the entry's two hook characters: the symbol E_n.
    """
    n = rs.rank
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"k must lie in 1..{n}")
    total = EPoly.zero(n)
    for sign, qexp, weights in hook_terms(rs, k):
        term = jt_character(rs, weights[0].coords if weights else (), target="e")
        total = total + term.scale(QLaurent.monomial(qexp, sign))
    return total


def expected_leading_coeff(rs: RootSystem, k: int) -> QLaurent:
    """(-1)^{k+1} * (q^{c_n-1} + q^{c_n-3} + ... + q^{c_n+1-2k})."""
    sign = (-1) ** (k + 1)
    return QLaurent(
        {4 * (rs.c_n - 1 - 2 * r): sign for r in range(k)}
    )


@cache
def triangular_solve(rs: RootSystem) -> tuple[tuple[EPoly, QLaurent], ...]:
    """Invert the unit-triangular system expressing blocks in the E-basis.

    Block k must read b_k E_k + (terms in E_1..E_{k-1}) with b_k the printed
    :func:`expected_leading_coeff`; any other leading term (wrong, zero, or
    not triangular) raises :class:`SingularLeadingCoefficient`.  By
    induction on k, substitute the solved expressions for E_1..E_{k-1} into
    the lower terms and clear denominators, so that
    E_k = num_k(G_1..G_k)/den_k with num_k over the Laurent ring.  Entry
    k - 1 of the result is the pair (num_k, den_k).
    """
    n = rs.rank
    sol: list[tuple[EPoly, QLaurent]] = []
    for k in range(1, n + 1):
        b_k = expected_leading_coeff(rs, k)
        rest = g_in_e_basis(rs, k) - EPoly.symbol(n, k, b_k)
        if any(rest.uses_symbol(j) for j in range(k, n + 1)):
            raise SingularLeadingCoefficient(
                f"block {k} is not b_{k} E_{k} plus terms in E_1..E_{k - 1}"
            )
        degs = [rest.max_degree(j) for j in range(1, k)]
        dens = [power_table(den_j, d) for (_, den_j), d in zip(sol, degs)]
        common = QL_ONE
        for table in dens:
            if table:
                common = common * table[-1]
        # rest with E_j := num_j / den_j, cleared by `common`: each monomial
        # takes the den_j**(d_j - e_j) it lacks, then E_j := num_j
        homogenized = {}
        for mono, coeff in rest._per_weight().items():
            for den_pows, e, d in zip(dens, mono, degs):
                if d - e:
                    coeff = coeff * den_pows[d - e - 1]
            homogenized[mono] = coeff
        values = [num_j for num_j, _ in sol]
        values += [EPoly.symbol(n, j) for j in range(k, n + 1)]
        cleared = EPoly(n, homogenized).substitute(values, EPoly.one(n))
        sol.append((EPoly.symbol(n, k, common) - cleared, b_k * common))
    return tuple(sol)


def round_trip_ok(
    rs: RootSystem, sol: tuple[tuple[EPoly, QLaurent], ...], k: int
) -> bool:
    """Substituting the E-basis expressions of the blocks into the k-th
    solution must reproduce den * E_k exactly."""
    n = rs.rank
    ghats = [g_in_e_basis(rs, j) for j in range(1, n + 1)]
    num, den = sol[k - 1]
    return num.substitute(ghats, EPoly.one(n)) == EPoly.symbol(n, k, den)


def _block_maps_to_character(rs: RootSystem, j: int) -> bool:
    """The ring map E_r -> e_r sends the E-basis block g_j to the
    antisymmetrizer route's block G_j."""
    exts = [ext_power_char(rs, r) for r in range(1, rs.rank + 1)]
    image = g_in_e_basis(rs, j).substitute(exts, GAElem.one(rs.rank))
    return image == ch_g_via_antisym(rs, j).body


def solution_ok_in_characters(
    rs: RootSystem, sol: tuple[tuple[EPoly, QLaurent], ...], k: int
) -> bool:
    """num(g_1..g_k) = den * e_k in the group algebra: the image of the round
    trip under the ring map E_r -> e_r, once that map sends each E-basis
    block g_j (j <= k) to the antisymmetrizer route's block."""
    return round_trip_ok(rs, sol, k) and all(
        _block_maps_to_character(rs, j) for j in range(1, k + 1)
    )


def generation_certificate(rs: RootSystem) -> dict:
    """Machine-checked report that the blocks, together with the listed
    extra generators, generate the character ring.

    Covers: the triangular solve through n minus the number of spin indices
    (n-1 for B, n for C, n-2 for D), the identification of each covered
    fundamental character omega_r with the one-column determinant of
    :func:`jt_character` (e_r, or e_r - e_{r-2} in type C), and the spin
    fundamental weights, attached as extra generators without such an
    expression.  Raises :class:`CertificateFailed` on the first failing
    identity.
    """
    n = rs.rank
    solved_range = n - len(rs.spin_indices)
    checks = []
    sol = triangular_solve(rs)
    mapped = True  # every block g_j, j <= k, maps to G_j
    for k in range(1, solved_range + 1):
        # solution_ok_in_characters(rs, sol, k), with each k's round trip and
        # each block's image checked once
        trip = round_trip_ok(rs, sol, k)
        mapped = mapped and _block_maps_to_character(rs, k)
        checks.append((f"solve-E{k}", trip))
        checks.append((f"characters-E{k}", trip and mapped))
    for r in range(1, solved_range + 1):
        chi = weyl_character(rs, rs.fundamental_weight(r))
        checks.append((f"fundamental-{r}", chi == jt_character(rs, (1,) * r)))
    extra_gens = []
    for r in rs.spin_indices:
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
