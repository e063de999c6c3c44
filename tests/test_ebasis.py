"""Determinantal characters, the e-basis, and the triangular change of basis."""

from fractions import Fraction

import pytest

from qcasimir.casimir import ch_g_via_antisym, ch_g_via_hooks
from qcasimir.chars import GAElem, ext_power_char, weyl_character
from qcasimir.ebasis import (
    CertificateFailed,
    HalvingFailed,
    PartitionTooLong,
    SingularLeadingCoefficient,
    _e_symbol,
    _jt_matrix,
    conjugate_partition,
    expected_leading_coeff,
    g_in_e_basis,
    generation_certificate,
    hook_matrix_printed,
    jt_character,
    round_trip_ok,
    solution_ok_in_characters,
    triangular_solve,
)
from qcasimir.exact import QL_ONE, EPoly, QLaurent, det_bareiss, det_exact
from qcasimir.roots import LieType, Weight, build_root_system, partition_to_weight
from qcasimir.verify import certificate_cases, in_scope_systems

B2 = build_root_system(LieType.B, 2)
B3 = build_root_system(LieType.B, 3)
C3 = build_root_system(LieType.C, 3)
D4 = build_root_system(LieType.D, 4)
SMALL = (B2, B3, C3, D4)

Q = QLaurent.q_power


def test_conjugate_partition():
    assert conjugate_partition(()) == ()
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate_partition((1, 1, 1)) == (3,)


def partitions_upto(total, max_len):
    out = set()

    def rec(rest, maxpart, cur):
        if cur:
            out.add(tuple(cur))
        if not rest:
            return
        for p in range(min(rest, maxpart), 0, -1):
            if len(cur) < max_len:
                rec(rest - p, p, cur + [p])

    for m in range(1, total + 1):
        rec(m, m, [])
    return sorted(out)


class TestJacobiTrudi:
    def test_single_box(self):
        for rs in SMALL:
            assert jt_character(rs, (1,)) == ext_power_char(rs, 1)

    def test_single_column_is_exterior_power(self):
        # B: one column of height r <= n gives the r-th exterior power
        for r in (1, 2, 3):
            assert jt_character(B3, (1,) * r) == ext_power_char(B3, r)

    def test_partition_too_long(self):
        with pytest.raises(PartitionTooLong):
            jt_character(B2, (1, 1, 1))

    def test_rejects_a_zero_before_a_part(self):
        # trailing zeros are allowed, a zero followed by a part is not
        assert jt_character(B3, (2, 1, 0)) == jt_character(B3, (2, 1))
        for parts in ((2, 0, 1), (1, 2)):
            with pytest.raises(ValueError, match="is not a partition"):
                jt_character(B3, parts)

    @pytest.mark.parametrize(
        "build, parts",
        (
            (jt_character, (Fraction(3, 2), 1)),
            (jt_character, (2.7, 1)),
            (partition_to_weight, (Fraction(3, 2), 1)),
            (partition_to_weight, (2.5, 1)),
        ),
        ids=("jt-3/2", "jt-2.7", "weight-3/2", "weight-2.5"),
    )
    def test_rejects_non_integral_parts(self, build, parts):
        # int() truncation would silently read another partition
        with pytest.raises(ValueError, match="is not a partition"):
            build(B3, parts)

    def test_accepts_integral_fractions(self):
        parts = (Fraction(2), Fraction(1), Fraction(0))
        assert jt_character(B3, parts) == jt_character(B3, (2, 1))
        assert partition_to_weight(B3, parts) == partition_to_weight(B3, (2, 1))

    def test_odd_coefficient_fails_halving(self, monkeypatch):
        odd = EPoly.symbol(3, 1, QLaurent.one())
        monkeypatch.setattr("qcasimir.ebasis.det_exact", lambda rows: odd)
        with pytest.raises(HalvingFailed, match="odd coefficient 1 in B3"):
            jt_character(B3, (2, 1), target="e")

    @pytest.mark.parametrize(
        "rs", (B2, B3, C3), ids=lambda r: f"{r.lie_type.value}{r.rank}"
    )
    def test_matches_weyl_characters(self, rs):
        for parts in partitions_upto(5, rs.rank):
            jt = jt_character(rs, parts)
            chi = weyl_character(rs, partition_to_weight(rs, parts))
            assert jt == chi, parts

    def test_type_d_matches_below_full_length(self):
        for parts in partitions_upto(5, 3):  # at most n-1 parts
            assert jt_character(D4, parts) == weyl_character(
                D4, partition_to_weight(D4, parts)
            )

    def test_type_d_full_length_splits(self):
        # with exactly n nonzero parts the determinant provably returns the
        # sum of the character and its sign-flipped mirror; pin that
        for parts in ((1, 1, 1, 1), (2, 1, 1, 1)):
            lam = partition_to_weight(D4, parts)
            mirror = Weight(lam.dbl[:-1] + (-lam.dbl[-1],))
            assert jt_character(D4, parts) == weyl_character(
                D4, lam
            ) + weyl_character(D4, mirror)

    def test_e_mode_evaluates_to_ga_mode(self):
        for rs in (B2, C3):
            exts = [ext_power_char(rs, r) for r in range(1, rs.rank + 1)]
            for parts in partitions_upto(4, rs.rank):
                poly = jt_character(rs, parts, target="e")
                val = poly.substitute(exts, GAElem.one(rs.rank))
                assert val == jt_character(rs, parts), parts


B7 = build_root_system(LieType.B, 7)
D7 = build_root_system(LieType.D, 7)


class TestSizeSevenDeterminants:
    """Cofactor expansion is the one path at every size; Bareiss is only its
    oracle."""

    @pytest.mark.parametrize(
        "rs, parts",
        ((B7, (7, 1)), (D7, (7, 1)), (B7, (7, 5, 3, 1))),
        ids=("B7-7,1", "D7-7,1", "B7-7,5,3,1"),
    )
    def test_matches_bareiss(self, rs, parts):
        m = _jt_matrix(rs, parts, _e_symbol)
        assert det_exact(m) == det_bareiss(m)

    def test_never_calls_bareiss(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("det_exact reached det_bareiss")

        monkeypatch.setattr("qcasimir.exact.det_bareiss", refuse)
        assert not det_exact(_jt_matrix(B7, (7, 1), _e_symbol)).is_zero()


class TestHookMatrices:
    @pytest.mark.parametrize(
        "rs", (B2, B3, C3, D4), ids=lambda r: f"{r.lie_type.value}{r.rank}"
    )
    def test_printed_matrix_shape(self, rs):
        k, r = rs.rank + 1, rs.rank - 1
        rows = hook_matrix_printed(rs, k, r)
        size = k - r
        for i in range(1, size):
            # unit subdiagonal, zeros below it
            assert rows[i][i - 1] == GAElem.one(rs.rank)
            for j in range(i - 1):
                assert rows[i][j].is_zero()

    def test_printed_determinant_matches(self):
        for rs in (B2, B3, C3):
            for r in range(rs.rank):
                for arm in (1, 2, 3):
                    printed = det_exact(hook_matrix_printed(rs, arm + r, r))
                    assert printed == jt_character(rs, (arm,) + (1,) * r)
        # type D away from the split column
        for r in range(D4.rank - 1):
            printed = det_exact(hook_matrix_printed(D4, 2 + r, r))
            assert printed == jt_character(D4, (2,) + (1,) * r)


class TestEBasisBlocks:
    def test_first_block_is_scaled_symbol(self):
        # g_1 = q^{c_n - 1} E_1 in every type
        for rs in SMALL:
            assert g_in_e_basis(rs, 1) == EPoly.symbol(
                rs.rank, 1, Q(rs.c_n - 1)
            )

    def test_leading_coefficient_formula(self):
        for rs in SMALL:
            for k in range(1, rs.rank + 1):
                poly = g_in_e_basis(rs, k)
                key = tuple(1 if i == k - 1 else 0 for i in range(rs.rank))
                assert poly.coeff(key) == expected_leading_coeff(rs, k)

    def test_triangular_in_symbols(self):
        for rs in SMALL:
            for k in range(1, rs.rank + 1):
                poly = g_in_e_basis(rs, k)
                for j in range(k + 1, rs.rank + 1):
                    assert not poly.uses_symbol(j)

    def test_substitution_reproduces_hook_route(self):
        for rs in SMALL:
            exts = [ext_power_char(rs, r) for r in range(1, rs.rank + 1)]
            for k in range(1, rs.rank + 1):
                val = g_in_e_basis(rs, k).substitute(
                    exts, GAElem.one(rs.rank)
                )
                assert val == ch_g_via_hooks(rs, k).body, (rs.lie_type, k)

    def test_jacobian_is_triangular_with_unit_product(self):
        for rs in (B2, C3):
            n = rs.rank
            polys = [g_in_e_basis(rs, k) for k in range(1, n + 1)]
            jac = [[p.partial(j) for j in range(1, n + 1)] for p in polys]
            for i in range(n):
                for j in range(i + 1, n):
                    assert jac[i][j].is_zero()
            det = det_exact(jac)
            expected = EPoly.one(n)
            for k in range(1, n + 1):
                expected = expected.scale(expected_leading_coeff(rs, k))
            assert det == expected


class TestTriangularSolve:
    @pytest.mark.parametrize(
        "rs", SMALL, ids=lambda r: f"{r.lie_type.value}{r.rank}"
    )
    def test_round_trips_all_k(self, rs):
        sol = triangular_solve(rs)
        for k in range(1, rs.rank + 1):
            assert round_trip_ok(rs, sol, k), k

    def test_character_level_identities(self):
        for rs in (B2, C3):
            sol = triangular_solve(rs)
            for k in range(1, rs.rank + 1):
                assert solution_ok_in_characters(rs, sol, k), (rs.lie_type, k)

    def test_c1_printed_value(self):
        # c_1 = +1 / q^{c_n - 1}; in type B that is q^{1-2n}
        for rs in SMALL:
            num, den = triangular_solve(rs)[0]
            # first solution has no lower-order terms at all
            assert num == EPoly.symbol(rs.rank, 1)
            assert den == Q(rs.c_n - 1)
        assert triangular_solve(B3)[0][1] == Q(5)

    def test_all_leading_pairs_nonzero(self):
        # c_k = (G_k coefficient of num_k) / den_k is 1 / b_k, nonzero
        for rs in SMALL:
            n = rs.rank
            for k, (num, den) in enumerate(triangular_solve(rs), 1):
                lead = num.coeff(tuple(int(i == k) for i in range(1, n + 1)))
                assert lead and den
                assert lead * expected_leading_coeff(rs, k) == den


def literal_triangular_solve(rs):
    """The literal solve, the reference for the power tables: every power
    is formed by ``**`` per monomial."""
    n = rs.rank
    sol = []
    for k in range(1, n + 1):
        b_k = expected_leading_coeff(rs, k)
        rest = g_in_e_basis(rs, k) - EPoly.symbol(n, k, b_k)
        degs = [rest.max_degree(j) for j in range(1, k)]
        common = QL_ONE
        for (_, den_j), d in zip(sol, degs):
            common = common * den_j**d
        cleared = EPoly.zero(n)
        for mono, coeff in rest._per_weight().items():
            term = EPoly.one(n)
            scalar = coeff
            for (num_j, den_j), e, d in zip(sol, mono, degs):
                if e:
                    term = term * num_j**e
                scalar = scalar * den_j ** (d - e)
            cleared = cleared + term.scale(scalar)
        sol.append((EPoly.symbol(n, k, common) - cleared, b_k * common))
    return tuple(sol)


@pytest.mark.parametrize(
    "rs", in_scope_systems(), ids=lambda r: f"{r.lie_type.value}{r.rank}"
)
def test_solve_matches_literal_solve(rs):
    assert triangular_solve(rs) == literal_triangular_solve(rs)


@pytest.mark.parametrize(
    "lie, n",
    [(LieType.B, 5), (LieType.C, 5), (LieType.B, 6), (LieType.C, 6), (LieType.D, 6)],
    ids=["B5", "C5", "B6", "C6", "D6"],
)
def test_certificate_past_rank_four(lie, n):
    """Systems outside the verify scope: every identity of the certificate
    holds (it raises on the first that fails) and the extra generators are
    the expected ones."""
    [case] = certificate_cases([build_root_system(lie, n)])
    assert case["status"] == "pass", case["detail"]


def _drop_monomial(num: EPoly, mono: tuple) -> EPoly:
    terms = num._per_weight()
    del terms[mono]
    return EPoly(num.rank, terms)


def _mutations(num: EPoly, den: QLaurent):
    yield "den*q", (num, den * Q(1))
    for mono in num._per_weight():
        yield f"without {mono}", (_drop_monomial(num, mono), den)


@pytest.mark.parametrize(
    "rs", (B3, C3, D4), ids=lambda r: f"{r.lie_type.value}{r.rank}"
)
def test_mutated_pairs_rejected(rs):
    """A solution with its denominator scaled by q, or with one numerator
    monomial dropped, fails both the round trip and the character check."""
    sol = triangular_solve(rs)
    for k in (1, 2):
        for what, pair in _mutations(*sol[k - 1]):
            bad = sol[: k - 1] + (pair,) + sol[k:]
            assert not round_trip_ok(rs, bad, k), (k, what)
            assert not solution_ok_in_characters(rs, bad, k), (k, what)


def literal_solution_ok_in_characters(rs, sol, k):
    """The character identity formed literally, the reference for
    ``solution_ok_in_characters``: the solved numerator is substituted into
    the antisymmetrizer route's expanded blocks."""
    n = rs.rank
    gs = [ch_g_via_antisym(rs, j).body for j in range(1, n + 1)]
    num, den = sol[k - 1]
    return num.substitute(gs, GAElem.one(n)) == ext_power_char(rs, k).scale(den)


@pytest.mark.parametrize("rs", SMALL, ids=lambda r: f"{r.lie_type.value}{r.rank}")
def test_character_check_matches_literal_check(rs):
    sol = triangular_solve(rs)
    for k in range(1, rs.rank + 1):
        assert literal_solution_ok_in_characters(rs, sol, k), k
        assert solution_ok_in_characters(rs, sol, k), k


@pytest.mark.parametrize(
    "rs", (B3, C3, D4), ids=lambda r: f"{r.lie_type.value}{r.rank}"
)
def test_mutated_pairs_agree_with_literal_check(rs):
    """Every mutation of ``test_mutated_pairs_rejected`` gets the same
    verdict from the character check and from its literal reference."""
    sol = triangular_solve(rs)
    for k in (1, 2):
        for what, pair in _mutations(*sol[k - 1]):
            bad = sol[: k - 1] + (pair,) + sol[k:]
            literal = literal_solution_ok_in_characters(rs, bad, k)
            assert solution_ok_in_characters(rs, bad, k) == literal, (k, what)


class TestTriangularButWrongBlock:
    """Block 2 written as g_2 + E_1 keeps the triangular shape, so the solve
    and its round trip in the symbols accept it; only the check against the
    characters fails."""

    @pytest.fixture(autouse=True)
    def broken(self, monkeypatch):
        def g_broken(rs, k):
            g = g_in_e_basis(rs, k)
            return g + EPoly.symbol(rs.rank, 1) if k == 2 else g

        triangular_solve.cache_clear()
        monkeypatch.setattr("qcasimir.ebasis.g_in_e_basis", g_broken)
        yield
        triangular_solve.cache_clear()

    @pytest.mark.parametrize(
        "rs", (B3, C3, D4), ids=lambda r: f"{r.lie_type.value}{r.rank}"
    )
    def test_only_the_character_check_fails(self, rs):
        sol = triangular_solve(rs)
        assert round_trip_ok(rs, sol, 2)
        assert not solution_ok_in_characters(rs, sol, 2)
        assert not literal_solution_ok_in_characters(rs, sol, 2)

    def test_certificate_case_names_the_identity(self):
        [case] = certificate_cases([C3])
        assert case["status"] == "fail"
        assert case["detail"] == "C3: characters-E2"


def test_certificate_substitutes_only_blocks_into_characters(monkeypatch):
    """The certificate binds symbols to group-algebra characters only in the
    E-basis blocks g_j, never in a solved numerator."""
    blocks = [g_in_e_basis(C3, j) for j in range(1, C3.rank + 1)]
    seen = []
    original = EPoly.substitute

    def watched(self, values, one):
        if isinstance(one, GAElem):
            seen.append(self)
            assert any(self == g for g in blocks), "substituted a non-block"
        return original(self, values, one)

    monkeypatch.setattr(EPoly, "substitute", watched)
    generation_certificate(C3)
    assert seen


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_type_d_full_column_is_the_last_symbol(n):
    # the determinant of (1^n) is chi(1^n) plus its mirror's character, the
    # n-th exterior power: the symbol E_n, as g_in_e_basis reads it
    rs = build_root_system(LieType.D, n)
    assert jt_character(rs, (1,) * n, target="e") == EPoly.symbol(n, n)


def _wrong_leading(rs, k, g):
    return g + EPoly.symbol(rs.rank, k, Q(1))


def _zero_leading(rs, k, g):
    return g - EPoly.symbol(rs.rank, k, expected_leading_coeff(rs, k))


def _next_symbol(rs, k, g):
    return g + EPoly.symbol(rs.rank, k + 1)


def _times_e1(rs, k, g):
    return g + EPoly.symbol(rs.rank, k) * EPoly.symbol(rs.rank, 1)


class TestTriangularityCheck:
    """Block k must be b_k E_k plus terms in E_1..E_{k-1}: a wrong or zero
    b_k, a term in E_{k+1} and a term E_k E_1 each raise."""

    K = 2

    @pytest.fixture(autouse=True)
    def fresh_solve_cache(self):
        triangular_solve.cache_clear()
        yield
        triangular_solve.cache_clear()

    @pytest.fixture(params=(_wrong_leading, _zero_leading, _next_symbol, _times_e1))
    def broken(self, request, monkeypatch):
        def g_broken(rs, k):
            g = g_in_e_basis(rs, k)
            return request.param(rs, k, g) if k == self.K else g

        monkeypatch.setattr("qcasimir.ebasis.g_in_e_basis", g_broken)

    @pytest.mark.parametrize(
        "rs", (B3, C3, D4), ids=lambda r: f"{r.lie_type.value}{r.rank}"
    )
    def test_raises(self, rs, broken):
        with pytest.raises(SingularLeadingCoefficient, match=f"block {self.K} "):
            triangular_solve.__wrapped__(rs)

    def test_certificate_case_fails(self, broken):
        [case] = certificate_cases([C3])
        assert case["status"] == "fail"
        assert case["detail"].startswith(f"block {self.K} ")


class TestCertificates:
    def test_extra_generators_per_type(self):
        assert [g["index"] for g in generation_certificate(B2)["extra_generators"]] == [2]
        assert generation_certificate(C3)["extra_generators"] == []
        assert [g["index"] for g in generation_certificate(D4)["extra_generators"]] == [3, 4]

    def test_spin_dimensions(self):
        rep = generation_certificate(B3)
        assert rep["extra_generators"][0]["dim"] == 8
        rep = generation_certificate(D4)
        assert [g["dim"] for g in rep["extra_generators"]] == [8, 8]

    def test_solved_ranges(self):
        assert generation_certificate(B3)["solved_range"] == 2
        assert generation_certificate(C3)["solved_range"] == 3
        assert generation_certificate(D4)["solved_range"] == 2

    def test_all_checks_pass(self):
        for rs in SMALL:
            rep = generation_certificate(rs)
            assert all(c["status"] == "pass" for c in rep["checks"])

    def test_fundamental_relations(self):
        # the certificate's one-column determinant is e_r in types B and D
        # and e_r - e_{r-2} in type C
        expected = [(B3, r, ext_power_char(B3, r)) for r in (1, 2)]
        expected += [(D4, r, ext_power_char(D4, r)) for r in (1, 2)]
        expected += [
            (C3, r, ext_power_char(C3, r) - ext_power_char(C3, r - 2))
            for r in (1, 2, 3)
        ]
        for rs, r, expr in expected:
            assert weyl_character(rs, rs.fundamental_weight(r)) == expr, (rs, r)
            assert jt_character(rs, (1,) * r) == expr, (rs, r)

    def test_certificate_failure_is_a_failing_case(self, monkeypatch):
        def failing(rs):
            raise CertificateFailed(f"B{rs.rank}: characters-E1")

        monkeypatch.setattr("qcasimir.verify.generation_certificate", failing)
        [case] = certificate_cases([B2])
        assert case["status"] == "fail"
        assert case["detail"] == "B2: characters-E1"

    def test_programming_error_propagates(self, monkeypatch):
        def broken(rs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr("qcasimir.verify.generation_certificate", broken)
        with pytest.raises(TypeError):
            certificate_cases([B2])
