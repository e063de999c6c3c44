"""Block characters, torus images, eigenvalues, and the numeric oracle."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul

import pytest

from qcasimir import verify
from qcasimir.casimir import (
    CasimirImage,
    DegenerateEvaluation,
    _hc_classes,
    c0_rational_eval,
    ch_g_via_antisym,
    ch_g_via_hooks,
    chamber_form,
    closed_form_g0,
    closed_form_g1,
    constituents,
    eigenvalue_direct,
    eigenvalue_via_hc,
    g_rational_eval,
    h_element,
    hc_at_weight,
    hc_combination,
    hc_denominator,
    hc_image,
    hc_value,
    hook_chamber,
    hook_terms,
)
from qcasimir.chars import (
    GAElem,
    character_sum,
    divide_by_denominator,
    enumerate_weyl,
    is_w_invariant,
    straighten,
    weyl_character,
    weyl_denominator,
)
from qcasimir.ebasis import jt_character, triangular_solve
from qcasimir.exact import NotDivisible, QLaurent
from qcasimir.roots import (
    LieType,
    NotDominant,
    NotOnWeightLattice,
    Weight,
    build_root_system,
    eps,
    pairing,
    partition_to_weight,
)
from qcasimir.verify import (
    chamber_failure,
    in_scope_systems,
    sample_dominant_weight,
)
from test_chars import literal_antisymmetrize

B2 = build_root_system(LieType.B, 2)
B3 = build_root_system(LieType.B, 3)
C3 = build_root_system(LieType.C, 3)
D4 = build_root_system(LieType.D, 4)
SMALL = (B2, B3, C3, D4)
ALL = tuple(in_scope_systems())


def _name(rs):
    return f"{rs.lie_type.value}{rs.rank}"

Q = QLaurent.q_power


def ql(coeffs):
    return QLaurent({4 * e: c for e, c in coeffs.items()})


def test_repeated_calls_return_the_cached_object():
    # the caches key on the one RootSystem per (type, rank) and on equal
    # arguments, however the system and the weight were obtained
    same_b3 = build_root_system("B", 3)
    lam = partition_to_weight(B3, (2, 1))
    assert weyl_character(same_b3, Weight(lam.dbl)) is weyl_character(B3, lam)
    assert ch_g_via_antisym(same_b3, 2) is ch_g_via_antisym(B3, 2)
    assert ch_g_via_hooks(same_b3, 2) is ch_g_via_hooks(B3, 2)
    assert hc_combination(same_b3, 2) is hc_combination(B3, 2)
    assert triangular_solve(same_b3) is triangular_solve(B3)


def test_casimir_image_equality_and_json():
    hooks = ch_g_via_hooks(B2, 0)
    # positional fields, the denominator 1 by default, equality by fields
    same = CasimirImage(LieType.B, 2, 0, hooks.body, "hook_expansion")
    assert same == hooks and same.denominator == QLaurent({0: 1})
    assert ch_g_via_antisym(B2, 0) != hooks  # same body, other provenance
    assert CasimirImage(LieType.B, 2, 0, hooks.body, "hook_expansion", Q(1)) != hooks
    with pytest.raises(AttributeError):
        hooks.order = 1
    assert hooks.to_json() == {
        "type": "B",
        "rank": 2,
        "k_or_ell": 0,
        "provenance": "hook_expansion",
        "body": [
            {
                "weight": [0, 0],
                "coeff": [{"e": e, "c": "1"} for e in (-12, -4, 0, 4, 12)],
            }
        ],
        "denominator": [{"e": 0, "c": "1"}],
    }
    assert hc_image(B2, 1).to_json()["denominator"] == [
        {"e": -4, "c": "1"},
        {"e": 4, "c": "-1"},
    ]


class TestAuxiliaryElement:
    def test_b2_term_count(self):
        # three binomial factors, all eight subset monomials distinct
        assert len(h_element(B2, 0)._per_weight()) == 8

    @staticmethod
    def _pair_factors(rs):
        one = GAElem.one(rs.rank)
        out = one
        for i in range(2, rs.rank + 1):
            for sign in (1, -1):
                alpha = eps(rs.rank, 1) - eps(rs.rank, i).scale(sign)
                out = out * (one - GAElem.exponential(-alpha, Q(-2)))
        return out

    def test_displayed_product_type_b(self):
        for k in (0, 2):
            head = GAElem.exponential(B3.rho + eps(3, 1).scale(k))
            one = GAElem.one(3)
            short = one - GAElem.exponential(-eps(3, 1), Q(-2))
            assert h_element(B3, k) == head * short * self._pair_factors(B3)

    def test_displayed_product_type_c_carries_q4(self):
        for k in (0, 1):
            head = GAElem.exponential(C3.rho + eps(3, 1).scale(k))
            one = GAElem.one(3)
            long_root = one - GAElem.exponential(eps(3, 1).scale(-2), Q(-4))
            assert h_element(C3, k) == head * long_root * self._pair_factors(C3)

    def test_displayed_product_type_d_has_no_first_coordinate_factor(self):
        for k in (0, 3):
            head = GAElem.exponential(D4.rho + eps(4, 1).scale(k))
            assert h_element(D4, k) == head * self._pair_factors(D4)

    def test_support_bound(self):
        for rs in SMALL:
            n_factors = sum(
                1 for alpha in rs.positive_roots if alpha.dbl[0] > 0
            )
            assert len(h_element(rs, 1)._per_weight()) <= 2**n_factors


class TestClosedForms:
    def test_b2_k0_frozen(self):
        assert ch_g_via_antisym(B2, 0).body == GAElem.constant(
            2, ql({3: 1, 1: 1, 0: 1, -1: 1, -3: 1})
        )

    def test_b2_k1_frozen(self):
        # q^3 times the five weights of the natural module
        weights = ((2, 0), (-2, 0), (0, 2), (0, -2), (0, 0))
        expected = GAElem(2, {w: Q(3) for w in weights})
        assert ch_g_via_antisym(B2, 1).body == expected

    def test_c3_k0_frozen(self):
        assert ch_g_via_antisym(C3, 0).body == GAElem.constant(
            3, ql({6: 1, 4: 1, 2: 1, -2: 1, -4: 1, -6: 1})
        )

    def test_closed_forms_all_small_systems(self):
        for rs in SMALL:
            assert ch_g_via_antisym(rs, 0).body == closed_form_g0(rs)
            assert ch_g_via_antisym(rs, 1).body == closed_form_g1(rs)


def literal_rhs(rs, k):
    """q^{c_n-1} A(H_{n,k}) (+ q^{-k} Delta in type B), A enumerated."""
    rhs = literal_antisymmetrize(h_element(rs, k), rs).scale(
        QLaurent.monomial(4 * (rs.c_n - 1))
    )
    if rs.lie_type is LieType.B:
        rhs = rhs + weyl_denominator(rs).scale(QLaurent.monomial(-4 * k))
    return rhs


class TestChamberRoute:
    """The antisymmetrizer route in the character basis, and criterion 2 in
    the dominant chamber, against their literal forms over the enumerated
    group."""

    @pytest.mark.parametrize("rs", SMALL, ids=_name)
    def test_equals_literal_division(self, rs):
        for k in range(rs.c_n + 2):
            assert ch_g_via_antisym(rs, k).body == divide_by_denominator(
                literal_rhs(rs, k), rs
            ), k

    @pytest.mark.parametrize("rs", SMALL, ids=_name)
    def test_chamber_check_equals_literal_identity(self, rs):
        delta = weyl_denominator(rs)
        chi = weyl_character(rs, Weight((2,) + (0,) * (rs.rank - 1)))
        for k in range(rs.rank + 3):
            g = ch_g_via_hooks(rs, k).body
            rhs = literal_rhs(rs, k)
            # the block, and two W-invariant blocks that are wrong
            chamber = chamber_form(rs, k)
            for cand in (g, g + chi.scale(Q(1)), g.scale(Q(1))):
                holds = delta * cand == rhs
                assert (chamber_failure(rs, cand, chamber) == "") == holds, k
            assert chamber_failure(rs, g, chamber) == ""

    @pytest.mark.parametrize("rs", SMALL, ids=_name)
    def test_premise_rejects_a_block_that_is_not_invariant(self, rs):
        # e^{-rho} moves to e^0, which lies on every wall: the straightened
        # coefficients do not see it, but Delta * g does
        k = 2
        g = ch_g_via_hooks(rs, k).body + GAElem.exponential(-rs.rho)
        assert not is_w_invariant(g, rs)
        assert straighten(g.shift(rs.rho), rs) == chamber_form(rs, k)
        assert weyl_denominator(rs) * g != literal_rhs(rs, k)
        assert chamber_failure(rs, g, chamber_form(rs, k)) == "block is not W-invariant"


class TestChamberFailure:
    """Criterion 8's check, Weyl's formula in numerator form, rejects a
    wrong shape and a determinant that is not W-invariant."""

    @staticmethod
    def _chamber(rs, parts):
        lam = partition_to_weight(rs, parts)
        return GAElem.exponential(lam + rs.rho)

    @pytest.mark.parametrize("rs", SMALL, ids=_name)
    def test_accepts_the_determinant_of_its_shape(self, rs):
        jt = jt_character(rs, (2, 1), target="ga")
        assert chamber_failure(rs, jt, self._chamber(rs, (2, 1))) == ""

    @pytest.mark.parametrize("rs", SMALL, ids=_name)
    def test_rejects_another_shape(self, rs):
        jt = jt_character(rs, (2, 1), target="ga")
        for parts in ((2,), (1, 1), (3,)):
            why = chamber_failure(rs, jt, self._chamber(rs, parts))
            assert why == "chamber coefficients differ", parts

    @pytest.mark.parametrize("rs", SMALL, ids=_name)
    def test_rejects_a_perturbation_that_is_not_invariant(self, rs):
        # e^{-rho} straightens to nothing after the shift by rho
        jt = jt_character(rs, (2, 1), target="ga") + GAElem.exponential(-rs.rho)
        chamber = self._chamber(rs, (2, 1))
        assert straighten(jt.shift(rs.rho), rs) == chamber
        assert chamber_failure(rs, jt, chamber) == "block is not W-invariant"

    def test_type_d_full_length_needs_the_mirror(self):
        parts = (1,) * D4.rank
        jt = jt_character(D4, parts, target="ga")
        lam = partition_to_weight(D4, parts)
        mirror = Weight(lam.dbl[:-1] + (-lam.dbl[-1],))
        chamber = GAElem.exponential(lam + D4.rho)
        assert chamber_failure(D4, jt, chamber) == "chamber coefficients differ"
        chamber = chamber + GAElem.exponential(mirror + D4.rho)
        assert chamber_failure(D4, jt, chamber) == ""


class TestRouteEquality:
    @pytest.mark.parametrize(
        "rs", SMALL, ids=lambda r: f"{r.lie_type.value}{r.rank}"
    )
    def test_routes_agree(self, rs):
        # up to top + 2: past the columns folded by rbar and, in type B, onto
        # the constant that returns at odd k > top
        for k in range(rs.c_n + 2):
            assert (
                ch_g_via_antisym(rs, k).body == ch_g_via_hooks(rs, k).body
            ), k

    @pytest.mark.parametrize("rs", SMALL, ids=_name)
    def test_chamber_forms_agree(self, rs):
        # criterion 3's comparison, read back through the expanded bodies
        for k in range(rs.c_n + 2):
            chamber = hook_chamber(rs, k)
            assert chamber == chamber_form(rs, k), k
            assert ch_g_via_hooks(rs, k).body == character_sum(chamber, rs), k

    def test_hook_chamber_at_k0_is_the_constant_at_rho(self):
        for rs in SMALL:
            assert hook_chamber(rs, 0) == closed_form_g0(rs).shift(rs.rho)
        with pytest.raises(ValueError):
            hook_chamber(B2, -1)

    def test_block_bodies_invariant_and_integral(self):
        for rs in (B2, C3):
            for k in range(rs.rank + 2):
                body = ch_g_via_antisym(rs, k).body
                assert body.has_integral_support()
                assert all(body.act(w) == body for w in enumerate_weyl(rs))

    @staticmethod
    def _hook_sum(rs, k, power_of, taus=None):
        from qcasimir.chars import weyl_character
        from qcasimir.roots import hook_weight

        total = GAElem.zero(rs.rank)
        for r in range(k):
            t = 1 if taus is None else taus(r)
            if t == 0:
                continue
            chi = weyl_character(rs, hook_weight(rs, k, r))
            if rs.lie_type is LieType.D and r == rs.rank - 1:
                chi = chi + weyl_character(rs, hook_weight(rs, k, r, bar=True))
            total = total + chi.scale(Q(power_of(r), (-1) ** r * t))
        return total

    def test_branch_selection_type_b(self):
        # odd k in range: the bare hook sum, no q^{-k} summand
        expected = self._hook_sum(B2, 3, lambda r: 3 - 2 * r)
        assert ch_g_via_hooks(B2, 3).body == expected
        # even k: the q^{-k} summand is present
        expected = self._hook_sum(B2, 4, lambda r: 3 - 2 * r) + GAElem.constant(
            2, Q(-4)
        )
        assert ch_g_via_hooks(B2, 4).body == expected

    def test_branch_selection_type_c(self):
        from qcasimir.roots import tau

        # even k in range: constant is -q^{-k}
        expected = self._hook_sum(
            C3, 2, lambda r: 6 - 2 * r, taus=lambda r: tau(C3, r)
        ) + GAElem.constant(3, Q(-2, -1))
        assert ch_g_via_hooks(C3, 2).body == expected
        # odd k: no constant
        expected = self._hook_sum(
            C3, 3, lambda r: 6 - 2 * r, taus=lambda r: tau(C3, r)
        )
        assert ch_g_via_hooks(C3, 3).body == expected

    def test_branch_selection_type_d_double_constituent(self):
        # at k = n the summand r = n-1 carries both the hook character and
        # its barred mirror (delta_{r,n-1} branch), plus the even constant
        expected = self._hook_sum(D4, 4, lambda r: 6 - 2 * r) + GAElem.constant(
            4, Q(-4)
        )
        assert ch_g_via_hooks(D4, 4).body == expected
        bar_body = ch_g_via_hooks(D4, 4).body
        no_bar = expected - weyl_character(
            D4, Weight((2, 2, 2, -2))
        ).scale(Q(6 - 2 * 3, (-1) ** 3))
        assert bar_body != no_bar


class TestRationalOracle:
    def draw(self, rs, rng):
        nums = rng.sample(range(21, 60), rs.rank)
        return [Fraction(v, 20) for v in nums]

    @pytest.mark.parametrize(
        "rs", (B2, C3, D4), ids=lambda r: f"{r.lie_type.value}{r.rank}"
    )
    def test_blocks_match_symbolic(self, rs):
        rng = random.Random(f"oracle-{rs.lie_type}")
        for k in range(rs.rank + 1):
            body = ch_g_via_antisym(rs, k).body
            for s in (2, Fraction(5, 2)):
                pt = self.draw(rs, rng)
                assert g_rational_eval(rs, k, s, pt) == body.evaluate(s, pt)

    def test_k0_matches_quantum_dimension(self):
        rng = random.Random("qdim")
        pt = self.draw(B3, rng)
        val = g_rational_eval(B3, 0, 2, pt)
        assert val == closed_form_g0(B3).evaluate(2, pt)

    def test_degenerate_point_rejected(self):
        pt = [Fraction(3, 2), Fraction(3, 2), Fraction(2)]
        with pytest.raises(DegenerateEvaluation):
            g_rational_eval(C3, 1, 2, pt)

    def test_images_match_symbolic(self):
        rng = random.Random("images")
        for rs in (B2, C3):
            for ell in range(1, rs.rank + 1):
                pt = self.draw(rs, rng)
                assert c0_rational_eval(rs, ell, 2, pt) == hc_value(rs, ell, 2, pt)


class TestTorusImages:
    def test_pair_representation(self):
        img = hc_image(B2, 1)
        assert img.denominator == QLaurent({-4: 1, 4: -1})
        assert img.body == hc_combination(B2, 1)

    def test_divisibility_fails_everywhere(self):
        # coefficient-wise divisibility by (q^{-1}-q)^ell cannot hold: the
        # combination does not vanish at q = 1, so no coefficient divides
        for rs in (B2, C3, D4):
            for ell in (1, rs.rank):
                den = hc_denominator(ell)
                for c in hc_combination(rs, ell)._per_weight().values():
                    with pytest.raises(NotDivisible):
                        c.div_exact(den)

    def test_specialisation_divides_to_eigenvalue(self):
        # at a dominant weight the combination divides exactly, and the
        # quotient evaluates to the eigenvalue of the other route
        cases = (
            (B2, Weight((2, 0))),
            (C3, Weight((4, 2, 0))),
            (D4, Weight((2, 2, 2, -2))),
        )
        for rs, lam in cases:
            for ell in (1, rs.rank):
                quot = hc_at_weight(rs, ell, lam).div_exact(hc_denominator(ell))
                assert quot.evaluate(2) == eigenvalue_via_hc(rs, lam, ell, 2)

    def test_spin_weight_needs_half_divisor(self):
        num = hc_at_weight(B2, 1, Weight((1, 1)))
        with pytest.raises(NotDivisible):
            num.div_exact(hc_denominator(1))
        num.div_exact(QLaurent({-2: 1, 2: -1}))  # q^{-1/2} - q^{1/2}

    def test_combination_invariant_integral(self):
        for rs in (B2, C3):
            for ell in range(1, rs.rank + 1):
                body = hc_combination(rs, ell)
                assert body.has_integral_support()
                assert all(body.act(w) == body for w in enumerate_weyl(rs))

    def test_classical_limit_finite_at_all_ones(self):
        for rs in SMALL:
            for ell in range(1, rs.rank + 1):
                hc_value(rs, ell, 1, [1] * rs.rank)  # must not raise

    def test_classical_limit_value_order_one(self):
        # at order one the classical limit at the all-ones point vanishes:
        # the numerator has a double zero at q = 1 against a single one
        for rs in SMALL:
            assert hc_value(rs, 1, 1, [1] * rs.rank) == 0

    def test_classical_limit_from_s_minus_one(self):
        # s = -1 is q = 1 as well; the specialized combination at the
        # all-ones point has even v exponents only, so the (v + 1) factors
        # cancel like the (v - 1) factors and both sides give one value
        for rs in SMALL:
            for ell in range(1, rs.rank + 1):
                ones = [1] * rs.rank
                assert hc_value(rs, ell, -1, ones) == hc_value(rs, ell, 1, ones)


def literal_hc_at_weight(rs, ell, lam):
    """The flat-term loop that ``hc_at_weight`` replaced, kept as its oracle:
    every (weight, q) term of the combination, its shift looked up per
    weight."""
    rs.check_highest_weight(lam)
    lam_rho = (lam + rs.rho).dbl
    shifts: dict[tuple, int] = {}
    num: dict[int, Fraction | int] = {}
    for key, c in hc_combination(rs, ell).terms.items():
        w = key[:-1]
        shift = shifts.get(w)
        if shift is None:
            # 4 (quarter units) * 2 (lam+rho, w/2) on doubled coordinates
            shift = shifts[w] = 2 * sum(map(mul, lam_rho, w))
        e = key[-1] + shift
        num[e] = num.get(e, 0) + c
    return QLaurent(num)


def _small_dominant_weights(rs):
    """Dominant weights with |coordinates| at most 5/2: the integral ones,
    the spin ones (types B and D), and in type D both signs of the last
    coordinate."""
    out = []
    for parts in combinations_with_replacement(range(3), rs.rank):
        dbl = tuple(2 * c for c in sorted(parts, reverse=True))
        for d in (dbl, tuple(c + 1 for c in dbl)):
            for last in {d[-1], -d[-1]}:
                lam = Weight(d[:-1] + (last,))
                if rs.is_dominant(lam) and rs.is_on_weight_lattice(lam):
                    out.append(lam)
    return out


class TestHcAtWeight:
    """The coefficient-class kernel and its memo against the flat loop."""

    @pytest.mark.parametrize("rs", SMALL, ids=_name)
    def test_equals_literal_loop(self, rs):
        weights = _small_dominant_weights(rs)
        kinds = {(lam.is_integral(), lam.dbl[-1] < 0) for lam in weights}
        expected = {
            LieType.B: {(True, False), (False, False)},
            LieType.C: {(True, False)},
            LieType.D: {(True, False), (False, False), (True, True), (False, True)},
        }
        assert kinds == expected[rs.lie_type]
        for ell in range(1, rs.rank + 1):
            for lam in weights:
                assert hc_at_weight(rs, ell, lam) == literal_hc_at_weight(rs, ell, lam)

    def test_classes_partition_the_combination(self):
        # each weight of the combination lies in exactly one class, and the
        # class carries that weight's q-coefficient
        for rs in SMALL:
            for ell in range(1, rs.rank + 1):
                coeffs = hc_combination(rs, ell)._per_weight()
                seen = []
                for qterms, columns in _hc_classes(rs, ell):
                    assert len(columns) == rs.rank
                    for w in zip(*columns):
                        assert coeffs[w] == QLaurent(dict(qterms))
                        seen.append(w)
                assert sorted(seen) == sorted(coeffs)

    def test_refusals_are_not_cached(self):
        refused = (
            (B3, Weight((0, 2, 0)), NotDominant),
            (C3, Weight((1, 1, 1)), NotOnWeightLattice),
            (B3, Weight((2, 1, 1)), NotOnWeightLattice),
        )
        for rs, lam, exc in refused:
            for _ in range(2):
                with pytest.raises(exc):
                    hc_at_weight(rs, 1, lam)

    def test_cancellation_leaves_the_cached_numerator_intact(self):
        # s = 1 takes the path of _quotient_at that divides the numerator by
        # (v - 1) until the pole is gone
        for rs, lam in ((B3, Weight((3, 1, 1))), (D4, Weight((2, 2, 2, -2)))):
            for ell in range(1, rs.rank + 1):
                num = hc_at_weight(rs, ell, lam)
                eigenvalue_via_hc(rs, lam, ell, 1)
                assert hc_at_weight(rs, ell, lam) is num
                assert num == literal_hc_at_weight(rs, ell, lam)

    def test_eigen_cases_specialize_once_per_weight(self, monkeypatch):
        calls = []

        def recording(rs, lam, ell, s):
            calls.append((ell, lam, s))
            return eigenvalue_via_hc(rs, lam, ell, s)

        monkeypatch.setattr(verify, "eigenvalue_via_hc", recording)
        hc_at_weight.cache_clear()
        verify.eigen_cases([B3])
        info = hc_at_weight.cache_info()
        distinct = {(ell, lam) for ell, lam, _ in calls}
        assert sorted({s for _, _, s in calls}) == [2, 3]
        assert info.misses == len(distinct)
        assert info.hits == len(calls) - len(distinct)
        assert info.hits >= sum(s == 3 for _, _, s in calls)


class TestEigenvalues:
    def test_order_zero_is_quantum_dimension(self):
        for rs in SMALL:
            lam = Weight.zero(rs.rank)
            expected = closed_form_g0(rs).evaluate(2, [1] * rs.rank)
            assert eigenvalue_direct(rs, lam, 0, 2) == expected
            assert eigenvalue_via_hc(rs, lam, 0, 2) == expected

    @pytest.mark.parametrize(
        "rs", SMALL, ids=lambda r: f"{r.lie_type.value}{r.rank}"
    )
    def test_direct_equals_torus_route(self, rs):
        rng = random.Random(f"eig-{rs.lie_type.value}{rs.rank}")
        for _ in range(6):
            lam = sample_dominant_weight(rs, rng)
            for ell in range(1, rs.rank + 1):
                for s in (2, 3):
                    assert eigenvalue_direct(rs, lam, ell, s) == eigenvalue_via_hc(
                        rs, lam, ell, s
                    )

    def test_spin_weight(self):
        lam = Weight((5, 3))  # (5/2, 3/2)
        for ell in (1, 2):
            assert eigenvalue_direct(B2, lam, ell, 2) == eigenvalue_via_hc(
                B2, lam, ell, 2
            )

    def test_half_spin_weight_type_d(self):
        for lam in (Weight((7, 5, 3, 3)), Weight((7, 5, 3, -3))):
            assert D4.is_on_weight_lattice(lam) and D4.is_dominant(lam)
            for ell in (1, 2):
                assert eigenvalue_direct(D4, lam, ell, 2) == eigenvalue_via_hc(
                    D4, lam, ell, 2
                )

    def test_smallest_coordinate_half_spin_or_zero_is_regular(self):
        # |lam_n| = 1/2 in D and lam_n = 0 in B and D are no poles of the
        # eigenvalue: L_n and L_{-n} stay apart, and in D, where lam_n = 0
        # makes L_n = L_{-n} = 1, nothing divides by L_n - L_{-n}
        regular = (
            (B2, Weight((4, 0))),
            (D4, Weight((5, 3, 1, 1))),
            (D4, Weight((4, 2, 2, 0))),
        )
        for rs, lam in regular:
            for ell in range(1, rs.rank + 1):
                for s in (2, Fraction(1, 2), Fraction(3, 2)):
                    assert eigenvalue_direct(rs, lam, ell, s) == eigenvalue_via_hc(
                        rs, lam, ell, s
                    )

    # the trivial weight, integral and spin weights (doubled coordinates);
    # type D takes both signs of the last coordinate
    CLASSICAL = (
        (B2, ((0, 0), (2, 0), (1, 1), (3, 1), (5, 3))),
        (B3, ((0, 0, 0), (2, 2, 0), (4, 2, 2), (3, 3, 1))),
        (C3, ((0, 0, 0), (2, 0, 0), (4, 2, 0), (6, 2, 2))),
        (D4, ((0, 0, 0, 0), (2, 2, 2, -2), (4, 2, 0, 0), (1, 1, 1, 1), (3, 1, 1, -1))),
    )

    def test_classical_limit_at_s_one(self):
        # at q = 1 the order-two invariant acts by 2 (lam, lam + 2 rho), the
        # Casimir eigenvalue, and the order-one invariant by 0; the torus
        # image has a removable pole there, cleared by exact cancellation
        for rs, weights in self.CLASSICAL:
            for dbl in weights:
                lam = Weight(dbl)
                expected = 2 * pairing(lam, lam + rs.rho.scale(2))
                assert eigenvalue_via_hc(rs, lam, 2, 1) == expected
                assert eigenvalue_via_hc(rs, lam, 1, 1) == 0

    def test_classical_limit_at_s_minus_one(self):
        # integral weights give even v exponents, so s = -1 is the same
        # classical limit as s = 1
        for rs, weights in self.CLASSICAL:
            for dbl in weights:
                lam = Weight(dbl)
                if not lam.is_integral():
                    continue
                for ell in (1, 2, 3):
                    assert eigenvalue_via_hc(rs, lam, ell, -1) == eigenvalue_via_hc(
                        rs, lam, ell, 1
                    )
                assert eigenvalue_via_hc(rs, lam, 2, -1) == 2 * pairing(
                    lam, lam + rs.rho.scale(2)
                )

    # (1/2, 1/2, 1/2) is dominant for C3 but no weight of C3, and (1, 1/2, 1/2)
    # mixes the grids of B3; neither is the highest weight of a module
    OFF_LATTICE = ((C3, Weight((1, 1, 1))), (B3, Weight((2, 1, 1))))

    def test_direct_rejects_weight_off_the_lattice(self):
        for rs, lam in self.OFF_LATTICE:
            with pytest.raises(NotOnWeightLattice):
                eigenvalue_direct(rs, lam, 1, 2)

    def test_via_hc_rejects_weight_off_the_lattice(self):
        for rs, lam in self.OFF_LATTICE:
            with pytest.raises(NotOnWeightLattice):
                eigenvalue_via_hc(rs, lam, 1, 2)

    def test_hc_at_weight_rejects_weight_off_the_lattice(self):
        for rs, lam in self.OFF_LATTICE:
            with pytest.raises(NotOnWeightLattice):
                hc_at_weight(rs, 1, lam)

    def test_order_one_rearrangement(self):
        # (q - q^{-1}) * image value at order one, plus the quantum
        # dimension, recovers the plain k = 1 block value
        rs = C3
        lam = Weight((4, 2, 2))
        s = Fraction(2)
        q = s**4
        lam_rho = lam + rs.rho
        half_point = [s ** (2 * d) for d in lam_rho.dbl]
        lhs = (1 / q - q) * eigenvalue_via_hc(rs, lam, 1, s)
        g0 = ch_g_via_antisym(rs, 0).body.evaluate(s, half_point)
        g1 = ch_g_via_antisym(rs, 1).body.evaluate(s, half_point)
        assert lhs == g0 - q ** (1 - rs.c_n) * g1


class TestConstituents:
    def test_b_k2_normalized(self):
        assert constituents(B2, 2) == [
            (-3, (1, 1), -1),
            (-2, (), 1),
            (-1, (2,), 1),
        ]

    def test_k1_single_hook(self):
        for rs in SMALL:
            cons = constituents(rs, 1)
            assert len(cons) == 1
            assert cons[0][1] == (1,)
            assert cons[0][2] == 1

    def test_stability_across_ranks(self):
        b4 = build_root_system(LieType.B, 4)
        for k in (1, 2):
            assert constituents(B2, k) == constituents(B3, k) == constituents(b4, k)
        c4 = build_root_system(LieType.C, 4)
        for k in (1, 2, 3):
            assert constituents(C3, k) == constituents(c4, k)
        d5 = build_root_system(LieType.D, 5)
        for k in (1, 2, 3):
            assert constituents(D4, k) == constituents(d5, k)

    def test_type_c_constant_is_negative(self):
        cons = constituents(C3, 2)
        assert (-2, (), -1) in cons

    def test_type_d_bar_constituent_at_k_equals_n(self):
        cons = constituents(D4, 4)
        assert (-2 - 2 * 3, (1, 1, 1, -1), -1) in cons

    def test_range_guard(self):
        with pytest.raises(ValueError):
            constituents(B2, 3)

    @pytest.mark.parametrize(
        "rs", SMALL, ids=lambda r: f"{r.lie_type.value}{r.rank}"
    )
    def test_expand_back_to_antisymmetrizer_block(self, rs):
        # hook entry: sign q^{p+2n} chi(partition); constant: sign q^p
        n = rs.rank
        for k in range(1, n + 1):
            total = GAElem.zero(n)
            for p, parts, sign in constituents(rs, k):
                if not parts:
                    total = total + GAElem.constant(n, Q(p, sign))
                    continue
                lam = Weight.from_coords(parts + (0,) * (n - len(parts)))
                total = total + weyl_character(rs, lam).scale(Q(p + 2 * n, sign))
            assert total == ch_g_via_antisym(rs, k).body, k

    @pytest.mark.parametrize("rs", ALL, ids=_name)
    def test_derived_from_the_hook_table(self, rs):
        # the hook route read as constituents: every entry of hook_terms,
        # normalized as constituents() normalizes the chamber form
        n = rs.rank
        for k in range(1, n + 1):
            derived = []
            for sign, qexp, weights in hook_terms(rs, k):
                if not weights:
                    derived.append((qexp // 4, (), sign))
                for w in weights:
                    parts = tuple(int(c) for c in w.coords if c)
                    derived.append((qexp // 4 - 2 * n, parts, sign))
            assert sorted(derived) == constituents(rs, k), k


class TestHookTerms:
    def test_type_c_drops_the_middle_column(self):
        # C3, k = 8 > top = 6: columns 0..6 without r = 3, and no constant
        terms = hook_terms(C3, 8)
        assert [qexp for _, qexp, _ in terms] == [
            4 * (6 - 2 * r) for r in (0, 1, 2, 4, 5, 6)
        ]
        assert [sign for sign, _, _ in terms] == [1, -1, 1, -1, 1, -1]

    def test_type_d_pairs_the_barred_hook(self):
        weights = [w for _, _, w in hook_terms(D4, 4)]
        assert weights[3] == (Weight((2, 2, 2, 2)), Weight((2, 2, 2, -2)))
        assert weights[-1] == ()

    def test_needs_positive_k(self):
        with pytest.raises(ValueError):
            hook_terms(B2, 0)
