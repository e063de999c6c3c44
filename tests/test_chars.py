"""Weyl groups, the antisymmetrizer, characters and exact alternant division."""

import random
from fractions import Fraction

import pytest

from qcasimir.chars import (
    GAElem,
    GridMismatch,
    RankTooLargeForEnumeration,
    SignedPerm,
    alternant,
    antisymmetrize,
    coset_representatives,
    divide_by_denominator,
    enumerate_weyl,
    ext_power_char,
    ga_eval,
    natural_character,
    simple_reflections,
    weyl_character,
    weyl_denominator,
)
from qcasimir.casimir import ch_g_via_hooks
from qcasimir.exact import EPoly, NotDivisible, QLaurent, ZeroBase
from qcasimir.roots import (
    LieType,
    NotDominant,
    NotOnWeightLattice,
    Weight,
    build_root_system,
    eps,
    pairing,
    weyl_dimension,
)

B2 = build_root_system(LieType.B, 2)
B3 = build_root_system(LieType.B, 3)
C3 = build_root_system(LieType.C, 3)
D4 = build_root_system(LieType.D, 4)

Q = QLaurent.q_power
ONE = QLaurent.one()


def rand_ga(rank, rng, nterms=4, spread=3):
    return GAElem(
        rank,
        {
            tuple(rng.randint(-spread, spread) for _ in range(rank)): QLaurent(
                {rng.randint(-4, 4): rng.randint(1, 3)}
            )
            for _ in range(nterms)
        },
    )


class TestSignedPerms:
    def test_enumeration_counts(self):
        assert len(enumerate_weyl(B2)) == 8
        assert len(enumerate_weyl(C3)) == 48
        assert len(enumerate_weyl(D4)) == 192

    def test_enumeration_guard(self):
        big = build_root_system(LieType.B, 8)
        with pytest.raises(RankTooLargeForEnumeration):
            enumerate_weyl(big)

    def test_type_d_parity(self):
        assert all(w.sign_flips() % 2 == 0 for w in enumerate_weyl(D4))

    def test_sgn_identity_and_reflections(self):
        assert SignedPerm.identity(3).sgn() == 1
        for rs in (B2, C3, D4):
            for s in simple_reflections(rs):
                assert s.sgn() == -1

    def test_sgn_two_sign_flips(self):
        w = SignedPerm((1, 2), (-1, -1))
        assert w.sgn() == 1

    def test_sgn_is_multiplicative(self):
        rng = random.Random(5)
        group = enumerate_weyl(B2)
        for _ in range(20):
            a, b = rng.choice(group), rng.choice(group)
            assert a.compose(b).sgn() == a.sgn() * b.sgn()

    def test_group_closure(self):
        group = set(enumerate_weyl(D4))
        rng = random.Random(6)
        for _ in range(30):
            a, b = rng.choice(list(group)), rng.choice(list(group))
            assert a.compose(b) in group

    def test_action_on_weights(self):
        s12 = simple_reflections(B2)[0]  # eps_1 - eps_2
        assert s12.apply(eps(2, 1)) == eps(2, 2)
        flip = simple_reflections(B2)[1]  # eps_2
        assert flip.apply(eps(2, 2)) == eps(2, -2)

    def test_action_preserves_pairing(self):
        rng = random.Random(7)
        for rs in (B3, D4):
            group = enumerate_weyl(rs)
            for _ in range(15):
                w = rng.choice(group)
                a = Weight(tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
                b = Weight(tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
                assert pairing(w.apply(a), w.apply(b)) == pairing(a, b)


class TestAction:
    def test_identity_action(self):
        rng = random.Random(1)
        x = rand_ga(2, rng)
        assert x.act(SignedPerm.identity(2)) == x

    def test_simple_reflection_on_exponential(self):
        s12 = simple_reflections(B2)[0]
        assert GAElem.exponential(eps(2, 1)).act(s12) == GAElem.exponential(eps(2, 2))

    def test_action_is_ring_homomorphism(self):
        rng = random.Random(2)
        group = enumerate_weyl(B2)
        for _ in range(10):
            w = rng.choice(group)
            x, y = rand_ga(2, rng), rand_ga(2, rng)
            assert (x * y).act(w) == x.act(w) * y.act(w)


class TestAntisymmetrizer:
    def test_rho_alternant_b2(self):
        a = alternant(B2, B2.rho)
        assert len(a.terms) == 8
        assert all(c == ONE or c == -ONE for c in a.terms.values())

    def test_alternating_property(self):
        rng = random.Random(3)
        for rs in (B2, C3):
            group = enumerate_weyl(rs)
            x = rand_ga(rs.rank, rng)
            ax = antisymmetrize(x, rs)
            for w in group:
                assert ax.act(w) == ax.scale(QLaurent({0: w.sgn()}))

    def test_vanishing_on_walls(self):
        # weights orthogonal to some root antisymmetrize to zero
        rng = random.Random(4)
        for rs in (B2, C3, D4):
            for _ in range(50):
                alpha = rng.choice(rs.positive_roots)
                dbl = [2 * rng.randint(-4, 4) for _ in range(rs.rank)]
                touched = [i for i, a in enumerate(alpha.dbl) if a]
                if len(touched) == 1:
                    dbl[touched[0]] = 0
                else:
                    i, j = touched
                    dbl[j] = dbl[i] if alpha.dbl[i] != alpha.dbl[j] else -dbl[i]
                lam = Weight(tuple(dbl))
                assert pairing(lam, alpha) == 0
                assert alternant(rs, lam).is_zero()

    def test_shifted_product_identity(self):
        # antisymmetrizing e^rho * chi(lam) gives the (lam + rho)-alternant
        for rs, lam in ((B2, Weight((2, 0))), (C3, Weight((2, 2, 0)))):
            chi = weyl_character(rs, lam)
            lhs = antisymmetrize(GAElem.exponential(rs.rho) * chi, rs)
            assert lhs == alternant(rs, lam + rs.rho)


class TestDenominator:
    @pytest.mark.parametrize("rs", [B2, B3, C3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_product_equals_alternant(self, rs):
        assert weyl_denominator(rs, "product") == weyl_denominator(rs, "alternant")

    def test_leading_term_is_rho(self):
        for rs in (B2, C3, D4):
            lead, coeff = weyl_denominator(rs).leading()
            assert lead == rs.rho.dbl
            assert coeff == ONE

    def test_antisymmetry_under_reflections(self):
        for rs in (B2, D4):
            delta = weyl_denominator(rs)
            for s in simple_reflections(rs):
                assert delta.act(s) == -delta

    def test_vanishes_on_walls(self):
        delta = weyl_denominator(B2)
        assert ga_eval(delta, 1, [Fraction(3, 2), Fraction(3, 2)]) == 0


class TestDivision:
    def test_round_trip_through_denominator(self):
        rng = random.Random(8)
        for rs in (B2, C3):
            delta = weyl_denominator(rs)
            for _ in range(5):
                x = rand_ga(rs.rank, rng)
                assert (x * delta).div_exact(delta) == x

    def test_sequential_equals_one_shot(self):
        for rs in (B2, C3, D4):
            num = alternant(rs, Weight(tuple([4] + [2] * (rs.rank - 1))) + rs.rho)
            assert divide_by_denominator(num, rs) == num.div_exact(
                weyl_denominator(rs)
            )

    def test_natural_character_against_orbit_sum(self):
        num = alternant(B2, eps(2, 1) + B2.rho)
        assert num.div_exact(weyl_denominator(B2)) == natural_character(B2)

    def test_not_divisible_detected(self):
        delta = weyl_denominator(B2)
        bad = delta + GAElem.one(2)
        with pytest.raises(NotDivisible):
            bad.div_exact(delta)

    def test_integral_quotient_from_half_grid_inputs(self):
        # numerator and denominator live on the half grid, quotient on the
        # integral grid, for every small dominant integral weight
        for rs in (B2, B3):
            for lam in _integral_dominant(rs, 2):
                chi = weyl_character(rs, lam)
                assert chi.has_integral_support()


def _rand_coeff(rng, kind):
    if kind == "int":
        return QLaurent({0: rng.choice([-3, -2, -1, 1, 2, 3])})
    if kind == "fraction":
        return QLaurent({0: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(2, 5))})
    return QLaurent(
        {rng.randint(-6, 6): Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(3)}
    )


def _rand_grid_elem(rank, rng, shift, kind, nterms=6, spread=3):
    # shift 0: integral grid (even doubled coordinates), 1: spin grid
    return GAElem(
        rank,
        {
            tuple(2 * rng.randint(-spread, spread) + shift for _ in range(rank)): _rand_coeff(rng, kind)
            for _ in range(nterms)
        },
    )


def _binomial(rank, rng, shift):
    """e^u - e^v with u > v, on the given grid."""
    while True:
        u, v = (tuple(2 * rng.randint(-2, 2) + shift for _ in range(rank)) for _ in range(2))
        if u != v:
            u, v = max(u, v), min(u, v)
            return GAElem(rank, {u: ONE, v: -ONE})


class TestChainKernel:
    """The chain-sum division by e^u - e^v (u > v) that every stage of
    divide_by_denominator takes."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "q"])
    @pytest.mark.parametrize("shift", [0, 1], ids=["integral", "spin"])
    def test_round_trip(self, kind, shift):
        rng = random.Random(f"{kind}-{shift}")
        for rank in (1, 2, 3):
            for _ in range(15):
                x = _rand_grid_elem(rank, rng, shift, kind)
                f = _binomial(rank, rng, shift)
                assert (x * f).div_exact(f) == x

    @pytest.mark.parametrize("kind", ["int", "fraction", "q"])
    def test_perturbed_numerator_not_divisible(self, kind):
        rng = random.Random(5)
        for rank in (1, 2, 3):
            for shift in (0, 1):
                for _ in range(10):
                    x = _rand_grid_elem(rank, rng, shift, kind)
                    f = _binomial(rank, rng, shift)
                    w = tuple(rng.randint(-8, 8) for _ in range(rank))
                    with pytest.raises(NotDivisible):
                        (x * f + GAElem(rank, {w: ONE})).div_exact(f)

    def test_chain_with_gaps_and_integral_fraction_sums(self):
        # 1/2 e^(4,0) + 1/2 e^(0,0) - e^(-4,0) over e^(4,0) - e^(0,0): the
        # running sum is 1/2, then 1 (held as int), then 0
        num = GAElem(2, {(4, 0): QLaurent({0: Fraction(1, 2)}),
                         (0, 0): QLaurent({0: Fraction(1, 2)}),
                         (-4, 0): -ONE})
        f = GAElem(2, {(4, 0): ONE, (0, 0): -ONE})
        quot = num.div_exact(f)
        assert quot == GAElem(2, {(0, 0): QLaurent({0: Fraction(1, 2)}), (-4, 0): ONE})
        assert type(quot.terms[(-4, 0)].terms[0]) is int
        # a chain through a gap: (e^(8) - e^(-4)) / (e^(4) - e^(0))
        one_dim = GAElem(1, {(8,): ONE, (-4,): -ONE})
        assert one_dim.div_exact(GAElem(1, {(4,): ONE, (0,): -ONE})) == GAElem(
            1, {(4,): ONE, (0,): ONE, (-4,): ONE})

    def test_other_binomials_take_the_general_path(self):
        rng = random.Random(6)
        for _ in range(10):
            x = _rand_grid_elem(2, rng, 0, "q")
            u, v = (2, 0), (0, -2)
            for f in (GAElem(2, {u: ONE, v: ONE}),
                      GAElem(2, {u: QLaurent({0: 2}), v: -ONE}),
                      GAElem(2, {u: -ONE, v: ONE})):
                assert (x * f).div_exact(f) == x
            with pytest.raises(NotDivisible):
                (x * f + GAElem.one(2)).div_exact(f)

    @pytest.mark.parametrize("rs, ks", [(B2, (1, 2, 3)), (C3, (1, 2, 3)), (D4, (2, 3))],
                             ids=["B2", "C3", "D4"])
    def test_denominator_times_q_dependent_body(self, rs, ks):
        delta = weyl_denominator(rs)
        for k in ks:
            body = ch_g_via_hooks(rs, k).body
            assert not body.is_constant_in_q()
            assert divide_by_denominator(delta * body, rs) == body


# the GAElem cases keep their bare ids
_LANE_CASES = [
    pytest.param(cls, a, id=str(a) if cls is GAElem else f"EPoly{a:+d}")
    for cls in (GAElem, EPoly)
    for a in (40000, -40000)
]


class TestLaneWidth:
    """Packed keys size their lanes from the operands, in both readings of
    the one Laurent ring."""

    @pytest.mark.parametrize("cls, a", _LANE_CASES)
    def test_product_beyond_16_bit_coordinates(self, cls, a):
        x = cls(2, {(a, 0): ONE}) * cls(2, {(0, 2): ONE})
        assert type(x) is cls
        assert x.terms == {(a, 2): ONE}

    @pytest.mark.parametrize("cls, a", _LANE_CASES)
    def test_general_division_beyond_16_bit_coordinates(self, cls, a):
        x = cls(2, {(a, 2): QLaurent({1: 2}), (0, -a): ONE})
        f = cls(2, {(a, 0): ONE, (0, 2): ONE, (-a, -a): QLaurent({0: 3})})
        assert (x * f).div_exact(f) == x


def _integral_dominant(rs, bound):
    from itertools import product as iproduct

    out = []
    for coords in iproduct(range(bound, -1, -1), repeat=rs.rank):
        lam = Weight(tuple(2 * c for c in coords))
        if rs.is_dominant(lam):
            out.append(lam)
    return out


class TestWeylCharacter:
    def test_trivial(self):
        assert weyl_character(B2, Weight.zero(2)) == GAElem.one(2)

    def test_natural_c3(self):
        chi = weyl_character(C3, eps(3, 1))
        assert len(chi.terms) == 6
        assert ga_eval(chi, 1, [1, 1, 1]) == 6

    def test_spin_b2(self):
        chi = weyl_character(B2, B2.fundamental_weight(2))
        assert set(chi.terms) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert ga_eval(chi, 1, [1, 1]) == 4

    def test_rejects_non_dominant(self):
        with pytest.raises(NotDominant):
            weyl_character(B2, Weight((0, 2)))

    def test_rejects_weight_off_the_lattice(self):
        # half-integral weights are not weights of type C, nor are mixed ones
        for rs, dbl in ((C3, (1, 1, 1)), (B3, (2, 1, 1)), (D4, (3, 1, 1, 0))):
            with pytest.raises(NotOnWeightLattice):
                weyl_character(rs, Weight(dbl))

    def test_w_invariance(self):
        for rs in (B2, C3):
            group = enumerate_weyl(rs)
            for lam in _integral_dominant(rs, 2):
                chi = weyl_character(rs, lam)
                assert all(chi.act(w) == chi for w in group)

    def test_dimension_formula_oracle(self):
        for rs in (B2, C3, D4):
            for lam in _integral_dominant(rs, 2):
                chi = weyl_character(rs, lam)
                assert ga_eval(chi, 1, [1] * rs.rank) == weyl_dimension(rs, lam)

    def test_coefficients_constant_in_q(self):
        for lam in _integral_dominant(C3, 2):
            assert weyl_character(C3, lam).is_constant_in_q()


class TestExtPowers:
    def test_degree_zero(self):
        for rs in (B2, C3, D4):
            assert ext_power_char(rs, 0) == GAElem.one(rs.rank)

    def test_natural_module(self):
        assert ext_power_char(B2, 1) == weyl_character(B2, eps(2, 1))
        assert ext_power_char(B2, 1) == natural_character(B2)

    def test_c3_second_power_decomposes(self):
        expected = weyl_character(C3, C3.fundamental_weight(2)) + GAElem.one(3)
        assert ext_power_char(C3, 2) == expected

    def test_duality(self):
        for rs in (B2, C3, D4):
            d = rs.dim_natural
            for r in range(d + 1):
                assert ext_power_char(rs, r) == ext_power_char(rs, d - r)

    def test_out_of_range_is_zero(self):
        assert ext_power_char(B2, -1).is_zero()
        assert ext_power_char(B2, B2.dim_natural + 1).is_zero()

    def test_fundamental_identifications(self):
        # B: r-th power is irreducible for r < n; D: for r <= n-2, and the
        # n-th power splits into the two half-spin-doubled pieces
        for r in range(1, 3):
            assert ext_power_char(B3, r) == weyl_character(
                B3, Weight((2,) * r + (0,) * (3 - r))
            )
        for r in range(1, 3):
            assert ext_power_char(D4, r) == weyl_character(
                D4, Weight((2,) * r + (0,) * (4 - r))
            )
        split = weyl_character(D4, Weight((2, 2, 2, 2))) + weyl_character(
            D4, Weight((2, 2, 2, -2))
        )
        assert ext_power_char(D4, 4) == split


class TestEvaluation:
    def test_constant(self):
        assert ga_eval(GAElem.one(2), Fraction(7, 2), [2, 3]) == 1

    def test_natural_dimension(self):
        assert ga_eval(weyl_character(B2, eps(2, 1)), 1, [1, 1]) == 5

    def test_half_grid_points(self):
        spin = weyl_character(B2, B2.fundamental_weight(2))
        # e^{eps_i/2} -> 2, 3 means e^{(eps_1+eps_2)/2} -> 6
        val = ga_eval(spin, 1, [2, 3])
        assert val == 6 + Fraction(2, 3) + Fraction(3, 2) + Fraction(1, 6)

    def test_errors(self):
        with pytest.raises(GridMismatch):
            ga_eval(GAElem.one(2), 1, [1])
        with pytest.raises(ZeroBase):
            ga_eval(GAElem.one(2), 1, [0, 1])
        with pytest.raises(ZeroBase):
            ga_eval(GAElem.one(2), 0, [1, 1])


class TestCosetDecomposition:
    @pytest.mark.parametrize("rs", [B2, B3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_representatives_tile_the_group(self, rs):
        reps = coset_representatives(rs)
        assert len(reps) == 2 * rs.rank
        subgroup = [
            w for w in enumerate_weyl(rs) if w.perm[0] == 1 and w.signs[0] == 1
        ]
        products = set()
        for sigma in reps:
            for u in subgroup:
                products.add(sigma.compose(u))
        assert len(products) == len(reps) * len(subgroup)
        assert products == set(enumerate_weyl(rs))


def test_cleared_denominator_identity_single_variable():
    # (1 - q^{-1}L)(1 - q^{-1}L^{-1}) = q^{-2}(1 - qL)(1 - qL^{-1}) with L a
    # fresh rank-one exponential, after clearing the L-denominators
    one = GAElem.one(1)
    L = GAElem.exponential(eps(1, 1))
    Linv = GAElem.exponential(eps(1, -1))
    lhs = (one - L.scale(Q(-1))) * (one - Linv.scale(Q(-1)))
    rhs = ((one - L.scale(Q(1))) * (one - Linv.scale(Q(1)))).scale(Q(-2))
    assert lhs == rhs
    shift = GAElem.exponential(eps(1, 1))
    assert lhs * shift == rhs * shift


def test_gaelem_json_round_trip():
    rng = random.Random(11)
    x = rand_ga(3, rng)
    assert GAElem.from_json(3, x.to_json()) == x


def test_json_ordering_is_deterministic():
    x = GAElem(2, {(1, 0): ONE, (0, 1): ONE, (-1, 0): ONE})
    weights = [tuple(t["weight"]) for t in x.to_json()]
    assert weights == sorted(weights)
