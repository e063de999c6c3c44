"""Weyl groups, the antisymmetrizer, characters and exact alternant division."""

import random
from fractions import Fraction
from math import prod

import pytest

from qcasimir.chars import (
    GAElem,
    GridMismatch,
    RankTooLargeForEnumeration,
    SignedPerm,
    _div_root_factor,
    _orbit,
    _orbit_getters,
    alternant,
    antisymmetrize,
    character_sum,
    divide_by_denominator,
    dominant_multiplicities,
    enumerate_weyl,
    ext_power_char,
    is_w_invariant,
    simple_reflections,
    straighten,
    weyl_character,
    weyl_denominator,
)
from qcasimir.casimir import ch_g_via_hooks
from qcasimir.exact import (
    EPoly,
    NotDivisible,
    QLaurent,
    RankMismatch,
    ZeroBase,
    det_cofactor,
)
from qcasimir.roots import (
    LieType,
    NotDominant,
    NotOnWeightLattice,
    RootSystem,
    Weight,
    build_root_system,
    eps,
    pairing,
    weyl_dimension,
)
from qcasimir import verify
from qcasimir.verify import in_scope_systems

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


def _compose(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """a after b, read off the images a(b(eps_i)) = +-eps_j of the basis."""
    n = len(a.perm)
    images = [a.apply(b.apply(eps(n, i))).dbl for i in range(1, n + 1)]
    perm = tuple(next(j for j, d in enumerate(im, 1) if d) for im in images)
    signs = tuple(1 if im[j - 1] > 0 else -1 for im, j in zip(images, perm))
    return SignedPerm(perm, signs)


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
        # type D flips an even number of signs
        assert all(prod(w.signs) == 1 for w in enumerate_weyl(D4))

    def test_sgn_identity_and_reflections(self):
        assert SignedPerm((1, 2, 3), (1, 1, 1)).sgn() == 1
        for rs in (B2, C3, D4):
            for s in simple_reflections(rs):
                assert s.sgn() == -1

    def test_value_semantics(self):
        w = SignedPerm((2, 1), (1, -1))
        assert w == SignedPerm((2, 1), (1, -1))
        assert hash(w) == hash(SignedPerm((2, 1), (1, -1)))
        assert w != SignedPerm((2, 1), (1, 1)) and w != ((2, 1), (1, -1))
        assert len(set(enumerate_weyl(B2))) == 8
        assert repr(w) == "SignedPerm(perm=(2, 1), signs=(1, -1))"
        with pytest.raises(AttributeError):
            w.perm = (1, 2)
        with pytest.raises(AttributeError):
            del w.signs
        assert w.perm == (2, 1) and w.signs == (1, -1)

    @pytest.mark.parametrize(
        "perm, signs", [((1, 1), (1, 1)), ((1, 3), (1, 1)), ((1, 2), (1,)), ((1, 2), (1, 0))]
    )
    def test_rejects_non_signed_permutations(self, perm, signs):
        with pytest.raises(ValueError):
            SignedPerm(perm, signs)

    def test_sgn_two_sign_flips(self):
        w = SignedPerm((1, 2), (-1, -1))
        assert w.sgn() == 1

    @pytest.mark.parametrize("rs", [B3, C3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_sgn_is_the_determinant(self, rs):
        # the matrix of w: column i is signs[i] * e_perm(i)
        n = rs.rank
        for w in enumerate_weyl(rs):
            rows = [[0] * n for _ in range(n)]
            for i, (p, s) in enumerate(zip(w.perm, w.signs)):
                rows[p - 1][i] = s
            assert w.sgn() == det_cofactor(rows), w

    def test_sgn_is_multiplicative(self):
        rng = random.Random(5)
        group = enumerate_weyl(B2)
        for _ in range(20):
            a, b = rng.choice(group), rng.choice(group)
            assert _compose(a, b).sgn() == a.sgn() * b.sgn()

    def test_group_closure(self):
        group = set(enumerate_weyl(D4))
        rng = random.Random(6)
        for _ in range(30):
            a, b = rng.choice(list(group)), rng.choice(list(group))
            assert _compose(a, b) in group

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
        assert x.act(SignedPerm((1, 2), (1, 1))) == x

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
        assert all(c == ONE or c == -ONE for c in a._per_weight().values())

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


def literal_antisymmetrize(x, rs):
    """sum over the enumerated group of sgn(w) * w(x), term by term."""
    total = GAElem.zero(x.rank)
    for w in enumerate_weyl(rs):
        total = total + x.act(w).scale(QLaurent({0: w.sgn()}))
    return total


def _rand_key(rs, rng, kind):
    n = rs.rank
    if kind == "integral":
        return tuple(2 * rng.randint(-4, 4) for _ in range(n))
    if kind == "spin":
        return tuple(2 * rng.randint(-4, 3) + 1 for _ in range(n))
    if kind == "mixed":
        return tuple(rng.randint(-8, 8) for _ in range(n))
    # wall: a tie of two magnitudes, or a zero coordinate (a wall in types
    # B and C, not in type D)
    key = [rng.randint(-8, 8) for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    key[j] = rng.choice((key[i], -key[i])) if rng.random() < 0.7 else 0
    return tuple(key)


_KINDS = ("integral", "spin", "mixed", "wall")


class TestStraighten:
    """The chamber kernel against the literal sum over the enumerated group,
    and its rules on hand-picked keys."""

    @pytest.mark.parametrize("rs", [B2, B3, C3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_antisymmetrize_equals_literal_sum(self, rs):
        rng = random.Random(f"straighten-{rs.lie_type.value}{rs.rank}")
        for _ in range(6):
            terms = {}
            for kind in _KINDS:
                for _ in range(3):
                    terms[_rand_key(rs, rng, kind)] = _rand_coeff(rng, "q")
            # a key and its reversal share an orbit, so their straightened
            # terms combine
            key = _rand_key(rs, rng, "mixed")
            terms[key] = _rand_coeff(rng, "q")
            terms[tuple(reversed(key))] = _rand_coeff(rng, "q")
            x = GAElem(rs.rank, terms)
            assert antisymmetrize(x, rs) == literal_antisymmetrize(x, rs)

    @pytest.mark.parametrize("rs", [B2, B3, C3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_alternant_equals_literal_sum(self, rs):
        rng = random.Random(f"alternant-{rs.lie_type.value}{rs.rank}")
        for kind in _KINDS:
            for _ in range(5):
                lam = Weight(_rand_key(rs, rng, kind))
                expected = literal_antisymmetrize(GAElem.exponential(lam), rs)
                assert alternant(rs, lam) == expected

    @pytest.mark.parametrize("rs", [B2, B3, C3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_keys_are_strictly_dominant(self, rs):
        rng = random.Random(9)
        x = GAElem(rs.rank, {_rand_key(rs, rng, "mixed"): ONE for _ in range(40)})
        for key in straighten(x, rs)._per_weight():
            lam = Weight(key)
            assert rs.is_dominant(lam)
            assert all(pairing(lam, alpha) != 0 for alpha in rs.positive_roots)

    def test_rules_types_b_and_c(self):
        zero = GAElem.zero(3)
        for rs in (B3, C3):
            def one(key):
                return straighten(GAElem(3, {key: ONE}), rs)

            assert one((6, 4, 2)) == GAElem(3, {(6, 4, 2): ONE})
            assert one((4, 6, 2)) == GAElem(3, {(6, 4, 2): -ONE})  # one transposition
            assert one((-4, 6, 2)) == GAElem(3, {(6, 4, 2): ONE})  # and one sign flip
            assert one((-6, -4, 2)) == GAElem(3, {(6, 4, 2): ONE})  # two sign flips
            assert one((6, 0, 2)) == zero  # a zero
            assert one((6, -2, 2)) == zero  # a tie of magnitudes

    def test_rules_type_d(self):
        zero = GAElem.zero(4)

        def one(key):
            return straighten(GAElem(4, {key: ONE}), D4)

        # the sort reverses four entries (an even permutation); one negative
        # coordinate stays on the last one
        assert one((2, 4, 6, -8)) == GAElem(4, {(8, 6, 4, -2): ONE})
        assert one((-2, 4, 6, 8)) == GAElem(4, {(8, 6, 4, -2): ONE})
        assert one((4, 2, 6, 8)) == GAElem(4, {(8, 6, 4, 2): -ONE})
        # a zero absorbs an odd sign flip and does not drop the term
        assert one((0, 2, 4, -6)) == GAElem(4, {(6, 4, 2, 0): ONE})
        assert one((0, 0, 4, 6)) == zero
        assert one((2, -2, 4, 6)) == zero


class TestDenominator:
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
        assert delta.evaluate(1, [Fraction(3, 2), Fraction(3, 2)]) == 0


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
        weights = ((2, 0), (-2, 0), (0, 2), (0, -2), (0, 0))
        assert num.div_exact(weyl_denominator(B2)) == GAElem(2, {w: ONE for w in weights})

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


def _lex_positive(rank, rng, shift):
    """A random alpha > 0 in the lexicographic order, on the given grid."""
    while True:
        alpha = tuple(2 * rng.randint(-2, 2) + shift for _ in range(rank))
        if alpha > (0,) * rank:
            return alpha


def _root_factor(alpha):
    """1 - e^(-alpha)."""
    return GAElem(len(alpha), {(0,) * len(alpha): ONE, tuple(-a for a in alpha): -ONE})


class TestChainKernel:
    """The chain-sum division by 1 - e^(-alpha) (alpha lex-positive) that
    every stage of divide_by_denominator takes, and GAElem.div_exact, EPoly's
    one leading-term elimination, on binomials e^u - e^v and other
    denominators."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "q"])
    @pytest.mark.parametrize("shift", [0, 1], ids=["integral", "spin"])
    def test_round_trip(self, kind, shift):
        rng = random.Random(f"{kind}-{shift}")
        for rank in (1, 2, 3):
            for _ in range(15):
                x = _rand_grid_elem(rank, rng, shift, kind)
                alpha = _lex_positive(rank, rng, shift)
                assert _div_root_factor(x * _root_factor(alpha), alpha) == x

    @pytest.mark.parametrize("kind", ["int", "fraction", "q"])
    def test_perturbed_numerator_not_divisible(self, kind):
        rng = random.Random(5)
        for rank in (1, 2, 3):
            for shift in (0, 1):
                for _ in range(10):
                    x = _rand_grid_elem(rank, rng, shift, kind)
                    alpha = _lex_positive(rank, rng, shift)
                    w = tuple(rng.randint(-8, 8) for _ in range(rank))
                    with pytest.raises(NotDivisible):
                        _div_root_factor(x * _root_factor(alpha) + GAElem(rank, {w: ONE}), alpha)

    def test_q_lane_alone_blocks_the_chain_kernel(self):
        # a q-monomial added at a weight already in the support of x * f,
        # with an exponent that weight does not carry: the weight support is
        # unchanged, so only the q lane makes the division inexact
        rng = random.Random(11)
        for rank in (1, 2, 3):
            for shift in (0, 1):
                for _ in range(10):
                    x = _rand_grid_elem(rank, rng, shift, "q")
                    alpha = _lex_positive(rank, rng, shift)
                    xf = x * _root_factor(alpha)
                    by_weight = xf._per_weight()
                    w = rng.choice(sorted(by_weight))
                    e = max(e for (e,) in by_weight[w].terms) + 1
                    y = xf + GAElem(rank, {w: QLaurent.monomial(e)})
                    assert set(y._per_weight()) == set(by_weight)
                    with pytest.raises(NotDivisible):
                        _div_root_factor(y, alpha)

    def test_chain_with_gaps_and_integral_fraction_sums(self):
        # 1/2 e^(4,0) + 1/2 e^(0,0) - e^(-4,0) over 1 - e^(-4,0): the running
        # sum is 1/2, then 1 (held as int), then 0
        num = GAElem(2, {(4, 0): QLaurent({0: Fraction(1, 2)}),
                         (0, 0): QLaurent({0: Fraction(1, 2)}),
                         (-4, 0): -ONE})
        quot = _div_root_factor(num, (4, 0))
        assert quot == GAElem(2, {(4, 0): QLaurent({0: Fraction(1, 2)}), (0, 0): ONE})
        assert type(quot._per_weight()[(0, 0)].terms[(0,)]) is int
        # a chain through a gap: (e^(8) - e^(-4)) / (1 - e^(-4))
        one_dim = GAElem(1, {(8,): ONE, (-4,): -ONE})
        assert _div_root_factor(one_dim, (4,)) == GAElem(
            1, {(8,): ONE, (4,): ONE, (0,): ONE})

    def test_zero_numerator(self):
        assert _div_root_factor(GAElem.zero(2), (2, -2)) == GAElem.zero(2)

    @pytest.mark.parametrize("rs, ks", [(B2, (1, 2, 3)), (C3, (1, 2, 3)), (D4, (2, 3))],
                             ids=["B2", "C3", "D4"])
    def test_denominator_times_q_dependent_body(self, rs, ks):
        delta = weyl_denominator(rs)
        for k in ks:
            body = ch_g_via_hooks(rs, k).body
            assert not body.is_constant_in_q()
            assert divide_by_denominator(delta * body, rs) == body

    @pytest.mark.parametrize("kind", ["int", "fraction", "q"])
    @pytest.mark.parametrize("shift", [0, 1], ids=["integral", "spin"])
    def test_binomial_round_trip(self, kind, shift):
        rng = random.Random(f"{kind}-{shift}")
        for rank in (1, 2, 3):
            for _ in range(15):
                x = _rand_grid_elem(rank, rng, shift, kind)
                f = _binomial(rank, rng, shift)
                assert (x * f).div_exact(f) == x

    @pytest.mark.parametrize("kind", ["int", "fraction", "q"])
    def test_binomial_perturbed_numerator_not_divisible(self, kind):
        rng = random.Random(5)
        for rank in (1, 2, 3):
            for shift in (0, 1):
                for _ in range(10):
                    x = _rand_grid_elem(rank, rng, shift, kind)
                    f = _binomial(rank, rng, shift)
                    w = tuple(rng.randint(-8, 8) for _ in range(rank))
                    with pytest.raises(NotDivisible):
                        (x * f + GAElem(rank, {w: ONE})).div_exact(f)

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

    def test_q_lane_alone_blocks_binomial_division(self):
        rng = random.Random(11)
        for rank in (1, 2, 3):
            for shift in (0, 1):
                for _ in range(10):
                    x = _rand_grid_elem(rank, rng, shift, "q")
                    f = _binomial(rank, rng, shift)
                    by_weight = (x * f)._per_weight()
                    w = rng.choice(sorted(by_weight))
                    e = max(e for (e,) in by_weight[w].terms) + 1
                    with pytest.raises(NotDivisible):
                        (x * f + GAElem(rank, {w: QLaurent.monomial(e)})).div_exact(f)

    def test_q_lane_alone_blocks_the_general_path(self):
        # (1 + q) e^0 over (1 + q^2) e^0: one weight on both sides
        num = GAElem.constant(2, QLaurent({0: 1, 4: 1}))
        with pytest.raises(NotDivisible):
            num.div_exact(GAElem.constant(2, QLaurent({0: 1, 8: 1})))

    def test_general_path_round_trip_with_q_coefficients(self):
        rng = random.Random(12)
        for rank in (1, 2, 3):
            f = GAElem(rank, {
                (2,) * rank: QLaurent({1: 1, -3: Fraction(1, 2)}),
                (0,) * rank: QLaurent({0: 2, 4: -1, 8: 3}),
                (-2,) + (0,) * (rank - 1): QLaurent({-2: 1, 6: 1}),
            })
            for _ in range(10):
                x = _rand_grid_elem(rank, rng, 0, "q")
                assert (x * f).div_exact(f) == x


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
        assert x._per_weight() == {(a, 2): ONE}

    @pytest.mark.parametrize("cls, a", _LANE_CASES)
    def test_general_division_beyond_16_bit_coordinates(self, cls, a):
        x = cls(2, {(a, 2): QLaurent({1: 2}), (0, -a): ONE})
        f = cls(2, {(a, 0): ONE, (0, 2): ONE, (-a, -a): QLaurent({0: 3})})
        assert (x * f).div_exact(f) == x


class TestKeyRank:
    """A flat key is one entry longer than a weight, so a key or weight of
    the wrong length raises RankMismatch instead of passing silently."""

    def test_product_with_a_long_key(self):
        with pytest.raises(RankMismatch):
            GAElem(2, {(1, 2, 3): ONE}) * GAElem(2, {(2, 0): ONE})

    def test_specialize_with_a_long_key(self):
        with pytest.raises(RankMismatch):
            GAElem(2, {(1, 2, 3): ONE}).specialize([2, 3])

    def test_shift_by_a_weight_of_another_rank(self):
        with pytest.raises(RankMismatch):
            GAElem(2, {(1, 1): ONE}).shift(Weight((2,)))

    def test_from_json_with_a_long_key(self):
        with pytest.raises(RankMismatch):
            EPoly.from_json(2, [{"exps": [1, 2, 3], "coeff": ONE.to_json()}])

    def test_divide_by_the_denominator_of_another_rank(self):
        with pytest.raises(RankMismatch):
            divide_by_denominator(weyl_denominator(C3), B2)

    def test_straighten_an_element_of_another_rank(self):
        with pytest.raises(RankMismatch):
            straighten(GAElem(2, {(3, 1): ONE}), B3)

    def test_antisymmetrize_an_element_of_another_rank(self):
        with pytest.raises(RankMismatch):
            antisymmetrize(GAElem(2, {(3, 1): ONE}), B3)

    def test_alternant_of_a_weight_of_another_rank(self):
        with pytest.raises(RankMismatch):
            alternant(B2, Weight((5, 3, 1)))


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
        assert len(chi._per_weight()) == 6
        assert chi.evaluate(1, [1, 1, 1]) == 6

    def test_spin_b2(self):
        chi = weyl_character(B2, B2.fundamental_weight(2))
        assert set(chi._per_weight()) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert chi.evaluate(1, [1, 1]) == 4

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
                assert chi.evaluate(1, [1] * rs.rank) == weyl_dimension(rs, lam)

    def test_coefficients_constant_in_q(self):
        for lam in _integral_dominant(C3, 2):
            assert weyl_character(C3, lam).is_constant_in_q()


def _dominant_grid(rs, bound):
    """Every highest weight with coordinates at most ``bound``: the integral
    grid, the spin grid (types B and D) and, in type D, both signs of the
    last coordinate."""
    from itertools import product as iproduct

    out = []
    for offset in (0, 1):
        for coords in iproduct(range(2 * bound - offset, -1, -2), repeat=rs.rank):
            signs = (1, -1) if rs.lie_type is LieType.D and coords[-1] else (1,)
            for sign in signs:
                lam = Weight(coords[:-1] + (sign * coords[-1],))
                if rs.is_dominant(lam) and rs.is_on_weight_lattice(lam):
                    out.append(lam)
    return out


class TestFreudenthal:
    @pytest.mark.parametrize("rs", [B2, B3, C3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_equals_alternant_division(self, rs):
        grid = _dominant_grid(rs, 3)
        assert any(not lam.is_integral() for lam in grid) == (rs.lie_type is not LieType.C)
        if rs.lie_type is LieType.D:
            assert any(lam.dbl[-1] < 0 for lam in grid)
        for lam in grid:
            expected = divide_by_denominator(alternant(rs, lam + rs.rho), rs)
            assert weyl_character(rs, lam) == expected, lam

    def test_known_multiplicities(self):
        # B2 adjoint (1,1): the short weights once, the zero weight twice
        assert dominant_multiplicities(B2, Weight((2, 2))) == {
            (2, 2): 1, (2, 0): 1, (0, 0): 2
        }
        # C3 with lam = 2 eps_1 (adjoint): zero weight of multiplicity 3
        assert dominant_multiplicities(C3, Weight((4, 0, 0))) == {
            (4, 0, 0): 1, (2, 2, 0): 1, (0, 0, 0): 3
        }
        # D4 half-spin: one dominant weight, the highest
        assert dominant_multiplicities(D4, Weight((1, 1, 1, -1))) == {(1, 1, 1, -1): 1}

    PAST_GUARD = (
        (LieType.B, 8, ((2,) + (0,) * 7, (2, 2, 2) + (0,) * 5, (1,) * 8)),
        (LieType.C, 8, ((2,) + (0,) * 7, (2, 2, 2) + (0,) * 5, (2, 2) + (0,) * 6)),
        (LieType.D, 8, ((2,) + (0,) * 7, (2, 2, 2) + (0,) * 5, (1,) * 7 + (-1,))),
        (LieType.B, 9, ((2,) + (0,) * 8, (2, 2, 2) + (0,) * 6, (1,) * 9)),
        # 12! orderings of (2, 2, 2, 0, ...), of which 220 are distinct
        (LieType.B, 12, ((2,) + (0,) * 11, (2, 2, 2) + (0,) * 9, (1,) * 12)),
    )

    @pytest.mark.parametrize(
        "lie,n,weights", PAST_GUARD, ids=("B8", "C8", "D8", "B9", "B12")
    )
    def test_past_the_enumeration_guard(self, lie, n, weights):
        rs = build_root_system(lie, n)
        with pytest.raises(RankTooLargeForEnumeration):
            enumerate_weyl(rs)
        for dbl in weights:
            lam = Weight(dbl)
            chi = weyl_character(rs, lam)
            assert chi.evaluate(1, [1] * n) == weyl_dimension(rs, lam)
            assert is_w_invariant(chi, rs)

    def test_orbit_table_past_the_enumeration_guard(self):
        b8 = build_root_system(LieType.B, 8)
        with pytest.raises(RankTooLargeForEnumeration):
            alternant(b8, b8.rho)
        with pytest.raises(RankTooLargeForEnumeration):
            weyl_denominator(b8)


@pytest.mark.parametrize("rs", [B3, C3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
def test_orbit_images_are_distinct_and_complete(rs):
    """_orbit yields each image of a dominant weight once, and they are the
    images under the enumerated group."""
    group = enumerate_weyl(rs)
    type_d = rs.lie_type is LieType.D
    for lam in _dominant_grid(rs, 2):
        images = list(_orbit(lam.dbl, type_d))
        assert len(images) == len(set(images)), lam
        assert set(images) == {w.apply(lam).dbl for w in group}, lam


def _rand_chamber(rs, rng, nterms=4):
    """A chamber form: q-dependent coefficients on strictly dominant weights
    lam + rho, lam drawn from the small dominant grid."""
    grid = _dominant_grid(rs, 2)
    lams = rng.sample(grid, nterms)
    return GAElem(
        rs.rank, {(lam + rs.rho).dbl: _rand_coeff(rng, "q") for lam in lams}
    )


class TestCharacterSum:
    """Weyl's formula read both ways on chamber forms with q-dependent
    coefficients: character_sum against the literal quotient of the
    enumerated alternant, and straightening back."""

    @pytest.mark.parametrize("rs", [B2, B3, C3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_equals_literal_quotient(self, rs):
        rng = random.Random(f"character-sum-{rs.lie_type.value}{rs.rank}")
        for _ in range(3):
            c = _rand_chamber(rs, rng)
            expected = divide_by_denominator(literal_antisymmetrize(c, rs), rs)
            assert character_sum(c, rs) == expected

    @pytest.mark.parametrize("rs", [B2, B3, C3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_straightens_back(self, rs):
        rng = random.Random(f"straighten-back-{rs.lie_type.value}{rs.rank}")
        for _ in range(3):
            c = _rand_chamber(rs, rng)
            g = character_sum(c, rs)
            assert is_w_invariant(g, rs)
            assert straighten(g.shift(rs.rho), rs) == c


class TestExtPowers:
    def test_degree_zero(self):
        for rs in (B2, C3, D4):
            assert ext_power_char(rs, 0) == GAElem.one(rs.rank)

    @pytest.mark.parametrize("rs", in_scope_systems(), ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_natural_module(self, rs):
        assert ext_power_char(rs, 1) == weyl_character(rs, eps(rs.rank, 1))

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
        assert GAElem.one(2).evaluate(Fraction(7, 2), [2, 3]) == 1

    def test_natural_dimension(self):
        assert weyl_character(B2, eps(2, 1)).evaluate(1, [1, 1]) == 5

    def test_half_grid_points(self):
        spin = weyl_character(B2, B2.fundamental_weight(2))
        # e^{eps_i/2} -> 2, 3 means e^{(eps_1+eps_2)/2} -> 6
        val = spin.evaluate(1, [2, 3])
        assert val == 6 + Fraction(2, 3) + Fraction(3, 2) + Fraction(1, 6)

    def test_specialize_keeps_q(self):
        # q e^{eps_1} + (2q + q^{-1}) e^{-eps_2/2} at e^{eps_i/2} -> 2, 3
        x = GAElem(2, {(2, 0): Q(1), (0, -1): Q(1, 2) + Q(-1)})
        sp = x.specialize([2, 3])
        assert sp == QLaurent({4: Fraction(14, 3), -4: Fraction(1, 3)})
        for s in (1, 2, Fraction(-3, 2)):
            assert x.evaluate(s, [2, 3]) == sp.evaluate(s)

    def test_errors(self):
        with pytest.raises(GridMismatch):
            GAElem.one(2).evaluate(1, [1])
        with pytest.raises(ZeroBase):
            GAElem.one(2).evaluate(1, [0, 1])
        with pytest.raises(ZeroBase):
            GAElem.one(2).evaluate(0, [1, 1])


class TestCosetDecomposition:
    @pytest.mark.parametrize("rs", [B2, B3, D4], ids=lambda r: f"{r.lie_type.value}{r.rank}")
    def test_fibres_are_the_cosets_of_the_stabilizer(self, rs):
        n = rs.rank
        group = enumerate_weyl(rs)
        fibres = {}
        for w in group:
            fibres.setdefault(w.apply(eps(n, 1)), []).append(w)
        stab = [w for w in group if w.perm[0] == 1 and w.signs[0] == 1]
        # one fibre per eps_a, a in I', a != 0: the orbit of eps_1 is +-eps_i
        assert set(fibres) == {eps(n, a) for a in rs.iprime if a}
        assert set(fibres) == {eps(n, a) for a in range(-n, n + 1) if a}
        assert fibres[eps(n, 1)] == stab
        assert all(len(f) == len(stab) for f in fibres.values())
        assert 2 * n * len(stab) == len(group)
        # each fibre is the left coset w * stab of any of its elements
        for f in fibres.values():
            assert {_compose(f[0], u) for u in stab} == set(f)


def test_tiling_cases_fail_on_a_short_group_or_a_short_iprime(monkeypatch):
    """props-coset-tiling-{B3,D4} pass as built, and fail when the group
    loses one element (the identity, inside the stabilizer, or the last
    element, outside it) or when I' loses the natural weight eps_{-n}."""

    def tiling():
        cases = verify.property_cases()
        return {c["id"]: c["status"] for c in cases if "coset-tiling" in c["id"]}

    ids = ("props-coset-tiling-B3", "props-coset-tiling-D4")
    assert tiling() == dict.fromkeys(ids, "pass")
    whole = verify.enumerate_weyl
    for short in (lambda g: g[1:], lambda g: g[:-1]):
        with monkeypatch.context() as m:
            m.setattr(verify, "enumerate_weyl", lambda rs: short(whole(rs)))
            assert tiling() == dict.fromkeys(ids, "fail")

    built = verify.build_root_system

    def short_iprime(lie, n):
        rs = built(lie, n)
        iprime = tuple(a for a in rs.iprime if a != -n)
        return RootSystem(
            rs.lie_type, rs.rank, rs.positive_roots, rs.simple_roots, rs.rho,
            rs.fundamental_weights, rs.c_n, rs.kappa_n, len(iprime), iprime,
        )

    monkeypatch.setattr(verify, "build_root_system", short_iprime)
    assert tiling() == dict.fromkeys(ids, "fail")


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


@pytest.mark.parametrize(
    "rs", in_scope_systems(), ids=lambda r: f"{r.lie_type.value}{r.rank}"
)
def test_orbit_table_matches_enumerated_group(rs):
    """The (image, sign) sequence of the orbit table on a key with distinct
    nonzero magnitudes is the one read off enumerate_weyl, in order."""
    key = tuple(range(1, 2 * rs.rank, 2))
    ext = key + tuple(-d for d in key)
    table = [(gather(ext), sign) for gather, sign in _orbit_getters(rs)]
    expected = [(w.apply(Weight(key)).dbl, w.sgn()) for w in enumerate_weyl(rs)]
    assert table == expected
    assert len(set(table)) == len(table)
