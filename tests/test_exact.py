"""Exact arithmetic: q-Laurent ring, abstract polynomials, determinants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcasimir.exact import (
    DivisionByZero,
    EPoly,
    NotDivisible,
    QLaurent,
    ZeroBase,
    det_bareiss,
    det_cofactor,
    det_exact,
)

Q = QLaurent.q_power
ONE = QLaurent.one()


def ql(coeffs: dict) -> QLaurent:
    """Build from {q-power: coeff} with integer powers."""
    return QLaurent({4 * e: c for e, c in coeffs.items()})


coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
exponents = st.integers(min_value=-10, max_value=10)
qlaurents = st.dictionaries(exponents, coeffs, max_size=5).map(QLaurent)


class TestQLaurent:
    def test_additive_identity(self):
        assert Q(1) + QLaurent.zero() == Q(1)

    def test_additive_inverse(self):
        assert (Q(1) - Q(-1)) + (Q(-1) - Q(1)) == QLaurent.zero()

    def test_like_term_merge(self):
        assert ql({2: 1, 0: 1}) + ql({2: 1, 0: -1}) == ql({2: 2})

    def test_exponent_addition_on_quarter_grid(self):
        assert Q(Fraction(1, 2)) * Q(Fraction(1, 2)) == Q(1)

    def test_difference_of_squares(self):
        assert (Q(1) - Q(-1)) * (Q(1) + Q(-1)) == Q(2) - Q(-2)

    def test_off_grid_exponent_rejected(self):
        with pytest.raises(ValueError):
            Q(Fraction(1, 3))

    def test_div_exact_factorization(self):
        assert (Q(2) - Q(-2)).div_exact(Q(1) - Q(-1)) == Q(1) + Q(-1)

    def test_div_by_unit(self):
        a = ql({3: 2, -1: Fraction(1, 2)})
        assert a.div_exact(ONE) == a

    def test_div_remainder_detected(self):
        # long division leaves the constant remainder 2
        with pytest.raises(NotDivisible):
            (ql({2: 1, 0: 1})).div_exact(ql({1: 1, 0: -1}))

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            ONE.div_exact(QLaurent.zero())

    def test_eval_simple(self):
        assert Q(1).evaluate(1) == 1
        assert (Q(1) - Q(-1)).evaluate(2) == Fraction(255, 16)
        assert Q(Fraction(1, 2)).evaluate(3) == 9

    def test_eval_zero_base(self):
        with pytest.raises(ZeroBase):
            Q(1).evaluate(0)

    def test_json_round_trip(self):
        a = ql({3: Fraction(2, 3), -2: -1})
        assert QLaurent.from_json(a.to_json()) == a

    @given(qlaurents, qlaurents, qlaurents)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a

    @given(qlaurents, qlaurents)
    @settings(max_examples=60, deadline=None)
    def test_product_division_round_trip(self, a, b):
        if b.is_zero():
            return
        assert (a * b).div_exact(b) == a

    @given(qlaurents, qlaurents, st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3))
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_a_homomorphism(self, a, b, s):
        assert (a * b).evaluate(s) == a.evaluate(s) * b.evaluate(s)
        assert (a + b).evaluate(s) == a.evaluate(s) + b.evaluate(s)


def epoly_of(nsyms, entries):
    return EPoly(nsyms, {tuple(m): ql(c) for m, c in entries})


class TestEPoly:
    def test_symbol_product(self):
        e1 = EPoly.symbol(3, 1)
        e2 = EPoly.symbol(3, 2)
        assert (e1 * e2)._per_weight() == {(1, 1, 0): ONE}

    def test_substitute_into_qlaurent_free_ring(self):
        p = EPoly.symbol(2, 1) * EPoly.symbol(2, 1) + EPoly.symbol(2, 2).scale(
            ql({1: 1})
        )
        val = p.substitute([EPoly.symbol(2, 2), EPoly.one(2)], EPoly.one(2))
        assert val == EPoly(2, {(0, 2): ONE, (0, 0): ql({1: 1})})

    def test_partial_derivative(self):
        p = EPoly(2, {(2, 1): ONE})
        assert p.partial(1) == EPoly(2, {(1, 1): QLaurent({0: 2})})
        assert p.partial(2) == EPoly(2, {(2, 0): ONE})

    def test_div_exact(self):
        a = EPoly.symbol(2, 1) + EPoly.symbol(2, 2)
        b = EPoly.symbol(2, 1) - EPoly.symbol(2, 2)
        prod = a * b
        assert prod.div_exact(a) == b
        with pytest.raises(NotDivisible):
            (prod + EPoly.one(2)).div_exact(a)

    def test_div_exact_with_negative_exponents(self):
        # a Laurent quotient: the box [min-min, max-max] reaches below zero
        x = epoly_of(2, [((-1, 2), {1: 1}), ((0, -3), {0: 2}), ((-2, -1), {-1: -1})])
        f = epoly_of(2, [((1, 0), {0: 1}), ((-2, 1), {1: 3}), ((0, 0), {0: -1})])
        assert (x * f).div_exact(f) == x
        with pytest.raises(NotDivisible):
            (x * f + EPoly.symbol(2, 1)).div_exact(f)

    def test_json_round_trip(self):
        p = epoly_of(2, [((1, 0), {1: 1}), ((0, 2), {-1: Fraction(1, 2)})])
        assert EPoly.from_json(2, p.to_json()) == p

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, data):
        monos = st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        )
        polys = st.dictionaries(monos, qlaurents, max_size=4).map(
            lambda d: EPoly(2, d)
        )
        a, b, c = data.draw(polys), data.draw(polys), data.draw(polys)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


class TestDeterminants:
    def test_one_by_one(self):
        x = ql({1: 3})
        assert det_exact([[x]]) == x

    def test_identity(self):
        ident = [[ONE if i == j else QLaurent.zero() for j in range(4)] for i in range(4)]
        assert det_exact(ident) == ONE

    def test_antisymmetry(self):
        a, b = ql({1: 1}), ql({0: 2, -1: 1})
        assert det_cofactor([[a, b], [a, b]]).is_zero()

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_cofactor_matches_bareiss(self, data):
        size = data.draw(st.integers(min_value=1, max_value=5))
        small = st.dictionaries(
            st.integers(min_value=-3, max_value=3),
            st.fractions(min_value=-3, max_value=3, max_denominator=2),
            max_size=2,
        ).map(QLaurent)
        m = [[data.draw(small) for _ in range(size)] for _ in range(size)]
        assert det_cofactor(m) == det_bareiss(m)


class TestOneRing:
    """EPoly and GAElem (E_i read as e^(eps_i/2)) share one implementation;
    every operation keeps the operand's class."""

    @staticmethod
    def _pair(cls):
        a = cls(2, {(1, -1): ql({1: 1}), (0, 2): ONE})
        b = cls(2, {(1, 0): ONE, (0, 0): ql({-1: 2})})
        return a, b

    def _results(self, cls):
        a, b = self._pair(cls)
        return [
            a + b, a - b, -a, a * b, a**3, a.scale(ql({1: 1})),
            (a * b).div_exact(b), a.partial(1), cls.zero(2), cls.one(2),
            cls.constant(2, ONE), cls.symbol(2, 1),
            cls.from_json(2, a.to_json()),
        ]

    def test_epoly_ops_return_epoly(self):
        assert all(type(x) is EPoly for x in self._results(EPoly))

    def test_gaelem_ops_return_gaelem(self):
        from qcasimir.chars import GAElem

        assert all(type(x) is GAElem for x in self._results(GAElem))
        # the chain-sum kernel keeps the class too
        a, _ = self._pair(GAElem)
        binomial = GAElem(2, {(2, 0): ONE, (0, 0): -ONE})
        assert type((a * binomial).div_exact(binomial)) is GAElem

    def test_epoly_never_equals_gaelem(self):
        from qcasimir.chars import GAElem

        for terms in ({}, {(0, 0): ONE}, {(1, -1): ql({1: 1}), (0, 2): ONE}):
            e, g = EPoly(2, terms), GAElem(2, terms)
            assert e.terms == g.terms
            assert e != g and g != e

    def test_mixed_classes_do_not_combine(self):
        from qcasimir.chars import GAElem

        e, g = EPoly.one(2), GAElem.one(2)
        with pytest.raises(TypeError):
            e + g
        with pytest.raises(TypeError):
            g * e
