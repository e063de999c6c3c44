"""Exact arithmetic: q-Laurent ring, abstract polynomials, determinants."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qcasimir.chars import GAElem
from qcasimir.exact import (
    DivisionByZero,
    EPoly,
    NotDivisible,
    QLaurent,
    RankMismatch,
    ZeroBase,
    det_bareiss,
    det_cofactor,
    det_exact,
    power_table,
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

    def test_constants_hash_like_their_rationals(self):
        for c in (5, Fraction(5), Fraction(-2, 3), 0):
            assert QLaurent.rational(c) == c
            assert hash(QLaurent.rational(c)) == hash(c)
        assert hash(QLaurent.zero()) == hash(0)
        assert len({QLaurent.rational(5), 5}) == 1
        assert len({QLaurent.zero(), 0, Fraction(0)}) == 1
        assert len({ql({1: 5}), 5}) == 2

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

    # q^2 E_1 + E_2: the q lane sits right after the symbol lanes, so an
    # index outside 1..rank must be refused, not read as (or wrap to) a lane
    Q2E1_PLUS_E2 = EPoly.symbol(2, 1, Q(2)) + EPoly.symbol(2, 2)

    def test_max_degree_refuses_an_index_outside_the_rank(self):
        p = self.Q2E1_PLUS_E2
        assert (p.max_degree(1), p.max_degree(2)) == (1, 1)
        for i in (0, 3):
            with pytest.raises(IndexError, match="out of range 1..2"):
                p.max_degree(i)

    def test_uses_symbol_refuses_an_index_outside_the_rank(self):
        p = EPoly.symbol(2, 1, Q(2))
        assert p.uses_symbol(1) and not p.uses_symbol(2)
        for i in (-1, 0, 3):
            with pytest.raises(IndexError, match="out of range 1..2"):
                p.uses_symbol(i)

    def test_partial_refuses_an_index_outside_the_rank(self):
        p = self.Q2E1_PLUS_E2
        assert p.partial(2) == EPoly.one(2)
        for i in (0, 3):
            with pytest.raises(IndexError, match="out of range 1..2"):
                p.partial(i)

    def test_coeff_refuses_a_key_of_another_rank(self):
        p = self.Q2E1_PLUS_E2
        assert p.coeff((1, 0)) == Q(2) and p.coeff([0, 1]) == ONE
        for key in ((1,), (1, 0, 8)):
            with pytest.raises(RankMismatch):
                p.coeff(key)

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


def _one_plus_lane0(cls):
    """(1 + x, unit) with x one step up lane 0 of the flat keys (E_1, or
    e^(eps_1/2), or q in QLaurent): the lane-0 degree of (1 + x)**n is
    n * unit."""
    if cls is QLaurent:
        return QLaurent({0: 1, 4: 1}), 4
    return cls(2, {(1, 0): ONE, (0, 0): ql({1: 2})}), 1


RINGS = (QLaurent, EPoly, GAElem)


class TestPowers:
    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_power_is_repeated_product(self, cls):
        x, _ = _one_plus_lane0(cls)
        prod = x._like({(0,) * (x.rank + 1): 1})
        for n in range(10):
            assert x**n == prod, n
            assert type(x**n) is cls
            prod = prod * x

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_no_product_above_the_exponent(self, cls, monkeypatch):
        """Binary powering squares only while bits of n remain: no product
        formed inside x**n has lane-0 degree above n's."""
        x, unit = _one_plus_lane0(cls)
        degrees = []
        mul = cls.__mul__

        def counted(a, b):
            out = mul(a, b)
            degrees.append(max(k[0] for k in out.terms))
            return out

        monkeypatch.setattr(cls, "__mul__", counted)
        for n in range(10):
            degrees.clear()
            x**n
            assert max(degrees, default=0) <= n * unit, (n, degrees)
            # popcount(n) - 1 products build the result, bit_length(n) - 1
            # squarings the base
            assert len(degrees) == max(n.bit_count() + n.bit_length() - 2, 0), n

    def test_power_table(self):
        x, _ = _one_plus_lane0(EPoly)
        assert power_table(x, 0) == []
        assert power_table(x, 5) == [x**e for e in range(1, 6)]

    def test_substitute_rejects_negative_exponents(self):
        p = EPoly(2, {(-1, 1): ONE, (2, 0): ONE})
        with pytest.raises(ValueError, match="negative power"):
            p.substitute([EPoly.symbol(2, 1), EPoly.symbol(2, 2)], EPoly.one(2))


def literal_substitute(p, values, one):
    """The literal substitution, the reference for the power tables: every
    monomial forms prod * v**e for each of its symbols."""
    total = one.scale(0)
    for m, c in p._per_weight().items():
        prod = one
        for v, e in zip(values, m):
            if e:
                prod = prod * v**e
        total = total + prod.scale(c)
    return total


def _polys(cls, lane):
    keys = st.tuples(lane, lane)
    return st.dictionaries(keys, qlaurents, max_size=4).map(lambda d: cls(2, d))


_sources = _polys(EPoly, st.integers(min_value=0, max_value=3))


class TestSubstituteTables:
    @given(
        _sources,
        _polys(EPoly, st.integers(min_value=-2, max_value=2)),
        _polys(EPoly, st.integers(min_value=-2, max_value=2)),
    )
    @example(EPoly.zero(2), EPoly.symbol(2, 1), EPoly.symbol(2, 2))
    @example(EPoly.constant(2, ql({1: 3})), EPoly.symbol(2, 2), EPoly.zero(2))
    @settings(max_examples=40, deadline=None)
    def test_into_epoly(self, p, v1, v2):
        one = EPoly.one(2)
        assert p.substitute([v1, v2], one) == literal_substitute(p, [v1, v2], one)

    @given(
        _sources,
        _polys(GAElem, st.integers(min_value=-3, max_value=3)),
        _polys(GAElem, st.integers(min_value=-3, max_value=3)),
    )
    @example(EPoly.zero(2), GAElem.symbol(2, 1), GAElem.symbol(2, 2))
    @example(EPoly.constant(2, ql({-1: 2})), GAElem.symbol(2, 2), GAElem.zero(2))
    @settings(max_examples=40, deadline=None)
    def test_into_gaelem(self, p, v1, v2):
        one = GAElem.one(2)
        got = p.substitute([v1, v2], one)
        assert type(got) is GAElem
        assert got == literal_substitute(p, [v1, v2], one)


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
        assert all(type(x) is GAElem for x in self._results(GAElem))
        # the chain-sum kernel keeps the class too
        a, _ = self._pair(GAElem)
        binomial = GAElem(2, {(2, 0): ONE, (0, 0): -ONE})
        assert type((a * binomial).div_exact(binomial)) is GAElem

    def test_epoly_never_equals_gaelem(self):
        for terms in ({}, {(0, 0): ONE}, {(1, -1): ql({1: 1}), (0, 2): ONE}):
            e, g = EPoly(2, terms), GAElem(2, terms)
            assert e.terms == g.terms
            assert e != g and g != e

    def test_mixed_classes_do_not_combine(self):
        e, g = EPoly.one(2), GAElem.one(2)
        with pytest.raises(TypeError):
            e + g
        with pytest.raises(TypeError):
            g * e
