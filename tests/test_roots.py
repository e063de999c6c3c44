"""Root data for types B, C, D."""

from fractions import Fraction

import pytest

from qcasimir.roots import (
    BarNotApplicable,
    IndexOutOfRange,
    LieType,
    NotDominant,
    NotOnWeightLattice,
    RankTooSmall,
    Weight,
    WrongType,
    build_root_system,
    eps,
    hook_weight,
    pairing,
    partition_to_weight,
    tau,
    weyl_dimension,
)

B2 = build_root_system(LieType.B, 2)
B3 = build_root_system(LieType.B, 3)
C3 = build_root_system(LieType.C, 3)
D4 = build_root_system(LieType.D, 4)
ALL = (B2, B3, C3, D4)


def test_rank_constraints():
    for lie, bad in ((LieType.B, 1), (LieType.C, 2), (LieType.D, 3)):
        with pytest.raises(RankTooSmall):
            build_root_system(lie, bad)


@pytest.mark.parametrize(
    "rs,rho,n_pos,c_n",
    [
        (B2, (Fraction(3, 2), Fraction(1, 2)), 4, 4),
        (C3, (3, 2, 1), 9, 7),
        (D4, (3, 2, 1, 0), 12, 7),
    ],
)
def test_rho_and_counts(rs, rho, n_pos, c_n):
    assert rs.rho.coords == tuple(Fraction(x) for x in rho)
    assert len(rs.positive_roots) == n_pos
    assert rs.c_n == c_n


def test_positive_root_counts_formula():
    for rs in ALL:
        n = rs.rank
        expected = n * n if rs.lie_type in (LieType.B, LieType.C) else n * n - n
        assert len(rs.positive_roots) == expected


def test_two_rho_is_positive_root_sum():
    for rs in ALL:
        total = Weight.zero(rs.rank)
        for alpha in rs.positive_roots:
            total = total + alpha
        assert total == rs.rho.scale(2)


def test_simple_roots_are_positive_and_span():
    for rs in ALL:
        pos = set(w.dbl for w in rs.positive_roots)
        assert all(alpha.dbl in pos for alpha in rs.simple_roots)
        # every positive root is a non-negative integer combination of simple
        # roots: solve greedily by subtracting simple roots
        for beta in rs.positive_roots:
            current = beta
            for _ in range(64):
                if not any(current.dbl):
                    break
                for alpha in rs.simple_roots:
                    candidate = current - alpha
                    if _is_nonneg_root_combo_step(rs, candidate, current):
                        current = candidate
                        break
                else:
                    pytest.fail(f"{beta} not reachable by simple roots")
            assert not any(current.dbl)


def _is_nonneg_root_combo_step(rs, candidate, current):
    # heuristic step: keep the candidate if it is the zero vector or still a
    # non-negative combination; positive roots minus a simple root stay in
    # the root lattice, so a height-reducing step suffices here.
    if not any(candidate.dbl):
        return True
    return candidate.dbl in {w.dbl for w in rs.positive_roots}


def test_pairing_values():
    assert pairing(eps(2, 1), eps(2, 1)) == 1
    assert pairing(B2.rho, eps(2, 1)) == Fraction(3, 2)
    for rs in (B2, B3):
        n = rs.rank
        spin = rs.fundamental_weight(n)
        assert pairing(spin, spin) == Fraction(n, 4)


@pytest.mark.parametrize(
    "rs,i,coords",
    [
        (B2, 1, (1, 0)),
        (B2, 2, (Fraction(1, 2), Fraction(1, 2))),
        (D4, 3, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))),
        (D4, 4, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))),
        (C3, 2, (1, 1, 0)),
    ],
)
def test_fundamental_weights(rs, i, coords):
    assert rs.fundamental_weight(i).coords == tuple(Fraction(c) for c in coords)


def test_fundamental_weights_dual_to_coroots():
    for rs in ALL:
        for i in range(1, rs.rank + 1):
            for j, alpha in enumerate(rs.simple_roots, start=1):
                expected = 1 if i == j else 0
                assert pairing(rs.fundamental_weight(i), rs.coroot(alpha)) == expected


def test_fundamental_weight_index_errors():
    with pytest.raises(IndexOutOfRange):
        B2.fundamental_weight(0)
    with pytest.raises(IndexOutOfRange):
        B2.fundamental_weight(3)


class TestHookWeights:
    def test_examples(self):
        assert hook_weight(B3, 2, 1).weight.coords == (1, 1, 0)
        assert hook_weight(C3, 5, 4).weight.coords == (1, 1, 1)  # rbar = 2
        assert hook_weight(D4, 4, 3, bar=True).weight.coords == (1, 1, 1, -1)

    def test_bar_restrictions(self):
        with pytest.raises(BarNotApplicable):
            hook_weight(B3, 3, 2, bar=True)
        with pytest.raises(BarNotApplicable):
            hook_weight(D4, 4, 2, bar=True)

    def test_r_ranges(self):
        with pytest.raises(IndexOutOfRange):
            hook_weight(B2, 3, 4)  # B allows r <= 2n-1 = 3
        hook_weight(B2, 5, 3)
        hook_weight(C3, 7, 6)
        with pytest.raises(IndexOutOfRange):
            hook_weight(C3, 7, 7)
        hook_weight(D4, 7, 6)
        with pytest.raises(IndexOutOfRange):
            hook_weight(D4, 7, 7)

    def test_dominance_in_the_expected_range(self):
        for rs in ALL:
            for r in range(rs.rank):
                for k in range(r + 1, r + 4):
                    hw = hook_weight(rs, k, r)
                    assert rs.is_dominant(hw.weight), (rs.lie_type, k, r)

    def test_barred_hooks_dominant_iff_k_at_least_n(self):
        assert not D4.is_dominant(hook_weight(D4, 3, 3, bar=True).weight)
        assert D4.is_dominant(hook_weight(D4, 4, 3, bar=True).weight)


def test_tau_table():
    assert tau(C3, 0) == 1
    assert tau(C3, 2) == 1
    assert tau(C3, 3) == 0
    assert tau(C3, 5) == -1
    with pytest.raises(WrongType):
        tau(B2, 1)
    with pytest.raises(IndexOutOfRange):
        tau(C3, 7)


def test_dominance_per_type():
    assert B2.is_dominant(Weight((4, 2)))
    assert not B2.is_dominant(Weight((2, 4)))
    assert not B2.is_dominant(Weight((4, -2)))
    assert D4.is_dominant(Weight((4, 2, 2, -2)))
    assert not D4.is_dominant(Weight((4, 2, 2, -4)))


def test_weight_lattice_membership():
    assert B2.is_on_weight_lattice(Weight((1, 1)))  # spin grid
    assert not B2.is_on_weight_lattice(Weight((1, 2)))  # mixed grid
    assert not C3.is_on_weight_lattice(Weight((1, 1, 1)))


def test_weyl_dimension_known_values():
    assert weyl_dimension(B2, Weight((2, 0))) == 5
    assert weyl_dimension(B2, Weight((1, 1))) == 4  # spin
    assert weyl_dimension(C3, Weight((2, 0, 0))) == 6
    assert weyl_dimension(D4, Weight((2, 0, 0, 0))) == 8
    with pytest.raises(NotDominant):
        weyl_dimension(B2, Weight((0, 2)))


def test_weyl_dimension_rejects_weight_off_the_lattice():
    with pytest.raises(NotOnWeightLattice):
        weyl_dimension(C3, Weight((1, 1, 1)))  # (1/2, 1/2, 1/2) on C3


def test_partition_embedding():
    w = partition_to_weight(C3, (2, 1))
    assert w.coords == (2, 1, 0)
    with pytest.raises(IndexOutOfRange):
        partition_to_weight(B2, (1, 1, 1))
