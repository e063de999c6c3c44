"""Root data for types B, C, D."""

from fractions import Fraction

import pytest

from qcasimir.roots import (
    BarNotApplicable,
    IndexOutOfRange,
    MIN_RANK,
    LieType,
    NotDominant,
    NotOnWeightLattice,
    RankTooSmall,
    RootSystem,
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


def test_one_root_system_per_type_and_rank():
    # every per-system cache keys on the instance, hashed by identity
    for lie in LieType:
        n = MIN_RANK[lie]
        rs = build_root_system(lie, n)
        assert build_root_system(lie.value, n) is rs
        assert build_root_system(LieType(lie.value), n) is rs
        assert hash(rs) == object.__hash__(rs)
    assert B3 != C3 and B3 != build_root_system(LieType.B, 4)
    assert len({B2, B3, C3, D4, build_root_system("B", 3)}) == 4
    with pytest.raises(TypeError):  # a keyword call would key a second entry
        build_root_system(lie=LieType.B, n=2)


def test_weight_is_a_frozen_value():
    w = Weight((2, 0))
    assert w == Weight((2, 0)) and hash(w) == hash(Weight((2, 0)))
    assert hash(w) == hash(((2, 0),))  # set and dict orders follow this hash
    assert w != Weight((0, 2)) and w != (2, 0) and (2, 0) != w
    assert len({w, Weight((2, 0)), Weight((0, 2))}) == 2
    assert repr(w) == "Weight(dbl=(2, 0))"
    with pytest.raises(AttributeError):
        w.dbl = (0, 0)
    with pytest.raises(AttributeError):
        del w.dbl
    with pytest.raises(AttributeError):
        w.extra = 1
    assert w.dbl == (2, 0)


def test_root_system_is_frozen_and_caches_spin_indices():
    assert B3.spin_indices is B3.spin_indices == (3,)
    for name in ("rank", "rho", "spin_indices", "extra"):
        with pytest.raises(AttributeError):
            setattr(B3, name, None)
    for name in ("rank", "spin_indices"):
        with pytest.raises(AttributeError):
            delattr(B3, name)
    assert B3.rank == 3 and B3.spin_indices == (3,)
    # the positional constructor; a second instance is a different system
    other = RootSystem(
        B3.lie_type, B3.rank, B3.positive_roots, B3.simple_roots, B3.rho,
        B3.fundamental_weights, B3.c_n, B3.kappa_n, B3.dim_natural, B3.iprime,
    )
    assert other != B3 and other.rho == B3.rho and other.iprime == B3.iprime
    assert other.spin_indices == B3.spin_indices


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


# The per-type closed forms of the data that build_root_system derives from
# the roots (I' and c_n included), written out once per type as an
# independent table.
CLOSED_FORMS = {
    LieType.B: dict(
        rho=lambda n, i: n - i + Fraction(1, 2),
        c_n=lambda n: 2 * n,
        kappa_n=lambda n: Fraction(2 * n - 1, 2),
        dim_natural=lambda n: 2 * n + 1,
        iprime=lambda n: tuple(range(-n, n + 1)),
        hook_columns=lambda n: 2 * n,
        rbar=lambda n, r: min(r, 2 * n - 1 - r),
        spin_indices=lambda n: (n,),
    ),
    LieType.C: dict(
        rho=lambda n, i: n - i + 1,
        c_n=lambda n: 2 * n + 1,
        kappa_n=lambda n: n,
        dim_natural=lambda n: 2 * n,
        iprime=lambda n: tuple(i for i in range(-n, n + 1) if i),
        hook_columns=lambda n: 2 * n + 1,
        rbar=lambda n, r: min(r, 2 * n - r, n - 1),
        spin_indices=lambda n: (),
    ),
    LieType.D: dict(
        rho=lambda n, i: n - i,
        c_n=lambda n: 2 * n - 1,
        kappa_n=lambda n: n - 1,
        dim_natural=lambda n: 2 * n,
        iprime=lambda n: tuple(i for i in range(-n, n + 1) if i),
        hook_columns=lambda n: 2 * n - 1,
        rbar=lambda n, r: min(r, 2 * n - 2 - r),
        spin_indices=lambda n: (n - 1, n),
    ),
}


@pytest.mark.parametrize(
    "lie,n",
    [(lie, n) for lie in LieType for n in range(MIN_RANK[lie], 10)],
    ids=lambda v: v.value if isinstance(v, LieType) else str(v),
)
def test_derived_data_match_the_per_type_closed_forms(lie, n):
    rs = build_root_system(lie, n)
    form = CLOSED_FORMS[lie]
    assert rs.rho.coords == tuple(form["rho"](n, i) for i in range(1, n + 1))
    assert rs.c_n == form["c_n"](n)
    assert rs.kappa_n == form["kappa_n"](n)
    assert rs.dim_natural == form["dim_natural"](n)
    assert rs.iprime == form["iprime"](n)
    columns = form["hook_columns"](n)
    assert columns == rs.c_n
    assert [rs.rbar(r) for r in range(columns)] == [
        form["rbar"](n, r) for r in range(columns)
    ]
    for r in (-1, columns):
        with pytest.raises(IndexOutOfRange):
            rs.rbar(r)
    assert rs.spin_indices == form["spin_indices"](n)


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
        assert hook_weight(B3, 2, 1).coords == (1, 1, 0)
        assert hook_weight(C3, 5, 4).coords == (1, 1, 1)  # rbar = 2
        assert hook_weight(D4, 4, 3, bar=True).coords == (1, 1, 1, -1)

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
                    assert rs.is_dominant(hook_weight(rs, k, r)), (rs.lie_type, k, r)

    def test_barred_hooks_dominant_iff_k_at_least_n(self):
        assert not D4.is_dominant(hook_weight(D4, 3, 3, bar=True))
        assert D4.is_dominant(hook_weight(D4, 4, 3, bar=True))


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
