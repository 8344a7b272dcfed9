import numpy as np
import pytest

from arcgen.field_linalg import FpMatrix, FpSubspace, kron, unipotent_matrix
from arcgen.group_algebra import (
    AbelianH,
    _kron_rows,
    action_matrix,
    build_e_basis,
    gamma_chain,
    index_lower_bound,
    min_generators_local,
    outer_action,
    section_dims,
)
from oracles import algebra_mul


def test_abelian_h_validation():
    with pytest.raises(ValueError):
        AbelianH(4, 1)
    with pytest.raises(ValueError):
        AbelianH(2, 0)
    H = AbelianH(2, 2)
    assert H.q == 4 and H.order == 16
    assert H.index(1, 2) == 6
    assert H.element(6) == (1, 2)
    assert H.mul((3, 2), (1, 3)) == (0, 1)
    assert H.inv((1, 0)) == (3, 0)


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (5, 1)])
def test_index_map_against_element_operations(p, h):
    H = AbelianH(p, h)
    t = (1, H.q - 2)
    expected = {
        "a": lambda x: H.mul(x, (1, 0)),
        "b": lambda x: H.mul(x, (0, 1)),
        "phi": lambda x: (x[1], x[0]),
        "psi": H.inv,
        t: lambda x: H.mul(x, t),
    }
    for s, act in expected.items():
        images = H.index_map(s)
        assert images.shape == (H.order,)
        for k in range(H.order):
            assert images[k] == H.index(*act(H.element(k)))
    for bad in ("c", "", (1,), (1, 2, 3), 5, None):
        with pytest.raises(ValueError):
            H.index_map(bad)


# -- e-basis -----------------------------------------------------------------


def test_e00_is_the_identity_element():
    for p, h in [(2, 1), (3, 1), (2, 2)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        from_e = kron(change.P, change.P)
        col = from_e.a[:, H.index(0, 0)]
        expected = np.zeros(H.ambient)
        expected[0] = 1
        assert np.array_equal(col, expected)


def test_e10_q2_is_a_plus_one():
    H = AbelianH(2, 1)
    change = build_e_basis(H)
    # (a - 1) mod 2 has coefficient 1 on both 1 and a
    col = kron(change.P, change.P).a[:, H.index(1, 0)]
    assert col.tolist() == [1, 0, 1, 0]


def test_e20_q3_binomial_expansion():
    H = AbelianH(3, 1)
    change = build_e_basis(H)
    # (a - 1)^2 = 1 - 2a + a^2 = 1 + a + a^2 mod 3
    col = kron(change.P, change.P).a[:, H.index(2, 0)]
    expected = np.zeros(9, dtype=int)
    expected[H.index(0, 0)] = 1
    expected[H.index(1, 0)] = 1
    expected[H.index(2, 0)] = 1
    assert col.tolist() == expected.tolist()


def test_change_matrices_are_mutually_inverse():
    for p, h in [(2, 1), (2, 2), (3, 1), (5, 1)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        from_e = kron(change.P, change.P)
        to_e = kron(change.P_inv, change.P_inv)
        ident = FpMatrix.identity(H.ambient, p)
        assert to_e @ from_e == ident
        assert from_e @ to_e == ident


def test_e_basis_against_convolution_oracle():
    # (a-1)^x (b-1)^y expanded by repeated algebra multiplication
    for p, h in [(2, 1), (2, 2), (3, 1)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        from_e = kron(change.P, change.P)
        a_minus_1 = np.zeros(H.ambient, dtype=np.int64)
        a_minus_1[H.index(1, 0)] = 1
        a_minus_1[H.index(0, 0)] = p - 1
        b_minus_1 = np.zeros(H.ambient, dtype=np.int64)
        b_minus_1[H.index(0, 1)] = 1
        b_minus_1[H.index(0, 0)] = p - 1
        for x in range(H.q):
            for y in range(H.q):
                vec = np.zeros(H.ambient, dtype=np.int64)
                vec[0] = 1
                for _ in range(x):
                    vec = algebra_mul(vec, a_minus_1, H)
                for _ in range(y):
                    vec = algebra_mul(vec, b_minus_1, H)
                assert np.array_equal(vec, from_e.a[:, H.index(x, y)])


@pytest.mark.parametrize("p, h", [(2, 1), (2, 2), (3, 1), (5, 1), (3, 2)])
def test_kron_rows_against_dense_kron(p, h):
    q = p**h
    rng = np.random.default_rng(1000 * p + h)
    m = FpMatrix(rng.integers(0, p, (q, q)), p)
    dense = kron(m, m)
    for d in (0, 1, 7):
        rows = FpMatrix(rng.integers(0, p, (d, q * q)), p)
        out = _kron_rows(rows, m)
        assert out.a.shape == (d, q * q)
        assert out == rows @ dense


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (5, 1), (2, 3)])
def test_conjugate_to_e_against_dense_reference(p, h):
    H = AbelianH(p, h)
    change = build_e_basis(H)
    from_e = kron(change.P, change.P)
    to_e = kron(change.P_inv, change.P_inv)
    outer = outer_action(H, change)
    rng = np.random.default_rng(p + h)
    operators = [
        action_matrix(H, "a"),
        action_matrix(H, "b"),
        outer.phi,
        outer.psi,
        FpMatrix(rng.integers(0, p, (H.ambient, H.ambient)), p),
    ]
    for m in operators:
        expected = from_e.transpose() @ m @ to_e.transpose()
        assert change.conjugate_to_e(m) == expected


# -- action matrices ---------------------------------------------------------


def test_natural_action_is_regular_permutation():
    H = AbelianH(3, 1)
    m = action_matrix(H, "a", "natural")
    for i in range(3):
        for j in range(3):
            row = m.a[H.index(i, j)]
            assert row.sum() == 1
            assert row[H.index(i + 1, j)] == 1


def test_e_basis_action_equals_kron():
    for p, h in [(2, 1), (2, 2), (3, 1)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        m = unipotent_matrix(H.q, p)
        idq = FpMatrix.identity(H.q, p)
        assert action_matrix(H, "a", "e", change) == kron(m, idq)
        assert action_matrix(H, "b", "e", change) == kron(idq, m)


def test_action_matrices_commute_and_have_order_q():
    for p, h in [(2, 2), (3, 1)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        for basis in ("natural", "e"):
            a = action_matrix(H, "a", basis, change)
            b = action_matrix(H, "b", basis, change)
            assert a @ b == b @ a
            ident = FpMatrix.identity(H.ambient, p)
            assert a**H.q == ident
            assert a ** (H.q // p) != ident


def test_action_matrix_conjugation_between_bases():
    # A_e = N A_nat N^{-1} with N the e-vectors stacked as rows
    for p, h in [(2, 2), (3, 1)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        for gen in ("a", "b"):
            nat = action_matrix(H, gen, "natural")
            e = action_matrix(H, gen, "e", change)
            n_mat = kron(change.P, change.P).transpose()
            n_inv = kron(change.P_inv, change.P_inv).transpose()
            assert e == FpMatrix((n_mat @ nat @ n_inv).a, p)


def test_unknown_generator_and_basis_rejected():
    H = AbelianH(2, 1)
    with pytest.raises(ValueError):
        action_matrix(H, "c")
    with pytest.raises(ValueError):
        action_matrix(H, "a", "weird")


# -- filtration --------------------------------------------------------------


def test_chain_dims_q2():
    chain = gamma_chain(AbelianH(2, 1))
    assert [s.dim for s in chain] == [4, 3, 1, 0]


def test_chain_dims_against_pair_counting():
    for p, h in [(2, 2), (3, 1), (2, 3)]:
        H = AbelianH(p, h)
        chain = gamma_chain(H)
        q = H.q
        for i, sub in enumerate(chain):
            count = len([1 for x in range(q) for y in range(q) if x + y >= i])
            assert sub.dim == count


def test_chain_specific_dims():
    assert gamma_chain(AbelianH(2, 2))[3].dim == 10
    assert gamma_chain(AbelianH(3, 1))[2].dim == 6


def test_chain_multiplicativity():
    # each term times (a-1) or (b-1) lands one level deeper
    H = AbelianH(2, 2)
    change = build_e_basis(H)
    chain = gamma_chain(H, change)
    ident = FpMatrix.identity(H.ambient, H.p)
    steps = [
        action_matrix(H, "a", "e", change) - ident,
        action_matrix(H, "b", "e", change) - ident,
    ]
    for i in range(len(chain) - 1):
        for s in steps:
            assert chain[i].image(s) <= chain[i + 1]


def test_section_dims_formula():
    assert section_dims(gamma_chain(AbelianH(2, 1))) == [1, 2, 1]
    assert section_dims(gamma_chain(AbelianH(2, 2))) == [1, 2, 3, 4, 3, 2, 1]
    assert section_dims(gamma_chain(AbelianH(3, 1))) == [1, 2, 3, 2, 1]


def test_section_dims_symmetry():
    for p, h in [(2, 2), (3, 1), (5, 1)]:
        dims = section_dims(gamma_chain(AbelianH(p, h)))
        assert dims == dims[::-1]


# -- module generator counts -------------------------------------------------


def test_trivial_action_needs_every_vector():
    p = 2
    v = FpSubspace.from_rows(FpMatrix([[1, 0, 0], [0, 1, 0]], p))
    ident = FpMatrix.identity(3, p)
    assert min_generators_local(v, [ident], p) == 2


def test_top_module_rank_is_q():
    for p, h in [(2, 1), (2, 2), (3, 1)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        chain = gamma_chain(H, change)
        actions = [
            action_matrix(H, "a", "e", change),
            action_matrix(H, "b", "e", change),
        ]
        assert min_generators_local(chain[chain.top_index], actions, p) == H.q


def test_whole_algebra_is_cyclic():
    H = AbelianH(2, 2)
    change = build_e_basis(H)
    actions = [
        action_matrix(H, "a", "e", change),
        action_matrix(H, "b", "e", change),
    ]
    assert min_generators_local(FpSubspace.full(H.ambient, 2), actions, 2) == 1


def test_non_unipotent_generator_rejected():
    # a swap matrix over F_3 is not unipotent
    p = 3
    swap = FpMatrix([[0, 1], [1, 0]], p)
    v = FpSubspace.full(2, p)
    with pytest.raises(ValueError, match="not unipotent"):
        min_generators_local(v, [swap], p)


def test_unipotent_generators_with_non_p_group_rejected():
    # both generators are unipotent over F_2 but together they generate
    # all of GL_2(F_2), which has order 6; the descent certificate must
    # catch this even though the per-generator check passes
    p = 2
    g1 = FpMatrix([[1, 1], [0, 1]], p)
    g2 = FpMatrix([[1, 0], [1, 1]], p)
    v = FpSubspace.full(2, p)
    with pytest.raises(ValueError, match="not unipotent"):
        min_generators_local(v, [g1, g2], p)


def test_action_not_preserving_subspace_rejected():
    p = 2
    shift = FpMatrix([[1, 1], [0, 1]], p)
    line = FpSubspace.from_rows(FpMatrix([[1, 0]], p))
    with pytest.raises(ValueError, match="does not map"):
        min_generators_local(line, [shift], p)


def test_nakayama_cross_check_regenerates_module():
    # pick dim(V/VI) lifts and close under the actions: must regenerate V
    for p, h in [(2, 1), (2, 2), (3, 1)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        chain = gamma_chain(H, change)
        actions = [
            action_matrix(H, "a", "e", change),
            action_matrix(H, "b", "e", change),
        ]
        ident = FpMatrix.identity(H.ambient, p)
        for i in range(len(chain) - 1):
            v = chain[i]
            rank = min_generators_local(v, actions, p)
            vi = chain[i + 1]  # V*I equals the next term for this filtration
            lifts = []
            span = vi
            for row in v.basis.a:
                if not span.contains(row):
                    lifts.append(row)
                    span = span + FpSubspace.from_rows(FpMatrix([row], p))
            assert len(lifts) == rank
            # module closure of the lifts
            gen = FpSubspace.from_rows(FpMatrix(np.array(lifts), p))
            while True:
                grown = gen
                for m in actions:
                    grown = grown + grown.image(m)
                if grown == gen:
                    break
                gen = grown
            assert gen == v


# -- outer symmetries --------------------------------------------------------


def test_outer_action_involutions():
    for p, h in [(2, 1), (3, 1), (2, 2)]:
        H = AbelianH(p, h)
        out = outer_action(H)
        ident = FpMatrix.identity(H.ambient, p)
        assert out.phi @ out.phi == ident
        assert out.psi @ out.psi == ident
        assert out.phi @ out.psi == out.psi @ out.phi


def test_phi_q2_fixes_identity_and_ab():
    H = AbelianH(2, 1)
    out = outer_action(H)
    # basis order: 1, b, a, ab
    expect = np.zeros((4, 4), dtype=int)
    expect[H.index(0, 0), H.index(0, 0)] = 1
    expect[H.index(1, 0), H.index(0, 1)] = 1
    expect[H.index(0, 1), H.index(1, 0)] = 1
    expect[H.index(1, 1), H.index(1, 1)] = 1
    assert out.phi.a.tolist() == expect.tolist()


def test_top_term_invariance_under_outer_maps():
    for p, h in [(2, 1), (3, 1), (2, 2)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        chain = gamma_chain(H, change)
        out = outer_action(H, change, chain)
        top = chain[chain.top_index]
        for m in (out.phi, out.psi):
            m_e = change.conjugate_to_e(m)
            assert top.image(m_e) <= top


# -- index lower bound -------------------------------------------------------


def test_index_lower_bound_values():
    assert index_lower_bound(4, 4) == 1
    assert index_lower_bound(8, 4) == 2
    assert index_lower_bound(5, 4) == 2
    assert index_lower_bound(0, 4) == 0


def test_index_lower_bound_validation():
    with pytest.raises(ValueError):
        index_lower_bound(4, 0)
    with pytest.raises(ValueError):
        index_lower_bound(-1, 2)
