import numpy as np
import pytest

from arcgen import field_linalg, group_algebra
from arcgen.field_linalg import FpMatrix, FpSubspace, mat_inverse
from arcgen.group_algebra import (
    AbelianH,
    EBasisChange,
    _e_unit_span,
    _kron_rows,
    action_matrix,
    build_e_basis,
    gamma_chain,
    min_generators_local,
    outer_action,
    section_dims,
)
from oracles import (
    algebra_mul,
    kron,
    module_closure,
    nakayama_count_by_closure,
    unipotent_matrix,
)


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
    rng = np.random.default_rng(p + h)
    operators = [
        *(action_matrix(H, s) for s in ("a", "b", "phi", "psi")),
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
    assert chain.dims == [4, 3, 1, 0]
    assert chain.top == _e_unit_span(2, 2, 1)


def test_chain_dims_against_pair_counting():
    for p, h in [(2, 2), (3, 1), (2, 3)]:
        H = AbelianH(p, h)
        chain = gamma_chain(H)
        q = H.q
        assert len(chain.dims) == 2 * q
        for i, dim in enumerate(chain.dims):
            count = len([1 for x in range(q) for y in range(q) if x + y >= i])
            assert dim == count
        assert chain.top.dim == chain.dims[q - 1]


def test_chain_specific_dims():
    assert gamma_chain(AbelianH(2, 2)).dims[3] == 10
    assert gamma_chain(AbelianH(3, 1)).dims[2] == 6


def test_chain_multiplicativity():
    # each term times (a-1) or (b-1) lands one level deeper
    H = AbelianH(2, 2)
    change = build_e_basis(H)
    ident = FpMatrix.identity(H.ambient, H.p)
    steps = [
        action_matrix(H, "a", "e", change) - ident,
        action_matrix(H, "b", "e", change) - ident,
    ]
    for i in range(2 * H.q - 1):
        for s in steps:
            assert _e_unit_span(H.q, H.p, i).image(s) <= _e_unit_span(H.q, H.p, i + 1)


def test_descent_and_nakayama_count_form_no_ambient_wide_product(monkeypatch):
    # every term of the filtration and the top module are coordinate
    # subspaces, and the shifts a - 1 and b - 1 map unit rows to unit rows
    # or zero, so neither walk multiplies by a q^2 x q^2 matrix; only the
    # basis change inside action_matrix multiplies, and by q x q factors
    H = AbelianH(2, 4)
    inner_dims, in_action = [], []
    matmul, action = field_linalg._matmul, group_algebra.action_matrix

    def counted_matmul(a, b, p):
        if not in_action:
            inner_dims.append(a.shape[1])
        return matmul(a, b, p)

    def traced_action(*args, **kwargs):
        in_action.append(1)
        try:
            return action(*args, **kwargs)
        finally:
            in_action.pop()

    monkeypatch.setattr(field_linalg, "_matmul", counted_matmul)
    monkeypatch.setattr(group_algebra, "action_matrix", traced_action)
    chain = gamma_chain(H)
    assert min_generators_local(chain.top, list(chain.actions), 2) == H.q
    assert H.ambient not in inner_dims


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
        assert min_generators_local(chain.top, actions, p) == H.q


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


def test_action_keeping_v_but_not_unipotent_on_it_rejected_by_descent():
    # g = diag(2, 1, 1) over F_3 keeps V = <e0, e1>, and V(g - 1) = <e0>
    # is fixed by g - 1, so the descent stalls above zero; no other check
    # rejects g
    p = 3
    g = FpMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]], p)
    v = FpSubspace.from_rows(FpMatrix([[1, 0, 0], [0, 1, 0]], p))
    with pytest.raises(ValueError, match="not unipotent"):
        min_generators_local(v, [g], p)


def test_action_unipotent_on_v_only_is_counted():
    # g = diag(1, 2) over F_3 is not unipotent on F_3^2, but it fixes
    # V = <e0> pointwise: V is one trivial module, generated by one vector
    p = 3
    g = FpMatrix([[1, 0], [0, 2]], p)
    v = FpSubspace.from_rows(FpMatrix([[1, 0]], p))
    assert min_generators_local(v, [g], p) == 1


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
        actions = [
            action_matrix(H, "a", "e", change),
            action_matrix(H, "b", "e", change),
        ]
        for i in range(2 * H.q - 1):
            v = _e_unit_span(H.q, p, i)
            rank = min_generators_local(v, actions, p)
            vi = _e_unit_span(H.q, p, i + 1)  # V*I equals the next term here
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


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (2, 3)])
def test_nakayama_count_against_closure_reference_on_every_term(p, h):
    H = AbelianH(p, h)
    change = build_e_basis(H)
    actions = [
        action_matrix(H, "a", "e", change),
        action_matrix(H, "b", "e", change),
    ]
    for i in range(2 * H.q):
        v = _e_unit_span(H.q, p, i)
        expected = nakayama_count_by_closure(v, actions, p)
        assert min_generators_local(v, actions, p) == expected


@pytest.mark.parametrize("n, p", [(3, 3), (4, 2)])
def test_nakayama_count_against_closure_reference_on_unitriangular_groups(n, p):
    # UT_n(F_p), generated by the elementary matrices I + E_ij (i < j), is a
    # non-abelian p-group; it acts on F_p^n ⊗ F_p^n by g ⊗ g
    actions = []
    for i in range(n):
        for j in range(i + 1, n):
            e = np.eye(n, dtype=np.int64)
            e[i, j] = 1
            actions.append(kron(FpMatrix(e, p), FpMatrix(e, p)))
    # I + E_12 and I + E_23 do not commute
    assert actions[0] @ actions[n - 1] != actions[n - 1] @ actions[0]
    rng = np.random.default_rng(10 * n + p)
    counts = set()
    for _ in range(12):
        seeds = rng.integers(0, p, (int(rng.integers(1, 4)), n * n))
        v = module_closure(FpSubspace.from_rows(FpMatrix(seeds, p)), actions)
        expected = nakayama_count_by_closure(v, actions, p)
        assert min_generators_local(v, actions, p) == expected
        counts.add(expected)
    assert len(counts) > 1


def test_empty_action_list_needs_every_vector():
    v = _e_unit_span(4, 2, 3)
    assert min_generators_local(v, [], 2) == v.dim == 10
    assert nakayama_count_by_closure(v, [], 2) == v.dim


# -- outer symmetries --------------------------------------------------------


def test_outer_action_involutions():
    for p, h in [(2, 1), (3, 1), (2, 2)]:
        H = AbelianH(p, h)
        outer_action(H)
        phi, psi = action_matrix(H, "phi"), action_matrix(H, "psi")
        ident = FpMatrix.identity(H.ambient, p)
        assert phi @ phi == ident
        assert psi @ psi == ident
        assert phi @ psi == psi @ phi


def test_phi_q2_fixes_identity_and_ab():
    H = AbelianH(2, 1)
    # basis order: 1, b, a, ab
    expect = np.zeros((4, 4), dtype=int)
    expect[H.index(0, 0), H.index(0, 0)] = 1
    expect[H.index(1, 0), H.index(0, 1)] = 1
    expect[H.index(0, 1), H.index(1, 0)] = 1
    expect[H.index(1, 1), H.index(1, 1)] = 1
    assert action_matrix(H, "phi").a.tolist() == expect.tolist()


def test_top_term_invariance_under_outer_maps():
    for p, h in [(2, 1), (3, 1), (2, 2)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        top = gamma_chain(H, change).top
        outer_action(H, change)
        for name in ("phi", "psi"):
            assert top.image(action_matrix(H, name, "e", change)) <= top


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1)])
def test_outer_action_rejects_the_natural_basis(p, h):
    # psi sends a^(q-1), of level q - 1, to a, of level 1
    H = AbelianH(p, h)
    ident = FpMatrix.identity(H.q, p)
    with pytest.raises(AssertionError, match="invariant"):
        outer_action(H, EBasisChange(H, ident, ident))


def _keeps_every_term(H, change):
    """The per-term reference: phi and psi map each filtration term into itself."""
    for name in ("phi", "psi"):
        m_e = change.conjugate_to_e(action_matrix(H, name))
        for i in range(2 * H.q):
            span = _e_unit_span(H.q, H.p, i)
            if not span.contains((span.basis @ m_e).a):
                return False
    return True


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (5, 1), (2, 3)])
def test_outer_action_level_test_against_per_term_reference(p, h):
    H = AbelianH(p, h)
    q, P_true = H.q, build_e_basis(H).P
    rng = np.random.default_rng(10 * p + h)
    unit = np.eye(q, dtype=np.int64)
    factors = []
    for _ in range(4):
        # upper unitriangular; P_true times lower unitriangular, a basis of
        # the same filtration; and unstructured
        factors.append(FpMatrix(np.triu(rng.integers(0, p, (q, q)), 1) + unit, p))
        lower = FpMatrix(np.tril(rng.integers(0, p, (q, q)), -1) + unit, p)
        factors.append(P_true @ lower)
        factors.append(FpMatrix(rng.integers(0, p, (q, q)), p))
    outcomes = set()
    for P in factors:
        try:
            P_inv = mat_inverse(P)
        except ValueError:
            continue
        change = EBasisChange(H, P, P_inv)
        keeps = _keeps_every_term(H, change)
        outcomes.add(keeps)
        if keeps:
            outer_action(H, change)
        else:
            with pytest.raises(AssertionError, match="invariant"):
                outer_action(H, change)
    assert outcomes == {True, False}
