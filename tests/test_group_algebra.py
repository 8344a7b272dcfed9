from dataclasses import dataclass

import numpy as np
import pytest

from arcgen import field_linalg, group_algebra
from arcgen.field_linalg import FpMatrix, FpSubspace, mat_inverse
from arcgen.group_algebra import (
    AbelianH,
    EBasisChange,
    build_e_basis,
    gamma_chain,
    min_generators_local,
    outer_action,
    section_dims,
)
from oracles import (
    Span,
    _kron_rows,
    action_matrix,
    algebra_mul,
    conjugate_to_e_dense,
    dense_descent,
    descent,
    image_by_matrix,
    index_map_matrix,
    kron,
    level_span,
    module_closure,
    nakayama_count_by_closure,
    nakayama_count_by_descent,
    nakayama_count_dense,
    unipotent_matrix,
)


def _e_actions(H, change=None):
    """The dense e-basis matrices of a and b, by the oracle's q^2-wide conjugation."""
    change = change or build_e_basis(H)
    return [action_matrix(H, "a", "e", change), action_matrix(H, "b", "e", change)]


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


@pytest.mark.parametrize("p, h", [(2, 1), (2, 3), (3, 1), (5, 1)])
def test_build_e_basis_rejects_a_wrong_inverse(p, h, monkeypatch):
    # the q x q check P^-1 P = I stands for the round trip of every module
    # row through P ⊗ P and back; an inverse with one entry changed fails it
    from arcgen import group_algebra

    inverse = group_algebra.mat_inverse

    def wrong_inverse(m):
        inv = inverse(m).a.copy()
        inv[0, -1] = (inv[0, -1] + 1) % m.p
        return FpMatrix(inv, m.p)

    monkeypatch.setattr(group_algebra, "mat_inverse", wrong_inverse)
    with pytest.raises(AssertionError, match="wrong inverse"):
        build_e_basis(AbelianH(p, h))


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
    # the oracle's q^2-wide conjugation against full Kronecker products, and
    # the library's q x q one against both by the mixed-product rule
    H = AbelianH(p, h)
    q, change = H.q, build_e_basis(H)
    from_e = kron(change.P, change.P)
    to_e = kron(change.P_inv, change.P_inv)
    rng = np.random.default_rng(p + h)
    operators = [
        *(action_matrix(H, s) for s in ("a", "b", "phi", "psi")),
        FpMatrix(rng.integers(0, p, (H.ambient, H.ambient)), p),
    ]
    for m in operators:
        expected = from_e.transpose() @ m @ to_e.transpose()
        assert conjugate_to_e_dense(change, m) == expected
    for _ in range(3):
        m, m2 = (FpMatrix(rng.integers(0, p, (q, q)), p) for _ in range(2))
        dense = conjugate_to_e_dense(change, kron(m, m2))
        assert change.conjugate_to_e(m) == change.P.transpose() @ m @ change.P_inv.transpose()
        assert kron(change.conjugate_to_e(m), change.conjugate_to_e(m2)) == dense


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
    assert chain.top == level_span(2, 2, 1)


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
    # each term times (a-1) or (b-1) lands one level deeper, by the index
    # shifts and by the dense e-basis matrices alike
    H = AbelianH(2, 2)
    ident = FpMatrix.identity(H.ambient, H.p)
    steps = [g - ident for g in _e_actions(H)]
    shifts = gamma_chain(H).shifts
    for i in range(2 * H.q - 1):
        term, below = level_span(H.q, H.p, i), level_span(H.q, H.p, i + 1)
        for s, step in zip(shifts, steps):
            assert below.contains_space(term.image(s))
            assert Span.of(below).contains_space(image_by_matrix(term, step))


def test_descent_and_nakayama_count_form_no_ambient_wide_product(monkeypatch):
    # every term of the filtration and the top module are coordinate
    # subspaces, walked along the index shifts a - 1 and b - 1; the only
    # products are the q x q conjugation of a's factor, P^T A P^-T
    H = AbelianH(2, 4)
    change = build_e_basis(H)
    shapes = []
    matmul = field_linalg._matmul

    def counted_matmul(a, b, p):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, p)

    monkeypatch.setattr(field_linalg, "_matmul", counted_matmul)
    chain = gamma_chain(H, change)
    assert min_generators_local(chain.top, chain.shifts) == H.q
    q = H.q
    assert shapes == [((q, q), (q, q))] * 2


# every (p, h) with q <= 32
SMALL_Q = [(p, h) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for h in range(1, 6) if p**h <= 32]


@pytest.mark.parametrize("p, h", SMALL_Q)
def test_index_route_matches_the_dense_route(p, h):
    # the shifts are the dense e-basis a - 1 and b - 1; the step-by-step
    # walk along them gives the dense descent's terms, and the proved
    # filtration and C6's mask-walk count agree with both routes
    H = AbelianH(p, h)
    n, change = H.ambient, build_e_basis(H)
    chain = gamma_chain(H, change)
    actions = _e_actions(H, change)
    ident = FpMatrix.identity(n, p)
    for s, g in zip(chain.shifts, actions):
        assert index_map_matrix(s, p) == g - ident
    full = FpSubspace.full(n, p)
    terms = list(descent(full, chain.shifts))
    dense = dense_descent(full, actions, p)
    assert [Span.of(t) for t in terms] == dense
    assert [n, *(t.dim for t in terms)] == [n, *(t.dim for t in dense)] == chain.dims
    assert terms[H.q - 2] == chain.top and Span.of(chain.top) == dense[H.q - 2]
    rank = min_generators_local(chain.top, chain.shifts)
    assert rank == nakayama_count_by_descent(chain.top, chain.shifts) == H.q
    assert rank == nakayama_count_dense(chain.top, actions, p)


@pytest.mark.parametrize("p, h", [(2, 6), (3, 4), (2, 7)])
def test_filtration_and_module_rank_at_scale(p, h):
    # q = 64, 81 and 128: ambient 4096 to 16384, where one dense q^2 x q^2
    # matrix alone would take 128 MB to 2 GB
    H = AbelianH(p, h)
    q, chain = H.q, gamma_chain(H)
    assert min_generators_local(chain.top, chain.shifts) == q
    assert section_dims(chain) == [min(i + 1, 2 * q - 1 - i) for i in range(2 * q - 1)]
    terms = list(descent(FpSubspace.full(H.ambient, p), chain.shifts))
    assert [H.ambient, *(t.dim for t in terms)] == chain.dims
    assert terms[q - 2] == chain.top
    assert nakayama_count_by_descent(chain.top, chain.shifts) == q


def _gamma_chain_with_shifts(monkeypatch, H, corrupt):
    # gamma_chain on index shifts that `corrupt` changes in place
    e_shifts = group_algebra._e_shifts

    def corrupted(q):
        shifts = e_shifts(q)
        corrupt(*shifts)
        return shifts

    monkeypatch.setattr(group_algebra, "_e_shifts", corrupted)
    return gamma_chain(H)


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (2, 3), (5, 1)])
def test_gamma_chain_rejects_a_shift_that_jumps_two_levels(p, h, monkeypatch):
    # a - 1 sending e_xy to e_(x+2,y): the per-shift level test fails
    # before the first step is formed
    H = AbelianH(p, h)

    def jump(a, b):
        a[:] = np.where(a >= 0, a + H.q, -1)
        a[a >= H.ambient] = -1

    with pytest.raises(AssertionError, match="raise the level by one"):
        _gamma_chain_with_shifts(monkeypatch, H, jump)


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (2, 3), (5, 1)])
def test_gamma_chain_rejects_an_e_without_a_preimage(p, h, monkeypatch):
    # a - 1 killing e_00 leaves e_10 with no preimage: each shift still
    # raises the level by one where it is defined, and the first step fails
    def drop(a, b):
        a[0] = -1

    with pytest.raises(AssertionError, match="step 1"):
        _gamma_chain_with_shifts(monkeypatch, AbelianH(p, h), drop)


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (2, 3), (5, 1)])
def test_gamma_chain_rejects_a_first_step_that_drops_an_e(p, h, monkeypatch):
    # the subspace images of the first step lose their last column
    image = FpSubspace.image

    def lossy(self, targets):
        cols = image(self, targets).pivots
        return FpSubspace.coordinate(self.ambient_dim, cols[:-1], self.p)

    monkeypatch.setattr(FpSubspace, "image", lossy)
    with pytest.raises(AssertionError, match="step 1"):
        gamma_chain(AbelianH(p, h))


@pytest.mark.parametrize("seed", range(6))
def test_mask_walk_count_against_the_subspace_walk_on_random_shifts(seed):
    # random partial index maps, most of them nilpotent, on coordinate
    # subspaces, most of them closed under the maps: the count, or the
    # error, matches the step-by-step walk
    rng = np.random.default_rng(seed)
    outcomes = set()
    for _ in range(40):
        n, p = int(rng.integers(1, 30)), int(rng.choice([2, 3, 5]))
        rank = rng.permutation(n)  # a map that raises this rank is nilpotent
        shifts = []
        for _ in range(int(rng.integers(0, 4))):
            t = rng.integers(-1, n, n)
            if rng.random() < 0.7:
                t = np.where(rank[np.maximum(t, 0)] > rank, t, -1)
            shifts.append(t)
        cols = set(np.flatnonzero(rng.random(n) < 0.3).tolist())
        todo = list(cols) if rng.random() < 0.7 else []  # close V under the shifts
        while todo:
            k = todo.pop()
            for t in shifts:
                if t[k] >= 0 and int(t[k]) not in cols:
                    cols.add(int(t[k]))
                    todo.append(int(t[k]))
        v = FpSubspace.coordinate(n, sorted(cols), p)
        try:
            expected = nakayama_count_by_descent(v, shifts)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                min_generators_local(v, shifts)
            outcomes.add(str(exc))
        else:
            assert min_generators_local(v, shifts) == expected
            outcomes.add("count")
    assert len(outcomes) == 3


@pytest.mark.parametrize("p, h", [(2, 1), (2, 3), (3, 1), (5, 1)])
def test_gamma_chain_rejects_a_corrupted_basis_change(p, h):
    # P with two columns swapped (and its true inverse) is still a basis
    # change, but not to the filtered basis: a's factor is no longer I + N
    H = AbelianH(p, h)
    P = build_e_basis(H).P
    cols = np.arange(H.q)
    cols[[0, 1]] = cols[[1, 0]]
    swapped = FpMatrix(P.a[:, cols], p)
    with pytest.raises(AssertionError, match="I \\+ N"):
        gamma_chain(H, EBasisChange(H, swapped, mat_inverse(swapped)))


def test_section_dims_formula():
    assert section_dims(gamma_chain(AbelianH(2, 1))) == [1, 2, 1]
    assert section_dims(gamma_chain(AbelianH(2, 2))) == [1, 2, 3, 4, 3, 2, 1]
    assert section_dims(gamma_chain(AbelianH(3, 1))) == [1, 2, 3, 2, 1]


def test_section_dims_symmetry():
    for p, h in [(2, 2), (3, 1), (5, 1)]:
        dims = section_dims(gamma_chain(AbelianH(p, h)))
        assert dims == dims[::-1]


# -- module generator counts -------------------------------------------------


# Each library count below takes the index map of g - 1, and the dense
# oracle count takes g itself; both must agree.


def test_trivial_action_needs_every_vector():
    p = 2
    v = FpSubspace.coordinate(3, [0, 1], p)
    ident = FpMatrix.identity(3, p)
    assert min_generators_local(v, [[-1, -1, -1]]) == 2
    assert nakayama_count_dense(v, [ident], p) == 2


def test_top_module_rank_is_q():
    for p, h in [(2, 1), (2, 2), (3, 1)]:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        chain = gamma_chain(H, change)
        assert min_generators_local(chain.top, chain.shifts) == H.q
        assert nakayama_count_dense(chain.top, _e_actions(H, change), p) == H.q


def test_whole_algebra_is_cyclic():
    H = AbelianH(2, 2)
    full = FpSubspace.full(H.ambient, 2)
    assert min_generators_local(full, gamma_chain(H).shifts) == 1
    assert nakayama_count_dense(full, _e_actions(H), 2) == 1


def test_non_unipotent_generator_rejected():
    # a swap matrix over F_3 is not unipotent, and neither is 1 + swap
    p = 3
    swap = FpMatrix([[0, 1], [1, 0]], p)
    v = FpSubspace.full(2, p)
    with pytest.raises(ValueError, match="not unipotent"):
        min_generators_local(v, [[1, 0]])
    with pytest.raises(ValueError, match="not unipotent"):
        nakayama_count_dense(v, [swap], p)


def test_action_keeping_v_but_not_unipotent_on_it_rejected_by_descent():
    # g = diag(2, 1, 1) over F_3 keeps V = <e0, e1>, and V(g - 1) = <e0>
    # is fixed by g - 1, so the descent stalls above zero; no other check
    # rejects g
    p = 3
    g = FpMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]], p)
    v = FpSubspace.coordinate(3, [0, 1], p)
    with pytest.raises(ValueError, match="not unipotent"):
        min_generators_local(v, [[0, -1, -1]])
    with pytest.raises(ValueError, match="not unipotent"):
        nakayama_count_dense(v, [g], p)


def test_action_unipotent_on_v_only_is_counted():
    # g = diag(1, 2) over F_3 is not unipotent on F_3^2, but it fixes
    # V = <e0> pointwise: V is one trivial module, generated by one vector
    p = 3
    g = FpMatrix([[1, 0], [0, 2]], p)
    v = FpSubspace.coordinate(2, [0], p)
    assert min_generators_local(v, [[-1, 1]]) == 1
    assert nakayama_count_dense(v, [g], p) == 1


def test_unipotent_generators_with_non_p_group_rejected():
    # both generators are unipotent over F_2 but together they generate
    # all of GL_2(F_2), which has order 6; the descent certificate must
    # catch this even though the per-generator check passes
    p = 2
    g1 = FpMatrix([[1, 1], [0, 1]], p)
    g2 = FpMatrix([[1, 0], [1, 1]], p)
    v = FpSubspace.full(2, p)
    with pytest.raises(ValueError, match="not unipotent"):
        min_generators_local(v, [[1, -1], [-1, 0]])
    with pytest.raises(ValueError, match="not unipotent"):
        nakayama_count_dense(v, [g1, g2], p)


def test_action_not_preserving_subspace_rejected():
    p = 2
    shift = FpMatrix([[1, 1], [0, 1]], p)
    line = FpSubspace.coordinate(2, [0], p)
    with pytest.raises(ValueError, match="does not map"):
        min_generators_local(line, [[1, -1]])
    with pytest.raises(ValueError, match="does not map"):
        nakayama_count_dense(line, [shift], p)


def test_nakayama_cross_check_regenerates_module():
    # pick dim(V/VI) lifts and close under the actions: must regenerate V
    for p, h in [(2, 1), (2, 2), (3, 1)]:
        H = AbelianH(p, h)
        actions = _e_actions(H)
        shifts = gamma_chain(H).shifts
        for i in range(2 * H.q - 1):
            v = level_span(H.q, p, i)
            rank = min_generators_local(v, shifts)
            vi = level_span(H.q, p, i + 1)  # V*I equals the next term here
            lifts = []
            span = Span.of(vi)
            for row in Span.of(v).basis:
                if not span.contains(row):
                    lifts.append(row)
                    span = span + Span(row, H.ambient, p)
            assert len(lifts) == rank
            # module closure of the lifts
            gen = Span(lifts, H.ambient, p)
            assert module_closure(gen, actions) == Span.of(v)


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (2, 3)])
def test_nakayama_count_against_closure_reference_on_every_term(p, h):
    H = AbelianH(p, h)
    actions = _e_actions(H)
    shifts = gamma_chain(H).shifts
    for i in range(2 * H.q):
        v = level_span(H.q, p, i)
        expected = nakayama_count_by_closure(v, actions, p)
        assert min_generators_local(v, shifts) == expected
        assert nakayama_count_by_descent(v, shifts) == expected
        assert nakayama_count_dense(v, actions, p) == expected


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
        v = module_closure(Span(seeds, n * n, p), actions)
        expected = nakayama_count_by_closure(v, actions, p)
        assert nakayama_count_dense(v, actions, p) == expected
        counts.add(expected)
    assert len(counts) > 1


def test_empty_action_list_needs_every_vector():
    v = level_span(4, 2, 3)
    assert min_generators_local(v, []) == v.dim == 10
    for w in (FpSubspace.zero(16, 2), FpSubspace.full(16, 2), level_span(3, 3, 2)):
        assert min_generators_local(w, ()) == w.dim
    assert nakayama_count_dense(v, [], 2) == v.dim
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
            image = image_by_matrix(top, action_matrix(H, name, "e", change))
            assert Span.of(top).contains_space(image)


@dataclass(frozen=True)
class _SwapAAndASquared(AbelianH):
    """H whose psi swaps a and a^2 in each factor: for q > 3 an involution
    that commutes with phi and is a Kronecker square, but no automorphism."""

    def psi_factor(self):
        r = np.arange(self.q)
        r[[1, 2]] = [2, 1]
        return r

    def index_map(self, s):
        if s != "psi":
            return super().index_map(s)
        r = self.psi_factor()
        return (r[:, None] * self.q + r[None, :]).reshape(-1)


@pytest.mark.parametrize("p, h", [(2, 2), (5, 1), (2, 3), (7, 1)])
def test_outer_action_rejects_a_corrupted_psi_factor(p, h, monkeypatch):
    # the corrupted factor passes the index-map checks, and only its e-basis
    # factor from the shared conjugate_to_e shows the filtration is not kept
    H = _SwapAAndASquared(p, h)
    seen = []
    conjugate = EBasisChange.conjugate_to_e

    def spied(self, m):
        seen.append(m.a.copy())
        return conjugate(self, m)

    monkeypatch.setattr(EBasisChange, "conjugate_to_e", spied)
    with pytest.raises(AssertionError, match="not invariant under psi"):
        outer_action(H, build_e_basis(H))
    assert len(seen) == 1
    assert np.array_equal(seen[0], np.eye(H.q, dtype=np.int64)[H.psi_factor()])


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
        m_e = conjugate_to_e_dense(change, action_matrix(H, name))
        for i in range(2 * H.q):
            span = Span.of(level_span(H.q, H.p, i))
            if not span.contains_space(image_by_matrix(span, m_e)):
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
