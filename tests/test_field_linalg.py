import numpy as np
import pytest

from arcgen.field_linalg import (
    MAX_MODULUS,
    FpMatrix,
    FpSubspace,
    ModulusMismatchError,
    is_prime,
    mat_inverse,
    rref,
)
from oracles import kron, matmul_by_int64, prime_power_exponent, quotient_dim, unipotent_matrix


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


def test_prime_power_exponent():
    assert prime_power_exponent(8, 2) == 3
    assert prime_power_exponent(9, 3) == 2
    assert prime_power_exponent(2, 2) == 1
    assert prime_power_exponent(1, 2) is None
    assert prime_power_exponent(12, 2) is None
    assert prime_power_exponent(8, 4) is None


def test_matrix_entries_are_reduced():
    m = FpMatrix([[5, -1], [7, 3]], 3)
    assert m.a.tolist() == [[2, 2], [1, 0]]


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        FpMatrix([[1]], 4)


def test_modulus_mismatch_is_hard_error():
    a = FpMatrix([[1]], 2)
    b = FpMatrix([[1]], 3)
    with pytest.raises(ModulusMismatchError):
        a @ b
    with pytest.raises(ModulusMismatchError):
        a + b
    with pytest.raises(ModulusMismatchError):
        kron(a, b)


# -- rref --------------------------------------------------------------------


def test_rref_zero_matrix():
    red, rank = rref(FpMatrix.zeros(2, 2, 2))
    assert rank == 0
    assert red.is_zero()


def test_rref_identity():
    red, rank = rref(FpMatrix.identity(3, 3))
    assert rank == 3
    assert red == FpMatrix.identity(3, 3)


def test_rref_repeated_rows_mod2():
    # hand row-reduction: second row cancels against the first
    red, rank = rref(FpMatrix([[1, 1], [1, 1]], 2))
    assert rank == 1
    assert red.a.tolist() == [[1, 1], [0, 0]]


def test_rref_hand_example_mod3():
    # worked by hand: swap, eliminate, normalize
    m = FpMatrix([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 3)
    red, rank = rref(m)
    assert rank == 2
    assert red.a.tolist() == [[1, 0, 2], [0, 1, 2], [0, 0, 0]]


def test_rref_preserves_row_space():
    rng = np.random.default_rng(20240811)
    for p in (2, 3, 5):
        for _ in range(20):
            m = FpMatrix(rng.integers(0, p, size=(4, 5)), p)
            red, rank = rref(m)
            # every original row reduces to zero against the new basis
            space = FpSubspace.from_rows(red)
            assert space.dim == rank
            for row in m.a:
                assert space.contains(row)


def test_rref_is_idempotent_and_canonical():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = FpMatrix(rng.integers(0, 2, size=(3, 6)), 2)
        red, _ = rref(m)
        again, _ = rref(red)
        assert red == again


# -- kron --------------------------------------------------------------------


def test_kron_identity_blocks():
    id2 = FpMatrix.identity(2, 2)
    assert kron(id2, id2) == FpMatrix.identity(4, 2)


def test_kron_unipotent_by_identity():
    # expand the definition by hand: [[I, I], [0, I]] in 2x2 blocks
    m = unipotent_matrix(2, 2)
    id2 = FpMatrix.identity(2, 2)
    expected = FpMatrix(
        [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], 2
    )
    assert kron(m, id2) == expected


def test_kron_index_formula_oracle():
    rng = np.random.default_rng(99)
    for p in (2, 3, 5):
        a = FpMatrix(rng.integers(0, p, size=(2, 3)), p)
        b = FpMatrix(rng.integers(0, p, size=(3, 2)), p)
        k = kron(a, b)
        assert k.rows == a.rows * b.rows and k.cols == a.cols * b.cols
        for i in range(a.rows):
            for j in range(a.cols):
                for r in range(b.rows):
                    for c in range(b.cols):
                        want = (a.a[i, j] * b.a[r, c]) % p
                        assert k.a[i * b.rows + r, j * b.cols + c] == want


def test_kron_rank_is_multiplicative():
    rng = np.random.default_rng(5)
    for p in (2, 3):
        for _ in range(10):
            a = FpMatrix(rng.integers(0, p, size=(3, 3)), p)
            b = FpMatrix(rng.integers(0, p, size=(2, 4)), p)
            _, ra = rref(a)
            _, rb = rref(b)
            _, rk = rref(kron(a, b))
            assert rk == ra * rb


# -- unipotent matrix --------------------------------------------------------


def test_unipotent_smallest_case():
    assert unipotent_matrix(2, 2).a.tolist() == [[1, 1], [0, 1]]


def test_unipotent_orders():
    for q, p in [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (5, 5)]:
        m = unipotent_matrix(q, p)
        ident = FpMatrix.identity(q, p)
        assert m**q == ident
        assert m ** (q // p) != ident


def test_unipotent_rejects_non_power():
    with pytest.raises(ValueError):
        unipotent_matrix(6, 2)
    with pytest.raises(ValueError):
        unipotent_matrix(4, 3)


# -- subspaces ---------------------------------------------------------------


def test_subspace_canonical_representation():
    # two different spanning sets of the same plane in F_2^3
    s1 = FpSubspace.from_rows(FpMatrix([[1, 1, 0], [0, 1, 1]], 2))
    s2 = FpSubspace.from_rows(FpMatrix([[1, 0, 1], [0, 1, 1]], 2))
    assert s1 == s2
    assert s1.basis.a.tobytes() == s2.basis.a.tobytes()


def test_subspace_sum_of_complementary_lines():
    l1 = FpSubspace.from_rows(FpMatrix([[1, 0]], 3))
    l2 = FpSubspace.from_rows(FpMatrix([[0, 1]], 3))
    assert (l1 + l2).dim == 2
    assert (l1 + l2) == FpSubspace.full(2, 3)


def test_quotient_dims():
    v = FpSubspace.from_rows(FpMatrix([[1, 0, 1], [0, 1, 0]], 2))
    assert quotient_dim(v, v) == 0
    assert quotient_dim(FpSubspace.zero(3, 2), FpSubspace.full(3, 2)) == 3
    with pytest.raises(ValueError):
        quotient_dim(FpSubspace.full(3, 2), v)


def test_subspace_membership():
    v = FpSubspace.from_rows(FpMatrix([[1, 0, 1], [0, 1, 0]], 2))
    assert v.contains([1, 1, 1])
    assert not v.contains([0, 0, 1])
    assert v.contains([0, 0, 0])


def test_subspace_membership_of_a_stack():
    v = FpSubspace.from_rows(FpMatrix([[1, 0, 1], [0, 1, 0]], 2))
    assert v.contains([[1, 1, 1], [0, 1, 0], [1, 0, 1]])
    # one row outside, in any position, fails the whole stack
    assert not v.contains([[1, 1, 1], [0, 0, 1]])
    assert not v.contains([[0, 0, 1], [1, 1, 1]])
    assert v.contains(np.zeros((0, 3), dtype=np.int64))
    assert FpSubspace.zero(3, 2).contains([[0, 0, 0], [0, 2, 0]])
    for bad in ([1, 1], [[1, 1]], np.zeros((1, 1, 3))):
        with pytest.raises(ValueError):
            v.contains(bad)


def test_mat_inverse_round_trip():
    rng = np.random.default_rng(12)
    for p in (2, 3, 5):
        found = 0
        while found < 5:
            m = FpMatrix(rng.integers(0, p, size=(4, 4)), p)
            try:
                inv = mat_inverse(m)
            except ValueError:
                continue
            found += 1
            assert m @ inv == FpMatrix.identity(4, p)
            assert inv @ m == FpMatrix.identity(4, p)


def test_mat_inverse_singular():
    with pytest.raises(ValueError):
        mat_inverse(FpMatrix([[1, 1], [1, 1]], 2))


# -- the product kernel ------------------------------------------------------


def _random(rng, shape, p):
    return rng.integers(0, p, size=shape, dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 65521])
def test_matmul_matches_int64_oracle(p):
    rng = np.random.default_rng([p, 5])
    # the last two shapes pass 2^20 multiply-adds, where BLAS takes over
    shapes = [(0, 5, 3), (4, 3, 1), (1, 7, 1), (5, 1, 4), (3, 0, 2), (17, 33, 9), (64, 64, 64),
              (128, 96, 100), (1, 1024, 1024)]
    for m, k, n in shapes:
        a, b = _random(rng, (m, k), p), _random(rng, (k, n), p)
        got = (FpMatrix(a, p) @ FpMatrix(b, p)).a
        assert got.dtype == np.int64
        assert np.array_equal(got, matmul_by_int64(a, b, p)), (m, k, n)


def test_matmul_1024_at_p2():
    # the whole int64 product takes seconds, so the oracle checks 64 whole
    # columns, and Freivalds' test with 16 vectors checks the rest (a wrong
    # product passes it with probability at most 2^-16)
    rng = np.random.default_rng(1024)
    a, b = _random(rng, (1024, 1024), 2), _random(rng, (1024, 1024), 2)
    c = (FpMatrix(a, 2) @ FpMatrix(b, 2)).a
    cols = rng.choice(1024, size=64, replace=False)
    assert np.array_equal(c[:, cols], matmul_by_int64(a, b[:, cols], 2))
    x = _random(rng, (1024, 16), 2)
    assert np.array_equal(matmul_by_int64(c, x, 2), matmul_by_int64(a, matmul_by_int64(b, x, 2), 2))


# p = 2965819 puts the float64 bound k * (p-1)^2 < 2^53 at k = 1024 exactly
BOUND_P = 2965819


def test_bound_prime_sits_on_the_float64_bound():
    assert is_prime(BOUND_P)
    assert 1024 * (BOUND_P - 1) ** 2 < 2**53 <= 1025 * (BOUND_P - 1) ** 2


@pytest.mark.parametrize("k", [1023, 1024, 1025, 1100])
def test_matmul_on_both_sides_of_the_float64_bound(k):
    p = BOUND_P
    rng = np.random.default_rng([k, 53])
    # entries near p - 1 push every inner sum close to k * (p-1)^2, and
    # 32 * k * 32 multiply-adds are enough for BLAS below the bound
    a = p - 1 - rng.integers(0, 1000, size=(32, k), dtype=np.int64)
    b = p - 1 - rng.integers(0, 1000, size=(k, 32), dtype=np.int64)
    assert np.array_equal((FpMatrix(a, p) @ FpMatrix(b, p)).a, matmul_by_int64(a, b, p))


def test_matmul_large_modulus_does_not_overflow():
    # 4 * (p-1)^2 passes 2^63; the plain int64 product returns [[0]]
    p = 2**31 - 1
    row = FpMatrix([[p - 1] * 4], p)
    col = FpMatrix([[p - 1]] * 4, p)
    assert (row @ col).a.tolist() == [[4]]
    rng = np.random.default_rng(31)
    a, b = _random(rng, (5, 9), p), _random(rng, (9, 3), p)
    assert np.array_equal((FpMatrix(a, p) @ FpMatrix(b, p)).a, matmul_by_int64(a, b, p))
    m = FpMatrix(a[:, :5], p)
    assert np.array_equal((m**3).a, matmul_by_int64(matmul_by_int64(m.a, m.a, p), m.a, p))


def test_modulus_at_or_above_the_limit_is_refused():
    # one product of two residues of 4294967291 already passes 2^63
    for p in (MAX_MODULUS, 4294967291):
        with pytest.raises(ValueError):
            FpMatrix([[p - 1]], p)
    assert is_prime(4294967291)


def test_rref_and_inverse_exact_at_a_large_modulus():
    p = 2**31 - 1
    rng = np.random.default_rng(7)
    m = FpMatrix(_random(rng, (6, 6), p), p)
    inv = mat_inverse(m)
    assert m @ inv == FpMatrix.identity(6, p)
    assert np.array_equal(matmul_by_int64(m.a, inv.a, p), np.eye(6, dtype=np.int64))


# -- subspace arithmetic against stack-and-rref -------------------------------


def _span_by_rref(rows, p):
    red, rank = rref(FpMatrix(rows, p))
    return red.a[:rank]


def _random_rows(rng, count, rank, n, p):
    """`count` rows spanning a random subspace of dimension at most `rank`."""
    return matmul_by_int64(_random(rng, (count, rank), p), _random(rng, (rank, n), p), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_subspace_operations_match_stack_and_rref(p):
    rng = np.random.default_rng([p, 2024])
    n = 12
    for _ in range(30):
        r1, r2 = rng.integers(0, n + 1, size=2)
        rows1 = _random_rows(rng, int(rng.integers(0, 15)), int(r1), n, p)
        rows2 = _random_rows(rng, int(rng.integers(0, 15)), int(r2), n, p)
        u = FpSubspace.from_rows(FpMatrix(rows1, p))
        w = FpSubspace.from_rows(FpMatrix(rows2, p))
        assert np.array_equal(u.basis.a, _span_by_rref(rows1, p))
        stacked = np.vstack([u.basis.a, w.basis.a])
        span = _span_by_rref(stacked, p)
        assert np.array_equal((u + w).basis.a, span)
        assert u + w == w + u
        assert u.contains_space(w) == (len(span) == u.dim)
        assert u.contains(rows2) == u.contains_space(w)
        assert u.contains(rows2) == all(u.contains(row) for row in rows2)
        m = _random(rng, (n, n), p)
        m[:, int(rng.integers(0, n))] = 0
        image = u.image(FpMatrix(m, p))
        assert np.array_equal(image.basis.a, _span_by_rref(matmul_by_int64(u.basis.a, m, p), p))
        assert (u + w).contains_space(u) and (u + w).contains_space(w)


def test_from_rows_keeps_canonical_rows_and_reduces_the_rest():
    p = 3
    canonical = [[1, 0, 2, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    assert FpSubspace.from_rows(FpMatrix(canonical, p)).basis.a.tolist() == canonical
    # pivots in place but a pivot column not cleared: not canonical
    uncleared = [[1, 1, 0, 0], [0, 1, 0, 0]]
    assert FpSubspace.from_rows(FpMatrix(uncleared, p)).basis.a.tolist() == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    # leading entry 2, zero rows and a repeated row
    messy = [[0, 0, 0, 0], [0, 2, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0]]
    assert FpSubspace.from_rows(FpMatrix(messy, p)).basis.a.tolist() == [[0, 1, 0, 0]]
    assert FpSubspace.from_rows(FpMatrix.zeros(3, 4, p)).dim == 0


# -- coordinate subspaces against the dense route -----------------------------


def _dense_form(space):
    """The same subspace in the dense form, so every operation takes the general route."""
    dense = FpSubspace(space.ambient_dim, space.basis)
    dense._unit = False
    return dense


def _monomial(rng, n, p):
    """An n x n matrix with at most one nonzero entry, of any value, in each row."""
    m = np.zeros((n, n), dtype=np.int64)
    rows = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    m[rows, rng.integers(0, n, size=len(rows))] = rng.integers(1, p, size=len(rows))
    return m


def _same(a, b):
    return np.array_equal(a.basis.a, b.basis.a) and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coordinate_subspace_matches_the_dense_route(p):
    rng = np.random.default_rng([p, 13])
    n = 10
    fast_images = 0
    for _ in range(40):
        cols = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        c = FpSubspace.coordinate(n, cols, p)
        d = _dense_form(c)
        units = np.eye(n, dtype=np.int64)[np.sort(cols)]
        assert c._unit and c.dim == len(cols)
        assert np.array_equal(c.basis.a, units) and np.array_equal(c.pivots, np.sort(cols))
        for built in (FpSubspace.from_rows(FpMatrix(units[::-1], p)), FpSubspace(n, FpMatrix(units, p)), d):
            assert _same(c, built)
        general = FpSubspace.from_rows(FpMatrix(_random_rows(rng, 4, 3, n, p), p))
        other = FpSubspace.coordinate(n, rng.choice(n, size=int(rng.integers(0, n + 1))), p)
        for w in (general, other, _dense_form(other)):
            assert _same(c + w, d + w) and _same(w + c, w + d)
            assert c.contains_space(w) == d.contains_space(w)
            assert w.contains_space(c) == w.contains_space(d)
            assert (c == w) == (d == w) == np.array_equal(c.basis.a, w.basis.a)
        inside = matmul_by_int64(_random(rng, (3, max(c.dim, 1)), p), c.basis.a, p) if c.dim else None
        for rows in (_random(rng, (3, n), p), inside):
            if rows is not None:
                assert c.contains(rows) == d.contains(rows)
                assert all(c.contains(row) == d.contains(row) for row in rows)
        # monomial, up to two nonzero entries a row, and dense
        sparse = (_monomial(rng, n, p) + _monomial(rng, n, p)) % p
        for m in (_monomial(rng, n, p), sparse, _random(rng, (n, n), p)):
            image = c.image(FpMatrix(m, p))
            if (np.count_nonzero(m, axis=1) <= 1).all():
                # no dense basis was formed on the way
                assert image._unit and image._basis is None
                fast_images += 1
            assert _same(image, d.image(FpMatrix(m, p)))
            assert np.array_equal(image.basis.a, _span_by_rref(matmul_by_int64(c.basis.a, m, p), p))
    assert fast_images >= 40


def test_coordinate_subspace_edge_cases():
    p = 5
    assert FpSubspace.zero(4, p)._unit and FpSubspace.full(4, p)._unit
    assert FpSubspace.full(4, p).basis == FpMatrix.identity(4, p)
    assert FpSubspace.coordinate(4, [3, 1, 3], p).pivots.tolist() == [1, 3]
    for bad in ([4], [-1]):
        with pytest.raises(ValueError):
            FpSubspace.coordinate(4, bad, p)
    with pytest.raises(ValueError):
        FpSubspace.coordinate(4, [0], 4)
    with pytest.raises(ModulusMismatchError):
        FpSubspace.coordinate(4, [0], p).image(FpMatrix.identity(4, 3))
    with pytest.raises(ModulusMismatchError):
        FpSubspace.coordinate(4, [0], p) + FpSubspace.coordinate(4, [0], 3)
    with pytest.raises(ValueError):
        FpSubspace.coordinate(4, [0], p).image(FpMatrix.identity(3, p))
    # unit rows out of order are no canonical basis: dense form, as built
    rows = FpMatrix([[0, 0, 1, 0], [1, 0, 0, 0]], p)
    assert not FpSubspace(4, rows)._unit
    assert FpSubspace(4, rows) != FpSubspace.coordinate(4, [0, 2], p)


def test_hand_built_row_with_a_non_unit_entry_takes_the_dense_route():
    # a basis row whose one nonzero entry is 2 is no unit row: the subspace
    # keeps its dense form and answers exactly as the dense route does
    p = 3
    row = np.array([[0, 2, 0, 0]])
    s = FpSubspace(4, FpMatrix(row, p))
    assert not s._unit
    assert s.basis.a.tolist() == row.tolist()
    assert s != FpSubspace.coordinate(4, [1], p)
    e1 = np.array([[0, 1, 0, 0]])
    assert s.contains(e1) == (not ((e1 - e1[:, [1]] @ row) % p).any())
    shift = FpMatrix(np.eye(4, k=1, dtype=np.int64), p)
    assert s.image(shift) == FpSubspace.from_rows(FpMatrix(matmul_by_int64(row, shift.a, p), p))
    assert FpSubspace.from_rows(FpMatrix(row, p)) == FpSubspace.coordinate(4, [1], p)
