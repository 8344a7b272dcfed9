import numpy as np
import pytest

from arcgen.field_linalg import (
    MAX_MODULUS,
    FpMatrix,
    FpRowSpace,
    FpSubspace,
    ModulusMismatchError,
    is_prime,
    mat_inverse,
    rref,
)
from oracles import (
    Span,
    image_by_matrix,
    index_map_matrix,
    kron,
    matmul_by_int64,
    prime_power_exponent,
    quotient_dim,
    rref_by_full_column_walk,
    unipotent_matrix,
)


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
            basis = red.a[:rank]
            assert not red.a[rank:].any()
            pivots = np.argmax(basis != 0, axis=1)
            for row in m.a:
                assert not ((row - row[pivots] @ basis) % p).any()


def test_rref_is_idempotent_and_canonical():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = FpMatrix(rng.integers(0, 2, size=(3, 6)), 2)
        red, _ = rref(m)
        again, _ = rref(red)
        assert red == again


def _rank_deficient(rng, rows, cols, rank, p):
    """A rows x cols matrix over F_p of rank at most `rank`, as a product of random factors."""
    return FpMatrix(rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols)), p)


def test_rref_matches_the_full_column_walk():
    # the walk stops once the rows from r on are all zero; the output is
    # that of walking every nonzero column
    from arcgen.pipeline import Bundle, ConstructionParams

    rng = np.random.default_rng(26)
    cases = [
        _rank_deficient(rng, int(rng.integers(2, 40)), int(rng.integers(1, 60)), int(rng.integers(1, 12)), p)
        for p in (2, 3, 7)
        for _ in range(40)
    ]
    for p, h in [(2, 3), (3, 2)]:
        # the module run's shift rows, with every row's sum with the next
        # appended, so nearly half the rows depend on the others
        rows = Bundle(ConstructionParams(p, h)).module_basis
        cases.append(FpMatrix(np.vstack([rows, rows[:-1] + rows[1:]]), p))
    for m in cases:
        ours, rank = rref(m)
        want, want_rank = rref_by_full_column_walk(m)
        assert rank == want_rank and np.array_equal(ours.a, want)


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


def test_span_canonical_representation():
    # two different spanning sets of the same plane in F_2^3
    s1 = Span([[1, 1, 0], [0, 1, 1]], 3, 2)
    s2 = Span([[1, 0, 1], [0, 1, 1]], 3, 2)
    assert s1 == s2
    assert s1.basis.tolist() == [[1, 0, 1], [0, 1, 1]]
    # leading entry 2, zero rows and a repeated row
    assert Span([[0, 0, 0, 0], [0, 2, 0, 0], [0, 2, 0, 0]], 4, 3).basis.tolist() == [[0, 1, 0, 0]]


def test_subspace_sum_of_complementary_lines():
    l1 = FpSubspace.coordinate(2, [0], 3)
    l2 = FpSubspace.coordinate(2, [1], 3)
    assert (l1 + l2).dim == 2
    assert (l1 + l2) == FpSubspace.full(2, 3)


def test_quotient_dims():
    v = Span([[1, 0, 1], [0, 1, 0]], 3, 2)
    assert quotient_dim(v, v) == 0
    assert quotient_dim(FpSubspace.zero(3, 2), FpSubspace.full(3, 2)) == 3
    with pytest.raises(ValueError):
        quotient_dim(Span.of(FpSubspace.full(3, 2)), v)


def test_span_keeps_canonical_rows_and_reduces_the_rest():
    p = 3
    canonical = [[1, 0, 2, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    assert Span(canonical, 4, p).basis.tolist() == canonical
    # pivots in place but a pivot column not cleared: not canonical
    assert Span([[1, 1, 0, 0], [0, 1, 0, 0]], 4, p).basis.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    # a scaled row is brought to a leading 1, and the pivots are its leading columns
    scaled = Span([[0, 0, 2, 1], [0, 2, 0, 0]], 4, p)
    assert scaled.basis.tolist() == [[0, 1, 0, 0], [0, 0, 1, 2]]
    assert scaled.pivots.tolist() == [1, 2]
    assert Span(np.zeros((3, 4), dtype=np.int64), 4, p).dim == 0


def test_span_membership():
    v = Span([[1, 0, 1], [0, 1, 0]], 3, 2)
    assert v.contains([1, 1, 1])
    assert not v.contains([0, 0, 1])
    assert v.contains([0, 0, 0])


def test_subspace_membership_of_a_stack():
    v = Span([[1, 0, 1], [0, 1, 0]], 3, 2)
    assert v.contains([[1, 1, 1], [0, 1, 0], [1, 0, 1]])
    # one row outside, in any position, fails the whole stack
    assert not v.contains([[1, 1, 1], [0, 0, 1]])
    assert not v.contains([[0, 0, 1], [1, 1, 1]])
    assert v.contains(np.zeros((0, 3), dtype=np.int64))
    assert Span([], 3, 2).contains([[0, 0, 0], [0, 2, 0]])
    # rows of another length are no vectors of this space
    for bad in ([1, 1], [[1, 1]], np.zeros((1, 4))):
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


# -- row spaces --------------------------------------------------------------


def _combinations(rng, rows, count, p):
    """count random combinations of the rows over F_p, in exact integers."""
    coeffs = rng.integers(0, p, (count, len(rows)), dtype=np.int64)
    return (coeffs.astype(object) @ rows.astype(object) % p).astype(np.int64)


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
def test_row_space_keeps_a_reduced_basis_of_what_it_was_given(p):
    rng = np.random.default_rng([p, 32])
    cols = 14
    # blocks from an 8-dimensional subspace: repeats and dependent rows,
    # within a block and across blocks
    source = _random(rng, (8, cols), p)
    space, given = FpRowSpace(cols, p), np.zeros((0, cols), dtype=np.int64)
    for size in (1, 3, 2, 5, 4, 3):
        block = _combinations(rng, source[: int(rng.integers(1, 9))], size, p)
        if len(given):
            block = np.vstack([block, block[:1], _combinations(rng, given, 2, p)])
        given = np.vstack([given, block])
        v = space.reduce(block)
        if v.any():
            space.insert(v[v.any(axis=1)])
        rows, piv = space.rows, space.piv
        assert np.array_equal(rows[:, piv], np.eye(space.rank, dtype=np.int64))
        span = Span(given, cols, p)
        assert Span(rows, cols, p) == span and space.rank == span.dim
        # reduce gives 0 on members and on nothing else
        probes = np.vstack([_combinations(rng, given, 4, p), _random(rng, (4, cols), p)])
        members = [span.contains(row) for row in probes]
        assert (~space.reduce(probes).any(axis=1)).tolist() == members


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
def test_row_space_cut_keeps_the_members_zero_at_a_column(p):
    rng = np.random.default_rng([p, 33])
    cols = 10
    for _ in range(6):
        space = FpRowSpace(cols, p)
        rows = _combinations(rng, _random(rng, (6, cols), p), 8, p)
        rows[:, rng.choice(cols, 2, replace=False)] = 0  # columns every member is 0 at
        space.insert(space.reduce(rows[rows.any(axis=1)]))
        for k in rng.permutation(cols).tolist():
            before = Span(space.rows, cols, p)
            zero_at_k = not space.rows[:, k].any()
            u = space.cut(k)
            after = Span(space.rows, cols, p)
            assert (u is None) == zero_at_k
            assert not space.rows[:, k].any()
            assert np.array_equal(space.rows[:, space.piv], np.eye(space.rank, dtype=np.int64))
            if u is None:
                assert after == before
            else:
                # a subspace of the old one, 0 at k, of codimension 1 in it
                assert u[k] == 1 and before.contains(space.rows)
                assert after.dim == before.dim - 1 and after + Span(u, cols, p) == before


def test_row_space_refuses_zero_or_unreduced_vectors():
    space = FpRowSpace(3, 5)
    space.insert(np.array([[0, 2, 1]]))
    assert space.piv.tolist() == [1] and space.rows.tolist() == [[0, 1, 3]]
    for v in ([0, 0, 0], [1, 1, 0]):
        with pytest.raises(AssertionError):
            space.insert(np.array([v]))


# -- subspace arithmetic against stack-and-rref -------------------------------


def _span_by_rref(rows, p):
    red, rank = rref(FpMatrix(rows, p))
    return red.a[:rank]


def _unit_rows(space):
    return np.eye(space.ambient_dim, dtype=np.int64)[space.pivots]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_subspace_operations_match_stack_and_rref(p):
    # a coordinate subspace's unit rows are its canonical basis: the rref of
    # its raw columns' rows (scaled, repeated, unsorted) is that basis, the
    # rref of two stacked bases is the sum's, and the rref of a basis times an
    # index map's matrix is the image's
    rng = np.random.default_rng([p, 2024])
    n = 12

    def coordinate():
        cols = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
        rows = np.eye(n, dtype=np.int64)[cols] * rng.integers(1, p, size=(len(cols), 1))
        space = FpSubspace.coordinate(n, cols, p)
        assert np.array_equal(_unit_rows(space), _span_by_rref(rows, p))
        return space

    for _ in range(30):
        u, w = coordinate(), coordinate()
        span = _span_by_rref(np.vstack([_unit_rows(u), _unit_rows(w)]), p)
        assert np.array_equal(_unit_rows(u + w), span)
        assert u + w == w + u and hash(u + w) == hash(w + u)
        assert u.contains_space(w) == (len(span) == u.dim)
        assert (u + w).contains_space(u) and (u + w).contains_space(w)
        t = _index_map(rng, n)
        m = index_map_matrix(t, p).a
        image = _span_by_rref(matmul_by_int64(_unit_rows(u), m, p), p)
        assert np.array_equal(_unit_rows(u.image(t)), image)


def test_subspace_sum_returns_a_summand_that_already_spans():
    # a sum with the zero subspace, or with a subspace inside, is the other
    # summand itself, so a subspace must not change under its holders
    p = 3
    zero = FpSubspace.zero(6, p)
    big = FpSubspace.coordinate(6, [5, 0, 2], p)
    small = FpSubspace.coordinate(6, [2, 5], p)
    assert (zero + big) is big and (big + zero) is big and (big + small) is big
    assert (small + big) == big and (small + big) is not small
    union = small + FpSubspace.coordinate(6, [1], p)
    assert union.pivots.tolist() == [1, 2, 5] and small.pivots.tolist() == [2, 5]
    pivots = big.pivots
    pivots[0] = 4
    assert big.pivots.tolist() == [0, 2, 5]
    assert big == FpSubspace.coordinate(6, [0, 2, 5], p)


# -- coordinate subspaces against the oracle span ------------------------------


def _index_map(rng, n):
    """A random index map on n coordinates: repeated targets, and -1 (zero) at some entries."""
    t = rng.integers(0, n, size=n)
    t[rng.random(n) < 0.3] = -1
    return t


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coordinate_subspace_matches_the_oracle_span(p):
    # each subspace is built from random columns, repeats allowed, and its
    # span of those unit rows is the reference for every operation
    rng = np.random.default_rng([p, 28])
    n = 10
    units = np.eye(n, dtype=np.int64)

    def pair():
        cols = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
        return FpSubspace.coordinate(n, cols, p), Span(units[cols], n, p)

    for _ in range(60):
        (u, su), (w, sw) = pair(), pair()
        same = FpSubspace.coordinate(n, rng.permutation(np.repeat(u.pivots, 2)), p)
        for a, sa in ((u, su), (w, sw)):
            assert a.dim == sa.dim and Span.of(a) == sa
        for a, b, sa, sb in ((u, w, su, sw), (u, u + w, su, su + sw), (u + w, w, su + sw, sw), (u, same, su, su)):
            assert Span.of(a + b) == sa + sb == Span.of(b + a)
            assert a.contains_space(b) == sa.contains_space(sb)
            assert b.contains_space(a) == sb.contains_space(sa)
            assert (a == b) == (sa == sb)
            if a == b:
                assert hash(a) == hash(b)
        # a random index map, a permutation and the shift k -> k + 1
        for t in (_index_map(rng, n), rng.permutation(n), np.where(np.arange(n) < n - 1, np.arange(1, n + 1), -1)):
            assert Span.of(u.image(t)) == image_by_matrix(su, index_map_matrix(t, p))


def test_coordinate_subspace_edge_cases():
    p = 5
    assert FpSubspace.zero(4, p).dim == 0
    assert FpSubspace.full(4, p).pivots.tolist() == [0, 1, 2, 3]
    assert FpSubspace.coordinate(4, [3, 1, 3], p).pivots.tolist() == [1, 3]
    for bad in ([4], [-1]):
        with pytest.raises(ValueError):
            FpSubspace.coordinate(4, bad, p)
    with pytest.raises(ValueError):
        FpSubspace.coordinate(4, [0], 4)
    with pytest.raises(ModulusMismatchError):
        FpSubspace.coordinate(4, [0], p) + FpSubspace.coordinate(4, [0], 3)
    with pytest.raises(ValueError):
        FpSubspace.coordinate(4, [0], p).contains_space(FpSubspace.coordinate(5, [0], p))
    assert FpSubspace.coordinate(4, [0], p) != FpSubspace.coordinate(4, [0], 3)
    # an index map must have one target in [-1, 4) per coordinate
    for bad in (np.arange(3), np.arange(5), [0, 1, 2, 4], [-2, 0, 1, 2], np.zeros((4, 1), dtype=int)):
        with pytest.raises(ValueError):
            FpSubspace.coordinate(4, [0], p).image(bad)
