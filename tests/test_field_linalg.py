import numpy as np
import pytest

from arcgen.field_linalg import (
    FpMatrix,
    FpSubspace,
    ModulusMismatchError,
    is_prime,
    kron,
    mat_inverse,
    prime_power_exponent,
    rref,
    unipotent_matrix,
)
from oracles import quotient_dim


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
