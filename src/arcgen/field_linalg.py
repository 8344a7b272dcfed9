"""Exact dense linear algebra over prime fields F_p.

Matrices are numpy integer arrays with every entry reduced into [0, p);
scalars are plain Python ints. The modulus travels with each object and is
checked on every binary operation: mixing moduli is a hard error, never a
coercion. Subspaces are kept in canonical reduced row-echelon form, so two
subspaces are equal exactly when their stored bases are identical.

Vectors are rows throughout the library and operators multiply on the
right.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ModulusMismatchError",
    "FpMatrix",
    "FpSubspace",
    "is_prime",
    "prime_power_exponent",
    "rref",
    "kron",
    "unipotent_matrix",
    "mat_inverse",
]


class ModulusMismatchError(ValueError):
    """Two mod-p objects with different moduli met in one operation."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power_exponent(q: int, p: int) -> int | None:
    """Return h >= 1 with q = p**h, or None if there is no such h."""
    if not is_prime(p) or q < p:
        return None
    h = 0
    while q % p == 0:
        q //= p
        h += 1
    return h if q == 1 else None


class FpMatrix:
    """Dense matrix over F_p. Entries are always fully reduced."""

    __slots__ = ("a", "p")

    def __init__(self, entries, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("matrix entries must form a two-dimensional grid")
        self.a = np.mod(a, p)
        self.p = p

    @classmethod
    def _make(cls, reduced: np.ndarray, p: int) -> "FpMatrix":
        # internal fast path: `reduced` must already be int64 and in [0, p)
        m = object.__new__(cls)
        m.a = reduced
        m.p = p
        return m

    @classmethod
    def identity(cls, n: int, p: int) -> "FpMatrix":
        return cls(np.eye(n, dtype=np.int64), p)

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "FpMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def _check_modulus(self, other: "FpMatrix") -> None:
        if self.p != other.p:
            raise ModulusMismatchError(f"moduli differ: {self.p} vs {other.p}")

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_modulus(other)
        return FpMatrix._make((self.a @ other.a) % self.p, self.p)

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_modulus(other)
        return FpMatrix._make((self.a + other.a) % self.p, self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_modulus(other)
        return FpMatrix._make((self.a - other.a) % self.p, self.p)

    def __pow__(self, k: int) -> "FpMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices have powers")
        if k < 0:
            return mat_inverse(self) ** (-k)
        result = FpMatrix.identity(self.rows, self.p)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def transpose(self) -> "FpMatrix":
        return FpMatrix._make(self.a.T.copy(), self.p)

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix({self.a.tolist()!r}, p={self.p})"


def rref(m: FpMatrix) -> tuple[FpMatrix, int]:
    """Canonical reduced row-echelon form and rank.

    The row space is unchanged; pivots are 1 with zeros above and below,
    and pivot columns strictly increase, so the output is the unique
    canonical representative of the row space (padded with zero rows to
    the input shape).
    """
    a = m.a.copy()
    p = m.p
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        r += 1
    return FpMatrix._make(a, p), r


def kron(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Kronecker product: block (i, j) equals a[i][j] * b."""
    a._check_modulus(b)
    return FpMatrix._make(np.kron(a.a, b.a) % a.p, a.p)


def unipotent_matrix(q: int, p: int) -> FpMatrix:
    """The q x q matrix with ones on the diagonal and superdiagonal.

    Requires q to be a positive power of the prime p; the result then has
    multiplicative order exactly q in GL_q(F_p).
    """
    if prime_power_exponent(q, p) is None:
        raise ValueError(f"{q} is not a positive power of the prime {p}")
    a = np.eye(q, dtype=np.int64) + np.eye(q, k=1, dtype=np.int64)
    return FpMatrix(a, p)


def mat_inverse(m: FpMatrix) -> FpMatrix:
    """Exact inverse; raises ValueError if the matrix is singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices are invertible")
    n = m.rows
    aug = FpMatrix._make(
        np.hstack([m.a, np.eye(n, dtype=np.int64)]), m.p
    )
    red, rank = rref(aug)
    if rank < n or red.a[:n, :n].diagonal().min() != 1:
        raise ValueError("matrix is singular")
    return FpMatrix._make(red.a[:n, n:].copy(), m.p)


class FpSubspace:
    """A subspace of F_p^ambient_dim stored as a canonical RREF basis.

    The basis has no zero rows and strictly increasing pivot columns, so
    equality of subspaces is equality of representations.
    """

    __slots__ = ("ambient_dim", "basis", "p", "_pivots")

    def __init__(self, ambient_dim: int, basis: FpMatrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match the ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.p = basis.p
        self._pivots = _pivot_columns(basis.a)

    @classmethod
    def from_rows(cls, rows: FpMatrix) -> "FpSubspace":
        red, rank = rref(rows)
        return cls(rows.cols, FpMatrix._make(red.a[:rank].copy(), rows.p))

    @classmethod
    def zero(cls, ambient_dim: int, p: int) -> "FpSubspace":
        return cls(ambient_dim, FpMatrix.zeros(0, ambient_dim, p))

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "FpSubspace":
        return cls(ambient_dim, FpMatrix.identity(ambient_dim, p))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, vec) -> bool:
        """Membership of a single coefficient row vector."""
        v = np.mod(np.asarray(vec, dtype=np.int64), self.p)
        if v.shape != (self.ambient_dim,):
            raise ValueError("vector length does not match the ambient dimension")
        if self.dim:
            v = (v - v[self._pivots] @ self.basis.a) % self.p
        return not v.any()

    def contains_space(self, other: "FpSubspace") -> bool:
        if self.p != other.p:
            raise ModulusMismatchError(f"moduli differ: {self.p} vs {other.p}")
        return all(self.contains(row) for row in other.basis.a)

    def __le__(self, other: "FpSubspace") -> bool:
        return other.contains_space(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpSubspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and np.array_equal(self.basis.a, other.basis.a)
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis.a.tobytes()))

    def __add__(self, other: "FpSubspace") -> "FpSubspace":
        """Subspace spanned by the union of the two bases."""
        if self.p != other.p:
            raise ModulusMismatchError(f"moduli differ: {self.p} vs {other.p}")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        stacked = np.vstack([self.basis.a, other.basis.a])
        return FpSubspace.from_rows(FpMatrix._make(stacked, self.p))

    def image(self, m: FpMatrix) -> "FpSubspace":
        """Image of the subspace under right multiplication by m."""
        self.basis._check_modulus(m)
        if self.dim == 0:
            return FpSubspace.zero(m.cols, self.p)
        return FpSubspace.from_rows(self.basis @ m)

    def __repr__(self) -> str:
        return f"FpSubspace(dim={self.dim}, ambient={self.ambient_dim}, p={self.p})"


def _pivot_columns(a: np.ndarray) -> np.ndarray:
    if a.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argmax(a != 0, axis=1)

