"""Exact dense linear algebra over prime fields F_p.

Matrices are numpy integer arrays with every entry reduced into [0, p);
scalars are plain Python ints. The modulus travels with each object and is
checked on every binary operation: mixing moduli is a hard error, never a
coercion.

Subspaces are coordinate subspaces, the span of the unit rows at a set of
columns, kept as those columns: every term of the augmentation filtration
the library walks is one. Their sums and containment tests compare column
sets, and the image under an index map (e_k -> e_t[k], or zero) is the set
of targets, all with no product.

Vectors are rows throughout the library and operators multiply on the
right.

Every product of two matrices goes through one kernel, `_matmul`, and is
exact for every modulus `FpMatrix` accepts:

* float64 (BLAS) when k * (p-1)^2 < 2^53, with k the inner dimension.
  Every partial sum is then an integer below 2^53, which float64 holds
  exactly, so the result does not depend on how BLAS splits or orders
  the sums.
* int64 otherwise, with the inner dimension cut into blocks of at most
  (2^63 - 1) // (p-1)^2 terms, each block reduced mod p before the next
  is added, so no partial sum overflows.

Products of fewer than `_BLAS_MIN_MACS` multiply-adds take the int64
route too: numpy's own loop needs under a millisecond there, and a run
that multiplies only small matrices never pages in the BLAS kernels
(about 0.5 MB of resident code).

`FpMatrix` refuses moduli of `MAX_MODULUS` (2^31) and above: below it a
product of two residues is under 2^62, which keeps both the blocks of
the int64 route and the row update of `rref` inside int64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "ModulusMismatchError",
    "FpMatrix",
    "FpSubspace",
    "is_prime",
    "rref",
    "mat_inverse",
]


MAX_MODULUS = 2**31

# float64 holds every integer below 2^53 exactly.
_FLOAT_EXACT = 2**53
_BLAS_MIN_MACS = 2**20
_INT64_MAX = 2**63 - 1


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


def _check_modulus_value(p: int) -> None:
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} is not below MAX_MODULUS = 2^31")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 arrays with entries in [0, p), p < MAX_MODULUS."""
    k = a.shape[1]
    square = (p - 1) ** 2
    if k * square < _FLOAT_EXACT and a.shape[0] * k * b.shape[1] >= _BLAS_MIN_MACS:
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        out %= p
        return out
    block = _INT64_MAX // square
    if k <= block:
        return a @ b % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, k, block):
        out += (a[:, s : s + block] @ b[s : s + block]) % p
        out %= p
    return out


class FpMatrix:
    """Dense matrix over F_p. Entries are always fully reduced."""

    __slots__ = ("a", "p")

    def __init__(self, entries, p: int):
        _check_modulus_value(p)
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
        return FpMatrix._make(_matmul(self.a, other.a, self.p), self.p)

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
    nrows = a.shape[0]
    r = 0
    # Row operations never make a zero column nonzero, so those are skipped.
    # When column c gets its pivot, row r is zero left of c, so only the
    # columns from c on change. The rows from r on are zero left of c too,
    # so the first column after a pivot that has none below r tests whether
    # they are zero from c on; then no later column has a pivot.
    test = True
    for c in np.flatnonzero(a.any(axis=0)).tolist():
        if r == nrows:
            break
        nz = a[:, c].nonzero()[0]
        k = int(nz.searchsorted(r))
        if k == len(nz):
            if test and not a[r:, c:].any():
                break
            test = False
            continue
        test = True
        piv = int(nz[k])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        row = a[r, c:]
        inv = pow(int(row[0]), -1, p)
        if inv != 1:
            row *= inv
            row %= p
        # after the swap row piv holds the old row r, which is zero in column c
        others = nz[nz != piv]
        if len(others):
            a[others, c:] = (a[others, c:] - a[others, c, None] * row) % p
        r += 1
    return FpMatrix._make(a, p), r


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
    """A coordinate subspace of F_p^ambient_dim: the span of unit rows.

    Its canonical basis is the unit rows at its pivot columns, so it is
    kept as those columns, sorted: equality of subspaces is equality of
    column sets, sums and containment compare them, and an image under an
    index map is the set of targets, all with no product. Every term of
    the augmentation filtration the library walks is such a subspace.
    """

    __slots__ = ("ambient_dim", "p", "_pivots")

    @classmethod
    def coordinate(cls, ambient_dim: int, columns, p: int) -> "FpSubspace":
        """The span of the unit rows at the given columns (repeats allowed)."""
        _check_modulus_value(p)
        cols = np.asarray(columns, dtype=np.int64)
        if cols.size and not (0 <= cols.min() and cols.max() < ambient_dim):
            raise ValueError("column index outside the ambient dimension")
        # a mask, not np.unique, which imports numpy.ma (about 0.6 MB resident)
        mask = np.zeros(ambient_dim, dtype=bool)
        mask[cols] = True
        space = object.__new__(cls)
        space.ambient_dim = ambient_dim
        space.p = p
        space._pivots = np.flatnonzero(mask)
        return space

    @classmethod
    def zero(cls, ambient_dim: int, p: int) -> "FpSubspace":
        return cls.coordinate(ambient_dim, [], p)

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "FpSubspace":
        return cls.coordinate(ambient_dim, range(ambient_dim), p)

    @property
    def pivots(self) -> np.ndarray:
        """The pivot column of each canonical basis row, increasing."""
        return self._pivots.copy()

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def contains_space(self, other: "FpSubspace") -> bool:
        self._check_compatible(other)
        return bool(np.isin(other._pivots, self._pivots).all())

    def _check_compatible(self, other: "FpSubspace") -> None:
        if self.p != other.p:
            raise ModulusMismatchError(f"moduli differ: {self.p} vs {other.p}")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpSubspace):
            return NotImplemented
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            return False
        return np.array_equal(self._pivots, other._pivots)

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self._pivots.tobytes()))

    def __add__(self, other: "FpSubspace") -> "FpSubspace":
        """The span of both subspaces: the union of their columns.

        A sum with the zero subspace, or with a subspace already inside,
        is the other summand, with no copy.
        """
        self._check_compatible(other)
        if not self.dim:
            return other
        cols = np.concatenate([self._pivots, other._pivots])
        union = FpSubspace.coordinate(self.ambient_dim, cols, self.p)
        return self if union.dim == self.dim else union

    def image(self, targets) -> "FpSubspace":
        """Image under the index map e_k -> e_targets[k], a target -1 meaning zero.

        That is the coordinate subspace on the targets of its columns.
        """
        t = np.asarray(targets, dtype=np.int64)
        n = self.ambient_dim
        if t.shape != (n,) or (n and not (-1 <= t.min() and t.max() < n)):
            raise ValueError("index map does not match the ambient dimension")
        cols = t[self._pivots]
        return FpSubspace.coordinate(n, cols[cols >= 0], self.p)

    def __repr__(self) -> str:
        return f"FpSubspace(dim={self.dim}, ambient={self.ambient_dim}, p={self.p})"
