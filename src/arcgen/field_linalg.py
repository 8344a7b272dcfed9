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

A row space (`FpRowSpace`) is a subspace kept as a fully reduced basis,
its rows in the order they were inserted: one Gaussian elimination over
F_p, which `rref` runs on a matrix's rows and which the permutation
groups' linear level keeps open as generators arrive.

`FpMatrix` refuses moduli of `MAX_MODULUS` (2^31) and above: below it a
product of two residues is under 2^62, which keeps both the blocks of
the int64 route and the row updates of a row space inside int64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "ModulusMismatchError",
    "FpMatrix",
    "FpSubspace",
    "FpRowSpace",
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


class FpRowSpace:
    """A subspace of F_p^cols kept as a fully reduced basis, rows in insertion order.

    Row i of `rows` is 1 at its pivot column piv[i], and every row is 0 at
    the other rows' pivots. A vector v then lies in the space exactly
    when v - v[piv] @ rows is 0 (one exact product, `_matmul`). Vectors
    are int64 rows with entries in [0, p).
    """

    __slots__ = ("p", "rank", "basis", "piv")

    def __init__(self, cols: int, p: int):
        _check_modulus_value(p)
        self.p = p
        self.rank = 0
        self.basis = np.zeros((0, cols), dtype=np.int64)  # rows double on demand
        self.piv = np.zeros(0, dtype=np.intp)

    @property
    def rows(self) -> np.ndarray:
        return self.basis[: self.rank]

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """v minus its part in the space; 0 exactly on the rows of v that are members."""
        if self.rank:
            v = v - _matmul(v[:, self.piv], self.rows, self.p)
            v %= self.p
        return v

    def members(self, lo: int, hi: int) -> np.ndarray:
        """The members numbered lo..hi-1 by their coordinates on the rows, in base p."""
        digits = np.arange(lo, hi)[:, None] // self.p ** np.arange(self.rank) % self.p
        return _matmul(digits, self.rows, self.p)

    def insert(self, v: np.ndarray) -> None:
        """Add the span of the rows of v, reduced and not all zero, keeping the basis reduced.

        v (one vector or a block of rows) is 0 at every pivot. Its rows are
        eliminated one at a time: a row that is not 0 by then is scaled to
        1 at its first nonzero column, which becomes a pivot, and that
        column is cleared from every other row of v, one vectorised step
        per row rather than one per column, over the columns from the
        pivot on (the row is 0 left of it). So the rows left are reduced,
        0 left of their pivots and 0 at the old pivots; they join the
        basis, and one product clears the old rows that are nonzero at the
        new pivots.
        """
        v = np.array(v, dtype=np.int64, ndmin=2)
        if v[:, self.piv].any() or not v.any():
            raise AssertionError("row space was given vectors that are zero or not reduced")
        p, kept, piv = self.p, [], []
        for i, row in enumerate(v):
            c = int((row != 0).argmax())
            if not row[c]:
                continue
            if row[c] != 1:
                row[:] = row * pow(int(row[c]), -1, p) % p
            row[c] = 0  # so row i is left as it is below, then restored
            hit = v[:, c].nonzero()[0]
            if p == 2:  # every hit row is 1 at c
                v[hit, c:] ^= row[c:]
            else:
                v[hit, c:] = (v[hit, c:] - v[hit, c, None] * row[c:]) % p
            v[hit, c] = 0
            row[c] = 1
            kept.append(i)
            piv.append(c)
        new, piv, k = v[kept], np.array(piv, dtype=np.intp), len(kept)
        rows = self.rows
        hit = np.flatnonzero(rows[:, piv].any(axis=1))
        if len(hit):
            rows[hit] = (rows[hit] - _matmul(rows[np.ix_(hit, piv)], new, p)) % p
        end = self.rank + k
        if end > len(self.basis):
            grown = np.empty((max(2 * self.rank, end), self.basis.shape[1]), dtype=np.int64)
            grown[: self.rank] = rows
            self.basis = grown
        self.basis[self.rank : end] = new
        self.piv = np.concatenate((self.piv, piv))
        self.rank = end

    def cut(self, k: int) -> np.ndarray | None:
        """Cut the space to its members that are 0 at column k.

        Returns the row, scaled to 1 at k, that was eliminated, or None if
        every member is already 0 there.
        """
        rows = self.rows
        hit = np.flatnonzero(rows[:, k])
        if not len(hit):
            return None
        t, p = hit[0], self.p  # the pivot row of k, if k is a pivot
        u = rows[t] * pow(int(rows[t, k]), -1, p) % p
        keep = np.arange(self.rank) != t
        self.basis = (rows[keep] - rows[keep, k : k + 1] * u) % p
        self.piv = self.piv[keep]
        self.rank -= 1
        return u


def rref(m: FpMatrix) -> tuple[FpMatrix, int]:
    """Canonical reduced row-echelon form and rank.

    The nonzero rows go into an empty `FpRowSpace` by one `insert`, whose
    rows are 1 at their pivots, 0 at the other rows' pivots and 0 left of
    their own. Sorted by pivot column, they are the unique canonical
    basis of the row space, padded with zero rows to the input shape.
    """
    space = FpRowSpace(m.cols, m.p)
    nonzero = m.a[m.a.any(axis=1)]
    if len(nonzero):
        space.insert(nonzero)
    a = np.zeros_like(m.a)
    a[: space.rank] = space.rows[np.argsort(space.piv)]
    return FpMatrix._make(a, m.p), space.rank


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
