"""Exact dense linear algebra over prime fields F_p.

Matrices are numpy integer arrays with every entry reduced into [0, p);
scalars are plain Python ints. The modulus travels with each object and is
checked on every binary operation: mixing moduli is a hard error, never a
coercion. Subspaces have a canonical reduced row-echelon basis, so two
subspaces are equal exactly when their canonical bases are identical.

A subspace is kept in one of two forms. A coordinate subspace, whose
canonical basis is unit rows, keeps only its pivot columns: its images,
sums and membership tests index and compare column sets, with no
product, and its dense basis is built only when a caller reads it. Any
other subspace keeps its dense basis. Both forms give identical results
for every operation.

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
    # columns from c on change.
    for c in np.flatnonzero(a.any(axis=0)):
        if r == nrows:
            break
        nz = np.flatnonzero(a[:, c])
        below = nz[nz >= r]
        if below.size == 0:
            continue
        piv = int(below[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        # after the swap row piv holds the old row r, which is zero in column c
        others = nz[nz != piv]
        if others.size:
            a[others, c:] = (a[others, c:] - np.outer(a[others, c], a[r, c:])) % p
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
    """A subspace of F_p^ambient_dim with a canonical RREF basis.

    The canonical basis has no zero rows and strictly increasing pivot
    columns, so equality of subspaces is equality of canonical bases. A
    subspace is kept in one of two forms, chosen from that basis by every
    constructor:

    * a coordinate subspace, whose canonical basis is the unit rows at
      its pivot columns, keeps only those columns; its dense `basis` is
      built when it is first read, and images, sums, reductions and
      containment work on the column sets;
    * any other subspace keeps its canonical basis as a dense matrix.

    Every operation gives the same result in either form, and `==`,
    `hash` and `basis` do not depend on the form a subspace was built in.
    """

    __slots__ = ("ambient_dim", "p", "_basis", "_pivots", "_unit")

    def __init__(self, ambient_dim: int, basis: FpMatrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match the ambient dimension")
        self.ambient_dim = ambient_dim
        self.p = basis.p
        self._basis = basis
        self._pivots = _pivot_columns(basis.a)
        # one nonzero entry per row and canonical: the unit rows at the pivots
        self._unit = np.count_nonzero(basis.a) == basis.rows and _is_canonical(basis.a)

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
        space._basis = None
        space._pivots = np.flatnonzero(mask)
        space._unit = True
        return space

    @classmethod
    def from_rows(cls, rows: FpMatrix) -> "FpSubspace":
        """The span of the rows; rows already in canonical form are kept."""
        a = rows.a[rows.a.any(axis=1)]
        if not _is_canonical(a):
            red, rank = rref(FpMatrix._make(a, rows.p))
            a = red.a[:rank].copy()
        return cls(rows.cols, FpMatrix._make(a, rows.p))

    @classmethod
    def zero(cls, ambient_dim: int, p: int) -> "FpSubspace":
        return cls.coordinate(ambient_dim, [], p)

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "FpSubspace":
        return cls.coordinate(ambient_dim, range(ambient_dim), p)

    @property
    def basis(self) -> FpMatrix:
        """The canonical basis as a dense matrix."""
        if self._basis is None:
            a = np.zeros((self.dim, self.ambient_dim), dtype=np.int64)
            a[np.arange(self.dim), self._pivots] = 1
            self._basis = FpMatrix._make(a, self.p)
        return self._basis

    @property
    def pivots(self) -> np.ndarray:
        """The pivot column of each canonical basis row, increasing."""
        return self._pivots.copy()

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def _reduce(self, rows: np.ndarray) -> np.ndarray:
        """Each row minus the basis combination that matches it on the pivots.

        A row comes out zero exactly when it lies in the subspace, and every
        row comes out zero in the pivot columns. For a coordinate subspace
        that combination is the row's own entries there.
        """
        if not self.dim:
            return rows
        if self._unit:
            out = rows.copy()
            out[:, self._pivots] = 0
            return out
        return (rows - _matmul(rows[:, self._pivots], self.basis.a, self.p)) % self.p

    def contains(self, rows) -> bool:
        """Whether a coefficient row vector, or every row of a stack, lies here."""
        v = np.mod(np.asarray(rows, dtype=np.int64), self.p)
        if v.ndim not in (1, 2) or v.shape[-1] != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        return not self._reduce(v.reshape(-1, self.ambient_dim)).any()

    def contains_space(self, other: "FpSubspace") -> bool:
        self._check_compatible(other)
        if self._unit and other._unit:
            return bool(np.isin(other._pivots, self._pivots).all())
        return self.contains(other.basis.a)

    def _check_compatible(self, other: "FpSubspace") -> None:
        if self.p != other.p:
            raise ModulusMismatchError(f"moduli differ: {self.p} vs {other.p}")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")

    def __le__(self, other: "FpSubspace") -> bool:
        return other.contains_space(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpSubspace):
            return NotImplemented
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            return False
        if self._unit and other._unit:
            return np.array_equal(self._pivots, other._pivots)
        return np.array_equal(self.basis.a, other.basis.a)

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis.a.tobytes()))

    def __add__(self, other: "FpSubspace") -> "FpSubspace":
        """Subspace spanned by the union of the two bases.

        Two coordinate subspaces sum to the union of their columns.
        Otherwise only the part of `other` outside this subspace is
        eliminated; the existing rows are then cleared in the new pivot
        columns and the two row sets merged by pivot, which is again the
        canonical basis. A sum with the zero subspace, or with a subspace
        already inside, is the other summand, with no copy.
        """
        self._check_compatible(other)
        if not self.dim:
            return other
        if self._unit and other._unit:
            cols = np.concatenate([self._pivots, other._pivots])
            union = FpSubspace.coordinate(self.ambient_dim, cols, self.p)
            return self if union.dim == self.dim else union
        extra = FpSubspace.from_rows(FpMatrix._make(self._reduce(other.basis.a), self.p))
        if not extra.dim:
            return self
        rows = np.vstack([extra._reduce(self.basis.a), extra.basis.a])
        order = np.argsort(np.concatenate([self._pivots, extra._pivots]), kind="stable")
        return FpSubspace(self.ambient_dim, FpMatrix._make(rows[order], self.p))

    def image(self, m: FpMatrix) -> "FpSubspace":
        """Image of the subspace under right multiplication by m.

        A coordinate subspace maps to the span of m's rows at its columns,
        with no product; when each of those rows has at most one nonzero
        entry, that span is the coordinate subspace on their columns.
        """
        if self.p != m.p:
            raise ModulusMismatchError(f"moduli differ: {self.p} vs {m.p}")
        if self.dim == 0:
            return FpSubspace.zero(m.cols, self.p)
        if not self._unit:
            return FpSubspace.from_rows(self.basis @ m)
        if m.rows != self.ambient_dim:
            raise ValueError("matrix rows do not match the ambient dimension")
        rows = m.a[self._pivots]
        nonzero = rows != 0
        if (np.count_nonzero(nonzero, axis=1) <= 1).all():
            return FpSubspace.coordinate(m.cols, np.flatnonzero(nonzero.any(axis=0)), self.p)
        return FpSubspace.from_rows(FpMatrix._make(rows, self.p))

    def __repr__(self) -> str:
        return f"FpSubspace(dim={self.dim}, ambient={self.ambient_dim}, p={self.p})"


def _is_canonical(a: np.ndarray) -> bool:
    """Whether nonzero rows `a` are already a canonical RREF basis."""
    piv = _pivot_columns(a)
    return (
        bool((np.diff(piv) > 0).all())
        and bool((a[np.arange(len(piv)), piv] == 1).all())
        and bool((np.count_nonzero(a, axis=0)[piv] == 1).all())
    )


def _pivot_columns(a: np.ndarray) -> np.ndarray:
    if a.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argmax(a != 0, axis=1)
