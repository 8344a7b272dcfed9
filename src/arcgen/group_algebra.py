"""The group H = C_q x C_q (q = p^h) and its group algebra over F_p.

This module carries the algebraic half of the construction:

* the change of basis between the natural basis {a^i b^j} and the
  filtered basis {(a-1)^x (b-1)^y}, which is P ⊗ P for a q x q matrix P
  and is kept as that factor alone: (a-1)^x (b-1)^y is the outer product
  of columns x and y of P, and operators are conjugated on the factor,
* the filtration F_p[H] ⊃ I ⊃ I^2 ⊃ ... by the augmentation ideal I,
  proved from one descent step: one tripwire on a q x q factor shows
  a - 1 and b - 1 act as the index shifts e_xy -> e_(x+1,y) and
  e_xy -> e_(x,y+1), each shift raises the level x + y by one, and the
  first step is the span of level >= 1, so by induction term i is the
  span of level >= i,
* for a submodule V, dim V/VI, the minimal number of module generators
  by Nakayama's lemma (the group algebra of a p-group over F_p is local),
  with the rest of the descent walked on boolean masks to show the
  action unipotent,
* the swap and inversion outer symmetries, checked to keep every term
  of the filtration, read as the level x + y of each e_xy from their
  q x q factors.

Conventions, used everywhere downstream: coefficient vectors are rows
over the natural basis ordered by index(i, j) = i*q + j, and all module
actions multiply on the right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field_linalg import FpMatrix, FpSubspace, is_prime, mat_inverse

__all__ = [
    "AbelianH",
    "EBasisChange",
    "GammaChain",
    "build_e_basis",
    "gamma_chain",
    "section_dims",
    "min_generators_local",
    "outer_action",
]


@dataclass(frozen=True)
class AbelianH:
    """H = C_q x C_q with q = p^h, elements (i, j) meaning a^i b^j.

    The element enumeration order index(i, j) = i*q + j is fixed and is
    also the coefficient order of the natural basis of F_p[H].
    """

    p: int
    h: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.h < 1:
            raise ValueError(f"h must be at least 1, got {self.h}")

    @property
    def q(self) -> int:
        return self.p**self.h

    @property
    def order(self) -> int:
        return self.q * self.q

    @property
    def ambient(self) -> int:
        """Dimension of the group algebra F_p[H]."""
        return self.q * self.q

    def index(self, i: int, j: int) -> int:
        return (i % self.q) * self.q + (j % self.q)

    def element(self, k: int) -> tuple[int, int]:
        return divmod(k, self.q)

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return ((x[0] + y[0]) % self.q, (x[1] + y[1]) % self.q)

    def inv(self, x: tuple[int, int]) -> tuple[int, int]:
        return ((-x[0]) % self.q, (-x[1]) % self.q)

    def index_map(self, s) -> np.ndarray:
        """Entry k is the index of the image of element k under s.

        s is "a" or "b" (right multiplication by that generator), an
        element (i, j) (right multiplication by it), "phi" (swap the two
        coordinates) or "psi" (invert both). Anything else is a ValueError.
        """
        i, j = np.divmod(np.arange(self.order), self.q)
        if s == "a":
            i = i + 1
        elif s == "b":
            j = j + 1
        elif s == "phi":
            i, j = j, i
        elif s == "psi":
            i, j = self.q - i, self.q - j
        elif isinstance(s, tuple) and len(s) == 2:
            i, j = i + s[0], j + s[1]
        else:
            raise ValueError(f"unknown group item {s!r}")
        return (i % self.q) * self.q + j % self.q


@dataclass(frozen=True)
class EBasisChange:
    """The q x q factor of the change between the two bases of F_p[H].

    Column x of P holds the expansion of (a-1)^x over 1, a, ..., a^(q-1),
    so (a-1)^x (b-1)^y expands to column index(x, y) of P ⊗ P, the outer
    product P[:, x] ⊗ P[:, y]. Operators are conjugated on the q x q
    factor (`conjugate_to_e`); no q^2 x q^2 change matrix is formed.
    """

    H: AbelianH
    P: FpMatrix
    P_inv: FpMatrix

    def conjugate_to_e(self, m: FpMatrix) -> FpMatrix:
        """P^T m P^-T for a q x q factor m of a right-action operator.

        With rows v = w (P ⊗ P)^T, the operator m ⊗ m' has the e-basis
        matrix (P^T m P^-T) ⊗ (P^T m' P^-T) by the mixed-product rule.
        """
        return self.P.transpose() @ m @ self.P_inv.transpose()


def build_e_basis(H: AbelianH) -> EBasisChange:
    """Expand every (a-1)^x in the natural basis of C_q and invert.

    Column x of the q x q matrix P is (a-1)^x = (a-1)^(x-1) * a - (a-1)^(x-1)
    over 1, a, ..., a^(q-1). Since (a-1)^x (b-1)^y expands to column
    index(x, y) of P ⊗ P, only P is inverted. P^-1 P = I is checked once:
    by the mixed-product rule it is the round trip of every row through
    P ⊗ P and back. A singular P or a wrong inverse raises AssertionError.
    """
    q, p = H.q, H.p
    cols = np.zeros((q, q), dtype=np.int64)
    cols[0, 0] = 1
    for x in range(1, q):
        cols[:, x] = (np.roll(cols[:, x - 1], 1) - cols[:, x - 1]) % p
    P = FpMatrix(cols, p)
    try:
        P_inv = mat_inverse(P)
    except ValueError as exc:
        raise AssertionError(
            "filtered-basis change matrix is singular, construction defect"
        ) from exc
    if P_inv @ P != FpMatrix.identity(q, p):
        raise AssertionError("filtered-basis change has a wrong inverse, construction defect")
    return EBasisChange(H=H, P=P, P_inv=P_inv)


@dataclass(frozen=True)
class GammaChain:
    """Descending filtration of F_p[H], in e-basis coordinates.

    Term i is the span of the e_xy of level x + y >= i, as gamma_chain
    proves; it strictly descends from the whole algebra (i = 0) to zero
    (i = 2q - 1). dims[i] is the dimension of term i, and top is term
    q - 1, the one the family construction uses, kept as the coordinate
    subspace on the indices of its e_xy. shifts holds the read-only index
    maps of a - 1 and b - 1 that the proof checked.
    """

    dims: list[int]
    top: FpSubspace
    shifts: tuple[np.ndarray, np.ndarray]


def _e_shifts(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Index maps of N ⊗ I and I ⊗ N: e_xy -> e_(x+1,y) and e_(x,y+1), or -1 at q - 1."""
    k = np.arange(q * q)
    x, y = np.divmod(k, q)
    return np.where(x < q - 1, k + q, -1), np.where(y < q - 1, k + 1, -1)


def gamma_chain(H: AbelianH, change: EBasisChange | None = None) -> GammaChain:
    """Prove the descent V -> V(a-1) + V(b-1) from the whole algebra to zero.

    This computes [V, H] using only the two generators, which suffices
    because (gh - 1) = (g - 1)h + (h - 1) and H is abelian. a is A ⊗ I and
    b is I ⊗ A on the natural basis, A the cyclic shift of C_q; once the
    tripwire finds P^T A P^-T = I + N (N the superdiagonal shift), a - 1
    and b - 1 send e_xy to e_(x+1,y) and e_(x,y+1), or to zero at x or
    y = q - 1. Two facts then prove term i is the span of level >= i, by
    induction on i: (i) each shift raises the level x + y by exactly one
    wherever it is defined, one comparison per shift, and (ii) the first
    step, computed as subspace images, is the span of level >= 1. By (i)
    the images of term i lie in level >= i + 1; by (ii) every e_xy of
    level >= i + 1 is the image of some e of level one lower, which lies
    in term i. The dims are then counts of levels, and the descent
    reaches zero past the top level 2q - 2. That tripwire or either fact
    failing is a defect and raises AssertionError.
    """
    change = change or build_e_basis(H)
    p, q, n = H.p, H.q, H.ambient
    unit, shift = np.eye(q, dtype=np.int64), np.eye(q, k=1, dtype=np.int64)
    a_factor = FpMatrix(np.roll(unit, 1, axis=1), p)  # row i is the unit row at i + 1 mod q
    if change.conjugate_to_e(a_factor) != FpMatrix(unit + shift, p):
        raise AssertionError("a does not act on the e basis as I + N, construction defect")
    shifts = _e_shifts(q)
    level = np.arange(n) // q + np.arange(n) % q
    for s in shifts:
        s.setflags(write=False)
        defined = s >= 0
        if not np.array_equal(level[s[defined]], level[defined] + 1):
            raise AssertionError("an index shift does not raise the level by one")
    full = FpSubspace.full(n, p)
    if full.image(shifts[0]) + full.image(shifts[1]) != FpSubspace.coordinate(
        n, np.flatnonzero(level >= 1), p
    ):
        raise AssertionError("filtration step 1 does not match its expected spanning set")
    dims = np.cumsum(np.bincount(level)[::-1])[::-1].tolist() + [0]
    top = FpSubspace.coordinate(n, np.flatnonzero(level >= q - 1), p)
    return GammaChain(dims=dims, top=top, shifts=shifts)


def section_dims(chain: GammaChain) -> list[int]:
    """Dimensions of consecutive quotients: entry i is dims[i] - dims[i + 1].

    gamma_chain proved term i is the span of level >= i, which fixes
    entry i at min(i + 1, 2q - 1 - i).
    """
    d = chain.dims
    return [d[i] - d[i + 1] for i in range(len(d) - 1)]


def min_generators_local(V: FpSubspace, shifts) -> int:
    """Minimal number of module generators of V over the acting group.

    V is a coordinate subspace, such as a filtration term, and each shift
    is the index map of g - 1 for a generator g of the acting group, as in
    `GammaChain.shifts`. Valid when the acting group is
    unipotent on V over F_p (the p-group case, where the group algebra is
    local and Nakayama's lemma applies): the answer is dim V / (V * I)
    with I the augmentation ideal, and dim V for an empty shift list.

    Preconditions, both checked: every g maps V into V, and the iterated
    augmentation images of V descend to zero. The first is checked on
    V * I, computed as subspace images: V g lies in V exactly when
    V(g - 1) does, so every g maps V into V exactly when V * I <= V. The
    descent reaching zero means V * I^k = 0 for some k, so every product
    of k of the g - 1 kills V: each g - 1 is nilpotent on V, every g is
    unipotent there, and the acting group on V is a p-group, which is what
    Nakayama's lemma needs. It also catches generators that are each
    unipotent but together generate a group that is not a p-group. Past
    V * I the descent is walked on boolean masks of coordinates, each step
    the targets of the last term's indices under every shift, and stops at
    zero or at the first term that does not shrink.

    V * I is the sum of the V(g - 1), with no closure under the actions:
    for an invariant W, W(g - 1)h = W(g - 1) + W(g - 1)(h - 1), the last
    inside W(h - 1), so that sum is invariant, and it holds
    W(gh - 1) = W(g - 1)h + W(h - 1).
    """
    n = V.ambient_dim
    vi = FpSubspace.zero(n, V.p)
    for s in shifts:
        vi = vi + V.image(s)
    if not V.contains_space(vi):
        raise ValueError("action does not map the subspace into itself")
    maps = np.array(shifts, dtype=np.int64).reshape(-1, n)
    term = np.zeros(n + 1, dtype=bool)  # slot n takes the targets -1, and is cleared
    term[vi.pivots] = True
    dim, above = vi.dim, V.dim
    while dim:
        if dim >= above:
            raise ValueError("acting group is not unipotent over F_p; Nakayama inapplicable")
        nxt = np.zeros(n + 1, dtype=bool)
        nxt[maps[:, term[:n]]] = True
        nxt[n] = False
        term, dim, above = nxt, int(np.count_nonzero(nxt)), dim
    return V.dim - vi.dim


def outer_action(H: AbelianH, change: EBasisChange | None = None) -> None:
    """Assert phi and psi are commuting involutions that keep every filtration term.

    Term i is the span of the e_xy of level x + y >= i (gamma_chain proves
    this), so an operator keeps every term exactly when its e-basis matrix
    has no nonzero entry from a row of some level to a column of lower
    level. Both matrices are read from q x q factors. phi swaps the
    tensor factors, which commutes with P ⊗ P, so its e-basis matrix is
    the swap itself. psi is R ⊗ R, R the inversion of C_q, so its e-basis
    matrix is M ⊗ M with M = P^T R P^-T (`conjugate_to_e`); for an
    invertible M that keeps every term exactly when M has no nonzero entry
    below the diagonal (an entry M[x, x'] with x' < x, times some M[y, y']
    with y' <= y on a permutation of nonzero entries, lowers the level of
    e_xy).
    """
    q = H.q
    phi, psi = H.index_map("phi"), H.index_map("psi")
    ident = np.arange(H.order)
    if not (np.array_equal(phi[phi], ident) and np.array_equal(psi[psi], ident)):
        raise AssertionError("outer symmetries must be involutions")
    if not np.array_equal(phi[psi], psi[phi]):
        raise AssertionError("outer symmetries must commute")
    r = psi[:q]
    if not np.array_equal(psi, (r[:, None] * q + r[None, :]).reshape(-1)):
        raise AssertionError("psi must be the Kronecker square of its first factor")
    change = change or build_e_basis(H)
    level = ident // q + ident % q
    if not np.array_equal(level[phi], level):
        raise AssertionError("filtration is not invariant under phi")
    M = change.conjugate_to_e(FpMatrix(np.eye(q, dtype=np.int64)[r], H.p))
    if np.tril(M.a, -1).any():
        raise AssertionError("filtration is not invariant under psi")
