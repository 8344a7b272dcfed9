"""The group H = C_q x C_q (q = p^h) and its group algebra over F_p.

This module carries the algebraic half of the construction:

* the change of basis between the natural basis {a^i b^j} and the
  filtered basis {(a-1)^x (b-1)^y}, which is P ⊗ P for a q x q matrix P
  and is kept and applied as that factor alone,
* the descending chain of iterated augmentation images
  V, [V, H], [[V, H], H], ... starting from the whole algebra,
* minimal generator counts of H-submodules via Nakayama's lemma (the
  group algebra of a p-group over F_p is local, so generation is
  spanning modulo the augmentation image),
* the swap and inversion outer symmetries and the lower bound they give
  for generator counts over the extended group.

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
    "OuterAction",
    "build_e_basis",
    "action_matrix",
    "gamma_chain",
    "section_dims",
    "min_generators_local",
    "outer_action",
    "index_lower_bound",
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


def _permutation_matrix(H: AbelianH, s) -> FpMatrix:
    """Natural-basis matrix of s: row k is the unit row at index_map(s)[k]."""
    return FpMatrix(np.eye(H.ambient, dtype=np.int64)[H.index_map(s)], H.p)


def _kron_rows(rows: FpMatrix, m: FpMatrix) -> FpMatrix:
    """rows @ kron(m, m) for a stack of rows of length q^2, m being q x q.

    Row entry i*q + j is X[i, j] of a q x q array X, and its image is
    m^T X m: each of the two products is one (d*q x q) by (q x q) product
    over the whole stack, not a q^2 x q^2 one.
    """
    d, q, p = rows.rows, m.rows, m.p
    x = rows.a.reshape(d, q, q)
    for _ in range(2):  # X -> X^T m -> (X^T m)^T m = m^T X m
        flat = x.transpose(0, 2, 1).reshape(d * q, q)
        x = (FpMatrix._make(flat, p) @ m).a.reshape(d, q, q)
    return FpMatrix._make(x.reshape(d, q * q), p)


@dataclass(frozen=True)
class EBasisChange:
    """The q x q factor of the change between the two bases of F_p[H].

    Column x of P holds the expansion of (a-1)^x over 1, a, ..., a^(q-1),
    so (a-1)^x (b-1)^y expands to column index(x, y) of P ⊗ P. A row w of
    e coordinates is the natural row w (P ⊗ P)^T, and a natural row v has
    e coordinates v (P^-1 ⊗ P^-1)^T; both are applied factor by factor
    (`_kron_rows`), and no q^2 x q^2 change matrix is formed.
    """

    H: AbelianH
    P: FpMatrix
    P_inv: FpMatrix

    def conjugate_to_e(self, m: FpMatrix) -> FpMatrix:
        """Rewrite a right-action operator from natural to e coordinates.

        With row vectors v = w (P ⊗ P)^T, the operator matrix transforms
        as A_e = (P ⊗ P)^T A_nat (P^-1 ⊗ P^-1)^T.
        """
        right = _kron_rows(m, self.P_inv.transpose())
        return _kron_rows(right.transpose(), self.P).transpose()


def build_e_basis(H: AbelianH) -> EBasisChange:
    """Expand every (a-1)^x in the natural basis of C_q and invert.

    Column x of the q x q matrix P is (a-1)^x = (a-1)^(x-1) * a - (a-1)^(x-1)
    over 1, a, ..., a^(q-1). Since (a-1)^x (b-1)^y expands to column
    index(x, y) of P ⊗ P, only P is inverted.
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
    return EBasisChange(H=H, P=P, P_inv=P_inv)


def action_matrix(
    H: AbelianH,
    generator: str,
    basis: str = "natural",
    change: EBasisChange | None = None,
) -> FpMatrix:
    """Matrix of right multiplication by a generator of H.

    Vectors are rows and the matrix acts on the right: row index(i, j)
    holds the image of the basis element a^i b^j. The e-basis matrix is
    obtained by honestly conjugating the natural one through the basis
    change (never by assuming the closed form, which is what the tests
    verify against).
    """
    if generator not in ("a", "b"):
        raise ValueError(f"unknown generator {generator!r}")
    nat_m = _permutation_matrix(H, generator)
    if basis == "natural":
        return nat_m
    if basis == "e":
        change = change or build_e_basis(H)
        return change.conjugate_to_e(nat_m)
    raise ValueError(f"unknown basis {basis!r}")


@dataclass(frozen=True)
class GammaChain:
    """Descending filtration of F_p[H], in e-basis coordinates.

    chain[i] is the i-th term; the chain strictly descends from the whole
    algebra to zero at index 2q - 1, and gamma_chain checks each term
    against its expected spanning set {e_xy : x + y >= i}.

    Only the term dimensions and the top term, which the claims read many
    times, are kept; chain[i] rebuilds any other term as that checked
    unit-row basis.
    """

    p: int
    q: int
    dims: list[int]
    top: FpSubspace

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i: int) -> FpSubspace:
        i = range(len(self.dims))[i]  # negative indices count from the end
        if i == self.top_index:
            return self.top
        return _e_unit_span(self.q, self.p, i)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def top_index(self) -> int:
        """Index q - 1, the deepest term the family construction uses."""
        return self.q - 1


def _e_unit_span(q: int, p: int, level: int) -> FpSubspace:
    """Span of the e_xy with x + y >= level; unit rows in index order are canonical."""
    n = q * q
    x, y = np.divmod(np.arange(n), q)
    idxs = np.flatnonzero(x + y >= level)
    rows = np.zeros((len(idxs), n), dtype=np.int64)
    rows[np.arange(len(idxs)), idxs] = 1
    return FpSubspace(n, FpMatrix(rows, p))


def gamma_chain(H: AbelianH, change: EBasisChange | None = None) -> GammaChain:
    """Iterate V -> V(a-1) + V(b-1) from the whole algebra down to zero.

    This computes [V, H] using only the two generators, which suffices
    because (gh - 1) = (g - 1)h + (h - 1) and H is abelian. Each step is
    checked against the expected spanning set {e_xy : x + y >= i}; a
    mismatch is a defect and raises AssertionError.
    """
    change = change or build_e_basis(H)
    p, q, n = H.p, H.q, H.ambient
    ident = FpMatrix.identity(n, p)
    a_step = action_matrix(H, "a", "e", change) - ident
    b_step = action_matrix(H, "b", "e", change) - ident
    prev = FpSubspace.full(n, p)
    dims = [prev.dim]
    top = None
    for i in range(1, 2 * q):
        nxt = prev.image(a_step) + prev.image(b_step)
        if nxt != _e_unit_span(q, p, i):
            raise AssertionError(
                f"filtration step {i} does not match its expected spanning set"
            )
        if not nxt.dim < prev.dim:
            raise AssertionError(f"filtration fails to descend strictly at step {i}")
        dims.append(nxt.dim)
        if i == q - 1:
            top = nxt
        prev = nxt
    if prev.dim != 0:
        raise AssertionError("filtration does not reach zero")
    return GammaChain(p=p, q=q, dims=dims, top=top)


def section_dims(chain: GammaChain) -> list[int]:
    """Dimensions of consecutive quotients, checked against the closed form.

    Entry i is dim chain[i] - dim chain[i+1] and must equal
    min(i + 1, 2q - 1 - i).
    """
    q, term_dims = chain.q, chain.dims
    dims = []
    for i in range(2 * q - 1):
        d = term_dims[i] - term_dims[i + 1]
        expected = min(i + 1, 2 * q - 1 - i)
        if d != expected:
            raise AssertionError(
                f"section {i} has dimension {d}, expected {expected}"
            )
        dims.append(d)
    return dims


def _is_nilpotent(m: FpMatrix) -> bool:
    n = m.rows
    power = m
    steps = max(1, n.bit_length())
    for _ in range(steps):
        if power.is_zero():
            return True
        power = power @ power
    return power.is_zero()


def _module_closure(space: FpSubspace, actions: list[FpMatrix]) -> FpSubspace:
    while True:
        grown = space
        for g in actions:
            grown = grown + grown.image(g)
        if grown == space:
            return space
        space = grown


def min_generators_local(
    V: FpSubspace, actions: list[FpMatrix], p: int
) -> int:
    """Minimal number of module generators of V over the acting group.

    Valid for unipotent action groups over F_p (the p-group case, where
    the group algebra is local and Nakayama's lemma applies): the answer
    is dim V / (V * I) with I the augmentation ideal.

    Preconditions, all checked: every action matrix is unipotent and maps
    V into V, and the iterated augmentation images of V descend to zero.
    The descent check matters because per-generator unipotence alone does
    not force the generated group to be a p-group.
    """
    n = V.ambient_dim
    ident = FpMatrix.identity(n, p)
    deltas = []
    for g in actions:
        if g.p != p or V.p != p:
            raise ValueError("moduli of subspace and actions must all equal p")
        if g.rows != n or g.cols != n:
            raise ValueError("action matrix shape does not match the ambient space")
        if not _is_nilpotent(g - ident):
            raise ValueError(
                "acting group is not unipotent over F_p; Nakayama inapplicable"
            )
        if not V.contains((V.basis @ g).a):
            raise ValueError("action matrix does not map the subspace into itself")
        deltas.append(g - ident)

    def augmentation_image(space: FpSubspace) -> FpSubspace:
        img = FpSubspace.zero(n, p)
        for d in deltas:
            img = img + space.image(d)
        return _module_closure(img, actions)

    vi = augmentation_image(V)
    w = vi
    while w.dim:
        nxt = augmentation_image(w)
        if nxt == w:
            raise ValueError(
                "acting group is not unipotent over F_p; Nakayama inapplicable"
            )
        w = nxt
    return V.dim - vi.dim


@dataclass(frozen=True)
class OuterAction:
    """Natural-basis permutation matrices of the two outer symmetries.

    phi swaps the two coordinates of H ((i, j) -> (j, i)); psi inverts
    them ((i, j) -> (-i, -j)). Both are involutions and they commute.
    """

    phi: FpMatrix
    psi: FpMatrix


def outer_action(
    H: AbelianH,
    change: EBasisChange | None = None,
    chain: GammaChain | None = None,
) -> OuterAction:
    """Build phi and psi and assert every filtration term is invariant."""
    phi, psi = H.index_map("phi"), H.index_map("psi")
    ident = np.arange(H.order)
    if not (np.array_equal(phi[phi], ident) and np.array_equal(psi[psi], ident)):
        raise AssertionError("outer symmetries must be involutions")
    if not np.array_equal(phi[psi], psi[phi]):
        raise AssertionError("outer symmetries must commute")
    phi_m, psi_m = _permutation_matrix(H, "phi"), _permutation_matrix(H, "psi")
    change = change or build_e_basis(H)
    chain = chain or gamma_chain(H, change)
    for name, m in (("phi", phi_m), ("psi", psi_m)):
        m_e = change.conjugate_to_e(m)
        for i, sub in enumerate(chain):
            if not sub.contains((sub.basis @ m_e).a):
                raise AssertionError(
                    f"filtration term {i} is not invariant under {name}"
                )
    return OuterAction(phi=phi_m, psi=psi_m)


def index_lower_bound(d_h: int, index: int) -> int:
    """ceil(d_h / index): a generating-set bound over a supergroup.

    A k-element module generating set over a group containing H with the
    given index yields a (k * index)-element generating set over H by
    multiplying with a transversal, so d over the big group is at least
    d_h / index.
    """
    if index < 1:
        raise ValueError("index must be at least 1")
    if d_h < 0:
        raise ValueError("generator count cannot be negative")
    return -(-d_h // index)

