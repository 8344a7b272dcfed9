"""The group H = C_q x C_q (q = p^h) and its group algebra over F_p.

This module carries the algebraic half of the construction:

* the change of basis between the natural basis {a^i b^j} and the
  filtered basis {(a-1)^x (b-1)^y},
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
from functools import lru_cache

import numpy as np

from .field_linalg import (
    FpMatrix,
    FpSubspace,
    is_prime,
    mat_inverse,
)

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

    def elements(self):
        for i in range(self.q):
            for j in range(self.q):
                yield (i, j)


@lru_cache(maxsize=None)
def _pascal(n: int, p: int) -> np.ndarray:
    """Binomial coefficients C(x, i) mod p for 0 <= i <= x < n."""
    t = np.zeros((n, n), dtype=np.int64)
    t[:, 0] = 1
    for x in range(1, n):
        t[x, 1:] = (t[x - 1, 1:] + t[x - 1, :-1]) % p
    return t


@dataclass(frozen=True)
class EBasisChange:
    """Mutually inverse change matrices between the two bases of F_p[H].

    Column index(x, y) of ``from_e`` holds the expansion of
    (a-1)^x (b-1)^y in the natural basis; ``to_e`` is its inverse.
    """

    H: AbelianH
    from_e: FpMatrix
    to_e: FpMatrix

    def natural_to_e(self, vec: np.ndarray) -> np.ndarray:
        return (np.asarray(vec, dtype=np.int64) @ self.to_e.a.T) % self.H.p

    def conjugate_to_e(self, m: FpMatrix) -> FpMatrix:
        """Rewrite a right-action operator from natural to e coordinates.

        With row vectors v = w @ from_e.T, the operator matrix transforms
        as A_e = from_e.T @ A_nat @ to_e.T.
        """
        return self.from_e.transpose() @ m @ self.to_e.transpose()


def build_e_basis(H: AbelianH) -> EBasisChange:
    """Expand every (a-1)^x (b-1)^y in the natural basis and invert.

    The coefficient of a^i b^j in (a-1)^x (b-1)^y is
    C(x, i) * C(y, j) * (-1)^(x-i+y-j) mod p.
    """
    q, p, n = H.q, H.p, H.ambient
    binom = _pascal(q, p)
    sign = np.where(np.arange(q) % 2 == 0, 1, p - 1)
    from_e = np.zeros((n, n), dtype=np.int64)
    for x in range(q):
        colx = (binom[x] * sign[(x - np.arange(q)) % q]) % p
        for y in range(q):
            coly = (binom[y] * sign[(y - np.arange(q)) % q]) % p
            from_e[:, H.index(x, y)] = np.outer(colx, coly).reshape(-1) % p
    F = FpMatrix(from_e, p)
    try:
        T = mat_inverse(F)
    except ValueError as exc:
        raise AssertionError(
            "filtered-basis change matrix is singular, construction defect"
        ) from exc
    return EBasisChange(H=H, from_e=F, to_e=T)


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
    q, p, n = H.q, H.p, H.ambient
    nat = np.zeros((n, n), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            if generator == "a":
                target = H.index(i + 1, j)
            else:
                target = H.index(i, j + 1)
            nat[H.index(i, j), target] = 1
    nat_m = FpMatrix(nat, p)
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
    algebra to zero at index 2q - 1, and each term is verified against
    its expected spanning set {e_xy : x + y >= i} during construction.

    Each term is stored as its canonical basis in the smallest unsigned
    type that holds p - 1 (one byte for p < 257, an eighth of int64), and
    chain[i] rebuilds the subspace. The top term, which the claims read
    many times, is also kept built.
    """

    p: int
    q: int
    bases: tuple[np.ndarray, ...]
    top: FpSubspace

    def __len__(self) -> int:
        return len(self.bases)

    def __getitem__(self, i: int) -> FpSubspace:
        i = range(len(self.bases))[i]  # negative indices count from the end
        if i == self.top_index:
            return self.top
        basis = self.bases[i]
        return FpSubspace(basis.shape[1], FpMatrix(basis, self.p))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def dims(self) -> list[int]:
        return [basis.shape[0] for basis in self.bases]

    @property
    def top_index(self) -> int:
        """Index q - 1, the deepest term the family construction uses."""
        return self.q - 1


def _e_unit_span(H: AbelianH, level: int) -> FpSubspace:
    """Span of the e_xy with x + y >= level; unit rows in index order are canonical."""
    n = H.ambient
    x, y = np.divmod(np.arange(n), H.q)
    idxs = np.flatnonzero(x + y >= level)
    rows = np.zeros((len(idxs), n), dtype=np.int64)
    rows[np.arange(len(idxs)), idxs] = 1
    return FpSubspace(n, FpMatrix(rows, H.p))


def gamma_chain(H: AbelianH, change: EBasisChange | None = None) -> GammaChain:
    """Iterate V -> V(a-1) + V(b-1) from the whole algebra down to zero.

    This computes [V, H] using only the two generators, which suffices
    because (gh - 1) = (g - 1)h + (h - 1) and H is abelian. Each step is
    checked against the expected spanning set {e_xy : x + y >= i}; a
    mismatch is a defect and raises AssertionError.
    """
    change = change or build_e_basis(H)
    p, q, n = H.p, H.q, H.ambient
    a_e = action_matrix(H, "a", "e", change)
    b_e = action_matrix(H, "b", "e", change)
    ident = FpMatrix.identity(n, p)
    a_step = a_e - ident
    b_step = b_e - ident
    compact = np.min_scalar_type(p - 1)
    prev = FpSubspace.full(n, p)
    bases = [prev.basis.a.astype(compact)]
    top = None
    for i in range(1, 2 * q):
        nxt = prev.image(a_step) + prev.image(b_step)
        if nxt != _e_unit_span(H, i):
            raise AssertionError(
                f"filtration step {i} does not match its expected spanning set"
            )
        if not nxt.dim < prev.dim:
            raise AssertionError(f"filtration fails to descend strictly at step {i}")
        bases.append(nxt.basis.a.astype(compact))
        if i == q - 1:
            top = nxt
        prev = nxt
    if prev.dim != 0:
        raise AssertionError("filtration does not reach zero")
    return GammaChain(p=p, q=q, bases=tuple(bases), top=top)


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
        if not V.image(g) <= V:
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
    q, p, n = H.q, H.p, H.ambient
    phi = np.zeros((n, n), dtype=np.int64)
    psi = np.zeros((n, n), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            src = H.index(i, j)
            phi[src, H.index(j, i)] = 1
            psi[src, H.index(-i, -j)] = 1
    phi_m = FpMatrix(phi, p)
    psi_m = FpMatrix(psi, p)
    ident = FpMatrix.identity(n, p)
    if phi_m @ phi_m != ident or psi_m @ psi_m != ident:
        raise AssertionError("outer symmetries must be involutions")
    if phi_m @ psi_m != psi_m @ phi_m:
        raise AssertionError("outer symmetries must commute")
    change = change or build_e_basis(H)
    chain = chain or gamma_chain(H, change)
    for name, m in (("phi", phi_m), ("psi", psi_m)):
        m_e = change.conjugate_to_e(m)
        for i, sub in enumerate(chain):
            if not sub.image(m_e) <= sub:
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

