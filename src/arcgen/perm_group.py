"""Permutation groups on graph vertices, exact and deterministic.

Orders, membership and stabilizers come from an incremental stabilizer
chain; base points are chosen deterministically (the smallest point
moved by the first generator that reaches a level), no randomization is
used anywhere, so every quantity is reproducible across runs. A
generator g that normalizes the group N built so far (its conjugates of
N's strong generators sift to the identity) is added by Sims's method
for soluble groups: gN has some order m, and each prime r of m takes one
step that multiplies one level's orbit, and |N|, by exactly r, with no
Schreier generator sifted. Any other generator is closed in by
Schreier-Sims, which sifts Schreier generators in chunks of int32 rows
and installs only each chunk's first residue, so the install order
depends on the input alone. The family groups' generators (the layer of
the module, then the translations a and b, then phi and psi) all take the
first route once the layer is spun (below).

Below its permutation levels a chain may hold one linear level Λ: the
stabilizer of every base, when it consists of fibre translations
k*r + c -> k*r + (c + w[k]) mod r of the blocks of r consecutive points,
r prime, kept as a subspace W of F_r^(n/r) in reduced rows, a
`field_linalg.FpRowSpace`, whose elimination `rref` shares. Λ opens below
the first level, at the first residue that passes every level and is such
a translation while those blocks are a block system of the group; the
family's fibres {h} x F_p are these blocks, and its point stabilizers
are translations. A translation that reaches Λ is reduced by one exact
product and is added by one row insertion, so the order is the product
of the level orbits times r^rank. Any other residue that passes every
level splits Λ: a new level opens just above it, at the residue's first
moved point b, with W's orbit of b as its orbit, and W keeps its vectors
that are 0 on b's block, so Λ stays the stabilizer of all the bases.

When a group maps the blocks of r points onto blocks by affine maps of
F_r, conjugation by a generator is a linear map of shift vectors. The
smallest subspace that holds some translations' shift vectors and that
these maps keep is then a spin (`FibreShifts.spin`, the MeatAxe's submodule
closure): one reduction and one insertion per round of images, and its
translations are products of conjugates of the first ones.

One routine, `StabChain._open`, opens Λ on a span W of fibre translations
for one prime r: a chain's leading run of at least two of them, as the
family's layer leads its groups' lists, or a normal closure's seeds that
are translations. They commute and have order r, so they generate exactly
W. Their shift vectors are row-reduced into Λ SIFT_CHUNK rows at a time,
with the order checked after each chunk. When the chain's later
generators, or the closure's group's, are all affine on the blocks, W is
spun under their maps, which takes the family's q layer rows to the whole
module M, normal in the group. Then W is split at each base-prefix point,
or else at the first translation's first moved point, where the first
level opens when the elements come one at a time. The other elements are
added one at a time; each keeps a spun W, so their normality tests do not
conjugate W's rows, and on the family each takes prime steps. The
Frattini rank then extends the closure's chain by its generators, whose
residues that reach Λ as translations join it as one block.

On top of the chain sit the predicates the verification pipeline needs:
vertex/arc transitivity, local actions, the Frattini decomposition check,
the rank of the largest elementary abelian p-quotient (the minimal number
of generators of a p-group, by the Burnside basis theorem) and exponents.
The exponent is read off one walk of the group through its chain: each
element walks one point of every orbit that holds a moved base point
until it returns, and the lcm of these return times is the lcm of all
element orders. A single element's order comes from a pointer-doubling
cycle-length kernel. Orbits come from `graph_builder`'s labeller over the
generators' image rows; a breadth-first walk runs only where a tree word
is read, in transversals and in arc orbits, which read Schreier
generators off it.

Composition convention: permutations act on the right, x^(g*h) = (x^g)^h,
and (g * h).images[x] == h.images[g.images[x]].
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import time
from collections import deque

import numpy as np

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .field_linalg import FpRowSpace, is_prime
from .graph_builder import Graph, _label

__all__ = [
    "FibreShifts",
    "Perm",
    "PermGroup",
    "NotTransitiveError",
    "is_automorphism",
    "is_vertex_transitive",
    "arc_orbit_size",
    "local_action",
    "frattini_decomposition_check",
    "frattini_rank",
    "exponent",
    "perm_to_line",
    "perms_from_lines",
]

_DTYPE = np.int32


class NotTransitiveError(ValueError):
    """A subgroup required to be transitive is not (precondition failure)."""


def _inverse_arr(a: np.ndarray) -> np.ndarray:
    inv = np.empty_like(a)
    inv[a] = np.arange(len(a), dtype=a.dtype)
    return inv


def _power(a: np.ndarray, k: int) -> np.ndarray:
    if k < 0:
        a, k = _inverse_arr(a), -k
    result = np.arange(len(a), dtype=a.dtype)
    while k:
        if k & 1:
            result = a[result]
        a = a[a]
        k >>= 1
    return result


def _cycle_lengths(a: np.ndarray) -> list[int]:
    """The distinct cycle lengths of a permutation, ascending."""
    n = len(a)
    a = a.astype(np.intp)  # gathers through int32 indices convert them each time
    low = np.arange(n, dtype=np.min_scalar_type(n))
    # after j rounds low[x] is the least of x, x^a, ..., x^(a^(2^j - 1))
    for _ in range(max(n - 1, 0).bit_length()):
        np.minimum(low, low[a], out=low)
        a = a[a]
    # a cycle's length is the count of its least point in low
    return (np.flatnonzero(np.bincount(np.bincount(low))[1:]) + 1).tolist()


def _order(a: np.ndarray) -> int:
    """Least common multiple of the cycle lengths of a."""
    return math.lcm(*_cycle_lengths(a))


def _prime_factors(m: int) -> list[int]:
    """Primes of m, a group or element order, with multiplicity and ascending."""
    out, r = [], 2
    while m > 1:
        while m % r == 0:
            out.append(r)
            m //= r
        r += 1
    return out


# Points a breadth-first walk expands at once, which bounds its temporaries
BFS_BATCH = 64


def _bfs(arrs: np.ndarray, starts):
    """Breadth-first walk from the start points under k generators.

    arrs holds the generators' images, one row each, and a batch of up to
    BFS_BATCH reached points is expanded at once. New points are taken in
    batch order, then generator order, as a FIFO queue takes them. Returns
    the points reached, in that order, and edges: edges[j] = i*k + g when
    points[j] was first reached from points[i] by generator g (-1 for the
    starts).
    """
    size = arrs.shape[1]
    seen = np.zeros(size, dtype=bool)
    seen[np.asarray(starts, dtype=np.intp)] = True
    points, edges = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
    end = np.count_nonzero(seen)
    points[:end], edges[:end] = np.flatnonzero(seen), -1
    done = 0
    while done < end:
        images = arrs[:, points[done : min(done + BFS_BATCH, end)]].T
        cand = images.ravel()
        fresh = np.flatnonzero(~seen[cand])
        order = np.argsort(cand[fresh], kind="stable")  # to find first occurrences
        image = cand[fresh][order]
        hit = fresh[np.sort(order[np.diff(image, prepend=-1) != 0])]
        seen[cand[hit]] = True
        new = end + len(hit)
        edges[end:new] = done * images.shape[1] + hit
        points[end:new] = cand[hit]
        done, end = done + len(images), new
    return points[:end], edges[:end]


class Perm:
    """A permutation of {0, ..., n-1}; images[v] is the image of v."""

    __slots__ = ("images",)

    def __init__(self, images):
        arr = np.asarray(images)
        if arr.ndim != 1:
            raise ValueError("images must be a flat sequence")
        # checked before the int32 cast, which would truncate floats, take
        # bools and digit strings, and wrap integers out of its range
        integral = arr.dtype.kind in "iu" or not len(arr)
        if not integral or not np.array_equal(np.sort(arr), np.arange(len(arr))):
            raise ValueError("images do not form a permutation of 0..n-1")
        arr = arr.astype(_DTYPE)
        arr.setflags(write=False)
        self.images = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Perm":
        p = object.__new__(cls)
        arr.setflags(write=False)
        p.images = arr
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._wrap(np.arange(degree, dtype=_DTYPE))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm._wrap(other.images[self.images])

    def inverse(self) -> "Perm":
        return Perm._wrap(_inverse_arr(self.images))

    def __pow__(self, k: int) -> "Perm":
        return Perm._wrap(_power(self.images, k))

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.degree, dtype=_DTYPE)).all())

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                continue
            cyc = [i]
            j = int(self.images[i])
            seen[i] = True
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = int(self.images[j])
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return _order(self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return np.array_equal(self.images, other.images)

    def __hash__(self):
        return hash(self.images.tobytes())

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Perm.identity({self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc[:8])
        if len(cyc) > 8:
            body += "..."
        return f"Perm[{self.degree}]{body}"


class _Level:
    """One chain level: its base, orbit, transversal inverses and strong generators."""

    __slots__ = ("base", "points", "pos", "inv", "gens", "pending", "deferred")

    def __init__(self, base: int, ident: np.ndarray):
        n = len(ident)
        self.base = base
        self.points = [base]
        # pos[x]: index of x in points, -1 when x is not in the orbit
        self.pos = np.full(n, -1, dtype=_DTYPE)
        self.pos[base] = 0
        # Inverses of the transversal elements u_k (base^u_k = points[k]),
        # row k for points[k]; the u_k themselves are never stored. Rows
        # double on demand up to the degree, so only the first
        # len(points) rows are meaningful.
        self.inv = ident[None, :].copy()
        # effective generators: every strong generator fixing all the
        # bases above this level (anchored here or deeper)
        self.gens: list[np.ndarray] = []
        self.pending: deque = deque()
        # residues a chunk found after the one it installed; sifted again
        # before any further pending pair
        self.deferred = np.empty((0, n), dtype=_DTYPE)

    def add(self, gen: np.ndarray) -> int:
        """Append a strong generator; returns its index."""
        self.gens.append(gen)
        return len(self.gens) - 1

    def extend(self, points: np.ndarray, inv: np.ndarray) -> None:
        """Append new orbit points, with the inverses of their transversals as rows."""
        if (self.pos[points] >= 0).any():
            raise AssertionError("orbit extension reached a point already in the orbit")
        k, n = len(self.points), self.inv.shape[1]
        end = k + len(points)
        if end > len(self.inv):
            grown = np.empty((min(max(2 * k, end), n), n), dtype=_DTYPE)
            grown[:k] = self.inv[:k]
            self.inv = grown
        self.inv[k:end] = inv
        self.pos[points] = np.arange(k, end, dtype=_DTYPE)
        self.points.extend(points.tolist())


class FibreShifts(FpRowSpace):
    """The bottom level Λ: a subspace W of F_r^(n/r) of fibre translations.

    w in W acts on the blocks {k*r, ..., k*r + r - 1} as k*r + c ->
    k*r + (c + w[k]) mod r, so W is elementary abelian of order r^rank.
    W is a row space over F_r with one column per block: its reduced
    basis, reduction, insertion and cuts are `FpRowSpace`'s, and this
    class turns permutations into shift vectors and back. `perms` is also
    how the pipeline turns module rows into vertex permutations.
    """

    __slots__ = ("r", "_c", "_b")

    def __init__(self, degree: int, r: int):
        super().__init__(degree // r, r)
        self.r = r
        self._c = np.arange(degree, dtype=_DTYPE) % r  # a point's place in its block
        self._b = np.arange(degree, dtype=_DTYPE) - self._c  # its block's first point

    def perms(self, v: np.ndarray | None = None) -> np.ndarray:
        """The translations by the rows of v (the basis by default), as image rows."""
        v = self.rows if v is None else v
        return self._b + (self._c + np.repeat(v.astype(_DTYPE), self.r, axis=1)) % self.r

    def shifts(self, g: np.ndarray):
        """Shift vectors of the rows of g, and which rows are fibre translations.

        A row's shift on block k is read at k*r; the row is a fibre
        translation exactly when it equals the translation by its shifts.
        """
        s = g[:, :: self.r] - self._b[:: self.r]
        return s, (self.perms(s) == g).all(axis=1)

    def affine(self, g: np.ndarray):
        """The maps by which the rows of g conjugate translations, or None.

        Row g must map each block k onto a block pi[k] by an affine map
        c -> alpha[k]*c + beta[k] of F_r. Then g^-1 t_w g, for the
        translation t_w by w, is the translation by w' with
        w'[pi[k]] = alpha[k] * w[k], that is w'[j] = scale[j] * w[src[j]]
        for src = pi^-1 and scale = alpha[src]. Returns (src, scale), one
        row per row of g whose map moves some w (a translation maps every w
        to itself), or None when some row is not of that form.
        """
        r = self.r
        blocks = g.reshape(len(g), g.shape[1] // r, r)
        pi, beta = np.divmod(blocks[:, :, 0], r)
        alpha = (blocks[:, :, 1] - blocks[:, :, 0]) % r
        fibre = (alpha[:, :, None] * np.arange(r) + beta[:, :, None]) % r
        if not (blocks == pi[:, :, None] * r + fibre).all():
            return None
        src = np.empty_like(pi)
        np.put_along_axis(src, pi, np.arange(pi.shape[1])[None, :], axis=1)
        scale = np.take_along_axis(alpha, src, axis=1).astype(np.int64)
        moving = (src != np.arange(src.shape[1])).any(axis=1) | (scale != 1).any(axis=1)
        return src[moving], scale[moving]

    def spin(self, src: np.ndarray, scale: np.ndarray, check) -> None:
        """Close W under the maps w -> w' of `affine`, w'[j] = scale[i, j] * w[src[i, j]].

        This is the smallest subspace that holds W and that every map keeps
        (the MeatAxe's spin: Parker 1984; Holt, Eick and O'Brien 2005,
        ch. 7). Each round maps the rows the last round added (all of W in
        the first) by every map, and reduces the images against W by one
        product; a round whose images all reduce to 0 ends it. Before the
        images join W by one `insert`, check(lead) runs with lead the
        number of distinct leading columns of the reduced nonzero images:
        such rows are independent of each other and of W, so the rank grows
        by at least lead. check(0) runs after each insertion.
        """
        k = 0
        while self.rank > k:
            new, k = self.rows[k:], self.rank
            v = self.reduce((new[:, src] * scale % self.r).reshape(-1, new.shape[1]))
            v = v[v.any(axis=1)]
            if len(v):
                check(int(np.count_nonzero(np.bincount((v != 0).argmax(axis=1)))))
                self.insert(v)
                check(0)


def _fibre_prime(h: np.ndarray, gens: list[np.ndarray]) -> int | None:
    """The prime r for which h is a nonzero fibre translation, or None.

    The blocks of r consecutive points must also be a block system of
    the gens: each gen maps every block onto a block.
    """
    r = _order(h)
    if _prime_factors(r) != [r] or len(h) % r or not FibreShifts(len(h), r).shifts(h[None])[1][0]:
        return None
    blocks = np.array(gens, dtype=_DTYPE).reshape(len(gens), len(h) // r, r) // r
    return r if (blocks == blocks[:, :, :1]).all() else None


# Rows sifted together: a level's Schreier generators, or a new generator's
# conjugates of the strong generators, go down the chain in chunks of at
# most this many rows.
SIFT_CHUNK = 64


class StabChain:
    """Deterministic incremental stabilizer chain.

    Works on raw numpy image arrays; Perm objects only appear at the
    PermGroup boundary. After every add_generator the chain is a complete
    base and strong generating set of the group so far, N, so either
    route may take the next generator g.

    If g normalizes N (g^-1 s g sifts to the identity for every strong
    generator s that does not commute with g), the order m of gN is found
    by sifting powers of g. For each prime r of m in turn, x = g^e sifts
    to a residue h at some level j, where e is m over the primes taken so
    far; h has order r modulo the group so far, the orbit at level j
    becomes the r disjoint images of itself under h^0 .. h^(r-1), and h
    joins the generators of levels 0..j (Sims 1990; Seress 2003, ch. 7).
    When m is prime, x is g itself, and the sift that found g new gives
    h: each such generator is sifted once.

    Otherwise Schreier-Sims closes the chain. It always works on the
    deepest level with work left. A level takes its pending (orbit point,
    generator) pairs in order: a pair whose image point is new extends
    the orbit at once; every other pair yields a Schreier generator, and
    these are collected into chunks of up to SIFT_CHUNK rows that are
    sifted down the deeper levels together (one gather per level, one
    identity test at the bottom). Of a chunk's residues only the first in
    row order is installed; the later ones are deferred on the level and
    sifted again, before its next pending pair, once the deeper levels
    are complete. The install order is therefore fixed by the input alone.

    Below the levels sits Λ (`linear`, None until it opens; see the
    module docstring), the stabilizer of every base as a subspace W of
    fibre translations. A residue that passes every level goes there on
    either route, by `_land`: a translation is one row insertion (with fresh
    (point, generator) work on every level on the Schreier-Sims route), and
    any other residue splits Λ and is sifted again from the new level.
    Λ's strong generators are its rows as permutations, and the order is
    the product of the orbits times r^rank.

    The constructor opens Λ on a leading run of at least two fibre
    translations for one prime (`_open`, module docstring), and takes
    every later generator by add_generator.

    Budget checks (order cap, optional wall-clock cap) run after every
    prime step, insertion into Λ, chunk `_open` reads and round of a
    spin, and the wall-clock cap at every pending pair of the closure
    loop, so oversize groups fail fast with CapExceeded instead of
    running away. No partial order exceeds the final one, so the order
    cap fires on every route exactly when the group's order exceeds it.
    A spin round also fires it before its elimination when the rows it
    will surely add take the order past the cap.
    """

    def __init__(self, degree: int, gens=(), *, caps: Caps = DEFAULT_CAPS, base_prefix=()):
        self._start(degree, [], None, caps)
        gens, base_prefix = list(gens), tuple(base_prefix)
        # a run of two or more fibre translations for gens[0]'s prime leads
        r = _fibre_prime(np.asarray(gens[0], dtype=_DTYPE), []) if len(gens) > 1 else None
        lin = FibreShifts(degree, r) if r is not None else None
        taken = 0
        if lin is not None and lin.shifts(np.array(gens[:2], dtype=_DTYPE))[1].all():
            taken = self._open(lin, gens, base_prefix=base_prefix)
        else:
            for b in base_prefix:
                self._split(int(b))  # without Λ, a level of one point
        for g in gens[taken:]:
            self.add_generator(g)
        self._kept = 0

    def _open(self, lin: FibreShifts, rows, maps=None, base_prefix=()) -> int:
        """Open the empty chain's Λ, lin, on the span W of the rows' leading fibre translations.

        The translations, the rows from the first on that are fibre
        translations for lin's prime, are read SIFT_CHUNK rows at a time:
        each chunk's shift vectors, reduced against W, join W by one
        `insert`, and the order is checked before the next chunk is read.
        W is spun under maps (`FibreShifts.affine`), by default those of the
        rows after the translations when all of them are affine on the
        blocks, and its rank is kept in `_kept`. Last, W is split at each
        base-prefix point, or else at the first translation's first moved
        point. Returns the number of translations read.
        """
        self.linear, taken = lin, 0
        while taken < len(rows):
            s, fibre = lin.shifts(np.array(rows[taken : taken + SIFT_CHUNK], dtype=_DTYPE))
            k = len(fibre) if fibre.all() else int(fibre.argmin())
            v = lin.reduce(s[:k].astype(np.int64))
            if v.any():
                lin.insert(v)
            taken += k
            self._check()
            if k < len(fibre):
                break
        if maps is None:
            later = np.array(rows[taken:], dtype=_DTYPE).reshape(len(rows) - taken, self.degree)
            maps = lin.affine(later)
        if maps is not None:
            lin.spin(*maps, self._check)
            self._kept = lin.rank
        if not base_prefix:  # where the first level opens when the rows come one at a time
            base_prefix = np.flatnonzero(np.asarray(rows[0]) != self._ident)[:1]
        for b in base_prefix:
            self._split(int(b))  # the splits at the bases are the chain of W
        return taken

    @classmethod
    def _from_levels(
        cls, degree: int, levels: list[_Level], linear: FibreShifts | None, caps: Caps
    ) -> "StabChain":
        chain = object.__new__(cls)  # with a deadline of its own
        chain._start(degree, levels, linear, caps)
        return chain

    def _start(self, degree: int, levels: list[_Level], linear: FibreShifts | None, caps: Caps) -> None:
        self.degree = degree
        self.caps = caps
        self.deadline = time.monotonic() + caps.time_cap_s if caps.time_cap_s is not None else None
        self._ident = np.arange(degree, dtype=_DTYPE)
        self.levels = levels
        self.linear = linear  # Λ, None until a fibre translation opens it
        # while `_open`'s caller adds the elements after a spin: the first
        # level's first _kept strong generators, the spun W, which each of
        # them keeps
        self._kept = 0

    def order(self) -> int:
        o = 1
        for lv in self.levels:
            o *= len(lv.points)
        if self.linear is not None:
            o *= self.linear.r**self.linear.rank
        return o

    def base(self) -> list[int]:
        return [lv.base for lv in self.levels]

    def strong_generators(self, from_level: int = 0) -> list[np.ndarray]:
        """Generators of the from_level-th stabilizer in the chain."""
        if from_level < len(self.levels):
            return list(self.levels[from_level].gens)
        return list(self.linear.perms()) if self.linear is not None else []

    def _deadline_check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise CapExceeded("time", self.caps.time_cap_s, "stabilizer-chain construction")

    def _order_check(self, lead: int = 0) -> None:
        # lead: rows about to join Λ, independent of it and of each other
        order = self.order() * self.linear.r**lead if lead else self.order()
        if order > self.caps.order_cap:
            raise CapExceeded("order", self.caps.order_cap, "stabilizer chain grew past the cap")

    def _check(self, lead: int = 0) -> None:
        self._deadline_check()
        self._order_check(lead)

    def _sift_rows(self, g: np.ndarray, start: int):
        """Sift every row of g through the levels from start on, then Λ.

        Returns (rows, levels, residues) for the rows that do not reduce
        to the identity, in row order: each row's index in g, the level
        where it left the chain (len(self.levels) if it passed them all)
        and its residue. A row that passes every level is reduced by Λ if
        it is a fibre translation, and left as it is otherwise.
        """
        n, depth = self.degree, len(self.levels)
        rows = np.arange(len(g))
        found = []
        for i in range(start, depth):
            if not len(rows):
                break
            lv = self.levels[i]
            p = lv.pos[g[:, lv.base]]
            gone = p < 0
            if gone.any():
                found.append((rows[gone], i, g[gone]))
                keep = ~gone
                g, rows, p = g[keep], rows[keep], p[keep]
            if p.any():  # otherwise every row fixes the base
                g = lv.inv.take(np.multiply(p, n, dtype=np.intp)[:, None] + g)
        if len(rows):
            lin = self.linear
            if lin is None:
                left = (g != self._ident).any(axis=1)
                res = g[left]
            else:
                s, fibre = lin.shifts(g)
                v = lin.reduce(s[fibre].astype(np.int64))
                new = v.any(axis=1)
                left = ~fibre
                left[fibre] = new
                res = g[left]
                res[fibre[left]] = lin.perms(v[new])
            if len(res):
                found.append((rows[left], depth, res))
        if not found:
            return rows[:0], rows[:0], g[:0]
        rows = np.concatenate([r for r, _, _ in found])
        levels = np.concatenate([np.full(len(r), i) for r, i, _ in found])
        order = np.argsort(rows, kind="stable")
        return rows[order], levels[order], np.concatenate([res for _, _, res in found])[order]

    def sift(self, arr: np.ndarray, start: int = 0):
        """Reduce through transversals; return (residue or None, level)."""
        _, levels, residues = self._sift_rows(arr[None, :], start)
        if len(levels):
            return residues[0], int(levels[0])
        return None, len(self.levels)

    def contains(self, arr: np.ndarray) -> bool:
        residue, _ = self.sift(arr)
        return residue is None

    def add_generator(self, arr: np.ndarray) -> bool:
        """Add one generator; returns True if the group grew structurally."""
        arr = np.asarray(arr, dtype=_DTYPE)
        residue, level = self.sift(arr)
        if residue is None:
            return False
        self._add_sifted(arr, residue, level)
        return True

    def _add_sifted(self, arr: np.ndarray, residue: np.ndarray, level: int) -> None:
        """Add arr, whose sift left residue at level, by either route."""
        if self._normalizes(arr):
            self._extend_normal(arr, residue, level)
        else:
            self._install(residue, level)
            self._process_all()

    def _normalizes(self, g: np.ndarray) -> bool:
        """True if g^-1 s g lies in the group for every strong generator s.

        The first level's first _kept strong generators, the basis of a spun
        W, are not conjugated: g keeps W while `_open`'s caller adds the
        elements after the spin.
        """
        gens = self.strong_generators()[self._kept :]
        g_inv = _inverse_arr(g)
        for start in range(0, len(gens), SIFT_CHUNK):
            s = np.array(gens[start : start + SIFT_CHUNK])
            conj = g[s[:, g_inv]]
            # a conjugate equal to s (s commutes with g, as translations do) needs no sift
            moved = (conj != s).any(axis=1)
            if moved.any() and len(self._sift_rows(conj[moved], 0)[0]):
                return False
        return True

    def _extend_normal(self, g: np.ndarray, residue: np.ndarray, level: int) -> None:
        # g normalizes the group N, so <N, g> / N is cyclic of order m.
        # Each step adds x = g^e for the next prime r of m: x has order r
        # modulo the group so far, and so does its residue h.
        m = _order(g)
        for r in sorted(set(_prime_factors(m))):
            # g itself is not in N, so m = r needs no sift
            while m % r == 0 and m > r and self.contains(_power(g, m // r)):
                m //= r
        e = m
        for r in _prime_factors(m):
            e //= r
            h, j = (residue, level) if r == m else self.sift(_power(g, e))
            self._extend_level(h, j, r)
            self._check()

    def _extend_level(self, h: np.ndarray, j: int, r: int) -> None:
        # h fixes the bases above level j, normalizes the group N and has
        # h^r in N, so |<N, h> : N| = r. The level's stabilizer K gains h,
        # and <K, h> is the union of the cosets K h^t, t < r. Its orbit is
        # therefore the union of the images of the orbit under h^t, which
        # are r disjoint orbits of K because base_j^h is not in the orbit;
        # every other level keeps its orbit. The transversal of x^(h^t) is
        # u h^t for the transversal u of x, with inverse inv(u)[h^-t]. A
        # fibre translation that reaches Λ is one insertion there.
        h, j, v = self._land(h, j)
        if v is not None:
            self._insert(h, v, pending=False)
            return
        lv = self.levels[j]
        h_inv = _inverse_arr(h)
        points, inv = np.array(lv.points), lv.inv[: len(lv.points)]
        for _ in range(r - 1):
            points, inv = h[points], inv[:, h_inv]
            lv.extend(points, inv)
        for k in range(j + 1):
            self.levels[k].add(h)

    def _land(self, h: np.ndarray, j: int):
        """Split Λ until the residue h stops at a level or is a translation Λ takes.

        Λ opens below the first level (so the first generator opens a level
        at its first moved point, as a base prefix there would), at the
        first residue that is a fibre translation for a prime r, on the
        blocks of r consecutive points, while those blocks are a block
        system of the group. A residue that passes every level but is not a
        fibre translation opens a level at its first moved point, and is
        sifted again from it. Returns (h, j, v), where v is h's shift
        vector when Λ takes h, and None when h stops at level j.
        """
        while j == len(self.levels):
            if self.linear is None and self.levels:
                r = _fibre_prime(h, self.levels[0].gens)
                if r is not None:
                    self.linear = FibreShifts(self.degree, r)
            if self.linear is not None:
                s, fibre = self.linear.shifts(h[None])
                if fibre[0]:
                    return h, j, s[0].astype(np.int64)
            self._split(int(np.flatnonzero(h != self._ident)[0]))
            _, levels, residues = self._sift_rows(h[None], j)
            h, j = residues[0], int(levels[0])
        return h, j, None

    def _split(self, beta: int) -> None:
        # A new level just above Λ, at beta. Λ is the stabilizer of the
        # bases, so the new level's orbit is W's orbit of beta: beta's
        # block when some row u is nonzero there, with transversals u^t
        # from u scaled to 1 at the block; and Λ keeps W's vectors that are
        # 0 on the block, which fix beta. The level's generators are W's
        # rows, so no Schreier generator needs sifting.
        lv = _Level(beta, self._ident)
        lin = self.linear
        if lin is not None:
            for s in lin.perms():
                lv.add(s)
            u = lin.cut(beta // lin.r)
            if u is not None:
                t = np.arange(1, lin.r)
                lv.extend(lin.perms(t[:, None] * u)[:, beta], lin.perms(-t[:, None] * u % lin.r))
        self.levels.append(lv)

    def _insert(self, h: np.ndarray, v: np.ndarray, pending: bool) -> None:
        # h, a residue or a block of them, with shift vectors v and so
        # reduced, joins W and every level's generators; on the
        # Schreier-Sims route each level also gets (point, gen) work for it
        self.linear.insert(v)
        for lv in self.levels:
            for x in np.atleast_2d(h):
                gi = lv.add(x)
                if pending:
                    lv.pending.extend((pos, gi) for pos in range(len(lv.points)))
        self._order_check()

    def _install(self, arr: np.ndarray, anchor: int) -> None:
        # The residue fixes every base above its anchor level, so it joins
        # the effective generator list of the anchor and of every level
        # above it; each of those levels gets fresh (point, gen) work.
        arr, anchor, v = self._land(arr, anchor)
        if v is not None:
            self._insert(arr, v, pending=True)
            return
        for k in range(anchor + 1):
            lv = self.levels[k]
            gi = lv.add(arr)
            lv.pending.extend((pos, gi) for pos in range(len(lv.points)))

    def _process_all(self) -> None:
        # Always work on the deepest level with work left, so deeper
        # stabilizers complete first and sifting stays accurate.
        while True:
            for i in range(len(self.levels) - 1, -1, -1):
                lv = self.levels[i]
                if lv.pending or len(lv.deferred):
                    break
            else:
                return
            self._close_level(i)

    def _close_level(self, i: int) -> None:
        # Sift level i's deferred residues, then walk its pending pairs,
        # until a chunk installs a residue (deeper levels then have work)
        # or the level runs out of work.
        lv = self.levels[i]
        if len(lv.deferred):
            deferred, lv.deferred = lv.deferred, lv.deferred[:0]
            if self._sift_chunk(i, deferred):
                return
        chunk = np.empty((SIFT_CHUNK, self.degree), dtype=_DTYPE)
        k = 0
        while lv.pending:
            self._deadline_check()
            pos, gi = lv.pending.popleft()
            # su = u*s for the transversal u of points[pos], written as
            # su[inv[x]] = s[x]. It maps the base to s[points[pos]], and
            # sifting it from level i applies the transversal inverse
            # there, which makes it the pair's Schreier generator.
            su = chunk[k]
            su[lv.inv[pos]] = lv.gens[gi]
            t = int(su[lv.base])
            if lv.pos[t] >= 0:
                k += 1
                if k == SIFT_CHUNK:
                    k = 0
                    if self._sift_chunk(i, chunk):
                        return
                continue
            lv.extend(np.array([t]), _inverse_arr(su)[None, :])
            npos = len(lv.points) - 1
            lv.pending.extend((npos, j) for j in range(len(lv.gens)))
            self._order_check()
        if k:
            self._sift_chunk(i, chunk[:k])

    def _sift_chunk(self, i: int, rows: np.ndarray) -> bool:
        """Sift rows from level i; install the first residue, defer the rest."""
        _, levels, residues = self._sift_rows(rows, i)
        if not len(levels):
            return False
        self.levels[i].deferred = residues[1:]
        # a copy, so the installed generator does not pin the whole block
        self._install(residues[0].copy(), int(levels[0]))
        return True

    def verify(self) -> bool:
        """Recheck that every Schreier generator sifts to the identity.

        Λ's rows must also be reduced and fix every base.
        """
        for i, lv in enumerate(self.levels):
            m = len(lv.points)
            for s in lv.gens:
                su = np.empty((m, self.degree), dtype=_DTYPE)
                su[np.arange(m)[:, None], lv.inv[:m]] = s
                # a row whose base image leaves the orbit is a residue at i
                if len(self._sift_rows(su, i)[0]):
                    return False
        lin = self.linear
        if lin is None:
            return True
        bases = np.array(self.base(), dtype=np.intp)
        return bool(
            np.array_equal(lin.rows[:, lin.piv], np.eye(lin.rank, dtype=np.int64))
            and (lin.perms()[:, bases] == bases).all()
        )


class PermGroup:
    """Group generated by permutations, with a cached stabilizer chain.

    A group made by _extension copies its subgroup's chain and extends it.
    """

    def __init__(self, generators, degree: int | None = None, caps: Caps | None = None):
        gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
        if degree is None:
            if not gens:
                raise ValueError("degree is required for a group with no generators")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("all generators must have the same degree")
        self.degree = degree
        self.generators = tuple(gens)
        self.caps = caps if caps is not None else DEFAULT_CAPS
        self._chain: StabChain | None = None
        # An order-cap failure holds for every base prefix (the cap fires
        # only on a partial order, which never exceeds |G|), so it is
        # remembered and re-raised; a time-cap failure is not.
        self._order_cap_hit: CapExceeded | None = None
        self._sub: PermGroup | None = None
        self._automorphisms_of: Graph | None = None

    @classmethod
    def _with_chain(cls, gens, chain: StabChain, degree: int, caps: Caps) -> "PermGroup":
        g = cls(gens, degree=degree, caps=caps)
        g._chain = chain
        return g

    @classmethod
    def _extension(cls, sub: "PermGroup", gens) -> "PermGroup":
        group = cls([*sub.generators, *gens], degree=sub.degree, caps=sub.caps)
        group._sub = sub
        return group

    def chain(self) -> StabChain:
        if self._chain is None:
            self._chain = self._build((), self._sub)
        return self._chain

    def _build(self, base_prefix, sub: "PermGroup | None") -> StabChain:
        hit = self._order_cap_hit
        if hit is not None:
            raise CapExceeded(hit.cap_name, hit.limit, hit.detail)
        gens = [g.images for g in self.generators]
        try:
            if sub is None:
                return StabChain(self.degree, gens, caps=self.caps, base_prefix=base_prefix)
            # a chain of the group on sub's base prefix, as a fresh build gives
            # (its spin may pick other pivots of the same W); sub.chain()
            # re-raises sub's order cap at once
            src = sub.chain()
            levels, linear = copy.deepcopy((src.levels, src.linear))
            chain = StabChain._from_levels(self.degree, levels, linear, self.caps)
            for g in gens[len(sub.generators) :]:
                chain.add_generator(g)
            return chain
        except CapExceeded as exc:
            if exc.cap_name == "order":
                # not exc itself: its traceback would keep the partial
                # chain alive for as long as the group lives
                self._order_cap_hit = CapExceeded(exc.cap_name, exc.limit, exc.detail)
            raise

    def order(self) -> int:
        return self.chain().order()

    def contains(self, perm: Perm) -> bool:
        if perm.degree != self.degree:
            raise ValueError("degree mismatch")
        return self.chain().contains(perm.images)

    def _images(self) -> np.ndarray:
        """The generators' image arrays, one row each."""
        return _rows(self.generators, self.degree)

    def _labels(self) -> np.ndarray:
        """Each point's label: the least point of its orbit (`_label` over x -> x^g)."""
        return _label(self.degree, np.arange(self.degree), self._images())[0]

    def orbit(self, points) -> list[int]:
        """Closure of the given point, or sequence of points, under all generators, sorted."""
        points = _in_range(points, self.degree)
        label = self._labels()
        return np.flatnonzero(np.isin(label, label[points])).tolist()

    def transversal(self, v: int, points, reverse: bool = False) -> list[Perm]:
        """Coset representatives u with v^u = x, one per requested point x.

        Each u is the product of the generators along x's breadth-first
        path from v (over the generators reversed if reverse), so no
        table of the orbit is kept.
        """
        _in_range(v, self.degree)
        points = _in_range(points, self.degree)
        arrs = self._images()[::-1] if reverse else self._images()
        reached, edges = _bfs(arrs, v)
        where = np.full(self.degree, -1, dtype=np.intp)
        where[reached] = np.arange(len(reached))
        reps = []
        for x in points.tolist():
            j = int(where[x])
            if j < 0:
                raise ValueError(f"point {x} is not in the orbit of {v}")
            u = np.arange(self.degree, dtype=_DTYPE)
            while j:  # reached[0] is v; u_j = u_i * a_g, built from the right
                j, g = divmod(int(edges[j]), len(arrs))
                u = u[arrs[g]]
            reps.append(Perm._wrap(u))
        return reps

    def stabilizer(self, v: int) -> "PermGroup":
        """Point stabilizer, generated by the chain's deeper strong generators.

        The group's own chain serves when its first base point is v (a
        group that extends a subgroup first extends the subgroup's chain).
        Otherwise the chain is rebuilt with base v first and kept as the
        group's chain, so a second call at v builds nothing.
        """
        _in_range(v, self.degree)
        chain = self._chain if self._sub is None else self.chain()
        if chain is None or chain.base()[:1] != [v]:
            chain = self._chain = self._build((v,), None)
        gens = [Perm._wrap(a.copy()) for a in chain.strong_generators(1)]
        sub = StabChain._from_levels(self.degree, chain.levels[1:], chain.linear, self.caps)
        return PermGroup._with_chain(gens, sub, self.degree, self.caps)


def _commutator(g: Perm, h: Perm) -> Perm:
    """g^-1 h^-1 g h, written as (h g)^-1 (g h): one scatter of g h's images."""
    if g.degree != h.degree:
        raise ValueError("degree mismatch")
    out = np.empty_like(g.images)
    out[g.images[h.images]] = h.images[g.images]
    return Perm._wrap(out)


def _normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing the seeds and closed under G-conjugation.

    Precondition: the seeds lie in G, as those of `frattini_rank`, its one
    caller, do. A seed outside G can give a wrong group.

    When the first seed that is a fibre translation, for a prime r, finds
    every generator affine on the blocks of r points, the chain opens Λ on
    the seeds that are fibre translations for r (`StabChain._open`), and
    W's basis rows are the closure's first generators. W is normal in G,
    and every element the closure adds lies in G, so its normality test
    skips W's rows. r^rank never exceeds the closure's order, so the order
    cap fires exactly when it would without the spin.

    The other seeds form one block of rows, and so do the conjugates
    a^-1 x a of an added x by all the generators. A block is sifted
    together, its residues are added in row order, and the rest of the
    block is sifted again after each add; each seed that grows the closure
    is closed under conjugation before the next seed's turn. Without a
    spin, that makes the same add decisions as trying the seeds and
    conjugates one at a time in this order, and a block costs one batched
    sift per add, plus one.
    """
    chain = StabChain(G.degree, caps=G.caps)
    gens = G._images()
    invs = np.empty_like(gens)
    np.put_along_axis(invs, gens, np.arange(G.degree, dtype=_DTYPE)[None, :], axis=1)
    rest = _rows([s if isinstance(s, Perm) else Perm(s) for s in seeds], G.degree)
    added = []
    r = next((r for s in rest if (r := _fibre_prime(s, [])) is not None), None)
    lin = FibreShifts(G.degree, r) if r is not None else None
    maps = lin.affine(gens) if lin is not None else None
    if maps is not None:
        s, fibre = lin.shifts(rest)
        chain._open(lin, rest[fibre & s.any(axis=1)], maps)
        added, rest = chain.levels[0].gens[: chain._kept], rest[~fibre]

    def add_first(block: np.ndarray) -> np.ndarray:
        # adds the first row outside the closure; returns the rows after it
        rows, levels, residues = chain._sift_rows(block, 0)
        if not len(rows):
            return block[:0]
        # copies, so the chain and the added element do not pin the whole block
        added.append(block[rows[0]].copy())
        chain._add_sifted(added[-1], residues[0].copy(), int(levels[0]))
        return block[rows[1:]]

    while len(rest):
        done = len(added)
        rest = add_first(rest)
        while done < len(added):  # also reaches the elements added while it runs
            block = np.take_along_axis(gens, added[done][invs], axis=1)
            done += 1
            while len(block):
                block = add_first(block)
    chain._kept = 0  # a later generator need not keep W
    return PermGroup._with_chain([Perm._wrap(x) for x in added], chain, G.degree, G.caps)


def _in_range(points, degree: int) -> np.ndarray:
    """A point, or sequence of points, as an intp array; ValueError outside 0..degree-1."""
    points = np.asarray(points, dtype=np.intp)
    outside = (points < 0) | (points >= degree)
    if outside.any():
        raise ValueError(f"point {points[outside].flat[0]} out of range")
    return points


def _rows(perms, degree: int) -> np.ndarray:
    """The image arrays of a sequence of permutations, one row each."""
    return np.array([g.images for g in perms], dtype=_DTYPE).reshape(len(perms), degree)


def frattini_rank(G: PermGroup, p: int) -> int:
    """log_p |G : G'G^p|: d(G) for a p-group, and a lower bound on d(G) otherwise.

    Phi is the normal closure in G of the pairwise commutators of G's
    generators, then their p-th powers, and every one of these seeds is
    checked to lie in it; a pair of generators that are both fibre
    translations for p commutes, and gives no seed. So Phi is normal in G,
    and G/Phi is abelian of exponent p: every group between Phi and G is
    normal in G, and each generator outside such a group has order p
    modulo it. Phi's chain is extended by the generators without a
    normality test or an order search. They are sifted as one block, and
    the residues that reach Λ as fibre translations join it as one block
    (`StabChain._insert`): each fixes every base and normalizes the group,
    so no level's orbit changes. Each other generator is then sifted in
    turn, and a residue takes one prime step (`StabChain._extend_level`).
    The last order must be |G|, which checks the extension. The seeds lie
    in G'G^p, so Phi = G'G^p, and G/Phi is the largest elementary abelian
    p-quotient of G. Its rank log_p |G : Phi| is at most d(G), since a
    quotient needs no more generators than G. For a p-group, G'G^p is the
    Frattini subgroup, and the rank is d(G) (Burnside basis theorem). A
    few generators keep the closure small: it conjugates by them alone.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    order = G.order()
    gens = G.generators
    arrs = _rows(gens, G.degree)
    fibre = np.zeros(len(arrs), dtype=bool)
    if G.degree % p == 0:
        fibre = FibreShifts(G.degree, p).shifts(arrs)[1]
    pairs = itertools.combinations(zip(gens, fibre.tolist()), 2)
    seeds = [_commutator(g, h) for (g, f), (h, e) in pairs if not (f and e)]
    seeds += [g**p for g in gens]
    chain = _normal_closure(G, seeds).chain()
    if len(chain._sift_rows(_rows(seeds, G.degree), 0)[0]):
        raise AssertionError("Frattini closure lost one of its own seeds")
    size = chain.order()
    rows, levels, residues = chain._sift_rows(arrs, 0)
    block = np.zeros(len(rows), dtype=bool)
    if chain.linear is not None:
        s, block = chain.linear.shifts(residues)
        block &= levels == len(chain.levels)
        if block.any():
            chain._insert(residues[block], s[block].astype(np.int64), pending=False)
    for g in arrs[rows[~block]]:
        residue, level = chain.sift(g)
        if residue is not None:
            chain._extend_level(residue, level, p)
            chain._check()
    if chain.order() != order:
        raise AssertionError("the generators and the Frattini closure do not generate the group")
    return len(_prime_factors(order // size))


# The most rows of the block exponent forms over the deepest levels, and the
# most top products one chunk stacks
EXPONENT_BLOCK = 1024


def _return_times(block: np.ndarray, tops: np.ndarray, starts: np.ndarray) -> list[int]:
    """Distinct return times of the start points, ascending.

    Element (i, r) maps x to block[r, tops[i, x]]. Each start b is walked
    b, b^x, b^(x^2), ... with one gather per live walk a round, and a walk
    drops out when it comes back to b, so no element's images are formed.
    """
    n, k, m = block.shape[1], len(tops), len(block)
    top = np.repeat(np.arange(0, k * n, n), m * len(starts))
    row = np.tile(np.repeat(np.arange(0, m * n, n), len(starts)), k)
    start = np.tile(starts, k * m)
    tops, block, cur = tops.ravel(), block.ravel(), start
    times, steps = [], 0
    while len(cur):
        steps += 1
        cur = block[row + tops[top + cur]]
        back = cur == start
        if back.any():
            times.append(steps)
            live = ~back
            cur, start, top, row = cur[live], start[live], top[live], row[live]
    return times


def exponent(G: PermGroup) -> int:
    """Least common multiple of all element orders.

    With v_i over the transversal inverses of chain level i, and w over
    Λ's span W, the products v_0 v_1 ... v_(L-1) w invert the normal forms,
    so they list G once each. W is deepest: when it has at most
    EXPONENT_BLOCK elements, it and the deepest levels whose product fits
    are multiplied into one block, and the products of the top levels are
    stacked in chunks; otherwise every chunk of top products walks W in
    blocks of EXPONENT_BLOCK of its elements. Each element walks one point
    b of every orbit that holds a base point moved by its level, or the
    first point of a pivot block of Λ, until b returns, and the exponent is
    the lcm of these return times. That is exact: an element's order is
    the lcm of its cycle lengths on those orbits, since only the identity
    fixes every such point, and a cycle of g of length l through x = b^u
    puts b on a cycle of length l of u g u^-1, which is enumerated too.
    Groups of order over G.caps.exponent_cap raise CapExceeded.
    """
    cap = G.caps.exponent_cap
    order = G.order()
    if order > cap:
        raise CapExceeded(
            "exponent", cap, f"group order {order} exceeds the enumeration cap"
        )
    n, chain = G.degree, G.chain()
    lin = chain.linear
    rank = lin.rank if lin is not None else 0
    moved = [lv.base for lv in chain.levels if len(lv.points) > 1]
    if rank:
        moved += (lin.piv * lin.r).tolist()
    if not moved:
        return 1
    # one start per orbit that holds a moved point: its first in moved's order
    moved = np.array(moved, dtype=_DTYPE)
    starts = moved[np.sort(np.unique(G._labels()[moved], return_index=True)[1])]
    levels = [lv.inv[: len(lv.points)] for lv in chain.levels]
    ident = np.arange(n, dtype=_DTYPE)
    size = lin.r**rank if rank else 1

    def span(lo: int, hi: int) -> np.ndarray:
        # W's elements lo..hi-1, numbered by their coordinates in base r
        return lin.perms(lin.members(lo, hi)) if rank else ident[None, :]

    fits = size <= EXPONENT_BLOCK
    if fits:  # one block: W, times the deepest levels whose product fits
        block = span(0, size)
        while levels and len(block) * len(levels[-1]) <= EXPONENT_BLOCK:
            block = block[:, levels.pop()].reshape(-1, n)  # row (b, v) is v * b = b[v]
    # each chunk walks no more points than the block has entries
    per_chunk = min(EXPONENT_BLOCK, n // len(starts))
    products, exp = itertools.product(*levels), 1
    while chunk := list(itertools.islice(products, per_chunk)):
        tops = np.empty((len(chunk), n), dtype=_DTYPE)
        for row, top in zip(tops, chunk):
            row[:] = functools.reduce(lambda t, v: v[t], top, ident)
        for lo in range(0, size, EXPONENT_BLOCK):
            part = block if fits else span(lo, min(lo + EXPONENT_BLOCK, size))
            exp = math.lcm(exp, *_return_times(part, tops, starts))
    return exp


def is_automorphism(graph: Graph, perm: Perm) -> bool:
    """True iff the permutation maps edges onto edges bijectively.

    Compares the sorted codes tail*n + head of the mapped arcs with the
    graph's own arc codes (`Graph.arc_codes`, in their dtype); for a
    simple graph this is the same as N(u)^g == N(u^g) for every u.
    """
    if perm.degree != graph.n:
        raise ValueError("permutation degree does not match the vertex count")
    codes = graph.arc_codes()
    tails, heads = graph.arcs()
    img = perm.images.astype(codes.dtype, copy=False)
    mapped = img[tails]
    mapped *= graph.n
    mapped += img[heads]
    mapped.sort()
    return np.array_equal(mapped, codes)


def _require_automorphisms(graph: Graph, G: PermGroup) -> None:
    # a graph and a group's generators are immutable, so one check holds for
    # good; a group made by _extension lists its subgroup's generators first,
    # and once those are checked against this graph only the new ones remain
    if G._automorphisms_of is not graph:
        sub = G._sub
        done = len(sub.generators) if sub is not None and sub._automorphisms_of is graph else 0
        for i, g in enumerate(G.generators[done:], done):
            if not is_automorphism(graph, g):
                raise ValueError(f"generator {i + 1} is not an automorphism")
        G._automorphisms_of = graph


def is_vertex_transitive(graph: Graph, G: PermGroup) -> bool:
    _require_automorphisms(graph, G)
    if graph.n == 0:
        raise ValueError("empty graph")
    return len(G.orbit(0)) == graph.n


def arc_orbit_size(graph: Graph, G: PermGroup, arc: tuple[int, int] | None = None) -> int:
    """Size of the orbit of one arc (u, w) under the induced action on arcs.

    It is |u^G| * |w^(G_u)| by orbit-stabilizer. The walk from u gives
    u's orbit, tree words t_x taking u to x, and frame[x] = N(u)^(t_x).
    By Schreier's lemma the t_x s t_(x^s)^-1 over orbit vertices x and
    generators s generate G_u; one sends position a of N(u) to the
    position of frame[x][a]^s in frame[x^s]. Blocks of BFS_BATCH // d
    vertices read these rows by one searchsorted on the arc codes, and
    w's position is closed under all rows so far, stopping once it holds
    all d neighbours; no chain or cap is needed. If G_u is intransitive
    on N(u), all |u^G| * k * d images under the k generators are read.
    """
    _require_automorphisms(graph, G)
    tails, heads = graph.arcs()
    if arc is None:
        if not len(tails):
            raise ValueError("graph has no arcs")
        arc = (tails[0], heads[0])
    u, w = arc
    if not 0 <= u < graph.n or w not in graph.neighbors(u):
        raise ValueError(f"({u}, {w}) is not an arc of the graph")
    n, nbrs, arrs = graph.n, graph.neighbors(u), G._images()
    d, codes = len(nbrs), tails * n + heads
    points, edges = _bfs(arrs, u)
    parent, gen = np.divmod(edges, max(len(arrs), 1))
    frame = np.empty((len(points), d), dtype=np.int64)
    frame[0], done = nbrs, 1
    while done < len(points):  # one tree layer: the points whose parents are filled
        end = int(np.searchsorted(parent, done))
        frame[done:end] = arrs[gen[done:end, None], frame[parent[done:end]]]
        done = end
    rank = np.empty(len(codes), dtype=np.intp)  # rank[arc (x, frame[x][b])] = b
    rank[np.searchsorted(codes, points[:, None] * n + frame)] = np.arange(d)
    moves = np.zeros((d, d), dtype=bool)  # moves[a, b]: a row read so far sends a to b
    reached, step = nbrs == w, max(BFS_BATCH // d, 1)
    for start in range(0, len(points), step):
        x, f = points[start : start + step], frame[start : start + step]
        images = np.multiply(arrs[:, x, None], n, dtype=np.int64) + arrs[:, f]
        moves[np.arange(d), rank[np.searchsorted(codes, images)].reshape(-1, d)] = True
        while (grown := reached | moves[reached].any(axis=0)).sum() > reached.sum():
            reached = grown
        if reached.all():
            break
    return len(points) * int(np.count_nonzero(reached))


def local_action(graph: Graph, G: PermGroup, v: int) -> tuple[PermGroup, int]:
    """Restriction of the vertex stabilizer to the neighborhood of v.

    Returns the induced group on the neighbor list of v (in neighbor-list
    order) together with its number of orbits.
    """
    _require_automorphisms(graph, G)
    nbrs = graph.neighbors(v)
    pos = np.full(graph.n, -1, dtype=_DTYPE)
    pos[nbrs] = np.arange(len(nbrs))
    restricted = pos[G.stabilizer(v)._images()[:, nbrs]]
    if (restricted < 0).any():
        raise AssertionError("stabilizer generator does not preserve the neighborhood")
    induced = PermGroup([Perm(r) for r in restricted], degree=len(nbrs), caps=G.caps)
    # an orbit's label is its least point, so each orbit has one point labelled by itself
    orbit_count = int(np.count_nonzero(induced._labels() == np.arange(len(nbrs))))
    return induced, orbit_count


def frattini_decomposition_check(G: PermGroup, H_sub: PermGroup, v: int) -> bool:
    """Certify G = G_v * H_sub for a transitive subgroup H_sub.

    G_v and H_v are taken first, so each group's one chain is based at v.
    Preconditions: H_sub's generators lie in G (sifted as one block) and
    H_sub is transitive on all points, read off orbit-stabilizer as
    |H| = |H_v| * n; a violation of transitivity raises
    NotTransitiveError, which is distinct from the check returning False.
    The decomposition itself is certified by the two order identities
    |G| = |G_v| * n and |G_v| * |H| / |H_v| = |G|.
    """
    if H_sub.degree != G.degree:
        raise ValueError("degree mismatch")
    gv_order, hv_order = G.stabilizer(v).order(), H_sub.stabilizer(v).order()
    if len(G.chain()._sift_rows(H_sub._images(), 0)[0]):
        raise ValueError("subgroup generator does not lie in the ambient group")
    n, g_order, h_order = G.degree, G.order(), H_sub.order()
    if h_order != hv_order * n:
        raise NotTransitiveError("subgroup is not transitive on the vertex set")
    return g_order == gv_order * n and gv_order * h_order // hv_order == g_order


def perm_to_line(perm: Perm) -> str:
    """Permutation interchange format: space-separated 0-indexed images."""
    return " ".join(str(int(x)) for x in perm.images)


def perms_from_lines(lines, degree: int | None = None) -> list[Perm]:
    """Parse interchange-format lines; raises ValueError on bad input."""
    perms = []
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        try:
            images = [int(tok) for tok in parts]
        except ValueError as exc:
            raise ValueError(f"non-integer image in generator line: {line!r}") from exc
        perm = Perm(images)
        if degree is not None and perm.degree != degree:
            raise ValueError(
                f"generator degree {perm.degree} does not match expected {degree}"
            )
        perms.append(perm)
    return perms
