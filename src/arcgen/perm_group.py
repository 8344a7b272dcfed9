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
depends on the input alone. The family groups' generators, listed in a
polycyclic order, all take the first route. On top of the chain sit the
predicates the verification pipeline needs: vertex/arc transitivity,
local actions, the Frattini decomposition check, minimal generator ranks
of p-groups (Burnside basis theorem) and exponents, read off one walk of
the group through its chain. Orbits, transversals and arc orbits share
one breadth-first walk.

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
from .graph_builder import Graph

__all__ = [
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
    "normal_closure",
    "commutator",
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


def _order(a: np.ndarray) -> int:
    """Least common multiple of the cycle lengths of a."""
    low = np.arange(len(a), dtype=a.dtype)
    # after k rounds low[x] is the least of x, x^a, ..., x^(a^(2^k - 1))
    for _ in range(max(len(a) - 1, 0).bit_length()):
        low = np.minimum(low, low[a])
        a = a[a]
    lengths = np.bincount(low)
    return math.lcm(*set(lengths[lengths > 0].tolist()))


def _prime_factors(m: int) -> list[int]:
    """Primes of m, a permutation's order, with multiplicity and ascending."""
    out, r = [], 2
    while m > 1:
        while m % r == 0:
            out.append(r)
            m //= r
        r += 1
    return out


# Points a breadth-first walk expands at once, which bounds its temporaries
BFS_BATCH = 64


def _bfs(step, starts, size: int):
    """Breadth-first walk over the points 0..size-1 from the start points.

    step(batch) gives the (len(batch), k) images of a batch of reached
    points under the k generators. New points are taken in batch order,
    then generator order, as a FIFO queue takes them. Returns the points
    reached, in that order, and edges: edges[j] = i*k + g when points[j]
    was first reached from points[i] by generator g (-1 for the starts).
    """
    seen = np.zeros(size, dtype=bool)
    seen[np.asarray(starts, dtype=np.intp)] = True
    points = np.flatnonzero(seen)
    edges = np.full(len(points), -1)
    done = 0
    while done < len(points):
        images = step(points[done : done + BFS_BATCH])
        cand = images.ravel()
        fresh = np.flatnonzero(~seen[cand])
        order = np.argsort(cand[fresh], kind="stable")  # to find first occurrences
        image = cand[fresh][order]
        hit = fresh[np.sort(order[np.diff(image, prepend=-1) != 0])]
        seen[cand[hit]] = True
        edges = np.concatenate([edges, done * images.shape[1] + hit])
        done, points = done + len(images), np.concatenate([points, cand[hit]])
    return points, edges


class Perm:
    """A permutation of {0, ..., n-1}; images[v] is the image of v."""

    __slots__ = ("images",)

    def __init__(self, images):
        try:
            arr = np.array(images, dtype=_DTYPE)
        except OverflowError:
            raise ValueError("images do not form a permutation of 0..n-1") from None
        if arr.ndim != 1:
            raise ValueError("images must be a flat sequence")
        if not np.array_equal(np.sort(arr), np.arange(len(arr))):
            raise ValueError("images do not form a permutation of 0..n-1")
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

    Budget checks (order cap, optional wall-clock cap) run after every
    prime step and inside the closure loop, so oversize groups fail fast
    with CapExceeded instead of running away. Every partial order divides
    the final one, so the order cap fires on both routes exactly when the
    group's order exceeds it.
    """

    def __init__(self, degree: int, gens=(), *, caps: Caps = DEFAULT_CAPS, base_prefix=()):
        self._start(degree, [], caps)
        for b in base_prefix:
            self._new_level(int(b))
        for g in gens:
            self.add_generator(g)

    @classmethod
    def _from_levels(cls, degree: int, levels: list[_Level], caps: Caps) -> "StabChain":
        chain = object.__new__(cls)  # with a deadline of its own
        chain._start(degree, levels, caps)
        return chain

    def _start(self, degree: int, levels: list[_Level], caps: Caps) -> None:
        self.degree = degree
        self.caps = caps
        self.deadline = time.monotonic() + caps.time_cap_s if caps.time_cap_s is not None else None
        self._ident = np.arange(degree, dtype=_DTYPE)
        self.levels = levels
        self._bases = np.array([lv.base for lv in levels], dtype=np.intp)
        self._steps = 0

    def _new_level(self, base: int) -> None:
        self.levels.append(_Level(base, self._ident))
        self._bases = np.append(self._bases, base)

    def order(self) -> int:
        o = 1
        for lv in self.levels:
            o *= len(lv.points)
        return o

    def base(self) -> list[int]:
        return [lv.base for lv in self.levels]

    def strong_generators(self, from_level: int = 0) -> list[np.ndarray]:
        """Generators of the from_level-th stabilizer in the chain."""
        if from_level >= len(self.levels):
            return []
        return list(self.levels[from_level].gens)

    def _budget_check(self) -> None:
        self._steps += 1
        if self._steps % 256 == 0:
            self._deadline_check()

    def _deadline_check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise CapExceeded("time", self.caps.time_cap_s, "stabilizer-chain construction")

    def _order_check(self) -> None:
        if self.order() > self.caps.order_cap:
            raise CapExceeded("order", self.caps.order_cap, "stabilizer chain grew past the cap")

    def _sift_rows(self, g: np.ndarray, start: int):
        """Sift every row of g through the levels from start on.

        Returns (rows, levels, residues) for the rows that do not reduce
        to the identity, in row order: each row's index in g, the level
        where it left the chain (len(self.levels) if it passed them all)
        and its residue.
        """
        n = self.degree
        rows = np.arange(len(g))
        found = []
        depth = len(self.levels)
        bases = self._bases
        i = start
        while i < depth and len(rows):
            # The images of all remaining bases, one line per level, find
            # the next level whose base some row moves; the levels before
            # it would apply only identity transversals.
            images = g.T[bases[i:]]
            moved = images != bases[i:, None]
            first = int(moved.argmax())
            if not moved.flat[first]:
                break
            j = first // len(rows)
            i += j
            lv = self.levels[i]
            p = lv.pos[images[j]]
            gone = p < 0
            if np.count_nonzero(gone):
                found.append((rows[gone], i, g[gone]))
                keep = ~gone
                g, rows, p = g[keep], rows[keep], p[keep]
            g = lv.inv.take(np.multiply(p, n, dtype=np.intp)[:, None] + g)
            i += 1
        if len(rows):
            moved = (g != self._ident).any(axis=1)
            if moved.any():
                found.append((rows[moved], depth, g[moved]))
        if not found:
            return rows[:0], rows[:0], g[:0]
        if len(found) == 1:
            r, i, res = found[0]
            return r, np.full(len(r), i), res
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
        if self._normalizes(arr):
            self._extend_normal(arr, residue, level)
        else:
            self._install(residue, level)
            self._process_all()
        return True

    def _normalizes(self, g: np.ndarray) -> bool:
        """True if g^-1 s g lies in the group for every strong generator s."""
        gens = self.levels[0].gens if self.levels else []
        g_inv = _inverse_arr(g)
        for start in range(0, len(gens), SIFT_CHUNK):
            s = np.array(gens[start : start + SIFT_CHUNK])
            conj = g[s[:, g_inv]]
            # a conjugate equal to s (s commutes with g) needs no sift
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
            self._deadline_check()
            self._order_check()

    def _extend_level(self, h: np.ndarray, j: int, r: int) -> None:
        # h fixes the bases above level j, normalizes the group N and has
        # h^r in N, so |<N, h> : N| = r. The level's stabilizer K gains h,
        # and <K, h> is the union of the cosets K h^t, t < r. Its orbit is
        # therefore the union of the images of the orbit under h^t, which
        # are r disjoint orbits of K because base_j^h is not in the orbit;
        # every other level keeps its orbit. The transversal of x^(h^t) is
        # u h^t for the transversal u of x, with inverse inv(u)[h^-t].
        self._open_level(h, j)
        lv = self.levels[j]
        h_inv = _inverse_arr(h)
        points, inv = np.array(lv.points), lv.inv[: len(lv.points)]
        for _ in range(r - 1):
            points, inv = h[points], inv[:, h_inv]
            lv.extend(points, inv)
        for k in range(j + 1):
            self.levels[k].gens.append(h)

    def _open_level(self, arr: np.ndarray, anchor: int) -> None:
        # a residue that fixes every base opens a level at its first moved point
        if anchor == len(self.levels):
            self._new_level(int(np.flatnonzero(arr != self._ident)[0]))

    def _install(self, arr: np.ndarray, anchor: int) -> None:
        # The residue fixes every base above its anchor level, so it joins
        # the effective generator list of the anchor and of every level
        # above it; each of those levels gets fresh (point, gen) work.
        self._open_level(arr, anchor)
        for k in range(anchor + 1):
            lv = self.levels[k]
            gi = len(lv.gens)
            lv.gens.append(arr)
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
            self._budget_check()
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
        """Recheck that every Schreier generator sifts to the identity."""
        for i, lv in enumerate(self.levels):
            m = len(lv.points)
            for s in lv.gens:
                su = np.empty((m, self.degree), dtype=_DTYPE)
                su[np.arange(m)[:, None], lv.inv[:m]] = s
                # a row whose base image leaves the orbit is a residue at i
                if len(self._sift_rows(su, i)[0]):
                    return False
        return True


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
    def trivial(cls, degree: int, caps: Caps | None = None) -> "PermGroup":
        return cls([], degree=degree, caps=caps)

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

    def fresh_chain(self, base_prefix=()) -> StabChain:
        """Build an uncached chain, optionally with a forced base prefix.

        Once a build has hit the order cap, every later call raises a new
        CapExceeded with the same cap name and limit without building.
        """
        return self._build(base_prefix, None)

    def _build(self, base_prefix, sub: "PermGroup | None") -> StabChain:
        hit = self._order_cap_hit
        if hit is not None:
            raise CapExceeded(hit.cap_name, hit.limit, hit.detail)
        gens = [g.images for g in self.generators]
        try:
            if sub is None:
                return StabChain(self.degree, gens, caps=self.caps, base_prefix=base_prefix)
            # the chain a fresh build with sub's base prefix gives; sub.chain()
            # re-raises sub's order cap at once
            levels = copy.deepcopy(sub.chain().levels)
            chain = StabChain._from_levels(self.degree, levels, self.caps)
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

    def orbit(self, points) -> list[int]:
        """Closure of the given point, or sequence of points, under all generators, sorted."""
        arrs = self._images()
        return sorted(_bfs(lambda f: arrs[:, f].T, points, self.degree)[0].tolist())

    def orbits(self) -> list[list[int]]:
        """All orbits on {0..degree-1}, each sorted, ordered by minimum."""
        out, left = [], np.ones(self.degree, dtype=bool)
        while left.any():
            out.append(self.orbit(int(left.argmax())))
            left[out[-1]] = False
        return out

    def transversal(self, v: int, reverse: bool = False) -> dict[int, Perm]:
        """Deterministic coset representatives u with v^u = point (BFS)."""
        arrs = self._images()[::-1] if reverse else self._images()
        points, edges = _bfs(lambda f: arrs[:, f].T, v, self.degree)
        reps = np.empty((len(points), self.degree), dtype=_DTYPE)
        reps[0] = np.arange(self.degree)
        for j, e in enumerate(edges[1:].tolist(), 1):
            i, g = divmod(e, len(arrs))
            reps[j] = arrs[g][reps[i]]  # u_j = u_i * a_g
        return {int(x): Perm._wrap(r) for x, r in zip(points, reps)}

    def stabilizer(self, v: int) -> "PermGroup":
        """Point stabilizer, generated by the chain's deeper strong generators.

        The group's own chain serves when its first base point is v; with
        no chain yet, the group's one chain is built with base v first,
        unless the group extends a subgroup, whose chain it then extends.
        Only a different first base point costs a fresh chain.
        """
        if not 0 <= v < self.degree:
            raise ValueError(f"point {v} out of range")
        if self._chain is None and self._sub is None:
            chain = self._chain = self.fresh_chain(base_prefix=(v,))
        else:
            chain = self.chain()
            if chain.base()[:1] != [v]:
                chain = self.fresh_chain(base_prefix=(v,))
        gens = [Perm._wrap(a.copy()) for a in chain.strong_generators(1)]
        sub = StabChain._from_levels(self.degree, chain.levels[1:], self.caps)
        return PermGroup._with_chain(gens, sub, self.degree, self.caps)


def commutator(g: Perm, h: Perm) -> Perm:
    return g.inverse() * h.inverse() * g * h


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing the seeds and closed under G-conjugation.

    Tries the seeds in order, and closes each seed that grows the closure
    under conjugation by G's generators before trying the next. The
    conjugates a^-1 x a of an added x by all the generators form one block
    of rows, sifted together; its residues are added in row order, and the
    rest of the block is sifted again after each add. That makes the same
    add decisions as trying the seeds and conjugates one at a time in this
    order, and a block costs one batched sift per add, plus one.
    """
    chain = StabChain(G.degree, caps=G.caps)
    gens = G._images()
    invs = np.empty_like(gens)
    np.put_along_axis(invs, gens, np.arange(G.degree, dtype=_DTYPE)[None, :], axis=1)
    added: list[np.ndarray] = []
    for s in seeds:
        done = len(added)
        x = (s if isinstance(s, Perm) else Perm(s)).images
        if chain.add_generator(x):
            added.append(x)
        while done < len(added):  # also reaches the elements added while it runs
            block = np.take_along_axis(gens, added[done][invs], axis=1)
            done += 1
            while True:
                rows = chain._sift_rows(block, 0)[0]
                if not len(rows):
                    break
                # a copy, so the added element does not pin the whole block
                y = block[rows[0]].copy()
                chain.add_generator(y)
                added.append(y)
                block = block[rows[1:]]
    return PermGroup._with_chain([Perm._wrap(x) for x in added], chain, G.degree, G.caps)


def _rows(perms, degree: int) -> np.ndarray:
    """The image arrays of a sequence of permutations, one row each."""
    return np.array([g.images for g in perms], dtype=_DTYPE).reshape(len(perms), degree)


def frattini_rank(G: PermGroup, p: int, gens=None) -> int:
    """Minimal number of generators of a p-group (Burnside basis theorem).

    gens (G's generators by default) must lie in G. Phi is the normal
    closure in <gens> of their pairwise commutators, then their p-th
    powers, and every one of these seeds is checked to lie in it. Phi's
    chain is then extended by each element of gens in turn: the gens
    commute and have order p modulo Phi, so each step must multiply the
    order by 1 or p. The last order must be |G|, which proves <gens> = G,
    so Phi is normal in G and G/Phi is elementary abelian. Commutators and
    p-th powers lie in the Frattini subgroup, and so does their normal
    closure, so Phi is the Frattini subgroup and the rank is the number of
    steps that grew the order. A few gens that generate G keep the
    closure small: it conjugates by gens, not by all of G's generators.
    """
    order = G.order()
    rest = order
    while rest % p == 0:
        rest //= p
    if rest != 1:
        raise ValueError("Frattini rank defined here only for p-groups")
    gens = G.generators if gens is None else tuple(gens)
    arrs = _rows(gens, G.degree)
    if len(G.chain()._sift_rows(arrs, 0)[0]):
        raise ValueError("a generator does not lie in the group")
    seeds = [commutator(g, h) for g, h in itertools.combinations(gens, 2)]
    seeds += [g**p for g in gens]
    chain = normal_closure(PermGroup(gens, degree=G.degree, caps=G.caps), seeds).chain()
    if len(chain._sift_rows(_rows(seeds, G.degree), 0)[0]):
        raise AssertionError("Frattini closure lost one of its own seeds")
    size, rank = chain.order(), 0
    for g in arrs:
        chain.add_generator(g)
        grown = chain.order()
        if grown == size * p:
            rank += 1
        elif grown != size:
            raise AssertionError("a generator step grew the order by neither 1 nor p")
        size = grown
    if size != order:
        raise AssertionError("the generators and the Frattini closure do not generate the group")
    return rank


# Rows of the block exponent forms over the deepest levels (more if one orbit is longer)
EXPONENT_BLOCK = 1024


def exponent(G: PermGroup) -> int:
    """Least common multiple of all element orders.

    With v_i over the transversal inverses of chain level i, the products
    v_0 v_1 ... v_(L-1) invert the normal forms u_(L-1) ... u_0, so they
    list G once each. The deepest levels are multiplied into one block of
    rows; each product of the top levels is applied to the whole block.
    Groups of order over G.caps.exponent_cap raise CapExceeded.
    """
    cap = G.caps.exponent_cap
    order = G.order()
    if order > cap:
        raise CapExceeded(
            "exponent", cap, f"group order {order} exceeds the enumeration cap"
        )
    levels = [lv.inv[: len(lv.points)] for lv in G.chain().levels]
    ident = np.arange(G.degree, dtype=_DTYPE)
    block = ident[None, :]
    while levels and (len(block) == 1 or len(block) * len(levels[-1]) <= EXPONENT_BLOCK):
        block = block[:, levels.pop()].reshape(-1, G.degree)  # row (b, v) is v * b = b[v]
    exp = 1
    offsets = np.arange(len(block))[:, None] * G.degree
    for top in itertools.product(*levels):
        x = block[:, functools.reduce(lambda t, v: v[t], top, ident)]
        # power holds x^k; a row leaves once it is the identity, at k = its order
        power, k = x, 1
        while len(x):
            home = (power == ident).all(axis=1)
            if home.any():
                exp = math.lcm(exp, k)
                x, power = x[~home], power[~home]
            power, k = x.ravel()[power + offsets[: len(x)]], k + 1
    return exp


def is_automorphism(graph: Graph, perm: Perm) -> bool:
    """True iff the permutation maps edges onto edges bijectively.

    Compares the sorted codes tail*n + head of the mapped arcs with the
    graph's own arc codes, which are sorted by construction; for a
    simple graph this is the same as N(u)^g == N(u^g) for every u.
    """
    if perm.degree != graph.n:
        raise ValueError("permutation degree does not match the vertex count")
    n = graph.n
    tails, heads = graph.arcs()
    img = perm.images.astype(np.int64)
    return np.array_equal(np.sort(img[tails] * n + img[heads]), tails * n + heads)


def _require_automorphisms(graph: Graph, G: PermGroup) -> None:
    # a graph and a group's generators are immutable, so one check holds for good
    if G._automorphisms_of is not graph:
        for i, g in enumerate(G.generators):
            if not is_automorphism(graph, g):
                raise ValueError(f"generator {i + 1} is not an automorphism")
        G._automorphisms_of = graph


def is_vertex_transitive(graph: Graph, G: PermGroup) -> bool:
    _require_automorphisms(graph, G)
    if graph.n == 0:
        raise ValueError("empty graph")
    return len(G.orbit(0)) == graph.n


def arc_orbit_size(graph: Graph, G: PermGroup, arc: tuple[int, int] | None = None) -> int:
    """Size of the orbit of one arc under the induced action on arcs."""
    _require_automorphisms(graph, G)
    tails, heads = graph.arcs()
    if arc is None:
        if not len(tails):
            raise ValueError("graph has no arcs")
        arc = (tails[0], heads[0])
    u, w = arc
    if not 0 <= u < graph.n or w not in graph.neighbors(u):
        raise ValueError(f"({u}, {w}) is not an arc of the graph")
    n = graph.n
    codes = tails * n + heads
    arrs = G._images().astype(np.int64)

    def step(f):  # the generators map arcs onto arcs, so every code is found
        return np.searchsorted(codes, arrs[:, tails[f]] * n + arrs[:, heads[f]]).T

    return len(_bfs(step, [np.searchsorted(codes, u * n + w)], len(codes))[0])


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
    orbit_count = len(induced.orbits()) if len(nbrs) else 0
    return induced, orbit_count


def frattini_decomposition_check(G: PermGroup, H_sub: PermGroup, v: int) -> bool:
    """Certify G = G_v * H_sub for a transitive subgroup H_sub.

    Preconditions: H_sub's generators lie in G (checked by sifting) and
    H_sub is transitive on all points; a violation of transitivity raises
    NotTransitiveError, which is distinct from the check returning False.
    The decomposition itself is certified by the two order identities
    |G| = |G_v| * n and |G_v| * |H| / |H_v| = |G|.
    """
    if H_sub.degree != G.degree:
        raise ValueError("degree mismatch")
    for g in H_sub.generators:
        if not G.contains(g):
            raise ValueError("subgroup generator does not lie in the ambient group")
    n = G.degree
    if len(H_sub.orbit(v)) != n:
        raise NotTransitiveError("subgroup is not transitive on the vertex set")
    g_order = G.order()
    gv_order = G.stabilizer(v).order()
    h_order = H_sub.order()
    hv_order = H_sub.stabilizer(v).order()
    if g_order != gv_order * n:
        return False
    return gv_order * h_order // hv_order == g_order


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
