"""Permutation groups on graph vertices, exact and deterministic.

Orders, membership and stabilizers come from an incremental
Schreier-Sims stabilizer chain; base points are chosen deterministically
(the smallest point moved by the first generator that reaches a level),
no randomization is used anywhere, so every quantity is reproducible
across runs. On top of the chain sit the predicates the verification
pipeline needs: vertex/arc transitivity, local actions, the Frattini
decomposition check, minimal generator ranks of p-groups (Burnside basis
theorem) and exponents by full element enumeration.

Composition convention: permutations act on the right, x^(g*h) = (x^g)^h,
and (g * h).images[x] == h.images[g.images[x]].
"""

from __future__ import annotations

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
    "is_arc_transitive",
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


class Perm:
    """A permutation of {0, ..., n-1}; images[v] is the image of v."""

    __slots__ = ("images",)

    def __init__(self, images):
        arr = np.array(images, dtype=_DTYPE)
        if arr.ndim != 1:
            raise ValueError("images must be a flat sequence")
        n = arr.shape[0]
        seen = np.zeros(n, dtype=bool)
        if n and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("images do not form a permutation of 0..n-1")
        seen[arr] = True
        if not seen.all():
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
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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
        o = 1
        for cyc in self.cycles():
            o = math.lcm(o, len(cyc))
        return o

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
    __slots__ = ("base", "points", "orbit_pos", "tvsl", "tvsl_inv", "gens", "pending")

    def __init__(self, base: int, ident: np.ndarray):
        self.base = base
        self.points = [base]
        self.orbit_pos = {base: 0}
        self.tvsl = [ident]
        self.tvsl_inv = [ident]
        # effective generators: every strong generator fixing all the
        # bases above this level (anchored here or deeper)
        self.gens: list[np.ndarray] = []
        self.pending: deque = deque()


class StabChain:
    """Deterministic incremental Schreier-Sims stabilizer chain.

    Works on raw numpy image arrays; Perm objects only appear at the
    PermGroup boundary. Budget checks (order cap, optional wall-clock
    cap) run inside the closure loop so oversize groups fail fast with
    CapExceeded instead of running away.
    """

    def __init__(self, degree: int, gens=(), *, caps: Caps = DEFAULT_CAPS, base_prefix=()):
        self.degree = degree
        self.caps = caps
        self.deadline = (
            time.monotonic() + caps.time_cap_s if caps.time_cap_s else None
        )
        self._ident = np.arange(degree, dtype=_DTYPE)
        self.levels: list[_Level] = []
        self._steps = 0
        for b in base_prefix:
            self._new_level(int(b))
        for g in gens:
            self.add_generator(g)

    @classmethod
    def _from_levels(cls, degree: int, levels: list[_Level], caps: Caps) -> "StabChain":
        chain = object.__new__(cls)
        chain.degree = degree
        chain.caps = caps
        chain.deadline = None
        chain._ident = np.arange(degree, dtype=_DTYPE)
        chain.levels = levels
        chain._steps = 0
        return chain

    def _new_level(self, base: int) -> None:
        self.levels.append(_Level(base, self._ident))

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

    def _is_ident(self, arr: np.ndarray) -> bool:
        return bool((arr == self._ident).all())

    def _budget_check(self) -> None:
        self._steps += 1
        if self.deadline is not None and self._steps % 256 == 0:
            if time.monotonic() > self.deadline:
                raise CapExceeded(
                    "time", self.caps.time_cap_s, "stabilizer-chain construction"
                )

    def sift(self, arr: np.ndarray, start: int = 0):
        """Reduce through transversals; return (residue or None, level)."""
        g = arr
        for i in range(start, len(self.levels)):
            if self._is_ident(g):
                return None, i
            lv = self.levels[i]
            pos = lv.orbit_pos.get(int(g[lv.base]))
            if pos is None:
                return g, i
            if pos:
                g = lv.tvsl_inv[pos][g]
        if self._is_ident(g):
            return None, len(self.levels)
        return g, len(self.levels)

    def contains(self, arr: np.ndarray) -> bool:
        residue, _ = self.sift(arr)
        return residue is None

    def add_generator(self, arr: np.ndarray) -> bool:
        """Add one generator; returns True if the group grew structurally."""
        arr = np.asarray(arr, dtype=_DTYPE)
        residue, level = self.sift(arr)
        if residue is None:
            return False
        self._install(residue, level)
        self._process_all()
        return True

    def _install(self, arr: np.ndarray, anchor: int) -> None:
        # The residue fixes every base above its anchor level, so it joins
        # the effective generator list of the anchor and of every level
        # above it; each of those levels gets fresh (point, gen) work.
        if anchor == len(self.levels):
            moved = np.nonzero(arr != self._ident)[0]
            self._new_level(int(moved[0]))
        for k in range(anchor + 1):
            lv = self.levels[k]
            gi = len(lv.gens)
            lv.gens.append(arr)
            lv.pending.extend((pos, gi) for pos in range(len(lv.points)))

    def _process_all(self) -> None:
        # Always work on the deepest level with pending pairs, so deeper
        # stabilizers complete first and sifting stays accurate.
        while True:
            target = -1
            for idx in range(len(self.levels) - 1, -1, -1):
                if self.levels[idx].pending:
                    target = idx
                    break
            if target < 0:
                return
            self._step(target)

    def _step(self, i: int) -> None:
        # Handle one (orbit point, generator) pair at level i: either the
        # pair extends the orbit, or it yields a Schreier generator that
        # must sift to the identity through the deeper levels.
        lv = self.levels[i]
        self._budget_check()
        pos, gi = lv.pending.popleft()
        s = lv.gens[gi]
        u = lv.tvsl[pos]
        t = int(s[lv.points[pos]])
        tpos = lv.orbit_pos.get(t)
        if tpos is None:
            unew = s[u]
            lv.orbit_pos[t] = len(lv.points)
            lv.points.append(t)
            lv.tvsl.append(unew)
            lv.tvsl_inv.append(_inverse_arr(unew))
            npos = len(lv.points) - 1
            lv.pending.extend((npos, k) for k in range(len(lv.gens)))
            if self.order() > self.caps.order_cap:
                raise CapExceeded(
                    "order",
                    self.caps.order_cap,
                    "stabilizer chain grew past the cap",
                )
        else:
            sg = lv.tvsl_inv[tpos][s[u]]
            if self._is_ident(sg):
                return
            residue, j = self.sift(sg, i + 1)
            if residue is not None:
                self._install(residue, j)

    def verify(self) -> bool:
        """Recheck that every Schreier generator sifts to the identity."""
        for i, lv in enumerate(self.levels):
            for pos in range(len(lv.points)):
                for s in lv.gens:
                    t = int(s[lv.points[pos]])
                    tpos = lv.orbit_pos.get(t)
                    if tpos is None:
                        return False
                    sg = lv.tvsl_inv[tpos][s[lv.tvsl[pos]]]
                    residue, _ = self.sift(sg, i + 1)
                    if residue is not None:
                        return False
        return True


class PermGroup:
    """Group generated by permutations, with a cached stabilizer chain."""

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

    @classmethod
    def trivial(cls, degree: int, caps: Caps | None = None) -> "PermGroup":
        return cls([], degree=degree, caps=caps)

    @classmethod
    def _with_chain(cls, gens, chain: StabChain, degree: int, caps: Caps) -> "PermGroup":
        g = cls(gens, degree=degree, caps=caps)
        g._chain = chain
        return g

    def chain(self) -> StabChain:
        if self._chain is None:
            self._chain = self.fresh_chain()
        return self._chain

    def fresh_chain(self, base_prefix=()) -> StabChain:
        """Build an uncached chain, optionally with a forced base prefix."""
        return StabChain(
            self.degree,
            [g.images for g in self.generators],
            caps=self.caps,
            base_prefix=base_prefix,
        )

    def order(self) -> int:
        return self.chain().order()

    def is_trivial(self) -> bool:
        return self.order() == 1

    def contains(self, perm: Perm) -> bool:
        if perm.degree != self.degree:
            raise ValueError("degree mismatch")
        return self.chain().contains(perm.images)

    def orbit(self, points) -> list[int]:
        """Closure of the given point(s) under all generators, sorted."""
        if isinstance(points, (int, np.integer)):
            frontier = [int(points)]
        else:
            frontier = sorted(int(v) for v in points)
        seen = set(frontier)
        queue = deque(frontier)
        arrs = [g.images for g in self.generators]
        while queue:
            v = queue.popleft()
            for a in arrs:
                w = int(a[v])
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return sorted(seen)

    def orbits(self) -> list[list[int]]:
        """All orbits on {0..degree-1}, each sorted, ordered by minimum."""
        remaining = set(range(self.degree))
        out = []
        while remaining:
            v = min(remaining)
            orb = self.orbit(v)
            out.append(orb)
            remaining.difference_update(orb)
        return out

    def transversal(self, v: int, reverse: bool = False) -> dict[int, Perm]:
        """Deterministic coset representatives u with v^u = point (BFS)."""
        arrs = [g.images for g in self.generators]
        if reverse:
            arrs = arrs[::-1]
        ident = np.arange(self.degree, dtype=_DTYPE)
        reps: dict[int, np.ndarray] = {int(v): ident}
        queue = deque([int(v)])
        while queue:
            w = queue.popleft()
            u = reps[w]
            for a in arrs:
                t = int(a[w])
                if t not in reps:
                    reps[t] = a[u]
                    queue.append(t)
        return {point: Perm._wrap(arr) for point, arr in reps.items()}

    def stabilizer(self, v: int) -> "PermGroup":
        """Point stabilizer, generated by the chain's deeper strong generators.

        The group's own chain serves when its first base point is v; with
        no chain yet, the group's one chain is built with base v first.
        Only a different first base point costs a fresh chain.
        """
        if not 0 <= v < self.degree:
            raise ValueError(f"point {v} out of range")
        chain = self._chain
        if chain is None:
            chain = self._chain = self.fresh_chain(base_prefix=(v,))
        elif chain.base()[:1] != [v]:
            chain = self.fresh_chain(base_prefix=(v,))
        gens = [Perm._wrap(a.copy()) for a in chain.strong_generators(1)]
        sub = StabChain._from_levels(self.degree, chain.levels[1:], self.caps)
        return PermGroup._with_chain(gens, sub, self.degree, self.caps)


def commutator(g: Perm, h: Perm) -> Perm:
    return g.inverse() * h.inverse() * g * h


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing the seeds and closed under G-conjugation."""
    caps = G.caps
    chain = StabChain(G.degree, caps=caps)
    gen_arrs = [g.images for g in G.generators]
    gen_invs = [_inverse_arr(a) for a in gen_arrs]
    work = deque(s if isinstance(s, Perm) else Perm(s) for s in seeds)
    added: list[Perm] = []
    while work:
        x = work.popleft()
        if chain.add_generator(x.images):
            added.append(x)
            for a, ainv in zip(gen_arrs, gen_invs):
                work.append(Perm._wrap(a[x.images[ainv]]))
    return PermGroup._with_chain(added, chain, G.degree, caps)


def frattini_rank(G: PermGroup, p: int) -> int:
    """Minimal number of generators of a p-group (Burnside basis theorem).

    Computes the rank of G modulo the normal closure of all generator
    p-th powers and pairwise generator commutators. That closure is the
    Frattini subgroup for p-groups; the elementary-abelian quotient
    condition is re-verified at runtime rather than trusted.
    """
    order = G.order()
    rest = order
    while rest % p == 0:
        rest //= p
    if rest != 1:
        raise ValueError("Frattini rank defined here only for p-groups")
    gens = G.generators
    seeds = [g**p for g in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            seeds.append(commutator(gens[i], gens[j]))
    phi = normal_closure(G, seeds)
    phi_order = phi.order()
    # quotient is elementary abelian iff all seeds landed in the closure
    for s in seeds:
        if not phi.contains(s):
            raise AssertionError("Frattini closure lost one of its own seeds")
    if order % phi_order != 0:
        raise AssertionError("Frattini subgroup order does not divide the group order")
    ratio = order // phi_order
    rank = 0
    while ratio % p == 0:
        ratio //= p
        rank += 1
    if ratio != 1:
        raise AssertionError("Frattini quotient is not a p-power")
    return rank


def exponent(G: PermGroup, cap: int | None = None) -> int:
    """Least common multiple of all element orders, by full enumeration."""
    cap = cap if cap is not None else G.caps.exponent_cap
    order = G.order()
    if order > cap:
        raise CapExceeded(
            "exponent", cap, f"group order {order} exceeds the enumeration cap"
        )
    ident = np.arange(G.degree, dtype=_DTYPE)
    arrs = [g.images for g in G.generators]
    seen = {ident.tobytes()}
    frontier = [ident]
    exp = 1
    count = 1
    while frontier:
        nxt = []
        for x in frontier:
            for a in arrs:
                y = a[x]
                key = y.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(y)
                    count += 1
                    exp = math.lcm(exp, Perm._wrap(y).order())
        frontier = nxt
    if count != order:
        raise AssertionError("element enumeration disagrees with the chain order")
    return exp


def is_automorphism(graph: Graph, perm: Perm) -> bool:
    """True iff the permutation maps edges onto edges bijectively."""
    if perm.degree != graph.n:
        raise ValueError("permutation degree does not match the vertex count")
    img = perm.images
    for u in range(graph.n):
        mapped = sorted(int(img[w]) for w in graph.adj[u])
        if tuple(mapped) != graph.adj[int(img[u])]:
            return False
    return True


def _require_automorphisms(graph: Graph, G: PermGroup) -> None:
    for i, g in enumerate(G.generators):
        if not is_automorphism(graph, g):
            raise ValueError(f"generator {i + 1} is not an automorphism")


def is_vertex_transitive(graph: Graph, G: PermGroup) -> bool:
    _require_automorphisms(graph, G)
    if graph.n == 0:
        raise ValueError("empty graph")
    return len(G.orbit(0)) == graph.n


def arc_orbit_size(graph: Graph, G: PermGroup, arc: tuple[int, int] | None = None) -> int:
    """Size of the orbit of one arc under the induced action on arcs."""
    _require_automorphisms(graph, G)
    if arc is None:
        for u in range(graph.n):
            if graph.adj[u]:
                arc = (u, graph.adj[u][0])
                break
        else:
            raise ValueError("graph has no arcs")
    u, w = arc
    if w not in graph.adj[u]:
        raise ValueError(f"({u}, {w}) is not an arc of the graph")
    n = graph.n
    arrs = [g.images for g in G.generators]
    start = u * n + w
    seen = {start}
    queue = deque([start])
    while queue:
        code = queue.popleft()
        cu, cw = divmod(code, n)
        for a in arrs:
            nxt = int(a[cu]) * n + int(a[cw])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


def is_arc_transitive(graph: Graph, G: PermGroup) -> bool:
    """True iff one arc orbit covers all 2m arcs of the graph."""
    return arc_orbit_size(graph, G) == 2 * graph.m


def local_action(graph: Graph, G: PermGroup, v: int) -> tuple[PermGroup, int]:
    """Restriction of the vertex stabilizer to the neighborhood of v.

    Returns the induced group on the neighbor list of v (in neighbor-list
    order) together with its number of orbits.
    """
    _require_automorphisms(graph, G)
    stab = G.stabilizer(v)
    nbrs = graph.adj[v]
    pos = {w: k for k, w in enumerate(nbrs)}
    restricted = []
    for g in stab.generators:
        images = []
        for w in nbrs:
            t = int(g.images[w])
            if t not in pos:
                raise AssertionError(
                    "stabilizer generator does not preserve the neighborhood"
                )
            images.append(pos[t])
        restricted.append(Perm(images))
    induced = PermGroup(restricted, degree=len(nbrs), caps=G.caps)
    orbit_count = len(induced.orbits()) if nbrs else 0
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
