"""Independent brute-force oracles used by the test suite.

Everything here recomputes quantities from first principles (full element
enumeration, Cayley tables, subset search) and deliberately avoids the
library's stabilizer-chain and Nakayama code paths, so tests that compare
against these functions are genuine dual-route checks. The one exception
is `normal_closure_one_at_a_time`, the reference for the batched and
spun normal closure: it drives the library's chain, but one element at a
time, and so do the references built on it for the Frattini rank and for
a chain's extension.

The dense route for the group algebra lives here too: `Span`, a subspace
kept as its canonical basis by `rref`, where the library keeps column
sets; q^2 x q^2 action matrices, conjugated honestly into the e basis;
images of spans under dense matrices, and the Nakayama count on them.
The library walks index maps instead, and the tests compare the two. So
does the natural-row route for the module generators: rows converted
through P ⊗ P and back, each checked to lie in the top term, where the
library takes outer products of P's columns. Two numberings at the end,
a bit-reversed cycle and a path numbered from both ends, are adversarial
inputs for the labeller's round count.
"""

import copy
from collections import deque
from itertools import combinations

import numpy as np

from arcgen.field_linalg import FpMatrix, ModulusMismatchError, is_prime, rref
from arcgen.group_algebra import build_e_basis
from arcgen.perm_group import Perm, PermGroup, StabChain


def prime_power_exponent(q, p):
    """Return h >= 1 with q = p**h, or None if there is no such h."""
    if not is_prime(p) or q < p:
        return None
    h = 0
    while q % p == 0:
        q //= p
        h += 1
    return h if q == 1 else None


def kron(a, b):
    """Kronecker product of two FpMatrix: block (i, j) equals a[i][j] * b."""
    if a.p != b.p:
        raise ModulusMismatchError(f"moduli differ: {a.p} vs {b.p}")
    return FpMatrix(np.kron(a.a, b.a), a.p)


def unipotent_matrix(q, p):
    """The q x q matrix with ones on the diagonal and superdiagonal.

    Requires q to be a positive power of the prime p; the result then has
    multiplicative order exactly q in GL_q(F_p).
    """
    if prime_power_exponent(q, p) is None:
        raise ValueError(f"{q} is not a positive power of the prime {p}")
    return FpMatrix(np.eye(q, dtype=np.int64) + np.eye(q, k=1, dtype=np.int64), p)


def algebra_mul(u, v, H):
    """Convolution product of two coefficient vectors of F_p[H]."""
    u = np.mod(np.asarray(u, dtype=np.int64), H.p)
    v = np.mod(np.asarray(v, dtype=np.int64), H.p)
    if u.shape != (H.ambient,) or v.shape != (H.ambient,):
        raise ValueError("coefficient vectors must have length q^2")
    out = np.zeros(H.ambient, dtype=np.int64)
    for k in np.nonzero(u)[0]:
        x = H.element(int(k))
        for l in np.nonzero(v)[0]:
            y = H.element(int(l))
            out[H.index(*H.mul(x, y))] += u[k] * v[l]
    return out % H.p


def _kron_rows(rows, m):
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


def module_vertex_action(bundle, rows):
    """Vertex permutations of a stack of top-module vectors, one per row.

    Each row is a natural-basis coefficient vector, converted to e
    coordinates through (P^-1 ⊗ P^-1)^T and checked to lie in the top
    filtration term. Vertex (x, c) maps to (x, c + coeff_x).
    """
    H, p = bundle.H, bundle.params.p
    v = np.mod(np.asarray(rows, dtype=np.int64), p)
    if v.ndim != 2 or v.shape[1] != H.ambient:
        raise ValueError("coefficient rows have the wrong length")
    in_e = _kron_rows(FpMatrix(v, p), bundle.change.P_inv.transpose())
    if not Span.of(bundle.top_space).contains(in_e.a):
        raise ValueError("a row is not in the top filtration module")
    x, c = np.divmod(np.arange(H.ambient * p), p)  # vertex (x, c) has index x * p + c
    return [Perm(x * p + (c + row[x]) % p) for row in v]


def conjugate_to_e_dense(change, m):
    """The e-basis matrix (P ⊗ P)^T m (P^-1 ⊗ P^-1)^T of a q^2 x q^2 operator m.

    Rows are vectors and operators act on the right, so with v = w (P ⊗ P)^T
    an operator rewrites this way; P ⊗ P is applied factor by factor.
    """
    right = _kron_rows(m, change.P_inv.transpose())
    return _kron_rows(right.transpose(), change.P).transpose()


def action_matrix(H, generator, basis="natural", change=None):
    """Dense q^2 x q^2 matrix of "a", "b", "phi" or "psi" (see `AbelianH.index_map`).

    Row index(i, j) holds the image of the basis element a^i b^j, the unit
    row at index_map(generator)[index(i, j)]. The e-basis matrix is the
    natural one conjugated through the basis change, never the closed form
    the library reads off its q x q factor.
    """
    if generator not in ("a", "b", "phi", "psi"):
        raise ValueError(f"unknown generator {generator!r}")
    nat_m = FpMatrix(np.eye(H.ambient, dtype=np.int64)[H.index_map(generator)], H.p)
    if basis == "natural":
        return nat_m
    if basis == "e":
        return conjugate_to_e_dense(change or build_e_basis(H), nat_m)
    raise ValueError(f"unknown basis {basis!r}")


def index_map_matrix(targets, p):
    """Dense matrix of an index map: row k is the unit row at targets[k], zero at -1."""
    targets = np.asarray(targets)
    n = len(targets)
    m = np.zeros((n, n), dtype=np.int64)
    k = np.flatnonzero(targets >= 0)
    m[k, targets[k]] = 1
    return FpMatrix(m, p)


class Span:
    """A subspace of F_p^n as its canonical basis: the nonzero rows of `rref`.

    Two spans are equal exactly when their bases are. Any rows span one,
    so images under dense matrices need no unit rows.
    """

    def __init__(self, rows, ambient_dim, p):
        a = FpMatrix(np.asarray(rows, dtype=np.int64).reshape(-1, ambient_dim), p).a
        red, rank = rref(FpMatrix._make(a[a.any(axis=1)], p))
        self.basis = red.a[:rank]
        self.ambient_dim, self.p = ambient_dim, p

    @classmethod
    def of(cls, space):
        """The span of a coordinate subspace's unit rows, read off its pivots; a Span as it is."""
        if isinstance(space, Span):
            return space
        span = object.__new__(cls)
        span.ambient_dim, span.p = space.ambient_dim, space.p
        # unit rows at distinct increasing columns are a canonical basis
        span.basis = np.eye(space.ambient_dim, dtype=np.int64)[np.unique(space.pivots)]
        return span

    @property
    def dim(self):
        return len(self.basis)

    @property
    def pivots(self):
        return np.argmax(self.basis != 0, axis=1)

    def contains(self, rows):
        """Whether every row of a vector or a stack lies here."""
        return (self + Span(rows, self.ambient_dim, self.p)).dim == self.dim

    def contains_space(self, other):
        return self.contains(other.basis)

    def __add__(self, other):
        if (self.p, self.ambient_dim) != (other.p, other.ambient_dim):
            raise ValueError("spans of different spaces")
        return Span(np.vstack([self.basis, other.basis]), self.ambient_dim, self.p)

    def __eq__(self, other):
        if not isinstance(other, Span):
            return NotImplemented
        return (self.p, self.ambient_dim) == (other.p, other.ambient_dim) and np.array_equal(
            self.basis, other.basis
        )

    def __repr__(self):
        return f"Span({self.basis.tolist()!r}, p={self.p})"


def image_by_matrix(space, *ms):
    """The span of a subspace's images under right multiplication by each matrix.

    The subspace is a Span or a coordinate subspace. When its basis is unit
    rows, a product is m's rows at the pivots, which are picked without
    multiplying.
    """
    space = Span.of(space)
    basis, n, p = space.basis, space.ambient_dim, space.p
    unit = np.count_nonzero(basis) == len(basis)
    rows = [m.a[space.pivots] if unit else (FpMatrix._make(basis, p) @ m).a for m in ms]
    return Span(np.vstack([basis[:0], *rows]), n, p)


def dense_descent(space, actions, p):
    """Spans space*I, space*I^2, ... for dense actions g, I spanned by the g - 1.

    Stops after the zero term or after the first term that does not shrink.
    """
    space = Span.of(space)
    ident = FpMatrix.identity(space.ambient_dim, p)
    deltas = [g - ident for g in actions]
    terms = []
    while True:
        nxt = image_by_matrix(space, *deltas)
        terms.append(nxt)
        if nxt.dim == 0 or nxt.dim >= space.dim:
            return terms
        space = nxt


def nakayama_count_dense(V, actions, p):
    """dim V/VI for dense action matrices, summing the images V(g - 1).

    Raises ValueError when some g does not map V into V, or when the
    descent stalls above zero (the acting group is not unipotent on V).
    """
    V = Span.of(V)
    n = V.ambient_dim
    for g in actions:
        if g.p != p or V.p != p:
            raise ValueError("moduli of subspace and actions must all equal p")
        if g.rows != n or g.cols != n:
            raise ValueError("action matrix shape does not match the ambient space")
    terms = dense_descent(V, actions, p)
    if not V.contains_space(terms[0]):
        raise ValueError("action matrix does not map the subspace into itself")
    if terms[-1].dim:
        raise ValueError("acting group is not unipotent over F_p")
    return V.dim - terms[0].dim


def module_closure(space, actions):
    """Smallest span containing `space` that every action matrix maps into itself."""
    space = Span.of(space)
    while True:
        grown = space + image_by_matrix(space, *actions)
        if grown == space:
            return space
        space = grown


def nakayama_count_by_closure(V, actions, p):
    """dim V/VI, closing every augmentation image under the actions again.

    The reference for the dense count, which sums the images V(g - 1)
    and never closes them. Raises ValueError when the iterated images of V
    stall above zero. The actions must be unipotent and keep V.
    """
    V = Span.of(V)
    ident = FpMatrix.identity(V.ambient_dim, p)
    deltas = [g - ident for g in actions]

    def augmentation_image(space):
        return module_closure(image_by_matrix(space, *deltas), actions)

    vi = augmentation_image(V)
    w = vi
    while w.dim:
        nxt = augmentation_image(w)
        if nxt == w:
            raise ValueError("acting group is not unipotent over F_p")
        w = nxt
    return V.dim - vi.dim


def rref_by_full_column_walk(m):
    """(reduced rows, rank) by a walk over every nonzero column, as `rref` once walked.

    Each column that has a nonzero entry at or below row r takes a pivot
    there; every other column is passed over, even after the rows from r
    on are all zero.
    """
    a, p, r = m.a.copy(), m.p, 0
    for c in np.flatnonzero(a.any(axis=0)):
        if r == a.shape[0]:
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
        others = nz[nz != piv]
        if others.size:
            a[others, c:] = (a[others, c:] - np.outer(a[others, c], a[r, c:])) % p
        r += 1
    return a, r


def matmul_by_int64(a, b, p):
    """a @ b mod p by numpy's int64 product, without BLAS.

    Where a sum of k products of residues could pass 2^63 - 1, the
    product is taken over Python ints instead, which never overflow.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[1] * (p - 1) ** 2 > 2**63 - 1:
        exact = (a.astype(object) @ b.astype(object)) % p
        return exact.astype(np.int64)
    return (a @ b) % p


def quotient_dim(inner, outer):
    """dim(outer / inner); every inner basis row must lie in outer."""
    if not outer.contains_space(inner):
        raise ValueError("inner subspace is not contained in outer subspace")
    return outer.dim - inner.dim


def is_automorphism_by_neighbourhoods(graph, perm):
    """Per-vertex rule: the image of N(u) is N(u^g) for every vertex u."""
    img = perm.images
    for u in range(graph.n):
        mapped = sorted(int(img[w]) for w in graph.neighbors(u))
        if mapped != graph.neighbors(int(img[u])).tolist():
            return False
    return True


def enumerate_elements(G):
    """All group elements as image arrays, by BFS over the generators."""
    ident = np.arange(G.degree, dtype=np.int32)
    arrs = [g.images for g in G.generators]
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for a in arrs:
                y = a[x]
                key = y.tobytes()
                if key not in seen:
                    seen[key] = y
                    nxt.append(y)
        frontier = nxt
    return list(seen.values())


def normal_closure_one_at_a_time(G, seeds):
    """The elements a normal closure adds, trying seeds and conjugates singly.

    Takes the seeds in order, and closes each seed that grows the closure
    under conjugation by G's generators before trying the next: every
    conjugate a^-1 x a of every added x, in order of adding and then of
    the generators, goes to `StabChain.add_generator` on its own. Returns
    the added image arrays and the chain.
    """
    chain = StabChain(G.degree, caps=G.caps)
    added = []
    for s in seeds:
        done = len(added)
        if chain.add_generator(s.images):
            added.append(s.images)
        while done < len(added):
            x = added[done]
            done += 1
            for a in G.generators:
                y = (a.inverse() * Perm(x) * a).images
                if chain.add_generator(y):
                    added.append(y)
    return added, chain


def frattini_rank_one_at_a_time(G, p, gens):
    """log_p |G : Phi| with Phi closed, and then extended, one element at a time.

    Phi is `normal_closure_one_at_a_time` of the gens' pairwise commutators
    and p-th powers, and its chain is extended by one `add_generator` per
    gen, each of which must multiply the order by 1 or p; the last order
    must be |G|.
    """
    gens = list(gens)
    seeds = [g.inverse() * h.inverse() * g * h for g, h in combinations(gens, 2)]
    seeds += [g**p for g in gens]
    _, chain = normal_closure_one_at_a_time(PermGroup(gens, degree=G.degree, caps=G.caps), seeds)
    rank, size = 0, chain.order()
    for g in gens:
        chain.add_generator(g.images)
        grown = chain.order()
        if grown not in (size, size * p):
            raise AssertionError("a generator step grew the order by neither 1 nor p")
        rank, size = rank + (grown != size), grown
    if size != G.order():
        raise AssertionError("the generators and the closure do not generate the group")
    return rank


def extended_order(chain, gens):
    """The order of <H, gens> for the group H of a chain: a copy of it, extended by each gen in turn."""
    chain = copy.deepcopy(chain)
    for g in gens:
        chain.add_generator(g.images)
    return chain.order()


def bfs_by_queue(arrs, starts, size):
    """(points, edges) of a breadth-first walk, as `perm_group._bfs` defines them.

    A FIFO queue over plain Python lists: the starts, sorted and without
    repeats, come first with edge -1; then each popped point's images
    under the generators, in generator order, join when new, with edge
    i*k + g for the popped point's index i and the generator g.
    """
    arrs = [a.tolist() for a in arrs]
    points = sorted(set(int(v) for v in starts))
    edges = [-1] * len(points)
    seen = [False] * size
    for v in points:
        seen[v] = True
    i = 0
    while i < len(points):
        w = points[i]
        for g, a in enumerate(arrs):
            t = a[w]
            if not seen[t]:
                seen[t] = True
                points.append(t)
                edges.append(i * len(arrs) + g)
        i += 1
    return points, edges


def orbits_by_queue(G):
    """G's orbits, each sorted and ordered by minimum, from one queue walk per orbit."""
    arrs, orbits, seen = [g.images for g in G.generators], [], set()
    for x in range(G.degree):
        if x not in seen:
            orbits.append(sorted(bfs_by_queue(arrs, [x], G.degree)[0]))
            seen.update(orbits[-1])
    return orbits


def bit_reversal(bits):
    """The numbers 0..2^bits - 1 in turn, each with its bits reversed.

    A cycle through the points in this order is the worst numbering known
    for min-label hooking: it takes about bits rounds.
    """
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(2**bits)]


def from_both_ends(n):
    """0, n-1, 1, n-2, ...: a path through the points in this order jumps end to end."""
    return [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]


def transversal_by_queue(G, v, reverse=False):
    """Coset representatives {point: images} from a FIFO queue over the generators."""
    arrs = [g.images for g in G.generators]
    if reverse:
        arrs = arrs[::-1]
    reps = {int(v): np.arange(G.degree, dtype=np.int32)}
    queue = deque([int(v)])
    while queue:
        w = queue.popleft()
        for a in arrs:
            t = int(a[w])
            if t not in reps:
                reps[t] = a[reps[w]]
                queue.append(t)
    return reps


def arc_orbit_size_by_queue(graph, G, arc):
    """Size of the orbit of one arc (u, w), by a FIFO queue over arc codes u*n + w."""
    n = graph.n
    arrs = [g.images for g in G.generators]
    start = arc[0] * n + arc[1]
    seen = {start}
    queue = deque([start])
    while queue:
        cu, cw = divmod(queue.popleft(), n)
        for a in arrs:
            code = int(a[cu]) * n + int(a[cw])
            if code not in seen:
                seen.add(code)
                queue.append(code)
    return len(seen)


def cayley_table(elems):
    """table[i][j] = index of elems[i] * elems[j] (apply i, then j)."""
    E = np.stack(elems)
    index = {e.tobytes(): i for i, e in enumerate(elems)}
    n = len(elems)
    table = []
    for i in range(n):
        prods = E[:, E[i]]
        table.append([index[row.tobytes()] for row in prods])
    return table


def _generates(table, total, combo, e_idx):
    member = bytearray(len(table))
    member[e_idx] = 1
    count = 1
    frontier = [e_idx]
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in combo:
                y = row[g]
                if not member[y]:
                    member[y] = 1
                    count += 1
                    nxt.append(y)
        frontier = nxt
    return count == total


def brute_force_min_generators(G, order_limit=2**10):
    """Smallest k such that some k-subset of group elements generates.

    Pure subset search over the full element list with closures computed
    from a Cayley table. Quadratic table, exponential search: only for
    groups of order at most `order_limit`.
    """
    elems = enumerate_elements(G)
    n = len(elems)
    if n > order_limit:
        raise ValueError(f"group order {n} exceeds the oracle limit {order_limit}")
    if n == 1:
        return 0
    table = cayley_table(elems)
    ident = np.arange(G.degree, dtype=np.int32).tobytes()
    e_idx = next(i for i, e in enumerate(elems) if e.tobytes() == ident)
    # subsets containing the identity are dominated by smaller subsets
    candidates = [i for i in range(n) if i != e_idx]
    k = 1
    while True:
        for combo in combinations(candidates, k):
            if _generates(table, n, combo, e_idx):
                return k
        k += 1


def exponent_by_table(G):
    """Exponent via element orders read off the Cayley table."""
    import math

    elems = enumerate_elements(G)
    table = cayley_table(elems)
    ident = np.arange(G.degree, dtype=np.int32).tobytes()
    e_idx = next(i for i, e in enumerate(elems) if e.tobytes() == ident)
    exp = 1
    for i in range(len(elems)):
        o = 1
        j = i
        while j != e_idx:
            j = table[j][i]
            o += 1
        exp = math.lcm(exp, o)
    return exp
