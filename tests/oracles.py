"""Independent brute-force oracles used by the test suite.

Everything here recomputes quantities from first principles (full element
enumeration, Cayley tables, subset search) and deliberately avoids the
library's stabilizer-chain and Nakayama code paths, so tests that compare
against these functions are genuine dual-route checks. The one exception
is `normal_closure_one_at_a_time`, the reference for the batched normal
closure: it drives the library's chain, but one element at a time.
"""

from collections import deque
from itertools import combinations

import numpy as np

from arcgen.field_linalg import FpMatrix, FpSubspace, ModulusMismatchError, is_prime
from arcgen.perm_group import Perm, StabChain


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


def module_closure(space, actions):
    """Smallest subspace containing `space` that every action matrix maps into itself."""
    while True:
        grown = space
        for g in actions:
            grown = grown + grown.image(g)
        if grown == space:
            return space
        space = grown


def nakayama_count_by_closure(V, actions, p):
    """dim V/VI, closing every augmentation image under the actions again.

    The reference for the library's count, which sums the images V(g - 1)
    and never closes them. Raises ValueError when the iterated images of V
    stall above zero. The actions must be unipotent and keep V.
    """
    ident = FpMatrix.identity(V.ambient_dim, p)
    deltas = [g - ident for g in actions]

    def augmentation_image(space):
        img = FpSubspace.zero(V.ambient_dim, p)
        for d in deltas:
            img = img + space.image(d)
        return module_closure(img, actions)

    vi = augmentation_image(V)
    w = vi
    while w.dim:
        nxt = augmentation_image(w)
        if nxt == w:
            raise ValueError("acting group is not unipotent over F_p")
        w = nxt
    return V.dim - vi.dim


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
