"""Finite simple graphs and the constant-valency family construction.

Graphs are immutable once built: vertices are 0..n-1, and a graph is
kept as its arcs, two read-only int64 arrays sorted by (tail, head), with
per-vertex offsets into them. Adjacency is symmetric, loop-free and
duplicate-free. Besides the generic Cayley and wreath (lexicographic)
product builders, which hand `Graph` whole arrays of vertex pairs, this
module serializes graphs to an exact edge-list format and to the
standard sparse6 encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .group_algebra import AbelianH

__all__ = [
    "Graph",
    "GraphFormatError",
    "CayleySpec",
    "cayley",
    "wreath_product",
    "empty_graph",
    "standard_connection",
    "build_family_graph",
    "export_graph",
    "parse_graph",
]


class GraphFormatError(ValueError):
    """Serialized graph data failed to parse; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.bare_message = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph:
    """Simple undirected graph on the vertices 0..n-1, kept as its 2m arcs.

    `edges` is an (m, 2) array (or sequence) of vertex pairs, in any order
    and direction; a repeated edge counts once. The arcs are two read-only
    int64 arrays, tails and heads, sorted by (tail, head), and the arcs
    out of v sit at positions offsets[v] up to offsets[v + 1].
    """

    __slots__ = ("n", "_tails", "_heads", "_offsets")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count cannot be negative")
        try:
            pairs = np.asarray(edges, dtype=np.int64)
        except OverflowError:
            raise ValueError("edge endpoint out of range") from None
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array of vertex pairs")
        u, v = pairs.T
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
        if bad.any():
            u, v = pairs[bad.argmax()].tolist()
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            raise ValueError(f"self-loop at vertex {u}")
        # codes tail * n + head of the arcs both ways; one sort orders them and finds repeats
        codes = np.sort(np.concatenate((u * n + v, v * n + u)))
        codes = codes[np.diff(codes, prepend=-1) != 0]
        tails, heads = np.divmod(codes, max(n, 1))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=offsets[1:])
        for a in (tails, heads, offsets):
            a.flags.writeable = False
        self.n = n
        self._tails, self._heads, self._offsets = tails, heads, offsets

    @property
    def m(self) -> int:
        return len(self._heads) // 2

    def neighbors(self, v: int) -> np.ndarray:
        """The neighbors of v in increasing order (a read-only view)."""
        return self._heads[self._offsets[v] : self._offsets[v + 1]]

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Tails and heads (int64, read-only) of all 2m arcs, sorted by (tail, head)."""
        return self._tails, self._heads

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, sorted lexicographically."""
        up = self._tails < self._heads
        return list(zip(self._tails[up].tolist(), self._heads[up].tolist()))

    def is_regular(self) -> bool:
        degrees = np.diff(self._offsets)
        return self.n == 0 or bool((degrees == degrees[0]).all())

    def valency(self) -> int:
        if self.n == 0:
            raise ValueError("valency undefined on the empty graph")
        if not self.is_regular():
            raise ValueError("valency undefined: graph is not regular")
        return int(self._offsets[1])

    def is_connected(self) -> bool:
        return self.n == 0 or _component_size(self, 0) == self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._heads, other._heads)
        )

    def __hash__(self):
        return hash((self.n, self._offsets.tobytes(), self._heads.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class CayleySpec:
    """A group together with an inverse-closed, identity-free connection set."""

    group: AbelianH
    connection: tuple[tuple[int, int], ...]


def cayley(spec: CayleySpec) -> Graph:
    """Cayley graph: x ~ y iff x^{-1} y lies in the connection set.

    Vertices are the group elements in index order. The builder checks
    the connection-set invariants and asserts that graph connectivity
    agrees with whether the set generates the group.
    """
    H = spec.group
    conn = [tuple(s) for s in spec.connection]
    if len(set(conn)) != len(conn):
        raise ValueError("connection set contains duplicates")
    for s in conn:
        if s == (0, 0):
            raise ValueError("connection set contains the identity")
        if H.inv(s) not in conn:
            raise ValueError("connection set is not inverse-closed")
    tails = np.tile(np.arange(H.order, dtype=np.int64), len(conn))
    heads = np.array([H.index_map(s) for s in conn], dtype=np.int64).reshape(-1)
    g = Graph(H.order, np.column_stack((tails, heads)))
    # connectivity must agree with generation
    generated = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for x in frontier:
            for s in conn:
                y = H.mul(x, s)
                if y not in generated:
                    generated.add(y)
                    nxt.append(y)
        frontier = nxt
    component = _component_size(g, 0)
    if component != len(generated):
        raise AssertionError("Cayley connectivity disagrees with generation")
    return g


def _component_size(g: Graph, v: int) -> int:
    """Number of vertices reachable from v, by breadth-first levels.

    Each level reads the arcs out of the whole frontier at once: as rows
    of heads in a regular graph, in two numpy calls, and range by range
    otherwise, in about ten. Every graph the program checks is regular
    (Cayley, family and vertex-transitive graphs), and on a small one,
    such as the (2,4) family graph, the rows take half the time of the
    ranges. A vertex reached along several arcs keeps the slot of one,
    which is how the next frontier lists it once.
    """
    offsets, heads = g._offsets, g._heads
    rows = heads.reshape(g.n, int(offsets[1])) if g.is_regular() else None
    slot = np.full(g.n, -1, dtype=np.int64)  # -1 until reached
    slot[v] = 0
    frontier = np.array([v], dtype=np.int64)
    size = 1
    while len(frontier):
        if rows is not None:  # the arcs out of u are row u
            reached = rows[frontier].ravel()
        else:  # the ranges offsets[u]:offsets[u + 1], one after another
            counts = offsets[frontier + 1] - offsets[frontier]
            ends = np.cumsum(counts)
            starts = np.repeat(offsets[frontier] - ends + counts, counts)
            reached = heads[starts + np.arange(ends[-1])]
        reached = reached[slot[reached] < 0]
        ids = np.arange(len(reached))
        slot[reached] = ids
        frontier = reached[slot[reached] == ids]
        size += len(frontier)
    return size


def empty_graph(p: int) -> Graph:
    """p isolated vertices (the inner factor of the family product)."""
    if p < 1:
        raise ValueError("vertex count must be at least 1")
    return Graph(p, [])


def wreath_product(gamma: Graph, delta: Graph) -> Graph:
    """Graph wreath product of delta by gamma.

    Vertices are pairs (d, c) with d a delta-vertex listed first and
    index d * |V gamma| + c; (d1, c1) ~ (d2, c2) iff d1 = d2 and c1 ~ c2
    in gamma, or d1 ~ d2 in delta.
    """
    inner = gamma.n
    # (d, c1) ~ (d, c2) for every vertex d of delta and arc c1 -> c2 of gamma
    blocks = np.arange(delta.n, dtype=np.int64)[:, None, None] * inner
    inside = (blocks + np.column_stack(gamma.arcs())).reshape(-1, 2)
    # (d1, c1) ~ (d2, c2) for every edge d1 < d2 of delta and all c1, c2
    tails, heads = delta.arcs()
    up = tails < heads
    c1, c2 = np.divmod(np.arange(inner * inner, dtype=np.int64), inner)
    across = np.stack((tails[up, None] * inner + c1, heads[up, None] * inner + c2), axis=-1)
    return Graph(delta.n * inner, np.concatenate((inside, across.reshape(-1, 2))))


def standard_connection(H: AbelianH) -> tuple[tuple[int, int], ...]:
    """The connection set {a, a^{-1}, b, b^{-1}}, deduplicated."""
    q = H.q
    raw = [(1, 0), (q - 1, 0), (0, 1), (0, q - 1)]
    out = []
    for s in raw:
        if s not in out:
            out.append(s)
    return tuple(out)


def build_family_graph(p: int, h: int, caps: Caps = DEFAULT_CAPS) -> Graph:
    """Build the family graph for parameters (p, h).

    The graph is the wreath product of p isolated vertices by the Cayley
    graph of C_q x C_q over the standard connection set. Valency is 4p
    except in the degenerate case (p, h) = (2, 1), where the connection
    set collapses and the valency is 2p; that case is built, not
    rejected (`ConstructionParams.degenerate` flags it).
    """
    H = AbelianH(p, h)
    n = p * H.order
    if n > caps.vertex_cap:
        raise CapExceeded("vertex", caps.vertex_cap, f"family graph needs {n} vertices")
    delta = cayley(CayleySpec(H, standard_connection(H)))
    graph = wreath_product(empty_graph(p), delta)
    degenerate = p == 2 and h == 1
    if graph.n != p ** (2 * h + 1):
        raise AssertionError("family graph vertex count is off")
    expected_valency = 2 * p if degenerate else 4 * p
    if graph.valency() != expected_valency:
        raise AssertionError("family graph valency is off")
    if not graph.is_connected():
        raise AssertionError("family graph is not connected")
    return graph


# -- serialization ----------------------------------------------------------


def export_graph(g: Graph, format: str = "edge-list") -> bytes:
    """Serialize a graph. Formats: "edge-list" (canonical) or "sparse6"."""
    if format == "edge-list":
        lines = [f"{g.n} {g.m}"]
        lines.extend(f"{u} {v}" for u, v in g.edges())
        return ("\n".join(lines) + "\n").encode("ascii")
    if format == "sparse6":
        return (_to_sparse6(g) + "\n").encode("ascii")
    raise ValueError(f"unsupported format {format!r}")


def parse_graph(data, format: str = "edge-list", caps: Caps = DEFAULT_CAPS) -> Graph:
    """Inverse of export_graph; raises GraphFormatError on bad input.

    A vertex count over caps.vertex_cap raises CapExceeded before any
    allocation, in either format.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii")
    if format == "edge-list":
        lines = data.splitlines()
        graph, consumed = parse_edge_list_lines(lines, caps=caps)
        for extra in lines[consumed:]:
            if extra.strip():
                raise GraphFormatError("trailing data after edge list", consumed + 1)
        return graph
    if format == "sparse6":
        return _from_sparse6(data.strip(), caps)
    raise ValueError(f"unsupported format {format!r}")


def parse_edge_list_lines(lines, caps: Caps = DEFAULT_CAPS) -> tuple[Graph, int]:
    """Parse "n m" plus m edge lines; returns (graph, lines consumed).

    Line numbers in errors count from 1 at the header line. A header over
    caps.vertex_cap raises CapExceeded before any allocation.
    """
    if not lines:
        raise GraphFormatError("missing header line", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError('header must be "n m"', 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError('header must be "n m" with integers', 1) from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative counts in header", 1)
    if n > caps.vertex_cap:
        raise CapExceeded("vertex", caps.vertex_cap, f"edge list declares {n} vertices")
    ends = []  # u, v of each edge in turn
    for k in range(m):
        lineno = 2 + k
        if 1 + k >= len(lines):
            raise GraphFormatError(f"expected {m} edges, file ends early", lineno)
        parts = lines[1 + k].split()
        if len(parts) != 2:
            raise GraphFormatError('edge line must be "u v"', lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge endpoints must be integers", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) out of range", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        ends += (u, v)
    graph = Graph(n, np.array(ends, dtype=np.int64).reshape(m, 2))
    if graph.m != m:
        raise GraphFormatError("duplicate edges in edge list", 1)
    return graph, 1 + m


# sparse6: see the formal format description published with the nauty
# tools (graph6/sparse6 formats). Encoding is bit-exact, including the
# padding special case for n a power of two.


def _n_to_chars(n: int) -> list[int]:
    if n <= 62:
        return [n]
    if n <= 258047:
        return [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    if n <= 68719476735:
        return [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    raise ValueError("graph too large for sparse6")


def _chars_to_n(data: list[int]) -> tuple[int, list[int]]:
    if not data:
        raise GraphFormatError("empty sparse6 payload")
    if data[0] <= 62:
        return data[0], data[1:]
    if len(data) >= 4 and data[1] <= 62:
        return (data[1] << 12) + (data[2] << 6) + data[3], data[4:]
    if len(data) >= 8:
        n = 0
        for d in data[2:8]:
            n = (n << 6) + d
        return n, data[8:]
    raise GraphFormatError("truncated sparse6 vertex count")


def _to_sparse6(g: Graph) -> str:
    n = g.n
    chars = _n_to_chars(n)
    k = max(1, (n - 1).bit_length())  # bits per vertex number
    fields = []
    curv = 0
    tails, heads = g.arcs()
    down = heads < tails
    # each edge once as (u, v) with u > v, sorted by (u, v)
    for u, v in zip(tails[down].tolist(), heads[down].tolist()):
        if u == curv:
            fields.append(f"0{v:0{k}b}")
        elif u == curv + 1:
            curv += 1
            fields.append(f"1{v:0{k}b}")
        else:
            curv = u
            fields.append(f"1{u:0{k}b}0{v:0{k}b}")
    bits = "".join(fields)
    pad = (-len(bits)) % 6
    if k < 6 and n == (1 << k) and pad >= k and curv < n - 1:
        # all-ones padding would decode as a loop on vertex n-1
        bits += "0"
        pad = (-len(bits)) % 6
    bits += "1" * pad
    payload = "".join(chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6))
    return ":" + "".join(chr(63 + c) for c in chars) + payload


def _from_sparse6(text: str, caps: Caps) -> Graph:
    if text.startswith(">>sparse6<<"):
        text = text[11:]
    if not text.startswith(":"):
        raise GraphFormatError("sparse6 data must start with ':'")
    data = [ord(c) - 63 for c in text[1:]]
    if any(d < 0 or d > 63 for d in data):
        raise GraphFormatError("invalid character in sparse6 data")
    n, rest = _chars_to_n(data)
    if n > caps.vertex_cap:
        raise CapExceeded("vertex", caps.vertex_cap, f"sparse6 header declares {n} vertices")
    k = max(1, (n - 1).bit_length())
    bits = "".join(f"{d:06b}" for d in rest)
    edges = []
    v = 0
    for pos in range(0, len(bits) - k, 1 + k):
        x = int(bits[pos + 1 : pos + 1 + k], 2)
        if bits[pos] == "1":
            v += 1
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))
    return Graph(n, edges)
