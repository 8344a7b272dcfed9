"""Finite simple graphs and the constant-valency family construction.

Graphs are immutable once built: vertices are 0..n-1, neighbor lists are
sorted tuples, adjacency is symmetric, loop-free and duplicate-free.
Besides the generic Cayley and wreath (lexicographic) product builders,
this module serializes graphs to an exact edge-list format and to the
standard sparse6 encoding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .group_algebra import AbelianH

__all__ = [
    "Graph",
    "GraphFormatError",
    "CayleySpec",
    "FamilyGraph",
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
    """Simple undirected graph with indexed vertices."""

    __slots__ = ("n", "adj", "_arcs")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count cannot be negative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in nbrs
        )
        self._arcs: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Tails and heads (int64) of all 2m arcs, sorted by (tail, head)."""
        if self._arcs is None:
            tails = np.repeat(
                np.arange(self.n, dtype=np.int64), [len(a) for a in self.adj]
            )
            heads = np.fromiter(
                (w for a in self.adj for w in a), dtype=np.int64, count=len(tails)
            )
            self._arcs = (tails, heads)
        return self._arcs

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, sorted lexicographically."""
        out = []
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def is_regular(self) -> bool:
        if self.n == 0:
            return True
        d = len(self.adj[0])
        return all(len(a) == d for a in self.adj)

    def valency(self) -> int:
        if self.n == 0:
            raise ValueError("valency undefined on the empty graph")
        if not self.is_regular():
            raise ValueError("valency undefined: graph is not regular")
        return len(self.adj[0])

    def is_connected(self) -> bool:
        return self.n == 0 or _component_size(self, 0) == self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

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
    edges = [(k, t) for s in conn for k, t in enumerate(H.index_map(s).tolist())]
    g = Graph(H.order, edges)
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
    seen = {v}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


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
    n = delta.n * inner
    edges = []
    inner_edges = gamma.edges()
    for d in range(delta.n):
        base = d * inner
        for c1, c2 in inner_edges:
            edges.append((base + c1, base + c2))
        for d2 in delta.adj[d]:
            if d2 > d:
                for c1 in range(inner):
                    for c2 in range(inner):
                        edges.append((base + c1, d2 * inner + c2))
    return Graph(n, edges)


def standard_connection(H: AbelianH) -> tuple[tuple[int, int], ...]:
    """The connection set {a, a^{-1}, b, b^{-1}}, deduplicated."""
    q = H.q
    raw = [(1, 0), (q - 1, 0), (0, 1), (0, q - 1)]
    out = []
    for s in raw:
        if s not in out:
            out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class FamilyGraph:
    """One member of the constant-valency family, with its base quotient."""

    p: int
    h: int
    q: int
    delta: Graph
    graph: Graph
    degenerate: bool


def build_family_graph(p: int, h: int, caps: Caps = DEFAULT_CAPS) -> FamilyGraph:
    """Build the family graph for parameters (p, h).

    The graph is the wreath product of p isolated vertices by the Cayley
    graph of C_q x C_q over the standard connection set. Valency is 4p
    except in the degenerate case (p, h) = (2, 1), where the connection
    set collapses and the valency is 2p; that case is flagged, not
    rejected.
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
    return FamilyGraph(p=p, h=h, q=H.q, delta=delta, graph=graph, degenerate=degenerate)


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


def parse_edge_list_lines(lines, offset: int = 0, caps: Caps = DEFAULT_CAPS) -> tuple[Graph, int]:
    """Parse "n m" plus m edge lines; returns (graph, lines consumed).

    Line numbers in errors are 1-based and shifted by `offset` so callers
    embedding an edge list inside a larger file can report real positions.
    A header over caps.vertex_cap raises CapExceeded before any allocation.
    """
    if not lines:
        raise GraphFormatError("missing header line", offset + 1)
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError('header must be "n m"', offset + 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError('header must be "n m" with integers', offset + 1) from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative counts in header", offset + 1)
    if n > caps.vertex_cap:
        raise CapExceeded("vertex", caps.vertex_cap, f"edge list declares {n} vertices")
    edges = []
    for k in range(m):
        lineno = offset + 2 + k
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
        edges.append((u, v))
    graph = Graph(n, edges)
    if graph.m != m:
        raise GraphFormatError("duplicate edges in edge list", offset + 1)
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
    k = 1
    while (1 << k) < n:
        k += 1
    bits: list[int] = []

    def put(x: int, width: int) -> None:
        for i in range(width - 1, -1, -1):
            bits.append((x >> i) & 1)

    curv = 0
    for u, v in sorted((max(e), min(e)) for e in g.edges()):
        # u is the larger endpoint here
        if u == curv:
            bits.append(0)
            put(v, k)
        elif u == curv + 1:
            curv += 1
            bits.append(1)
            put(v, k)
        else:
            curv = u
            bits.append(1)
            put(u, k)
            bits.append(0)
            put(v, k)
    pad = (-len(bits)) % 6
    if k < 6 and n == (1 << k) and pad >= k and curv < n - 1:
        # all-ones padding would decode as a loop on vertex n-1
        bits.append(0)
        pad = (-len(bits)) % 6
    bits.extend([1] * pad)
    payload = "".join(
        chr(63 + int("".join(map(str, bits[i : i + 6])), 2))
        for i in range(0, len(bits), 6)
    )
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
    k = 1
    while (1 << k) < n:
        k += 1
    stream = 0
    length = 0
    for d in rest:
        stream = (stream << 6) + d
        length += 6

    def read(width: int, pos: int) -> int:
        return (stream >> (length - pos - width)) & ((1 << width) - 1)

    edges = []
    v = 0
    pos = 0
    while pos + 1 + k <= length:
        b = read(1, pos)
        x = read(k, pos + 1)
        pos += 1 + k
        if b:
            v += 1
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))
    return Graph(n, edges)
