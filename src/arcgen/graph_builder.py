"""Finite simple graphs and the constant-valency family construction.

Graphs are immutable once built: vertices are 0..n-1, and a graph is
kept as its arcs, two read-only int64 arrays sorted by (tail, head), with
per-vertex offsets into them. Adjacency is symmetric, loop-free and
duplicate-free. The family graph is built straight from the index maps
of H = C_q x C_q, handing `Graph` one array of vertex pairs; there are no
generic Cayley or product builders. This module writes graphs in an
exact edge-list format, which it also reads, and in the standard sparse6
encoding, which it writes but does not read.
Its labeller `_label` answers every component question: connectivity
here, and orbits in `perm_group`.
"""

from __future__ import annotations

import numpy as np

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .group_algebra import AbelianH

__all__ = [
    "Graph",
    "GraphFormatError",
    "build_family_graph",
    "export_graph",
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

    __slots__ = ("n", "_tails", "_heads", "_offsets", "_codes")

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
        self._codes = None

    @property
    def m(self) -> int:
        return len(self._heads) // 2

    def neighbors(self, v: int) -> np.ndarray:
        """The neighbors of v in increasing order (a read-only view); 0 <= v < n."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self._heads[self._offsets[v] : self._offsets[v + 1]]

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Tails and heads (int64, read-only) of all 2m arcs, sorted by (tail, head)."""
        return self._tails, self._heads

    def arc_codes(self) -> np.ndarray:
        """The codes tail * n + head of all 2m arcs, ascending and read-only.

        Made on the first call and kept; int32 when n^2 < 2^31, int64
        otherwise.
        """
        if self._codes is None:
            codes = self._tails * self.n + self._heads
            codes = codes.astype(np.int32) if self.n**2 < 2**31 else codes
            codes.flags.writeable = False
            self._codes = codes
        return self._codes

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
        return not _label(self.n, *self.arcs())[0].any()

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


# Edge ends one hooking pass reads at once, which bounds its temporaries
LABEL_BLOCK = 2**15


def _label(n: int, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, int]:
    """Label each of the points 0..n-1 by the least point of its component.

    The edges are (tails[j], heads[i, j]) for every row i of heads: one row
    for a graph's arcs, or one row per generator, whose tails are then the
    points themselves, read in blocks of at most LABEL_BLOCK edges. Each
    round hooks the labels of both ends of every edge to the smaller of
    the two, then jumps pointers until every label is its own label
    (Shiloach and Vishkin 1982, with min-label hooking). A label only
    moves to a smaller point joined to it by edges, so once a round
    changes nothing, or every label is 0, the labels are the components'
    least points. Returns the labels and the number of rounds.
    """
    label = np.arange(n)
    heads = np.atleast_2d(heads)
    cols = max(min(len(tails), LABEL_BLOCK), 1)
    rows = LABEL_BLOCK // cols
    blocks = [(i, j) for i in range(0, len(heads), rows) for j in range(0, len(tails), cols)]
    rounds = 0
    while label.any():
        rounds += 1
        before = label.copy()
        for i, j in blocks:
            ly = label[heads[i : i + rows, j : j + cols]]
            lx = np.broadcast_to(label[tails[j : j + cols]], ly.shape)
            apart = lx != ly  # an edge whose ends share a label hooks nothing
            lx, ly = lx[apart], ly[apart]
            low = np.minimum(lx, ly)
            np.minimum.at(label, lx, low)
            np.minimum.at(label, ly, low)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if np.array_equal(label, before):
            break
    return label, rounds


def build_family_graph(p: int, h: int, caps: Caps = DEFAULT_CAPS) -> Graph:
    """Build the family graph for parameters (p, h).

    The graph is the wreath product of p isolated vertices by the Cayley
    graph of H = C_q x C_q on {a, a^-1, b, b^-1}: vertex (x, c), numbered
    index(x) * p + c, is joined to (x s, c') for s = a, b and every c',
    which also joins it to (x s^-1, c'). The arcs come in one broadcast
    from H's index maps of a and b. Valency is 4p except in the
    degenerate case (p, h) = (2, 1), where a = a^-1 and b = b^-1 and the
    valency is 2p; that case is built, not rejected
    (`ConstructionParams.degenerate` flags it). The graph is connected
    because a and b generate H.
    """
    H = AbelianH(p, h)
    n = p * H.order
    if n > caps.vertex_cap:
        raise CapExceeded("vertex", caps.vertex_cap, f"family graph needs {n} vertices")
    steps = np.stack((H.index_map("a"), H.index_map("b")))
    c1, c2 = np.divmod(np.arange(p * p), p)  # every pair of fibre places (c, c')
    tails = np.arange(H.order)[:, None] * p + c1
    heads = steps[:, :, None] * p + c2
    graph = Graph(n, np.stack(np.broadcast_arrays(tails, heads), axis=-1).reshape(-1, 2))
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
