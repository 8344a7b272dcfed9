import random
import tracemalloc

import numpy as np
import pytest

from arcgen import graph_builder
from arcgen.caps import CapExceeded, Caps
from arcgen.graph_builder import (
    Graph,
    GraphFormatError,
    build_family_graph,
    export_graph,
    parse_edge_list_lines,
)
from arcgen.group_algebra import AbelianH
from oracles import bit_reversal, from_both_ends


def k2():
    return Graph(2, [(0, 1)])


def c4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_graph_canonical_form():
    g = Graph(3, [(2, 1), (1, 2), (0, 2)])
    assert [g.neighbors(v).tolist() for v in range(3)] == [[2], [2], [0, 1]]
    assert g.m == 2


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match=r"self-loop at vertex 0"):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range"):
        Graph(2, [(0, 5)])
    # the first bad edge is reported, a range error before a loop on it
    with pytest.raises(ValueError, match=r"edge \(-1, 1\) out of range"):
        Graph(3, [(0, 1), (-1, 1), (2, 2)])
    with pytest.raises(ValueError, match=r"self-loop at vertex 2"):
        Graph(3, np.array([(0, 1), (2, 2), (3, 1)]))
    with pytest.raises(GraphFormatError, match=r"line 3: edge \(0, 2\) out of range"):
        parse_edge_list_lines(["2 2", "0 1", "0 2"])
    with pytest.raises(GraphFormatError, match="line 2: self-loop at vertex 1"):
        parse_edge_list_lines(["2 1", "1 1"])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 2**70)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1, 2)])


def test_neighbors_rejects_a_vertex_out_of_range():
    # -1 would slice offsets[-1]:offsets[0] and return nothing
    g = c4()
    for v in (-1, 4, -5, 2**70):
        with pytest.raises(ValueError, match="out of range"):
            g.neighbors(v)
    assert g.neighbors(0).tolist() == [1, 3] and g.neighbors(3).tolist() == [0, 2]
    with pytest.raises(ValueError, match="vertex 0 out of range"):
        Graph(0, []).neighbors(0)


def test_graph_arrays_are_read_only():
    g = c4()
    tails, heads = g.arcs()
    for arr in (tails, heads, g.neighbors(1)):
        with pytest.raises(ValueError):
            arr[0] = 3
    assert g == c4()


def reference_neighbors(n, edges):
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [sorted(s) for s in nbrs]


def test_graph_is_canonical_in_its_edges():
    # any order, direction or repetition of the edges gives one graph
    rng = random.Random(14)
    for n in (1, 2, 5, 9, 16):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        assert g.m == len(edges)
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        shuffled += rng.choices(shuffled, k=len(shuffled) // 2)
        rng.shuffle(shuffled)
        other = Graph(n, np.array(shuffled, dtype=np.int64).reshape(-1, 2))
        assert other == g and hash(other) == hash(g)
        tails, heads = g.arcs()
        assert len(tails) == 2 * g.m
        codes = tails * n + heads
        assert (np.diff(codes) > 0).all()
        expected = reference_neighbors(n, edges)
        for v in range(n):
            nbrs = g.neighbors(v).tolist()
            assert nbrs == expected[v]
            assert all(v in g.neighbors(w).tolist() for w in nbrs)
        assert g.edges() == sorted(edges)
    assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
    assert Graph(2, []) != Graph(3, [])


def reference_connected(n, edges):
    nbrs = reference_neighbors(n, edges)
    seen, stack = {0}, [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_is_connected_against_a_reference():
    rng = random.Random(7)
    cases = []
    for n in (1, 2, 3, 6, 10, 25):
        for density in (0.05, 0.15, 0.4):
            cases.append((n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]))
        # circulants are regular: connected exactly when the steps generate Z_n
        steps = rng.sample(range(1, n), min(2, n - 1))
        cases.append((n, [(u, (u + s) % n) for u in range(n) for s in steps if (u + s) % n != u]))
    cases.append((8, [(u, u ^ 1) for u in range(8)]))  # a perfect matching
    for n, edges in cases:
        assert Graph(n, edges).is_connected() == reference_connected(n, edges), (n, edges)
    assert Graph(0, []).is_connected()


def test_is_connected_on_long_irregular_graphs():
    n = 5000
    for order in (list(range(n)), from_both_ends(n)):
        path = list(zip(order, order[1:]))
        cases = [
            (n + 1, path + [(order[n // 3], n)]),  # a pendant edge
            (n + 2, path + [(n, n + 1)]),  # a separate edge
            (n + 1, path),  # an isolated vertex, the last one
            (n + 1, path[: n // 2] + path[n // 2 + 1 :] + [(order[0], n)]),  # a cut path
        ]
        for size, edges in cases:
            g = Graph(size, edges)
            assert not g.is_regular()
            assert g.is_connected() == reference_connected(size, edges)
        assert Graph(*cases[0]).is_connected()


def test_labeller_rounds_on_adversarial_numberings(monkeypatch):
    # the bound is 2 log2 n + 2 rounds; min-label hooking, not star
    # hooking, takes log2 n on the bit-reversed cycle and 2 on the path
    # numbered from both ends
    rounds = []
    label = graph_builder._label

    def counted(*args):
        labels, count = label(*args)
        rounds.append(count)
        return labels, count

    monkeypatch.setattr(graph_builder, "_label", counted)
    bits = 12
    cyc, path = bit_reversal(bits), from_both_ends(2**bits)
    assert Graph(2**bits, list(zip(cyc, cyc[1:] + cyc[:1]))).is_connected()
    assert Graph(2**bits, list(zip(path, path[1:]))).is_connected()
    assert max(rounds) <= 2 * bits + 2 and rounds == [bits, 2]


def test_predicates():
    assert k2().valency() == 1
    assert k2().is_connected()
    two_isolated = Graph(2, [])
    assert not two_isolated.is_connected()
    assert two_isolated.is_regular()
    path = Graph(3, [(0, 1), (1, 2)])
    assert not path.is_regular()
    with pytest.raises(ValueError):
        path.valency()


# -- family graphs -----------------------------------------------------------


def test_family_graph_2_2():
    graph = build_family_graph(2, 2)
    assert graph.n == 32
    assert graph.valency() == 8
    assert graph.is_connected()


def test_family_graph_3_1():
    graph = build_family_graph(3, 1)
    assert graph.n == 27
    assert graph.valency() == 12


def test_family_graph_degenerate_2_1():
    graph = build_family_graph(2, 1)
    assert graph.n == 8
    assert graph.valency() == 4


def test_family_graph_vertex_count_formula():
    for p, h in [(2, 1), (2, 2), (3, 1), (5, 1)]:
        graph = build_family_graph(p, h)
        assert graph.n == p ** (2 * h + 1)


@pytest.mark.parametrize("p, h", [(2, 1), (2, 2), (3, 1), (5, 1), (2, 3), (3, 2), (7, 1)])
def test_family_graph_matches_networkx(p, h):
    # the lexicographic product of the q x q torus by p isolated vertices
    nx = pytest.importorskip("networkx")
    q = p**h
    product = nx.lexicographic_product(nx.grid_2d_graph(q, q, periodic=True), nx.empty_graph(p))
    number = {((i, j), c): (i * q + j) * p + c for (i, j), c in product.nodes}
    g = build_family_graph(p, h)
    assert g.n == product.number_of_nodes() == p * q * q
    assert set(g.edges()) == {tuple(sorted((number[u], number[v]))) for u, v in product.edges}


def test_family_graph_translations_are_automorphisms():
    from arcgen.perm_group import Perm, is_automorphism

    p, h = 2, 2
    H = AbelianH(p, h)
    g = build_family_graph(p, h)
    for t in [(1, 0), (H.q - 1, 0), (0, 1), (0, H.q - 1), (1, 1)]:
        images = [H.index(*H.mul(H.element(k), t)) for k in range(H.order)]
        assert is_automorphism(g, Perm([images[v // p] * p + v % p for v in range(g.n)]))


def test_family_graph_vertex_cap():
    with pytest.raises(CapExceeded) as exc:
        build_family_graph(2, 2, Caps(vertex_cap=10))
    assert exc.value.cap_name == "vertex"


# -- serialization -----------------------------------------------------------


def test_edge_list_k2():
    assert export_graph(k2()) == b"2 1\n0 1\n"


def test_edge_list_four_cycle():
    assert export_graph(c4()) == b"4 4\n0 1\n0 3\n1 2\n2 3\n"


def test_edge_list_round_trip_family_graph():
    g = build_family_graph(2, 2)
    lines = export_graph(g).decode("ascii").splitlines()
    assert parse_edge_list_lines(lines) == (g, len(lines))


def test_edge_list_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list_lines(["2 1", "0 zzz"])
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list_lines(["nope"])
    assert exc.value.line == 1
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list_lines(["3 2", "0 1"])
    assert exc.value.line == 3


def test_sparse6_matches_networkx_reader():
    # the writer's bytes, read back by networkx, give the same edges
    nx = pytest.importorskip("networkx")
    rng = random.Random(20240811)
    graphs = [k2(), c4(), Graph(1, []), Graph(7, [(0, 1), (0, 2), (1, 2), (5, 6)])]
    for n in (2, 4, 8, 16, 33):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        graphs.append(Graph(n, edges))
    graphs.append(build_family_graph(2, 2))
    for g in graphs:
        ref = nx.from_sparse6_bytes(export_graph(g, "sparse6").strip())
        assert ref.number_of_nodes() == g.n
        assert sorted(tuple(sorted(e)) for e in ref.edges()) == g.edges()


def test_parse_at_the_vertex_cap_stays_small():
    # 2^20 isolated vertices, the default vertex cap: the arrays take
    # 8 bytes per vertex, far below the 232 MB of per-vertex sets
    n = 2**20
    data = export_graph(Graph(n, []))
    assert data == b"1048576 0\n"
    assert export_graph(Graph(n, []), "sparse6") == b":~~??C???\n"
    tracemalloc.start()
    try:
        g, _ = parse_edge_list_lines(data.decode("ascii").splitlines())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == n and g.m == 0
    assert not g.is_connected()
    assert peak < 32 * 2**20


def test_edge_list_header_over_vertex_cap():
    caps = Caps(vertex_cap=10)
    with pytest.raises(CapExceeded) as exc:
        parse_edge_list_lines(["11 0"], caps=caps)
    assert exc.value.cap_name == "vertex"
    assert parse_edge_list_lines(["10 0"], caps=caps) == (Graph(10, []), 1)


def test_sparse6_matches_reference_implementation():
    nx = pytest.importorskip("networkx")
    rng = random.Random(99)
    graphs = [k2(), c4(), build_family_graph(2, 2), build_family_graph(3, 1)]
    # powers of two exercise the padding special case
    for n in (2, 4, 8, 16, 32, 11, 27):
        for density in (0.05, 0.4, 0.8):
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < density
            ]
            graphs.append(Graph(n, edges))
    for g in graphs:
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        expected = nx.to_sparse6_bytes(ref, header=False).strip()
        assert export_graph(g, "sparse6").strip() == expected


def test_unsupported_format():
    with pytest.raises(ValueError):
        export_graph(k2(), "dot")
