import random
import tracemalloc

import numpy as np
import pytest

from arcgen.caps import CapExceeded, Caps
from arcgen.graph_builder import (
    CayleySpec,
    Graph,
    GraphFormatError,
    build_family_graph,
    cayley,
    empty_graph,
    export_graph,
    parse_graph,
    standard_connection,
    wreath_product,
)
from arcgen.group_algebra import AbelianH


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
        parse_graph("2 2\n0 1\n0 2\n")
    with pytest.raises(GraphFormatError, match="line 2: self-loop at vertex 1"):
        parse_graph("2 1\n1 1\n")
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 2**70)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1, 2)])


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


# -- cayley ------------------------------------------------------------------


def test_cayley_klein_four_cycle():
    H = AbelianH(2, 1)
    g = cayley(CayleySpec(H, ((1, 0), (0, 1))))
    # vertices 1, b, a, ab; edges checked by hand
    assert g.n == 4
    assert [g.neighbors(v).tolist() for v in range(4)] == [[1, 2], [0, 3], [0, 3], [1, 2]]
    assert g.valency() == 2
    assert g.is_connected()


def test_cayley_c4xc4():
    H = AbelianH(2, 2)
    g = cayley(CayleySpec(H, standard_connection(H)))
    assert g.n == 16
    assert g.valency() == 4
    assert g.is_connected()


def test_cayley_c3xc3():
    H = AbelianH(3, 1)
    g = cayley(CayleySpec(H, standard_connection(H)))
    assert g.n == 9
    assert g.valency() == 4


def test_cayley_validation():
    H = AbelianH(3, 1)
    with pytest.raises(ValueError, match="identity"):
        cayley(CayleySpec(H, ((0, 0), (1, 0), (2, 0))))
    with pytest.raises(ValueError, match="inverse-closed"):
        cayley(CayleySpec(H, ((1, 0),)))
    with pytest.raises(ValueError, match="duplicates"):
        cayley(CayleySpec(H, ((1, 0), (2, 0), (1, 0))))


def test_cayley_disconnected_when_set_does_not_generate():
    H = AbelianH(2, 1)
    g = cayley(CayleySpec(H, ((1, 0),)))
    assert not g.is_connected()


def test_cayley_translations_are_automorphisms():
    from arcgen.perm_group import Perm, is_automorphism

    H = AbelianH(2, 2)
    g = cayley(CayleySpec(H, standard_connection(H)))
    for t in standard_connection(H):
        perm = Perm(
            [H.index(*H.mul(H.element(k), t)) for k in range(H.order)]
        )
        assert is_automorphism(g, perm)


# -- wreath product ----------------------------------------------------------


def test_wreath_with_single_inner_vertex_is_isomorphic():
    delta = c4()
    g = wreath_product(empty_graph(1), delta)
    assert g == delta


def test_wreath_two_isolated_by_k2_is_four_cycle():
    g = wreath_product(empty_graph(2), k2())
    # K4 minus a perfect matching: vertices 0,1 vs 2,3 fully joined
    assert g.n == 4 and g.m == 4
    assert [g.neighbors(v).tolist() for v in range(4)] == [[2, 3], [2, 3], [0, 1], [0, 1]]


def test_wreath_matches_its_definition():
    rng = random.Random(5)
    for inner_n, outer_n in [(1, 4), (2, 5), (3, 4), (4, 3)]:
        inner = [(u, v) for u in range(inner_n) for v in range(u + 1, inner_n) if rng.random() < 0.5]
        outer = [(u, v) for u in range(outer_n) for v in range(u + 1, outer_n) if rng.random() < 0.5]
        gamma, delta = Graph(inner_n, inner), Graph(outer_n, outer)
        edges = [
            (d1 * inner_n + c1, d2 * inner_n + c2)
            for d1 in range(outer_n)
            for d2 in range(outer_n)
            for c1 in range(inner_n)
            for c2 in range(inner_n)
            if (d1 == d2 and (c1, c2) in inner) or (d1, d2) in outer
        ]
        assert wreath_product(gamma, delta) == Graph(inner_n * outer_n, edges)


def test_wreath_valency_law():
    # val(gamma wr delta) = val(gamma) + |V gamma| * val(delta)
    rng = random.Random(3)
    delta = c4()
    for inner_n, inner_edges in [(1, []), (3, [(0, 1)]), (2, [(0, 1)])]:
        gamma = Graph(inner_n, inner_edges)
        if not gamma.is_regular():
            continue
        g = wreath_product(gamma, delta)
        assert g.valency() == gamma.valency() + inner_n * delta.valency()


def test_wreath_of_isolated_vertices_is_p_times_regular():
    delta = c4()
    for p in (1, 2, 3):
        g = wreath_product(empty_graph(p), delta)
        assert g.valency() == p * delta.valency()


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
    assert parse_graph(export_graph(g)) == g


def test_edge_list_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("2 1\n0 zzz\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("nope\n")
    assert exc.value.line == 1
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 2\n0 1\n")
    assert exc.value.line == 3


def test_sparse6_round_trip():
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
        data = export_graph(g, "sparse6")
        assert parse_graph(data, "sparse6") == g


@pytest.mark.parametrize("fmt", ["edge-list", "sparse6"])
def test_parse_at_the_vertex_cap_stays_small(fmt):
    # 2^20 isolated vertices, the default vertex cap: the arrays take
    # 8 bytes per vertex, far below the 232 MB of per-vertex sets
    n = 2**20
    data = export_graph(Graph(n, []), fmt)
    assert data == (b"1048576 0\n" if fmt == "edge-list" else b":~~??C???\n")
    tracemalloc.start()
    try:
        g = parse_graph(data, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == n and g.m == 0
    assert not g.is_connected()
    assert peak < 32 * 2**20


def test_sparse6_header_over_vertex_cap():
    # ":J" declares 11 vertices (chr(63 + 11)) and no edges
    caps = Caps(vertex_cap=10)
    with pytest.raises(CapExceeded) as exc:
        parse_graph(":J", "sparse6", caps)
    assert exc.value.cap_name == "vertex"
    assert parse_graph(":I", "sparse6", caps) == Graph(10, [])
    with pytest.raises(CapExceeded) as exc:
        parse_graph("11 0\n", caps=caps)
    assert exc.value.cap_name == "vertex"


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
    with pytest.raises(ValueError):
        parse_graph("", "dot")
