import functools
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from arcgen import perm_group
from arcgen.caps import DEFAULT_CAPS, CapExceeded, Caps
from arcgen.field_linalg import FpMatrix, rref
from arcgen.graph_builder import Graph
from arcgen.perm_group import (
    NotTransitiveError,
    Perm,
    PermGroup,
    StabChain,
    arc_orbit_size,
    commutator,
    exponent,
    frattini_decomposition_check,
    frattini_rank,
    is_automorphism,
    is_vertex_transitive,
    local_action,
    normal_closure,
    perm_to_line,
    perms_from_lines,
)
from arcgen.pipeline import Bundle, ConstructionParams
from oracles import (
    arc_orbit_size_by_queue,
    bfs_by_queue,
    bit_reversal,
    brute_force_min_generators,
    enumerate_elements,
    exponent_by_table,
    from_both_ends,
    is_automorphism_by_neighbourhoods,
    normal_closure_one_at_a_time,
    orbits_by_queue,
    transversal_by_queue,
)


def cycle(n):
    return Perm([(i + 1) % n for i in range(n)])


def dihedral_c5():
    return PermGroup([cycle(5), Perm([0, 4, 3, 2, 1])])


def c5_graph():
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def p3_graph():
    return Graph(3, [(0, 1), (1, 2)])


# -- Perm basics -------------------------------------------------------------


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(ValueError):
        Perm([0, 3, 1])
    with pytest.raises(ValueError):
        Perm([0, 99999999999])


def test_perm_rejects_non_integer_images():
    for images in ([1.5, 0.5], [1.0, 0.0], [True, False], ["1", "0"], np.array([1, 0], dtype=float)):
        with pytest.raises(ValueError):
            Perm(images)
    assert Perm([]).degree == 0
    assert Perm(np.array([1, 0], dtype=np.uint8)) == Perm([1, 0])


def test_perm_composition_convention():
    # x^(g*h) = (x^g)^h
    g = Perm([1, 2, 0])
    h = Perm([0, 2, 1])
    assert (g * h)(0) == h(g(0))
    assert (g * g.inverse()).is_identity()


def test_perm_order_and_cycles():
    p = Perm([1, 2, 0, 4, 3])
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert p.order() == 6
    assert (p ** 6).is_identity()
    assert p ** -1 == p.inverse()


def test_perm_order_matches_cycle_lengths():
    rng = random.Random(41)
    perms = [Perm([]), Perm.identity(6), cycle(12), Perm([1, 2, 0, 4, 3])]
    for n in (2, 7, 60, 301):
        for _ in range(3):
            images = list(range(n))
            rng.shuffle(images)
            perms.append(Perm(images))
    for p, h in ((2, 2), (3, 1)):
        gens = Bundle(ConstructionParams(p, h)).big_group.generators
        perms += gens
        perms += [rng.choice(gens) * rng.choice(gens) * rng.choice(gens) for _ in range(10)]
    for g in perms:
        assert g.order() == math.lcm(*(len(c) for c in g.cycles()))
        assert (g ** g.order()).is_identity()


def test_perm_interchange_round_trip():
    p = Perm([2, 0, 1, 3])
    line = perm_to_line(p)
    assert line == "2 0 1 3"
    assert perms_from_lines([line]) == [p]
    with pytest.raises(ValueError):
        perms_from_lines(["1 x 0"])
    with pytest.raises(ValueError):
        perms_from_lines(["0 1"], degree=3)


# -- automorphisms -----------------------------------------------------------


def test_identity_is_automorphism():
    assert is_automorphism(c5_graph(), Perm.identity(5))


def test_k2_swap_is_automorphism():
    assert is_automorphism(Graph(2, [(0, 1)]), Perm([1, 0]))


def test_path_rotation_is_not_automorphism():
    # mapping an endpoint of the path onto the center breaks degrees
    assert not is_automorphism(p3_graph(), Perm([1, 2, 0]))


def test_automorphism_degree_mismatch():
    with pytest.raises(ValueError):
        is_automorphism(p3_graph(), Perm([1, 0]))


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1)])
def test_automorphism_matches_neighbourhood_rule(p, h):
    bundle = Bundle(ConstructionParams(p, h))
    graph, gens = bundle.graph, bundle.big_group.generators
    rng = random.Random(100 * p + h)
    for _ in range(20):
        g = Perm.identity(graph.n)
        for _ in range(rng.randrange(1, 12)):
            g = g * rng.choice(gens)
        assert is_automorphism(graph, g)
        assert is_automorphism_by_neighbourhoods(graph, g)
    for _ in range(20):
        images = list(range(graph.n))
        rng.shuffle(images)
        g = Perm(images)
        assert not is_automorphism(graph, g)
        assert not is_automorphism_by_neighbourhoods(graph, g)
    # With the edge uw deleted, an automorphism of the whole graph that
    # moves uw maps every remaining edge onto an edge but one.
    edges = graph.edges()
    u, w = edges[0]
    cut = Graph(graph.n, edges[1:])
    g = next(g for g in gens if {g(u), g(w)} != {u, w})
    kept = set(edges[1:])
    broken = [e for e in kept if tuple(sorted((g(e[0]), g(e[1])))) not in kept]
    assert len(broken) == 1
    assert not is_automorphism(cut, g)
    assert not is_automorphism_by_neighbourhoods(cut, g)


def test_automorphism_on_the_empty_graph():
    assert is_automorphism(Graph(0, []), Perm([]))
    assert is_automorphism(Graph(3, []), Perm([2, 0, 1]))


@pytest.mark.parametrize("n, dtype", [(9, np.int32), (46_340, np.int32), (46_349, np.int64)])
def test_automorphism_arc_codes_on_both_sides_of_int32(n, dtype):
    # the codes tail * n + head fit int32 while n^2 < 2^31; 46,340^2 is just
    # under it, and 46,349^2 is over it
    x = np.arange(n)
    graph = Graph(n, np.column_stack((x, (x + 1) % n)))
    assert graph.arc_codes() is graph.arc_codes() and graph.arc_codes().dtype == dtype
    assert is_automorphism(graph, Perm((x + 1) % n)) and is_automorphism(graph, Perm(-x % n))
    swap = x.copy()
    swap[[0, 1]] = [1, 0]  # a transposition of neighbours
    assert not is_automorphism(graph, Perm(swap))


# -- orbits and transitivity -------------------------------------------------


def test_orbit_under_trivial_group():
    G = PermGroup.trivial(4)
    assert G.orbit(2) == [2]


def test_orbit_under_full_cycle():
    G = PermGroup([cycle(6)])
    assert G.orbit(0) == list(range(6))


@pytest.mark.parametrize("call, point", [
    (lambda G: G.orbit(-1), -1),
    (lambda G: G.orbit([0, 4]), 4),
    (lambda G: G.transversal(-1, [3]), -1),
    (lambda G: G.transversal(0, [-3]), -3),
    (lambda G: G.stabilizer(4), 4),
], ids=["orbit", "orbit-of-points", "transversal-base", "transversal-point", "stabilizer"])
def test_points_out_of_range_are_rejected(call, point):
    # negative points once wrapped: orbit(-1) gave [3], and transversal(0, [-3]) gave (0 1)
    G = PermGroup([Perm([1, 0, 2, 3])])
    with pytest.raises(ValueError, match=f"point {point} out of range"):
        call(G)


def test_rotation_only_is_vertex_but_not_arc_transitive():
    G = PermGroup([cycle(5)])
    g = c5_graph()
    assert is_vertex_transitive(g, G)
    assert arc_orbit_size(g, G) == 5 < 2 * g.m


def test_dihedral_is_arc_transitive():
    g = c5_graph()
    G = dihedral_c5()
    assert arc_orbit_size(g, G) == 10 == 2 * g.m


def test_transitivity_checks_generators():
    bad = PermGroup([Perm([1, 2, 0])])
    with pytest.raises(ValueError, match="generator 1 is not an automorphism"):
        is_vertex_transitive(p3_graph(), bad)


def test_failed_automorphism_check_is_not_remembered():
    # every predicate raises on the same group, however often it is asked
    bad, graph = PermGroup([Perm([1, 2, 0])]), p3_graph()
    for check in (is_vertex_transitive, arc_orbit_size, lambda g, G: local_action(g, G, 0)):
        for _ in range(2):
            with pytest.raises(ValueError, match="generator 1 is not an automorphism"):
                check(graph, bad)


def test_automorphism_check_is_remembered_per_graph(monkeypatch):
    checked = []
    monkeypatch.setattr(
        perm_group, "is_automorphism", lambda g, p: checked.append(p) or is_automorphism(g, p)
    )
    G, graph = dihedral_c5(), c5_graph()
    assert is_vertex_transitive(graph, G)
    assert arc_orbit_size(graph, G) == 10
    assert local_action(graph, G, 0)[1] == 1
    assert len(checked) == 2
    # another graph is checked afresh: here the 5-cycle is not an automorphism
    path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match="generator 1 is not an automorphism"):
        is_vertex_transitive(path, G)
    assert len(checked) == 3


def test_extension_checks_only_the_generators_its_subgroup_lacks(monkeypatch):
    checked = []
    monkeypatch.setattr(
        perm_group, "is_automorphism", lambda g, p: checked.append(p) or is_automorphism(g, p)
    )
    reflection, graph = Perm([0, 4, 3, 2, 1]), c5_graph()
    # the subgroup is checked first, so the extension checks its new generator only
    sub = PermGroup([cycle(5)])
    assert is_vertex_transitive(graph, sub)
    checked.clear()
    assert arc_orbit_size(graph, PermGroup._extension(sub, [reflection])) == 10
    assert checked == [reflection]
    # an unchecked subgroup, or one checked against another graph object,
    # leaves every generator to the extension
    for sub_graph in (None, c5_graph()):
        sub = PermGroup([cycle(5)])
        if sub_graph is not None:
            is_vertex_transitive(sub_graph, sub)
        checked.clear()
        is_vertex_transitive(graph, PermGroup._extension(sub, [reflection]))
        assert checked == [cycle(5), reflection]
    # a new generator that is not an automorphism keeps its place in the message
    sub = PermGroup([cycle(5)])
    is_vertex_transitive(graph, sub)
    with pytest.raises(ValueError, match="generator 2 is not an automorphism"):
        is_vertex_transitive(graph, PermGroup._extension(sub, [Perm([1, 0, 2, 3, 4])]))


# -- orders, stabilizers, chains ---------------------------------------------


def test_cycle_group_order():
    for n in (2, 3, 7, 12):
        assert PermGroup([cycle(n)]).order() == n


def test_dihedral_order_and_stabilizer():
    G = dihedral_c5()
    assert G.order() == 10
    stab = G.stabilizer(0)
    assert stab.order() == 2
    assert all(g(0) == 0 for g in stab.generators)


def test_symmetric_group_order():
    for n in (3, 4, 5, 6):
        G = PermGroup([Perm([1, 0] + list(range(2, n))), cycle(n)])
        assert G.order() == math.factorial(n)


def test_order_is_generator_order_invariant():
    rng = random.Random(11)
    gens = [Perm([1, 0, 2, 3, 4]), cycle(5), Perm([0, 1, 3, 2, 4])]
    reference = PermGroup(gens).order()
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert PermGroup(shuffled).order() == reference


def test_cached_chain_matches_fresh_chain():
    G = dihedral_c5()
    cached = G.order()
    assert G.fresh_chain().order() == cached
    assert G.fresh_chain(base_prefix=(3,)).order() == cached


def count_chain_builds(monkeypatch):
    builds = []
    init = StabChain.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabChain, "__init__", counted)
    return builds


def test_stabilizer_reuses_the_cached_chain(monkeypatch):
    builds = count_chain_builds(monkeypatch)
    G = dihedral_c5()
    assert G.order() == 10
    assert G.chain().base()[0] == 0
    assert G.stabilizer(0).order() == 2
    assert len(builds) == 1


def test_stabilizer_first_builds_the_one_chain(monkeypatch):
    builds = count_chain_builds(monkeypatch)
    G = dihedral_c5()
    stab = G.stabilizer(0)
    assert G.order() == 10
    assert len(builds) == 1
    assert stab.order() == 2
    assert all(g(0) == 0 for g in stab.generators)


def test_stabilizer_at_a_new_first_base_keeps_its_chain(monkeypatch):
    G = dihedral_c5()
    assert G.order() == 10 and G.chain().base()[0] == 0
    builds = count_chain_builds(monkeypatch)
    assert G.stabilizer(3).order() == 2
    assert len(builds) == 1 and G.chain().base()[0] == 3
    assert G.stabilizer(3).order() == 2 and G.order() == 10
    assert G.contains(cycle(5))
    assert len(builds) == 1


def test_stabilizer_generators_independent_of_call_order():
    # a cached chain must hand out exactly the generators a fresh chain
    # with the same first base point would
    for v in range(5):
        first = dihedral_c5().stabilizer(v).generators
        G = dihedral_c5()
        G.order()
        assert G.stabilizer(v).generators == first
    G = dihedral_c5()
    assert G.stabilizer(3).order() == 2
    assert G.chain().base()[0] == 3
    assert G.order() == 10
    assert G.stabilizer(1).order() == 2


def test_orbit_stabilizer_identity():
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randrange(4, 8)
        gens = []
        for _ in range(2):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Perm(images))
        G = PermGroup(gens)
        for v in range(n):
            assert G.order() == len(G.orbit(v)) * G.stabilizer(v).order()


def test_sifting_soundness():
    rng = random.Random(17)
    gens = [Perm([1, 0, 3, 2, 4, 5]), Perm([2, 3, 4, 5, 0, 1])]
    G = PermGroup(gens)
    chain = G.chain()
    assert chain.verify()
    for g in gens:
        assert G.contains(g)
    # random products of generators are members
    for _ in range(20):
        word = Perm.identity(6)
        for _ in range(rng.randrange(1, 8)):
            word = word * gens[rng.randrange(2)]
        assert G.contains(word)
    assert not G.contains(Perm([1, 2, 3, 4, 5, 0]))


def test_order_cap_fires():
    gens = [Perm([1, 0] + list(range(2, 8))), cycle(8)]
    with pytest.raises(CapExceeded) as exc:
        PermGroup(gens, caps=Caps(order_cap=100)).order()
    assert exc.value.cap_name == "order"
    assert "100" in str(exc.value)


def test_order_cap_failure_is_cached(monkeypatch):
    builds = count_chain_builds(monkeypatch)
    G = PermGroup([Perm([1, 0] + list(range(2, 8))), cycle(8)], caps=Caps(order_cap=100))
    for call in (G.order, G.order, lambda: G.stabilizer(0), lambda: G.stabilizer(3)):
        with pytest.raises(CapExceeded) as exc:
            call()
        assert exc.value.cap_name == "order"
        assert exc.value.limit == 100
    assert len(builds) == 1


def test_time_cap_zero_fires_and_is_not_cached(monkeypatch):
    # one generator of order 300: the deadline is checked after its first prime step
    builds = count_chain_builds(monkeypatch)
    G = PermGroup([cycle(300)], caps=Caps(time_cap_s=0.0))
    for _ in range(2):
        with pytest.raises(CapExceeded) as exc:
            G.order()
        assert exc.value.cap_name == "time"
    assert len(builds) == 2


def test_deadline_fires_inside_schreier_sims():
    # the 12-cycle does not normalize <(0 1)>, so Schreier-Sims closes S12,
    # and the deadline is checked every 256 of its steps
    chain = StabChain(12, [Perm([1, 0] + list(range(2, 12))).images])
    chain.deadline = time.monotonic()
    with pytest.raises(CapExceeded) as exc:
        chain.add_generator(cycle(12).images)
    assert exc.value.cap_name == "time"


def test_family_order_cap_fires_on_the_prime_steps_and_is_cached(monkeypatch):
    builds = count_chain_builds(monkeypatch)
    G = Bundle(ConstructionParams(2, 4)).small_group
    for _ in range(2):
        with pytest.raises(CapExceeded) as exc:
            G.order()
        assert exc.value.cap_name == "order"
        assert exc.value.limit == DEFAULT_CAPS.order_cap
    assert len(builds) == 1


def test_family_time_cap_zero_fires_and_is_not_cached(monkeypatch):
    builds = count_chain_builds(monkeypatch)
    G = Bundle(ConstructionParams(2, 2, Caps(time_cap_s=0.0))).small_group
    for _ in range(2):
        with pytest.raises(CapExceeded) as exc:
            G.order()
        assert exc.value.cap_name == "time"
    assert len(builds) == 2


def _linear_level(chain):
    """Λ's prime, rank, pivot blocks and reduced rows, or None when it never opened."""
    lin = chain.linear
    return None if lin is None else (lin.r, lin.rank, lin.piv.tolist(), lin.rows.tobytes())


def _chain_levels(chain):
    """Every level's base, orbit, positions, transversal rows and generators, then Λ."""
    return [
        (lv.base, list(lv.points), lv.pos.tobytes(), lv.inv[: len(lv.points)].tobytes(),
         [g.tobytes() for g in lv.gens])
        for lv in chain.levels
    ] + [_linear_level(chain)]


def _chain_shape_and_span(chain):
    """The base, each level's orbit as a set, the order and Λ's span."""
    orbits = [frozenset(lv.points) for lv in chain.levels]
    return chain.base(), orbits, chain.order(), _canonical_span(chain)


@pytest.mark.parametrize("first", ["stabilizer", "order"])
@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (2, 3)])
def test_big_chain_extends_the_small_chain(monkeypatch, p, h, first):
    # A fresh build spins the layer under a, b, phi and psi, the small
    # group's under a and b alone: the same span W = M, reached by other
    # rounds, so Λ's pivots, and with them the transversals and the order
    # of level 0's points, may differ. The chains agree in base, orbits as
    # sets, order and Λ's span, and both verify.
    bundle = Bundle(ConstructionParams(p, h))
    small, big = bundle.small_group, bundle.big_group
    if first == "stabilizer":
        small.stabilizer(0)  # as C4 builds it, with base prefix (0,)
    else:
        small.order()
    before = _chain_levels(small.chain())
    builds = count_chain_builds(monkeypatch)
    ours = big.chain()
    assert builds == [] and big.order() == 4 * small.order()
    assert _chain_levels(small.chain()) == before
    prefix = small.chain().base()[:1]
    fresh = StabChain(bundle.graph.n, [g.images for g in big.generators], base_prefix=prefix)
    assert _chain_shape_and_span(ours) == _chain_shape_and_span(fresh)
    assert ours.verify() and fresh.verify()


def test_big_group_reraises_the_small_groups_order_cap(monkeypatch):
    bundle = Bundle(ConstructionParams(2, 4))
    with pytest.raises(CapExceeded):
        bundle.small_group.order()
    builds = count_chain_builds(monkeypatch)
    for _ in range(2):
        with pytest.raises(CapExceeded) as exc:
            bundle.big_group.order()
        assert exc.value.cap_name == "order"
        assert exc.value.limit == DEFAULT_CAPS.order_cap
    assert builds == []


def test_big_group_order_cap_met_while_extending_is_cached(monkeypatch):
    # the small group's order 2^14 is under the cap; phi and psi take it past
    bundle = Bundle(ConstructionParams(2, 2, Caps(order_cap=2**15)))
    assert bundle.small_group.order() == 2**14
    adds = []
    add_generator = StabChain.add_generator
    monkeypatch.setattr(
        StabChain, "add_generator", lambda chain, arr: adds.append(1) or add_generator(chain, arr)
    )
    for _ in range(2):
        with pytest.raises(CapExceeded) as exc:
            bundle.big_group.order()
        assert exc.value.cap_name == "order"
    assert len(adds) == 2  # phi reaches the cap, psi passes it; the second call adds none


def count_sifts(monkeypatch):
    sifts = []
    sift = StabChain.sift

    def counted(self, arr, start=0):
        sifts.append(len(arr))
        return sift(self, arr, start)

    monkeypatch.setattr(StabChain, "sift", counted)
    return sifts


def test_prime_coset_order_generator_is_sifted_once(monkeypatch):
    bundle = Bundle(ConstructionParams(2, 2))
    chain = StabChain(bundle.graph.n, [g.images for g in bundle.small_group.generators])
    order = chain.order()
    sifts = count_sifts(monkeypatch)
    # phi is an involution outside the small group, which it normalizes
    assert chain.add_generator(bundle.outer_gens[0].images)
    assert sifts == [bundle.graph.n] and chain.order() == 2 * order
    assert chain.verify()
    sifts.clear()
    chain = StabChain(7, [cycle(7).images])
    assert sifts == [7] and chain.order() == 7


def test_transversal_images():
    G = dihedral_c5()
    reps = G.transversal(0, [3, 0, 1])
    assert [g(0) for g in reps] == [3, 0, 1]
    assert all(g.images.base is None for g in reps)  # nothing pins a table
    assert G.transversal(0, [2], reverse=True)[0](0) == 2
    with pytest.raises(ValueError, match="not in the orbit"):
        PermGroup([Perm([1, 2, 0, 3])]).transversal(0, [3])


# -- local action ------------------------------------------------------------


def test_local_action_dihedral():
    induced, orbits = local_action(c5_graph(), dihedral_c5(), 0)
    assert induced.degree == 2
    assert orbits == 1
    assert induced.order() == 2


def test_local_action_rotation_only():
    induced, orbits = local_action(c5_graph(), PermGroup([cycle(5)]), 0)
    assert orbits == 2
    assert induced.order() == 1


def test_local_action_rejects_a_vertex_out_of_range():
    graph, G = c5_graph(), dihedral_c5()
    for v in (-1, 5):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            local_action(graph, G, v)
    assert local_action(graph, G, 4)[1] == 1


# -- frattini decomposition --------------------------------------------------


def test_decomposition_whole_group_as_subgroup():
    G = dihedral_c5()
    assert frattini_decomposition_check(G, G, 0)


def test_decomposition_with_rotations():
    G = dihedral_c5()
    rotations = PermGroup([cycle(5)])
    assert frattini_decomposition_check(G, rotations, 0)


def test_decomposition_requires_transitive_subgroup():
    G = dihedral_c5()
    reflections = PermGroup([Perm([0, 4, 3, 2, 1])])
    with pytest.raises(NotTransitiveError):
        frattini_decomposition_check(G, reflections, 0)


def test_decomposition_requires_membership():
    G = PermGroup([cycle(5)])
    outside = PermGroup([Perm([0, 4, 3, 2, 1]), cycle(5)])
    with pytest.raises(ValueError, match="does not lie in"):
        frattini_decomposition_check(G, outside, 0)


def test_decomposition_false_for_intransitive_big_group():
    # G itself not transitive: orbit-stabilizer count fails
    G = PermGroup([Perm([1, 0, 2, 3])])
    H = PermGroup([Perm([1, 0, 3, 2]), Perm([2, 3, 0, 1])])
    with pytest.raises(ValueError):
        # H's generators are not in G
        frattini_decomposition_check(G, H, 0)


# -- subgroup tools ----------------------------------------------------------


def test_normal_closure_of_central_element():
    # center of the dihedral group on 4 points: the rotation by 2
    G = PermGroup([cycle(4), Perm([0, 3, 2, 1])])
    r2 = Perm([2, 3, 0, 1])
    ncl = normal_closure(G, [r2])
    assert ncl.order() == 2
    assert ncl.contains(r2)


def test_normal_closure_in_a_group_without_generators():
    # the seed is a fibre translation, and no generator maps it anywhere
    ncl = normal_closure(PermGroup([], degree=4), [Perm([1, 0, 2, 3])])
    assert ncl.order() == 2 and ncl.chain().verify()
    assert frattini_rank(PermGroup([], degree=4), 2) == 0


def test_normal_closure_transposition_s4():
    S4 = PermGroup([Perm([1, 0, 2, 3]), cycle(4)])
    ncl = normal_closure(S4, [Perm([1, 0, 2, 3])])
    assert ncl.order() == 24
    assert len(enumerate_elements(ncl)) == 24


def count_spins(monkeypatch):
    """The rank of Λ after each spin of a normal closure's translations."""
    ranks = []
    spin = perm_group._Shifts.spin

    def recorded(lin, *args):
        spin(lin, *args)
        ranks.append(lin.rank)

    monkeypatch.setattr(perm_group._Shifts, "spin", recorded)
    return ranks


@pytest.mark.parametrize("seed", range(14))
def test_normal_closure_matches_one_at_a_time(seed, monkeypatch):
    # off the spin route, which every even seed takes, the batched closure
    # makes the same add decisions as trying every seed and conjugate on its
    # own, in the same order; from seed 8 on, four generators give blocks of
    # four rows, often with several residues. A wreath product whose seeds
    # hold a fibre translation spins it into Λ and adds W's basis rows, not
    # the conjugates one by one, so there the groups are compared
    spins = count_spins(monkeypatch)
    rng = random.Random(seed)
    n = rng.randrange(5, 10)
    if seed % 2:  # C_2 wr C_m on 2m points: the closure of a swap adds m times
        m = n // 2
        swap = Perm([1, 0] + list(range(2, 2 * m)))
        gens = [swap, Perm([(i + 2) % (2 * m) for i in range(2 * m)])]
    else:
        k = 4 if seed >= 8 else rng.randrange(1, 4)
        gens = [Perm(rng.sample(range(n), n)) for _ in range(k)]
    G = PermGroup(gens)
    seeds = []
    for _ in range(rng.randrange(1, 5)):
        g = rng.choice(gens)
        for _ in range(rng.randrange(0, 4)):
            g = g * rng.choice(gens) ** rng.choice((1, 2, -1))
        seeds.append(g)
    ours = normal_closure(G, seeds)
    added, chain = normal_closure_one_at_a_time(G, seeds)
    assert ours.order() == chain.order()
    assert all(ours.contains(s) for s in seeds)
    assert not (spins and seed % 2 == 0)
    if spins:
        assert all(ours.contains(Perm(x)) for x in added) and ours.chain().verify()
        return
    assert [g.images.tolist() for g in ours.generators] == [x.tolist() for x in added]
    # the same chain, level by level: each add takes the residue of its own row
    for lv, ref in zip(ours.chain().levels, chain.levels, strict=True):
        assert lv.points == ref.points
        assert [g.tolist() for g in lv.gens] == [g.tolist() for g in ref.gens]
    assert _linear_level(ours.chain()) == _linear_level(chain)


@pytest.mark.parametrize("m", [3, 5])
def test_normal_closure_sifts_each_element_added_from_a_block_once(m, monkeypatch):
    # C_2 wr C_m, with the swaps of the blocks {k, k + m}: these are no
    # fibre translations of the blocks of consecutive points, so the
    # closure of a swap takes no spin; it adds the swap, then m - 1
    # conjugates from its blocks, and each add reuses the residue of its
    # block sift, the seed's block included
    spins = count_spins(monkeypatch)
    swap = Perm([m] + list(range(1, m)) + [0] + list(range(m + 1, 2 * m)))
    rotation = Perm([(x + 1) % m + m * (x // m) for x in range(2 * m)])
    G = PermGroup([swap, rotation])
    sifted = []
    sift = StabChain.sift

    def recorded(chain, arr, start=0):
        sifted.append(arr.tobytes())
        return sift(chain, arr, start)

    monkeypatch.setattr(StabChain, "sift", recorded)
    ncl = normal_closure(G, [swap])
    assert ncl.order() == 2**m and len(ncl.generators) == m and not spins
    assert not set(sifted) & {g.images.tobytes() for g in ncl.generators}


def _frattini_seeds(gens, p):
    """The pairwise commutators, then the p-th powers, of the gens."""
    return [commutator(g, h) for g, h in itertools.combinations(gens, 2)] + [g**p for g in gens]


SPIN_CASES = [f"{g}{p}{h}" for p, h in [(2, 2), (3, 1), (5, 1), (2, 3)] for g in ("small", "big")]
SPIN_CASES += [f"C2wrC{m}" for m in (3, 4, 6)]


@functools.cache
def _spin_case(name):
    """(generators, seeds, fibre prime) of a closure that takes the spin.

    A family group's generators are the layer vectors and the
    translations (and phi and psi in the big group), and its seeds are
    those of their Frattini closure. In C_2 wr C_m the seed is the swap,
    whose closure is all 2^m translations.
    """
    if name.startswith("C2wrC"):
        gens = _wreath_c2_cm(int(name[5:]), True)
        return gens, gens[:1], 2
    p, h = int(name[-2]), int(name[-1])
    bundle = Bundle(ConstructionParams(p, h))
    gens = [*bundle.layer_gens, *bundle.translation_gens]
    if name.startswith("big"):
        gens += bundle.outer_gens
    return gens, _frattini_seeds(gens, p), p


@pytest.mark.parametrize("name", SPIN_CASES)
def test_spun_closure_matches_one_at_a_time_and_sympy(name, monkeypatch):
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    gens, seeds, r = _spin_case(name)
    spins = count_spins(monkeypatch)
    G = PermGroup(gens)
    ours = normal_closure(G, seeds)
    assert len(spins) == 1 and ours.chain().linear.r == r
    added, chain = normal_closure_one_at_a_time(G, seeds)
    theirs = sympy_comb.PermutationGroup(
        [sympy_comb.Permutation([int(x) for x in g.images]) for g in gens]
    ).normal_closure([sympy_comb.Permutation([int(x) for x in s.images]) for s in seeds])
    assert ours.order() == chain.order() == theirs.order()
    assert all(ours.contains(s) for s in seeds)
    assert all(ours.contains(Perm(x)) for x in added)
    assert ours.chain().verify()


def test_spin_needs_generators_affine_on_the_fibres(monkeypatch):
    # C_5 wr C_2 on the blocks {0..4}, {5..9}: the seed translates the first
    # block, and the rotation of the blocks keeps them. A generator that
    # swaps two points of a block keeps the blocks too but is not affine on
    # F_5, so then the spin does not engage and the closure is the one-at-a-
    # time closure, add by add
    translation = Perm([1, 2, 3, 4, 0, *range(5, 10)])
    rotation = Perm([(x + 5) % 10 for x in range(10)])
    swap = Perm([1, 0, *range(2, 10)])
    for gens, spun in [([translation, rotation], True), ([translation, rotation, swap], False)]:
        spins = count_spins(monkeypatch)
        G = PermGroup(gens)
        ours = normal_closure(G, [translation])
        added, chain = normal_closure_one_at_a_time(G, [translation])
        assert bool(spins) == spun and ours.order() == chain.order()
        if spun:
            assert ours.order() == 25  # both blocks' translations
        else:  # the 5-cycle's closure in S_5 wr C_2 is A_5 x A_5
            assert ours.order() == 60 * 60
            assert [g.images.tolist() for g in ours.generators] == [x.tolist() for x in added]
            assert _chain_levels(ours.chain()) == _chain_levels(chain)


@pytest.mark.parametrize("name", ["small22", "big23", "C2wrC6"])
def test_spun_closure_order_cap(name, monkeypatch):
    # the cap fires at |Phi| - 1 and not at |Phi|; the closure of the swap in
    # C_2 wr C_6 is all translations, so its cap fires inside the spin
    gens, seeds, _ = _spin_case(name)
    order = normal_closure(PermGroup(gens), seeds).order()
    spun = []
    spin = perm_group._Shifts.spin

    def recorded(lin, *args):
        spun.append("in")
        spin(lin, *args)
        spun.append("out")

    monkeypatch.setattr(perm_group._Shifts, "spin", recorded)
    with pytest.raises(CapExceeded) as exc:
        normal_closure(PermGroup(gens, caps=Caps(order_cap=order - 1)), seeds)
    assert exc.value.cap_name == "order"
    if name == "C2wrC6":
        assert spun == ["in"]
    assert normal_closure(PermGroup(gens, caps=Caps(order_cap=order)), seeds).order() == order


def test_contains_rejects_outsider():
    G = PermGroup([cycle(5)])
    assert not G.contains(Perm([0, 4, 3, 2, 1]))


def test_generated():
    G = PermGroup([Perm([1, 0, 2])], degree=3)
    assert G.order() == 2


# -- exponent ----------------------------------------------------------------


def test_exponent_examples():
    klein = PermGroup([Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2])])
    assert exponent(klein) == 2
    assert exponent(dihedral_c5()) == 10
    s3 = PermGroup([Perm([1, 0, 2]), Perm([1, 2, 0])])
    assert exponent(s3) == 6
    # intransitive: every orbit's cycles count
    assert exponent(PermGroup([Perm([1, 2, 0, 4, 3])])) == 6  # (0 1 2)(3 4)
    # (0 1 2 3) and (4 5 6) on 8 points, 7 fixed
    assert exponent(PermGroup([Perm([1, 2, 3, 0, 4, 5, 6, 7]), Perm([0, 1, 2, 3, 5, 6, 4, 7])])) == 12
    assert exponent(PermGroup([Perm([1, 2, 3, 0, 5, 4])])) == 4  # (0 1 2 3)(4 5)
    assert exponent(PermGroup([], degree=0)) == 1


def test_exponent_matches_table_oracle():
    for G in (dihedral_c5(), PermGroup([cycle(6)]), PermGroup([Perm([1, 0, 2]), Perm([1, 2, 0])])):
        assert exponent(G) == exponent_by_table(G)


def test_exponent_cap():
    G = PermGroup([cycle(12)], caps=Caps(exponent_cap=5))
    with pytest.raises(CapExceeded) as exc:
        exponent(G)
    assert exc.value.cap_name == "exponent"


# -- frattini rank -----------------------------------------------------------


def test_frattini_rank_elementary_abelian():
    E8 = PermGroup(
        [Perm([1, 0, 2, 3, 4, 5]), Perm([0, 1, 3, 2, 4, 5]), Perm([0, 1, 2, 3, 5, 4])]
    )
    assert frattini_rank(E8, 2) == 3


def test_frattini_rank_cyclic():
    assert frattini_rank(PermGroup([cycle(4)]), 2) == 1
    assert frattini_rank(PermGroup([cycle(9)]), 3) == 1


def test_frattini_rank_quaternion():
    # regular representation of the quaternion group; rank must be 2
    i = Perm([2, 3, 1, 0, 7, 6, 4, 5])
    j = Perm([4, 5, 6, 7, 1, 0, 3, 2])
    Q8 = PermGroup([i, j])
    assert Q8.order() == 8
    assert exponent(Q8) == 4
    assert frattini_rank(Q8, 2) == 2


def test_frattini_rank_from_other_generating_sets():
    r, s = cycle(4), Perm([0, 3, 2, 1])
    assert frattini_rank(PermGroup([r * s, s]), 2) == 2
    assert frattini_rank(PermGroup([r, s, r * s, r**2]), 2) == 2


def test_frattini_rank_rejects_an_extension_that_falls_short(monkeypatch):
    # the extension of Phi's chain by the generators must reach |G|; with
    # its prime steps dropped it stops short, and the rank is refused
    E8 = PermGroup(
        [Perm([1, 0, 2, 3, 4, 5]), Perm([0, 1, 3, 2, 4, 5]), Perm([0, 1, 2, 3, 5, 4])]
    )
    D8 = PermGroup([cycle(4), Perm([0, 3, 2, 1])])
    closure = perm_group.normal_closure
    for G in (E8, D8):
        with monkeypatch.context() as m:

            def closure_then_no_steps(H, seeds):
                phi = closure(H, seeds)
                m.setattr(StabChain, "_extend_level", lambda chain, residue, level, p: None)
                return phi

            m.setattr(perm_group, "normal_closure", closure_then_no_steps)
            with pytest.raises(AssertionError, match="do not generate"):
                frattini_rank(G, 2)
        assert frattini_rank(G, 2) == len(G.generators)


def test_frattini_rank_rejects_non_p_group():
    with pytest.raises(ValueError, match="only for p-groups"):
        frattini_rank(dihedral_c5(), 2)


@pytest.mark.parametrize("p", [1, 0, 4])
def test_frattini_rank_rejects_a_p_that_is_not_prime(p):
    # p = 1 once looped for good in the p-group test, p = 0 divided by zero,
    # and p = 4 on the Klein four-group failed an internal assertion
    V4 = PermGroup([Perm([1, 0, 3, 2]), Perm([2, 3, 0, 1])])
    with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
        frattini_rank(V4, p)


def test_frattini_rank_matches_brute_force_on_small_groups():
    i = Perm([2, 3, 1, 0, 7, 6, 4, 5])
    j = Perm([4, 5, 6, 7, 1, 0, 3, 2])
    groups = [
        PermGroup([cycle(4)]),
        PermGroup([cycle(8)]),
        PermGroup([Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2])]),
        PermGroup([i, j]),
        PermGroup([cycle(4), Perm([0, 3, 2, 1])]),  # dihedral of order 8
    ]
    for G in groups:
        assert frattini_rank(G, 2) == brute_force_min_generators(G)


def test_commutator_identity():
    g = cycle(5)
    h = Perm([0, 4, 3, 2, 1])
    assert commutator(g, g).is_identity()
    assert commutator(g, h) == g.inverse() * h.inverse() * g * h


def test_orders_against_sympy_on_random_groups():
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(20240812)
    for trial in range(15):
        n = rng.randrange(4, 10)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(images)
        ours = PermGroup([Perm(g) for g in gens])
        theirs = sympy_comb.PermutationGroup(
            [sympy_comb.Permutation(g) for g in gens]
        )
        assert ours.order() == theirs.order(), gens
        v = rng.randrange(n)
        assert ours.stabilizer(v).order() == theirs.stabilizer(v).order()


# -- chunked Schreier-Sims against sympy -------------------------------------


def _symmetric(n):
    return [Perm([1, 0] + list(range(2, n))), cycle(n)]


def _alternating(n):
    three = Perm([1, 2, 0] + list(range(3, n)))
    if n % 2:
        return [three, cycle(n)]
    return [three, Perm([0] + list(range(2, n)) + [1])]


def _wreath_perm(rng, block, blocks):
    # a random element of S_block wr S_blocks on block * blocks points
    top = list(range(blocks))
    rng.shuffle(top)
    images = []
    for i in range(blocks):
        inner = list(range(block))
        rng.shuffle(inner)
        images += [block * top[i] + j for j in inner]
    return images


def _random_s12_subgroups():
    rng = random.Random(1212)
    groups = []
    for _ in range(2):
        gens = []
        for _ in range(2):
            images = list(range(12))
            rng.shuffle(images)
            gens.append(Perm(images))
        groups.append(gens)
    for block, blocks in ((3, 4), (4, 3), (2, 6)):
        conj = list(range(12))
        rng.shuffle(conj)
        sigma = Perm(conj)
        groups.append(
            [sigma.inverse() * Perm(_wreath_perm(rng, block, blocks)) * sigma for _ in range(3)]
        )
    for _ in range(2):
        left, right = list(range(5)), list(range(5, 12))
        gens = []
        for _ in range(2):
            rng.shuffle(left)
            rng.shuffle(right)
            gens.append(Perm(left + right))
        groups.append(gens)
    return groups


DUAL_ROUTE_GROUPS = (
    [(f"S{n}", _symmetric(n)) for n in range(6, 10)]
    + [(f"A{n}", _alternating(n)) for n in range(6, 10)]
    + [("C2wrC4", [Perm([1, 0, 2, 3, 4, 5, 6, 7]), Perm([(x + 2) % 8 for x in range(8)])])]
    + [(f"S12-sub{k}", gens) for k, gens in enumerate(_random_s12_subgroups())]
)


def _chain_shape(chain):
    return (
        chain.base(),
        [list(lv.points) for lv in chain.levels],
        [[a.tobytes() for a in lv.gens] for lv in chain.levels],
        _linear_level(chain),
    )


@pytest.mark.parametrize("gens", [g for _, g in DUAL_ROUTE_GROUPS],
                         ids=[name for name, _ in DUAL_ROUTE_GROUPS])
def test_chunked_chain_against_sympy(gens):
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    n = gens[0].degree
    theirs = sympy_comb.PermutationGroup(
        [sympy_comb.Permutation([int(x) for x in g.images]) for g in gens]
    )
    G = PermGroup(gens)
    assert G.order() == theirs.order()
    chain = G.chain()
    assert chain.verify()
    # strong generators beyond the inputs were installed
    assert sum(len(lv.gens) for lv in chain.levels) > len(gens)
    for v in (0, n // 2, n - 1):
        assert G.stabilizer(v).order() == theirs.stabilizer(v).order()
    rng = random.Random(n * 7919 + len(gens))
    for _ in range(10):
        word = Perm.identity(n)
        for _ in range(rng.randrange(1, 15)):
            word = word * rng.choice(gens)
        assert theirs.contains(sympy_comb.Permutation([int(x) for x in word.images]))
        assert G.contains(word)
    for _ in range(10):
        images = list(range(n))
        rng.shuffle(images)
        expected = theirs.contains(sympy_comb.Permutation(images))
        assert G.contains(Perm(images)) == expected
    assert _chain_shape(G.fresh_chain()) == _chain_shape(G.fresh_chain())


def test_chunk_residues_after_the_first_are_deferred(monkeypatch):
    # S_8 installs residues that a chunk finds after its first row, and
    # chunks whose later rows leave residues too; those rows are sifted
    # again by a later chunk, and the chain still verifies.
    calls = []
    sift_rows = StabChain._sift_rows

    def recorded(self, g, start):
        out = sift_rows(self, g, start)
        calls.append(({row.tobytes() for row in g}, list(out[0]), [r.tobytes() for r in out[2]]))
        return out

    monkeypatch.setattr(StabChain, "_sift_rows", recorded)
    G = PermGroup(_symmetric(8))
    assert G.order() == math.factorial(8)
    assert any(rows and rows[0] > 0 for _, rows, _ in calls)
    resifted = [
        any(set(residues[1:]) <= later for later, _, _ in calls[k + 1:])
        for k, (_, _, residues) in enumerate(calls)
        if len(residues) > 1
    ]
    assert resifted and all(resifted)
    assert G.chain().verify()


# -- prime-index extensions by normalizing generators ------------------------


def refuse_closure(monkeypatch):
    def closing(self, i):
        raise AssertionError("Schreier-Sims closure ran")

    monkeypatch.setattr(StabChain, "_close_level", closing)


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (5, 1), (2, 3), (3, 2)])
def test_family_chains_take_prime_steps_only(monkeypatch, p, h):
    bundle = Bundle(ConstructionParams(p, h, Caps(order_cap=2**2000)))
    q, n = p**h, bundle.graph.n
    small = p ** (q * (q + 1) // 2) * q * q
    refuse_closure(monkeypatch)
    for G, order in ((bundle.small_group, small), (bundle.big_group, 4 * small)):
        for prefix in ((), (0,)):
            chain = G.fresh_chain(base_prefix=prefix)
            assert chain.order() == order
            assert chain.verify()
        assert G.stabilizer(0).order() == order // n


def assert_chain_matches_sympy(chain, gens, seed, fibre_blocks=None):
    """Order, member words and random permutations by both routes; returns sympy's group.

    With fibre_blocks r, each word times a random translation of the
    blocks of r points, which reaches Λ, is tested too.
    """
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    theirs = sympy_comb.PermutationGroup(
        [sympy_comb.Permutation([int(x) for x in g.images]) for g in gens]
    )
    assert chain.order() == theirs.order()
    assert chain.verify()
    n, rng = gens[0].degree, random.Random(seed)
    for _ in range(10):
        word = Perm.identity(n)
        for _ in range(rng.randrange(1, 15)):
            word = word * rng.choice(gens)
        assert chain.contains(word.images)
        images = list(range(n))
        rng.shuffle(images)
        expected = theirs.contains(sympy_comb.Permutation(images))
        assert chain.contains(Perm(images).images) == expected
        if fibre_blocks:
            r, points = fibre_blocks, np.arange(n)
            shift = np.repeat([rng.randrange(r) for _ in range(n // r)], r)
            x = word * Perm(points - points % r + (points + shift) % r)
            expected = theirs.contains(sympy_comb.Permutation(x.images.tolist()))
            assert chain.contains(x.images) == expected
    return theirs


def test_composite_relative_orders_against_sympy(monkeypatch):
    bundle = Bundle(ConstructionParams(2, 2))
    a = bundle.translation_gens[0]
    refuse_closure(monkeypatch)
    # an 8-cycle of order 8 over the trivial group; a of order 4 over M
    for seed, gens in enumerate(([cycle(8)], [*bundle.module_gens, a])):
        chain = StabChain(gens[0].degree, [g.images for g in gens])
        assert_chain_matches_sympy(chain, gens, seed)
    assert StabChain(8, [cycle(8).images]).levels[0].points == [0, 4, 2, 6, 1, 5, 3, 7]


@pytest.mark.parametrize(
    "gens",
    [
        # (0 1 2) then a 5-cycle that does not normalize it: A5; then (0 1): S5
        [Perm([1, 2, 0, 3, 4]), cycle(5), Perm([1, 0, 2, 3, 4])],
        # S4 on {0..3} and on {4..7} at once, then the swap of the halves
        [Perm([1, 0, 2, 3, 5, 4, 6, 7]), Perm([1, 2, 3, 0, 5, 6, 7, 4]),
         Perm([4, 5, 6, 7, 0, 1, 2, 3])],
        # C2 wr C4, then a reflection of the 8-cycle's blocks
        [Perm([1, 0, 2, 3, 4, 5, 6, 7]), Perm([(x + 2) % 8 for x in range(8)]),
         Perm([0, 1, 6, 7, 4, 5, 2, 3])],
    ],
    ids=["A5-then-S5", "S4-diagonal-then-swap", "C2wrC4-then-reflection"],
)
def test_fallback_then_prime_steps_against_sympy(monkeypatch, gens):
    closures = []
    close_level = StabChain._close_level

    def counted(self, i):
        closures.append(i)
        close_level(self, i)

    monkeypatch.setattr(StabChain, "_close_level", counted)
    chain = StabChain(gens[0].degree, [g.images for g in gens[:-1]])
    assert closures  # the second generator does not normalize the first
    assert not chain.contains(gens[-1].images)
    refuse_closure(monkeypatch)
    assert chain.add_generator(gens[-1].images)
    assert_chain_matches_sympy(chain, gens, len(gens[0].images))


# -- breadth-first walks and the exponent against queue references ------------


def assert_walks_match_queues(graph, G, points, arcs):
    for v in points:
        for reverse in (False, True):
            ref = transversal_by_queue(G, v, reverse)
            ours = G.transversal(v, list(ref), reverse=reverse)
            assert len(ours) == len(ref)
            assert all(np.array_equal(u.images, ref[x]) for u, x in zip(ours, ref))
        assert G.orbit(v) == sorted(ref)
    for arc in arcs:
        assert arc_orbit_size(graph, G, arc) == arc_orbit_size_by_queue(graph, G, arc)


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (2, 3)])
def test_family_walks_match_queue_references(p, h):
    bundle = Bundle(ConstructionParams(p, h))
    graph = bundle.graph
    mid = graph.n // 2
    arcs = [(0, w) for w in graph.neighbors(0)] + [(mid, graph.neighbors(mid)[-1])]
    for G in (bundle.small_group, bundle.big_group):
        assert_walks_match_queues(graph, G, (0, mid, graph.n - 1), arcs)


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (5, 1), (2, 3), (3, 2)])
def test_family_arc_orbits_match_queue_reference(p, h):
    # one arc into each of the 4 neighbour blocks of p copies, at 0 and at one other vertex
    bundle = Bundle(ConstructionParams(p, h))
    graph = bundle.graph
    arcs = []
    for u in (0, graph.n // 3 + 1):
        nbrs = graph.neighbors(u)
        assert len(nbrs) == 4 * p
        arcs += [(u, int(nbrs[k * p + k % p])) for k in range(4)]
    for G in (bundle.small_group, bundle.big_group):
        for arc in arcs:
            assert arc_orbit_size(graph, G, arc) == arc_orbit_size_by_queue(graph, G, arc)


def test_arc_orbits_of_a_group_that_is_not_vertex_transitive():
    # two disjoint 5-cycles; the groups move only the first, or reflect the second too
    graph = Graph(10, [(c + i, c + (i + 1) % 5) for c in (0, 5) for i in range(5)])
    rotate = Perm([1, 2, 3, 4, 0, 5, 6, 7, 8, 9])
    reflect = Perm([0, 1, 2, 3, 4, 5, 9, 8, 7, 6])
    arcs = [(0, 1), (1, 0), (4, 0), (5, 6), (6, 5), (7, 8), (9, 5)]
    for G, sizes in ((PermGroup([rotate]), [5, 5, 5, 1, 1, 1, 1]),
                     (PermGroup([rotate, reflect]), [5, 5, 5, 2, 2, 2, 2])):
        assert not is_vertex_transitive(graph, G)
        for arc, size in zip(arcs, sizes):
            assert arc_orbit_size(graph, G, arc) == size == arc_orbit_size_by_queue(graph, G, arc)


def test_arc_orbit_of_the_trivial_group():
    graph = c5_graph()
    for arc in [(0, 1), (3, 2)]:
        assert arc_orbit_size(graph, PermGroup.trivial(5), arc) == 1
    assert arc_orbit_size(graph, PermGroup([Perm.identity(5)]), (0, 4)) == 1


def test_arc_orbit_stops_once_the_stabilizer_covers_the_neighbourhood(monkeypatch):
    # each block of BFS_BATCH // d orbit vertices reads its Schreier rows
    # with one searchsorted of a 3-D query (generators x vertices x neighbours)
    blocks = []
    searchsorted = np.searchsorted

    def counted(a, v, *args, **kwargs):
        blocks.extend([1] if np.ndim(v) == 3 else [])
        return searchsorted(a, v, *args, **kwargs)

    bundle = Bundle(ConstructionParams(2, 4))
    graph = bundle.graph
    n_blocks = -(-graph.n // (perm_group.BFS_BATCH // graph.valency()))
    assert n_blocks > 1
    for G in (bundle.big_group, bundle.small_group):  # automorphism checks first
        is_vertex_transitive(graph, G)
    monkeypatch.setattr(np, "searchsorted", counted)
    assert arc_orbit_size(graph, bundle.big_group) == 2 * graph.m
    assert 0 < len(blocks) < n_blocks
    blocks.clear()
    # the small group's stabilizer has 4 orbits on N(0): every block is read
    assert arc_orbit_size(graph, bundle.small_group) == 2 * graph.m // 4
    assert len(blocks) == n_blocks


@pytest.mark.parametrize("gens", [g for _, g in DUAL_ROUTE_GROUPS],
                         ids=[name for name, _ in DUAL_ROUTE_GROUPS])
def test_dual_route_walks_match_queue_references(gens):
    # every permutation is an automorphism of the complete graph
    n = gens[0].degree
    complete = Graph(n, [(u, w) for u in range(n) for w in range(u + 1, n)])
    arcs = [(0, 1), (n - 1, 0), (n // 2, 1)]
    assert_walks_match_queues(complete, PermGroup(gens), (0, n // 2, n - 1), arcs)


SMALL_DUAL_ROUTE_GROUPS = [
    (name, gens) for name, gens in DUAL_ROUTE_GROUPS if PermGroup(gens).order() <= 2**16
]


@pytest.mark.parametrize("gens", [g for _, g in SMALL_DUAL_ROUTE_GROUPS],
                         ids=[name for name, _ in SMALL_DUAL_ROUTE_GROUPS])
def test_exponent_matches_element_orders(gens):
    G = PermGroup(gens)
    assert any(not commutator(g, h).is_identity() for g in gens for h in gens)
    assert exponent(G) == math.lcm(*(Perm(x).order() for x in enumerate_elements(G)))


def regular_cyclic(n):
    return PermGroup([cycle(n)])


def dihedral(n):
    return PermGroup([cycle(n), Perm([(-i) % n for i in range(n)])])


@pytest.mark.parametrize("make", [regular_cyclic, dihedral])
@pytest.mark.parametrize("n", [64, 1100])
def test_exponent_matches_element_orders_on_cycles(make, n):
    G = make(n)
    if n > perm_group.EXPONENT_BLOCK:  # the first level's orbit is longer than a block
        assert len(G.chain().levels[0].points) > perm_group.EXPONENT_BLOCK
    assert exponent(G) == math.lcm(*(Perm(x).order() for x in enumerate_elements(G)))


@pytest.mark.parametrize("make", [regular_cyclic, dihedral])
def test_exponent_kernel_calls_stay_within_the_block(make, monkeypatch):
    calls = []
    walk = perm_group._return_times

    def counted(block, tops, starts):
        calls.append((block.shape, tops.shape, len(starts)))
        return walk(block, tops, starts)

    monkeypatch.setattr(perm_group, "_return_times", counted)
    # S8 has a 720-row block, so its walks, not its top images, bound a chunk
    S7, S8 = PermGroup(_symmetric(7)), PermGroup(_symmetric(8))
    for G, e in ((make(1100), 1100), (S7, 420), (S8, 840)):
        assert exponent(G) == e
        assert calls, "exponent must walk its chunks"
        bound = perm_group.EXPONENT_BLOCK * G.degree
        for (m, n), (k, _), starts in calls:
            assert n == G.degree and m <= perm_group.EXPONENT_BLOCK
            assert k * n <= bound and k * m * starts <= m * n
        # every element is walked once
        assert sum(m * k for (m, _), (k, _), _ in calls) == G.order()
        calls.clear()
    # the first level's orbit is longer than a block, so its products are stacked
    exponent(make(1100))
    assert all(k > 1 for _, (k, _), _ in calls)


def test_exponent_walks_one_orbit_per_moved_base_point(monkeypatch):
    starts = []
    walk = perm_group._return_times
    monkeypatch.setattr(perm_group, "_return_times",
                        lambda block, tops, s: starts.append(s.tolist()) or walk(block, tops, s))
    # 4095 orbits, only one of them holding a moved base point
    assert exponent(PermGroup([Perm([1, 0] + list(range(2, 4096)))])) == 2
    assert starts and all(s == [0] for s in starts)
    starts.clear()
    # every base of S7 lies in one orbit
    S7 = PermGroup(_symmetric(7))
    assert exponent(S7) == 420 and len(S7.chain().levels) > 1
    assert starts and all(s == [S7.chain().levels[0].base] for s in starts)
    starts.clear()
    # (0 1)(2 3 4): the moved bases 0 and 2 lie in two orbits
    G = PermGroup([Perm([1, 0, 3, 4, 2, 5])])
    assert exponent(G) == 6 and G.chain().base() == [0, 2]
    assert starts and all(s == [0, 2] for s in starts)


def test_exponent_matches_element_orders_on_random_intransitive_groups():
    rng = random.Random(20)
    for _ in range(30):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        cuts = list(itertools.accumulate(sizes, initial=0))
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = []
            for lo, hi in zip(cuts, cuts[1:]):  # a random permutation of each block
                images += rng.sample(range(lo, hi), hi - lo)
            gens.append(Perm(images))
        G = PermGroup(gens)
        assert len(G.orbits()) > 1
        orders = (math.lcm(*(len(c) for c in Perm(x).cycles())) for x in enumerate_elements(G))
        assert exponent(G) == math.lcm(*orders)


def test_bfs_matches_queue_reference():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 300)
        arrs = np.array([rng.sample(range(n), n) for _ in range(rng.randrange(1, 4))])
        starts = [rng.randrange(n) for _ in range(rng.randrange(1, 4))]
        points, edges = perm_group._bfs(arrs, starts)
        assert (points.tolist(), edges.tolist()) == bfs_by_queue(arrs, starts, n)
    arrs = dihedral(16384)._images()
    points, edges = perm_group._bfs(arrs, 0)
    assert (points.tolist(), edges.tolist()) == bfs_by_queue(arrs, [0], 16384)


def test_exponent_blocks(monkeypatch):
    S8 = PermGroup(_symmetric(8))
    assert S8.order() > perm_group.EXPONENT_BLOCK  # more than one block
    assert exponent(S8) == 840
    assert exponent(PermGroup.trivial(5)) == 1
    assert exponent(PermGroup([Perm.identity(4)])) == 1
    # a block too small for any level: every level is walked on top
    monkeypatch.setattr(perm_group, "EXPONENT_BLOCK", 1)
    assert exponent(PermGroup(_symmetric(6))) == 60
    assert exponent(dihedral_c5()) == 10


def test_orbits_of_a_transposition_on_8192_points():
    orbits = PermGroup([Perm([1, 0] + list(range(2, 8192)))]).orbits()
    assert len(orbits) == 8191
    assert orbits[0] == [0, 1] and orbits[1:] == [[x] for x in range(2, 8192)]
    assert PermGroup.trivial(0).orbits() == [] and PermGroup.trivial(3).orbits() == [[0], [1], [2]]


def test_orbits_match_orbit_walks_on_random_groups():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randrange(1, 60)
        gens = []
        for _ in range(rng.randrange(0, 3)):
            # a random permutation of a random part, to leave several orbits
            part = rng.sample(range(n), rng.randrange(0, n + 1))
            images = list(range(n))
            for x, y in zip(part, rng.sample(part, len(part))):
                images[x] = y
            gens.append(Perm(images))
        G = PermGroup(gens, degree=n)
        assert G.orbits() == orbits_by_queue(G)
        assert all(G.orbit(o[-1]) == o for o in G.orbits())


def test_orbits_match_split_reference_on_random_groups():
    # the lists are slices of one sorted order, as np.split cuts it
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        gens = []
        for _ in range(int(rng.integers(0, 3))):
            images = np.arange(n)
            part = rng.choice(n, int(rng.integers(0, n + 1)), replace=False)
            images[part] = rng.permutation(part)
            gens.append(Perm(images))
        G = PermGroup(gens, degree=n)
        label = G._labels()
        order = np.argsort(label, kind="stable")
        cuts = np.flatnonzero(np.diff(label[order])) + 1
        assert G.orbits() == [part.tolist() for part in np.split(order, cuts)]


@pytest.mark.parametrize("p, h", [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_family_orbits_match_queue_walks(p, h):
    # both groups are transitive; the small group's G_0 has many orbits
    bundle = Bundle(ConstructionParams(p, h, Caps(order_cap=2**2000)))
    small = bundle.small_group
    for G in (small, bundle.big_group, small.stabilizer(0)):
        assert G.orbits() == orbits_by_queue(G)
    assert len(small.stabilizer(0).orbits()) > 1


def test_labeller_rounds_on_adversarial_numberings(monkeypatch):
    # the bound is 2 log2 n + 2 rounds; min-label hooking, not star
    # hooking, takes log2 n on the bit-reversed cycle and 2 on the path
    # numbered from both ends
    rounds = []
    label = perm_group._label

    def counted(*args):
        labels, count = label(*args)
        rounds.append(count)
        return labels, count

    monkeypatch.setattr(perm_group, "_label", counted)
    bits = 12
    n = 2**bits
    cyc = bit_reversal(bits)
    images = list(range(n))
    for i in range(n):  # the cycle cyc[0] -> cyc[1] -> ... -> cyc[-1] -> cyc[0]
        images[cyc[i]] = cyc[(i + 1) % n]
    path = from_both_ends(n)
    swaps = [list(range(n)), list(range(n))]
    for i in range(n - 1):  # swaps[i % 2] exchanges the path's neighbours i and i + 1
        a, b = path[i], path[i + 1]
        swaps[i % 2][a], swaps[i % 2][b] = b, a
    for gens in ([Perm(images)], [Perm(s) for s in swaps]):
        assert PermGroup(gens).orbits() == [list(range(n))]
    assert max(rounds) <= 2 * bits + 2 and rounds == [bits, 2]


# -- Λ, the linear level of fibre translations ----------------------------------


def _wreath_c2_cm(m, swap_first):
    """C_2 wr C_m on 2m points: the swap of block {0, 1} and the rotation of the blocks."""
    swap = Perm([1, 0] + list(range(2, 2 * m)))
    rotation = Perm([(x + 2) % (2 * m) for x in range(2 * m)])
    return [swap, rotation] if swap_first else [rotation, swap]


def _block_reflection(m):
    """The reflection k -> -k of the blocks {2k, 2k + 1} of C_2 wr C_m."""
    return Perm([2 * (-(x // 2) % m) + x % 2 for x in range(2 * m)])


def assert_group_matches_sympy(G, seed, fibre_blocks):
    """assert_chain_matches_sympy on G's chain, and three stabilizer orders."""
    theirs = assert_chain_matches_sympy(G.chain(), G.generators, seed, fibre_blocks)
    for v in (0, G.degree // 2, G.degree - 1):  # |G_v| = |G| / |v^G|, by sympy's order and orbit
        assert G.stabilizer(v).order() == theirs.order() // len(theirs.orbit(v))


@pytest.mark.parametrize("p, h, big", [(2, 3, False), (2, 3, True), (3, 2, True)])
def test_family_linear_level_against_sympy(p, h, big):
    # the groups the layer generators give: orders 2^42, 2^44 and 4 * 3^49
    bundle = Bundle(ConstructionParams(p, h, Caps(order_cap=2**2000)))
    gens = [*bundle.layer_gens, *bundle.translation_gens, *(bundle.outer_gens if big else ())]
    G = PermGroup(gens, caps=bundle.params.caps)
    chain = G.chain()
    # one level of orbit n (and one of orbit 4p in the big group), then Λ
    assert [len(lv.points) for lv in chain.levels] == [G.degree] + ([4 * p] if big else [])
    assert chain.linear.r == p and chain.order() == G.degree * (4 * p if big else 1) * p**chain.linear.rank
    assert_group_matches_sympy(G, p * 100 + h, fibre_blocks=p)


def count_splits(monkeypatch):
    """The rows each split cut out of Λ (None when Λ was already 0 on the block)."""
    cuts = []
    cut = perm_group._Shifts.cut

    def recorded(lin, k):
        u = cut(lin, k)
        cuts.append(u)
        return u

    monkeypatch.setattr(perm_group._Shifts, "cut", recorded)
    return cuts


@pytest.mark.parametrize("swap_first", [True, False])
@pytest.mark.parametrize("m", [3, 5])
def test_wreath_product_opens_and_splits_the_linear_level(monkeypatch, m, swap_first):
    cuts = count_splits(monkeypatch)
    G = PermGroup(_wreath_c2_cm(m, swap_first))
    chain = G.chain()
    # one level of orbit 2m; the stabilizer of 0 is the 2^(m-1) translations
    assert [len(lv.points) for lv in chain.levels] == [2 * m]
    assert (chain.linear.r, chain.linear.rank) == (2, m - 1) and cuts == []
    assert G.order() == 2**m * m
    assert_group_matches_sympy(G, m, fibre_blocks=2)
    assert _chain_shape(G.fresh_chain()) == _chain_shape(G.fresh_chain())
    # the block reflection fixes 0 and is no fibre translation: it reaches
    # Λ and splits it at block 1, whose orbit {2, 3} the reflection doubles
    H = PermGroup([*G.generators, _block_reflection(m)])
    chain = H.chain()
    assert [lv.points for lv in chain.levels][1:] == [[2, 3, 2 * m - 2, 2 * m - 1]]
    assert chain.linear.rank == m - 2 and len(cuts) == 1 and cuts[0] is not None
    assert H.order() == 2**m * 2 * m
    assert_group_matches_sympy(H, m + 1, fibre_blocks=2)


def test_linear_level_takes_fibre_translations_by_both_routes(monkeypatch):
    # the swap-first wreath product installs its translations by Schreier-
    # Sims, one row at a time; the family's module generators arrive as
    # prime steps when added one at a time, and as one chunk of rows when
    # they lead a constructor's generators; a base prefix puts a level
    # above them either way
    inserts = []
    insert = perm_group._Shifts.insert
    monkeypatch.setattr(
        perm_group._Shifts, "insert", lambda lin, v: inserts.append(len(np.atleast_2d(v))) or insert(lin, v)
    )
    assert PermGroup(_wreath_c2_cm(4, True)).order() == 64 and inserts == [1] * 3
    bundle = Bundle(ConstructionParams(2, 2))
    module = [g.images for g in bundle.module_gens]
    for one_at_a_time in (True, False):
        inserts.clear()
        if one_at_a_time:
            chain = _one_at_a_time(bundle.graph.n, module, base_prefix=(0,))
        else:
            chain = StabChain(bundle.graph.n, module, base_prefix=(0,))
        assert chain.levels[0].points == [0, 1] and chain.linear.rank == 9
        assert chain.order() == 2**10 and chain.verify()
        # the chunk holds all 10 module rows; the split at 0 then cuts one
        assert inserts == ([1] * 9 if one_at_a_time else [10])


def _one_at_a_time(degree, gens, caps=DEFAULT_CAPS, base_prefix=()):
    """The chain of the gens added one add_generator at a time."""
    chain = StabChain(degree, caps=caps, base_prefix=base_prefix)
    for g in gens:
        chain.add_generator(g)
    return chain


def _canonical_span(chain):
    """Λ's prime and the canonical reduced rows of its span W."""
    lin = chain.linear
    return lin.r, rref(FpMatrix(lin.rows, lin.r))[0].a.tobytes()


def _block_translations(r, m):
    """The translations by 1 of each block {k*r, ..., k*r + r - 1} of r*m points."""
    return [
        Perm([b * r + (c + (b == k)) % r for b in range(m) for c in range(r)]) for k in range(m)
    ]


def _leading_run_groups():
    """Generator lists that begin with a run of fibre translations, by name.

    The family's groups lead with the q layer rows, which a and b spin to
    M; the `construct` files' groups ("module") lead with all of M.
    """
    groups = {}
    for p, h in [(2, 2), (3, 1), (2, 3), (3, 2)]:
        bundle = Bundle(ConstructionParams(p, h, Caps(order_cap=2**2000)))
        groups[f"small{p}{h}"] = bundle.small_group.generators
        groups[f"big{p}{h}"] = bundle.big_group.generators
        module = [*bundle.module_gens, *bundle.translation_gens]
        groups[f"module-small{p}{h}"] = module
        groups[f"module-big{p}{h}"] = [*module, *bundle.outer_gens]
    # C_2 wr C_4 and C_3 wr S_3: each block's translation, then the blocks moved
    groups["C2wrC4"] = [*_block_translations(2, 4), Perm([(x + 2) % 8 for x in range(8)])]
    groups["C3wrS3"] = [
        *_block_translations(3, 3),
        Perm([(x + 3) % 9 for x in range(9)]),
        Perm([3, 4, 5, 0, 1, 2, 6, 7, 8]),
    ]
    return groups


LEADING_RUN_GROUPS = _leading_run_groups()


@pytest.mark.parametrize("prefix", [(), (0,), (5, 2)])
@pytest.mark.parametrize("name", list(LEADING_RUN_GROUPS))
def test_leading_run_of_fibre_translations_gives_the_one_at_a_time_chain(name, prefix):
    gens = [g.images for g in LEADING_RUN_GROUPS[name]]
    n, caps = len(gens[0]), Caps(order_cap=2**2000)
    ours = StabChain(n, gens, caps=caps, base_prefix=prefix)
    theirs = _one_at_a_time(n, gens, caps, prefix)
    assert ours.order() == theirs.order() and ours.base() == theirs.base()
    assert _canonical_span(ours) == _canonical_span(theirs)
    assert ours.verify() and theirs.verify()


@pytest.mark.parametrize("prefix", [(), (0,)])
@pytest.mark.parametrize("p, h, which", [(2, 2, "module"), (2, 3, "small"), (3, 2, "big")])
def test_order_cap_fires_below_the_order_on_both_routes(p, h, which, prefix):
    # the module alone is one run of translations, so the cap fires inside it
    bundle = Bundle(ConstructionParams(p, h, Caps(order_cap=2**2000)))
    perms = bundle.module_gens if which == "module" else getattr(bundle, f"{which}_group").generators
    gens, n = [g.images for g in perms], bundle.graph.n
    order = StabChain(n, gens, caps=bundle.params.caps).order()
    for build in (StabChain, _one_at_a_time):
        with pytest.raises(CapExceeded) as exc:
            build(n, gens, caps=Caps(order_cap=order - 1), base_prefix=prefix)
        assert exc.value.cap_name == "order"
        assert build(n, gens, caps=Caps(order_cap=order), base_prefix=prefix).order() == order


@pytest.mark.parametrize(
    "gens",
    [
        _wreath_c2_cm(4, True),  # a run of one translation
        [Perm([1, 0, 2, 3, 4, 5]), Perm([1, 2, 0, 3, 4, 5])],  # translations for 2, then for 3
        *(make(n) for make in (_symmetric, _alternating) for n in (6, 9)),
        dihedral(10).generators,
    ],
    ids=["wreath-run-of-one", "two-primes", "S6", "S9", "A6", "A9", "dihedral"],
)
def test_chains_without_a_leading_run_are_built_as_before(gens):
    arrs = [g.images for g in gens]
    for prefix in [(), (1,)]:
        ours = StabChain(len(arrs[0]), arrs, base_prefix=prefix)
        assert _chain_levels(ours) == _chain_levels(_one_at_a_time(len(arrs[0]), arrs, base_prefix=prefix))


def _spin_disabled(monkeypatch):
    """Make every later generator look not affine, so no leading run is spun."""
    monkeypatch.setattr(perm_group._Shifts, "affine", lambda lin, g: None)


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (2, 3), (3, 2)])
def test_layer_led_chain_spins_its_run_to_the_module(p, h, monkeypatch):
    # the q layer rows lead, and a and b are affine on the fibres: W is spun
    # to M before the split, so a and b take prime steps, and the chain has
    # the order of the module-led chain and of sympy
    bundle = Bundle(ConstructionParams(p, h, Caps(order_cap=2**2000)))
    n, caps, q = bundle.graph.n, bundle.params.caps, bundle.params.q
    layer = bundle.small_group.generators
    module = [*bundle.module_gens, *bundle.translation_gens]
    spins = count_spins(monkeypatch)
    runs = []
    process_all = StabChain._process_all
    monkeypatch.setattr(StabChain, "_process_all", lambda c: runs.append(1) or process_all(c))
    ours = StabChain(n, [g.images for g in layer], caps=caps)
    assert spins == [bundle.top_space.dim] and runs == []  # no Schreier-Sims
    theirs = StabChain(n, [g.images for g in module], caps=caps)
    assert ours.order() == theirs.order() == p**bundle.top_space.dim * q * q
    assert ours.verify() and theirs.verify()
    assert_chain_matches_sympy(ours, layer, p * 10 + h, fibre_blocks=p)


@pytest.mark.parametrize("name", ["module-small22", "module-big31", "module-small23", "module-big32"])
def test_module_led_chain_is_the_chain_without_the_spin(name, monkeypatch):
    # the module rows already span M, which a, b, phi and psi keep: the spin
    # adds nothing, and the chain of a `construct` file is built as before
    gens = [g.images for g in LEADING_RUN_GROUPS[name]]
    n, caps = len(gens[0]), Caps(order_cap=2**2000)
    spins = count_spins(monkeypatch)
    ours = _chain_levels(StabChain(n, gens, caps=caps, base_prefix=(0,)))
    assert len(spins) == 1
    _spin_disabled(monkeypatch)
    assert ours == _chain_levels(StabChain(n, gens, caps=caps, base_prefix=(0,)))


def test_later_generators_of_a_spun_run_skip_w_in_their_normality_tests(monkeypatch):
    # a and b keep the spun W = M, so their normality tests conjugate none
    # of W's rows; phi, added once the constructor is done, conjugates them
    bundle = Bundle(ConstructionParams(2, 2))
    conjugated = []
    normalizes = StabChain._normalizes

    def recorded(chain, g):
        lv = chain.levels[0]
        conjugated.append(sum(f for f in lv.fibre[chain._kept :]))
        return normalizes(chain, g)

    monkeypatch.setattr(StabChain, "_normalizes", recorded)
    chain = StabChain(bundle.graph.n, [g.images for g in bundle.small_group.generators])
    assert conjugated == [0, 0] and chain.order() == 2**14
    conjugated.clear()
    assert chain.add_generator(bundle.outer_gens[0].images)
    assert conjugated == [bundle.top_space.dim] and chain.order() == 2**15 and chain.verify()


def _wreath_run(r, m):
    """C_r wr C_m on r*m points: two block translations, then the rotation of the blocks."""
    rotation = Perm([(x + r) % (r * m) for x in range(r * m)])
    return [*_block_translations(r, m)[:2], rotation]


@pytest.mark.parametrize("r, m", [(2, 5), (3, 4), (5, 3)])
def test_affine_later_generators_spin_a_short_run(r, m, monkeypatch):
    # the rotation maps each block's translation to the next block's, so the
    # two translations spin to all m of them
    gens = _wreath_run(r, m)
    spins = count_spins(monkeypatch)
    chain = StabChain(r * m, [g.images for g in gens])
    assert spins == [m] and chain.order() == r**m * m
    assert chain.order() == _one_at_a_time(r * m, [g.images for g in gens]).order()
    assert_chain_matches_sympy(chain, gens, r * m, fibre_blocks=r)


def test_a_later_generator_not_affine_on_the_blocks_stops_the_spin(monkeypatch):
    # C_5 wr C_2 and the swap of two points of the first block: the swap
    # keeps the blocks but is not affine on F_5, so the run is not spun and
    # the chain is the one built with the spin disabled; the group is S_5 wr C_2
    gens = [*_wreath_run(5, 2), Perm([1, 0, *range(2, 10)])]
    arrs = [g.images for g in gens]
    spins = count_spins(monkeypatch)
    chain = StabChain(10, arrs)
    assert spins == [] and chain.order() == 120 * 120 * 2 and chain.verify()
    _spin_disabled(monkeypatch)
    assert _chain_levels(chain) == _chain_levels(StabChain(10, arrs))


@pytest.mark.parametrize("name", ["small24", "C3wrC4", "C2wrC5"])
def test_spun_run_order_cap(name, monkeypatch):
    # the cap fires at |G| - 1 and not at |G|; at |W| - 1 it fires inside
    # the spin, where W is the span the run spins to
    if name.startswith("C"):
        gens = [g.images for g in _wreath_run(int(name[1]), int(name[-1]))]
    else:
        bundle = Bundle(ConstructionParams(2, 4))
        gens = [g.images for g in bundle.small_group.generators]
    n = len(gens[0])
    ranks = count_spins(monkeypatch)
    chain = StabChain(n, gens, caps=Caps(order_cap=2**2000))
    order, span = chain.order(), chain.linear.r ** ranks[0]
    spun = []
    spin = perm_group._Shifts.spin

    def recorded(lin, *args):
        spun.append("in")
        spin(lin, *args)
        spun.append("out")

    monkeypatch.setattr(perm_group._Shifts, "spin", recorded)
    for cap, inside in ((order - 1, False), (span - 1, True)):
        spun.clear()
        with pytest.raises(CapExceeded) as exc:
            StabChain(n, gens, caps=Caps(order_cap=cap))
        assert exc.value.cap_name == "order" and (spun == ["in"]) == inside
    assert StabChain(n, gens, caps=Caps(order_cap=order)).order() == order


def test_spin_fires_the_cap_on_independent_leading_columns(monkeypatch):
    # C4 at (2,4) under the default caps: Λ's rank goes 16, 31, 45 by three
    # insertions, and the fourth round's images have enough distinct
    # leading columns to pass 2^50 before any elimination; rank 45 alone
    # does not pass the cap
    ranks = []
    insert = perm_group._Shifts.insert

    def recorded(lin, v):
        insert(lin, v)
        ranks.append(lin.rank)

    monkeypatch.setattr(perm_group._Shifts, "insert", recorded)
    with pytest.raises(CapExceeded) as exc:
        Bundle(ConstructionParams(2, 4)).small_group.stabilizer(0)
    assert exc.value.cap_name == "order"
    assert ranks == [16, 31, 45] and 2**45 <= DEFAULT_CAPS.order_cap


def test_capped_family_stabilizer_reads_its_module_in_chunks():
    # the small group of the `construct` file at (2,5) under the default
    # caps: the 528 module generators lead, and the cap fires after the
    # first chunk; the whole run's shift rows at once take about 23 MB, and
    # one chunk at a time about 3 MB. C4's own build reads the 32 layer rows
    # and fires inside their spin, in less.
    bundle = Bundle(ConstructionParams(2, 5))
    module = PermGroup([*bundle.module_gens, *bundle.translation_gens], caps=bundle.params.caps)
    assert len(module.generators) == 530 and len(bundle.small_group.generators) == 34
    for G in (module, bundle.small_group):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc:
                G.stabilizer(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.cap_name == "order" and peak < 8 * 2**20


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize(
    "make", [_symmetric, _alternating, lambda n: dihedral(n).generators],
    ids=["symmetric", "alternating", "dihedral"],
)
def test_groups_without_fibre_translation_kernels_never_open_the_linear_level(make, reverse):
    # Λ, once open, stays in the chain, so a chain without it never had it
    for n in range(4, 13):
        gens = list(make(n))
        G = PermGroup(gens[::-1] if reverse else gens)
        assert G.chain().linear is None and G.chain().verify()


@pytest.mark.parametrize("block", [None, 16])
def test_exponent_walks_the_linear_span_in_blocks(monkeypatch, block):
    calls = []
    walk = perm_group._return_times

    def counted(part, tops, starts):
        calls.append((len(part), len(tops)))
        return walk(part, tops, starts)

    monkeypatch.setattr(perm_group, "_return_times", counted)
    if block is not None:
        monkeypatch.setattr(perm_group, "EXPONENT_BLOCK", block)
    G = PermGroup(_wreath_c2_cm(8, False))  # order 2,048, Λ of rank 7
    assert G.order() == 2048 and G.chain().linear.rank == 7
    assert exponent(G) == math.lcm(*(Perm(x).order() for x in enumerate_elements(G))) == 16
    limit = perm_group.EXPONENT_BLOCK
    assert all(m <= limit for m, _ in calls) and sum(m * k for m, k in calls) == 2048
    # Λ's span of 128 fits a default block; blocks of 16 walk it in 8 parts,
    # each under all 16 top products (the transversal of the one level)
    assert calls == ([(128, 16)] if block is None else [(16, 16)] * 8)


def _span(rows, r):
    """Every vector of the F_r span of the rows, as a set of tuples."""
    out = {tuple([0] * rows.shape[1])}
    for row in rows:
        out = {tuple((np.array(v) + c * row) % r) for v in out for c in range(r)}
    return out


@pytest.mark.parametrize("r", [2, 3])
def test_linear_level_inserts_and_cuts_against_brute_force_spans(r):
    rng = np.random.default_rng(r)
    for _ in range(20):
        blocks = int(rng.integers(2, 7))
        lin = perm_group._Shifts(blocks * r, r)
        vectors = rng.integers(0, r, (int(rng.integers(1, 6)), blocks))
        for v in vectors:
            v = lin.reduce(v[None].astype(np.int64))[0]
            if v.any():
                lin.insert(v)
        assert _span(lin.rows, r) == _span(vectors, r)
        assert np.array_equal(lin.rows[:, lin.piv], np.eye(lin.rank, dtype=np.int64))
        before, k = _span(lin.rows, r), int(rng.integers(blocks))
        u = lin.cut(k)
        assert _span(lin.rows, r) == {w for w in before if w[k] == 0}
        assert np.array_equal(lin.rows[:, lin.piv], np.eye(lin.rank, dtype=np.int64))
        if u is None:
            assert all(w[k] == 0 for w in before)
        else:  # the old span is the new one plus the multiples of u
            assert u[k] == 1 and len(before) == r * len(_span(lin.rows, r))
            assert _span(np.vstack([lin.rows, u]), r) == before


@pytest.mark.parametrize("r", [2, 3, 5])
def test_linear_level_inserts_blocks_of_dependent_rows(r):
    # a spin round inserts its reduced images as one block, often with
    # rows that depend on each other; the rows left are eliminated one at
    # a time, scaled to 1 at their first nonzero block
    rng = np.random.default_rng(10 + r)
    for _ in range(20):
        blocks = int(rng.integers(2, 6))
        lin = perm_group._Shifts(blocks * r, r)
        vectors = rng.integers(0, r, (int(rng.integers(1, 7)), blocks))
        for part in np.array_split(vectors, 2):
            part = np.vstack([part, 2 * part[:1] % r, part[:1]]) if len(part) else part
            v = lin.reduce(part.astype(np.int64))
            if v.any():
                lin.insert(v[v.any(axis=1)])
        assert _span(lin.rows, r) == _span(vectors, r)
        assert np.array_equal(lin.rows[:, lin.piv], np.eye(lin.rank, dtype=np.int64))
        assert lin.rank == len(set(lin.piv.tolist()))


def _wreath_element(rng, r, m, move_blocks):
    """A random element of C_r wr S_m on the blocks {k*r, ..., k*r + r - 1}."""
    top = rng.sample(range(m), m) if move_blocks else list(range(m))
    shifts = [rng.randrange(r) for _ in range(m)]
    return Perm([r * top[k] + (c + shifts[k]) % r for k in range(m) for c in range(r)])


@pytest.mark.parametrize("r, m", [(2, 5), (3, 4), (5, 3)])
def test_subgroups_of_wreath_products_against_sympy(r, m):
    # random fibre translations and block permutations, in random order:
    # Λ opens, takes translations by both routes and is split again
    rng = random.Random(r * 10 + m)
    opened = 0
    for trial in range(12):
        gens = [_wreath_element(rng, r, m, rng.random() < 0.4) for _ in range(rng.randrange(2, 5))]
        G = PermGroup(gens)
        assert_group_matches_sympy(G, trial, fibre_blocks=r)
        opened += G.chain().linear is not None
    assert opened


def test_exponent_walks_the_orbits_of_the_linear_pivot_blocks():
    # a rotation of three blocks of {0..5}, and a translation of the blocks
    # {6, 7} and {8, 9} that fixes them: the translation sits in Λ, outside
    # the orbit of the one level's base, and only its walk sees order 2
    rotation = Perm([2, 3, 4, 5, 0, 1, 6, 7, 8, 9])
    translation = Perm([0, 1, 2, 3, 4, 5, 7, 6, 9, 8])
    G = PermGroup([rotation, translation])
    assert G.chain().base() == [0] and G.chain().linear.piv.tolist() == [3]
    assert exponent(G) == 6
