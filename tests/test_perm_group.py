import math
import random
import time

import numpy as np
import pytest

from arcgen import perm_group
from arcgen.caps import DEFAULT_CAPS, CapExceeded, Caps
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
    brute_force_min_generators,
    enumerate_elements,
    exponent_by_table,
    is_automorphism_by_neighbourhoods,
    normal_closure_one_at_a_time,
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


# -- orbits and transitivity -------------------------------------------------


def test_orbit_under_trivial_group():
    G = PermGroup.trivial(4)
    assert G.orbit(2) == [2]


def test_orbit_under_full_cycle():
    G = PermGroup([cycle(6)])
    assert G.orbit(0) == list(range(6))


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


def _chain_levels(chain):
    """Every level's base, orbit, positions, transversal rows and generators."""
    return [
        (lv.base, list(lv.points), lv.pos.tobytes(), lv.inv[: len(lv.points)].tobytes(),
         [g.tobytes() for g in lv.gens])
        for lv in chain.levels
    ]


@pytest.mark.parametrize("first", ["stabilizer", "order"])
@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (2, 3)])
def test_big_chain_extends_the_small_chain(monkeypatch, p, h, first):
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
    assert _chain_levels(ours) == _chain_levels(fresh)


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
    reps = G.transversal(0)
    assert sorted(reps) == list(range(5))
    for point, g in reps.items():
        assert g(0) == point


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


def test_normal_closure_transposition_s4():
    S4 = PermGroup([Perm([1, 0, 2, 3]), cycle(4)])
    ncl = normal_closure(S4, [Perm([1, 0, 2, 3])])
    assert ncl.order() == 24
    assert len(enumerate_elements(ncl)) == 24


@pytest.mark.parametrize("seed", range(8))
def test_normal_closure_matches_one_at_a_time(seed):
    # the batched closure makes the same add decisions as trying every
    # seed and conjugate on its own, in the same order
    rng = random.Random(seed)
    n = rng.randrange(5, 10)
    if seed % 2:  # C_2 wr C_m on 2m points: the closure of a swap adds m times
        m = n // 2
        swap = Perm([1, 0] + list(range(2, 2 * m)))
        gens = [swap, Perm([(i + 2) % (2 * m) for i in range(2 * m)])]
    else:
        gens = [Perm(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 4))]
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
    assert [g.images.tolist() for g in ours.generators] == [x.tolist() for x in added]
    assert all(ours.contains(s) for s in seeds)


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


def test_frattini_rank_from_given_generators():
    D8 = PermGroup([cycle(4), Perm([0, 3, 2, 1])])
    r, s = D8.generators
    assert frattini_rank(D8, 2, [r * s, s]) == 2
    assert frattini_rank(D8, 2, [r, s, r * s, r**2]) == 2


def test_frattini_rank_rejects_generators_of_a_proper_subgroup():
    E8 = PermGroup(
        [Perm([1, 0, 2, 3, 4, 5]), Perm([0, 1, 3, 2, 4, 5]), Perm([0, 1, 2, 3, 5, 4])]
    )
    with pytest.raises(AssertionError, match="do not generate"):
        frattini_rank(E8, 2, E8.generators[:2])
    D8 = PermGroup([cycle(4), Perm([0, 3, 2, 1])])
    with pytest.raises(AssertionError, match="do not generate"):
        frattini_rank(D8, 2, [cycle(4)])


def test_frattini_rank_rejects_generators_outside_the_group():
    with pytest.raises(ValueError, match="does not lie"):
        frattini_rank(PermGroup([cycle(4)]), 2, [Perm([1, 0, 2, 3])])


def test_frattini_rank_rejects_non_p_group():
    with pytest.raises(ValueError, match="only for p-groups"):
        frattini_rank(dihedral_c5(), 2)


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


def assert_chain_matches_sympy(chain, gens, seed):
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
            ours = G.transversal(v, reverse=reverse)
            ref = transversal_by_queue(G, v, reverse)
            assert list(ours) == list(ref)
            assert all(np.array_equal(ours[x].images, ref[x]) for x in ref)
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


def test_exponent_blocks(monkeypatch):
    S8 = PermGroup(_symmetric(8))
    assert S8.order() > perm_group.EXPONENT_BLOCK  # more than one block
    assert exponent(S8) == 840
    assert exponent(PermGroup.trivial(5)) == 1
    assert exponent(PermGroup([Perm.identity(4)])) == 1
    # a block of one level only, longer than the block size
    monkeypatch.setattr(perm_group, "EXPONENT_BLOCK", 1)
    assert exponent(PermGroup(_symmetric(6))) == 60
    assert exponent(dihedral_c5()) == 10
