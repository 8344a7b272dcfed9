import math
import time
import tracemalloc

import pytest

from arcgen import harness
from arcgen.caps import CapExceeded, Caps
from arcgen.graph_builder import Graph
from arcgen.group_algebra import AbelianH
from arcgen.harness import (
    InstanceParseError,
    VTInstance,
    bound_report,
    connection_generators,
    load_instance,
    verify_connection_subgroup,
)
from arcgen.perm_group import Perm, PermGroup, exponent
from arcgen.pipeline import ConstructionParams, build_bundle
from oracles import extended_order, torus_graph
from test_perm_group import count_chain_builds


def c5_instance():
    graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    group = PermGroup([Perm([1, 2, 3, 4, 0]), Perm([0, 4, 3, 2, 1])])
    return VTInstance(graph=graph, group=group)


def regular_cayley_instance():
    H = AbelianH(2, 2)
    graph = torus_graph(H.q)

    def translation(t):
        return Perm([H.index(*H.mul(H.element(k), t)) for k in range(H.order)])

    group = PermGroup([translation((1, 0)), translation((0, 1))])
    return VTInstance(graph=graph, group=group)


def dihedral_instance(n, reflection_first=False):
    graph = Graph(n, [(k, (k + 1) % n) for k in range(n)])
    rotation = Perm([(k + 1) % n for k in range(n)])
    reflection = Perm([(-k) % n for k in range(n)])
    gens = [reflection, rotation] if reflection_first else [rotation, reflection]
    return VTInstance(graph=graph, group=PermGroup(gens))


@pytest.fixture(scope="module")
def family_instance():
    bundle = build_bundle(ConstructionParams(2, 2))
    return VTInstance(graph=bundle.graph, group=bundle.big_group)


# -- instance validation -----------------------------------------------------


def test_instance_rejects_non_automorphism():
    graph = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="generator 1 is not an automorphism"):
        VTInstance(graph=graph, group=PermGroup([Perm([1, 2, 0])]))


def test_instance_rejects_intransitive_group():
    graph = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="not vertex-transitive"):
        VTInstance(graph=graph, group=PermGroup([Perm([0, 2, 1])]))


def test_instance_rejects_degree_mismatch():
    graph = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="degree"):
        VTInstance(graph=graph, group=PermGroup([Perm([1, 0])]))


# -- instance file parsing ---------------------------------------------------

C5_TEXT = """5 5
0 1
0 4
1 2
2 3
3 4

1 2 3 4 0
0 4 3 2 1
"""


def test_load_instance_round_trip():
    inst = load_instance(C5_TEXT)
    assert inst.graph.n == 5
    assert inst.group.order() == 10


def test_load_instance_parse_error_line_numbers():
    with pytest.raises(InstanceParseError) as exc:
        load_instance("5 5\n0 1\n0 4\n1 2\n2 x\n3 4\n\n1 2 3 4 0\n")
    assert exc.value.line == 5
    with pytest.raises(InstanceParseError) as exc:
        load_instance("2 1\n0 1\n0 1\n\n1 0\n")
    assert exc.value.line == 3  # missing blank separator
    with pytest.raises(InstanceParseError) as exc:
        load_instance("2 1\n0 1\n\n1 2\n")
    assert exc.value.line == 4  # not a permutation
    with pytest.raises(InstanceParseError) as exc:
        load_instance("2 1\n0 1\n\n")
    assert "no generator" in str(exc.value)


def test_load_instance_caps_the_header_vertex_count():
    # an 11-cycle and its rotation: one vertex over the cap
    edges = "".join(f"{k} {k + 1}\n" for k in range(10)) + "0 10\n"
    rotation = " ".join(str((k + 1) % 11) for k in range(11))
    text = f"11 11\n{edges}\n{rotation}\n"
    with pytest.raises(CapExceeded) as exc:
        load_instance(text, caps=Caps(vertex_cap=10))
    assert exc.value.cap_name == "vertex"
    assert load_instance(text, caps=Caps(vertex_cap=11)).group.order() == 11


# -- connection generators ---------------------------------------------------


def test_connection_generators_map_base_to_neighbors():
    inst = c5_instance()
    gens = connection_generators(inst)
    assert len(gens) == 2
    for g, beta in zip(gens, inst.graph.neighbors(0)):
        assert g(0) == beta


def test_connection_generators_regular_case_are_translations():
    # with a regular group the transversal elements for the neighbors of
    # the identity are exactly the connection-set translations
    inst = regular_cayley_instance()
    gens = connection_generators(inst)
    assert len(gens) == 4
    H = AbelianH(2, 2)
    for g, beta in zip(gens, inst.graph.neighbors(0)):
        assert g(0) == beta
        expected = Perm(
            [H.index(*H.mul(H.element(k), H.element(beta))) for k in range(16)]
        )
        assert g == expected


def test_connection_subgroup_transitive():
    for inst in (c5_instance(), regular_cayley_instance()):
        gens = connection_generators(inst)
        sub, transitive = verify_connection_subgroup(inst, gens)
        assert transitive
        assert sub.order() >= inst.graph.n


@pytest.mark.parametrize("which", ["c5", "regular-cayley", "family-2-2"])
def test_generation_holds_where_the_report_reads_it_off_the_decomposition(family_instance, which):
    # <G_v, H> = G, by a copy of G_v's chain extended by H's generators,
    # for both choices of connection elements; the report prints
    # generation_ok as decomposition_ok, with no such closure
    inst = {"c5": c5_instance, "regular-cayley": regular_cayley_instance}.get(which)
    inst = family_instance if inst is None else inst()
    stab = inst.group.stabilizer(0)
    for reverse in (False, True):
        gens = connection_generators(inst, reverse=reverse)
        assert extended_order(stab.chain(), gens) == inst.group.order()
    rep = bound_report(inst)
    assert rep.generation_ok == rep.decomposition_ok


# -- bound reports -----------------------------------------------------------


def test_bound_report_c5():
    rep = bound_report(c5_instance())
    assert rep.n == 5 and rep.d == 2
    assert rep.e == 10
    assert rep.G_order == 10 and rep.G_alpha_order == 2
    assert rep.n <= rep.H_order
    assert rep.G_order <= rep.H_order * math.factorial(rep.n - 1)
    assert rep.decomposition_ok and rep.size_bound_ok and rep.generation_ok
    assert rep.all_ok


def test_bound_report_regular_cayley():
    rep = bound_report(regular_cayley_instance())
    assert rep.d == 4
    assert rep.H_order == 16 and rep.G_order == 16 and rep.G_alpha_order == 1
    assert rep.e == 4
    assert rep.all_ok
    assert rep.order_equality  # regular action: |G| = |H| * |G_alpha| exactly


def test_bound_report_family_graph(family_instance):
    rep = bound_report(family_instance)
    assert rep.n == 32 and rep.d == 8
    assert rep.G_order == 2**16
    assert rep.G_alpha_order == 2**11
    assert rep.e == 8
    assert rep.all_ok
    assert len(rep.connection_gens) == 8
    # |H| * |G_alpha| overcounts whenever the two subgroups intersect
    assert not rep.order_equality
    assert rep.G_order <= rep.H_order * rep.G_alpha_order


@pytest.mark.parametrize("reflection_first", [False, True])
def test_bound_report_builds_one_chain_per_group(monkeypatch, reflection_first):
    # G, then the connection subgroup of each representative choice; the
    # stabilizers, the generation checks and the exponent reuse them
    inst = dihedral_instance(64, reflection_first)
    builds = count_chain_builds(monkeypatch)
    rep = bound_report(inst)
    assert len(builds) == 3
    assert (rep.G_order, rep.G_alpha_order, rep.e) == (128, 2, 64)
    assert inst.group.chain().base()[0] == 0


def test_connection_elements_own_their_images():
    inst = dihedral_instance(64)
    for reverse in (False, True):
        gens = connection_generators(inst, reverse=reverse)
        assert all(g.images.base is None for g in gens)
    assert all(g.images.base is None for g in bound_report(inst).connection_gens)


def test_bound_report_memory_is_not_held_by_transversal_tables():
    # a level whose orbit is the whole 1,024-cycle holds 1,024 rows of 4 KB
    # (4 MB); G and one subgroup hold such a level at once (about 12 MB
    # traced), so one more table or chain that outlives its use passes 16 MB
    inst = dihedral_instance(1024)
    tracemalloc.start()
    try:
        rep = bound_report(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_ok and rep.e == 1024
    assert peak < 16 * 2**20, peak


def test_bound_report_rejects_outcomes_that_change_with_the_choice(monkeypatch):
    # the second choice's decomposition, and so its generation, fails, and
    # the two choices' outcomes differ
    answers = iter([True, False])
    monkeypatch.setattr(harness, "frattini_decomposition_check", lambda G, H, v: next(answers))
    with pytest.raises(AssertionError, match="changed under a different representative"):
        bound_report(c5_instance())


def forbid_extensions(monkeypatch):
    def fail(cls, sub, gens):
        raise AssertionError("generation was closed although the product formula held")

    monkeypatch.setattr(PermGroup, "_extension", classmethod(fail))


@pytest.mark.parametrize("which", ["rotation-first", "reflection-first", "family-2-2"])
def test_bound_report_reads_generation_off_the_product_formula(
    monkeypatch, family_instance, which
):
    # G = G_v H is certified, so <G_v, H> = G needs no closure: G and the
    # connection subgroup of each choice are the only chains built
    if which == "family-2-2":  # a fresh group, with no chain cached
        graph, gens = family_instance.graph, family_instance.group.generators
        inst = VTInstance(graph=graph, group=PermGroup(gens))
    else:
        inst = dihedral_instance(64, reflection_first=which == "reflection-first")
    forbid_extensions(monkeypatch)
    builds = count_chain_builds(monkeypatch)
    rep = bound_report(inst)
    assert len(builds) == 3
    assert rep.decomposition_ok and rep.generation_ok and rep.all_ok


def test_bound_report_reads_generation_off_a_failed_product_formula(monkeypatch):
    # no closure runs in place of the formula
    monkeypatch.setattr(harness, "frattini_decomposition_check", lambda G, H, v: False)
    forbid_extensions(monkeypatch)
    rep = bound_report(dihedral_instance(64))
    assert not rep.generation_ok and not rep.decomposition_ok and not rep.all_ok


def test_size_bound_matches_the_factorial_form():
    for n in range(1, 9):
        for H_order in range(1, 13):
            bound = H_order * math.factorial(max(n - 1, 0))
            for G_order in {*range(1, 40), bound - 1, bound, bound + 1, 2 * bound}:
                want = G_order <= bound
                assert harness._size_bound_ok(G_order, H_order, n) == want, (n, H_order, G_order)


def test_size_bound_at_the_vertex_cap_returns_at_once():
    # (2^20 - 1)! alone takes seconds to form; here the product passes |G| at 2
    n = 2**20
    start = time.perf_counter()
    assert harness._size_bound_ok(2 * n, n, n)
    assert time.perf_counter() - start < 0.1


def test_exponent_of_connection_subgroup_divides_group_exponent():
    for inst in (c5_instance(), regular_cayley_instance()):
        gens = connection_generators(inst)
        sub, _ = verify_connection_subgroup(inst, gens)
        assert exponent(inst.group) % exponent(sub) == 0


def test_bound_report_render_stable_fields():
    rep = bound_report(c5_instance())
    lines = rep.render().strip().splitlines()
    assert lines[0] == "bound-certificate n=5 d=2 e=10"
    assert lines[1].startswith("H_order=")
    assert lines[2].startswith("G_order=10")
    assert lines[3].startswith("G_alpha_order=2")
    conn = [l for l in lines if l.startswith("connection_gen ")]
    assert len(conn) == 2
    assert lines[-4] == "decomposition_ok=true"
    assert lines[-3] == "size_bound_ok=true"
    assert lines[-2] == "generation_ok=true"
    assert lines[-1].startswith("order_equality=")
