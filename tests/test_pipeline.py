import numpy as np
import pytest

from arcgen.caps import CapExceeded, Caps
from arcgen.perm_group import (
    StabChain,
    arc_orbit_size,
    frattini_rank,
    is_automorphism,
    is_vertex_transitive,
    local_action,
)
from arcgen.pipeline import (
    CLAIM_IDS,
    Bundle,
    ConstructionParams,
    build_bundle,
    group_vertex_action,
    module_vertex_action,
    semidirect_consistency,
    verify_theorem1,
)
from oracles import kron


@pytest.fixture(scope="module")
def bundle_22():
    return build_bundle(ConstructionParams(2, 2))


@pytest.fixture(scope="module")
def bundle_31():
    return build_bundle(ConstructionParams(3, 1))


def test_params_validation():
    with pytest.raises(ValueError, match="prime"):
        ConstructionParams(4, 1)
    with pytest.raises(ValueError):
        ConstructionParams(2, 0)
    assert ConstructionParams(2, 1).degenerate
    assert not ConstructionParams(2, 2).degenerate


# -- vertex actions ----------------------------------------------------------


def test_zero_vector_gives_identity():
    asm = Bundle(ConstructionParams(2, 2))
    [perm] = module_vertex_action(asm, np.zeros((1, 16), dtype=int))
    assert perm.is_identity()


def test_e11_q2_shifts_every_copy():
    # (a-1)(b-1) = 1 + a + b + ab mod 2: every position gets its copy
    # index shifted, one free cyclic factor
    asm = Bundle(ConstructionParams(2, 1))
    from_e = kron(asm.change.P, asm.change.P)
    e11 = from_e.a[:, asm.H.index(1, 1)]
    assert e11.tolist() == [1, 1, 1, 1]
    [perm] = module_vertex_action(asm, e11[None, :])
    assert perm.order() == 2
    assert all(perm(2 * k) == 2 * k + 1 for k in range(4))


def test_module_action_preserves_adjacency():
    asm = Bundle(ConstructionParams(2, 2))
    for perm in module_vertex_action(asm, asm.module_basis):
        assert is_automorphism(asm.graph, perm)


def test_module_action_membership_check():
    asm = Bundle(ConstructionParams(2, 2))
    outside = np.zeros(16, dtype=int)
    outside[0] = 1  # the identity element spans the whole algebra, not the top term
    with pytest.raises(ValueError, match="top filtration module"):
        module_vertex_action(asm, outside[None, :])


def test_module_action_rejects_a_stack_with_one_row_outside():
    asm = Bundle(ConstructionParams(2, 2))
    outside = np.zeros((1, 16), dtype=int)
    outside[0, 0] = 1
    stack = np.vstack([asm.module_basis, outside])
    with pytest.raises(ValueError, match="top filtration module"):
        module_vertex_action(asm, stack)


def test_module_action_stack_matches_one_row_calls():
    for p, h in [(2, 2), (3, 1)]:
        asm = Bundle(ConstructionParams(p, h))
        basis = asm.module_basis
        # a few sums of basis rows, so the stack is not only unit e-vectors
        rows = np.vstack([basis, (basis[:-1] + basis[1:]) % p])
        stacked = module_vertex_action(asm, rows)
        assert len(stacked) == len(rows)
        for row, perm in zip(rows, stacked):
            [single] = module_vertex_action(asm, row[None, :])
            assert perm == single


def test_module_action_order_divides_p():
    asm = Bundle(ConstructionParams(3, 1))
    for perm in module_vertex_action(asm, asm.module_basis):
        assert perm.order() in (1, 3)


def test_group_action_identity_element():
    asm = Bundle(ConstructionParams(2, 2))
    assert group_vertex_action(asm, (0, 0)).is_identity()


def test_group_action_translation_order():
    asm = Bundle(ConstructionParams(2, 2))
    a = group_vertex_action(asm, "a")
    assert a.order() == 4
    b = group_vertex_action(asm, (0, 1))
    assert b.order() == 4


def test_group_action_moves_the_first_coordinate_only():
    asm = Bundle(ConstructionParams(3, 1))
    H, p = asm.H, 3
    acts = {
        (1, 2): lambda x: H.mul(x, (1, 2)),
        "a": lambda x: H.mul(x, (1, 0)),
        "phi": lambda x: (x[1], x[0]),
        "psi": H.inv,
    }
    for item, act in acts.items():
        perm = group_vertex_action(asm, item)
        for k in range(H.order):
            for c in range(p):
                assert perm(k * p + c) == H.index(*act(H.element(k))) * p + c


def test_outer_action_involution():
    asm = Bundle(ConstructionParams(3, 1))
    phi = group_vertex_action(asm, "phi")
    psi = group_vertex_action(asm, "psi")
    assert (phi * phi).is_identity()
    assert (psi * psi).is_identity()
    assert phi * psi == psi * phi
    assert is_automorphism(asm.graph, phi)
    assert is_automorphism(asm.graph, psi)


def test_unknown_group_item():
    asm = Bundle(ConstructionParams(2, 1))
    with pytest.raises(ValueError):
        group_vertex_action(asm, "zeta")


# -- bundles -----------------------------------------------------------------


def test_bundle_orders_2_2(bundle_22):
    assert bundle_22.graph.n == 32
    assert bundle_22.small_group.order() == 2**14
    assert bundle_22.big_group.order() == 2**16
    assert bundle_22.big_to_small_ratio == 4


def test_bundle_orders_3_1(bundle_31):
    assert bundle_31.graph.n == 27
    assert bundle_31.small_group.order() == 3**8
    assert bundle_31.big_group.order() == 3**8 * 4


def test_bundle_degenerate_2_1():
    b = build_bundle(ConstructionParams(2, 1))
    assert b.degenerate
    assert b.graph.valency() == 4
    # the inversion symmetry acts trivially when q = 2
    assert b.big_to_small_ratio == 2
    assert b.outer_gens[1].is_identity()


def test_bundle_generators_are_automorphisms(bundle_22):
    gens = [
        *bundle_22.module_gens,
        *bundle_22.translation_gens,
        *bundle_22.outer_gens,
    ]
    for g in gens:
        assert is_automorphism(bundle_22.graph, g)


def test_bundle_stabilizer_order(bundle_22, monkeypatch):
    assert bundle_22.big_group.stabilizer(0).order() == 2**16 // 32
    # the big group's stabilizer extends the small group's chain, built
    # with base point 0 first, and constructs no chain of its own
    builds = []
    init = StabChain.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    for (p, h), order in [((2, 2), 2048), ((3, 1), 972), ((2, 3), 2**37)]:
        bundle = Bundle(ConstructionParams(p, h))
        bundle.small_group.stabilizer(0)
        monkeypatch.setattr(StabChain, "__init__", counted)
        assert bundle.big_group.stabilizer(0).order() == order
        assert builds == []
        monkeypatch.undo()


def test_semidirect_consistency(bundle_22, bundle_31):
    assert semidirect_consistency(bundle_22)
    assert semidirect_consistency(bundle_31)
    # ambient 256 and 81; build_bundle would hit the order cap here
    assert semidirect_consistency(Bundle(ConstructionParams(2, 4)))
    assert semidirect_consistency(Bundle(ConstructionParams(3, 2)))


def test_semidirect_consistency_fails_with_swapped_translations():
    # swapped outer generators (phi <-> psi) must fail the same way
    for p, h in [(2, 2), (3, 1)]:
        for role in ("translations", "outer"):
            bundle = Bundle(ConstructionParams(p, h))
            x, y = bundle.generators[role]
            bundle.generators[role] = (y, x)
            assert not semidirect_consistency(bundle)


def test_small_group_vertex_transitive_with_four_local_orbits(bundle_22):
    graph = bundle_22.graph
    assert is_vertex_transitive(graph, bundle_22.small_group)
    _, orbits = local_action(graph, bundle_22.small_group, 0)
    assert orbits == 4


def test_big_group_orbit_covers_all_vertices(bundle_22):
    assert bundle_22.big_group.orbit(0) == list(range(32))


def test_arc_transitivity_implies_local_transitivity(bundle_22, bundle_31):
    for bundle in (bundle_22, bundle_31):
        assert arc_orbit_size(bundle.graph, bundle.big_group) == 2 * bundle.graph.m
        _, orbits = local_action(bundle.graph, bundle.big_group, 0)
        assert orbits == 1


def test_permutation_rank_ties_to_algebra_rank(bundle_22, bundle_31):
    # rank of the small group = module rank + the two translations
    from arcgen.group_algebra import action_matrix, min_generators_local
    from arcgen.perm_group import frattini_rank

    for bundle in (bundle_22, bundle_31):
        H, p = bundle.H, bundle.params.p
        actions = [
            action_matrix(H, "a", "e", bundle.change),
            action_matrix(H, "b", "e", bundle.change),
        ]
        module_rank = min_generators_local(bundle.top_space, actions, p)
        assert frattini_rank(bundle.small_group, p) == module_rank + 2


# the t1-decided cases of the benchmark; (3,2) and (7,1) need the order cap raised
T1_DECIDED = [(2, 2), (3, 1), (5, 1), (2, 3), (3, 2), (7, 1)]


def _raised_bundle(p, h):
    return Bundle(ConstructionParams(p, h, caps=Caps(order_cap=2**400)))


def test_layer_gens_are_the_level_q_minus_1_vectors():
    for p, h in [(2, 1), (2, 2), (3, 1), (2, 3)]:
        bundle = Bundle(ConstructionParams(p, h))
        q = bundle.params.q
        layer = bundle.layer_gens
        # (a-1)^x (b-1)^y has the term a^x b^y and no a^i b^j with i > x
        # or j > y, so its last shifted copy index is x * q + y
        last = [np.flatnonzero(g.images[::p] != np.arange(q * q) * p)[-1] for g in layer]
        assert last == [x * q + (q - 1 - x) for x in range(q)]


@pytest.mark.parametrize("p, h", T1_DECIDED)
def test_layer_ranks_equal_all_generator_ranks(p, h):
    bundle = _raised_bundle(p, h)
    small, big = bundle.small_group, bundle.big_group
    layer = [*bundle.layer_gens, *bundle.translation_gens]
    assert frattini_rank(small, p, layer) == frattini_rank(small, p) == bundle.params.q + 2
    if p == 2:
        big_layer = layer + list(bundle.outer_gens)
        assert frattini_rank(big, 2, big_layer) == frattini_rank(big, 2)


@pytest.mark.parametrize("p, h", [(2, 3), (3, 2)])
def test_frattini_builds_run_no_schreier_sims(p, h, monkeypatch):
    # every chain step of the Frattini closure and its extension by the
    # layer generators is a prime-index extension
    bundle = _raised_bundle(p, h)
    groups = [bundle.small_group] + ([bundle.big_group] if p == 2 else [])
    for G in groups:
        G.order()  # the groups' own chains are not under test
    runs = []
    process_all = StabChain._process_all
    monkeypatch.setattr(
        StabChain, "_process_all", lambda chain: runs.append(1) or process_all(chain)
    )
    layer = [*bundle.layer_gens, *bundle.translation_gens]
    assert frattini_rank(bundle.small_group, p, layer) == bundle.params.q + 2
    if p == 2:
        frattini_rank(bundle.big_group, 2, layer + list(bundle.outer_gens))
    assert runs == []


def test_assembly_respects_ambient_cap():
    with pytest.raises(CapExceeded) as exc:
        Bundle(ConstructionParams(2, 3, caps=Caps(ambient_cap=16))).module_basis
    assert exc.value.cap_name == "ambient"


def test_module_basis_matches_top_dimension():
    for p, h in [(2, 1), (2, 2), (3, 1)]:
        asm = Bundle(ConstructionParams(p, h))
        assert len(asm.module_basis) == asm.top_space.dim


# -- sympy oracles past 2^10 -------------------------------------------------


def _sympy_group(sympy_comb, perms):
    return sympy_comb.PermutationGroup(
        [sympy_comb.Permutation([int(x) for x in g.images]) for g in perms]
    )


@pytest.mark.parametrize(
    "p, h, which",
    [(3, 1, "small"), (5, 1, "small"), (2, 3, "small"), (2, 3, "big")],
)
def test_frattini_closure_order_against_sympy(p, h, which):
    # |Phi(G)|, the normal closure of the p-th powers and commutators of
    # the generators, on groups of order 3^8 up to 2^44
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    from arcgen.perm_group import commutator, normal_closure

    G = getattr(Bundle(ConstructionParams(p, h)), f"{which}_group")
    gens = G.generators
    seeds = [g**p for g in gens] + [
        commutator(gens[i], gens[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ]
    theirs = _sympy_group(sympy_comb, gens).normal_closure(
        _sympy_group(sympy_comb, seeds)
    )
    assert G.order() > 2**10
    assert normal_closure(G, seeds).order() == theirs.order()


@pytest.mark.parametrize("p, h", [(3, 1), (5, 1), (2, 3)])
def test_local_orbit_count_against_sympy(p, h):
    # C4's orbit count: orbits of the stabilizer of vertex 0 on its neighbours
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    bundle = Bundle(ConstructionParams(p, h))
    G = bundle.small_group
    nbrs = set(bundle.graph.neighbors(0).tolist())
    stab = _sympy_group(sympy_comb, G.generators).stabilizer(0)
    orbits = {frozenset(stab.orbit(v)) for v in nbrs}
    assert all(orbit <= nbrs for orbit in orbits)
    assert G.order() > 2**10
    _, ours = local_action(bundle.graph, G, 0)
    assert ours == len(orbits)


# -- claim checklist ---------------------------------------------------------


def test_checklist_2_2_all_pass():
    report = verify_theorem1(ConstructionParams(2, 2))
    assert [c.claim_id for c in report.claims] == CLAIM_IDS
    assert report.all_pass and not report.any_skipped
    assert report.claim("C5").computed == "arc_orbit=256"
    assert report.claim("C6").computed == "module_rank=4"
    assert report.claim("C7").computed == "rank=6"
    assert report.claim("C8").computed == "rank=5"
    assert report.n == "32" and report.valency == "8"
    assert report.big_order == "65536"


def test_checklist_3_1():
    report = verify_theorem1(ConstructionParams(3, 1))
    assert report.all_pass and not report.any_skipped
    assert report.claim("C6").computed == "module_rank=3"
    assert report.claim("C7").computed == "rank=5"
    assert "not_directly_computed" in report.claim("C8").computed
    assert report.claim("C8").expected == "rank>=4"


def test_checklist_degenerate_2_1():
    # outside the stated family: the label-preserving subgroup has only 2
    # local orbits and the rank bound fails; both are reported, not hidden
    report = verify_theorem1(ConstructionParams(2, 1))
    assert report.degenerate
    assert report.claim("C1").status == "pass"
    assert report.claim("C4").status == "fail"
    assert report.claim("C4").computed == "arc_transitive=false,orbits=2"
    assert report.claim("C8").status == "fail"
    assert report.claim("C8").computed == "rank=3"
    for cid in ("C2", "C3", "C5", "C6", "C7", "C9"):
        assert report.claim(cid).status == "pass"


def test_checklist_caps_skip_only_affected_claims():
    # a tiny order cap stops exactly the claims that need a stabilizer
    # chain; orbit-only claims (C3, C5) and the graph and algebra claims
    # keep running
    report = verify_theorem1(ConstructionParams(2, 2, caps=Caps(order_cap=100)))
    skipped = {c.claim_id for c in report.claims if c.status == "skipped"}
    assert skipped == {"C4", "C7", "C8"}
    for cid in ("C1", "C2", "C3", "C5", "C6", "C9"):
        assert report.claim(cid).status == "pass"
    assert report.any_skipped and not report.any_failed
    assert report.big_order == "unknown"
    for c in report.claims:
        if c.status == "skipped":
            assert c.computed == "skipped:order_cap"


def test_checklist_ambient_cap_skips_algebra_claims():
    report = verify_theorem1(ConstructionParams(2, 2, caps=Caps(ambient_cap=4)))
    skipped = {c.claim_id for c in report.claims if c.status == "skipped"}
    # module and rank claims all need the algebra; graph claims survive
    assert "C6" in skipped and "C9" in skipped
    assert report.claim("C1").status == "pass"
    assert report.claim("C2").status == "pass"


def test_checklist_builds_each_stage_once(monkeypatch):
    import arcgen.pipeline as pipeline

    calls = {"build_family_graph": 0, "gamma_chain": 0}
    for name in calls:
        fn = getattr(pipeline, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    report = verify_theorem1(ConstructionParams(2, 2))
    assert report.all_pass
    assert calls == {"build_family_graph": 1, "gamma_chain": 1}


def test_checklist_builds_the_e_basis_actions_once(monkeypatch):
    # gamma_chain builds the e-basis a and b, and C6 reuses them
    import arcgen.group_algebra as group_algebra
    import arcgen.pipeline as pipeline

    calls = []
    action_matrix = group_algebra.action_matrix

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return action_matrix(*args, **kwargs)

    monkeypatch.setattr(group_algebra, "action_matrix", counted)
    # also any name the pipeline module imported before the patch
    monkeypatch.setattr(pipeline, "action_matrix", counted, raising=False)
    report = verify_theorem1(ConstructionParams(2, 2))
    assert report.claim("C6").status == "pass"
    assert calls == [("a", "e"), ("b", "e")]


def test_checklist_checks_each_generator_set_once(monkeypatch):
    # C3 and C4 check the small group's generators, C5 the big group's
    import arcgen.perm_group as perm_group

    checked = []
    is_automorphism = perm_group.is_automorphism
    monkeypatch.setattr(
        perm_group, "is_automorphism", lambda g, x: checked.append(x) or is_automorphism(g, x)
    )
    report = verify_theorem1(ConstructionParams(2, 2))
    assert report.all_pass
    bundle = Bundle(ConstructionParams(2, 2))
    assert len(checked) == len(bundle.small_group.generators) + len(bundle.big_group.generators)


def test_report_renders_one_line_per_claim():
    report = verify_theorem1(ConstructionParams(2, 1))
    lines = report.render().strip().splitlines()
    assert len(lines) == 1 + len(CLAIM_IDS)
    assert lines[0].startswith("family-certificate p=2 h=1")
    for line, cid in zip(lines[1:], CLAIM_IDS):
        fields = line.split()
        assert fields[0] == cid
        assert len(fields) == 5
        assert fields[3] in ("pass", "fail", "skipped")
        assert fields[4].isdigit()
