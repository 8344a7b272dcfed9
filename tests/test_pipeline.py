import hashlib

import numpy as np
import pytest

from arcgen import cli, pipeline
from arcgen.caps import CapExceeded, Caps
from arcgen.field_linalg import FpMatrix
from arcgen.perm_group import (
    PermGroup,
    StabChain,
    arc_orbit_size,
    exponent,
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
    family_generators,
    group_vertex_action,
    semidirect_consistency,
    verify_theorem1,
)
from oracles import (
    _kron_rows,
    arc_orbit_size_by_queue,
    copy_shifts_int32,
    kron,
    module_vertex_action,
)


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
    row = asm.top_space.pivots.tolist().index(asm.H.index(1, 1))
    assert asm.module_basis[row].tolist() == e11.tolist()
    perm = asm.module_gens[row]
    assert perm.order() == 2
    assert all(perm(2 * k) == 2 * k + 1 for k in range(4))


def test_module_action_preserves_adjacency():
    asm = Bundle(ConstructionParams(2, 2))
    for perm in asm.module_gens:
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
    for perm in asm.module_gens:
        assert perm.order() in (1, 3)


# every (p, h) with q <= 32
SMALL_Q = [(p, h) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for h in range(1, 6) if p**h <= 32]


@pytest.mark.parametrize("p, h", SMALL_Q)
def test_module_generators_match_the_natural_row_route(p, h):
    # the library's outer products of P's columns against the oracle's
    # conversion of the top term's unit rows through P ⊗ P, and its copy
    # shifts against the oracle's, which converts each row back and checks
    # it lies in the top term
    asm = Bundle(ConstructionParams(p, h))
    basis = asm.module_basis
    top_rows = FpMatrix(np.eye(asm.H.ambient, dtype=np.int64)[asm.top_space.pivots], p)
    assert np.array_equal(basis, _kron_rows(top_rows, asm.change.P.transpose()).a)
    gens = asm.module_gens
    assert len(gens) == len(basis) == asm.top_space.dim
    # the layer rows, built on their own, are the module rows at pivots x*q + (q-1-x)
    q = asm.params.q
    layer = np.flatnonzero(np.isin(asm.top_space.pivots, np.arange(q) * (q - 1) + q - 1))
    assert np.array_equal(asm.layer_basis, basis[layer])
    assert family_generators(asm)["layer"] == [gens[k] for k in layer]
    for start in range(0, len(basis), 64):  # blocks keep the oracle's rows small at q = 31
        assert gens[start : start + 64] == module_vertex_action(asm, basis[start : start + 64])


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


@pytest.mark.parametrize("p, h, big", [(2, 1, 4), (2, 2, 8), (3, 1, 18)])
def test_family_exponents(p, h, big):
    # e(small) = pq (ROADMAP Facts); the big group's quotient by the small
    # group has exponent 2, so e(big) is pq or 2pq
    bundle, pq = Bundle(ConstructionParams(p, h)), p * p**h
    assert exponent(bundle.small_group) == pq
    assert exponent(bundle.big_group) == big and big in (pq, 2 * pq)


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


def refuse_arc_walk(monkeypatch):
    def refused(*args):
        raise CapExceeded("time", 0, "arc_orbit_size is refused in this test")

    monkeypatch.setattr(pipeline, "arc_orbit_size", refused)


def test_c4_skips_at_the_order_cap_without_an_arc_walk(monkeypatch):
    refuse_arc_walk(monkeypatch)
    report = verify_theorem1(ConstructionParams(3, 2))
    line = report.claim("C4").line()
    assert line.startswith("C4 arc_transitive=false,orbits=4 skipped:order_cap skipped ")
    assert report.claim("C5").computed == "skipped:time_cap"  # the refusal was in force


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (2, 3)])
def test_c4_passes_without_an_arc_walk(p, h, monkeypatch):
    refuse_arc_walk(monkeypatch)
    c4 = verify_theorem1(ConstructionParams(p, h)).claim("C4")
    assert (c4.computed, c4.status) == ("arc_transitive=false,orbits=4", "pass")


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (5, 1), (2, 3)])
def test_c4_arc_orbit_by_orbit_stabilizer_matches_queue_reference(p, h):
    # C4's |0^G| * |w^(G_0)| for the default arc (0, w), w = N(0)[0]
    bundle = Bundle(ConstructionParams(p, h))
    graph, small = bundle.graph, bundle.small_group
    induced, _ = local_action(graph, small, 0)
    ours = len(small.orbit(0)) * len(induced.orbit(0))
    assert ours == arc_orbit_size_by_queue(graph, small, (0, int(graph.neighbors(0)[0])))
    assert ours == 2 * graph.m // 4


def test_big_group_orbit_covers_all_vertices(bundle_22):
    assert bundle_22.big_group.orbit(0) == list(range(32))


def test_arc_transitivity_implies_local_transitivity(bundle_22, bundle_31):
    for bundle in (bundle_22, bundle_31):
        assert arc_orbit_size(bundle.graph, bundle.big_group) == 2 * bundle.graph.m
        _, orbits = local_action(bundle.graph, bundle.big_group, 0)
        assert orbits == 1


def test_permutation_rank_ties_to_algebra_rank(bundle_22, bundle_31):
    # rank of the small group = module rank + the two translations
    # the module rank by the dense route, from the dense e-basis a and b
    from arcgen.perm_group import frattini_rank
    from oracles import action_matrix, nakayama_count_dense

    for bundle in (bundle_22, bundle_31):
        H, p = bundle.H, bundle.params.p
        actions = [
            action_matrix(H, "a", "e", bundle.change),
            action_matrix(H, "b", "e", bundle.change),
        ]
        module_rank = nakayama_count_dense(bundle.top_space, actions, p)
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


def _module_groups(bundle):
    """The groups of the `construct` files: every module generator, a and b (then phi and psi)."""
    small = [*bundle.module_gens, *bundle.translation_gens]
    caps, n = bundle.params.caps, bundle.graph.n
    return PermGroup(small, n, caps), PermGroup([*small, *bundle.outer_gens], n, caps)


@pytest.mark.parametrize("p, h", T1_DECIDED)
def test_layer_ranks_equal_all_generator_ranks(p, h):
    # the groups of the q + 2 and q + 4 generators against those of the
    # q(q+1)/2 module generators with the same translations and outer ones
    bundle = _raised_bundle(p, h)
    small, big = bundle.small_group, bundle.big_group
    module_small, module_big = _module_groups(bundle)
    assert len(small.generators) == bundle.params.q + 2
    assert small.order() == module_small.order() and big.order() == module_big.order()
    assert frattini_rank(small, p) == frattini_rank(module_small, p) == bundle.params.q + 2
    if p == 2:
        assert frattini_rank(big, 2) == frattini_rank(module_big, 2)


@pytest.mark.parametrize("p, h", T1_DECIDED)
def test_frattini_rank_matches_the_one_at_a_time_extension(p, h, monkeypatch):
    # the closure's chain takes the layer generators' residues as one block
    # of Λ rows, and the ranks are those of one add_generator per generator
    from oracles import frattini_rank_one_at_a_time

    blocks = []
    insert = StabChain._insert

    def recorded(chain, h, v, pending):
        blocks.append(len(np.atleast_2d(v)))
        insert(chain, h, v, pending)

    monkeypatch.setattr(StabChain, "_insert", recorded)
    bundle = _raised_bundle(p, h)
    groups = [bundle.small_group] + ([bundle.big_group] if p == 2 else [])
    for G in groups:
        G.order()
        blocks.clear()
        rank = frattini_rank(G, p)
        assert rank == frattini_rank_one_at_a_time(G, p, G.generators)
        assert bundle.params.q in blocks  # the q layer residues, as one block


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
    assert frattini_rank(bundle.small_group, p) == bundle.params.q + 2
    if p == 2:
        frattini_rank(bundle.big_group, 2)
    assert runs == []


def _drop_last_layer_row(monkeypatch):
    layer_gens = Bundle.layer_gens
    monkeypatch.setattr(Bundle, "layer_gens", property(lambda b: layer_gens.fget(b)[:-1]))


def test_generation_tripwire_stops_a_group_short_of_a_layer_row(monkeypatch, capsys):
    # one layer row fewer generates a proper subgroup of M ⋊ T; C4, C7 and
    # C8 would read it and pass, so both paths must raise instead
    _drop_last_layer_row(monkeypatch)
    with pytest.raises(AssertionError, match="small group order"):
        verify_theorem1(ConstructionParams(2, 3))
    with pytest.raises(AssertionError, match="small group order"):
        build_bundle(ConstructionParams(2, 3))
    with pytest.raises(AssertionError):
        cli.main(["verify-t1", "--p", "2", "--h", "3"])
    assert capsys.readouterr().out == ""


def test_verify_t1_turns_only_the_layer_rows_into_permutations(monkeypatch):
    # at (2,4) the top module has 136 rows; verify-t1 makes permutations of
    # the q = 16 layer rows alone
    rows = []
    copy_shifts = pipeline._copy_shifts
    monkeypatch.setattr(
        pipeline, "_copy_shifts", lambda r, p: rows.append(len(r)) or copy_shifts(r, p)
    )
    report = verify_theorem1(ConstructionParams(2, 4))
    assert report.claim("C3").status == "pass" and report.claim("C4").status == "skipped"
    assert rows == [16]


@pytest.mark.parametrize("p, h", [(2, 2), (3, 1), (5, 1), (2, 3)])
def test_copy_shifts_match_the_int32_formula_on_layer_and_module_rows(p, h):
    bundle = Bundle(ConstructionParams(p, h))
    for rows in (bundle.layer_basis, bundle.module_basis):
        assert pipeline._copy_shifts(rows, p) == copy_shifts_int32(rows, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_copy_shifts_match_the_int32_formula_on_random_rows(p):
    rows = np.random.default_rng(p).integers(0, p, size=(20, 49))
    assert pipeline._copy_shifts(rows, p) == copy_shifts_int32(rows, p)


# sha256 of the files `construct` writes: they list every module generator
# with a and b (then phi and psi), not the groups' layer generators
CONSTRUCT_FILES = {
    (2, 2): {
        "edges": "ef4ea99588357c9c601bab5a87a635bd2be195cc8292dce9c148742963f14493",
        "small.gens": "88bd91d94ccf72f161645e5f9d8b6dc437d5821c0b9269ebf43c5d79a41be2ed",
        "big.gens": "73ee3e51b55fa7650721f657e93a5d108299a0f418baf51441dbb6cf4aeaa190",
    },
    (3, 1): {
        "edges": "ba357dec66de051eeaa9539b04a18db3e6b86769be75de5288b98b91b0de974a",
        "small.gens": "b70528c0125f00d9d67d41d0654c680f1830366fd2a1d325b587f29cbf19bcf0",
        "big.gens": "97635c24274b5196cd438eaacb43b9f9609c6cd7c013b4de2c943b8b30daf9df",
    },
    (2, 3): {
        "edges": "59a9555c35a5da15def5b1d0e26842292bb7d6b8d97917972b51c60d8bd4eb60",
        "small.gens": "e47763d4721b149df1e5471e0e9ddc1f2abda40d5ad8e39e96e40f94e9233f73",
        "big.gens": "d773f0a531f62b276e62573de7021d0dba05296096a9ff3671674dc7aefb85f0",
    },
}


@pytest.mark.parametrize("p, h", list(CONSTRUCT_FILES))
def test_construct_files_keep_every_module_generator(p, h, tmp_path, capsys):
    out = tmp_path / f"g{p}{h}"
    assert cli.main(["construct", "--p", str(p), "--h", str(h), "--out", str(out)]) == 0
    for ext, digest in CONSTRUCT_FILES[p, h].items():
        data = (tmp_path / f"g{p}{h}.{ext}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, ext
    bundle = Bundle(ConstructionParams(p, h))
    small = (tmp_path / f"g{p}{h}.small.gens").read_text().splitlines()
    assert len(small) == bundle.top_space.dim + 2


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
    from arcgen.perm_group import _commutator, _normal_closure

    G = getattr(Bundle(ConstructionParams(p, h)), f"{which}_group")
    gens = G.generators
    seeds = [g**p for g in gens] + [
        _commutator(gens[i], gens[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ]
    theirs = _sympy_group(sympy_comb, gens).normal_closure(
        _sympy_group(sympy_comb, seeds)
    )
    assert G.order() > 2**10
    assert _normal_closure(G, seeds).order() == theirs.order()


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
    # gamma_chain runs once and reads a - 1 and b - 1 as index shifts; C6
    # walks the chain's own shifts, and no product in the algebra stages
    # has an inner dimension above q
    import arcgen.field_linalg as field_linalg
    import arcgen.pipeline as pipeline

    chains, shifts_read, inner = [], [], []
    gamma, count = pipeline.gamma_chain, pipeline.min_generators_local
    product = field_linalg.FpMatrix.__matmul__

    def counted_chain(*args, **kwargs):
        chains.append(gamma(*args, **kwargs))
        return chains[-1]

    def counted_count(V, shifts):
        shifts_read.append(shifts)
        return count(V, shifts)

    def counted_product(a, b):
        inner.append(a.cols)
        return product(a, b)

    monkeypatch.setattr(pipeline, "gamma_chain", counted_chain)
    monkeypatch.setattr(pipeline, "min_generators_local", counted_count)
    monkeypatch.setattr(field_linalg.FpMatrix, "__matmul__", counted_product)
    report = verify_theorem1(ConstructionParams(2, 2))
    assert report.claim("C6").status == "pass"
    assert len(chains) == 1 and len(shifts_read) == 1
    assert shifts_read[0] is chains[0].shifts
    assert inner and max(inner) <= 4


def test_checklist_at_2_4_stays_below_the_blas_route(monkeypatch):
    # the module generators are outer products of P's columns, so the only
    # algebra products left on the family path are q x q ones: P^-1 P in
    # build_e_basis and P^T A P^-T in gamma_chain
    import arcgen.field_linalg as field_linalg

    shapes = []
    product = field_linalg.FpMatrix.__matmul__

    def counted_product(a, b):
        shapes.append((a.a.shape, b.a.shape))
        return product(a, b)

    monkeypatch.setattr(field_linalg.FpMatrix, "__matmul__", counted_product)
    for p, h in [(2, 4), (2, 5), (3, 3), (5, 2)]:
        q = p**h
        shapes.clear()
        report = verify_theorem1(ConstructionParams(p, h))
        assert report.claim("C6").status == "pass"
        assert shapes and set(shapes) == {((q, q), (q, q))}
        assert q**3 < field_linalg._BLAS_MIN_MACS


def test_capped_checklists_stay_below_the_blas_route(monkeypatch):
    # every F_p product at t1-capped's cases, the algebra's and Λ's
    # reductions and insertions alike, takes the int64 route
    import arcgen.field_linalg as field_linalg

    macs = []
    matmul = field_linalg._matmul

    def counted_matmul(a, b, p):
        macs.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, p)

    monkeypatch.setattr(field_linalg, "_matmul", counted_matmul)
    for p, h in [(3, 2), (7, 1), (2, 4)]:
        macs.clear()
        verify_theorem1(ConstructionParams(p, h))
        assert macs and max(macs) < field_linalg._BLAS_MIN_MACS


def test_checklist_checks_each_generator_set_once(monkeypatch):
    # C3 and C4 check the small group's generators; C5 checks only phi and
    # psi, the generators the big group adds to the already checked small one
    import arcgen.perm_group as perm_group

    checked = []
    is_automorphism = perm_group.is_automorphism
    monkeypatch.setattr(
        perm_group, "is_automorphism", lambda g, x: checked.append(x) or is_automorphism(g, x)
    )
    report = verify_theorem1(ConstructionParams(2, 2))
    assert report.all_pass
    bundle = Bundle(ConstructionParams(2, 2))
    assert len(checked) == len(bundle.big_group.generators)


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
