"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
comparison is exact; the stated wall-clock budgets are asserted too.
"""

import math
import time

import pytest

from arcgen.caps import CapExceeded, Caps
from arcgen.field_linalg import FpMatrix
from arcgen.graph_builder import Graph
from arcgen.group_algebra import (
    AbelianH,
    build_e_basis,
    gamma_chain,
    min_generators_local,
    section_dims,
)
from arcgen.harness import VTInstance, bound_report
from arcgen.perm_group import (
    Perm,
    PermGroup,
    arc_orbit_size,
    frattini_rank,
    is_vertex_transitive,
    local_action,
)
from arcgen.pipeline import (
    Bundle,
    ConstructionParams,
    build_bundle,
    family_generators,
    semidirect_consistency,
    verify_theorem1,
)
from oracles import action_matrix, brute_force_min_generators, kron, torus_graph, unipotent_matrix

SECTION_CASES = [(2, 1), (2, 2), (2, 3), (3, 1), (5, 1)]  # (p, q) in {4,8,... }


def record(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_criterion_01_section_dimension_law():
    start = time.perf_counter()
    ok = True
    for p, h in SECTION_CASES:
        H = AbelianH(p, h)
        q = H.q
        dims = section_dims(gamma_chain(H))
        ok = ok and dims == [min(i + 1, 2 * q - 1 - i) for i in range(2 * q - 1)]
    elapsed = time.perf_counter() - start
    record(1, ok and elapsed < 1.0, f"section dims for {SECTION_CASES}, {elapsed:.3f}s")


def test_criterion_02_action_matrix_identity():
    start = time.perf_counter()
    ok = True
    for p, h in SECTION_CASES:
        H = AbelianH(p, h)
        change = build_e_basis(H)
        m = unipotent_matrix(H.q, p)
        idq = FpMatrix.identity(H.q, p)
        ok = ok and action_matrix(H, "a", "e", change) == kron(m, idq)
        ok = ok and action_matrix(H, "b", "e", change) == kron(idq, m)
    elapsed = time.perf_counter() - start
    record(2, ok and elapsed < 1.0, f"e-basis actions equal kron, {elapsed:.3f}s")


def test_criterion_03_module_rank():
    start = time.perf_counter()
    ok = True
    for p, h in SECTION_CASES:
        chain = gamma_chain(AbelianH(p, h))
        ok = ok and min_generators_local(chain.top, chain.shifts) == p**h
    elapsed = time.perf_counter() - start
    record(3, ok and elapsed < 1.0, f"top module rank equals q, {elapsed:.3f}s")


def test_criterion_04_group_rank():
    start = time.perf_counter()
    ok = True
    for p, h in [(2, 1), (2, 2), (3, 1)]:
        bundle = build_bundle(ConstructionParams(p, h))
        rank = frattini_rank(bundle.small_group, p)
        ok = ok and rank == p**h + 2
    elapsed = time.perf_counter() - start
    record(4, ok and elapsed < 30.0, f"small-group rank equals q+2, {elapsed:.1f}s")


def test_criterion_05_checklist_2_2():
    start = time.perf_counter()
    bundle = build_bundle(ConstructionParams(2, 2))
    graph = bundle.graph
    ok = graph.n == 32 and graph.valency() == 8 and graph.is_connected()
    ok = ok and is_vertex_transitive(graph, bundle.small_group)
    _, orbits = local_action(graph, bundle.small_group, 0)
    ok = ok and orbits == 4
    ok = ok and arc_orbit_size(graph, bundle.big_group) == 2 * graph.m
    ok = ok and arc_orbit_size(graph, bundle.big_group) == 256
    rank = frattini_rank(bundle.big_group, 2)
    ok = ok and rank >= 4
    report = verify_theorem1(ConstructionParams(2, 2))
    ok = ok and report.all_pass and not report.any_skipped
    elapsed = time.perf_counter() - start
    record(5, ok and elapsed < 60.0, f"(2,2) checklist, exact rank {rank}, {elapsed:.1f}s")


def test_criterion_06_checklist_3_1():
    start = time.perf_counter()
    report = verify_theorem1(ConstructionParams(3, 1))
    ok = report.n == "27" and report.valency == "12"
    for cid in ("C1", "C2", "C3", "C4", "C5", "C6", "C7"):
        ok = ok and report.claim(cid).status == "pass"
    c8 = report.claim("C8")
    ok = ok and c8.computed == "lower_bound=4,not_directly_computed"
    ok = ok and c8.status == "pass"
    elapsed = time.perf_counter() - start
    record(6, ok and elapsed < 60.0, f"(3,1) checklist with reported C8 bound, {elapsed:.1f}s")


def test_criterion_07_rank_growth():
    caps = Caps(time_cap_s=600)
    ranks = {}
    for h in (1, 2):
        bundle = build_bundle(ConstructionParams(2, h, caps=caps))
        ranks[h] = frattini_rank(bundle.big_group, 2)
    ok = ranks[1] < ranks[2]
    detail = f"rank growth {ranks[1]} < {ranks[2]}"
    try:
        start = time.perf_counter()
        asm = Bundle(ConstructionParams(2, 3, caps=caps))
        gens = family_generators(asm)
        big3 = PermGroup(
            [*asm.module_gens, *gens["translations"], *gens["outer"]],
            degree=asm.graph.n,
            caps=caps,
        )
        rank3 = frattini_rank(big3, 2)
        elapsed3 = time.perf_counter() - start
        ok = ok and ranks[2] < rank3 and elapsed3 < 600.0
        detail += f" < {rank3} ({elapsed3:.1f}s for h=3)"
    except CapExceeded:
        detail += "; h=3 skipped (10-minute chain cap)"
    record(7, ok, detail)


def test_criterion_08_semidirect_consistency():
    start = time.perf_counter()
    ok = True
    for p, h in [(2, 2), (3, 1)]:
        bundle = build_bundle(ConstructionParams(p, h))
        ok = ok and semidirect_consistency(bundle)
    elapsed = time.perf_counter() - start
    record(8, ok and elapsed < 10.0, f"conjugation identities exact, {elapsed:.1f}s")


def test_criterion_09_bound_harness():
    start = time.perf_counter()
    instances = []
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    instances.append(
        VTInstance(c5, PermGroup([Perm([1, 2, 3, 4, 0]), Perm([0, 4, 3, 2, 1])]))
    )
    H = AbelianH(2, 2)
    delta = torus_graph(H.q)

    def translation(t):
        return Perm([H.index(*H.mul(H.element(k), t)) for k in range(H.order)])

    instances.append(
        VTInstance(delta, PermGroup([translation((1, 0)), translation((0, 1))]))
    )
    bundle = build_bundle(ConstructionParams(2, 2))
    instances.append(VTInstance(bundle.graph, bundle.big_group))
    ok = True
    for inst in instances:
        rep = bound_report(inst)
        for g, beta in zip(rep.connection_gens, inst.graph.neighbors(0)):
            ok = ok and g(0) == beta
        ok = ok and rep.d == inst.graph.valency()
        ok = ok and rep.n <= rep.H_order
        ok = ok and rep.G_order <= rep.H_order * math.factorial(rep.n - 1)
        ok = ok and rep.decomposition_ok and rep.size_bound_ok and rep.generation_ok
    elapsed = time.perf_counter() - start
    record(9, ok and elapsed < 60.0, f"bound harness on 3 instances, {elapsed:.1f}s")


def test_criterion_10_frattini_oracle_equivalence():
    start = time.perf_counter()
    # every 2-group of order <= 2^10 that the suite touches
    groups = {}
    groups["C4"] = PermGroup([Perm([1, 2, 3, 0])])
    groups["C8"] = PermGroup([Perm([(i + 1) % 8 for i in range(8)])])
    groups["Klein"] = PermGroup([Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2])])
    groups["E8"] = PermGroup(
        [Perm([1, 0, 2, 3, 4, 5]), Perm([0, 1, 3, 2, 4, 5]), Perm([0, 1, 2, 3, 5, 4])]
    )
    groups["D4"] = PermGroup([Perm([1, 2, 3, 0]), Perm([0, 3, 2, 1])])
    groups["D8"] = PermGroup(
        [Perm([(i + 1) % 8 for i in range(8)]), Perm([(-i) % 8 for i in range(8)])]
    )
    groups["Q8"] = PermGroup(
        [Perm([2, 3, 1, 0, 7, 6, 4, 5]), Perm([4, 5, 6, 7, 1, 0, 3, 2])]
    )
    # iterated wreath product C2 wr C2 wr C2 (a Sylow 2-subgroup of S8)
    groups["W3"] = PermGroup(
        [
            Perm([1, 0, 2, 3, 4, 5, 6, 7]),
            Perm([2, 3, 0, 1, 4, 5, 6, 7]),
            Perm([4, 5, 6, 7, 0, 1, 2, 3]),
        ]
    )
    b21 = build_bundle(ConstructionParams(2, 1))
    groups["small(2,1)"] = b21.small_group
    groups["big(2,1)"] = b21.big_group
    # the translation group extended by both outer symmetries, q = 4
    H = AbelianH(2, 2)

    def on_delta(act):
        return Perm([H.index(*act(H.element(k))) for k in range(H.order)])

    groups["HxK4(q=4)"] = PermGroup(
        [
            on_delta(lambda x: H.mul(x, (1, 0))),
            on_delta(lambda x: H.mul(x, (0, 1))),
            on_delta(lambda x: (x[1], x[0])),
            on_delta(lambda x: H.inv(x)),
        ]
    )
    ok = True
    details = []
    for name, G in groups.items():
        order = G.order()
        assert order <= 2**10 and order & (order - 1) == 0
        rank = frattini_rank(G, 2)
        brute = brute_force_min_generators(G)
        ok = ok and rank == brute
        details.append(f"{name}:{rank}")
    elapsed = time.perf_counter() - start
    record(
        10,
        ok and elapsed < 300.0,
        f"rank agrees with subset search [{', '.join(details)}], {elapsed:.1f}s",
    )
