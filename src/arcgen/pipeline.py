"""Assemble the family pairs (graph, group) and check every claim.

The family member for parameters (p, h) is the wreath-product graph on
p * q^2 vertices (q = p^h) together with two groups of automorphisms,
realized here as explicit vertex permutations:

* the small group M ⋊ T, generated by the q layer vectors e_(x, q-1-x) of
  the top filtration module M, acting on copy indices, and the two
  translations a and b of the base Cayley graph: q + 2 generators, and
* the big group, which extends the small one by the swap and inversion
  symmetries phi and psi: q + 4 generators.

Both commands read one staged :class:`Bundle`. Vertex (x, c), with x a
group element and c a copy index, has index index(x) * p + c; this single
convention is shared with the graph builder. The module acts by
(x, c) -> (x, c + coeff_x), translations and outer symmetries act on the
first coordinate only. The q(q+1)/2 permutations of M's whole basis are
made only for `construct`, whose files list them in place of the layer.

Conjugation identities between the permutation model and the algebra-side
right actions are the designated tripwire for convention drift.
`build_bundle`, behind the `construct` command, runs every tripwire: the
automorphism checks, the order formulas and `semidirect_consistency`.
`verify_theorem1`, behind `verify-t1`, checks the small group's order
formula (`Bundle.check_generation`) once a claim has built its chain, so
no claim reads a proper subgroup; it does not run
`semidirect_consistency`, although once the bundle's stages are built the
check costs a small share of a fresh `verify-t1` process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .field_linalg import FpSubspace, is_prime
from .graph_builder import Graph, build_family_graph
from .group_algebra import (
    AbelianH,
    EBasisChange,
    GammaChain,
    build_e_basis,
    gamma_chain,
    min_generators_local,
    outer_action,
    section_dims,
)
from .perm_group import (
    FibreShifts,
    Perm,
    PermGroup,
    arc_orbit_size,
    frattini_rank,
    is_automorphism,
    is_vertex_transitive,
    local_action,
)

__all__ = [
    "ConstructionParams",
    "Bundle",
    "ClaimResult",
    "ClaimReport",
    "group_vertex_action",
    "family_generators",
    "build_bundle",
    "semidirect_consistency",
    "verify_theorem1",
    "CLAIM_IDS",
]

CLAIM_IDS = ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"]


@dataclass(frozen=True)
class ConstructionParams:
    """Family parameters plus resource limits."""

    p: int
    h: int
    caps: Caps = DEFAULT_CAPS

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if self.h < 1:
            raise ValueError("h must be at least 1")

    @property
    def q(self) -> int:
        return self.p**self.h

    @property
    def degenerate(self) -> bool:
        return self.p == 2 and self.h == 1


class Bundle:
    """One family member, built stage by stage on first use.

    The stages are the family graph, the algebra (H with its ambient
    check, the basis change, the filtration, the top space, the layer and,
    for `construct`, the module basis), the generators, and the two
    groups. Each stage is a cached property, so it is built at most once.
    A stage that raised CapExceeded is not cached and raises again on the
    next access; that costs nothing, because every cap check (vertex in
    build_family_graph, ambient in H) runs before any expensive work.
    """

    def __init__(self, params: ConstructionParams):
        self.params = params

    @property
    def degenerate(self) -> bool:
        return self.params.degenerate

    @cached_property
    def graph(self) -> Graph:
        params = self.params
        return build_family_graph(params.p, params.h, params.caps)

    @cached_property
    def H(self) -> AbelianH:
        H = AbelianH(self.params.p, self.params.h)
        if H.ambient > self.params.caps.ambient_cap:
            raise CapExceeded(
                "ambient",
                self.params.caps.ambient_cap,
                f"group algebra needs ambient dimension {H.ambient}",
            )
        return H

    @cached_property
    def change(self) -> EBasisChange:
        return build_e_basis(self.H)

    @cached_property
    def chain(self) -> GammaChain:
        return gamma_chain(self.H, self.change)

    @property
    def top_space(self) -> FpSubspace:
        return self.chain.top

    @cached_property
    def module_basis(self) -> np.ndarray:
        """Rows e_xy with x + y >= q - 1, in e-index order, natural coordinates.

        The full basis of the top module, for `construct`'s files and
        tripwires; the groups are generated by the layer. gamma_chain
        proved that the top term is the span of exactly those unit
        rows, and e_xy expands to the outer product P[:, x] ⊗ P[:, y]: one
        broadcast multiply, no F_p product, exact in int64 as entries stay
        below p^2 < 2^62.
        """
        x, y = np.divmod(self.top_space.pivots, self.params.q)
        return self._outer_rows(x, y)

    @cached_property
    def layer_basis(self) -> np.ndarray:
        """The q rows e_(x, q-1-x), x = 0 .. q-1, in natural coordinates.

        They span the top module modulo its augmentation images under a
        and b (C6 proves that q rows are needed), so with a and b they
        generate the small group; `check_generation` asserts its order.
        """
        x = np.arange(self.params.q)
        return self._outer_rows(x, x[::-1])

    def _outer_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # e_xy = P[:, x] ⊗ P[:, y], one row per pair
        q, p = self.params.q, self.params.p
        cols = self.change.P.a.T  # row x is column x of P
        return (cols[x, :, None] * cols[y, None, :] % p).reshape(len(x), q * q)

    @cached_property
    def generators(self) -> dict:
        # the graph stage goes first, so its cap names the skip when both fire
        self.graph
        return family_generators(self)

    @cached_property
    def module_gens(self) -> list[Perm]:
        """The module_basis rows as permutations, for `construct` only."""
        return _copy_shifts(self.module_basis, self.params.p)

    @property
    def layer_gens(self) -> list[Perm]:
        return self.generators["layer"]

    @property
    def translation_gens(self) -> tuple[Perm, Perm]:
        return self.generators["translations"]

    @property
    def outer_gens(self) -> tuple[Perm, Perm]:
        return self.generators["outer"]

    @cached_property
    def small_group(self) -> PermGroup:
        """The layer, then a and b: q + 2 generators."""
        gens = [*self.layer_gens, *self.translation_gens]
        return PermGroup(gens, degree=self.graph.n, caps=self.params.caps)

    @cached_property
    def big_group(self) -> PermGroup:
        """The small group, then phi and psi; its chain extends a copy of the small one's."""
        return PermGroup._extension(self.small_group, self.outer_gens)

    @property
    def big_to_small_ratio(self) -> int:
        return self.big_group.order() // self.small_group.order()

    def check_generation(self) -> None:
        """Assert |small group| = p^dim(top) * q^2, the order of M ⋊ T.

        Its generators lie in M ⋊ T, so this proves that they generate it;
        a group short of some layer row would pass C4, C7 and C8 vacuously.
        """
        p, q = self.params.p, self.params.q
        if self.small_group.order() != p**self.top_space.dim * q * q:
            raise AssertionError("small group order does not match the embedding")


def _copy_shifts(rows: np.ndarray, p: int) -> list[Perm]:
    """Vertex (x, c) -> (x, c + row[x]) for each reduced coefficient row: its fibre translation."""
    return [Perm(row) for row in FibreShifts(rows.shape[1] * p, p).perms(rows)]


def group_vertex_action(bundle: Bundle, item) -> Perm:
    """Vertex permutation of a group element or outer symmetry.

    `item` is an element (i, j) of H, or one of the strings "a", "b",
    "phi", "psi" (see `AbelianH.index_map`). Vertex (x, c) maps to
    (image of x, c): copy indices are untouched.
    """
    p = bundle.params.p
    targets = bundle.H.index_map(item)
    return Perm((targets[:, None] * p + np.arange(p)).reshape(-1))


def family_generators(bundle: Bundle) -> dict:
    """The generating permutations of both groups, keyed by role."""
    return {
        "layer": _copy_shifts(bundle.layer_basis, bundle.params.p),
        "translations": tuple(group_vertex_action(bundle, s) for s in ("a", "b")),
        "outer": tuple(group_vertex_action(bundle, s) for s in ("phi", "psi")),
    }


def semidirect_consistency(bundle: Bundle) -> bool:
    """Conjugation in the permutation model matches the algebra action.

    For every module basis vector v and every s in {a, b, phi, psi}:
    perm(s)^-1 * perm(v) * perm(s) must equal perm(v . s), with v . s
    computed on the algebra side. A False return is a construction
    defect, not an input error.
    """
    H, basis = bundle.H, bundle.module_basis
    # asserts that phi and psi leave every filtration term invariant
    outer_action(H, bundle.change)
    (a, b), (phi, psi) = bundle.translation_gens, bundle.outer_gens
    for s, name in ((a, "a"), (b, "b"), (phi, "phi"), (psi, "psi")):
        # v . s moves the coefficient at element k to element index_map(s)[k].
        # It stays in the top term F_p[H] I^(q-1), an ideal, so a and b keep
        # it, and outer_action has just shown that phi and psi keep every
        # term: only the vertex images need comparing.
        rows = np.empty_like(basis)
        rows[:, H.index_map(name)] = basis
        moved = _copy_shifts(rows, bundle.params.p)
        s_inv = s.inverse()
        for vperm, mperm in zip(bundle.module_gens, moved):
            if s_inv * vperm * s != mperm:
                return False
    return True


def build_bundle(params: ConstructionParams) -> Bundle:
    """Assemble everything and assert every structural invariant.

    Raises CapExceeded if the caps do not admit the construction and
    AssertionError on any internal consistency failure (automorphism
    checks, order formulas, the conjugation tripwire).
    """
    bundle = Bundle(params)
    graph = bundle.graph
    gens = [*bundle.layer_gens, *bundle.module_gens, *bundle.translation_gens, *bundle.outer_gens]
    for perm in gens:
        if not is_automorphism(graph, perm):
            raise AssertionError("constructed permutation is not an automorphism")
    bundle.check_generation()
    small, big = bundle.small_group, bundle.big_group
    if big.order() % small.order() != 0:
        raise AssertionError("small group index is not integral")
    ratio = bundle.big_to_small_ratio
    # psi acts trivially when q = 2, so the extension halves there
    expected_ratio = 2 if params.degenerate else 4
    if ratio != expected_ratio:
        raise AssertionError(
            f"outer extension has index {ratio}, expected {expected_ratio}"
        )
    if not semidirect_consistency(bundle):
        raise AssertionError("semidirect conjugation identities failed")
    return bundle


# -- claim checklist ---------------------------------------------------------


@dataclass
class ClaimResult:
    claim_id: str
    expected: str
    computed: str
    status: str  # "pass" | "fail" | "skipped"
    elapsed_ms: int

    def line(self) -> str:
        return (
            f"{self.claim_id} {self.expected} {self.computed} "
            f"{self.status} {self.elapsed_ms}"
        )


@dataclass
class ClaimReport:
    p: int
    h: int
    n: str
    valency: str
    big_order: str
    degenerate: bool
    claims: list[ClaimResult] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.claims if c.status != "skipped")

    @property
    def any_failed(self) -> bool:
        return any(c.status == "fail" for c in self.claims)

    @property
    def any_skipped(self) -> bool:
        return any(c.status == "skipped" for c in self.claims)

    def claim(self, claim_id: str) -> ClaimResult:
        for c in self.claims:
            if c.claim_id == claim_id:
                return c
        raise KeyError(claim_id)

    def render(self) -> str:
        header = (
            f"family-certificate p={self.p} h={self.h} n={self.n} "
            f"valency={self.valency} big_order={self.big_order} "
            f"degenerate={1 if self.degenerate else 0}"
        )
        return "\n".join([header] + [c.line() for c in self.claims]) + "\n"


def verify_theorem1(params: ConstructionParams) -> ClaimReport:
    """Run the full claim checklist C1..C9 for one family member.

    A cap exceedance marks only the claims that needed the missing
    resource as skipped; everything else still runs. Claim statuses are
    exact comparisons, never tolerances.
    """
    p, h, q = params.p, params.h, params.q
    degenerate = params.degenerate
    bundle = Bundle(params)

    claims: list[ClaimResult] = []

    def run(claim_id: str, expected: str, fn) -> None:
        start = time.perf_counter()
        try:
            computed, ok = fn()
            status = "pass" if ok else "fail"
        except CapExceeded as exc:
            computed = f"skipped:{exc.cap_name}_cap"
            status = "skipped"
        elapsed = int((time.perf_counter() - start) * 1000)
        claims.append(ClaimResult(claim_id, expected, computed, status, elapsed))

    expected_valency = 2 * p if degenerate else 4 * p
    c1_expected = f"valency={expected_valency}" + ("(degenerate)" if degenerate else "")

    def c1():
        val = bundle.graph.valency()
        return f"valency={val}", val == expected_valency

    run("C1", c1_expected, c1)

    def c2():
        conn = bundle.graph.is_connected()
        return f"connected={str(conn).lower()}", conn

    run("C2", "connected=true", c2)

    def c3():
        ok = is_vertex_transitive(bundle.graph, bundle.small_group)
        return f"transitive={str(ok).lower()}", ok

    run("C3", "transitive=true", c3)

    def c4():
        small, graph = bundle.small_group, bundle.graph
        # first, so an order cap skips C4 at once; G_0 moves the default
        # arc's head N(0)[0] as induced moves 0
        induced, orbit_count = local_action(graph, small, 0)
        bundle.check_generation()
        arc_trans = len(small.orbit(0)) * len(induced.orbit(0)) == 2 * graph.m
        computed = f"arc_transitive={str(arc_trans).lower()},orbits={orbit_count}"
        return computed, (not arc_trans) and orbit_count == 4

    run("C4", "arc_transitive=false,orbits=4", c4)

    def c5():
        big, graph = bundle.big_group, bundle.graph
        size = arc_orbit_size(graph, big)
        return f"arc_orbit={size}", size == 2 * graph.m

    def c5_expected():
        try:
            return f"arc_orbit={2 * bundle.graph.m}"
        except CapExceeded:
            return "arc_orbit=all"

    run("C5", c5_expected(), c5)

    def c6():
        rank = min_generators_local(bundle.top_space, bundle.chain.shifts)
        return f"module_rank={rank}", rank == q

    run("C6", f"module_rank={q}", c6)

    def c7():
        bundle.check_generation()  # first, so the small group's stages name the skip
        rank = frattini_rank(bundle.small_group, p)
        return f"rank={rank}", rank == q + 2

    run("C7", f"rank={q + 2}", c7)

    bound = -(-q // 4) + 3  # ceil(q / 4) + 3

    def c8():
        if p == 2:
            big = bundle.big_group
            rank = frattini_rank(big, 2)
            # exact integer form of rank >= q/4 + 3
            return f"rank={rank}", 4 * rank >= q + 12
        return f"lower_bound={bound},not_directly_computed", True

    run("C8", f"rank>={bound}", c8)

    sections = [min(i + 1, 2 * q - 1 - i) for i in range(2 * q - 1)]

    def c9():
        dims = section_dims(bundle.chain)
        return "dims=" + ",".join(map(str, dims)), dims == sections

    run("C9", "dims=" + ",".join(map(str, sections)), c9)

    n_text = valency_text = big_text = "unknown"
    try:
        n_text = str(bundle.graph.n)
        valency_text = str(bundle.graph.valency())
    except CapExceeded:
        pass
    try:
        big_text = str(bundle.big_group.order())
    except CapExceeded:
        pass
    return ClaimReport(
        p=p,
        h=h,
        n=n_text,
        valency=valency_text,
        big_order=big_text,
        degenerate=degenerate,
        claims=claims,
    )
