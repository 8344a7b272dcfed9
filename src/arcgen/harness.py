"""Bound harness for arbitrary vertex-transitive instances.

Given a finite connected graph and a vertex-transitive group of
automorphisms, the harness extracts one group element per neighbor of
the base vertex 0 (each mapping the base onto that neighbor), builds the
subgroup they generate, and reports every quantity of the order bound:
the subgroup is transitive, the group factors as stabilizer times
subgroup, the vertex count is at most the subgroup order, the group
order is at most subgroup order times (n-1)!, and stabilizer generators
together with the extracted elements generate the whole group.
The subgroup's orbit of the base vertex is its component, so that walk
is the connectivity check; each group gets one chain, based there.
Generation is read off the product formula: once |G_v|*|H|/|H_v| = |G|
is certified, G = G_v*H lies in <G_v, H>. H is transitive, so the formula
holds by the Frattini argument, and no closure of G_v's chain is built.

The factorial bound uses the concrete subgroup order where the abstract
argument would use the restricted-Burnside value for the valency and
exponent; that value is non-effective and intentionally out of scope, so
the report verifies the proof skeleton on witnessed quantities only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import DEFAULT_CAPS, CapExceeded, Caps
from .graph_builder import Graph, GraphFormatError, parse_edge_list_lines
from .perm_group import (
    Perm,
    PermGroup,
    exponent,
    frattini_decomposition_check,
    is_vertex_transitive,
    perm_to_line,
    perms_from_lines,
)

__all__ = [
    "VTInstance",
    "BoundReport",
    "InstanceParseError",
    "load_instance",
    "connection_generators",
    "verify_connection_subgroup",
    "bound_report",
]

# The base vertex; the group is transitive, so any vertex would serve
BASE = 0


class InstanceParseError(ValueError):
    """Instance file failed to parse; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class VTInstance:
    """A vertex-transitive pair: graph plus automorphism group.

    Validation happens at load: degrees must match, every generator must
    be an automorphism, and the group must be vertex-transitive;
    bound_report checks connectivity.
    """

    graph: Graph
    group: PermGroup

    def __post_init__(self):
        if self.group.degree != self.graph.n:
            raise ValueError(
                "group degree does not match the graph vertex count"
            )
        if not is_vertex_transitive(self.graph, self.group):
            raise ValueError("group is not vertex-transitive")


def load_instance(text: str, caps: Caps = DEFAULT_CAPS) -> VTInstance:
    """Parse an instance file: edge list, blank line, generator lines."""
    lines = text.splitlines()
    try:
        graph, consumed = parse_edge_list_lines(lines, caps=caps)
    except GraphFormatError as exc:
        raise InstanceParseError(exc.bare_message, exc.line) from None
    idx = consumed
    if idx >= len(lines) or lines[idx].strip():
        raise InstanceParseError(
            "expected a blank line between the graph and the generators",
            idx + 1,
        )
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    gens = []
    for offset, line in enumerate(lines[idx:]):
        if not line.strip():
            continue
        try:
            parsed = perms_from_lines([line], degree=graph.n)
        except ValueError as exc:
            raise InstanceParseError(str(exc), idx + offset + 1) from None
        gens.extend(parsed)
    if not gens:
        raise InstanceParseError("no generator lines found", len(lines) + 1)
    group = PermGroup(gens, degree=graph.n, caps=caps)
    return VTInstance(graph=graph, group=group)


def connection_generators(inst: VTInstance, reverse: bool = False) -> list[Perm]:
    """One group element per neighbor of the base vertex, mapping onto it.

    Elements come from the deterministic BFS transversal of the group;
    `reverse` re-runs the BFS with the generator list reversed, which
    exercises a different (equally valid) choice of coset representatives.
    """
    nbrs = inst.graph.neighbors(BASE)
    out = inst.group.transversal(BASE, nbrs, reverse=reverse)
    for g, beta in zip(out, nbrs):
        if g(BASE) != beta:
            raise AssertionError("transversal element misses its neighbor")
    return out


def verify_connection_subgroup(
    inst: VTInstance, gens: list[Perm]
) -> tuple[PermGroup, bool]:
    """Build the subgroup the extracted elements generate; check transitivity."""
    sub = PermGroup(gens, degree=inst.graph.n, caps=inst.group.caps)
    transitive = len(sub.orbit(BASE)) == inst.graph.n
    return sub, transitive


@dataclass
class BoundReport:
    """Every quantity of the order bound; e is None when the exponent cap fired."""

    n: int
    d: int
    e: int | None
    connection_gens: list[Perm]
    H_order: int
    G_order: int
    G_alpha_order: int
    decomposition_ok: bool
    size_bound_ok: bool
    generation_ok: bool
    order_equality: bool

    @property
    def all_ok(self) -> bool:
        return self.decomposition_ok and self.size_bound_ok and self.generation_ok

    def render(self) -> str:
        flag = lambda b: str(b).lower()  # noqa: E731
        e = "skipped:exponent_cap" if self.e is None else self.e
        lines = [
            f"bound-certificate n={self.n} d={self.d} e={e}",
            f"H_order={self.H_order}",
            f"G_order={self.G_order}",
            f"G_alpha_order={self.G_alpha_order}",
        ]
        lines.extend(f"connection_gen {perm_to_line(g)}" for g in self.connection_gens)
        lines.append(f"decomposition_ok={flag(self.decomposition_ok)}")
        lines.append(f"size_bound_ok={flag(self.size_bound_ok)}")
        lines.append(f"generation_ok={flag(self.generation_ok)}")
        lines.append(f"order_equality={flag(self.order_equality)}")
        return "\n".join(lines) + "\n"


def _size_bound_ok(G_order: int, H_order: int, n: int) -> bool:
    """|G| <= |H| * (n-1)!, multiplying |H| by 2, 3, ... only until it reaches |G|."""
    bound = H_order
    for k in range(2, n):
        if bound >= G_order:
            break
        bound *= k
    return G_order <= bound


def _choice_outcomes(inst: VTInstance, gens: list[Perm]) -> tuple[int, tuple]:
    """Check one choice of connection elements; return |H| and its outcomes.

    The outcomes are (decomposition, size bound, generation); generation is
    read off the certified decomposition. H's orbit of the base vertex is
    its component, so a disconnected graph raises ValueError before any
    chain is built; a failed Lagrange check is a defect and raises
    AssertionError. H's chain dies with the call.
    """
    graph, G = inst.graph, inst.group
    H_sub, transitive = verify_connection_subgroup(inst, gens)
    if not transitive:
        raise ValueError("graph is not connected")
    decomposition_ok = frattini_decomposition_check(G, H_sub, BASE)
    H_order, G_order = H_sub.order(), G.order()
    if H_order % graph.n != 0 or G_order % H_order != 0:
        raise AssertionError("Lagrange divisibility failed")
    # n <= |H| holds here, so the size bound rests on |G| <= |H| (n-1)!
    size_bound_ok = _size_bound_ok(G_order, H_order, graph.n)
    # G = G_v H, certified by the product formula, lies in <G_v, H>; H is
    # transitive, so the formula fails only on a defect (Frattini argument)
    generation_ok = decomposition_ok
    return H_order, (decomposition_ok, size_bound_ok, generation_ok)


def bound_report(inst: VTInstance) -> BoundReport:
    """Execute the whole bound procedure and report every quantity.

    Both choices of coset representatives, the BFS transversal over the
    generators and over them reversed, go through the same checks, and
    their outcomes must agree; the procedure is choice-independent, so a
    disagreement is a defect and raises AssertionError. The certificate
    reports the first choice. When only the exponent cap fires, e is None
    and every other quantity is still computed.
    """
    graph, G = inst.graph, inst.group
    gens = connection_generators(inst)
    H_order, outcomes = _choice_outcomes(inst, gens)
    try:
        e = exponent(G)
    except CapExceeded as exc:
        if exc.cap_name != "exponent":
            raise
        e = None
    if _choice_outcomes(inst, connection_generators(inst, reverse=True))[1] != outcomes:
        raise AssertionError(
            "bound outcomes changed under a different representative choice"
        )
    G_order, G_alpha_order = G.order(), G.stabilizer(BASE).order()
    return BoundReport(  # the outcomes fill decomposition_ok .. generation_ok
        graph.n, graph.valency(), e, gens, H_order, G_order, G_alpha_order,
        *outcomes, G_order == H_order * G_alpha_order,
    )
