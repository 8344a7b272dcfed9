"""Bound harness for arbitrary vertex-transitive instances.

Given a finite connected graph and a vertex-transitive group of
automorphisms, the harness extracts one group element per neighbor of a
base vertex (each mapping the base onto that neighbor), builds the
subgroup they generate, and reports every quantity of the order bound:
the subgroup is transitive, the group factors as stabilizer times
subgroup, the vertex count is at most the subgroup order, the group
order is at most subgroup order times (n-1)!, and stabilizer generators
together with the extracted elements generate the whole group.

The factorial bound uses the concrete subgroup order where the abstract
argument would use the restricted-Burnside value for the valency and
exponent; that value is non-effective and intentionally out of scope, so
the report verifies the proof skeleton on witnessed quantities only.
"""

from __future__ import annotations

import math
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
    "verify_generation",
    "bound_report",
]


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
    be an automorphism, and the group must be vertex-transitive.
    """

    graph: Graph
    group: PermGroup
    base_vertex: int = 0

    def __post_init__(self):
        if self.group.degree != self.graph.n:
            raise ValueError(
                "group degree does not match the graph vertex count"
            )
        if not 0 <= self.base_vertex < self.graph.n:
            raise ValueError("base vertex out of range")
        if not is_vertex_transitive(self.graph, self.group):
            raise ValueError("group is not vertex-transitive")
        if not self.graph.is_connected():
            raise ValueError("graph is not connected")


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
    reps = inst.group.transversal(inst.base_vertex, reverse=reverse)
    out = []
    for beta in inst.graph.neighbors(inst.base_vertex):
        g = reps[beta]
        if g(inst.base_vertex) != beta:
            raise AssertionError("transversal element misses its neighbor")
        out.append(g)
    return out


def verify_connection_subgroup(
    inst: VTInstance, gens: list[Perm]
) -> tuple[PermGroup, bool]:
    """Build the subgroup the extracted elements generate; check transitivity."""
    sub = PermGroup(gens, degree=inst.graph.n, caps=inst.group.caps)
    transitive = len(sub.orbit(inst.base_vertex)) == inst.graph.n
    return sub, transitive


def verify_generation(inst: VTInstance, gens: list[Perm]) -> bool:
    """Stabilizer generators plus the extracted elements generate the group."""
    stab = inst.group.stabilizer(inst.base_vertex)
    combined = PermGroup(
        [*stab.generators, *gens], degree=inst.graph.n, caps=inst.group.caps
    )
    return combined.order() == inst.group.order()


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


def bound_report(inst: VTInstance) -> BoundReport:
    """Execute the whole bound procedure and report every quantity.

    The extraction re-runs with a second choice of coset representatives
    and all boolean outcomes must agree; the procedure is
    choice-independent, so a disagreement is a defect and raises
    AssertionError. When only the exponent cap fires, e is None and every
    other quantity is still computed.
    """
    graph, G, base = inst.graph, inst.group, inst.base_vertex
    d = graph.valency()
    gens = connection_generators(inst)
    if len(gens) != d:
        raise AssertionError("expected exactly one element per neighbor")
    for g, beta in zip(gens, graph.neighbors(base)):
        if g(base) != beta:
            raise AssertionError("connection element misses its neighbor")
        if not G.contains(g):
            raise AssertionError("connection element escaped the group")
    H_sub, transitive = verify_connection_subgroup(inst, gens)
    if not transitive:
        raise AssertionError(
            "connection subgroup of a connected instance must be transitive"
        )
    H_order = H_sub.order()
    G_order = G.order()
    G_alpha_order = G.stabilizer(base).order()
    if H_order % graph.n != 0 or G_order % H_order != 0:
        raise AssertionError("Lagrange divisibility failed")
    if graph.n > H_order:
        raise AssertionError("orbit size exceeds the subgroup order")
    try:
        e = exponent(G)
    except CapExceeded as exc:
        if exc.cap_name != "exponent":
            raise
        e = None
    decomposition_ok = frattini_decomposition_check(G, H_sub, base)
    size_bound_ok = graph.n <= H_order and G_order <= H_order * math.factorial(
        graph.n - 1
    )
    generation_ok = verify_generation(inst, gens)
    order_equality = G_order == H_order * G_alpha_order
    gens2 = connection_generators(inst, reverse=True)
    H2, transitive2 = verify_connection_subgroup(inst, gens2)
    second = (
        transitive2,
        frattini_decomposition_check(G, H2, base),
        graph.n <= H2.order()
        and G_order <= H2.order() * math.factorial(graph.n - 1),
        verify_generation(inst, gens2),
    )
    first = (transitive, decomposition_ok, size_bound_ok, generation_ok)
    if first != second:
        raise AssertionError(
            "bound outcomes changed under a different representative choice"
        )
    return BoundReport(
        n=graph.n,
        d=d,
        e=e,
        connection_gens=gens,
        H_order=H_order,
        G_order=G_order,
        G_alpha_order=G_alpha_order,
        decomposition_ok=decomposition_ok,
        size_bound_ok=size_bound_ok,
        generation_ok=generation_ok,
        order_equality=order_equality,
    )
