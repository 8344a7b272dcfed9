"""Spans and counters recorded around the public functions of each layer.

The benchmark wraps functions from its own files; the program is not
changed. Modules such as `arcgen.pipeline` and `arcgen.harness` import
`is_automorphism`, `exponent` and others by name, so every reference to a
wrapped function in every `arcgen` module is replaced, not only the one
in the defining module.

A span is (name, start, end, parent, certificate id); spans are kept in
memory and written out when the benchmark ends. Hot inner methods
(`StabChain.sift`, `StabChain.add_generator`) get counters, not spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ["field_linalg", "group_algebra", "graph_builder", "perm_group", "pipeline", "harness"]

# Constant-time predicates called once per matrix; a span each would
# only measure the tracer.
UNWRAPPED = {"is_prime", "prime_power_exponent"}

# Wrapped by name beyond the modules' `__all__` functions.
EXTRA_FUNCTIONS = {"graph_builder": ["parse_edge_list_lines"]}
METHODS = [
    ("perm_group", "StabChain", "__init__"),
    ("perm_group", "PermGroup", "stabilizer"),
    ("field_linalg", "FpMatrix", "__matmul__"),
    ("field_linalg", "FpSubspace", "image"),
    ("field_linalg", "FpSubspace", "__add__"),
    ("group_algebra", "EBasisChange", "conjugate_to_e"),
]

T1 = {"t1-decided", "t1-capped"}
T2 = {"t2-roundtrip"}
ALL = T1 | T2

# Which workloads must reach each wrapped function (setup included). A
# traced pass that records no call of a function on a workload listed
# here fails. Functions no workload calls are listed with an empty set.
REACH: dict[str, set[str]] = {
    "field_linalg.rref": ALL,
    "field_linalg.kron": set(),
    "field_linalg.unipotent_matrix": set(),
    "field_linalg.mat_inverse": ALL,
    "field_linalg.quotient_dim": set(),
    "field_linalg.FpMatrix.__matmul__": ALL,
    "field_linalg.FpSubspace.image": ALL,
    "field_linalg.FpSubspace.__add__": ALL,
    "group_algebra.build_e_basis": ALL,
    "group_algebra.action_matrix": ALL,
    "group_algebra.gamma_chain": ALL,
    "group_algebra.section_dims": T1,
    "group_algebra.min_generators_local": T1,
    "group_algebra.outer_action": T2,
    "group_algebra.index_lower_bound": T1,
    "group_algebra.algebra_mul": set(),
    "group_algebra.EBasisChange.conjugate_to_e": ALL,
    "graph_builder.cayley": ALL,
    "graph_builder.wreath_product": ALL,
    "graph_builder.empty_graph": ALL,
    "graph_builder.standard_connection": ALL,
    "graph_builder.build_family_graph": ALL,
    "graph_builder.valency": set(),
    "graph_builder.is_connected": set(),
    "graph_builder.is_regular": set(),
    "graph_builder.export_graph": T2,
    "graph_builder.parse_graph": set(),
    "graph_builder.parse_edge_list_lines": T2,
    "perm_group.is_automorphism": ALL,
    "perm_group.orbit_of": set(),
    "perm_group.is_vertex_transitive": T1,
    "perm_group.is_arc_transitive": set(),
    "perm_group.arc_orbit_size": T1,
    "perm_group.local_action": T1,
    "perm_group.frattini_decomposition_check": T2,
    "perm_group.frattini_rank": T1,
    "perm_group.exponent": T2,
    "perm_group.generated": set(),
    "perm_group.normal_closure": {"t1-decided"},
    "perm_group.commutator": {"t1-decided"},
    "perm_group.perm_to_line": T2,
    "perm_group.perms_from_lines": T2,
    "perm_group.StabChain.__init__": ALL,
    "perm_group.PermGroup.stabilizer": ALL,
    "pipeline.assemble": ALL,
    "pipeline.module_vertex_action": ALL,
    "pipeline.group_vertex_action": ALL,
    "pipeline.family_generators": ALL,
    "pipeline.build_bundle": T2,
    "pipeline.semidirect_consistency": T2,
    "pipeline.verify_theorem1": T1,
    "harness.load_instance": T2,
    "harness.connection_generators": T2,
    "harness.verify_connection_subgroup": T2,
    "harness.verify_generation": T2,
    "harness.bound_report": T2,
}


class Tracer:
    """Spans and counters for one process; `cert` tags new spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, cert]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cert = "setup"
        # Summed from the certificates' elapsed_ms column (worker.py).
        self.claim_ms: Counter = Counter()

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.cert]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if after is not None:
                    after(args, result)

        return wrapper

    def _in(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def install(self, modules: dict) -> list[str]:
        """Wrap every public function and the listed methods; return span names."""
        counts = self.counts
        replaced: dict = {}  # original function -> its wrapper
        names = []
        for layer in LAYERS:
            mod = modules[layer]
            fnames = [n for n in mod.__all__ if n not in UNWRAPPED]
            fnames += EXTRA_FUNCTIONS.get(layer, [])
            for fname in fnames:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{fname}"
                replaced[fn] = self.span(name, fn, self._after(name))
                names.append(name)
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "arcgen"]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    setattr(mod, attr, replaced[val])

        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            setattr(cls, meth, self.span(name, getattr(cls, meth), self._after(name)))
            names.append(name)

        chain_cls = modules["perm_group"].StabChain
        sift, add_generator = chain_cls.sift, chain_cls.add_generator

        @functools.wraps(sift)
        def counted_sift(chain, arr, start=0):
            residue, level = sift(chain, arr, start)
            counts["sift_calls"] += 1
            if residue is not None:
                counts["sift_residues"] += 1
            return residue, level

        @functools.wraps(add_generator)
        def counted_add(chain, arr):
            grew = add_generator(chain, arr)
            if self._in("perm_group.normal_closure"):
                counts["closure_tries"] += 1
                counts["closure_adds"] += grew
            return grew

        chain_cls.sift = counted_sift
        chain_cls.add_generator = counted_add
        return names

    def _after(self, name: str):
        counts = self.counts
        if name == "perm_group.StabChain.__init__":
            def after(args, _):
                levels = args[0].levels
                counts["chain_levels"] += len(levels)
                counts["orbit_len_sum"] += sum(len(lv.points) for lv in levels)
            return after
        if name == "field_linalg.FpMatrix.__matmul__":
            def after(args, _):
                a, b = args
                counts["matmul_macs"] += a.rows * a.cols * b.cols
            return after
        if name == "perm_group.exponent":
            def after(args, result):
                if result is not None:
                    counts["exponent_elems"] += args[0].order()
            return after
        return None


def _durations(spans: list[list]) -> list[tuple[str, float, float]]:
    """(name, inclusive seconds or 0 if nested in its own name, self seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        outer, j = True, parent
        while j >= 0:
            if spans[j][0] == name:
                outer = False
                break
            j = spans[j][3]
        dur = end - start
        out.append((name, dur if outer else 0.0, dur - child[i]))
    return out


# metric -> span name whose inclusive time (seconds) it sums
SPAN_SECONDS = {
    "perm_group.chain_build_s": "perm_group.StabChain.__init__",
    "perm_group.stabilizer_s": "perm_group.PermGroup.stabilizer",
    "perm_group.closure_s": "perm_group.normal_closure",
    "perm_group.automorphism_s": "perm_group.is_automorphism",
    "perm_group.arc_orbit_s": "perm_group.arc_orbit_size",
    "perm_group.exponent_s": "perm_group.exponent",
    "field_linalg.matmul_s": "field_linalg.FpMatrix.__matmul__",
    "field_linalg.rref_s": "field_linalg.rref",
    "group_algebra.e_basis_s": "group_algebra.build_e_basis",
    "group_algebra.gamma_chain_s": "group_algebra.gamma_chain",
    "group_algebra.nakayama_s": "group_algebra.min_generators_local",
    "group_algebra.outer_action_s": "group_algebra.outer_action",
    "graph_builder.build_s": "graph_builder.build_family_graph",
    "graph_builder.export_s": "graph_builder.export_graph",
    "graph_builder.parse_s": "graph_builder.parse_edge_list_lines",
    "pipeline.assemble_s": "pipeline.assemble",
    "pipeline.generators_s": "pipeline.family_generators",
    "harness.load_s": "harness.load_instance",
    "harness.bound_report_s": "harness.bound_report",
    "harness.decomposition_s": "perm_group.frattini_decomposition_check",
    "harness.generation_s": "harness.verify_generation",
}
# metric -> span name whose number of calls it counts
SPAN_CALLS = {
    "perm_group.chain_builds": "perm_group.StabChain.__init__",
    "perm_group.stabilizer_calls": "perm_group.PermGroup.stabilizer",
    "perm_group.automorphism_checks": "perm_group.is_automorphism",
    "field_linalg.matmul_calls": "field_linalg.FpMatrix.__matmul__",
    "field_linalg.rref_calls": "field_linalg.rref",
    "group_algebra.gamma_chain_calls": "group_algebra.gamma_chain",
    "graph_builder.build_calls": "graph_builder.build_family_graph",
}
COUNTERS = {
    "perm_group.sift_calls": "sift_calls",
    "perm_group.sift_residues": "sift_residues",
    "perm_group.closure_tries": "closure_tries",
    "perm_group.closure_adds": "closure_adds",
    "perm_group.exponent_elems": "exponent_elems",
    "perm_group.chain_levels": "chain_levels",
    "perm_group.orbit_len_sum": "orbit_len_sum",
    "field_linalg.matmul_macs": "matmul_macs",
}
CLAIM_IDS = [f"C{k}" for k in range(1, 10)]


def summarize(spans: list[list], counts: Counter, claim_ms: Counter) -> dict[str, float]:
    """Per-layer metrics from one set of spans and counters."""
    seconds: Counter = Counter()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for name, inclusive, own in _durations(spans):
        seconds[name] += inclusive
        calls[name] += 1
        self_s[name.split(".")[0]] += own
    out = {m: seconds[s] for m, s in SPAN_SECONDS.items()}
    out.update({m: calls[s] for m, s in SPAN_CALLS.items()})
    out.update({m: counts[c] for m, c in COUNTERS.items()})
    sc = counts["sift_calls"]
    out["perm_group.sift_useful_frac"] = counts["sift_residues"] / sc if sc else 0.0
    out.update({f"pipeline.claim_ms.{c}": claim_ms[c] for c in CLAIM_IDS})
    out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    return out


def reach_errors(workload: str, spans: list[list], wrapped: list[str]) -> list[str]:
    """Wrapped functions this workload should reach but never called."""
    called = {s[0] for s in spans}
    errs = [f"{workload}: {n} recorded no call" for n in wrapped
            if workload in REACH.get(n, ALL) and n not in called]
    errs += [f"{n} is wrapped but has no reach entry" for n in wrapped if n not in REACH]
    return errs
