"""Command-line interface.

Subcommands:
  construct   build one family member and write its graph and generators
  verify-t1   run the construction checklist and print the certificate
  verify-t2   run the bound harness on an instance file

Certificates go to stdout, diagnostics to stderr. Exit codes: 0 all
checks pass, 1 some evaluated check failed, 2 invalid input, 3 a
resource cap fired, 4 all evaluated checks pass but some were skipped
(for verify-t2: the exponent cap fired, so e=skipped:exponent_cap).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .caps import Caps, CapExceeded
from .graph_builder import export_graph
from .harness import InstanceParseError, bound_report, load_instance
from .perm_group import perm_to_line
from .pipeline import ConstructionParams, build_bundle, verify_theorem1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_PARTIAL = 4


def cap(text: str) -> int:
    """An ASCII decimal N, or a power B^E such as 2^20000 up to 2^(2^20)."""
    form = re.fullmatch(r"(\d+)(?:\^(\d+))?", text, re.ASCII)
    if form is None:
        raise ValueError(f"not a decimal N or B^E: {text!r}")
    base, exp = int(form[1]), int(form[2] or 1)
    if (base - 1).bit_length() * exp > 1 << 20:  # B^E <= 2^(E * bits(B - 1))
        raise ValueError("power past 2^(2^20)")
    return base**exp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every `main` call.

    Callers parse with it and never change it. Each build formats every
    option's help, asking the terminal size each time.
    """
    parser = argparse.ArgumentParser(
        prog="arcgen",
        description=(
            "Construct constant-valency arc-transitive family members and "
            "machine-verify the structural claims behind them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_order_cap(p):
        p.add_argument("--order-cap", type=cap, default=None, metavar="N|B^E")

    def add_params(p):
        p.add_argument("--p", type=int, required=True, help="prime p")
        p.add_argument("--h", type=int, required=True, help="exponent h >= 1")

    c = sub.add_parser("construct", help="build a family member and export it")
    add_params(c)
    c.add_argument("--out", required=True, help="output path prefix")
    c.add_argument(
        "--format", choices=["edge-list", "sparse6"], default="edge-list"
    )
    add_order_cap(c)

    t1 = sub.add_parser("verify-t1", help="run the construction checklist")
    add_params(t1)
    add_order_cap(t1)

    t2 = sub.add_parser("verify-t2", help="run the bound harness on an instance")
    t2.add_argument("instance", help="instance file: edge list, blank line, generators")
    add_order_cap(t2)
    t2.add_argument("--exponent-cap", type=cap, default=None, metavar="N|B^E")

    return parser


def _caps_from_args(args) -> Caps:
    kwargs = {}
    if args.order_cap is not None:
        if args.order_cap < 1:
            raise ValueError("order cap must be positive")
        kwargs["order_cap"] = args.order_cap
    if getattr(args, "exponent_cap", None) is not None:
        if args.exponent_cap < 1:
            raise ValueError("exponent cap must be positive")
        kwargs["exponent_cap"] = args.exponent_cap
    return Caps(**kwargs)


def _cmd_construct(args) -> int:
    params = ConstructionParams(p=args.p, h=args.h, caps=_caps_from_args(args))
    bundle = build_bundle(params)
    if bundle.degenerate:
        print(
            "warning: (p, h) = (2, 1) is degenerate, the connection set "
            "collapses and the valency is 2p",
            file=sys.stderr,
        )
    out = Path(args.out)
    suffix = ".edges" if args.format == "edge-list" else ".s6"
    files = {suffix: export_graph(bundle.graph, args.format)}
    small = [*bundle.module_gens, *bundle.translation_gens]
    for ext, gens in ((".big.gens", [*small, *bundle.outer_gens]), (".small.gens", small)):
        files[ext] = ("\n".join(perm_to_line(g) for g in gens) + "\n").encode("ascii")
    for ext, data in files.items():
        path = out.with_name(out.name + ext)
        try:
            path.write_bytes(data)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    print(
        f"{params.p} {params.h} {bundle.graph.n} {bundle.graph.valency()} "
        f"{bundle.big_group.order()}"
    )
    return EXIT_OK


def _cmd_verify_t1(args) -> int:
    params = ConstructionParams(p=args.p, h=args.h, caps=_caps_from_args(args))
    report = verify_theorem1(params)
    sys.stdout.write(report.render())
    if report.any_failed:
        return EXIT_FAIL
    if report.any_skipped:
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_verify_t2(args) -> int:
    path = Path(args.instance)
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    inst = load_instance(text, caps=_caps_from_args(args))
    report = bound_report(inst)
    sys.stdout.write(report.render())
    if not report.all_ok:
        return EXIT_FAIL
    return EXIT_PARTIAL if report.e is None else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "verify-t1": _cmd_verify_t1,
        "verify-t2": _cmd_verify_t2,
    }
    try:
        return handlers[args.command](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InstanceParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
