"""Workloads, their certificates, and the checks every certificate must pass.

A case is one CLI invocation. Its stdout, with the `elapsed_ms` column of
`verify-t1` claim lines removed, must equal the committed expected output
in `expected.json`, and its exit code must match. Independently of that
file, every certificate is checked against the closed forms of the
family (so the expected file is not merely "what some commit printed"):

    n = p*q^2, valency = 4p, big_order = 4 * p^(q(q+1)/2) * q^2,
    module_rank = q, rank = q + 2, section dims min(i+1, 2q-1-i).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# Raised far past the order of every group the decided cases build
# (the largest, at (3,2), is below 2^80).
RAISED_ORDER_CAP = str(2**400)


def _t1(p: int, h: int, *extra: str) -> list[str]:
    return ["verify-t1", "--p", str(p), "--h", str(h), *extra]


# Each workload: case id -> argv. `{work}` is the per-process input
# directory that set-up fills (only t2-roundtrip has inputs to build).
WORKLOADS: dict[str, dict[str, list[str]]] = {
    "t1-decided": {
        "t1-2-2": _t1(2, 2),
        "t1-3-1": _t1(3, 1),
        "t1-5-1": _t1(5, 1),
        "t1-2-3": _t1(2, 3),
        "t1-3-2-full": _t1(3, 2, "--order-cap", RAISED_ORDER_CAP),
        "t1-7-1-full": _t1(7, 1, "--order-cap", RAISED_ORDER_CAP),
    },
    "t1-capped": {
        "t1-3-2": _t1(3, 2),
        "t1-7-1": _t1(7, 1),
        "t1-2-4": _t1(2, 4),
    },
    "t2-roundtrip": {
        "t2-2-2": ["verify-t2", "{work}/g-2-2.instance"],
        "t2-3-1": ["verify-t2", "{work}/g-3-1.instance"],
    },
}

# Set-up of t2-roundtrip: the `construct` path writes each instance.
T2_INSTANCES = {"construct-2-2": (2, 2), "construct-3-1": (3, 1)}


def construct_argv(p: int, h: int, work: str) -> list[str]:
    return ["construct", "--p", str(p), "--h", str(h), "--out", f"{work}/g-{p}-{h}"]


def strip_elapsed(argv: list[str], stdout: str) -> str:
    """Drop the trailing elapsed_ms field of each verify-t1 claim line."""
    if argv[0] != "verify-t1":
        return stdout
    lines = []
    for line in stdout.splitlines():
        if re.match(r"C\d ", line):
            line = line.rsplit(" ", 1)[0]
        lines.append(line)
    return "\n".join(lines) + "\n"


def claim_elapsed_ms(argv: list[str], stdout: str) -> dict[str, int]:
    """The elapsed_ms field of each verify-t1 claim line, by claim id."""
    if argv[0] != "verify-t1":
        return {}
    return {line.split()[0]: int(line.rsplit(" ", 1)[1])
            for line in stdout.splitlines() if re.match(r"C\d ", line)}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


# -- closed forms ------------------------------------------------------------


def _family(p: int, h: int) -> dict:
    q = p**h
    n = p * q * q
    return {
        "q": q,
        "n": n,
        "valency": 4 * p,
        "big_order": 4 * p ** (q * (q + 1) // 2) * q * q,
        "dims": ",".join(str(min(i + 1, 2 * q - 1 - i)) for i in range(2 * q - 1)),
    }


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _check_construct(p: int, h: int, stdout: str) -> list[str]:
    f = _family(p, h)
    want = f"{p} {h} {f['n']} {f['valency']} {f['big_order']}\n"
    return [] if stdout == want else [f"construct line {stdout!r} != {want!r}"]


def _check_t1(p: int, h: int, code: int, stdout: str) -> list[str]:
    f = _family(p, h)
    q = f["q"]
    errs = []
    lines = stdout.splitlines()
    if len(lines) != 10:
        return [f"expected a header and 9 claim lines, got {len(lines)} lines"]
    head = _fields(lines[0])
    if lines[0].split()[0] != "family-certificate":
        errs.append("header tag")
    for key, want in [("p", p), ("h", h), ("n", f["n"]), ("valency", f["valency"])]:
        if head.get(key) != str(want):
            errs.append(f"header {key}={head.get(key)} != {want}")
    if head.get("big_order") not in (str(f["big_order"]), "unknown"):
        errs.append(f"header big_order={head.get('big_order')} != {f['big_order']}")
    if head.get("degenerate") != "0":
        errs.append("header degenerate flag")
    closed = {
        "C1": f"valency={f['valency']}",
        "C2": "connected=true",
        "C3": "transitive=true",
        "C4": "arc_transitive=false,orbits=4",
        "C5": f"arc_orbit={f['n'] * f['valency']}",
        "C6": f"module_rank={q}",
        "C7": f"rank={q + 2}",
        "C8": f"rank>={-(-q // 4) + 3}",
        "C9": f"dims={f['dims']}",
    }
    statuses = []
    for k, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) not in (4, 5) or parts[0] != f"C{k}":
            errs.append(f"claim line {k} malformed: {line!r}")
            continue
        cid, expected, computed, status = parts[:4]
        statuses.append(status)
        if expected != closed[cid]:
            errs.append(f"{cid} expected {expected} != {closed[cid]}")
        if status == "skipped":
            if not computed.startswith("skipped:"):
                errs.append(f"{cid} skipped without a cap name")
        elif status != "pass":
            errs.append(f"{cid} status {status}")
        elif cid == "C8":
            rank = computed.removeprefix("rank=")
            ok = (computed == f"lower_bound={-(-q // 4) + 3},not_directly_computed"
                  if p != 2 else rank.isdigit() and 4 * int(rank) >= q + 12)
            if not ok:
                errs.append(f"C8 computed {computed}")
        elif computed != expected:
            errs.append(f"{cid} computed {computed} != {expected}")
    want_code = 4 if "skipped" in statuses else 0
    if code != want_code:
        errs.append(f"exit code {code} != {want_code}")
    return errs


def _check_t2(p: int, h: int, code: int, stdout: str) -> list[str]:
    f = _family(p, h)
    n, d, g_order = f["n"], f["valency"], f["big_order"]
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("bound-certificate "):
        return ["missing bound-certificate header"]
    head = _fields(lines[0])
    errs = []
    if head.get("n") != str(n) or head.get("d") != str(d):
        errs.append(f"header n={head.get('n')} d={head.get('d')} != {n} {d}")
    kv = {}
    gens = []
    for line in lines[1:]:
        if line.startswith("connection_gen "):
            gens.append([int(x) for x in line.split()[1:]])
        else:
            kv.update(_fields(line))
    e, h_order = int(head.get("e", 0)), int(kv.get("H_order", 0))
    if kv.get("G_order") != str(g_order):
        errs.append(f"G_order={kv.get('G_order')} != {g_order}")
    if kv.get("G_alpha_order") != str(g_order // n):
        errs.append(f"G_alpha_order={kv.get('G_alpha_order')} != {g_order // n}")
    if not e or g_order % e or not h_order or h_order % n or g_order % h_order:
        errs.append(f"e={e} or H_order={h_order} breaks Lagrange divisibility")
    if len(gens) != d or any(sorted(g) != list(range(n)) for g in gens):
        errs.append("connection generators are not d permutations of the vertices")
    elif len({g[0] for g in gens}) != d:
        errs.append("connection generators do not hit d distinct neighbours")
    for key in ("decomposition_ok", "size_bound_ok", "generation_ok"):
        if kv.get(key) != "true":
            errs.append(f"{key}={kv.get(key)}")
    equal = h_order * (g_order // n) == g_order
    if kv.get("order_equality") != str(equal).lower():
        errs.append(f"order_equality={kv.get('order_equality')} disagrees with the orders")
    if code != 0:
        errs.append(f"exit code {code} != 0")
    return errs


def closed_form_errors(argv: list[str], code: int, stdout: str) -> list[str]:
    """Every way a certificate disagrees with the family's closed forms."""
    if argv[0] == "construct":
        return _check_construct(int(argv[2]), int(argv[4]), stdout)
    if argv[0] == "verify-t1":
        return _check_t1(int(argv[2]), int(argv[4]), code, stdout)
    p, h = (int(x) for x in re.search(r"g-(\d+)-(\d+)\.instance$", argv[1]).groups())
    return _check_t2(p, h, code, stdout)


def certificate_errors(case_id: str, argv: list[str], code: int, stdout: str,
                       expected: dict) -> list[str]:
    """Mismatches against the committed expected output and the closed forms."""
    want = expected[case_id]
    errs = []
    if code != want["exit"]:
        errs.append(f"exit code {code} != expected {want['exit']}")
    if strip_elapsed(argv, stdout) != want["stdout"]:
        errs.append("stdout differs from the expected certificate")
    try:
        return errs + closed_form_errors(argv, code, stdout)
    except (ValueError, KeyError, IndexError, AttributeError) as exc:
        return errs + [f"certificate does not parse: {exc!r}"]


def decided_units(argv: list[str], code: int, stdout: str) -> tuple[int, int]:
    """(decided, attempted): claims evaluated for verify-t1, else certificates."""
    if argv[0] == "verify-t1":
        statuses = [ln.split()[3] for ln in stdout.splitlines()[1:] if len(ln.split()) >= 4]
        return sum(s in ("pass", "fail") for s in statuses), 9
    return int(code in (0, 1) and stdout.startswith("bound-certificate ")), 1


def check_expected_file(expected: dict) -> list[str]:
    """The committed expected outputs themselves satisfy the closed forms."""
    errs = []
    ids = {cid for cases in WORKLOADS.values() for cid in cases} | set(T2_INSTANCES)
    if set(expected) != ids:
        errs.append(f"expected.json cases {sorted(expected)} != {sorted(ids)}")
    argvs = {cid: argv for cases in WORKLOADS.values() for cid, argv in cases.items()}
    argvs.update((cid, construct_argv(p, h, "{work}")) for cid, (p, h) in T2_INSTANCES.items())
    for cid in sorted(ids & set(expected)):
        want = expected[cid]
        errs += [f"{cid}: {e}" for e in
                 closed_form_errors(argvs[cid], want["exit"], want["stdout"])]
    return errs
