"""arcgen benchmark: certificate workloads through the CLI, checked exactly.

Usage (from the repository root):

    python3 perfbench/run.py --workload t1-decided --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh process (worker.py) and calls
`arcgen.cli.main(argv)` once per case of the workload, in an order
permuted by the seed; passes repeat, one process after the other, until
`--seconds` have gone by (at least MIN_PASSES). This is a closed loop
with one client. Every certificate is checked against expected.json and
the family's closed forms (cases.py).

With `--trace 0` the last stdout line holds the end-to-end metrics of
the workload. With `--trace 1` it holds the per-layer metrics: one
untraced and one traced pass of every workload (so every layer is
reached; the per-workload split goes to the results file), plus the F_p
kernel probes. Results, provenance and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_PER_PASS = 3
# Stop starting passes when the next one could end past this, so that a
# run stays well inside three minutes even on a slow machine.
WALL_LIMIT_S = 150.0


class BenchError(RuntimeError):
    pass


def _worker(mode: str, workload: str, seed: int, pass_index: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index),
           "--work", str(OUT / f"work-{workload}")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} passed the time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker for {workload} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready" in record:
        record["setup_s"] = record["ready"] - spawned
    return record


def _cert_failures(record: dict) -> tuple[int, int, list[str]]:
    certs = record["setup_certs"] + record.get("certs", [])
    msgs = [f"{c['case']}: {e}" for c in certs for e in c["errors"]]
    return len(certs), sum(bool(c["errors"]) for c in certs), msgs


def _high_percentile(n: int) -> int | None:
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    fitting = [q for q in (50, 90, 99) if n * (100 - q) >= 1000]
    return fitting[-1] if fitting else None


def _provenance(args, passes: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _git_commit(), "machine": platform.machine(),
    }


def _git_commit() -> str | None:
    # The benchmark may run from a checkout that is not a git repository;
    # asking git there could report an enclosing repository instead.
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except FileNotFoundError:
        return None
    return proc.stdout.strip() or None


def _end_to_end(args, start: float) -> tuple[dict, dict, list[dict]]:
    deadline = start + 175.0
    _worker("setup", args.workload, args.seed, -1, deadline)  # warm caches, compile .pyc
    window = time.monotonic()
    setups: list[dict] = []
    passes: list[dict] = []
    while len(passes) < MIN_PASSES or time.monotonic() - window < args.seconds:
        # Set-up samples are taken between the passes, so that they see the
        # same machine speed as the passes do.
        if passes:
            last = passes[-1]["pass_s"] + (SETUP_PER_PASS + 1) * setups[-1]["setup_s"]
            if time.monotonic() + last - start > WALL_LIMIT_S:
                break
        setups += [_worker("setup", args.workload, args.seed, -1, deadline)
                   for _ in range(SETUP_PER_PASS)]
        passes.append(_worker("pass", args.workload, args.seed, len(passes), deadline))
    records = setups + passes
    pass_s = [p["pass_s"] for p in passes]
    decided = sum(c["decided"] for p in passes for c in p["certs"])
    units = sum(c["units"] for p in passes for c in p["certs"])
    metrics = {
        "pass_s": (statistics.median(pass_s), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "decided_frac": (decided / units, "ratio"),
    }
    detail = {
        "pass_s_samples": pass_s,
        "pass_s_high_percentile": _high_percentile(len(pass_s)),
        "setup_s_samples": [r["setup_s"] for r in records],
        "rss_mb_samples": [p["rss_mb"] for p in passes],
        "cert_ms": {cid: [c["ms"] for p in passes for c in p["certs"] if c["case"] == cid]
                    for cid in cases.WORKLOADS[args.workload]},
    }
    return metrics, detail, records


def _per_layer(args, start: float) -> tuple[dict, dict, list[dict]]:
    deadline = start + 175.0
    order = list(cases.WORKLOADS)
    random.Random(f"trace:{args.seed}").shuffle(order)
    layers: dict[str, float] = {}
    by_workload: dict[str, dict] = {}
    records, spans, errors = [], [], []
    plain_s = traced_s = 0.0
    pass_pairs: dict[str, dict] = {}
    for workload in order:
        _worker("setup", workload, args.seed, -1, deadline)
        plain = _worker("pass", workload, args.seed, 0, deadline)
        traced = _worker("trace", workload, args.seed, 0, deadline)
        records += [plain, traced]
        plain_s += plain["pass_s"]
        traced_s += traced["pass_s"]
        pass_pairs[workload] = {"untraced_s": plain["pass_s"], "traced_s": traced["pass_s"]}
        by_workload[workload] = traced.pop("layers")
        for name, value in by_workload[workload].items():
            layers[name] = layers.get(name, 0) + value
        errors += traced.pop("reach_errors")
        spans += [dict(zip(("name", "start", "end", "parent", "cert"), s), workload=workload)
                  for s in traced.pop("spans")]
    layers["perm_group.sift_useful_frac"] = (
        layers["perm_group.sift_residues"] / layers["perm_group.sift_calls"])
    layers["trace_overhead_frac"] = traced_s / plain_s
    probe = _worker("probes", args.workload, args.seed, 0, deadline)
    layers.update(probe["probes"])
    errors += probe["probe_errors"]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    metrics = {name: (layers[name], units[name]) for name in units}
    detail = {"by_workload": by_workload, "pass_s": pass_pairs, "trace_errors": errors,
              "probe_checks": probe["probe_checks"], "probe_failed": probe["probe_failed"]}
    return metrics, detail, records


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(cases.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "arcgen" / "cli.py").is_file():
        print(f"error: no arcgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = cases.check_expected_file(cases.load_expected())
    if problems:
        print("error: expected.json breaks the closed forms:\n" + "\n".join(problems),
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, detail, records = _per_layer(args, start)
        else:
            metrics, detail, records = _end_to_end(args, start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    messages = list(detail.get("trace_errors", []))
    for record in records:
        n, f, msgs = _cert_failures(record)
        attempted += n
        failed += f
        messages += msgs
    if args.trace:
        attempted += detail["probe_checks"]
        failed += detail["probe_failed"]
    for msg in messages:
        print(f"check failed: {msg}", file=sys.stderr)

    passes = sum("pass_s" in r for r in records)
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    report = {"provenance": _provenance(args, passes), "result": result,
              "failed_frac": failed / attempted, "detail": detail, "messages": messages}
    name = f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
