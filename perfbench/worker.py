"""One fresh process of the benchmark: set-up, then one pass or the probes.

Run by run.py, never directly. The last line of stdout is a JSON record;
the certificates themselves are captured in memory. Modes:

  setup   import arcgen and build the workload's inputs, then stop
  pass    set-up, then every case of the workload once, in seeded order
  trace   the same pass with spans and counters recorded (tracing.py)
  probes  the F_p kernel probes (probes.py)
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

import cases

ROOT = Path(__file__).resolve().parents[1]


def _import_arcgen():
    sys.path.insert(0, str(ROOT / "src"))
    import arcgen
    import arcgen.cli

    if not Path(arcgen.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported arcgen from {arcgen.__file__}, not from {ROOT / 'src'}")
    return arcgen


def _call(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _setup(main, workload: str, work: Path, expected: dict) -> list[dict]:
    """Build the workload's inputs; return the checked set-up certificates."""
    if workload != "t2-roundtrip":
        return []
    work.mkdir(parents=True, exist_ok=True)
    certs = []
    for cid, (p, h) in cases.T2_INSTANCES.items():
        argv = cases.construct_argv(p, h, str(work))
        code, stdout = _call(main, argv)
        certs.append({"case": cid,
                      "errors": cases.certificate_errors(cid, argv, code, stdout, expected)})
        prefix = work / f"g-{p}-{h}"
        edges = prefix.with_name(prefix.name + ".edges").read_text(encoding="ascii")
        gens = prefix.with_name(prefix.name + ".big.gens").read_text(encoding="ascii")
        prefix.with_name(prefix.name + ".instance").write_text(edges + "\n" + gens, encoding="ascii")
    return certs


def _pass(main, workload: str, seed: int, pass_index: int, work: Path,
          expected: dict, tracer) -> dict:
    order = list(cases.WORKLOADS[workload].items())
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(order)
    certs = []
    start = time.perf_counter()
    for cid, template in order:
        argv = [a.replace("{work}", str(work)) for a in template]
        if tracer is not None:
            tracer.cert = f"{cid}#{pass_index}"
        t0 = time.perf_counter()
        code, stdout = _call(main, argv)
        ms = (time.perf_counter() - t0) * 1000.0
        decided, attempted = cases.decided_units(argv, code, stdout)
        if tracer is not None:
            tracer.claim_ms.update(cases.claim_elapsed_ms(argv, stdout))
        certs.append({
            "case": cid, "ms": ms, "exit": code, "decided": decided, "units": attempted,
            "errors": cases.certificate_errors(cid, argv, code, stdout, expected),
        })
    return {"pass_s": time.perf_counter() - start, "certs": certs}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "pass", "trace", "probes"], required=True)
    ap.add_argument("--workload", choices=list(cases.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    arcgen = _import_arcgen()
    if args.mode == "probes":
        from arcgen import field_linalg

        import probes

        metrics, errs, failed = probes.run(field_linalg, args.seed)
        print(json.dumps({"probes": metrics, "probe_checks": len(metrics),
                          "probe_errors": errs, "probe_failed": failed}))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        modules = {name: getattr(arcgen, name) for name in tracing.LAYERS}
        wrapped = tracer.install(modules)
        cli_main = tracer.span("certificate", arcgen.cli.main)
    else:
        cli_main = arcgen.cli.main

    expected = cases.load_expected()
    work = Path(args.work)
    setup_certs = _setup(cli_main, args.workload, work, expected)
    record = {"ready": time.monotonic(), "setup_certs": setup_certs}
    if args.mode != "setup":
        record.update(_pass(cli_main, args.workload, args.seed, args.pass_index,
                            work, expected, tracer))
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracing.summarize(tracer.spans, tracer.counts, tracer.claim_ms)
        record["reach_errors"] = tracing.reach_errors(args.workload, tracer.spans, wrapped)
        record["spans"] = tracer.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
