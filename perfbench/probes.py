"""F_p kernel probes: `FpMatrix @` and `rref` on seeded p = 2 matrices.

Each probe times one library call and then checks the result exactly,
with a check far cheaper than the kernel:

* matmul: Freivalds' test, A(BX) = (AB)X mod p for K seeded 0/1 column
  vectors X. A wrong product passes one vector with probability at most
  1/2, so all K with probability at most 2^-K.
* rref: the input is built as L D U with L, U unit triangular and D the
  first r unit vectors, so its rank is exactly r. The output must be in
  canonical form (pivots 1, pivot columns unit vectors, pivot columns
  increasing, zero rows last), have rank r, be a fixed point of `rref`
  (cheap on an echelon matrix), and span the rows of A, checked as
  A X = A[:, pivots] (R X) mod p for the same K vectors.
"""

from __future__ import annotations

import time

import numpy as np

P = 2
K = 24
SIZES = (256, 1024)
REPEATS = {256: 5, 1024: 1}


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # float64 products of 0/1 matrices are exact while n < 2^53.
    return np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % P


def _rank_r_matrix(rng, n: int, r: int) -> np.ndarray:
    lower = np.tril(rng.integers(0, P, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, P, (n, n)), 1) + np.eye(n, dtype=np.int64)
    return _exact_matmul(lower[:, :r], upper[:r, :])


def _matmul_probe(fl, rng, n: int) -> tuple[list[float], list[str]]:
    a = fl.FpMatrix(rng.integers(0, P, (n, n)), P)
    b = fl.FpMatrix(rng.integers(0, P, (n, n)), P)
    x = rng.integers(0, P, (n, K))
    times, errs = [], []
    for _ in range(REPEATS[n]):
        t0 = time.perf_counter()
        c = a @ b
        times.append(time.perf_counter() - t0)
        if not np.array_equal((c.a @ x) % P, (a.a @ ((b.a @ x) % P)) % P):
            errs.append(f"matmul {n}: Freivalds check failed")
    return times, errs


def _rref_probe(fl, rng, n: int) -> tuple[list[float], list[str]]:
    r = n - n // 8
    a = fl.FpMatrix(_rank_r_matrix(rng, n, r), P)
    x = rng.integers(0, P, (n, K))
    times, errs = [], []
    for _ in range(REPEATS[n]):
        t0 = time.perf_counter()
        red, rank = fl.rref(a)
        times.append(time.perf_counter() - t0)
        R = red.a
        piv = np.argmax(R[:rank] != 0, axis=1)
        if rank != r:
            errs.append(f"rref {n}: rank {rank} != {r}")
        elif R[rank:].any() or not (np.diff(piv) > 0).all():
            errs.append(f"rref {n}: not in echelon form")
        elif not np.array_equal(R[:, piv], np.eye(n, rank, dtype=np.int64)):
            errs.append(f"rref {n}: pivot columns are not unit vectors")
        elif fl.rref(red)[0] != red:
            errs.append(f"rref {n}: not a fixed point of rref")
        elif not np.array_equal((a.a @ x) % P, (a.a[:, piv] @ ((R[:rank] @ x) % P)) % P):
            errs.append(f"rref {n}: row space differs from the input's")
    return times, errs


def run(fl, seed: int) -> tuple[dict[str, float], list[str], int]:
    """Median seconds per probe, exactness failures, and failed probe count."""
    rng = np.random.default_rng([seed, 0xF2])
    metrics, errs, failed = {}, [], 0
    for n in SIZES:
        for kind, probe in (("matmul", _matmul_probe), ("rref", _rref_probe)):
            times, e = probe(fl, rng, n)
            metrics[f"field_linalg.{kind}_{n}_s"] = float(np.median(times))
            errs += e
            failed += bool(e)
    return metrics, errs, failed
