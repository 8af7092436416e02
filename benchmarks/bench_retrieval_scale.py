"""Engineering benchmark: absolute retrieval latency per query.

The exact retrieval core scores a query with one masked matrix-vector
product and ``argmax`` (O(n)), and same-tick arrivals score as one
matrix-matrix product (``retrieve_batch``).  This bench measures
per-query retrieval latency against caches of 1k / 10k / 100k / 1M
entries for both paths:

* ``vectorized`` — the single-query path (matvec + masked argmax);
* ``batched`` — the batch path (one gemm + row argmax), the hot path the
  Request Scheduler uses for same-tick arrival groups.

The embedding dimension matches the repo's semantic space (50).  The
acceptance bars are absolute: at 100k entries the single-query scan stays
within the paper's 0.05 s budget (§5.2), and the batched path is never
slower per query than the single-query path.

``REPRO_BENCH_SCALE=smoke`` stops at 100k entries; other scales include
the 1M point.  Run with ``OPENBLAS_NUM_THREADS=1``: on a small shared
host a threaded gemm can stall on a descheduled BLAS thread for a whole
scheduler tick, which would time the host rather than the scan.
"""

from __future__ import annotations

import time

import numpy as np

from repro._rng import rng_for
from repro.core.cache import VectorCache
from repro.experiments.reporting import ExperimentResult

import _output
from conftest import bench_scale

EMBED_DIM = 50  # matches SemanticSpace().config.embed_dim
N_QUERIES = 32
SIZES = (1_000, 10_000, 100_000, 1_000_000)
#: §5.2: one scan over 100k cached embeddings takes 0.05 s.
BUDGET_100K_S = 0.05


def _build_cache(n_entries: int) -> VectorCache:
    rng = rng_for("bench-retrieval-scale", n_entries)
    matrix = rng.standard_normal((n_entries, EMBED_DIM))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    cache = VectorCache(capacity=n_entries, embed_dim=EMBED_DIM)
    for i in range(n_entries):
        cache.insert(i, matrix[i], now=float(i))
    return cache


def _per_query_s(fn, repeats=7) -> float:
    """Fastest of ``repeats`` timed passes, per query.

    The absolute gates compare two paths at each size, so a burst of
    host steal landing in one pass must not decide them; the minimum is
    the pass least disturbed by the host.
    """
    fn()  # warm BLAS paths and page in the matrix outside the timed region
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best / N_QUERIES


def test_retrieval_scale(benchmark):
    sizes = [s for s in SIZES if bench_scale() != "smoke" or s <= 100_000]
    rng = rng_for("bench-retrieval-scale", "queries")
    queries = rng.standard_normal((N_QUERIES, EMBED_DIM))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)

    def experiment() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="retrieval-scale",
            title="vectorized and batched retrieval latency per query",
            paper_reference="§5.2: 0.05 s scans over 100k cached entries",
        )
        for n_entries in sizes:
            cache = _build_cache(n_entries)
            single_s = _per_query_s(
                lambda: [cache.retrieve(q) for q in queries]
            )
            batch_s = _per_query_s(lambda: cache.retrieve_batch(queries))
            result.add_row(
                entries=n_entries,
                vectorized_ms=single_s * 1e3,
                batched_ms=batch_s * 1e3,
            )
        return result

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print()
    print(result.render())
    _output.emit(result)

    by_size = {row["entries"]: row for row in result.rows}
    assert by_size[100_000]["vectorized_ms"] <= BUDGET_100K_S * 1e3
    for row in result.rows:
        assert row["batched_ms"] <= row["vectorized_ms"]
