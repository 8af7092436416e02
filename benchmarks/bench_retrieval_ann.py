"""Engineering benchmark: IVF-indexed vs exact retrieval at scale.

The semantic cache's exact backend scans every live slot per query — one
masked matrix-vector product, fine at the paper's 100k operating point
but linear in cache size.  The IVF backend (``retrieval_backend="ivf"``)
probes only the ``nprobe`` nearest coarse cells and re-ranks their
members exactly, making the per-query cost sublinear.  This bench pins
the trade at production scales:

* per-query latency of the exact masked-argmax path vs the IVF path,
  against caches of 100k / 1M entries (smoke stops at 100k);
* recall@1 and recall@10 of the IVF path against exact ground truth.

The workload is the clustered geometry a semantic cache accumulates:
entries drawn around seeded topic directions, queries arriving as noisy
near-duplicates of cached entries (the cache-hit regime MoDM exploits).

Acceptance: at the largest scale in the run the IVF path must be
>= MIN_SPEEDUP x faster with recall@1 >= RECALL_FLOOR.  Results are
written unconditionally to ``benchmarks/results/retrieval_ann.json``
and the repo-root ``BENCH_retrieval_ann.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro._rng import rng_for
from repro.core.ann import IVFParams
from repro.core.cache import VectorCache
from repro.experiments.reporting import ExperimentResult

import _output
from conftest import bench_scale

EMBED_DIM = 50  # matches SemanticSpace().config.embed_dim
N_QUERIES = 32  # timed queries
N_RECALL_QUERIES = 256  # recall sample (exact ground truth per query)
TOPK = 10
SIZES = (100_000, 1_000_000)
#: Probe width per cache size — recall@1 falls with the probed
#: *fraction* (nprobe/nlist), so the 1M point (nlist=1000) probes more
#: cells; both operating points clear the recall floor with margin
#: (0.97 at 100k, 0.98 at 1M) while staying well under a tenth of the
#: cache scanned.
NPROBE = {100_000: 32, 1_000_000: 96}

RECALL_FLOOR = 0.95
#: Speedup floors at the largest size of each run scale: 10x is the
#: 1M-entry acceptance bar (measured ~18x); smoke (100k on shared CI
#: runners, measured ~7x) gates a conservative 3x so noisy runners
#: don't flake the job.
MIN_SPEEDUP = {100_000: 3.0, 1_000_000: 10.0}


def _build_cache(n_entries: int, nprobe: int):
    """``(cache, matrix)``: an IVF-backed cache filled with the rows
    of ``matrix`` (clustered topic embeddings), slot ``i`` holding entry
    ``i``."""
    rng = rng_for("bench-retrieval-ann", n_entries)
    n_topics = max(64, n_entries // 250)
    topics = rng.standard_normal((n_topics, EMBED_DIM))
    topics /= np.linalg.norm(topics, axis=1, keepdims=True)
    matrix = topics[rng.integers(0, n_topics, n_entries)]
    matrix = matrix + 0.25 * rng.standard_normal(
        (n_entries, EMBED_DIM)
    )
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    cache = VectorCache(
        capacity=n_entries,
        embed_dim=EMBED_DIM,
        backend="ivf",
        ann=IVFParams(nprobe=nprobe, seed="bench-retrieval-ann"),
    )
    for i in range(n_entries):
        cache.insert(i, matrix[i], now=float(i))
    return cache, matrix


def _queries(matrix: np.ndarray, n_queries: int) -> np.ndarray:
    """Noisy near-duplicates of cached entries (the cache-hit regime)."""
    n_entries = matrix.shape[0]
    rng = rng_for("bench-retrieval-ann", "queries", n_entries)
    picks = rng.choice(n_entries, size=n_queries, replace=False)
    queries = matrix[picks] + 0.1 * rng.standard_normal(
        (n_queries, EMBED_DIM)
    )
    return queries / np.linalg.norm(queries, axis=1, keepdims=True)


def _recall(cache: VectorCache, matrix: np.ndarray, queries: np.ndarray):
    """(recall@1, recall@TOPK) of the IVF path vs exact ground truth
    (entry ids are row indices of ``matrix``)."""
    hit1 = 0
    hitk = 0
    for query in queries:
        truth, sims = _exact_retrieve(matrix, query)
        truth_topk = set(np.argpartition(sims, -TOPK)[-TOPK:].tolist())
        found, _ = cache.retrieve(query)
        hit1 += found.entry_id == truth
        found_topk = {
            e.entry_id for e, _ in cache.retrieve_topk(query, TOPK)
        }
        hitk += len(found_topk & truth_topk)
    return hit1 / len(queries), hitk / (len(queries) * TOPK)


def _exact_retrieve(matrix: np.ndarray, query: np.ndarray):
    """The exact backend's scan of a full cache: one matrix-vector
    product over every row, then ``argmax``."""
    qnorm = float(np.linalg.norm(query))
    sims = matrix @ (query / qnorm)
    return int(np.argmax(sims)), sims


def _per_query_s(fn, repeats=3) -> float:
    fn()  # warm BLAS paths / train the index outside the timed region
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats / N_QUERIES


def test_retrieval_ann(benchmark):
    sizes = [
        s for s in SIZES if bench_scale() != "smoke" or s <= 100_000
    ]

    def experiment() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="retrieval-ann",
            title="IVF-indexed vs exact retrieval at scale",
            paper_reference=(
                "§5.2 retrieval budget, extended to million-entry "
                "caches via an IVF index"
            ),
        )
        for n_entries in sizes:
            nprobe = NPROBE[n_entries]
            cache, matrix = _build_cache(n_entries, nprobe)
            # Recall on a wide sample before timing (trains the index).
            recall_1, recall_k = _recall(
                cache, matrix, _queries(matrix, N_RECALL_QUERIES)
            )
            timed = _queries(matrix, N_RECALL_QUERIES)[:N_QUERIES]
            exact_s = _per_query_s(
                lambda: [_exact_retrieve(matrix, q) for q in timed]
            )
            ivf_s = _per_query_s(
                lambda: [cache.retrieve(q) for q in timed]
            )
            result.add_row(
                entries=n_entries,
                nlist=cache.index.nlist,
                nprobe=nprobe,
                exact_ms=exact_s * 1e3,
                ivf_ms=ivf_s * 1e3,
                speedup=exact_s / ivf_s,
                recall_at_1=recall_1,
                recall_at_k=recall_k,
                scan_entries_modelled=cache.scan_entries(),
            )
        return result

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print()
    print(result.render())
    _output.write_json(
        "retrieval_ann",
        {
            "scale": bench_scale(),
            **_output.result_payload(result),
        },
        also_root="BENCH_retrieval_ann.json",
    )
    _output.emit(result)

    top = max(sizes)
    by_size = {row["entries"]: row for row in result.rows}
    assert by_size[top]["speedup"] >= MIN_SPEEDUP[top]
    for row in result.rows:
        assert row["recall_at_1"] >= RECALL_FLOOR
        # The modelled scheduler-side cost must be sublinear too.
        assert row["scan_entries_modelled"] < row["entries"] / 5
