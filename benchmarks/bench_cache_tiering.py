"""Tiered cache at scale — recall, resident memory, warm restart.

The ten-million-entry acceptance bench for :mod:`repro.core.tiering`
(ROADMAP: "Ten-million-entry cache tier").  Deterministic and gating in
CI at smoke scale; the committed ``BENCH_cache_tiering.json`` records a
local default-scale (10M-entry) run.  Three claims are checked:

* **Recall** — on a clustered corpus with near-duplicate queries (the
  semantic-cache regime), the tiered cache's top-1 result matches the
  exact brute-force best for >= 95% of queries, despite the
  fp16-precision scan tier.  Ground truth is computed by streaming the
  cold file with ``pread`` chunks — never a whole-corpus memmap pass,
  whose touched pages would count against the resident-memory budget.
* **Memory** — at default (10M) scale the peak resident set stays under
  8 GiB: scan blocks (10M × 50 × 4 B, ~1.9 GiB — fp16 precision
  decoded at write into f32 storage, which doubles the ~0.9 GiB of
  fp16 storage so probes skip a per-cell decode) + hot tier (~0.5
  GiB) + columnar entry state, instead of the ~8 GiB the flat float64
  cache layout would need before counting its IVF blocks.
* **Warm restart** — a fresh cache object restoring the snapshot
  against the durable cold file replays a recorded query/hit phase
  bit-for-bit: same slots, same similarities, same hit rate.
"""

from __future__ import annotations

import gc
import resource
import tempfile
import time

import numpy as np

from repro._rng import rng_for
from repro.core.ann import IVFParams
from repro.core.tiering import TieredCacheConfig, TieredVectorCache

import _output
from conftest import bench_scale

EMBED_DIM = 50  # matches SemanticSpace().config.embed_dim
N_TOPICS = 4096
N_QUERIES = 256
N_REPLAY = 512  # query/hit events in the recorded warm-restart phase
CHUNK = 65_536
#: Hit when similarity clears this; 0.1-noise near-duplicates land
#: around 0.82 at dim 50, so the replay phase mixes hits and misses.
HIT_THRESHOLD = 0.80

#: Per-scale corpus sizing.  ``nprobe`` is tuned for >= 0.95 recall@1 on
#: the clustered workload at each size: probing 12.5% of the cells
#: clears the bar with margin at both sizes, while 3% (nprobe=128 at
#: 10M) measured 0.934 — misses are base rows whose own 0.25-sigma
#: noise assigned them to a cell outside the query's probe set.
SIZING = {
    "smoke": dict(n=200_000, nlist=512, nprobe=64),
    "default": dict(n=10_000_000, nlist=4096, nprobe=512),
    "paper": dict(n=10_000_000, nlist=4096, nprobe=512),
}

RESIDENT_BUDGET_GIB = 8.0


def _topics() -> np.ndarray:
    rng = rng_for("bench-tiering", "topics", N_TOPICS, EMBED_DIM)
    topics = rng.standard_normal((N_TOPICS, EMBED_DIM))
    return topics / np.linalg.norm(topics, axis=1, keepdims=True)


def _chunk_rows(topics: np.ndarray, start: int, count: int) -> np.ndarray:
    """Rows ``[start, start+count)`` of the clustered corpus, generated
    deterministically per chunk so the full corpus never exists in RAM."""
    rng = rng_for("bench-tiering", "rows", start)
    rows = topics[rng.integers(0, N_TOPICS, count)]
    rows = rows + 0.25 * rng.standard_normal((count, EMBED_DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _build_cache(n: int, sizing: dict, cold_dir: str) -> TieredVectorCache:
    topics = _topics()

    def chunks():
        for start in range(0, n, CHUNK):
            yield _chunk_rows(topics, start, min(CHUNK, n - start))

    cache = TieredVectorCache(
        capacity=n,
        embed_dim=EMBED_DIM,
        tiering=TieredCacheConfig(
            hot_capacity=max(1, n // 8),
            promote_hits=1,
            shortlist=32,
            cold_dir=cold_dir,
        ),
        ann=IVFParams(
            nlist=sizing["nlist"],
            nprobe=sizing["nprobe"],
            seed="bench-tiering",
        ),
    )
    cache.bulk_load(chunks, now=0.0)
    return cache


def _queries(cache: TieredVectorCache, n_queries: int, seed: str):
    """Near-duplicate queries of cached rows, plus their base slots.

    At bulk load slot == cold row == insertion order, so picking base
    rows through the cold store is a few-page memmap gather, not a
    corpus materialization.
    """
    n = len(cache)
    rng = rng_for("bench-tiering", seed, n_queries)
    picks = np.sort(rng.choice(n, size=n_queries, replace=False))
    base = cache.cold_store.read_rows(picks)
    queries = base + 0.1 * rng.standard_normal((n_queries, EMBED_DIM))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return queries


def _exact_best_slots(cache: TieredVectorCache, queries: np.ndarray):
    """Ground-truth argmax slot per query by streaming the cold file."""
    best_sim = np.full(queries.shape[0], -np.inf)
    best_slot = np.full(queries.shape[0], -1, dtype=np.int64)
    for start, rows in cache.cold_store.chunks():
        sims = rows @ queries.T  # (chunk, n_queries)
        arg = np.argmax(sims, axis=0)
        top = sims[arg, np.arange(queries.shape[0])]
        better = top > best_sim
        best_sim[better] = top[better]
        best_slot[better] = start + arg[better]
    return best_slot, best_sim


def _replay_phase(cache: TieredVectorCache, queries: np.ndarray):
    """The recorded query/hit phase: retrieve each query, count a hit
    when similarity clears the threshold.  Returns the bit-exact digest
    a restored replica must reproduce."""
    digest = []
    hits = 0
    for i in range(queries.shape[0]):
        entry, sim = cache.retrieve(queries[i])
        hit = sim >= HIT_THRESHOLD
        if hit:
            cache.record_hit(entry, now=float(i))
            hits += 1
        digest.append((entry.slot if entry else -1, sim, hit))
    return digest, hits / queries.shape[0]


def test_cache_tiering(benchmark):
    scale = bench_scale()
    sizing = SIZING[scale]
    n = sizing["n"]

    def experiment():
        with tempfile.TemporaryDirectory() as cold_dir:
            t0 = time.perf_counter()
            cache = _build_cache(n, sizing, cold_dir)
            build_s = time.perf_counter() - t0

            queries = _queries(cache, N_QUERIES, seed="recall")
            truth_slots, truth_sims = _exact_best_slots(cache, queries)
            t0 = time.perf_counter()
            got = [cache.retrieve(q) for q in queries]
            query_s = (time.perf_counter() - t0) / N_QUERIES
            got_slots = np.array(
                [e.slot if e else -1 for e, _ in got]
            )
            got_sims = np.array([s for _, s in got])
            recall = float(np.mean(got_slots == truth_slots))
            # Where the slot matches, the returned similarity is the
            # exact f64 dot (sim error bounds the fp16 scan's effect).
            matched = got_slots == truth_slots
            sim_err = float(
                np.max(np.abs(got_sims[matched] - truth_sims[matched]))
                if matched.any()
                else np.inf
            )

            # Warm-restart reproduction: churn a hit phase to promote
            # entries, snapshot, record a second phase, then replay it
            # on a fresh object restored from snapshot + cold file.
            _replay_phase(cache, _queries(cache, N_REPLAY, seed="warm"))
            state = cache.snapshot()
            replay_q = _queries(cache, N_REPLAY, seed="replay")
            digest_before, hit_rate_before = _replay_phase(
                cache, replay_q
            )
            hot_before = cache.hot_count
            cache.cold_store.close()
            del cache
            gc.collect()

            reborn = TieredVectorCache(
                capacity=n,
                embed_dim=EMBED_DIM,
                tiering=TieredCacheConfig(
                    hot_capacity=max(1, n // 8),
                    promote_hits=1,
                    shortlist=32,
                    cold_dir=cold_dir,
                ),
                ann=IVFParams(
                    nlist=sizing["nlist"],
                    nprobe=sizing["nprobe"],
                    seed="bench-tiering",
                ),
            )
            t0 = time.perf_counter()
            reborn.restore(state)
            restore_s = time.perf_counter() - t0
            digest_after, hit_rate_after = _replay_phase(
                reborn, replay_q
            )
            warm_identical = digest_after == digest_before
            hot_after = reborn.hot_count
            reborn.cold_store.close()

        resident_gib = resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / (1024.0**2)
        return {
            "scale": scale,
            "n_entries": n,
            "embed_dim": EMBED_DIM,
            "nlist": sizing["nlist"],
            "nprobe": sizing["nprobe"],
            "shortlist": 32,
            "hot_capacity": max(1, n // 8),
            "metrics": {
                "recall_at_1": recall,
                "max_sim_err_on_match": sim_err,
                "resident_gib": resident_gib,
                "build_s": build_s,
                "restore_s": restore_s,
                "query_ms": query_s * 1e3,
                "hit_rate_before": hit_rate_before,
                "hit_rate_after": hit_rate_after,
                "hot_count_before": hot_before,
                "hot_count_after": hot_after,
            },
            "acceptance": {
                "recall_ok": recall >= 0.95,
                "warm_restart_identical": warm_identical,
                "hit_rate_reproduced": hit_rate_after
                == hit_rate_before,
                "memory_ok": resident_gib <= RESIDENT_BUDGET_GIB
                or scale == "smoke",
            },
        }

    payload = benchmark.pedantic(experiment, rounds=1, iterations=1)
    _output.write_json(
        "cache_tiering", payload, also_root="BENCH_cache_tiering.json"
    )
    print()
    print(
        f"[cache-tiering] scale={scale} n={n} "
        f"recall@1={payload['metrics']['recall_at_1']:.4f} "
        f"resident={payload['metrics']['resident_gib']:.2f}GiB "
        f"hit_rate {payload['metrics']['hit_rate_before']:.3f} -> "
        f"{payload['metrics']['hit_rate_after']:.3f}"
    )

    metrics = payload["metrics"]
    # Acceptance: recall@1 >= 0.95 vs the exact streamed ground truth,
    # exact similarities on matches, and a bit-for-bit warm restart.
    assert metrics["recall_at_1"] >= 0.95
    assert metrics["max_sim_err_on_match"] <= 1e-9
    assert payload["acceptance"]["warm_restart_identical"]
    assert metrics["hit_rate_after"] == metrics["hit_rate_before"]
    assert metrics["hot_count_after"] == metrics["hot_count_before"]
    # The 8 GiB resident budget is the 10M-scale claim; the smoke corpus
    # trivially fits, so gate it at default/paper scale only.
    if scale != "smoke":
        assert metrics["resident_gib"] <= RESIDENT_BUDGET_GIB
