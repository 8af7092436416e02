"""IVF retrieval backend: recall, consistency, determinism, golden exact.

The ANN index may return *approximate* best matches, so these tests pin
the properties the serving system actually relies on:

* recall@1 >= 0.95 against the exact scan on a seeded clustered
  workload (the semantic-cache regime: prompts arrive as near-
  duplicates of cached content);
* structural consistency through insert/evict churn — retrieval never
  returns a tombstoned slot, and the inverted lists compact instead of
  growing without bound;
* batched queries are bit-identical to sequential single queries;
* the whole index (training included) is deterministic across runs;
* the default ``"exact"`` backend is byte-identical to the pre-index
  decision path (the seed golden regression pins the full engine; here
  a direct cache-level comparison pins the primitive).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._rng import rng_for
from repro.core.ann import IVFIndex, IVFParams
from repro.core.cache import VectorCache
from repro.core.config import MoDMConfig


def clustered_embeddings(
    n: int,
    dim: int = 50,
    n_topics: int = 256,
    noise: float = 0.25,
    seed: str = "ann-test",
) -> np.ndarray:
    """Unit rows drawn around ``n_topics`` seeded topic directions —
    the clustered geometry a semantic cache accumulates."""
    rng = rng_for(seed, n, dim, n_topics)
    topics = rng.standard_normal((n_topics, dim))
    topics /= np.linalg.norm(topics, axis=1, keepdims=True)
    rows = topics[rng.integers(0, n_topics, n)]
    rows = rows + noise * rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def near_duplicate_queries(
    data: np.ndarray, n_queries: int, noise: float = 0.1,
    seed: str = "ann-query",
) -> np.ndarray:
    """Perturbations of random cached rows — the cache-hit regime."""
    rng = rng_for(seed, n_queries)
    picks = rng.choice(data.shape[0], size=n_queries, replace=False)
    queries = data[picks] + noise * rng.standard_normal(
        (n_queries, data.shape[1])
    )
    return queries / np.linalg.norm(queries, axis=1, keepdims=True)


def build_pair(n=20_000, dim=50, nprobe=16, policy="fifo"):
    """Exact and IVF caches filled with the same clustered workload."""
    data = clustered_embeddings(n, dim)
    exact = VectorCache(capacity=n, embed_dim=dim, policy=policy)
    ivf = VectorCache(
        capacity=n,
        embed_dim=dim,
        policy=policy,
        backend="ivf",
        ann=IVFParams(nprobe=nprobe, seed="ann-test"),
    )
    for i in range(n):
        exact.insert(i, data[i], now=float(i))
        ivf.insert(i, data[i], now=float(i))
    return data, exact, ivf


@pytest.fixture(scope="module")
def pair():
    return build_pair()


class TestRecall:
    def test_recall_at_1_meets_floor(self, pair):
        data, exact, ivf = pair
        queries = near_duplicate_queries(data, 400)
        agree = 0
        for query in queries:
            truth, _ = exact.retrieve(query)
            found, _ = ivf.retrieve(query)
            agree += found.payload == truth.payload
        assert ivf.index.trained
        assert agree / len(queries) >= 0.95

    @staticmethod
    def _recall_at_k(data, exact, ivf, k=10):
        queries = near_duplicate_queries(data, 100, seed="ann-topk")
        covered = 0
        total = 0
        for query in queries:
            truth = {
                e.payload for e, _ in exact.retrieve_topk(query, k)
            }
            found = {
                e.payload for e, _ in ivf.retrieve_topk(query, k)
            }
            covered += len(truth & found)
            total += len(truth)
        return covered / total

    def test_recall_at_k_meets_floor(self, pair):
        """Deep top-k recall: decent at the default probe width, and
        >= 0.95 when probes widen (same seed => same trained centroids,
        and a wider probe set is a superset, so recall is monotone in
        ``nprobe``)."""
        data, exact, ivf = pair
        narrow = self._recall_at_k(data, exact, ivf)
        assert narrow >= 0.6
        _, _, wide_ivf = build_pair(nprobe=64)
        wide = self._recall_at_k(data, exact, wide_ivf)
        assert wide >= max(0.95, narrow)

    def test_ivf_similarity_matches_entry(self, pair):
        """Returned similarity is the exact re-ranked cosine of the
        returned entry (the approximation is *which* entry, never the
        score)."""
        data, _, ivf = pair
        for query in near_duplicate_queries(data, 20, seed="ann-sim"):
            entry, sim = ivf.retrieve(query)
            qunit = query / np.linalg.norm(query)
            expected = float(entry.embedding @ qunit)
            assert sim == pytest.approx(expected, rel=0, abs=1e-12)

    def test_sublinear_modelled_latency(self, pair):
        _, exact, ivf = pair
        assert ivf.scan_entries() < exact.scan_entries() / 5
        assert ivf.retrieval_latency_s() < exact.retrieval_latency_s()


class TestBatchEquivalence:
    def test_batch_matches_sequential_bit_for_bit(self, pair):
        data, _, ivf = pair
        queries = near_duplicate_queries(data, 64, seed="ann-batch")
        batched = ivf.retrieve_batch(queries)
        sequential = [ivf.retrieve(q) for q in queries]
        for (be, bs), (se, ss) in zip(batched, sequential):
            assert be is se
            assert bs == ss


class TestChurnConsistency:
    def test_never_returns_dead_slot(self):
        """FIFO churn at 2x capacity: every retrieval lands on a live
        entry whose slot agrees with the cache's own table."""
        n = 2_048
        dim = 32
        data = clustered_embeddings(
            4 * n, dim, n_topics=64, seed="ann-churn"
        )
        ivf = VectorCache(
            capacity=n,
            embed_dim=dim,
            backend="ivf",
            ann=IVFParams(
                nlist=32, nprobe=4, train_min=256, seed="ann-churn"
            ),
        )
        live_payloads = set()
        for i in range(data.shape[0]):
            evicted = ivf.insert(i, data[i], now=float(i))
            live_payloads.add(i)
            if evicted is not None:
                live_payloads.discard(evicted.payload)
            if i % 64 == 0:
                entry, _ = ivf.retrieve(data[i])
                assert entry is not None
                assert entry.payload in live_payloads
        assert ivf.index.trained
        assert ivf.evictions == 3 * n

    def test_topk_never_duplicates_entries(self):
        """Slot reuse leaves stale ids in old cells; dedup must keep
        any entry from appearing twice in one top-k result."""
        n = 512
        dim = 16
        data = clustered_embeddings(
            3 * n, dim, n_topics=16, seed="ann-dup"
        )
        ivf = VectorCache(
            capacity=n,
            embed_dim=dim,
            backend="ivf",
            ann=IVFParams(
                nlist=8, nprobe=8, train_min=128, seed="ann-dup"
            ),
        )
        for i in range(data.shape[0]):
            ivf.insert(i, data[i], now=float(i))
        for query in near_duplicate_queries(data[-n:], 20, seed="q"):
            got = ivf.retrieve_topk(query, 10)
            ids = [e.entry_id for e, _ in got]
            assert len(ids) == len(set(ids))

    def test_tombstone_compaction_bounds_lists(self):
        """Inverted lists stay O(live members), not O(inserts ever)."""
        n = 1_024
        dim = 16
        data = clustered_embeddings(
            8 * n, dim, n_topics=16, seed="ann-compact"
        )
        ivf = VectorCache(
            capacity=n,
            embed_dim=dim,
            backend="ivf",
            ann=IVFParams(
                nlist=8,
                nprobe=2,
                train_min=512,
                retrain_inserts=10**9,
                seed="ann-compact",
            ),
        )
        for i in range(data.shape[0]):
            ivf.insert(i, data[i], now=float(i))
            if i % 256 == 0:
                ivf.retrieve(data[i])  # trains lazily, then probes
        index = ivf.index
        assert index.trained
        assert index.trainings == 1
        total_listed = sum(len(cell) for cell in index._lists)
        assert total_listed <= 2 * n + 16 * len(index._lists)

    def test_cell_counts_match_live_members(self):
        """Running per-cell sums/counts stay consistent under churn."""
        n = 1_024
        dim = 16
        data = clustered_embeddings(
            4 * n, dim, n_topics=16, seed="ann-sums"
        )
        ivf = VectorCache(
            capacity=n,
            embed_dim=dim,
            backend="ivf",
            ann=IVFParams(
                nlist=8, nprobe=2, train_min=512, seed="ann-sums"
            ),
        )
        for i in range(data.shape[0]):
            ivf.insert(i, data[i], now=float(i))
            if i % 128 == 0:
                ivf.retrieve(data[i])  # lazy-trains, then probes
        index = ivf.index
        assert index.trained
        assert int(index._cell_counts.sum()) == len(ivf)
        coarse = ivf.coarse_centroids()
        assert coarse is not None
        assert coarse.shape[1] == dim
        # The count-weighted mean of the cell means is the cache mean.
        weighted = (
            index._cell_sums[index._cell_counts > 0].sum(axis=0)
            / len(ivf)
        )
        np.testing.assert_allclose(
            weighted, ivf.centroid(), atol=1e-9
        )


class TestTieBreaks:
    def test_duplicate_embeddings_resolve_to_lowest_slot(self):
        """Identical cached embeddings tie exactly in the block scan;
        retrieve and retrieve_topk must agree on the lowest slot id."""
        dim = 16
        base = clustered_embeddings(2_048, dim, n_topics=8, seed="tie")
        ivf = VectorCache(
            capacity=2_100,
            embed_dim=dim,
            backend="ivf",
            ann=IVFParams(
                nlist=8, nprobe=8, train_min=256, seed="tie"
            ),
        )
        for i in range(base.shape[0]):
            ivf.insert(i, base[i], now=float(i))
        ivf.retrieve(base[0])  # train before the duplicates land
        # Duplicate one embedding into several later slots.
        dup = base[123]
        for j in range(3):
            ivf.insert(10_000 + j, dup, now=3000.0 + j)
        entry, _ = ivf.retrieve(dup)
        top = ivf.retrieve_topk(dup, 1)
        assert entry.entry_id == top[0][0].entry_id
        # Sequential fills use slots 0,1,2,... so the original copy in
        # slot 123 is the lowest-slot holder of this embedding.
        assert ivf._slot_of[entry.entry_id] == 123


class TestDeterminism:
    def test_identical_across_runs(self):
        results = []
        for _ in range(2):
            data, _, ivf = build_pair(n=4_096, nprobe=8)
            queries = near_duplicate_queries(
                data, 50, seed="ann-det"
            )
            results.append(
                [
                    (e.entry_id, s)
                    for e, s in (ivf.retrieve(q) for q in queries)
                ]
            )
        assert results[0] == results[1]

    def test_training_is_seeded(self):
        data = clustered_embeddings(2_048, 32, seed="ann-seeded")
        norms = np.linalg.norm(data, axis=1, keepdims=True)
        live = np.ones(2_048, dtype=bool)
        params = IVFParams(nlist=16, train_min=512, seed="fixed")
        a = IVFIndex(data / norms, live, params)
        b = IVFIndex(data / norms, live, params)
        a.train()
        b.train()
        np.testing.assert_array_equal(a._centroids, b._centroids)


class TestExactBackendGolden:
    """``retrieval_backend="exact"`` must be bit-identical to the
    pre-index cache (which is also pinned end-to-end by the seed golden
    regression in tests/integration/test_seed_regression.py)."""

    def test_default_config_backend_is_exact(self):
        assert MoDMConfig().retrieval_backend == "exact"

    def test_exact_cache_has_no_index(self):
        cache = VectorCache(capacity=8, embed_dim=4)
        assert cache.backend == "exact"
        assert cache.index is None

    def test_exact_decisions_bit_for_bit(self):
        """An explicitly-exact cache replays the identical (entry,
        similarity) stream as a default-constructed one."""
        dim = 24
        data = clustered_embeddings(
            2_000, dim, n_topics=32, seed="ann-golden"
        )
        default = VectorCache(capacity=500, embed_dim=dim)
        explicit = VectorCache(
            capacity=500, embed_dim=dim, backend="exact"
        )
        queries = near_duplicate_queries(
            data, 200, seed="ann-golden-q"
        )
        for i in range(data.shape[0]):
            default.insert(i, data[i], now=float(i))
            explicit.insert(i, data[i], now=float(i))
            if i % 10 == 0:
                query = queries[(i // 10) % queries.shape[0]]
                d_entry, d_sim = default.retrieve(query)
                e_entry, e_sim = explicit.retrieve(query)
                assert d_entry.entry_id == e_entry.entry_id
                assert d_sim == e_sim

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="retrieval backend"):
            VectorCache(capacity=8, embed_dim=4, backend="hnsw")
        with pytest.raises(ValueError, match="retrieval_backend"):
            MoDMConfig(retrieval_backend="hnsw")


class TestServingIntegration:
    def test_modm_system_serves_with_ivf_backend(self, space):
        """End-to-end: an IVF-backed MoDM engine trains mid-run and
        keeps making hit/miss decisions through the indexed path."""
        from repro.core.serving import MoDMSystem
        from repro.core.config import ClusterConfig
        from repro.workloads import (
            DiffusionDBConfig,
            diffusiondb_trace,
        )

        config = MoDMConfig(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
            cache_capacity=400,
            small_models=("sdxl",),
            retrieval_backend="ivf",
            ann_nlist=16,
            ann_nprobe=4,
            ann_train_min=64,
        )
        system = MoDMSystem(space, config)
        trace = diffusiondb_trace(
            space,
            DiffusionDBConfig(n_requests=200, seed="ann-serving"),
        )
        system.warm_cache([r.prompt for r in trace.requests[:80]])
        report = system.run(trace.slice(80, 200).rebase())
        assert system.cache.index is not None
        assert system.cache.index.trained
        assert report.n_completed == 120
        assert report.hit_rate > 0.0
        # The modelled scan is sublinear once the index is trained.
        assert system.cache.scan_entries() < len(system.cache)
