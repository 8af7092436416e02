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
  a direct cache-level comparison pins the primitive);
* search and top-k agree bit for bit with a reference that scores every
  probed row and masks tombstones to ``-inf`` in place, under
  hypothesis-driven churn and across a block-free snapshot restore;
* every block is float32 and holds, row for row, the cache's exact rows
  rounded once to the block precision — checked against the matrix,
  never against the index's own blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro._rng import rng_for
from repro.core.ann import BLOCK_DTYPES, IVFIndex, IVFParams
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
            assert (be.entry_id, be.slot) == (se.entry_id, se.slot)
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
        total_listed = sum(index._fill)
        assert total_listed <= 2 * n + 16 * len(index._fill)

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
        assert entry.slot == 123


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


# ----------------------------------------------------------------------
# Oracle: the masked probe the array-native cells replaced
# ----------------------------------------------------------------------
def rounded(rows, block_dtype):
    """Exact f64 rows as a block must hold them: rounded once, straight
    to the block precision, and widened to f32."""
    half = block_dtype == "fp16"
    return rows.astype(np.float16 if half else np.float32).astype(
        np.float32
    )


def reference_probe(index, query_unit):
    """Concatenated (slots, f32 sims) with tombstones scored ``-inf``.

    The probe as it was written before cells dropped tombstoned rows:
    each probed cell's rows are scored by one matvec and tombstones are
    overwritten with ``-inf`` in place, so they stay in the result.
    The scored rows are the owning cache's exact rows, rounded here
    (zeros stand in for tombstones), so the index's blocks are checked,
    not trusted.
    """
    csims = index._centroids @ query_unit
    nprobe = min(index.params.nprobe, csims.shape[0])
    if nprobe < csims.shape[0]:
        probe = np.argpartition(csims, -nprobe)[-nprobe:]
    else:
        probe = np.arange(csims.shape[0])
    q32 = query_unit.astype(np.float32)
    slot_parts = []
    sim_parts = []
    for cell in probe:
        cell = int(cell)
        m = index._fill[cell]
        if m == 0:
            continue
        members = index._members[cell][:m]
        valid = index._valid[cell][:m]
        exact = np.zeros((m, query_unit.shape[0]))
        exact[valid] = index._matrix[members[valid]]
        sims = rounded(exact, index.params.block_dtype) @ q32
        if index._stale[cell]:
            sims[~valid] = -np.inf
        slot_parts.append(members)
        sim_parts.append(sims)
    if not slot_parts:
        return None, None
    return np.concatenate(slot_parts), np.concatenate(sim_parts)


def reference_search(index, query_unit):
    slots, sims = reference_probe(index, query_unit)
    if slots is None:
        return None
    best = int(np.argmax(sims))
    best_sim = sims[best]
    if best_sim == -np.inf:
        return None
    rerank = index.params.rerank
    if rerank <= 1:
        best_slot = int(slots[sims == best_sim].min())
        return best_slot, float(np.dot(index._matrix[best_slot], query_unit))
    valid = np.flatnonzero(sims > -np.inf)
    vsims = sims[valid]
    r = min(rerank, valid.size)
    if r < valid.size:
        kth = vsims[np.argpartition(vsims, -r)[-r:]].min()
        sel = slots[valid[vsims >= kth]]
    else:
        sel = slots[valid]
    exact = index._matrix[sel] @ query_unit
    top = int(np.lexsort((sel, -exact))[0])
    return int(sel[top]), float(exact[top])


def reference_search_topk(index, query_unit, k):
    slots, sims = reference_probe(index, query_unit)
    if slots is None:
        return []
    valid = np.flatnonzero(sims > -np.inf)
    if valid.size == 0:
        return []
    r = max(k, index.params.rerank)
    if r < valid.size:
        vsims = sims[valid]
        kth = vsims[np.argpartition(vsims, -r)[-r:]].min()
        sel = slots[valid[vsims >= kth]]
    else:
        sel = slots[valid]
    exact = index._matrix[sel] @ query_unit
    order = np.lexsort((sel, -exact))[:k]
    return [(int(sel[i]), float(exact[i])) for i in order]


def bits(pairs):
    """(slot, similarity bytes) per result: exact-equality currency."""
    return [(slot, np.float64(sim).tobytes()) for slot, sim in pairs]


def assert_matches_reference(index, query_unit, k):
    got = index.search(query_unit)
    want = reference_search(index, query_unit)
    assert (got is None) == (want is None)
    if got is not None:
        assert bits([got]) == bits([want])
    assert bits(index.search_topk(query_unit, k)) == bits(
        reference_search_topk(index, query_unit, k)
    )
    slots, sims = index._probe(query_unit)
    ref_slots, ref_sims = reference_probe(index, query_unit)
    if ref_slots is None or not (ref_sims > -np.inf).any():
        assert slots is None
    else:
        live = ref_sims > -np.inf
        np.testing.assert_array_equal(slots, ref_slots[live])
        assert sims.tobytes() == ref_sims[live].tobytes()
    return got


_ORACLE = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_CHURN = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "capacity": st.integers(24, 96),
        "nlist": st.integers(2, 8),
        "nprobe": st.integers(1, 8),
        "n_inserts": st.integers(40, 240),
        "dup_every": st.integers(2, 40),
        "query_every": st.integers(2, 6),
        "k": st.integers(1, 6),
    }
)


def churned_index(block_dtype, rerank, spec, check=True, dim=12):
    """An IVF cache driven through ``spec``'s insert/evict churn; with
    ``check`` every interleaved query is compared with the reference."""
    rng = rng_for("ann-oracle", spec["seed"])
    data = rng.standard_normal((spec["n_inserts"], dim))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    dup = spec["dup_every"]
    data[dup::dup] = data[: data[dup::dup].shape[0]]  # exact ties
    cache = VectorCache(
        capacity=spec["capacity"],
        embed_dim=dim,
        backend="ivf",
        ann=IVFParams(
            nlist=spec["nlist"],
            nprobe=spec["nprobe"],
            train_min=16,
            retrain_inserts=3 * spec["capacity"],
            block_dtype=block_dtype,
            rerank=rerank,
            seed="ann-oracle",
        ),
    )
    noise = rng.standard_normal((spec["n_inserts"], dim))
    queries = []
    for i in range(spec["n_inserts"]):
        cache.insert(i, data[i], now=float(i))
        if i % spec["query_every"]:
            continue
        # Near-duplicates of live rows, exact copies (ties), and copies
        # of long-evicted rows whose cells hold their tombstones.
        query = data[(i * 7) % (i + 1)] + 0.02 * (i % 3) * noise[i]
        query_unit = query / np.linalg.norm(query)
        queries.append(query_unit)
        cache.retrieve(query)  # trains lazily
        if check and cache.index.trained:
            assert_matches_reference(cache.index, query_unit, spec["k"])
    return cache, queries


class TestMaskedProbeOracle:
    @pytest.mark.parametrize("rerank", [1, 8])
    @pytest.mark.parametrize("block_dtype", BLOCK_DTYPES)
    @_ORACLE
    @given(spec=_CHURN)
    def test_search_matches_reference_under_churn(
        self, block_dtype, rerank, spec
    ):
        cache, queries = churned_index(block_dtype, rerank, spec)
        index = cache.index
        if index.trained:
            for query_unit in queries:
                assert_matches_reference(index, query_unit, spec["k"])

    @pytest.mark.parametrize("rerank", [1, 8])
    @pytest.mark.parametrize("block_dtype", BLOCK_DTYPES)
    @_ORACLE
    @given(spec=_CHURN)
    def test_block_free_restore_matches_reference(
        self, block_dtype, rerank, spec
    ):
        """Snapshot without blocks, restore into a fresh index, refill
        the live rows: tombstoned rows come back as zeros, and results
        equal both the reference and the uninterrupted index."""
        cache, queries = churned_index(
            block_dtype, rerank, spec, check=False
        )
        index = cache.index
        if not index.trained:
            return
        fresh = IVFIndex(cache._matrix, cache._live, index.params)
        fresh.restore_state(index.snapshot_state(include_blocks=False))
        live = np.flatnonzero(cache._live)
        fresh.refill_rows(live, cache._matrix[live])
        for query_unit in queries:
            got = assert_matches_reference(fresh, query_unit, spec["k"])
            want = index.search(query_unit)
            assert (got is None) == (want is None)
            if got is not None:
                assert bits([got]) == bits([want])
            assert bits(fresh.search_topk(query_unit, spec["k"])) == bits(
                index.search_topk(query_unit, spec["k"])
            )

    @pytest.mark.parametrize("rerank", [1, 8])
    @pytest.mark.parametrize("block_dtype", BLOCK_DTYPES)
    def test_all_tombstoned_probe_returns_nothing(self, block_dtype, rerank):
        """A probe whose rows are all tombstones (not yet compacted)
        finds nothing, which sends the owning cache to its exact scan."""
        dim = 8
        matrix = clustered_embeddings(64, dim, n_topics=4, seed="ann-tomb")
        live = np.ones(64, dtype=bool)
        index = IVFIndex(
            matrix,
            live,
            IVFParams(
                nlist=4,
                nprobe=1,
                train_min=64,
                block_dtype=block_dtype,
                rerank=rerank,
                seed="ann-tomb",
            ),
        )
        assert index.ready(64)
        cell = int(np.argmin(np.where(index._fill, index._fill, 65)))
        members = index._members[cell][: index._fill[cell]].copy()
        assert 0 < members.size <= 16  # stays below the compaction bar
        for slot in members:
            live[slot] = False
            index.remove(int(slot), matrix[slot])
        assert index._stale[cell] == members.size
        query_unit = index._centroids[cell]
        assert reference_search(index, query_unit) is None
        assert reference_search_topk(index, query_unit, 3) == []
        assert index.search(query_unit) is None
        assert index.search_topk(query_unit, 3) == []


# ----------------------------------------------------------------------
# Oracle: block contents against independently rounded exact rows
# ----------------------------------------------------------------------
def assert_blocks_hold_rounded_rows(index, exact_rows, history):
    """Every block is f32.  Each valid row is byte-equal to its slot's
    exact row rounded to the block precision; each tombstoned row holds
    a rounded row its slot once had (``history``) or zeros (a block-free
    restore leaves tombstones unfilled).  ``exact_rows(slots)`` reads
    the owning cache's rows, never the index."""
    block_dtype = index.params.block_dtype
    listed = []
    for cell, block in enumerate(index._blocks):
        m = index._fill[cell]
        if block is None:
            assert m == 0
            continue
        assert block.dtype == np.float32
        members = index._members[cell][:m]
        valid = index._valid[cell][:m]
        want = rounded(exact_rows(members[valid]), block_dtype)
        assert block[:m][valid].tobytes() == want.tobytes()
        zero = np.zeros(block.shape[1], dtype=np.float32).tobytes()
        for row in np.flatnonzero(~valid):
            got = block[row].tobytes()
            assert got == zero or got in history[int(members[row])]
        listed.append(members[valid])
    if index.trained:
        live = np.flatnonzero(index._live)
        found = np.sort(np.concatenate(listed)) if listed else live[:0]
        np.testing.assert_array_equal(found, live)


def block_free_restore(index, exact_rows):
    """Reinstall ``index`` from its own block-free snapshot, refilling
    the live rows from the owning cache."""
    index.restore_state(index.snapshot_state(include_blocks=False))
    live = np.flatnonzero(index._live)
    index.refill_rows(live, exact_rows(live))


_QUANT_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert"] * 8
            + ["retrieve", "retrain", "snapshot", "restore", "block-free",
               "clear"]
        ),
        st.integers(0, 63),
    ),
    min_size=30,
    max_size=160,
)

# Long FIFO churn into two cells without a retrain: cells compact.
_COMPACTING = [("insert", i % 64) for i in range(150)] + [
    ("retrieve", 0),
    ("block-free", 0),
] + [("insert", (7 * i) % 64) for i in range(60)]


class TestBlockQuantizationOracle:
    @pytest.mark.parametrize("block_dtype", BLOCK_DTYPES)
    @_ORACLE
    @given(ops=_QUANT_OPS)
    @example(ops=_COMPACTING)
    def test_blocks_hold_rounded_exact_rows(self, block_dtype, ops):
        dim = 10
        data = rng_for("ann-quant").standard_normal((64, dim))
        data[::9] = 1.0 + 2.0**-11 + 2.0**-40  # rounds differently via f32
        cache = VectorCache(
            capacity=24,
            embed_dim=dim,
            backend="ivf",
            ann=IVFParams(
                nlist=2,
                nprobe=1,
                train_min=12,
                retrain_inserts=120,
                block_dtype=block_dtype,
                seed="ann-quant",
            ),
        )
        index = cache.index

        def exact_rows(slots):
            return cache._matrix[slots]

        history = {slot: set() for slot in range(24)}
        saved = cache.snapshot()
        compactions = 0
        for step, (op, arg) in enumerate(ops):
            stale_before = sum(index._stale)
            if op == "insert":
                cache.insert(step, data[arg], now=float(step))
                slot = cache.entries()[-1].slot
                history[slot].add(
                    rounded(data[arg], block_dtype).tobytes()
                )
            elif op == "retrieve":
                cache.retrieve(data[arg])  # trains or retrains lazily
            elif op == "retrain":
                index.train()
            elif op == "snapshot":
                saved = cache.snapshot()
            elif op == "restore":
                cache.restore(saved)
            elif op == "block-free":
                block_free_restore(index, exact_rows)
            else:
                cache.clear()
            if op == "insert" and sum(index._stale) < stale_before:
                compactions += 1
            assert_blocks_hold_rounded_rows(index, exact_rows, history)
        if ops is _COMPACTING:
            assert compactions > 0 and index.trainings == 1

    @pytest.mark.parametrize("block_dtype", BLOCK_DTYPES)
    def test_restore_widens_half_precision_snapshot_blocks(
        self, block_dtype
    ):
        """A snapshot whose blocks were stored as float16 (the layout
        before blocks were widened at write) restores to f32 blocks
        with identical values and identical results."""
        cache, queries = churned_index(
            block_dtype,
            8,
            dict(seed=3, capacity=64, nlist=4, nprobe=2, n_inserts=200,
                 dup_every=7, query_every=3, k=3),
            check=False,
        )
        index = cache.index
        assert index.trained
        state = index.snapshot_state()
        if block_dtype == "fp16":
            for cell, block in enumerate(state.blocks):
                if block is not None:
                    half = np.zeros(block.shape, dtype=np.float16)
                    m = index._fill[cell]
                    half[:m] = block[:m]  # exact: rows are fp16 values
                    state.blocks[cell] = half
        fresh = IVFIndex(cache._matrix, cache._live, index.params)
        fresh.restore_state(state)
        for cell, (got, want) in enumerate(zip(fresh._blocks, index._blocks)):
            assert (got is None) == (want is None)
            if got is not None:
                m = index._fill[cell]
                assert got.dtype == np.float32
                assert got[:m].tobytes() == want[:m].tobytes()
        for query_unit in queries:
            assert bits(fresh.search_topk(query_unit, 3)) == bits(
                index.search_topk(query_unit, 3)
            )
