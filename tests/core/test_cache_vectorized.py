"""Vectorized retrieval equivalence and the eviction-policy registry.

The retrieval core replaced a full ``np.argsort`` scan with a masked
vectorized ``argmax``; these tests pin the new path to a reference
implementation of the old one on randomized caches (including dead slots
and adversarial all-negative similarities), and pin the eviction order of
every policy in the registry.
"""

import numpy as np
import pytest

from repro._rng import rng_for, unit_vector
from repro.core.cache import (
    EVICTION_POLICIES,
    EvictionPolicy,
    VectorCache,
    make_eviction_policy,
    register_eviction_policy,
)

DIM = 16


def _vec(key):
    return unit_vector(rng_for("vec-cache-test", key), DIM)


def _reference_argsort_retrieve(cache, query):
    """The pre-vectorization retrieval: full descending argsort, then the
    first live slot — the behaviour the masked argmax must reproduce.
    Returns ``(slot, sim)``."""
    if len(cache) == 0:
        return None, 0.0
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        return None, 0.0
    sims = cache._matrix @ (query / qnorm)
    for slot in np.argsort(sims)[::-1]:
        if cache._live[slot]:
            return int(slot), float(sims[int(slot)])
    return None, 0.0


def _randomized_cache(seed, capacity, n_inserts, policy="fifo"):
    """A churned cache: inserts beyond capacity plus random recorded hits,
    so slots have been evicted, reused, and (when underfull) left dead."""
    rng = rng_for("randomized-cache", seed)
    cache = VectorCache(capacity=capacity, embed_dim=DIM, policy=policy)
    for i in range(n_inserts):
        cache.insert(f"p{i}", _vec((seed, i)), now=float(i))
        if i % 3 == 0 and len(cache):
            entry, _ = cache.retrieve(_vec((seed, "hitq", i)))
            if entry is not None and rng.random() < 0.5:
                cache.record_hit(entry, now=float(i))
    return cache


class TestArgmaxMatchesArgsort:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "capacity,n_inserts",
        [(8, 3), (8, 8), (8, 25), (32, 50)],
    )
    def test_randomized_equivalence(self, seed, capacity, n_inserts):
        for policy in sorted(EVICTION_POLICIES):
            cache = _randomized_cache(
                (seed, policy), capacity, n_inserts, policy=policy
            )
            for q in range(10):
                query = _vec((seed, "query", q))
                ref_slot, ref_sim = _reference_argsort_retrieve(
                    cache, query
                )
                entry, sim = cache.retrieve(query)
                assert entry.slot == ref_slot
                assert sim == ref_sim  # same float path, bit-identical

    def test_all_negative_similarities_skip_dead_slots(self):
        # Dead slots are zero rows (sim exactly 0.0); a naive unmasked
        # argmax would prefer them over a live entry with sim < 0.
        cache = VectorCache(capacity=4, embed_dim=DIM)
        vec = _vec("only")
        cache.insert("only", vec, now=0.0)
        entry, sim = cache.retrieve(-vec)
        assert entry is not None and entry.payload == "only"
        assert sim < 0.0
        ref_slot, ref_sim = _reference_argsort_retrieve(cache, -vec)
        assert entry.slot == ref_slot and sim == ref_sim

    def test_zero_query_and_empty_cache(self):
        cache = VectorCache(capacity=4, embed_dim=DIM)
        assert cache.retrieve(np.zeros(DIM)) == (None, 0.0)
        assert cache.retrieve(_vec("q")) == (None, 0.0)
        cache.insert("x", _vec("x"), now=0.0)
        assert cache.retrieve(np.zeros(DIM)) == (None, 0.0)


class TestRetrieveTopK:
    def test_topk_sorted_and_complete(self):
        cache = _randomized_cache("topk", capacity=16, n_inserts=30)
        query = _vec("topk-query")
        top = cache.retrieve_topk(query, k=5)
        assert len(top) == 5
        sims = [s for _, s in top]
        assert sims == sorted(sims, reverse=True)
        best_entry, best_sim = cache.retrieve(query)
        assert top[0][0].entry_id == best_entry.entry_id
        assert top[0][1] == best_sim

    def test_topk_exhaustive_against_bruteforce(self):
        cache = _randomized_cache("topk-bf", capacity=12, n_inserts=20)
        query = _vec("bf-query")
        qn = query / np.linalg.norm(query)
        brute = sorted(
            (
                (float(e.embedding @ qn), e.entry_id)
                for e in cache.entries()
            ),
            reverse=True,
        )
        top = cache.retrieve_topk(query, k=4)
        assert [
            (round(s, 12), e.entry_id) for e, s in top
        ] == [(round(s, 12), i) for s, i in brute[:4]]

    def test_k_larger_than_occupancy(self):
        cache = VectorCache(capacity=8, embed_dim=DIM)
        cache.insert("a", _vec("a"), now=0.0)
        cache.insert("b", _vec("b"), now=1.0)
        top = cache.retrieve_topk(_vec("q"), k=10)
        assert len(top) == 2

    def test_invalid_k(self):
        cache = VectorCache(capacity=4, embed_dim=DIM)
        with pytest.raises(ValueError):
            cache.retrieve_topk(_vec("q"), k=0)

    def test_empty_cache_returns_nothing(self):
        cache = VectorCache(capacity=4, embed_dim=DIM)
        assert cache.retrieve_topk(_vec("q"), k=3) == []


class TestRetrieveBatch:
    def test_singleton_batch_bitwise_matches_retrieve(self):
        cache = _randomized_cache("batch1", capacity=16, n_inserts=24)
        query = _vec("batch1-query")
        [(entry_b, sim_b)] = cache.retrieve_batch(query[None, :])
        entry, sim = cache.retrieve(query)
        assert entry_b.entry_id == entry.entry_id
        assert sim_b == sim

    def test_batch_matches_sequential(self):
        cache = _randomized_cache("batchn", capacity=16, n_inserts=24)
        queries = np.stack([_vec(("bq", i)) for i in range(7)])
        batched = cache.retrieve_batch(queries)
        for i, (entry, sim) in enumerate(batched):
            ref_entry, ref_sim = cache.retrieve(queries[i])
            assert entry.entry_id == ref_entry.entry_id
            assert np.isclose(sim, ref_sim, rtol=0, atol=1e-12)

    def test_zero_rows_and_empty_cache(self):
        cache = VectorCache(capacity=4, embed_dim=DIM)
        queries = np.stack([np.zeros(DIM), _vec("q")])
        assert cache.retrieve_batch(queries) == [(None, 0.0), (None, 0.0)]
        cache.insert("x", _vec("x"), now=0.0)
        out = cache.retrieve_batch(queries)
        assert out[0] == (None, 0.0)
        assert out[1][0] is not None

    def test_bad_shape_rejected(self):
        cache = VectorCache(capacity=4, embed_dim=DIM)
        with pytest.raises(ValueError):
            cache.retrieve_batch(np.zeros((2, DIM + 1)))
        with pytest.raises(ValueError):
            cache.retrieve_batch(np.zeros(DIM))


class TestEvictionPolicyRegistry:
    def test_registry_contents(self):
        assert {"fifo", "lru", "utility"} <= set(EVICTION_POLICIES)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            make_eviction_policy("nope")

    def test_custom_policy_registration(self):
        @register_eviction_policy("_test_newest")
        class NewestEviction(EvictionPolicy):
            """Evicts the newest entry (for the registration test)."""

            def victim(self, entry_ids):
                return int(np.argmax(entry_ids))

        try:
            cache = VectorCache(
                capacity=2, embed_dim=DIM, policy="_test_newest"
            )
            cache.insert("old", _vec("old"), now=0.0)
            cache.insert("new", _vec("new"), now=1.0)
            evicted = cache.insert("newer", _vec("newer"), now=2.0)
            assert evicted.payload == "new"
        finally:
            del EVICTION_POLICIES["_test_newest"]


def _eviction_order(cache, n_total, hit_schedule=()):
    """Insert ``n_total`` payloads, applying ``hit_schedule`` as a mapping
    of insert-step -> payload to hit just before that insert; returns the
    payloads in eviction order."""
    evicted = []
    by_payload = {}
    for i in range(n_total):
        for step, payload in hit_schedule:
            if step == i:
                entry = by_payload[payload]
                cache.record_hit(entry, now=float(i))
        out = cache.insert(f"p{i}", _vec(("evo", i)), now=float(i))
        by_payload[f"p{i}"] = cache.entries()[-1]
        if out is not None:
            evicted.append(out.payload)
    return evicted


class TestEvictionOrder:
    def test_fifo_strict_insertion_order(self):
        cache = VectorCache(capacity=3, embed_dim=DIM, policy="fifo")
        assert _eviction_order(cache, 7) == ["p0", "p1", "p2", "p3"]

    def test_fifo_ignores_hits(self):
        cache = VectorCache(capacity=3, embed_dim=DIM, policy="fifo")
        # p0 is hit repeatedly but FIFO still evicts it first (§5.4).
        evicted = _eviction_order(
            cache, 5, hit_schedule=[(1, "p0"), (2, "p0")]
        )
        assert evicted == ["p0", "p1"]

    def test_lru_hit_refreshes_recency(self):
        cache = VectorCache(capacity=3, embed_dim=DIM, policy="lru")
        # Hit p0 just before inserting p3: p1 is now least recently used.
        evicted = _eviction_order(cache, 5, hit_schedule=[(3, "p0")])
        assert evicted == ["p1", "p2"]

    def test_lru_without_hits_degenerates_to_fifo(self):
        cache = VectorCache(capacity=3, embed_dim=DIM, policy="lru")
        assert _eviction_order(cache, 6) == ["p0", "p1", "p2"]

    def test_utility_evicts_fewest_hits_oldest_first(self):
        cache = VectorCache(capacity=3, embed_dim=DIM, policy="utility")
        entries = {}
        for i in range(3):
            cache.insert(f"p{i}", _vec(("ut", i)), now=float(i))
            entries[f"p{i}"] = cache.entries()[-1]
        cache.record_hit(entries["p0"], now=3.0)
        cache.record_hit(entries["p2"], now=4.0)
        # p1 has the fewest hits and goes first.
        assert cache.insert("p3", _vec(("ut", 3)), now=5.0).payload == "p1"
        cache.record_hit(cache.entries()[-1], now=6.0)
        # Now p0, p2, p3 all have one hit: ties evict oldest (p0).
        assert cache.insert("p4", _vec(("ut", 4)), now=7.0).payload == "p0"

    def test_utility_heap_stays_bounded_under_hit_floods(self):
        # Hit-heavy runs with rare evictions must not grow the lazy
        # tombstone heap without bound: compaction keeps it O(live).
        cache = VectorCache(capacity=4, embed_dim=DIM, policy="utility")
        for i in range(4):
            cache.insert(f"p{i}", _vec(("hb", i)), now=float(i))
        hot = cache.entries()[-1]
        for i in range(10_000):
            cache.record_hit(hot, now=float(i))
        assert len(cache._policy._heap) <= 2 * 4 + 17
        # Eviction semantics survive compaction: fewest hits, oldest.
        assert cache.insert("new", _vec("hbn"), now=1e6).payload == "p0"

    def test_utility_heap_tracks_hit_updates(self):
        cache = VectorCache(capacity=2, embed_dim=DIM, policy="utility")
        cache.insert("a", _vec("ua"), now=0.0)
        a_entry = cache.entries()[-1]
        cache.insert("b", _vec("ub"), now=1.0)
        cache.record_hit(a_entry, now=2.0)
        cache.record_hit(a_entry, now=3.0)
        assert cache.insert("c", _vec("uc"), now=4.0).payload == "b"
        # "c" (0 hits) now loses to "a" (2 hits).
        assert cache.insert("d", _vec("ud"), now=5.0).payload == "c"

