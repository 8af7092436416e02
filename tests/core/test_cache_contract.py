"""One contract, every cache backend.

The serving engine, the scheduler, cluster migration and the journal
call the same members on every cache, so every backend must answer
them the same way.  Each property here runs against the flat exact
cache under all three eviction policies, the flat IVF cache (fp32
blocks), the tiered cache (fp16 blocks over a hot/cold split) and the
Nirvana-style :class:`LatentCache`:

* ``retrieve`` equals brute force over the live entries (exact
  backends) or clears a recall floor (IVF backends), and its similarity
  is the returned entry's cosine;
* ``retrieve_topk`` is ordered by ``(-similarity, slot)``;
* a singleton batch equals ``retrieve`` bit for bit, and so does every
  row of an IVF or tiered batch; flat multi-row batches (one gemm)
  return the same entries with ``isclose`` similarities;
* snapshot -> mutate -> restore answers, hits and evicts exactly like a
  cache that was never mutated;
* ``clear()`` keeps the id counter and the traffic counters;
* ``snapshot_entries`` lists a snapshot's entries in ascending id order;
* a stale view (its slot since recycled) is inert under ``record_hit``;
* ``storage_bytes()`` equals the payload sizes summed over ``entries()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import rng_for
from repro.core.ann import IVFParams
from repro.core.cache import LatentCache, VectorCache
from repro.core.tiering import TieredCacheConfig, TieredVectorCache
from repro.diffusion.latent import CachedLatent

DIM = 16
CAPACITY = 48
N_INSERTS = 120

BACKENDS = (
    "exact-fifo",
    "exact-lru",
    "exact-utility",
    "ivf-fp32",
    "tiered-fp16",
    "latent",
)
EXACT = ("exact-fifo", "exact-lru", "exact-utility", "latent")
#: Share of near-duplicate queries whose IVF top-1 must be the brute-force
#: best (nprobe=3 of 8 cells on clustered data).
RECALL_FLOOR = 0.8


def make_cache(kind: str, capacity: int = CAPACITY):
    ann = IVFParams(nlist=8, nprobe=3, train_min=32, seed="contract")
    if kind.startswith("exact-"):
        return VectorCache(capacity, DIM, policy=kind[len("exact-"):])
    if kind == "ivf-fp32":
        return VectorCache(
            capacity,
            DIM,
            backend="ivf",
            ann=IVFParams(
                nlist=8,
                nprobe=3,
                train_min=32,
                block_dtype="fp32",
                seed="contract",
            ),
        )
    if kind == "tiered-fp16":
        return TieredVectorCache(
            capacity,
            DIM,
            TieredCacheConfig(
                hot_capacity=capacity // 4,
                promote_hits=1,
                block_dtype="fp16",
            ),
            ann=ann,
        )
    assert kind == "latent"
    return LatentCache(capacity, DIM)


class _Sized:
    """A payload carrying only a storage size."""

    def __init__(self, size_bytes: int):
        self.size_bytes = size_bytes


def make_payload(kind: str, i: int):
    if kind == "latent":
        return CachedLatent(
            latent_id=f"l{i}",
            prompt_id=f"p{i}",
            model_name="sd3.5-large",
            content=np.zeros(4),
            size_bytes=1_000 + i,
        )
    # Every fifth payload has no size_bytes (counts as 0).
    return _Sized(100 + i) if i % 5 else f"unsized-{i}"


def clustered(n: int, seed) -> np.ndarray:
    """Unit rows around a few topics, so IVF cells are meaningful."""
    rng = rng_for("cache-contract", seed, n)
    topics = rng.standard_normal((6, DIM))
    rows = topics[rng.integers(0, 6, n)] + 0.3 * rng.standard_normal(
        (n, DIM)
    )
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def queries_near(data: np.ndarray, n: int, seed) -> np.ndarray:
    rng = rng_for("cache-contract-q", seed, n)
    picks = rng.integers(0, data.shape[0], n)
    return data[picks] + 0.05 * rng.standard_normal((n, DIM))


def churn(cache, kind: str, data: np.ndarray, start: int = 0) -> list:
    """Insert every row (ids ``start``...), retrieving and hitting every
    third step; returns the evicted entry ids in order."""
    evicted = []
    for i in range(data.shape[0]):
        out = cache.insert(
            make_payload(kind, start + i), data[i], now=float(start + i)
        )
        if out is not None:
            evicted.append(out.entry_id)
        if i % 3 == 0:
            entry, _ = cache.retrieve(data[i // 2])
            if entry is not None:
                cache.record_hit(entry, now=float(start + i))
    return evicted


def slot_of(cache, entry) -> int:
    """Slot of a live entry.

    Caches whose entries do not carry their slot (the per-object
    layout that preceded the columnar core) map entry id -> slot
    instead; reading through either keeps this suite and the flat
    sequence pins runnable on that layout, where they were recorded.
    """
    slot = getattr(entry, "slot", None)
    return cache._slot_of[entry.entry_id] if slot is None else slot


def answers(cache, queries: np.ndarray) -> list:
    out = []
    for q in queries:
        entry, sim = cache.retrieve(q)
        out.append((None if entry is None else entry.entry_id, sim))
    return out


def stats(cache) -> list:
    return [(e.entry_id, e.hits) for e in cache.entries()]


def brute_force(cache, query: np.ndarray):
    """(entry_id, cosine) of every live entry, best first."""
    unit = query / np.linalg.norm(query)
    return sorted(
        ((e.entry_id, float(e.embedding @ unit)) for e in cache.entries()),
        key=lambda pair: -pair[1],
    )


def built(kind: str, seed):
    data = clustered(N_INSERTS, seed)
    cache = make_cache(kind)
    churn(cache, kind, data)
    return cache, data


backends = pytest.mark.parametrize("kind", BACKENDS)
# Example budget from the hypothesis profile (tests/conftest.py).
seeds = given(seed=st.integers(0, 10_000))


@backends
class TestCacheContractRetrieval:
    @settings(deadline=None)
    @seeds
    def test_top1_matches_brute_force(self, kind, seed):
        cache, data = built(kind, seed)
        queries = queries_near(data[-CAPACITY:], 30, seed)
        agree = 0
        for q in queries:
            entry, sim = cache.retrieve(q)
            truth = brute_force(cache, q)
            own = dict(truth)[entry.entry_id]
            assert sim == pytest.approx(own, rel=0, abs=1e-12)
            if kind in EXACT:
                assert sim == pytest.approx(truth[0][1], rel=0, abs=1e-12)
            agree += entry.entry_id == truth[0][0]
        if kind in EXACT:
            assert agree == len(queries)
        else:
            assert agree >= RECALL_FLOOR * len(queries)

    @settings(deadline=None)
    @seeds
    def test_topk_order_is_descending_sim_then_slot(self, kind, seed):
        cache, data = built(kind, seed)
        for q in queries_near(data[-CAPACITY:], 10, seed):
            top = cache.retrieve_topk(q, 5)
            assert 1 <= len(top) <= 5
            keys = [(-sim, slot_of(cache, e)) for e, sim in top]
            assert keys == sorted(keys)
            assert len({e.entry_id for e, _ in top}) == len(top)
            if kind in EXACT:
                truth = brute_force(cache, q)[:5]
                assert [e.entry_id for e, _ in top] == [i for i, _ in truth]

    def test_topk_rejects_k_below_one_and_empty_cache(self, kind):
        cache = make_cache(kind)
        q = clustered(1, "empty")[0]
        with pytest.raises(ValueError):
            cache.retrieve_topk(q, 0)
        assert cache.retrieve_topk(q, 3) == []
        assert cache.retrieve(q) == (None, 0.0)
        cache.insert(make_payload(kind, 1), q, now=0.0)
        assert cache.retrieve(np.zeros(DIM)) == (None, 0.0)
        assert cache.retrieve_topk(np.zeros(DIM), 3) == []
        with pytest.raises(ValueError):
            cache.retrieve(np.zeros(DIM + 1))

    @settings(deadline=None)
    @seeds
    def test_batch_matches_retrieve(self, kind, seed):
        cache, data = built(kind, seed)
        queries = queries_near(data[-CAPACITY:], 9, seed)
        queries[4] = 0.0  # a zero row answers (None, 0.0)
        [(single, single_sim)] = cache.retrieve_batch(queries[:1])
        entry, sim = cache.retrieve(queries[0])
        assert single.entry_id == entry.entry_id
        assert slot_of(cache, single) == slot_of(cache, entry)
        assert single_sim == sim
        batched = cache.retrieve_batch(queries)
        assert batched[4] == (None, 0.0)
        for i, (b_entry, b_sim) in enumerate(batched):
            if i == 4:
                continue
            entry, sim = cache.retrieve(queries[i])
            assert b_entry.entry_id == entry.entry_id
            assert slot_of(cache, b_entry) == slot_of(cache, entry)
            if kind.startswith("exact") or kind == "latent":
                # One gemm vs per-row gemv: same winner, last-bit sims.
                assert np.isclose(b_sim, sim, rtol=0, atol=1e-12)
            else:
                assert b_sim == sim

    def test_batch_rejects_bad_shapes(self, kind):
        cache = make_cache(kind)
        with pytest.raises(ValueError):
            cache.retrieve_batch(np.zeros((2, DIM + 1)))
        with pytest.raises(ValueError):
            cache.retrieve_batch(np.zeros(DIM))


@backends
class TestCacheContractState:
    @settings(deadline=None)
    @seeds
    def test_restore_undoes_mutation(self, kind, seed):
        data = clustered(3 * N_INSERTS, seed)
        queries = queries_near(data[:N_INSERTS], 12, seed)
        mutated, control = make_cache(kind), make_cache(kind)
        for cache in (mutated, control):
            churn(cache, kind, data[:N_INSERTS])
        state = mutated.snapshot()
        churn(mutated, kind, data[N_INSERTS : 2 * N_INSERTS], N_INSERTS)
        if seed % 2:
            mutated.clear()
        mutated.restore(state)
        assert stats(mutated) == stats(control)
        assert answers(mutated, queries) == answers(control, queries)
        suffix = data[2 * N_INSERTS :]
        assert churn(mutated, kind, suffix, N_INSERTS) == churn(
            control, kind, suffix, N_INSERTS
        )
        assert stats(mutated) == stats(control)
        assert answers(mutated, queries) == answers(control, queries)

    def test_clear_keeps_id_and_traffic_counters(self, kind):
        cache, data = built(kind, "clear")
        counters = (cache.lookups, cache.insertions, cache.evictions)
        cache.clear()
        assert len(cache) == 0 and cache.entries() == []
        assert cache.storage_bytes() == 0
        assert cache.centroid() is None
        assert cache.coarse_centroids() is None
        assert (cache.lookups, cache.insertions, cache.evictions) == counters
        cache.insert(make_payload(kind, 0), data[0], now=0.0)
        # Ids continue where the cleared cache stopped.
        assert [e.entry_id for e in cache.entries()] == [N_INSERTS]

    @settings(deadline=None)
    @seeds
    def test_snapshot_entries_ascend_by_id(self, kind, seed):
        cache, _ = built(kind, seed)
        state = cache.snapshot()
        live = cache.entries()
        listed = cache.snapshot_entries(state)
        ids = [entry_id for entry_id, *_ in listed]
        assert ids == sorted(ids) == [e.entry_id for e in live]
        for (entry_id, payload, embedding, inserted_at), e in zip(
            listed, live
        ):
            assert payload is e.payload
            assert inserted_at == e.inserted_at == float(entry_id)
            np.testing.assert_array_equal(embedding, e.embedding)

    def test_stale_view_is_inert(self, kind):
        cache, data = built(kind, "stale")
        stale, _ = cache.retrieve(data[-1])
        # Recycle every slot: the view's entry is gone.
        cache.clear()
        churn(cache, kind, clustered(CAPACITY, "stale-2"), N_INSERTS)
        assert stale.entry_id not in {e.entry_id for e in cache.entries()}
        before = stats(cache)
        promotions = getattr(cache, "promotions", 0)
        state = cache.snapshot()
        cache.record_hit(stale, now=1e6)
        assert stats(cache) == before
        assert getattr(cache, "promotions", 0) == promotions
        # Eviction order is unaffected too.
        fresh = clustered(CAPACITY, "stale-3")
        after_hit = churn(cache, kind, fresh, 1_000)
        cache.restore(state)
        assert churn(cache, kind, fresh, 1_000) == after_hit

    @settings(deadline=None)
    @seeds
    def test_storage_bytes_is_sum_over_entries(self, kind, seed):
        cache, data = built(kind, seed)

        def per_entry():
            return sum(
                getattr(e.payload, "size_bytes", 0) for e in cache.entries()
            )

        assert cache.storage_bytes() == per_entry() > 0
        state = cache.snapshot()
        churn(cache, kind, data[:20], N_INSERTS)
        assert cache.storage_bytes() == per_entry()
        cache.restore(state)
        assert cache.storage_bytes() == per_entry()
        cache.clear()
        assert cache.storage_bytes() == per_entry() == 0


class TestCacheContractLatentFilter:
    def test_model_filter_matches_retrieve(self):
        cache, data = built("latent", "filter")
        queries = queries_near(data[-CAPACITY:], 6, "filter")
        for q in queries:
            entry, sim = cache.retrieve(q)
            own, own_sim = cache.retrieve_for_model(q, "sd3.5-large")
            assert (own.entry_id, own_sim) == (entry.entry_id, sim)
            assert cache.retrieve_for_model(q, "sdxl") == (None, 0.0)
        batched = cache.retrieve_batch_for_model(queries, "sd3.5-large")
        assert [e.entry_id for e, _ in batched] == [
            cache.retrieve(q)[0].entry_id for q in queries
        ]
        assert cache.retrieve_batch_for_model(queries, "sdxl") == [
            (None, 0.0)
        ] * len(queries)
