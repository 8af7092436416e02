"""Tiered cache: cold store, parity, promotion, snapshots, integration.

The tiered cache's core claim is *residency independence*: hot rows are
bit-exact copies of cold rows, so where an entry lives can change
modelled latency but never a retrieval result.  These tests pin that
claim three ways — against an exact brute-force cache, across hot-tier
sizes under hypothesis-driven churn, and across snapshot/restore
boundaries (including a fresh process-like object reattaching to a
durable cold file).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._rng import rng_for
from repro.core.ann import IVFParams
from repro.core.cache import VectorCache, make_image_cache
from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    MoDMConfig,
)
from repro.core.tiering import (
    COLD_FETCH_UNITS,
    ColdExtentError,
    ColdStore,
    ColdWriterError,
    TieredCacheConfig,
    TieredVectorCache,
)
from test_ann import assert_blocks_hold_rounded_rows, rounded

DIM = 16


def embeddings(n: int, seed: str = "tiering-test") -> np.ndarray:
    rows = rng_for(seed, n, DIM).standard_normal((n, DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def exact_tiered(capacity: int, **tiering_kw) -> TieredVectorCache:
    """A tiered cache parameterized to be *exactly* exact: every cell
    probed and a shortlist as wide as the cache, so the f64 re-rank
    covers every live entry."""
    kw = dict(shortlist=capacity, cold_dir=None)
    kw.update(tiering_kw)
    return TieredVectorCache(
        capacity=capacity,
        embed_dim=DIM,
        tiering=TieredCacheConfig(**kw),
        ann=IVFParams(nlist=8, nprobe=8, train_min=32, seed="tier-t"),
    )


def churn(cache, data: np.ndarray, hit_every: int = 3) -> None:
    """Insert every row; periodically retrieve-and-hit to drive
    promotions (and demotions once the hot store fills)."""
    for i in range(data.shape[0]):
        cache.insert(i, data[i], now=float(i))
        if i % hit_every == 0:
            entry, _ = cache.retrieve(data[i // 2])
            if entry is not None:
                cache.record_hit(entry, now=float(i))


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestTieredCacheConfig:
    def test_defaults_valid(self):
        cfg = TieredCacheConfig()
        assert cfg.block_dtype == "fp16"
        assert cfg.tier_policy == "utility"

    @pytest.mark.parametrize(
        "kw",
        [
            {"hot_capacity": -1},
            {"promote_hits": 0},
            {"tier_policy": "nope"},
            {"block_dtype": "fp8"},
            {"shortlist": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kw):
        with pytest.raises(ValueError):
            TieredCacheConfig(**kw)

    def test_resolved_hot_capacity(self):
        assert TieredCacheConfig().resolved_hot_capacity(800) == 100
        assert TieredCacheConfig().resolved_hot_capacity(4) == 1
        cfg = TieredCacheConfig(hot_capacity=50)
        assert cfg.resolved_hot_capacity(800) == 50
        # Explicit hot capacity clamps to the cache capacity.
        assert cfg.resolved_hot_capacity(20) == 20

    def test_modm_config_requires_ivf_and_fifo(self):
        base = dict(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=2),
            cache_capacity=100,
            small_models=("sdxl",),
            cache_tiering=TieredCacheConfig(),
        )
        with pytest.raises(ValueError, match="ivf"):
            MoDMConfig(**base)
        with pytest.raises(ValueError, match="fifo"):
            MoDMConfig(
                **base, retrieval_backend="ivf", cache_policy="utility"
            )
        cfg = MoDMConfig(**base, retrieval_backend="ivf")
        assert cfg.cache_tiering is not None

    def test_cache_requires_fifo_and_ivf(self):
        with pytest.raises(ValueError, match="fifo"):
            TieredVectorCache(
                10, DIM, TieredCacheConfig(), policy="utility"
            )
        with pytest.raises(ValueError, match="ivf"):
            TieredVectorCache(
                10, DIM, TieredCacheConfig(), backend="exact"
            )

    def test_make_image_cache_dispatches_on_tiering(self):
        cache = make_image_cache(
            capacity=32,
            embed_dim=DIM,
            tiering=TieredCacheConfig(),
            backend="ivf",
        )
        assert isinstance(cache, TieredVectorCache)


# ----------------------------------------------------------------------
# Cold store
# ----------------------------------------------------------------------
class TestColdStore:
    def test_append_read_round_trip(self):
        store = ColdStore(DIM)
        data = embeddings(40, seed="cold-rt")
        start = store.append_rows(data[:25])
        assert start == 0
        assert store.append_rows(data[25:]) == 25
        assert store.rows == 40
        np.testing.assert_array_equal(store.read_row(7), data[7])
        picks = np.array([3, 39, 0, 17])
        np.testing.assert_array_equal(
            store.read_rows(picks), data[picks]
        )
        store.close()

    def test_chunks_stream_whole_extent(self):
        store = ColdStore(DIM)
        data = embeddings(100, seed="cold-chunks")
        store.append_rows(data)
        seen = []
        for start, rows in store.chunks(chunk_rows=33):
            assert start == sum(r.shape[0] for _, r in seen)
            seen.append((start, rows))
        np.testing.assert_array_equal(
            np.vstack([r for _, r in seen]), data
        )
        store.close()

    def test_check_extent_beyond_file_rejected(self):
        store = ColdStore(DIM)
        store.append_rows(embeddings(10, seed="cold-ov"))
        store.check_extent(10)
        with pytest.raises(ColdExtentError, match="snapshot needs"):
            store.check_extent(11)
        store.close()

    def test_reattach_persistent_file(self, tmp_path):
        path = str(tmp_path / "cold.f64")
        data = embeddings(12, seed="cold-persist")
        first = ColdStore(DIM, path=path)
        first.append_rows(data)
        first.close()
        # A fresh store on the same file opens with its cursor at the
        # file's end: the rows a snapshot references are readable at
        # once (the cross-process warm-start handshake), and new rows
        # append after them instead of over them.
        second = ColdStore(DIM, path=path)
        assert second.rows == 12
        np.testing.assert_array_equal(second.read_rows(
            np.arange(12)), data)
        more = embeddings(3, seed="cold-persist-2")
        assert second.append_rows(more) == 12
        np.testing.assert_array_equal(
            second.read_rows(np.arange(15)), np.vstack([data, more])
        )
        second.close()

    def test_second_writer_is_refused(self, tmp_path):
        """Two stores open on one file at once: the first to append
        moves the file's end, so the other's next append raises
        instead of writing over those rows."""
        path = str(tmp_path / "cold.f64")
        base = embeddings(3, seed="cold-writers")
        ColdStore(DIM, path=path).append_rows(base)
        second = ColdStore(DIM, path=path)
        third = ColdStore(DIM, path=path)
        assert second.rows == third.rows == 3
        mine = embeddings(2, seed="cold-writer-b")
        assert second.append_rows(mine) == 3
        with pytest.raises(ColdWriterError, match="another writer"):
            third.append_rows(embeddings(2, seed="cold-writer-c"))
        assert issubclass(ColdWriterError, ColdExtentError)
        assert third.rows == 3
        assert os.path.getsize(path) == 5 * DIM * 8
        reader = ColdStore(DIM, path=path)
        np.testing.assert_array_equal(
            reader.read_rows(np.arange(5)), np.vstack([base, mine])
        )
        # The store that still owns the file's end keeps appending.
        assert second.append_rows(mine[:1]) == 5
        for store in (second, third, reader):
            store.close()

    def test_torn_tail_is_overwritten_by_reattached_store(self, tmp_path):
        """A file holding N whole rows plus a partial one (a crash
        mid-append) reattaches at row N, and its next append writes
        over the partial row instead of refusing as a second writer."""
        path = str(tmp_path / "cold.f64")
        base = embeddings(4, seed="cold-torn")
        ColdStore(DIM, path=path).append_rows(base)
        with open(path, "ab") as f:
            f.write(b"\x01" * 5)
        store = ColdStore(DIM, path=path)
        assert store.rows == 4
        more = embeddings(2, seed="cold-torn-2")
        assert store.append_rows(more) == 4
        assert os.path.getsize(path) == 6 * DIM * 8
        np.testing.assert_array_equal(
            store.read_rows(np.arange(6)), np.vstack([base, more])
        )
        store.close()

    def test_shape_validation(self):
        store = ColdStore(DIM)
        with pytest.raises(ValueError, match="shape"):
            store.append_rows(np.zeros((3, DIM + 1)))
        with pytest.raises(IndexError):
            store.read_row(0)
        store.close()

    def test_appends_visible_to_every_read_path(self, tmp_path):
        """Single-row and block appends are readable at once through
        read_row, read_rows and chunks(), interleaved with appends and
        without any flush, and a fresh store on the same path reads
        the same bytes back."""
        path = str(tmp_path / "cold.f64")
        data = embeddings(9, seed="cold-visible")
        store = ColdStore(DIM, path=path)
        for i in range(4):
            assert store.append_rows(data[i : i + 1]) == i
            np.testing.assert_array_equal(store.read_row(i), data[i])
        assert store.append_rows(data[4:]) == 4
        picks = np.array([8, 0, 4, 4, 3])
        np.testing.assert_array_equal(store.read_rows(picks), data[picks])
        streamed = np.vstack([rows for _, rows in store.chunks(4)])
        np.testing.assert_array_equal(streamed, data)
        fresh = ColdStore(DIM, path=path)
        assert fresh.rows == 9
        np.testing.assert_array_equal(fresh.read_rows(np.arange(9)), data)
        np.testing.assert_array_equal(fresh.read_row(5), data[5])
        fresh.close()
        store.close()

    def test_read_results_are_fresh_writable_arrays(self):
        store = ColdStore(DIM)
        data = embeddings(3, seed="cold-fresh")
        store.append_rows(data)
        row = store.read_row(1)
        rows = store.read_rows(np.array([2, 0]))
        row[:] = 0.0
        rows[:] = 0.0
        np.testing.assert_array_equal(store.read_row(1), data[1])
        np.testing.assert_array_equal(
            store.read_rows(np.array([2, 0])), data[[2, 0]]
        )
        assert store.read_rows(np.array([], dtype=np.int64)).shape == (
            0,
            DIM,
        )
        store.close()

    def test_out_of_range_rows_raise_index_error(self):
        store = ColdStore(DIM)
        store.append_rows(embeddings(5, seed="cold-range"))
        for bad in (-1, 5):
            with pytest.raises(IndexError):
                store.read_row(bad)
            with pytest.raises(IndexError):
                store.read_rows(np.array([0, bad]))
        store.close()

    def test_truncated_file_raises_io_error(self, tmp_path):
        """Rows the cursor vouches for but the file no longer holds are
        short reads on every read path, never silent garbage."""
        path = str(tmp_path / "cold.f64")
        store = ColdStore(DIM, path=path)
        store.append_rows(embeddings(6, seed="cold-trunc"))
        os.truncate(path, 4 * DIM * 8 + 5)
        np.testing.assert_array_equal(
            store.read_row(3), embeddings(6, seed="cold-trunc")[3]
        )
        with pytest.raises(IOError, match="short read"):
            store.read_row(4)
        with pytest.raises(IOError, match="short read at row 5"):
            store.read_rows(np.array([1, 5, 2]))
        with pytest.raises(IOError, match="short read"):
            list(store.chunks(chunk_rows=4))
        store.close()


# ----------------------------------------------------------------------
# Retrieval parity with the exact cache
# ----------------------------------------------------------------------
class TestExactParity:
    N, CAP = 600, 400

    def _pair(self):
        data = embeddings(self.N, seed="parity")
        exact = VectorCache(
            capacity=self.CAP, embed_dim=DIM, policy="fifo"
        )
        tiered = exact_tiered(self.CAP, hot_capacity=40)
        for i in range(self.N):
            exact.insert(i, data[i], now=float(i))
            tiered.insert(i, data[i], now=float(i))
        return data, exact, tiered

    def test_top1_matches_exact_after_churn(self):
        data, exact, tiered = self._pair()
        queries = embeddings(60, seed="parity-q")
        for q in queries:
            e_entry, e_sim = exact.retrieve(q)
            t_entry, t_sim = tiered.retrieve(q)
            assert t_sim == e_sim
            assert t_entry.payload == e_entry.payload

    def test_topk_matches_exact(self):
        data, exact, tiered = self._pair()
        for q in embeddings(20, seed="parity-topk"):
            e_top = exact.retrieve_topk(q, 5)
            t_top = tiered.retrieve_topk(q, 5)
            assert [s for _, s in t_top] == [s for _, s in e_top]
            assert [e.payload for e, _ in t_top] == [
                e.payload for e, _ in e_top
            ]

    def test_returned_similarity_is_exact_dot(self):
        data, _, tiered = self._pair()
        q = embeddings(1, seed="parity-sim")[0]
        entry, sim = tiered.retrieve(q)
        assert sim == float(entry.embedding @ q)

    def test_batch_matches_sequential(self):
        _, _, tiered = self._pair()
        queries = embeddings(10, seed="parity-batch")
        batched = tiered.retrieve_batch(queries)
        for i, (entry, sim) in enumerate(batched):
            # retrieve_batch routes through retrieve per row.
            single_entry, single_sim = tiered.retrieve(queries[i])
            assert sim == single_sim
            assert entry.payload == single_entry.payload


class TestPinnedSequence:
    """A fixed insert/retrieve/record_hit sequence through every tier
    path — exact fallback before training, fp16 probe + shortlist
    re-rank after it, a retraining, FIFO evictions (tombstones and
    compactions), duplicate embeddings (exact ties), promotions and
    demotions — hashed over (slot, similarity bytes) against a recorded
    digest, so any change to a returned slot or a single similarity
    bit fails it."""

    DIGEST = (
        "d89bb3773af57b6a4b0bb9f31f6c02130af6b29d5e4c6e35e2afe495a38b8a16"
    )

    @staticmethod
    def run_sequence():
        cache = TieredVectorCache(
            capacity=192,
            embed_dim=DIM,
            tiering=TieredCacheConfig(hot_capacity=12, promote_hits=1),
            ann=IVFParams(nlist=8, nprobe=3, train_min=64, seed="pin"),
        )
        data = embeddings(640, seed="tier-pin")
        for i in range(37, 640, 37):
            data[i] = data[i - 30]  # exact duplicates tie in the scan
        noise = rng_for("tier-pin-noise").standard_normal((640, DIM))
        digest = hashlib.sha256()

        def record(slot, sim):
            digest.update(np.int64(slot).tobytes())
            digest.update(np.float64(sim).tobytes())

        for i in range(640):
            cache.insert(i, data[i], now=float(i))
            if i % 2:
                continue
            query = data[max(0, i - (7 * i) % 150)] + 0.05 * noise[i]
            entry, sim = cache.retrieve(query)
            record(entry.slot, sim)
            if i % 4 == 0:
                cache.record_hit(entry, now=float(i))
            if i % 16 == 0:
                for view, top_sim in cache.retrieve_topk(query, 3):
                    record(view.slot, top_sim)
        return cache, digest.hexdigest()

    def test_digest_and_tier_traffic_are_pinned(self):
        cache, digest = self.run_sequence()
        assert cache.index.trainings == 2
        assert cache.evictions == 640 - 192
        assert cache.promotions > cache.hot_capacity
        assert cache.demotions > 0
        assert digest == self.DIGEST


class _Sized:
    """A payload carrying only a storage size."""

    def __init__(self, size_bytes):
        self.size_bytes = size_bytes


class TestStorageBytesRunningTotal:
    """Both caches keep ``storage_bytes()`` as a running total; it must
    equal the per-entry payload sum after any churn, clear and
    snapshot -> restore."""

    # Example budget from the hypothesis profile (tests/conftest.py).
    @settings(deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert"] * 6 + ["hit", "snapshot", "restore", "clear"]
                ),
                st.integers(0, 10_000),
            ),
            min_size=8,
            max_size=60,
        ),
        kind=st.sampled_from(["fifo", "lru", "utility", "tiered"]),
    )
    def test_matches_per_entry_sum(self, ops, kind):
        data = embeddings(40, seed="storage-total")
        # Capacity 3, so most runs evict.
        if kind == "tiered":
            cache = exact_tiered(3, hot_capacity=1, promote_hits=1)
        else:
            cache = VectorCache(capacity=3, embed_dim=DIM, policy=kind)

        def per_entry():
            return sum(
                getattr(e.payload, "size_bytes", 0) for e in cache.entries()
            )

        state = cache.snapshot()
        for i, (op, arg) in enumerate(ops):
            if op == "insert":
                # Every fifth payload has no size_bytes (counts as 0).
                payload = _Sized(arg) if arg % 5 else f"unsized-{i}"
                cache.insert(payload, data[i % 40], now=float(i))
            elif op == "hit":
                entry, _ = cache.retrieve(data[arg % 40])
                if entry is not None:
                    cache.record_hit(entry, now=float(i))
            elif op == "snapshot":
                state = cache.snapshot()
            elif op == "restore":
                cache.restore(state)
            else:
                cache.clear()
            assert cache.storage_bytes() == per_entry()
        cache.restore(cache.snapshot())
        assert cache.storage_bytes() == per_entry()


class TestResidencyIndependence:
    # Example budget from the hypothesis profile (tests/conftest.py).
    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_hot_capacity_never_changes_results(self, seed):
        data = embeddings(120, seed=f"resid-{seed}")
        tiny = exact_tiered(80, hot_capacity=2, promote_hits=1)
        huge = exact_tiered(80, hot_capacity=80, promote_hits=1)
        for cache in (tiny, huge):
            churn(cache, data, hit_every=2)
        # The tiny cache was forced through promotion/demotion churn,
        # the huge one promoted freely — results must be identical.
        assert tiny.demotions > 0
        assert huge.demotions == 0
        for q in embeddings(25, seed=f"resid-q-{seed}"):
            t_entry, t_sim = tiny.retrieve(q)
            h_entry, h_sim = huge.retrieve(q)
            assert t_sim == h_sim
            assert t_entry.payload == h_entry.payload


# Every op in one run: FIFO churn long enough to compact a cell, hits
# that promote and demote, a restore, a bulk load and a clear.
_TIER_CHURN = (
    [("insert", i % 64) for i in range(40)]
    + [("hit", i) for i in range(0, 40, 3)]
    + [("snapshot", 0)]
    + [("insert", (5 * i) % 64) for i in range(60)]
    + [("restore", 0), ("retrain", 0), ("bulk-load", 11)]
    + [("insert", (3 * i) % 64) for i in range(50)]
    + [("hit", i) for i in range(0, 60, 7)]
    + [("clear", 0), ("insert", 1)]
)


class TestTieredQuantizationOracle:
    """The tiered cache's scan blocks hold, row for row, its exact
    rows (read from the hot store and the cold file) rounded once to
    the block precision, through insert, eviction, promotion, retrain,
    snapshot -> restore (block-free), ``bulk_load`` and ``clear``."""

    @staticmethod
    def _cache(block_dtype):
        return TieredVectorCache(
            capacity=24,
            embed_dim=DIM,
            tiering=TieredCacheConfig(
                hot_capacity=4, promote_hits=1, block_dtype=block_dtype
            ),
            ann=IVFParams(
                nlist=2, nprobe=1, train_min=12, retrain_inserts=120,
                seed="tier-quant",
            ),
        )

    @staticmethod
    def exact_rows(cache, slots):
        out = np.empty((slots.size, DIM))
        hot_rows = cache._hot_row[slots]
        hot = hot_rows >= 0
        out[hot] = cache._hot_store[hot_rows[hot]]
        out[~hot] = cache.cold_store.read_rows(
            cache._cold_row[slots[~hot]]
        )
        # Residency independence: a hot row is its cold row's copy.
        np.testing.assert_array_equal(
            out[hot],
            cache.cold_store.read_rows(cache._cold_row[slots[hot]]),
        )
        return out

    @pytest.mark.parametrize("block_dtype", ["fp16", "fp32"])
    # Example budget from the hypothesis profile (tests/conftest.py).
    @settings(deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert"] * 8
                    + ["hit", "retrain", "snapshot", "restore",
                       "bulk-load", "clear"]
                ),
                st.integers(0, 63),
            ),
            min_size=30,
            max_size=120,
        ),
    )
    @example(ops=_TIER_CHURN)
    def test_blocks_hold_rounded_exact_rows(self, block_dtype, ops):
        data = embeddings(64, seed="tier-quant")
        data[::9, :4] = 1.0 + 2.0**-11 + 2.0**-40  # rounds differently via f32
        cache = self._cache(block_dtype)
        history = {slot: set() for slot in range(24)}
        saved = cache.snapshot()
        for step, (op, arg) in enumerate(ops):
            if op == "insert":
                cache.insert(step, data[arg], now=float(step))
                history[cache.entries()[-1].slot].add(
                    rounded(data[arg], block_dtype).tobytes()
                )
            elif op == "hit":
                entry, _ = cache.retrieve(data[arg])  # trains lazily
                if entry is not None:
                    cache.record_hit(entry, now=float(step))
            elif op == "retrain":
                cache.index.train()
            elif op == "snapshot":
                saved = cache.snapshot()
            elif op == "restore":
                cache.restore(saved)
            elif op == "bulk-load":
                # bulk_load needs a never-used cache: start a new one.
                n = 12 + arg % 13
                cache = self._cache(block_dtype)
                cache.bulk_load(
                    lambda: (data[i : min(n, i + 5)] for i in range(0, n, 5)),
                    now=float(step),
                )
                history = {
                    slot: {rounded(data[slot], block_dtype).tobytes()}
                    if slot < n
                    else set()
                    for slot in range(24)
                }
                saved = cache.snapshot()
            else:
                cache.clear()
            assert_blocks_hold_rounded_rows(
                cache.index,
                lambda slots: self.exact_rows(cache, slots),
                history,
            )


class TestShortlistGather:
    """``_SlotRows`` (the matrix the IVF re-rank gathers from) serves
    every residency mix with exactly one cold read per cold row."""

    @pytest.mark.parametrize("mix", ["hot", "cold", "mixed", "empty"])
    def test_rows_match_per_slot_reads(self, mix):
        cache = exact_tiered(64, hot_capacity=8, promote_hits=1)
        churn(cache, embeddings(100, seed="gather"))
        live = np.flatnonzero(cache._live)
        hot = live[cache._hot_row[live] >= 0]
        cold = live[cache._hot_row[live] < 0]
        assert hot.size >= 4 and cold.size >= 4
        slots = {
            "hot": hot[::-1],
            "cold": cold[[3, 0, 2, 0]],  # unordered, one repeat
            "mixed": np.array([cold[1], hot[0], cold[0], hot[2]]),
            "empty": live[:0],
        }[mix]
        n_cold = int((cache._hot_row[slots] < 0).sum())
        before = cache.cold_reads
        got = cache._rows[slots]
        assert cache.cold_reads - before == n_cold
        assert got.shape == (slots.size, DIM)
        assert got.dtype == np.float64 and got.flags.writeable
        want = [cache._row(int(slot)) for slot in slots]
        assert got.tobytes() == np.asarray(want).reshape(-1, DIM).tobytes()


# ----------------------------------------------------------------------
# Tier movement
# ----------------------------------------------------------------------
class TestPromotionDemotion:
    def test_insert_starts_cold_promotes_on_nth_hit(self):
        cache = exact_tiered(16, hot_capacity=4, promote_hits=2)
        data = embeddings(8, seed="promo")
        for i in range(8):
            cache.insert(i, data[i], now=float(i))
        entry, _ = cache.retrieve(data[3])
        # The hit entry itself moves: its slot gains a hot-store row.
        assert entry.payload == 3 and cache._hot_row[entry.slot] < 0
        cache.record_hit(entry, now=10.0)
        assert cache._hot_row[entry.slot] < 0 and cache.promotions == 0
        cache.record_hit(entry, now=11.0)
        assert cache._hot_row[entry.slot] >= 0 and cache.promotions == 1
        assert cache.hot_count == 1
        np.testing.assert_array_equal(
            cache._hot_store[cache._hot_row[entry.slot]], data[3]
        )

    def test_full_hot_store_demotes_a_victim(self):
        cache = exact_tiered(16, hot_capacity=2, promote_hits=1)
        data = embeddings(6, seed="demo")
        for i in range(6):
            cache.insert(i, data[i], now=float(i))
        for i in range(3):
            entry, _ = cache.retrieve(data[i])
            cache.record_hit(entry, now=float(10 + i))
        assert cache.promotions == 3
        assert cache.demotions == 1
        assert cache.hot_count == 2

    def test_tier_events_fire_in_order(self):
        cache = exact_tiered(16, hot_capacity=1, promote_hits=1)
        events = []
        cache.on_tier_event = lambda now, kind, slot, eid: events.append(
            (now, kind, slot, eid)
        )
        data = embeddings(4, seed="events")
        for i in range(4):
            cache.insert(i, data[i], now=float(i))
        for i in range(2):
            entry, _ = cache.retrieve(data[i])
            cache.record_hit(entry, now=float(10 + i))
        kinds = [kind for _, kind, _, _ in events]
        assert kinds == ["promote", "demote", "promote"]
        # Events carry the live slot/entry-id pair at fire time.
        for _, _, slot, eid in events:
            assert 0 <= slot < cache.capacity

    def test_stale_view_is_inert(self):
        cache = exact_tiered(4, hot_capacity=2, promote_hits=1)
        data = embeddings(9, seed="stale")
        for i in range(4):
            cache.insert(i, data[i], now=float(i))
        entry, _ = cache.retrieve(data[0])
        before = cache.promotions
        # Wrap the ring: every original slot is recycled.
        for i in range(4, 9):
            cache.insert(i, data[i], now=float(i))
        cache.record_hit(entry, now=20.0)
        assert cache.promotions == before

    def test_eviction_frees_hot_row(self):
        cache = exact_tiered(4, hot_capacity=4, promote_hits=1)
        data = embeddings(8, seed="evict-hot")
        for i in range(4):
            cache.insert(i, data[i], now=float(i))
            entry, _ = cache.retrieve(data[i])
            cache.record_hit(entry, now=float(i))
        assert cache.hot_count == 4
        evicted = cache.insert(4, data[4], now=4.0)
        assert evicted is not None and evicted.entry_id == 0
        # The evicted record keeps a real embedding copy.
        np.testing.assert_array_equal(evicted.embedding, data[0])
        assert cache.hot_count == 3

    def test_cold_latency_exceeds_hot_latency(self):
        cold = exact_tiered(64, hot_capacity=1, promote_hits=10_000)
        hot = exact_tiered(64, hot_capacity=64, promote_hits=1)
        data = embeddings(64, seed="latency")
        for i in range(64):
            cold.insert(i, data[i], now=float(i))
            hot.insert(i, data[i], now=float(i))
        for i in range(64):
            entry, _ = hot.retrieve(data[i])
            hot.record_hit(entry, now=float(100 + i))
        assert hot.hot_count == 64
        assert cold.hot_count == 0
        assert cold.scan_entries() > hot.scan_entries()
        assert (
            cold.retrieval_latency_s() > hot.retrieval_latency_s()
        )
        # An all-cold untrained cache pays COLD_FETCH_UNITS per entry.
        tiny = exact_tiered(8, hot_capacity=1, promote_hits=10_000)
        tiny.insert(0, data[0], now=0.0)
        assert tiny.scan_entries() == 1 + (COLD_FETCH_UNITS - 1)


# ----------------------------------------------------------------------
# Snapshot / restore / clear
# ----------------------------------------------------------------------
def query_digest(cache, seed: str = "digest", n: int = 40):
    out = []
    for q in embeddings(n, seed=seed):
        entry, sim = cache.retrieve(q)
        out.append((entry.payload if entry else None, sim))
    return out


class TestSnapshotRestore:
    def test_restore_reproduces_results_in_process(self):
        cache = exact_tiered(64, hot_capacity=8, promote_hits=1)
        data = embeddings(200, seed="snap")
        churn(cache, data[:120])
        state = cache.snapshot()
        before = query_digest(cache)
        hot_before = cache.hot_count
        # Diverge: more churn, then restore back.
        churn(cache, data[120:])
        assert query_digest(cache) != before
        cache.restore(state)
        assert query_digest(cache) == before
        assert cache.hot_count == hot_before
        assert len(cache) == min(64, 120)

    def test_restore_replay_matches_original(self):
        data = embeddings(160, seed="snap-replay")
        a = exact_tiered(48, hot_capacity=6, promote_hits=1)
        churn(a, data[:100])
        state = a.snapshot()
        churn(a, data[100:])
        after = query_digest(a, seed="snap-replay-q")
        counters = (a.promotions, a.demotions, a.evictions)
        # Restore to the snapshot and replay the same suffix: the
        # rebuilt blocks and hot rows must reproduce the run bit-for-bit
        # (an anonymous cold file restores in-process only; the durable
        # cross-object path is tested separately).
        a.restore(state)
        churn(a, data[100:])
        assert query_digest(a, seed="snap-replay-q") == after
        assert (a.promotions, a.demotions, a.evictions) == counters

    def test_fresh_object_reattaches_durable_cold_file(self, tmp_path):
        cold_dir = str(tmp_path / "tier")
        data = embeddings(120, seed="snap-durable")
        a = exact_tiered(
            48, hot_capacity=6, promote_hits=1, cold_dir=cold_dir
        )
        churn(a, data)
        state = a.snapshot()
        before = query_digest(a, seed="snap-durable-q")
        a.cold_store.close()
        # A brand-new cache object (fresh process stand-in) adopts the
        # snapshot against the on-disk cold file.
        b = exact_tiered(
            48, hot_capacity=6, promote_hits=1, cold_dir=cold_dir
        )
        b.restore(state)
        assert query_digest(b, seed="snap-durable-q") == before
        assert b.hot_count == a.hot_count

    def test_snapshot_is_block_and_hot_free(self):
        cache = exact_tiered(64, hot_capacity=8, promote_hits=1)
        churn(cache, embeddings(100, seed="snap-lean"))
        state = cache.snapshot()
        assert state.index_state.blocks is None
        field_names = set(vars(state))
        assert not any("hot_store" in name for name in field_names)

    def test_restore_shape_mismatch_rejected(self):
        cache = exact_tiered(64, hot_capacity=8)
        state = cache.snapshot()
        other = exact_tiered(32, hot_capacity=8)
        with pytest.raises(ValueError, match="mismatch"):
            other.restore(state)

    def test_clear_then_refill_matches_fresh(self):
        data = embeddings(90, seed="clear")
        a = exact_tiered(32, hot_capacity=4, promote_hits=1)
        churn(a, data[:50])
        old_rows = a.cold_store.read_rows(np.arange(50))
        a.clear()
        assert len(a) == 0 and a.hot_count == 0
        # Cold rows are append-only: clear keeps them, and the refill
        # appends after them instead of writing over them.
        assert a.cold_store.rows == 50
        churn(a, data[50:])
        assert a.cold_store.rows == 90
        np.testing.assert_array_equal(
            a.cold_store.read_rows(np.arange(50)), old_rows
        )
        b = exact_tiered(32, hot_capacity=4, promote_hits=1)
        # Align id streams: clear() keeps the counter position.
        for _ in range(50):
            next(b._ids)
        churn(b, data[50:])
        assert query_digest(a, seed="clear-q") == query_digest(
            b, seed="clear-q"
        )


# ----------------------------------------------------------------------
# Bulk load
# ----------------------------------------------------------------------
class TestBulkLoad:
    def test_matches_incremental_inserts(self):
        data = embeddings(400, seed="bulk")
        bulk = exact_tiered(400)
        bulk.bulk_load(
            lambda: (data[i : i + 150] for i in range(0, 400, 150)),
            now=0.0,
        )
        incr = exact_tiered(400)
        for i in range(400):
            incr.insert(None, data[i], now=0.0)
        assert len(bulk) == 400
        for q in embeddings(30, seed="bulk-q"):
            _, b_sim = bulk.retrieve(q)
            _, i_sim = incr.retrieve(q)
            assert b_sim == i_sim

    def test_loads_after_rows_of_a_reattached_file(self, tmp_path):
        """A cache on a ``cold_dir`` that already holds rows bulk-loads
        after them, leaves them as they were, and answers exactly like
        a load into an empty file."""
        cold_dir = str(tmp_path / "tier")
        old = embeddings(30, seed="bulk-old")
        first = exact_tiered(64, cold_dir=cold_dir)
        churn(first, old)
        first.cold_store.close()
        data = embeddings(200, seed="bulk-re")
        reattached = exact_tiered(200, cold_dir=cold_dir)
        assert reattached.cold_store.rows == 30
        reattached.bulk_load(
            lambda: (data[i : i + 70] for i in range(0, 200, 70)),
            now=0.0,
        )
        empty = exact_tiered(200)
        empty.bulk_load(lambda: iter((data,)), now=0.0)
        assert reattached.cold_store.rows == 230
        np.testing.assert_array_equal(
            reattached.cold_store.read_rows(np.arange(30)), old
        )
        assert query_digest(reattached, seed="bulk-re-q") == (
            query_digest(empty, seed="bulk-re-q")
        )

    def test_requires_empty_cache(self):
        cache = exact_tiered(16)
        cache.insert(0, embeddings(1, seed="bulk-ne")[0], now=0.0)
        with pytest.raises(ValueError, match="empty"):
            cache.bulk_load(lambda: iter(()), now=0.0)

    def test_overflow_rejected(self):
        cache = exact_tiered(8)
        data = embeddings(9, seed="bulk-ov")
        with pytest.raises(ValueError, match="overflows"):
            cache.bulk_load(lambda: iter((data,)), now=0.0)


class TestBulkLoadPin:
    """The bulk-build path (``build_from_chunks``) pinned like
    :class:`TestPinnedSequence` pins the incremental one: a 5k-row fp16
    tiered cache loaded in uneven chunks, queried by ``retrieve`` and
    ``retrieve_topk``, hashed over (slot, similarity bytes).  The digest
    was recorded while fp16 blocks were still stored half-width and
    decoded per probe."""

    DIGEST = (
        "ad31995c4cd8bf529b3d9658dcee348ed10a4b5683758a7b3638cc18d9afda0c"
    )

    @staticmethod
    def run_sequence():
        n = 5_000
        cache = TieredVectorCache(
            capacity=n,
            embed_dim=DIM,
            tiering=TieredCacheConfig(hot_capacity=64, block_dtype="fp16"),
            ann=IVFParams(nlist=16, nprobe=3, seed="bulk-pin"),
        )
        data = embeddings(n, seed="bulk-pin")
        data[1_000::997] = data[3:8]  # exact duplicates tie in the scan
        cache.bulk_load(
            lambda: (data[i : i + 1_700] for i in range(0, n, 1_700)),
            now=0.0,
        )
        noise = rng_for("bulk-pin-noise").standard_normal((300, DIM))
        digest = hashlib.sha256()
        for i in range(300):
            query = data[(i * 613) % n] + 0.05 * (i % 4) * noise[i]
            entry, sim = cache.retrieve(query)
            digest.update(np.int64(entry.slot).tobytes())
            digest.update(np.float64(sim).tobytes())
            for view, top_sim in cache.retrieve_topk(query, 4):
                digest.update(np.int64(view.slot).tobytes())
                digest.update(np.float64(top_sim).tobytes())
        return cache, digest.hexdigest()

    def test_digest_is_pinned(self):
        cache, digest = self.run_sequence()
        assert cache.index.trained and cache.index.trainings == 1
        assert len(cache) == 5_000
        assert digest == self.DIGEST


# ----------------------------------------------------------------------
# Serving / cluster integration
# ----------------------------------------------------------------------
class TestServingIntegration:
    def _config(self, **overrides):
        defaults = dict(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
            cache_capacity=300,
            small_models=("sdxl",),
            retrieval_backend="ivf",
            cache_tiering=TieredCacheConfig(
                hot_capacity=32, promote_hits=1
            ),
        )
        defaults.update(overrides)
        return MoDMConfig(**defaults)

    def test_end_to_end_run_completes(self, space, ddb_trace):
        from repro.core.serving import MoDMSystem

        trace = ddb_trace.slice(0, 120).rebase()
        system = MoDMSystem(space, self._config())
        assert isinstance(system.cache, TieredVectorCache)
        report = system.run(trace)
        assert report.n_completed == len(trace)
        # Hits drove promotions through the serving loop.
        if report.hit_rate > 0:
            assert system.cache.promotions > 0

    def test_tiered_run_is_deterministic(self, space, ddb_trace):
        from repro.core.serving import MoDMSystem

        trace = ddb_trace.slice(0, 100).rebase()
        r1 = MoDMSystem(space, self._config()).run(trace)
        r2 = MoDMSystem(space, self._config()).run(trace)
        assert np.allclose(r1.latencies(), r2.latencies())
        assert r1.hit_rate == r2.hit_rate

    def test_tier_events_are_journaled(self, space, ddb_trace):
        from repro.core.config import JournalConfig
        from repro.core.serving import MoDMSystem

        trace = ddb_trace.slice(0, 120).rebase()
        system = MoDMSystem(
            space,
            self._config(journal=JournalConfig()),
        )
        report = system.run(trace)
        counts = system._fleet.journal.kind_counts()
        assert counts["promote"] == system.cache.promotions
        assert counts["demote"] == system.cache.demotions
        if report.hit_rate > 0:
            assert counts["promote"] > 0

    def test_cluster_warm_rejoin_with_tiering(
        self, space, ddb_trace, tmp_path
    ):
        from repro.core.cluster_router import modm_cluster
        from repro.core.config import (
            FailureEvent,
            FailurePlan,
            JournalConfig,
        )

        trace = ddb_trace.slice(0, 160).rebase()
        span = trace.requests[-1].arrival_s
        config = self._config(
            journal=JournalConfig(snapshot_period_s=30.0),
            cache_tiering=TieredCacheConfig(
                hot_capacity=16,
                promote_hits=1,
                cold_dir=str(tmp_path / "fleet"),
            ),
        )
        system = modm_cluster(
            space,
            config,
            ClusterRoutingConfig(
                n_replicas=2,
                policy="cache_affinity",
                failures=FailurePlan(
                    events=(
                        FailureEvent(
                            time_s=0.4 * span, replica=1, action="kill"
                        ),
                        FailureEvent(
                            time_s=0.55 * span,
                            replica=1,
                            action="restart",
                            warm=True,
                        ),
                    ),
                    recovery_window_s=60.0,
                ),
            ),
        )
        report = system.run(trace)
        assert report.failures[0].warm
        assert report.n_completed == len(report.fleet.records)
        # Each replica owns a private cold file under the shared dir.
        for i, replica in enumerate(system.replicas):
            path = replica.cache.cold_store.path
            assert f"replica-{i}" in path
