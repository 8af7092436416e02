"""Tests for the image and latent caches."""

import hashlib

import numpy as np
import pytest

from repro._rng import rng_for, unit_vector
from repro.core.ann import IVFParams
from repro.core.cache import (
    RETRIEVAL_SECONDS_PER_ENTRY,
    ImageCache,
    LatentCache,
    VectorCache,
)
from repro.diffusion.latent import CachedLatent
from test_cache_contract import slot_of


def _vec(key, dim=8):
    return unit_vector(rng_for("cache-test", key), dim)


@pytest.fixture
def cache():
    return VectorCache(capacity=4, embed_dim=8)


class TestConstruction:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            VectorCache(capacity=0, embed_dim=4)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            VectorCache(capacity=2, embed_dim=0)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            VectorCache(capacity=2, embed_dim=4, policy="mru")


class TestInsertRetrieve:
    def test_empty_retrieve(self, cache):
        entry, sim = cache.retrieve(_vec("q"))
        assert entry is None and sim == 0.0

    def test_roundtrip(self, cache):
        vec = _vec("a")
        cache.insert("payload-a", vec, now=1.0)
        entry, sim = cache.retrieve(vec)
        assert entry.payload == "payload-a"
        assert np.isclose(sim, 1.0)

    def test_best_match_wins(self, cache):
        target = _vec("t")
        near = target + 0.1 * _vec("noise")
        cache.insert("far", _vec("far"), now=0.0)
        cache.insert("near", near / np.linalg.norm(near), now=1.0)
        entry, sim = cache.retrieve(target)
        assert entry.payload == "near"
        assert sim > 0.9

    def test_wrong_dim_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.insert("x", np.zeros(9), now=0.0)
        with pytest.raises(ValueError):
            cache.retrieve(np.zeros(9))

    def test_zero_query_returns_none(self, cache):
        cache.insert("x", _vec("x"), now=0.0)
        entry, sim = cache.retrieve(np.zeros(8))
        assert entry is None

    def test_lookups_counted(self, cache):
        cache.retrieve(_vec("q"))
        cache.retrieve(_vec("q"))
        assert cache.lookups == 2


class TestFifoEviction:
    def test_capacity_respected(self, cache):
        for i in range(6):
            cache.insert(f"p{i}", _vec(i), now=float(i))
        assert len(cache) == 4

    def test_oldest_evicted_first(self, cache):
        evicted = []
        for i in range(6):
            out = cache.insert(f"p{i}", _vec(i), now=float(i))
            if out is not None:
                evicted.append(out.payload)
        assert evicted == ["p0", "p1"]

    def test_evicted_not_retrievable(self, cache):
        vec0 = _vec(0)
        for i in range(5):
            cache.insert(f"p{i}", _vec(i), now=float(i))
        entry, sim = cache.retrieve(vec0)
        assert entry is None or entry.payload != "p0"

    def test_entries_ordered_oldest_first(self, cache):
        for i in range(3):
            cache.insert(f"p{i}", _vec(i), now=float(i))
        assert [e.payload for e in cache.entries()] == ["p0", "p1", "p2"]

    def test_eviction_counter(self, cache):
        for i in range(7):
            cache.insert(f"p{i}", _vec(i), now=float(i))
        assert cache.evictions == 3
        assert cache.insertions == 7


class TestUtilityEviction:
    def test_hot_entries_survive(self):
        cache = VectorCache(capacity=3, embed_dim=8, policy="utility")
        vec_hot = _vec("hot")
        cache.insert("hot", vec_hot, now=0.0)
        cache.insert("cold1", _vec("c1"), now=1.0)
        cache.insert("cold2", _vec("c2"), now=2.0)
        entry, _ = cache.retrieve(vec_hot)
        cache.record_hit(entry, now=3.0)
        cache.record_hit(entry, now=4.0)
        evicted = cache.insert("new", _vec("new"), now=5.0)
        assert evicted.payload in ("cold1", "cold2")
        entry, sim = cache.retrieve(vec_hot)
        assert entry.payload == "hot"

    def test_ties_evict_oldest(self):
        cache = VectorCache(capacity=2, embed_dim=8, policy="utility")
        cache.insert("a", _vec("a"), now=0.0)
        cache.insert("b", _vec("b"), now=1.0)
        evicted = cache.insert("c", _vec("c"), now=2.0)
        assert evicted.payload == "a"


class TestLatencyAndStorage:
    def test_retrieval_latency_scales_with_size(self, cache):
        assert cache.retrieval_latency_s() == 0.0
        cache.insert("a", _vec("a"), now=0.0)
        assert np.isclose(
            cache.retrieval_latency_s(), RETRIEVAL_SECONDS_PER_ENTRY
        )

    def test_paper_latency_anchor(self):
        # §5.2: 0.05 s at 100k entries.
        assert np.isclose(RETRIEVAL_SECONDS_PER_ENTRY * 100_000, 0.05)

    def test_storage_bytes(self, sample_images):
        cache = ImageCache(capacity=8, embed_dim=8)
        for i, img in enumerate(sample_images[:3]):
            cache.insert(img, _vec(i), now=float(i))
        assert cache.storage_bytes() == sum(
            img.size_bytes for img in sample_images[:3]
        )

    def test_latent_cache_heavier_than_image_cache(self, sample_images):
        img_cache = ImageCache(capacity=4, embed_dim=8)
        lat_cache = LatentCache(capacity=4, embed_dim=8)
        img = sample_images[0]
        latent = CachedLatent(
            latent_id="l",
            prompt_id=img.prompt_id,
            model_name=img.model_name,
            content=img.content,
        )
        img_cache.insert(img, _vec("i"), now=0.0)
        lat_cache.insert(latent, _vec("l"), now=0.0)
        assert lat_cache.storage_bytes() > img_cache.storage_bytes()


class TestLatentCacheModelFilter:
    def test_other_models_cannot_use_latents(self):
        cache = LatentCache(capacity=2, embed_dim=8)
        latent = CachedLatent(
            latent_id="l",
            prompt_id="p",
            model_name="sd3.5-large",
            content=np.zeros(4),
        )
        vec = _vec("l")
        cache.insert(latent, vec, now=0.0)
        entry, sim = cache.retrieve_for_model(vec, "sd3.5-large")
        assert entry is not None
        entry, sim = cache.retrieve_for_model(vec, "sdxl")
        assert entry is None and sim == 0.0


class TestHitRecording:
    def test_record_hit_updates_entry(self, cache):
        vec = _vec("h")
        cache.insert("h", vec, now=0.0)
        entry, _ = cache.retrieve(vec)
        assert entry.hits == 0
        cache.record_hit(entry, now=5.0)
        assert entry.hits == 1


class TestFlatPinnedSequence:
    """The flat cache's twin of the tiered ``TestPinnedSequence``: a
    fixed insert/retrieve/record_hit sequence with exact duplicates
    (ties), multi-row batches, a snapshot -> restore and a ``clear()``
    in the middle, hashed over (slot, similarity bytes) of every answer
    and the id of every evicted entry.  One digest per backend/policy;
    all four were recorded before the columnar cache core existed, so
    any change to a returned slot, a similarity bit or the eviction
    order fails them.  Slots are read through ``slot_of``, which also
    works on that earlier layout, so each digest can be re-derived
    there."""

    DIGESTS = {
        ("exact", "fifo"): (
            "9475a41de9f2996d3afa5fd449516c08cb4644eb21cc0f2fcb2019fc6ee68167"
        ),
        ("exact", "lru"): (
            "ced1ff14b4adde12b48e2494aa906a3553dd5f61341004713b90d47a8fbfa866"
        ),
        ("exact", "utility"): (
            "09a8aeae10f22f82707e703fe464321d6954ef60798d3a7c67ba717643c55d6e"
        ),
        ("ivf", "fifo"): (
            "3c70b03cfc3e187ba3fbca185631057a45608d36f3d7a898078e0f301bf8e904"
        ),
    }

    @staticmethod
    def run_sequence(backend, policy):
        dim = 16
        cache = VectorCache(
            capacity=96,
            embed_dim=dim,
            policy=policy,
            backend=backend,
            ann=IVFParams(nlist=8, nprobe=3, train_min=48, seed="flat-pin"),
        )
        data = rng_for("flat-pin", dim).standard_normal((480, dim))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        for i in range(41, 480, 41):
            data[i] = data[i - 33]  # exact duplicates tie in the scan
        noise = rng_for("flat-pin-noise").standard_normal((480, dim))
        digest = hashlib.sha256()

        def record(entry, sim):
            slot = -1 if entry is None else slot_of(cache, entry)
            digest.update(np.int64(slot).tobytes())
            digest.update(np.float64(sim).tobytes())

        saved = None
        for i in range(480):
            evicted = cache.insert(i, data[i], now=float(i))
            digest.update(
                np.int64(-1 if evicted is None else evicted.entry_id)
                .tobytes()
            )
            if i == 200:
                saved = cache.snapshot()
            elif i == 260:
                cache.restore(saved)
            elif i == 420:
                cache.clear()
            if i % 2:
                continue
            query = data[max(0, i - (7 * i) % 90)] + 0.05 * noise[i]
            entry, sim = cache.retrieve(query)
            record(entry, sim)
            if entry is not None and i % 4 == 0:
                cache.record_hit(entry, now=float(i))
            if i % 16 == 0:
                for view, top_sim in cache.retrieve_topk(query, 3):
                    record(view, top_sim)
            if i % 32 == 0:
                rows = data[[i, i // 2, i // 3]] + 0.05 * noise[: 3]
                for view, batch_sim in cache.retrieve_batch(rows):
                    record(view, batch_sim)
        return cache, digest.hexdigest()

    @pytest.mark.parametrize("backend,policy", sorted(DIGESTS))
    def test_digest_is_pinned(self, backend, policy):
        cache, digest = self.run_sequence(backend, policy)
        assert len(cache) == 480 - 421
        if backend == "ivf":
            assert cache.index.trained
        assert digest == self.DIGESTS[(backend, policy)]
