"""Routing sketches: the caches' memoized ``coarse_centroids()`` and the
affinity router's norm memo keyed on sketch identity.

The cluster router scores every arrival against every replica's sketch,
but a sketch only changes when its cache does.  The caches therefore
hand back one read-only array until the next write to their running
sum, and ``CacheAffinityRouting`` recomputes a sketch's norms only when
the cache returns a different object.  Both are pure memos: the routed
replica sequence is pinned to the value recorded before they existed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.ann import IVFParams
from repro.core.cache import VectorCache
from repro.core.cluster_router import CacheAffinityRouting, modm_cluster
from repro.core.config import ClusterConfig, ClusterRoutingConfig, MoDMConfig
from repro.core.tiering import TieredCacheConfig, TieredVectorCache
from repro.workloads import DiffusionDBConfig, diffusiondb_trace

DIM = 6


def _vector_cache(policy: str) -> VectorCache:
    return VectorCache(capacity=4, embed_dim=DIM, policy=policy)


def _untrained_tiered() -> TieredVectorCache:
    return TieredVectorCache(
        capacity=4,
        embed_dim=DIM,
        tiering=TieredCacheConfig(cold_dir=None),
        ann=IVFParams(nlist=2, train_min=1000, seed="sketch-memo"),
    )


CACHES = {
    "fifo": lambda: _vector_cache("fifo"),
    "lru": lambda: _vector_cache("lru"),
    "utility": lambda: _vector_cache("utility"),
    "tiered": _untrained_tiered,
}

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.lists(
                st.floats(-4.0, 4.0, allow_nan=False), min_size=DIM,
                max_size=DIM,
            ),
        ),
        st.tuples(st.just("clear"), st.none()),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(st.just("restore"), st.none()),
        st.tuples(st.just("retrieve"), st.none()),
    ),
    max_size=30,
)


def _check_sketch(cache) -> None:
    sketch = cache.coarse_centroids()
    n = len(cache)
    if n == 0:
        assert sketch is None
        return
    fresh = (cache._embedding_sum / n)[None, :]
    assert sketch.tobytes() == fresh.tobytes()
    assert sketch.shape == (1, DIM)
    assert not sketch.flags.writeable
    # Nothing mutated: the same object comes back.
    assert cache.coarse_centroids() is sketch


@pytest.mark.parametrize("kind", sorted(CACHES))
@given(ops=_OPS)
def test_coarse_centroids_memo_tracks_every_write(kind, ops):
    cache = CACHES[kind]()
    saved = None
    now = 0.0
    for op, arg in ops:
        before = cache.coarse_centroids()
        if op == "insert":
            now += 1.0
            cache.insert(f"p{now}", np.asarray(arg, dtype=float), now)
        elif op == "clear":
            cache.clear()
        elif op == "snapshot":
            saved = cache.snapshot()
        elif op == "restore" and saved is not None:
            cache.restore(saved)
        elif op == "retrieve" and len(cache):
            cache.retrieve(np.ones(DIM))
            # A read leaves the sketch object in place.
            assert cache.coarse_centroids() is before
        _check_sketch(cache)


def _trained_ivf_cache() -> VectorCache:
    return VectorCache(
        capacity=8,
        embed_dim=DIM,
        backend="ivf",
        ann=IVFParams(
            nlist=2, train_min=4, retrain_inserts=6, seed="sketch-ivf"
        ),
    )


def _trained_tiered() -> TieredVectorCache:
    return TieredVectorCache(
        capacity=8,
        embed_dim=DIM,
        tiering=TieredCacheConfig(cold_dir=None),
        ann=IVFParams(
            nlist=2, train_min=4, retrain_inserts=6, seed="sketch-ivf"
        ),
    )


BACKENDS = {
    "exact": lambda: _vector_cache("fifo"),
    "ivf": _trained_ivf_cache,
    "tiered": _trained_tiered,
}


def _row(i: int) -> list:
    return [float((i * 7 + j * 3) % 5 - 2) + 0.25 * j for j in range(DIM)]


# Trains the IVF backends, evicts, retrains and restores a trained
# snapshot; hypothesis alone rarely reaches a trained index.
_TRAINING_OPS = (
    [("insert", _row(i)) for i in range(5)]
    + [("retrieve", None), ("snapshot", None)]
    + [("insert", _row(i)) for i in range(5, 12)]
    + [("retrieve", None), ("retrieve", None), ("restore", None)]
    + [("clear", None), ("insert", _row(1)), ("retrieve", None)]
)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@given(ops=_OPS)
@example(ops=_TRAINING_OPS)
def test_sketch_is_read_only_and_new_after_every_write(backend, ops):
    """On every backend — the flat exact scan, the flat IVF index and
    the tiered cache, trained by retrieval and retrained every six
    inserts — the sketch is read-only and the same object until an
    insert (which evicts once the cache is full), a training, ``clear``
    or ``restore``; after each of those it is a new object."""
    cache = BACKENDS[backend]()
    saved = None
    now = 0.0
    most_trainings = 0
    for op, arg in ops:
        before = cache.coarse_centroids()
        trainings = getattr(cache.index, "trainings", 0)
        if op == "insert":
            now += 1.0
            cache.insert(f"p{now}", np.asarray(arg, dtype=float), now)
        elif op == "clear":
            cache.clear()
        elif op == "snapshot":
            saved = cache.snapshot()
        elif op == "restore" and saved is not None:
            cache.restore(saved)
        elif op == "retrieve" and len(cache):
            cache.retrieve(np.ones(DIM))  # may train or retrain
        else:
            op = "none"
        after = cache.coarse_centroids()
        if after is not None:
            assert not after.flags.writeable
            with pytest.raises(ValueError):
                after[0, 0] = 1.0
        wrote = op in ("insert", "clear", "restore") or (
            getattr(cache.index, "trainings", 0) != trainings
        )
        if before is not None:
            assert (after is before) == (not wrote)
        assert cache.coarse_centroids() is after
        most_trainings = max(
            most_trainings, getattr(cache.index, "trainings", 0)
        )
    if ops is _TRAINING_OPS and backend != "exact":
        assert most_trainings >= 2  # trained, then retrained


def test_norm_memo_follows_sketch_identity():
    policy = CacheAffinityRouting()
    other = CacheAffinityRouting()
    first = np.array([[3.0, 4.0, 0.0, 0.0, 0.0, 0.0]])
    query = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    policy.route(query, [0, 0], [first, None])
    memo = policy._norm_memo[0]
    assert memo[0] is first and memo[1] == 5.0
    policy.route(query, [0, 0], [first, None])
    assert policy._norm_memo[0] is memo
    second = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
    policy.route(query, [0, 0], [second, None])
    assert policy._norm_memo[0][0] is second
    assert policy._norm_memo[0][1] == 1.0
    # Each router keeps its own memo.
    assert other._norm_memo == {}
    policy.reset()
    assert policy._norm_memo == {}


# Recorded before the sketch memos existed (the 1-row sketch was
# rebuilt and its norm recomputed on every routing call).
ROUTED_SHA256 = {
    "exact": (
        "84db4e13e4bd5a8690c445d22a6a72637009c8bae6711faaba6e62e9c1cd872b"
    ),
    "ivf": (
        "26d776d7579905c960cc6004d251225ed030473485f386cbd38ff27dfe457fd4"
    ),
}


@pytest.fixture(scope="module")
def pin_trace(space):
    return diffusiondb_trace(
        space,
        DiffusionDBConfig(n_requests=360, seed="routing-sketch-pin"),
    )


@pytest.mark.parametrize("backend", sorted(ROUTED_SHA256))
def test_cache_affinity_routed_sequence_is_pinned(
    space, pin_trace, backend
):
    """300 served requests over 4 replicas, after 60 affinity-placed
    warm-up prompts.  The IVF run trains every replica's index, so both
    the 1-row and the multi-row sketch paths are covered, with
    evictions throughout."""
    ann = {"ann_nlist": 4, "ann_train_min": 16} if backend == "ivf" else {}
    system = modm_cluster(
        space,
        MoDMConfig(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=8),
            cache_capacity=240,
            small_models=("sdxl",),
            retrieval_backend=backend,
            **ann,
        ),
        ClusterRoutingConfig(n_replicas=4, policy="cache_affinity"),
    )
    system.warm_cache([r.prompt for r in pin_trace.requests[:60]])
    report = system.run(pin_trace.slice(60).rebase())
    routed = np.asarray(
        [r.replica_id for r in report.fleet.records], dtype=np.int64
    )
    assert routed.shape == (300,)
    assert all(replica.cache.evictions for replica in system.replicas)
    if backend == "ivf":
        assert all(r.cache.index.trained for r in system.replicas)
    digest = hashlib.sha256(routed.tobytes()).hexdigest()
    assert digest == ROUTED_SHA256[backend]
