"""Cache state after ``warm_cache``, pinned byte for byte.

Every warm-up is specified as generating and admitting its prompts one
at a time; the batched warm-ups must leave exactly that state.  Each
digest covers every live entry (slot, entry id, payload id, content and
embedding bytes, insertion time) plus the answers (slot and similarity
bytes) to a fixed set of queries, which also reads the IVF index and the
tiered cache's blocks.  The digests were recorded with the one-at-a-time
warm-ups, before any of them was batched.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.baselines import NirvanaSystem, PineconeSystem
from repro.core.cluster_router import modm_cluster
from repro.core.config import ClusterConfig, ClusterRoutingConfig, MoDMConfig
from repro.core.serving import MoDMSystem, clear_hotpath_memos
from repro.core.tiering import TieredCacheConfig
from repro.embedding.text_encoder import ClipLikeTextEncoder
from repro.workloads import DiffusionDBConfig, diffusiondb_trace

CLUSTER = ClusterConfig(gpu_name="MI210", n_workers=4)

#: Warm-set size: more than the capacity, so the warm-up evicts, and
#: more than one 256-prompt chunk.
N_WARM = 600
CAPACITY = 400

#: The tiered cache holds the exact cache's entries and re-ranks its
#: shortlist exactly, so on this warm set both give one digest.
DIGESTS = {
    "exact": (
        "3857535832fa9fb2ffd9cc0c8251746858e6a50423a5121c4854a70964941dcf"
    ),
    "fleet": (
        "5cc326cacd43b8da9c1482a8f9e9f2b82cfb64eb6f4e12e4c7879b4ede6f9b5c"
    ),
    "ivf": (
        "0e4106979230dd13fed620478d1c1c9185f2bd67494265cffb097de7fa0401cd"
    ),
    "nirvana": (
        "a5db0f4f83a977327d0041674f9ff2c811b39e98f7d191563d4956020f51bf4d"
    ),
    "pinecone": (
        "6914be09b3fe50502311ce3490678f294540dd19242b793e757b29f9d756c75e"
    ),
    "tiered": (
        "3857535832fa9fb2ffd9cc0c8251746858e6a50423a5121c4854a70964941dcf"
    ),
}


@pytest.fixture(scope="module")
def warm_prompts(space):
    trace = diffusiondb_trace(
        space, DiffusionDBConfig(n_requests=N_WARM + 40, seed="warm-pin")
    )
    return [r.prompt for r in trace.requests]


def _modm(space, **overrides):
    config = dict(cluster=CLUSTER, cache_capacity=CAPACITY)
    config.update(overrides)
    return MoDMSystem(space, MoDMConfig(**config))


def _systems(space, kind):
    """The system(s) ``kind`` warms, and the caches its digest reads."""
    if kind == "exact":
        system = _modm(space)
    elif kind == "ivf":
        system = _modm(
            space, retrieval_backend="ivf", ann_nlist=8, ann_train_min=96
        )
    elif kind == "tiered":
        system = _modm(
            space,
            retrieval_backend="ivf",
            ann_nlist=8,
            ann_train_min=96,
            cache_tiering=TieredCacheConfig(hot_capacity=64),
        )
    elif kind == "nirvana":
        system = NirvanaSystem(space, CLUSTER, cache_capacity=CAPACITY)
    elif kind == "pinecone":
        system = PineconeSystem(space, CLUSTER, cache_capacity=CAPACITY)
    else:
        system = modm_cluster(
            space,
            MoDMConfig(cluster=CLUSTER, cache_capacity=CAPACITY),
            ClusterRoutingConfig(n_replicas=3, policy="cache_affinity"),
        )
        return system, [replica.cache for replica in system.replicas]
    return system, [system.cache]


def _digest(caches, queries) -> str:
    digest = hashlib.sha256()
    for cache in caches:
        for entry in cache.entries():
            payload = entry.payload
            pid = getattr(payload, "image_id", None) or payload.latent_id
            digest.update(np.int64(entry.slot).tobytes())
            digest.update(np.int64(entry.entry_id).tobytes())
            digest.update(pid.encode("utf-8"))
            digest.update(np.asarray(payload.content).tobytes())
            digest.update(np.asarray(entry.embedding).tobytes())
            digest.update(np.float64(entry.inserted_at).tobytes())
        for query in queries:
            found, sim = cache.retrieve(query)
            slot = -1 if found is None else found.slot
            digest.update(np.int64(slot).tobytes())
            digest.update(np.float64(sim).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(DIGESTS))
def test_warm_cache_state_is_pinned(space, warm_prompts, kind):
    clear_hotpath_memos(space)
    system, caches = _systems(space, kind)
    system.warm_cache(warm_prompts[:N_WARM])
    assert sum(len(cache) for cache in caches) > 0
    encoder = ClipLikeTextEncoder(space, cache_embeddings=False)
    queries = [encoder.encode(p) for p in warm_prompts[N_WARM - 20:]]
    assert _digest(caches, queries) == DIGESTS[kind]
