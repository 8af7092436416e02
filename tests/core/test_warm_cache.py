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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import NirvanaSystem, PineconeSystem
from repro.core.cluster_router import ClusterRouter, modm_cluster
from repro.core.config import ClusterConfig, ClusterRoutingConfig, MoDMConfig
from repro.core.serving import MoDMSystem, clear_hotpath_memos
from repro.core.tiering import TieredCacheConfig
from repro.diffusion import model as model_mod
from repro.diffusion.model import WARM_CHUNK, DiffusionModelSim
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


# ----------------------------------------------------------------------
# Fleet warm-up against the per-prompt loop
# ----------------------------------------------------------------------
def _per_prompt_warm_cache(fleet, prompts, seed="warmup"):
    """The fleet warm-up one prompt at a time: the oracle.

    Each placement reads every replica's load and sketch afresh and
    generates its one image from scratch, target included, through the
    chosen replica's model.
    """
    fleet.router.reset()
    fleet.router.embed_warm(prompts)
    for prompt in prompts:
        signals = fleet.router.warm_signals(fleet.replicas)
        idx = fleet.router.route_warm(prompt, signals)
        fleet.replicas[idx].warm_cache([prompt], seed=seed)


def _fleet_state(fleet):
    """Every replica's cache entries and model counters."""
    state = []
    for replica in fleet.replicas:
        entries = [
            (
                entry.slot,
                entry.entry_id,
                entry.payload.image_id,
                entry.payload.content.tobytes(),
                np.asarray(entry.embedding).tobytes(),
                entry.hits,
                entry.inserted_at,
            )
            for entry in replica.cache.entries()
        ]
        counters = {
            name: sim._counter.value
            for name, sim in sorted(replica._model_sims.items())
        }
        state.append((entries, counters))
    return state


class TestFleetWarmupOracle:
    """``ClusterServingSystem.warm_cache`` against the per-prompt loop.

    The fleet builds each chunk's targets in one batched pass and parks
    them for the placements, and keeps the replicas' loads and sketches
    across placements, re-reading only the replica that admitted.
    Targets are pure and an admission changes no other replica, so
    neither may change anything: the same cache entries on every
    replica, the same model counters, and the same serving run
    afterwards (routed counts and completion times), under every
    routing policy.  Memos are cleared before each run, so both sides
    generate every image.
    """

    POLICIES = ("cache_affinity", "least_loaded", "round_robin")
    N_SERVE = 40

    @pytest.fixture(scope="class")
    def trace(self, space):
        return diffusiondb_trace(
            space,
            DiffusionDBConfig(
                n_requests=WARM_CHUNK + 1 + self.N_SERVE,
                seed="fleet-warm",
            ),
        )

    @pytest.fixture(scope="class")
    def pool(self, trace):
        return [r.prompt for r in trace.requests[: WARM_CHUNK + 1]]

    @pytest.fixture(scope="class")
    def serve(self, trace):
        n = len(trace.requests)
        return trace.slice(n - self.N_SERVE, n).rebase()

    @staticmethod
    def _outcome(space, policy, warm_sets, serve, warm):
        clear_hotpath_memos(space)
        fleet = modm_cluster(
            space,
            MoDMConfig(cluster=CLUSTER, cache_capacity=300),
            ClusterRoutingConfig(n_replicas=3, policy=policy),
        )
        for prompts in warm_sets:
            warm(fleet, prompts)
        warmed = _fleet_state(fleet)
        report = fleet.run(serve)
        completion = fleet.request_store.column("completion_s")
        return {
            "warmed": warmed,
            "routed": tuple(report.routed),
            "completion_sha": hashlib.sha256(
                completion.tobytes()
            ).hexdigest(),
            "served": _fleet_state(fleet),
        }

    def _check(self, space, policy, warm_sets, serve):
        batched = self._outcome(
            space, policy, warm_sets, serve,
            lambda fleet, prompts: fleet.warm_cache(prompts),
        )
        oracle = self._outcome(
            space, policy, warm_sets, serve, _per_prompt_warm_cache
        )
        assert batched == oracle
        assert sum(len(entries) for entries, _ in batched["warmed"]) > 0
        return batched

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n", [1, WARM_CHUNK, WARM_CHUNK + 1])
    def test_matches_per_prompt_loop(self, space, pool, serve, policy, n):
        self._check(space, policy, [pool[:n]], serve)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_repeated_prompts(self, space, pool, serve, policy):
        # Repeats inside one chunk, and across the chunk boundary.
        prompts = pool[:30] + pool[5:15] + [pool[3]] * 3
        prompts += pool[30:WARM_CHUNK] + pool[:8]
        assert len(prompts) - 8 > WARM_CHUNK
        self._check(space, policy, [prompts], serve)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_second_warm_cache_call(self, space, pool, serve, policy):
        self._check(space, policy, [pool[:120], pool[60:200]], serve)

    @given(
        policy=st.sampled_from(POLICIES),
        warm_sets=st.lists(
            st.lists(
                st.integers(0, WARM_CHUNK),
                min_size=1,
                max_size=WARM_CHUNK + 8,
            ),
            min_size=1,
            max_size=2,
        ),
    )
    @settings(deadline=None)
    def test_random_warm_sets(self, space, pool, serve, policy, warm_sets):
        """One or two warm-ups of prompts drawn from the pool (repeats
        allowed), against the per-prompt loop."""
        warm = [[pool[i] for i in indices] for indices in warm_sets]
        self._check(space, policy, warm, serve)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_targets_cleared_before_placement(
        self, space, pool, serve, policy, monkeypatch
    ):
        """With every parked target dropped before each placement, the
        placed generations rebuild their targets, and nothing changes:
        the batched pass only saves work."""
        prompts = pool[: WARM_CHUNK + 1]
        expected = self._check(space, policy, [prompts], serve)
        #: Per placed generation: did it have to build its target?
        rebuilt = []
        generate_batch = DiffusionModelSim.generate_batch
        plan = DiffusionModelSim._target_plan
        route_warm = ClusterRouter.route_warm
        placing = []

        def spying_generate_batch(sim, *args):
            placing.append(True)
            try:
                return generate_batch(sim, *args)
            finally:
                placing.pop()

        def spying_plan(sim, *args):
            items, assemble = plan(sim, *args)
            if placing:
                rebuilt.append(any(items))
            return items, assemble

        def clearing_route_warm(router, *args):
            model_mod._PARKED_TARGETS.clear()
            return route_warm(router, *args)

        monkeypatch.setattr(
            DiffusionModelSim, "generate_batch", spying_generate_batch
        )
        monkeypatch.setattr(DiffusionModelSim, "_target_plan", spying_plan)
        batched = self._outcome(
            space, policy, [prompts], serve,
            lambda fleet, warm: fleet.warm_cache(warm),
        )
        # The serving run generates too; the warm-up comes first.
        assert rebuilt[: len(prompts)] == [False] * len(prompts)
        rebuilt.clear()
        monkeypatch.setattr(
            ClusterRouter, "route_warm", clearing_route_warm
        )
        cleared = self._outcome(
            space, policy, [prompts], serve,
            lambda fleet, warm: fleet.warm_cache(warm),
        )
        assert rebuilt[: len(prompts)] == [True] * len(prompts)
        assert batched == cleared == expected
