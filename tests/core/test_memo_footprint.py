"""Synthesis keeps finished images, not their per-prompt ingredients.

Each image's target and its jitter, natural and artifact draws are read
once per pass, so none of them is memoized: the process-wide memos grow
with the finished images, and the direction memos only with what
recurs (a model's fingerprint, the space's generic direction and one
set-drift direction per (model, seed) pair).  A fleet warm-up hands a
chunk's targets to its placements through a consume-once hand-off,
which is empty again once ``warm_cache`` returns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import directions
from repro.core.cluster_router import (
    ClusterRouter,
    ClusterServingSystem,
    modm_cluster,
)
from repro.core.config import ClusterConfig, ClusterRoutingConfig, MoDMConfig
from repro.core.serving import MoDMSystem, clear_hotpath_memos
from repro.diffusion import model as model_mod
from repro.diffusion.model import WARM_CHUNK, DiffusionModelSim, parked_targets
from repro.diffusion.registry import get_model
from repro.workloads import DiffusionDBConfig, diffusiondb_trace

CLUSTER = ClusterConfig(gpu_name="MI210", n_workers=4)
MODELS = ("sd3.5-large", "sdxl", "sana-1.6b")


def _image_pairs():
    """Distinct (model, seed) pairs of every memoized finished image."""
    pairs = set()
    for memo in (model_mod._CONTENT_CACHE, model_mod._REFINE_CACHE):
        for key in memo:
            # Keys are ``prefix + (image_id, ...)`` with a 2-part prefix;
            # an image id reads ``model/digest/seed/prompt/source/n``.
            parts = key[2].split("/")
            pairs.add((parts[0], parts[2]))
    return pairs


def _image_count():
    """Finished images memoized (each refined variant is one key)."""
    return len(model_mod._CONTENT_CACHE) + len(model_mod._REFINE_CACHE)


@pytest.fixture(scope="module")
def distinct_prompts(space):
    trace = diffusiondb_trace(
        space, DiffusionDBConfig(n_requests=2 * WARM_CHUNK, seed="footprint")
    )
    seen = {}
    for request in trace.requests:
        seen.setdefault(request.prompt.prompt_id, request.prompt)
    assert len(seen) > WARM_CHUNK + 1
    return list(seen.values())


class TestMemoFootprint:
    """Memo growth from cold memos, per finished image and per pair."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(MODELS),
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from([None, 0, 10, 30]),
            ),
            min_size=1,
            max_size=24,
        ),
    )
    @settings(deadline=None)
    def test_direction_memos_grow_per_model_seed_pair(
        self, space, distinct_prompts, ops
    ):
        """Generations (skip ``None``) and refinements, each of its own
        prompt: the direction memos gain one set-drift entry per new
        (model, seed) pair, and the content memos one entry per image."""
        clear_hotpath_memos(space)
        sims = {
            name: DiffusionModelSim(get_model(name), space)
            for name in MODELS
        }
        source = sims["sd3.5-large"].generate(
            distinct_prompts[-1], seed="source"
        ).image
        units = len(directions._units)
        images = _image_count()
        for prompt, (name, seed, skip) in zip(distinct_prompts, ops):
            sim = sims[name]
            if skip is None:
                sim.generate(prompt, seed=seed)
            else:
                sim.refine(prompt, source, skip, seed=seed)
        pairs = {(name, seed) for name, seed, _ in ops}
        assert len(directions._units) == units + len(pairs)
        assert not directions._scalars
        assert _image_count() == images + len(ops)
        assert not model_mod._PARKED_TARGETS

    @pytest.mark.parametrize("n_serve", [60, 240])
    def test_serving_memos_grow_per_model_seed_pair(
        self, space, distinct_prompts, n_serve
    ):
        """A warmed engine serving ``n_serve`` distinct prompts: the
        direction memos hold one fingerprint per built model, the
        generic direction and one set-drift entry per (model, seed)
        pair of a finished image, whatever ``n_serve`` is."""
        n_warm = 60
        trace = diffusiondb_trace(
            space,
            DiffusionDBConfig(n_requests=n_serve, seed="footprint-serve"),
        )
        assert len({r.prompt.prompt_id for r in trace.requests}) == n_serve
        clear_hotpath_memos(space)
        system = MoDMSystem(
            space, MoDMConfig(cluster=CLUSTER, cache_capacity=40)
        )
        system.warm_cache(distinct_prompts[:n_warm])
        system.run(trace)
        pairs = _image_pairs()
        # The warm-up's seed and the serving seed, per model at most.
        assert len(pairs) <= 2 * len(MODELS)
        assert _image_count() == n_warm + n_serve
        assert len(directions._units) == (
            len(system._model_sims) + 1 + len(pairs)
        )
        assert not directions._scalars
        assert not model_mod._PARKED_TARGETS


class TestWarmHandOff:
    """The fleet warm-up's parked targets never outlive their chunk."""

    @staticmethod
    def _warm(monkeypatch, fleet, prompts, n_models):
        """Warm ``fleet``; returns the hand-off sizes seen by placements."""
        route_warm = ClusterRouter.route_warm
        sizes = []

        def spying_route_warm(router, *args):
            sizes.append(len(model_mod._PARKED_TARGETS))
            return route_warm(router, *args)

        monkeypatch.setattr(ClusterRouter, "route_warm", spying_route_warm)
        fleet.warm_cache(prompts)
        assert len(sizes) == len(prompts)
        assert max(sizes) <= n_models * WARM_CHUNK
        assert not model_mod._PARKED_TARGETS
        return sizes

    @staticmethod
    def _fleet(space, policy="cache_affinity"):
        return modm_cluster(
            space,
            MoDMConfig(cluster=CLUSTER, cache_capacity=300),
            ClusterRoutingConfig(n_replicas=3, policy=policy),
        )

    @pytest.mark.parametrize("n", [1, WARM_CHUNK, WARM_CHUNK + 1])
    def test_empty_after_warm_cache(
        self, space, distinct_prompts, monkeypatch, n
    ):
        clear_hotpath_memos(space)
        prompts = distinct_prompts[:n]
        sizes = self._warm(monkeypatch, self._fleet(space), prompts, 1)
        # Each placement took its own prompt's target out.
        first = min(n, WARM_CHUNK)
        assert sizes[:first] == list(range(first, 0, -1))

    def test_empty_after_repeated_prompts(
        self, space, distinct_prompts, monkeypatch
    ):
        clear_hotpath_memos(space)
        pool = distinct_prompts
        prompts = pool[:30] + pool[5:15] + [pool[3]] * 3
        prompts += pool[30:WARM_CHUNK] + pool[:8]
        self._warm(monkeypatch, self._fleet(space), prompts, 1)

    def test_empty_after_replicas_warm_different_models(
        self, space, distinct_prompts, monkeypatch
    ):
        large = ("sd3.5-large", "flux.1-dev", "sd3.5-large")

        def factory(i):
            return MoDMSystem(
                space,
                MoDMConfig(
                    cluster=CLUSTER, cache_capacity=100, large_model=large[i]
                ),
            )

        clear_hotpath_memos(space)
        fleet = ClusterServingSystem(
            space,
            factory,
            ClusterRoutingConfig(n_replicas=3, policy="least_loaded"),
        )
        prompts = distinct_prompts[: WARM_CHUNK + 1]
        sizes = self._warm(monkeypatch, fleet, prompts, 2)
        assert sizes[0] == 2 * WARM_CHUNK
        assert {replica.warm_model() for replica in fleet.replicas} == {
            "sd3.5-large",
            "flux.1-dev",
        }
        assert all(len(replica.cache) for replica in fleet.replicas)

    def test_empty_after_a_failing_block(self, space, distinct_prompts):
        clear_hotpath_memos(space)
        sim = DiffusionModelSim(get_model("sdxl"), space)
        with pytest.raises(RuntimeError):
            with parked_targets([sim], distinct_prompts[:5], "fail"):
                assert len(model_mod._PARKED_TARGETS) == 5
                raise RuntimeError("placement failed")
        assert not model_mod._PARKED_TARGETS
