"""Shared fixtures.

Session-scoped where construction is expensive (traces, warmed caches) and
the object is read-only for tests; function-scoped otherwise.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.config import ClusterConfig
from repro.diffusion.model import DiffusionModelSim
from repro.diffusion.registry import get_model
from repro.embedding.space import SemanticSpace
from repro.embedding.vocab import Vocabulary
from repro.workloads import (
    DiffusionDBConfig,
    MJHQConfig,
    diffusiondb_trace,
    mjhq_trace,
)

# Hypothesis profiles.  Property tests that pin ``max_examples`` keep
# their own budget; the rest (the IVF masked-probe and block-quantization
# oracles, the tiered residency, quantization and storage-total
# properties, the prompt-factory, kept-iteration, kept-prompt trace and
# zipf-sampler oracles, the prefix-seed, keyed-draw and int-seed stream
# properties, the row-normalization, generate_batch, prompt-mixture and
# encode_batch oracles) take it from the profile:
# bounded for tier-1, heavier when
# ``HYPOTHESIS_PROFILE=ci-heavy`` is set.
settings.register_profile("tier1", max_examples=20)
settings.register_profile("ci-heavy", max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(scope="session")
def space() -> SemanticSpace:
    return SemanticSpace()


@pytest.fixture(scope="session")
def vocab(space) -> Vocabulary:
    return Vocabulary(dim=space.config.semantic_dim)


@pytest.fixture(scope="session")
def ddb_trace(space):
    """Small DiffusionDB-like trace shared across read-only tests."""
    return diffusiondb_trace(
        space,
        DiffusionDBConfig(n_requests=600, seed="tests-ddb"),
    )


@pytest.fixture(scope="session")
def mjhq_small(space):
    return mjhq_trace(
        space, MJHQConfig(n_prompts=400, seed="tests-mjhq")
    )


@pytest.fixture(scope="session")
def prompts(ddb_trace):
    return [r.prompt for r in ddb_trace]


@pytest.fixture(scope="session")
def large_model(space) -> DiffusionModelSim:
    return DiffusionModelSim(get_model("sd3.5-large"), space)


@pytest.fixture(scope="session")
def small_model(space) -> DiffusionModelSim:
    return DiffusionModelSim(get_model("sdxl"), space)


@pytest.fixture(scope="session")
def sample_images(large_model, prompts):
    """A pool of large-model images for cache/metric tests."""
    return [
        large_model.generate(p, seed="fixture").image for p in prompts[:100]
    ]


@pytest.fixture
def tiny_cluster() -> ClusterConfig:
    return ClusterConfig(gpu_name="MI210", n_workers=4)
