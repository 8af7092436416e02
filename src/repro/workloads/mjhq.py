"""MJHQ-30k-like curated trace.

MJHQ is a curated MidJourney collection without timestamps: near-duplicate
prompt *families* exist (recurring styles and themes), but family members
are scattered uniformly across the trace instead of clustering in time.
Replayed in trace order (as the paper does), this produces lower cache hit
rates than DiffusionDB at equal cache size and makes caching small-model
outputs much less useful (Fig. 19) — same similarity structure, no temporal
locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro._rng import rng_for
from repro.embedding.space import SemanticSpace
from repro.embedding.vocab import Vocabulary
from repro.workloads.prompts import (
    PromptFactory,
    SessionSpec,
    zipf_topic_sampler,
)
from repro.workloads.trace import Trace, TraceRequest


@dataclass(frozen=True)
class MJHQConfig:
    """Knobs of the MJHQ-like generator.

    Families mix a few large "trending style" groups with many small ones;
    the mix controls how the hit rate scales with cache size (Fig. 19).
    """

    n_prompts: int = 10_000
    request_rate_per_min: float = 10.0
    n_topics: int = 600
    topic_zipf_exponent: float = 1.0
    large_family_fraction: float = 0.20
    large_family_size: int = 25
    small_family_size_mean: float = 2.0
    family_drift: float = 0.85
    prompt_drift: float = 0.12
    seed: str = "mjhq-v1"

    def __post_init__(self) -> None:
        if self.n_prompts < 1:
            raise ValueError("n_prompts must be >= 1")
        if self.request_rate_per_min <= 0:
            raise ValueError("request_rate_per_min must be positive")
        if not 0.0 <= self.large_family_fraction <= 1.0:
            raise ValueError("large_family_fraction must be in [0, 1]")
        if self.large_family_size < 1:
            raise ValueError("large_family_size must be >= 1")
        if self.small_family_size_mean < 1.0:
            raise ValueError("small_family_size_mean must be >= 1")


def mjhq_trace(
    space: SemanticSpace,
    config: Optional[MJHQConfig] = None,
    vocab: Optional[Vocabulary] = None,
) -> Trace:
    """Generate an MJHQ-like trace over ``space``."""
    cfg = config or MJHQConfig()
    vocab = vocab or Vocabulary(dim=space.config.semantic_dim)
    factory = PromptFactory(
        space=space,
        vocab=vocab,
        namespace=cfg.seed,
        session_drift=cfg.family_drift,
        prompt_drift=cfg.prompt_drift,
    )
    rng = rng_for(cfg.seed, "families")
    sample_topic = zipf_topic_sampler(
        cfg.n_topics, cfg.topic_zipf_exponent, rng_for(cfg.seed, "topics")
    )

    # Schedule every family (size and topic), then build them all in one
    # batch: building draws from neither the family nor the topic stream.
    families: List[SessionSpec] = []
    n_scheduled = 0
    target_large = int(cfg.n_prompts * cfg.large_family_fraction)
    produced_large = 0
    while n_scheduled < cfg.n_prompts:
        if produced_large < target_large:
            size = cfg.large_family_size
            produced_large += size
        else:
            size = 2 + int(rng.geometric(1.0 / cfg.small_family_size_mean))
        size = min(size, cfg.n_prompts - n_scheduled)
        family_idx = len(families)
        families.append(
            SessionSpec(
                sample_topic(),
                f"f{family_idx}",
                range(size),
                user_id=f"curator{family_idx}",
            )
        )
        n_scheduled += size
    prompts = [
        prompt
        for family in factory.make_sessions(families)
        for prompt in family
    ]

    # Curated order: families are interleaved arbitrarily, not temporally.
    order = rng_for(cfg.seed, "shuffle").permutation(len(prompts))
    shuffled = [prompts[i] for i in order]

    arrival_rng = rng_for(cfg.seed, "arrivals")
    gaps = arrival_rng.exponential(
        60.0 / cfg.request_rate_per_min, size=len(shuffled)
    )
    arrivals = np.cumsum(gaps)
    requests = [
        TraceRequest(request_id=i, prompt=p, arrival_s=float(t))
        for i, (p, t) in enumerate(zip(shuffled, arrivals))
    ]
    return Trace(
        name="mjhq",
        requests=requests,
        metadata={"config": cfg, "n_families": len(families)},
    )
