"""DiffusionDB-like production trace.

Users arrive as a Poisson process, pick a (Zipf-popular) topic, and issue a
geometric-length session of iteratively refined prompts spaced minutes
apart.  This yields the two properties the paper measures on DiffusionDB:

* strong temporal locality — a request's best cache match is usually an
  image generated minutes-to-hours earlier (Fig. 15), so FIFO maintenance
  retains nearly all useful entries;
* high hit rates at moderate cache sizes (Figs. 6 and 9).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro._rng import rng_for
from repro.embedding.space import SemanticSpace
from repro.embedding.vocab import Vocabulary
from repro.workloads.prompts import (
    Prompt,
    PromptFactory,
    SessionSpec,
    zipf_topic_sampler,
)
from repro.workloads.trace import Trace, TraceRequest


@dataclass(frozen=True)
class DiffusionDBConfig:
    """Knobs of the DiffusionDB-like generator.

    Defaults are scaled down from the 2M-request original but keep its
    structure; ``n_requests`` and ``request_rate_per_min`` scale freely.
    """

    n_requests: int = 10_000
    request_rate_per_min: float = 10.0
    n_topics: int = 400
    topic_zipf_exponent: float = 1.1
    session_length_mean: float = 6.0
    session_gap_mean_s: float = 180.0
    resume_probability: float = 0.15
    resume_gap_mean_s: float = 3600.0
    session_drift: float = 0.35
    prompt_drift: float = 0.12
    seed: str = "diffusiondb-v1"

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.request_rate_per_min <= 0:
            raise ValueError("request_rate_per_min must be positive")
        if self.session_length_mean < 1.0:
            raise ValueError("session_length_mean must be >= 1")
        if self.session_gap_mean_s <= 0:
            raise ValueError("session_gap_mean_s must be positive")


def diffusiondb_trace(
    space: SemanticSpace,
    config: Optional[DiffusionDBConfig] = None,
    vocab: Optional[Vocabulary] = None,
) -> Trace:
    """Generate a DiffusionDB-like trace over ``space``.

    Synthesis runs in two passes.  The first schedules sessions: each
    draws its start, length and topic, then its iterations' arrival
    times, until the event budget is met; the first ``n_requests``
    arrivals are kept.  The second builds only the kept prompts, with
    one :meth:`PromptFactory.make_sessions` call over every session that
    has any, in session order.  Every prompt is a pure function of its
    own keyed streams, so building a subset yields exactly the prompts
    that building every scheduled session would.
    """
    cfg = config or DiffusionDBConfig()
    vocab = vocab or Vocabulary(dim=space.config.semantic_dim)
    factory = PromptFactory(
        space=space,
        vocab=vocab,
        namespace=cfg.seed,
        session_drift=cfg.session_drift,
        prompt_drift=cfg.prompt_drift,
    )
    rng = rng_for(cfg.seed, "arrivals")
    sample_topic = zipf_topic_sampler(
        cfg.n_topics, cfg.topic_zipf_exponent, rng_for(cfg.seed, "topics")
    )

    # Sessions arrive as a Poisson process whose rate delivers the target
    # request rate given the mean session length.
    session_rate_per_s = (
        cfg.request_rate_per_min / 60.0 / cfg.session_length_mean
    )
    # (arrival_s, session, iteration) heap.  Events are pushed in
    # (session, iteration) order, so equal arrival times pop in push
    # order.
    events: List[Tuple[float, int, int]] = []
    topics: List[int] = []
    session_start = 0.0
    # Schedule sessions until we are confident the first n_requests
    # arrivals are all present (sessions overlap, so overshoot then
    # truncate).  The budget is a heuristic: at small n_requests it can
    # stop before a session that would start ahead of the last kept
    # arrival (tests/workloads/test_traces.py::TestTraceCompleteness).
    target = int(cfg.n_requests * 1.25) + 32
    while len(events) < target:
        session_idx = len(topics)
        session_start += rng.exponential(1.0 / session_rate_per_s)
        # Geometric on {1, 2, ...} with the configured mean, so the
        # delivered request rate matches request_rate_per_min.
        length = max(1, int(rng.geometric(1.0 / cfg.session_length_mean)))
        topics.append(sample_topic())
        t = session_start
        heapq.heappush(events, (t, session_idx, 0))
        for iteration in range(1, length):
            # Most iterations follow within minutes; occasionally a
            # user resumes a session hours later (Fig. 15's tail).
            if rng.random() < cfg.resume_probability:
                t += rng.exponential(cfg.resume_gap_mean_s)
            else:
                t += rng.exponential(cfg.session_gap_mean_s)
            heapq.heappush(events, (t, session_idx, iteration))

    kept = [heapq.heappop(events) for _ in range(cfg.n_requests)]
    # A session's arrival times never decrease, so its kept iterations
    # pop in ascending order.
    iterations: Dict[int, List[int]] = {}
    for _, session_idx, iteration in kept:
        iterations.setdefault(session_idx, []).append(iteration)
    n_users = max(1, cfg.n_topics * 4)
    sessions = sorted(iterations)
    built = factory.make_sessions(
        [
            SessionSpec(
                topics[session_idx],
                f"s{session_idx}",
                iterations[session_idx],
                user_id=f"user{session_idx % n_users}",
            )
            for session_idx in sessions
        ]
    )
    prompts: Dict[Tuple[int, int], Prompt] = {}
    for session_idx, session_prompts in zip(sessions, built):
        for iteration, prompt in zip(iterations[session_idx], session_prompts):
            prompts[session_idx, iteration] = prompt

    requests = [
        TraceRequest(
            request_id=request_id,
            prompt=prompts[session_idx, iteration],
            arrival_s=float(arrival),
        )
        for request_id, (arrival, session_idx, iteration) in enumerate(kept)
    ]
    return Trace(
        name="diffusiondb",
        requests=requests,
        metadata={
            "config": cfg,
            "n_sessions": len(topics),
        },
    )
