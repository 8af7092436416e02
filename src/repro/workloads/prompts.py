"""Prompt objects and the compositional prompt factory.

A prompt couples *surface wording* (tokens drawn from category pools) with a
*deep semantic vector* (the visual intent).  Topics tie the two together:
prompts about the same topic share token pools and cluster in semantic
space, with session-level drift (one user's take on the topic) and
prompt-level drift (iterative refinement of one intent) layered on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro._rng import SeedPrefix, rngs_for
from repro.embedding.space import SemanticSpace
from repro.embedding.vocab import Vocabulary


@dataclass(frozen=True)
class Prompt:
    """One text-to-image request payload.

    Satisfies the ``PromptLike`` protocol of the encoders: ``prompt_id``,
    ``semantics`` (deep intent, unit vector in the semantic subspace), and
    ``tokens`` (surface wording).
    """

    prompt_id: str
    text: str
    tokens: Tuple[str, ...]
    semantics: np.ndarray
    topic_id: int
    session_id: str
    user_id: str

    def __post_init__(self) -> None:
        if not self.prompt_id:
            raise ValueError("prompt_id must be non-empty")
        if self.semantics.ndim != 1:
            raise ValueError("semantics must be a 1-D vector")


class SessionSpec(NamedTuple):
    """One session for :meth:`PromptFactory.make_sessions`."""

    topic_id: int
    session_key: str
    #: The iterations to build, e.g. ``range(length)`` for all of them.
    iterations: Sequence[int]
    user_id: str = "anon"
    #: The session's intent; ``None`` draws its drift from the topic.
    session_semantics: Optional[np.ndarray] = None


@dataclass
class PromptFactory:
    """Deterministic generator of topic/session/prompt hierarchies.

    Parameters
    ----------
    space:
        Semantic space providing topic vectors and drift.
    vocab:
        Token pools; its ``dim`` must equal the space's semantic dimension.
    namespace:
        Distinguishes traces (e.g., ``"diffusiondb"`` vs ``"mjhq"``) so the
        same topic ids produce unrelated content across traces.
    session_drift:
        Semantic distance of a session's intent from its topic centre.
    prompt_drift:
        Semantic distance between iterations within one session.
    """

    space: SemanticSpace
    vocab: Vocabulary
    namespace: str = "trace"
    session_drift: float = 0.35
    prompt_drift: float = 0.12
    #: Memo of :meth:`topic_tokens`, keyed by ``(namespace, topic_id)``.
    _topics: Dict[Tuple[str, int], dict] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Seeds of the session-tokens, session-drift, prompt-tokens and
    #: prompt-drift streams, with each fixed key prefix hashed once (see
    #: :meth:`make_sessions`).
    _seeds: Tuple[SeedPrefix, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.vocab.dim != self.space.config.semantic_dim:
            raise ValueError(
                "vocabulary dimension must match the space's semantic_dim "
                f"({self.vocab.dim} != {self.space.config.semantic_dim})"
            )
        ns, space = self.namespace, self.space
        self._seeds = (
            SeedPrefix(ns, "session-tokens"),
            SeedPrefix(*space.drift_keys(ns, "session")),
            SeedPrefix(ns, "prompt-tokens"),
            SeedPrefix(*space.drift_keys(ns, "prompt")),
        )

    # ------------------------------------------------------------------
    # Topic structure
    # ------------------------------------------------------------------
    def topic_tokens(self, topic_id: int) -> dict:
        """Token pools characteristic of a topic.

        A topic pins one subject and narrows styles/settings to a couple of
        options, so prompts about the same topic overlap in wording.  The
        pools are a pure function of ``(namespace, topic_id)`` and are
        memoized; the returned dict is shared, so do not mutate it.
        """
        memo_key = (self.namespace, topic_id)
        topic = self._topics.get(memo_key)
        if topic is None:
            streams = rngs_for([(self.namespace, "topic-tokens", topic_id)])
            rng = next(streams)
            topic = self._topics[memo_key] = {
                "subject": self.vocab.sample("subject", rng),
                "styles": [self.vocab.sample("style", rng) for _ in range(2)],
                "settings": [
                    self.vocab.sample("setting", rng) for _ in range(2)
                ],
            }
        return topic

    # ------------------------------------------------------------------
    # Prompt construction
    # ------------------------------------------------------------------
    def make_prompt(
        self,
        topic_id: int,
        session_key: str,
        iteration: int,
        user_id: str = "anon",
        session_semantics: Optional[np.ndarray] = None,
    ) -> Prompt:
        """Build the ``iteration``-th prompt of a session.

        Iterations share the session's core tokens (subject, style, setting)
        and intent, varying modifiers and drifting slightly in semantics —
        the iterative-refinement behaviour DiffusionDB exhibits.
        """
        (prompt,) = self.make_iterations(
            topic_id, session_key, (iteration,), user_id, session_semantics
        )
        return prompt

    def make_session(
        self,
        topic_id: int,
        session_key: str,
        length: int,
        user_id: str = "anon",
    ) -> List[Prompt]:
        """Build a full session of ``length`` iteratively refined prompts."""
        if length < 1:
            raise ValueError("session length must be >= 1")
        return self.make_iterations(
            topic_id, session_key, range(length), user_id
        )

    def make_iterations(
        self,
        topic_id: int,
        session_key: str,
        iterations: Sequence[int],
        user_id: str = "anon",
        session_semantics: Optional[np.ndarray] = None,
    ) -> List[Prompt]:
        """The given iterations of one session (:meth:`make_sessions`
        of one spec)."""
        (prompts,) = self.make_sessions(
            [
                SessionSpec(
                    topic_id, session_key, iterations, user_id,
                    session_semantics,
                )
            ]
        )
        return prompts

    def make_sessions(
        self, sessions: Sequence[SessionSpec]
    ) -> List[List[Prompt]]:
        """The given iterations of many sessions, seeded in one batch.

        Returns one prompt list per session, in order.  Each prompt
        equals the same iteration of :meth:`make_session`, so a caller
        can build just the iterations it keeps.  Each key owns one
        stream: per session its tokens, its drift from the topic centre
        (unless the spec gives ``session_semantics``), and per iteration
        the prompt's tokens and its drift from the session.  The streams
        of every session are seeded together by one :func:`rngs_for`
        call and consumed in that order; every draw matches the stream's
        keyed oracle.  The seeds come from :attr:`_seeds`, equal to
        ``seed_for`` over the full key tuples.
        """
        (
            session_tokens_seed,
            session_drift_seed,
            prompt_tokens_seed,
            prompt_drift_seed,
        ) = self._seeds
        seeds = []
        for spec in sessions:
            session_key = spec.session_key
            seeds.append(session_tokens_seed(session_key))
            if spec.session_semantics is None:
                seeds.append(session_drift_seed(session_key))
            for iteration in spec.iterations:
                if iteration < 0:
                    raise ValueError("iteration must be non-negative")
                seeds.append(prompt_tokens_seed(session_key, iteration))
                seeds.append(prompt_drift_seed(session_key, iteration))
        streams = rngs_for(seeds)
        return [self._build_session(spec, streams) for spec in sessions]

    def _build_session(
        self, spec: SessionSpec, streams: Iterator[np.random.Generator]
    ) -> List[Prompt]:
        """One session's prompts, drawn from its streams in ``streams``."""
        ns, space = self.namespace, self.space
        topic_id, session_key = spec.topic_id, spec.session_key
        topic = self.topic_tokens(topic_id)
        rng = next(streams)
        core = (
            topic["subject"],
            topic["styles"][int(rng.integers(2))],
            topic["settings"][int(rng.integers(2))],
        )
        session_semantics = spec.session_semantics
        if session_semantics is None:
            session_semantics = space.drift(
                space.topic_vector(topic_id), self.session_drift, next(streams)
            )

        sample = self.vocab.sample
        prompts = []
        for iteration in spec.iterations:
            rng = next(streams)
            tokens = [*core, sample("modifier", rng), sample("modifier", rng)]
            if rng.random() < 0.5:
                tokens.append(sample("quality", rng))
            semantics = space.drift(
                session_semantics, self.prompt_drift, next(streams)
            )
            prompts.append(
                Prompt(
                    prompt_id=f"{ns}/{session_key}/{iteration}",
                    text=" ".join(tokens),
                    tokens=tuple(tokens),
                    semantics=semantics,
                    topic_id=topic_id,
                    session_id=session_key,
                    user_id=spec.user_id,
                )
            )
        return prompts


def zipf_topic_sampler(
    n_topics: int, exponent: float, rng: np.random.Generator
):
    """Return a callable sampling topic ids with Zipf-like popularity.

    A handful of trending topics dominate production traffic; the exponent
    controls how head-heavy the distribution is (1.0 ~ classic Zipf).
    """
    if n_topics < 1:
        raise ValueError("n_topics must be >= 1")
    ranks = np.arange(1, n_topics + 1, dtype=float)
    weights = ranks ** (-exponent)
    weights /= weights.sum()
    # Inverse-CDF sampling exactly as ``rng.choice(n_topics, p=weights)``
    # does it, with the CDF built once instead of per call: the same
    # single uniform draw and the same rank for it.
    cdf = weights.cumsum()
    cdf /= cdf[-1]

    def sample() -> int:
        return int(cdf.searchsorted(rng.random(), side="right"))

    return sample
