"""Retrieval policies: how queries and cached items are embedded.

MoDM retrieves by **text-to-image** similarity: the new prompt's CLIP text
embedding against cached images' CLIP image embeddings (Eq. 1).  Prior work
(Nirvana, Pinecone) retrieves by **text-to-text** similarity: the new
prompt against the prompts that produced the cached items — which latches
onto wording overlap regardless of what the image actually shows (§3.2,
Figs. 2-3).

A policy supplies two embeddings: the *query* embedding of an incoming
prompt and the *index* embedding stored when an item enters the cache.
"""

from __future__ import annotations

from typing import Dict, Protocol, Sequence

import numpy as np

from repro._rng import normalize, normalize_rows
from repro.embedding.image_encoder import ClipLikeImageEncoder, ImageLike
from repro.embedding.space import SemanticSpace
from repro.embedding.text_encoder import ClipLikeTextEncoder, PromptLike


class RetrievalPolicy(Protocol):
    """Interface the scheduler and caches program against."""

    name: str
    embed_dim: int

    def query_embedding(self, prompt: PromptLike) -> np.ndarray:
        """Embedding of an incoming prompt."""

    def query_embeddings(
        self, prompts: Sequence[PromptLike]
    ) -> np.ndarray:
        """Stacked query embeddings, one row per prompt."""

    def index_embedding(
        self, prompt: PromptLike, image: ImageLike
    ) -> np.ndarray:
        """Embedding stored for a cached item produced for ``prompt``."""

    def index_embeddings(
        self, prompts: Sequence[PromptLike], images: Sequence[ImageLike]
    ) -> np.ndarray:
        """Stacked index embeddings, one row per ``(prompt, image)``."""


class TextToImageRetrieval:
    """MoDM's policy: prompt text embedding vs cached image embeddings."""

    name = "text-to-image"

    def __init__(self, space: SemanticSpace):
        self._text_encoder = ClipLikeTextEncoder(space)
        self._image_encoder = ClipLikeImageEncoder(space)
        self.embed_dim = space.config.embed_dim

    @property
    def text_encoder(self) -> ClipLikeTextEncoder:
        return self._text_encoder

    @property
    def image_encoder(self) -> ClipLikeImageEncoder:
        return self._image_encoder

    def query_embedding(self, prompt: PromptLike) -> np.ndarray:
        return self._text_encoder.encode(prompt)

    def query_embeddings(
        self, prompts: Sequence[PromptLike]
    ) -> np.ndarray:
        """One (n, d) matrix for a same-tick arrival batch."""
        return self._text_encoder.encode_batch(prompts)

    def index_embedding(
        self, prompt: PromptLike, image: ImageLike
    ) -> np.ndarray:
        # What the image depicts, independent of the wording that made it.
        return self._image_encoder.encode(image)

    def index_embeddings(
        self, prompts: Sequence[PromptLike], images: Sequence[ImageLike]
    ) -> np.ndarray:
        return self._image_encoder.encode_batch(images)


class TextToTextRetrieval:
    """Prior work's policy: prompt text vs producing-prompt text.

    Similarities are computed on the semantic component of the text
    embedding (anchor axes dropped and renormalized), putting unrelated
    prompts near 0 and near-duplicates near 1 — the 0.65-0.95 threshold
    regime Nirvana operates in.
    """

    name = "text-to-text"

    def __init__(self, space: SemanticSpace):
        self._space = space
        self._text_encoder = ClipLikeTextEncoder(space)
        self.embed_dim = space.config.embed_dim
        # Query and index embeddings of one prompt are the same vector
        # here, and both sides of the policy ask for it (arrival + cache
        # admission) — memoize per prompt_id like the text encoder does.
        self._semantic_cache: Dict[str, np.ndarray] = {}

    @property
    def text_encoder(self) -> ClipLikeTextEncoder:
        return self._text_encoder

    def query_embedding(self, prompt: PromptLike) -> np.ndarray:
        return self._semantic_text_embedding(prompt)

    def query_embeddings(
        self, prompts: Sequence[PromptLike]
    ) -> np.ndarray:
        """One (n, d) matrix for a same-tick arrival batch.

        Cached rows are gathered; the rest project and renormalize as one
        vectorized pass (:func:`~repro._rng.normalize_rows`, so batches
        stay bit-identical to sequential calls).
        """
        n = len(prompts)
        if n == 0:
            return np.zeros((0, self.embed_dim))
        out = np.zeros((n, self.embed_dim))
        cache = self._semantic_cache
        fresh = []
        for i, prompt in enumerate(prompts):
            hit = cache.get(prompt.prompt_id)
            if hit is not None:
                out[i] = hit
            else:
                fresh.append(i)
        if not fresh:
            return out
        full = self._text_encoder.encode_batch(
            [prompts[i] for i in fresh]
        )
        sdim = self._space.config.semantic_dim
        sem = normalize_rows(full[:, :sdim])
        for r, i in enumerate(fresh):
            out[i, :sdim] = sem[r]
            # Cache an owned copy, not a view of `out`: callers hold the
            # (writable) batch matrix and a view would let them mutate the
            # cached embedding in place.
            cached = out[i].copy()
            cached.flags.writeable = False
            cache[prompts[i].prompt_id] = cached
        return out

    def index_embedding(
        self, prompt: PromptLike, image: ImageLike
    ) -> np.ndarray:
        # The image is indexed by the prompt that produced it; the image
        # content itself is invisible to this policy (§3.2's failure mode).
        return self._semantic_text_embedding(prompt)

    def index_embeddings(
        self, prompts: Sequence[PromptLike], images: Sequence[ImageLike]
    ) -> np.ndarray:
        return self.query_embeddings(prompts)

    def _semantic_text_embedding(self, prompt: PromptLike) -> np.ndarray:
        cache = self._semantic_cache
        hit = cache.get(prompt.prompt_id)
        if hit is not None:
            return hit
        full = self._text_encoder.encode(prompt)
        semantic = normalize(self._space.project(full))
        out = np.zeros(self.embed_dim)
        out[: semantic.shape[0]] = semantic
        out.flags.writeable = False
        cache[prompt.prompt_id] = out
        return out
