"""CLIP-like image encoder.

Encodes what an image *depicts* — its content vector, produced by the
diffusion substrate — into the shared embedding space on the *image* side of
the modality gap, with a small deterministic per-image perturbation modelling
encoder imperfection.  Because the encoder sees content rather than wording,
text-to-image retrieval tracks visual alignment (§3.2's insight).
"""

from __future__ import annotations

from typing import List, Protocol, Sequence

import numpy as np

from repro._memo import VariantMemo, variant_get, variant_put
from repro._rng import directions, normalize, normalize_rows
from repro.embedding.space import SemanticSpace


class ImageLike(Protocol):
    """Anything encodable as an image.

    ``content`` is the depicted-semantics vector in the semantic subspace
    (not necessarily unit norm); ``image_id`` keys the deterministic encoder
    perturbation and the embedding memo.
    """

    image_id: str
    content: np.ndarray


#: Process-wide embedding memo shared by caching encoder instances.  Keys
#: pin the space geometry and the image id (which seeds the deterministic
#: encoder perturbation); the image's content is matched bitwise by the
#: variant memo (:mod:`repro._memo`) — a refined image's id does not
#: encode the skip depth that produced it, so the same id can carry
#: different content under different serving configs.
_EMBED_MEMO: VariantMemo = {}
_EMBED_MEMO_MAX = 300_000


class ClipLikeImageEncoder:
    """Deterministic image encoder over a :class:`SemanticSpace`.

    ``cache_embeddings`` serves repeat images from the process-wide
    memo above; without it every call encodes afresh.
    """

    def __init__(self, space: SemanticSpace, cache_embeddings: bool = True):
        self._space = space
        self._anchor = space.image_anchor()
        self._cache_embeddings = cache_embeddings
        self._memo_key = f"image/{space.config!r}"

    @property
    def space(self) -> SemanticSpace:
        return self._space

    @property
    def embed_dim(self) -> int:
        return self._space.config.embed_dim

    def encode(self, image: ImageLike) -> np.ndarray:
        """Embed one image; results are memoized by id and content."""
        content = image.content
        if not self._cache_embeddings:
            return self._encode_content(content, image.image_id)
        memo_key = (self._memo_key, image.image_id)
        embedding, variant = variant_get(_EMBED_MEMO, memo_key, content)
        if embedding is None:
            embedding = self._encode_content(content, image.image_id)
            variant_put(
                _EMBED_MEMO, memo_key, variant, content, embedding,
                _EMBED_MEMO_MAX,
            )
        return embedding

    def encode_batch(self, images: Sequence[ImageLike]) -> np.ndarray:
        """Embed a sequence of images into an ``(n, embed_dim)`` array.

        Bit-identical to sequential :meth:`encode` calls, memo included:
        memoized rows are gathered, the rest are embedded as one stack
        (rows normalized with :func:`~repro._rng.normalize_rows`, the
        encoder noise of every row taken in one
        :meth:`~repro._rng.DirectionCache.fresh_units` call, which hands
        over the rows a model batch parked) and memoized in order, one
        key per fresh result.
        """
        n = len(images)
        if n == 0:
            return np.zeros((0, self.embed_dim))
        out = np.empty((n, self.embed_dim))
        cached = self._cache_embeddings
        memo_key = self._memo_key
        fresh: List[int] = []
        for i, image in enumerate(images):
            if cached:
                hit, _ = variant_get(
                    _EMBED_MEMO, (memo_key, image.image_id), image.content
                )
                if hit is not None:
                    out[i] = hit
                    continue
            fresh.append(i)
        if not fresh:
            return out
        embedded = self._encode_contents(
            [images[i].content for i in fresh],
            [images[i].image_id for i in fresh],
        )
        for r, i in enumerate(fresh):
            embedding = embedded[r]
            if cached:
                # Put in order; a repeat of an earlier row's id and
                # content finds that row's entry, as sequential encodes
                # would.
                image = images[i]
                key = (memo_key, image.image_id)
                hit, variant = variant_get(_EMBED_MEMO, key, image.content)
                if hit is None:
                    variant_put(
                        _EMBED_MEMO, key, variant, image.content, embedding,
                        _EMBED_MEMO_MAX,
                    )
                else:
                    embedding = hit
            out[i] = embedding
        return out

    def _encode_content(self, content: np.ndarray, key: str) -> np.ndarray:
        cfg = self._space.config
        if content.shape != (cfg.semantic_dim,):
            raise ValueError(
                "expected content of shape "
                f"({cfg.semantic_dim},), got {content.shape}"
            )
        sdim = cfg.semantic_dim
        semantic = normalize(content)
        if cfg.image_encoder_noise > 0.0:
            # Not memoized: image-id keys are unique within a run, and
            # replays hit the embedding memo before reaching this draw.
            # The model that made the image has usually parked this draw
            # already (see DiffusionModelSim._draw_images).
            noise = directions.fresh_unit(
                sdim, seed=self._space.image_noise_seed(key)
            )
            semantic = normalize(
                semantic + cfg.image_encoder_noise * noise
            )
        # The anchor-padded embedding, written in place: the same
        # element-wise ops as scaling a padded copy and adding the anchor.
        embedding = self._anchor.copy()
        embedding[:sdim] = cfg.modality_scale * semantic + self._anchor[:sdim]
        return normalize(embedding)

    def _encode_contents(
        self, contents: Sequence[np.ndarray], keys: Sequence[str]
    ) -> Sequence[np.ndarray]:
        """:meth:`_encode_content` of every content, as read-only rows.

        Several contents are embedded as one stack; a single one by
        :meth:`_encode_content` itself.
        """
        if len(contents) == 1:
            embedding = self._encode_content(contents[0], keys[0])
            embedding.flags.writeable = False
            return [embedding]
        cfg = self._space.config
        sdim = cfg.semantic_dim
        for content in contents:
            if content.shape != (sdim,):
                raise ValueError(
                    "expected content of shape "
                    f"({sdim},), got {content.shape}"
                )
        semantic = normalize_rows(np.array(contents))
        if cfg.image_encoder_noise > 0.0:
            seed = self._space.image_noise_seed
            noise = np.array(
                directions.fresh_units(sdim, [seed(key) for key in keys])
            )
            semantic = normalize_rows(
                semantic + cfg.image_encoder_noise * noise
            )
        embedded = np.empty((len(contents), self.embed_dim))
        embedded[:] = self._anchor
        embedded[:, :sdim] = (
            cfg.modality_scale * semantic + self._anchor[:sdim]
        )
        embedded = normalize_rows(embedded)
        embedded.flags.writeable = False
        return embedded

    def clear_cache(self) -> None:
        """Drop this space's entries from the process-wide memo.

        Other spaces' embeddings stay warm.
        """
        if self._cache_embeddings:
            for key in [
                k for k in _EMBED_MEMO if k[0] == self._memo_key
            ]:
                del _EMBED_MEMO[key]
