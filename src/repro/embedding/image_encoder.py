"""CLIP-like image encoder.

Encodes what an image *depicts* — its content vector, produced by the
diffusion substrate — into the shared embedding space on the *image* side of
the modality gap, with a small deterministic per-image perturbation modelling
encoder imperfection.  Because the encoder sees content rather than wording,
text-to-image retrieval tracks visual alignment (§3.2's insight).
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Sequence

import numpy as np

from repro._rng import directions, normalize
from repro.embedding.space import SemanticSpace


class ImageLike(Protocol):
    """Anything encodable as an image.

    ``content`` is the depicted-semantics vector in the semantic subspace
    (not necessarily unit norm); ``image_id`` keys the deterministic encoder
    perturbation and the embedding cache.
    """

    image_id: str
    content: np.ndarray


#: Process-wide embedding memo shared by caching encoder instances.  Keys
#: pin the space geometry, the image id (which seeds the deterministic
#: encoder perturbation), and the image's content *bytes* — a refined
#: image's id does not encode the skip depth that produced it, so the
#: same id can carry different content under different serving configs.
_EMBED_MEMO: Dict[tuple, np.ndarray] = {}
_EMBED_MEMO_MAX = 300_000


class ClipLikeImageEncoder:
    """Deterministic image encoder over a :class:`SemanticSpace`."""

    def __init__(self, space: SemanticSpace, cache_embeddings: bool = True):
        self._space = space
        self._anchor = space.image_anchor()
        self._cache: Optional[Dict[str, np.ndarray]] = (
            {} if cache_embeddings else None
        )
        self._memo_key = f"image/{space.config!r}"

    @property
    def space(self) -> SemanticSpace:
        return self._space

    @property
    def embed_dim(self) -> int:
        return self._space.config.embed_dim

    def encode(self, image: ImageLike) -> np.ndarray:
        """Embed one image; results are cached by ``image_id``."""
        if self._cache is not None:
            hit = self._cache.get(image.image_id)
            if hit is not None:
                return hit
            memo_key = (
                self._memo_key,
                image.image_id,
                image.content.tobytes(),
            )
            hit = _EMBED_MEMO.get(memo_key)
            if hit is not None:
                self._cache[image.image_id] = hit
                return hit
        embedding = self._encode_content(image.content, image.image_id)
        if self._cache is not None:
            self._cache[image.image_id] = embedding
            embedding.flags.writeable = False
            if len(_EMBED_MEMO) >= _EMBED_MEMO_MAX:
                _EMBED_MEMO.clear()
            _EMBED_MEMO[memo_key] = embedding
        return embedding

    def encode_batch(self, images: Sequence[ImageLike]) -> np.ndarray:
        """Embed a sequence of images into an ``(n, embed_dim)`` array."""
        if not images:
            return np.zeros((0, self.embed_dim))
        return np.stack([self.encode(img) for img in images])

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
            # already (see DiffusionModelSim._draw_image).
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

    def clear_cache(self) -> None:
        """Drop this instance's cache and its space's shared memo entries.

        Only entries for this encoder's space geometry are removed from
        the process-wide memo; other spaces' embeddings stay warm.
        """
        if self._cache is not None:
            self._cache.clear()
            for key in [
                k for k in _EMBED_MEMO if k[0] == self._memo_key
            ]:
                del _EMBED_MEMO[key]
