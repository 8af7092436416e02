"""Shared semantic space and modality geometry.

The space has ``semantic_dim`` content dimensions plus two anchor dimensions
that realize the CLIP modality gap.  Text embeddings are pulled toward the
*text anchor*, image embeddings toward the *image anchor*; the cosine between
the anchors sets the floor of text-to-image similarity, and the
``modality_scale`` sets how much semantic agreement can raise it.

With the default calibration:

* text-to-image cosine = ``0.137 + 0.194 * <semantic agreement>`` — spanning
  roughly 0.14 (unrelated) to 0.33 (perfect alignment), matching the
  0.20-0.34 operating range of Fig. 5a and the cache-hit thresholds
  0.25-0.30 of Fig. 5b;
* text-to-text cosine = ``0.806 + 0.194 * <semantic agreement>`` — matching
  the 0.65-0.95 threshold regime Nirvana applies to text-to-text similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro._rng import (
    SeedPrefix,
    fast_unit_vector,
    normalize,
    rng_for,
    unit_vector,
)


@dataclass(frozen=True)
class SpaceConfig:
    """Geometry and calibration of the shared embedding space.

    Attributes
    ----------
    semantic_dim:
        Number of content dimensions (visual semantics live here).
    modality_scale:
        Weight ``a`` of the semantic part relative to the unit anchor.  The
        text-to-image gain is ``a**2 / (1 + a**2)``.
    modality_gap:
        Cosine ``g`` between the text and image anchors.  The text-to-image
        floor is ``g / (1 + a**2)``.
    deep_weight / surface_weight:
        Mixing weights of deep semantics vs. surface wording inside the text
        encoder.  ``deep_weight`` caps how well a perfectly faithful image
        can score against its own prompt (CLIPScore ceiling).
    image_encoder_noise:
        Std-dev of the deterministic per-image perturbation applied by the
        image encoder (encoder imperfection).
    """

    semantic_dim: int = 48
    modality_scale: float = 0.4906
    modality_gap: float = 0.17
    deep_weight: float = 0.85
    surface_weight: float = 0.527
    image_encoder_noise: float = 0.02
    seed: str = "modm-space-v1"

    @property
    def embed_dim(self) -> int:
        """Full embedding dimensionality: semantics plus two anchor axes."""
        return self.semantic_dim + 2

    @property
    def text_image_floor(self) -> float:
        """Cosine of a text embedding against an unrelated image."""
        a2 = self.modality_scale**2
        return self.modality_gap / (1.0 + a2)

    @property
    def text_image_gain(self) -> float:
        """Increase in text-to-image cosine per unit of semantic agreement."""
        a2 = self.modality_scale**2
        return a2 / (1.0 + a2)

    @property
    def text_text_floor(self) -> float:
        """Cosine between text embeddings of unrelated prompts."""
        a2 = self.modality_scale**2
        return 1.0 / (1.0 + a2)

    def __post_init__(self) -> None:
        if self.semantic_dim < 2:
            raise ValueError("semantic_dim must be at least 2")
        if not 0.0 < self.modality_scale < 2.0:
            raise ValueError("modality_scale must be in (0, 2)")
        if not 0.0 <= self.modality_gap <= 1.0:
            raise ValueError("modality_gap must be in [0, 1]")


@dataclass
class SemanticSpace:
    """Factory for topic vectors, prompt semantics, and modality anchors."""

    config: SpaceConfig = field(default_factory=SpaceConfig)
    _topic_cache: dict = field(default_factory=dict, repr=False)
    #: Per-prompt_id deep+surface mixtures (see ``prompt_mixture``) — the
    #: mixture is consumed by both the text encoder and every diffusion
    #: model conditioning on the prompt, so it is memoized on the space
    #: they share.
    mixture_cache: dict = field(default_factory=dict, repr=False)
    #: Seeds of the image encoder's per-image noise streams, with the
    #: fixed key prefix hashed once (see ``image_noise_seed``).
    _image_noise_seeds: SeedPrefix = field(
        init=False, repr=False, compare=False
    )
    #: The last ``(image_id, seed)`` pair ``image_noise_seed`` returned:
    #: a diffusion model and then the image encoder ask for the same
    #: image's seed, and the second ask is served without hashing.
    _last_image_noise: Tuple[Optional[str], int] = field(
        default=(None, 0), init=False, repr=False, compare=False
    )

    #: Stream name of the image encoder's per-image noise.
    IMAGE_NOISE_STREAM = "image-encoder-noise"

    def __post_init__(self) -> None:
        self._image_noise_seeds = SeedPrefix(
            self.IMAGE_NOISE_STREAM, self.config.seed
        )

    # ------------------------------------------------------------------
    # Topic / semantics construction
    # ------------------------------------------------------------------
    def topic_vector(self, topic_id: int) -> np.ndarray:
        """Deterministic unit vector for a workload topic cluster."""
        vec = self._topic_cache.get(topic_id)
        if vec is None:
            rng = rng_for(self.config.seed, "topic", topic_id)
            vec = unit_vector(rng, self.config.semantic_dim)
            self._topic_cache[topic_id] = vec
        return vec

    def image_noise_seed(self, image_id: str) -> int:
        """Seed of the image encoder's noise stream for ``image_id``.

        Equal to ``seed_for("image-encoder-noise", config.seed,
        image_id)``.  The image encoder draws a unit vector of
        ``semantic_dim`` from it and scales it by
        ``config.image_encoder_noise``; a diffusion model draws it ahead
        of time, with the rest of the image's draws.
        """
        last = self._last_image_noise
        if last[0] == image_id:
            return last[1]
        seed = self._image_noise_seeds(image_id)
        self._last_image_noise = (image_id, seed)
        return seed

    def drift_keys(self, *keys) -> Tuple:
        """Key tuple of the noise stream :meth:`drift` draws for ``keys``."""
        return (self.config.seed, "drift", *keys)

    def drift(
        self,
        base: np.ndarray,
        magnitude: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Perturb ``base`` by ``magnitude`` in a direction drawn from ``rng``.

        Used for session-level intent drift (a user's take on a topic) and
        prompt-level wording drift (iterative refinement of one intent).
        ``rng`` is the stream of :meth:`drift_keys` for the drift being
        made, seeded alone (``rng_for``) or with others
        (:func:`repro._rng.rngs_for`).  A zero magnitude draws nothing
        and returns a copy of ``base``.
        """
        if magnitude < 0:
            raise ValueError("drift magnitude must be non-negative")
        if magnitude == 0.0:
            return np.array(base, copy=True)
        noise = fast_unit_vector(rng, self.config.semantic_dim)
        return normalize(base + magnitude * noise)

    # ------------------------------------------------------------------
    # Modality geometry
    # ------------------------------------------------------------------
    def text_anchor(self) -> np.ndarray:
        anchor = np.zeros(self.config.embed_dim)
        anchor[-2] = 1.0
        return anchor

    def image_anchor(self) -> np.ndarray:
        g = self.config.modality_gap
        anchor = np.zeros(self.config.embed_dim)
        anchor[-2] = g
        anchor[-1] = float(np.sqrt(max(0.0, 1.0 - g * g)))
        return anchor

    def pad(self, semantic_vec: np.ndarray) -> np.ndarray:
        """Lift a semantic-subspace vector into the full embedding space."""
        if semantic_vec.shape != (self.config.semantic_dim,):
            raise ValueError(
                "expected semantic vector of shape "
                f"({self.config.semantic_dim},), got {semantic_vec.shape}"
            )
        out = np.zeros(self.config.embed_dim)
        out[: self.config.semantic_dim] = semantic_vec
        return out

    def project(self, embedding: np.ndarray) -> np.ndarray:
        """Drop the anchor axes, returning the semantic component."""
        return embedding[: self.config.semantic_dim]

    # ------------------------------------------------------------------
    # Calibration helpers
    # ------------------------------------------------------------------
    def expected_text_image_cosine(self, agreement: float) -> float:
        """Predicted text-to-image cosine for a semantic agreement level.

        ``agreement`` is the cosine between the (deep+surface) text mixture
        and the image content, in [-1, 1].
        """
        cfg = self.config
        return cfg.text_image_floor + cfg.text_image_gain * agreement

    def expected_text_text_cosine(self, agreement: float) -> float:
        """Predicted text-to-text cosine for a semantic agreement level."""
        cfg = self.config
        return cfg.text_text_floor + cfg.text_image_gain * agreement


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two vectors (0 if either is zero)."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def cosine_matrix(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarities between two stacks of vectors.

    Parameters
    ----------
    queries: array of shape (nq, d)
    keys: array of shape (nk, d)

    Returns
    -------
    array of shape (nq, nk)
    """
    if queries.ndim != 2 or keys.ndim != 2:
        raise ValueError("cosine_matrix expects 2-D arrays")
    qn = np.linalg.norm(queries, axis=1, keepdims=True)
    kn = np.linalg.norm(keys, axis=1, keepdims=True)
    qn[qn == 0.0] = 1.0
    kn[kn == 0.0] = 1.0
    return (queries / qn) @ (keys / kn).T
