"""CLIP-like text encoder.

The text encoder mixes a prompt's deep semantics (its visual intent) with its
surface wording, then projects the mixture into the shared embedding space on
the *text* side of the modality gap.  The surface component is what makes
text-to-text retrieval fallible: prompts that share wording but not intent
embed close together (Fig. 3's "selfie" example), while the image encoder
sees only what was actually depicted.
"""

from __future__ import annotations

import math
from typing import Dict, List, Protocol, Sequence

import numpy as np

from repro._rng import normalize
from repro.embedding.space import SemanticSpace
from repro.embedding.vocab import surface_vector


class PromptLike(Protocol):
    """Anything encodable as a prompt.

    ``semantics`` is the deep-intent unit vector in the semantic subspace;
    ``tokens`` is the surface wording; ``prompt_id`` keys the embedding memo.
    """

    prompt_id: str
    semantics: np.ndarray
    tokens: Sequence[str]


def prompt_mixture(space: SemanticSpace, prompt: "PromptLike") -> np.ndarray:
    """Deep + surface mixture of a prompt in the semantic subspace.

    This is both what the text encoder embeds and what a diffusion model
    conditions on — the model renders the wording as well as the intent, so
    a faithful generation agrees with this mixture, not with the raw deep
    semantics alone.  Because both consumers need it for every request, the
    mixture is memoized per ``prompt_id`` on the shared space.
    """
    cache = space.mixture_cache
    hit = cache.get(prompt.prompt_id)
    if hit is not None:
        return hit
    cfg = space.config
    surface = surface_vector(list(prompt.tokens), cfg.semantic_dim)
    mixture = cfg.deep_weight * prompt.semantics
    mixture = mixture + cfg.surface_weight * surface
    mixture = normalize(mixture)
    mixture.flags.writeable = False
    cache[prompt.prompt_id] = mixture
    return mixture


#: Process-wide embedding memo shared by caching encoder instances, keyed
#: by (space-geometry digest, prompt_id).  Embeddings are pure in those
#: keys (a prompt id identifies one immutable prompt), so fresh encoder
#: instances — e.g. a new serving system over the same space — skip
#: re-embedding prompts any previous instance saw.
_EMBED_MEMO: Dict[tuple, np.ndarray] = {}
_EMBED_MEMO_MAX = 300_000


class ClipLikeTextEncoder:
    """Deterministic text encoder over a :class:`SemanticSpace`.

    Parameters
    ----------
    space:
        Shared semantic space defining geometry and calibration.
    cache_embeddings:
        Serve repeat prompts from the process-wide memo above, keyed by
        ``prompt_id`` (the paper's scheduler hosts one CLIP model and
        embeds each request once); without it every call encodes afresh.
    """

    def __init__(self, space: SemanticSpace, cache_embeddings: bool = True):
        self._space = space
        self._anchor = space.text_anchor()
        self._cache_embeddings = cache_embeddings
        self._memo_key = f"text/{space.config!r}"

    @property
    def space(self) -> SemanticSpace:
        return self._space

    @property
    def embed_dim(self) -> int:
        return self._space.config.embed_dim

    def semantic_mixture(self, prompt: PromptLike) -> np.ndarray:
        """Deep + surface mixture in the semantic subspace (unit norm)."""
        return prompt_mixture(self._space, prompt)

    def encode(self, prompt: PromptLike) -> np.ndarray:
        """Embed one prompt; results are memoized by ``prompt_id``."""
        if self._cache_embeddings:
            memo_key = (self._memo_key, prompt.prompt_id)
            hit = _EMBED_MEMO.get(memo_key)
            if hit is not None:
                return hit
        mixture = self.semantic_mixture(prompt)
        # The anchor-padded embedding, written in place: the same
        # element-wise ops as scaling a padded copy and adding the anchor.
        sdim = self._space.config.semantic_dim
        embedding = self._anchor.copy()
        embedding[:sdim] = (
            self._space.config.modality_scale * mixture + self._anchor[:sdim]
        )
        embedding = normalize(embedding)
        if self._cache_embeddings:
            embedding.flags.writeable = False
            if len(_EMBED_MEMO) >= _EMBED_MEMO_MAX:
                _EMBED_MEMO.clear()
            _EMBED_MEMO[memo_key] = embedding
        return embedding

    def encode_batch(self, prompts: Sequence[PromptLike]) -> np.ndarray:
        """Embed a sequence of prompts into an ``(n, embed_dim)`` array.

        Uncached prompts are embedded in one vectorized pass: their
        mixtures are stacked, scaled, and anchored as a single matrix and
        normalized together.  Row norms are computed with the scalar
        path's exact ``sqrt(dot(v, v))`` so the batch is bit-identical to
        sequential :meth:`encode` calls, and the per-``prompt_id`` memo
        semantics are unchanged (duplicates within the batch share one
        embedding, which is stored for later singleton encodes).
        """
        n = len(prompts)
        embed_dim = self.embed_dim
        if n == 0:
            return np.zeros((0, embed_dim))
        out = np.empty((n, embed_dim))
        memo = _EMBED_MEMO if self._cache_embeddings else {}
        memo_key = self._memo_key
        fresh: List[int] = []
        first_row: Dict[str, int] = {}
        uncached: List[PromptLike] = []
        for i, prompt in enumerate(prompts):
            hit = memo.get((memo_key, prompt.prompt_id))
            if hit is not None:
                out[i] = hit
                continue
            fresh.append(i)
            if prompt.prompt_id not in first_row:
                first_row[prompt.prompt_id] = len(uncached)
                uncached.append(prompt)
        if not uncached:
            return out
        cfg = self._space.config
        sdim = cfg.semantic_dim
        mat = np.zeros((len(uncached), embed_dim))
        for r, prompt in enumerate(uncached):
            mat[r, :sdim] = prompt_mixture(self._space, prompt)
        mat *= cfg.modality_scale
        mat += self._anchor
        norms = np.empty(len(uncached))
        for r in range(len(uncached)):
            row = mat[r]
            norm = math.sqrt(float(np.dot(row, row)))
            norms[r] = norm if norm != 0.0 else 1.0
        mat /= norms[:, None]
        for i in fresh:
            out[i] = mat[first_row[prompts[i].prompt_id]]
        if self._cache_embeddings:
            # Memoized rows are shared process-wide; freeze the backing
            # matrix so no caller can mutate them in place.
            mat.flags.writeable = False
            for r, prompt in enumerate(uncached):
                if len(_EMBED_MEMO) >= _EMBED_MEMO_MAX:
                    _EMBED_MEMO.clear()
                _EMBED_MEMO[(memo_key, prompt.prompt_id)] = mat[r]
        return out

    def clear_cache(self) -> None:
        """Drop this space's entries from the process-wide memo.

        Other spaces' embeddings stay warm.
        """
        if self._cache_embeddings:
            for key in [
                k for k in _EMBED_MEMO if k[0] == self._memo_key
            ]:
                del _EMBED_MEMO[key]
