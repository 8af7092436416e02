"""The Request Scheduler (§4.2, §5.2).

On each request: embed the prompt with the scheduler-hosted CLIP model,
scan the cache for the most similar entry (Eq. 1), threshold the similarity
through the k-selector (Fig. 5b), and produce a hit/miss decision.  On each
completed generation: admit the image back into the cache per the admission
policy and let FIFO maintenance evict the oldest entry.

All scheduler work (embedding + similarity scan) happens off the GPU
workers; its latency (~0.06 s at 100k entries) is charged to the request,
not to a worker.  The scan itself is the cache's pluggable retrieval
backend (``config.retrieval_backend``): the exact masked-argmax path, or
the IVF approximate index whose sublinear probe cost flows into the
charged scheduler latency through ``cache.retrieval_latency_s()``.  A
tiered cache (``config.cache_tiering``) extends that model further:
shortlist candidates whose rows live in the ``pread`` cold tier charge
:data:`~repro.core.tiering.COLD_FETCH_UNITS` entry-scans each for the
disk read, so a mostly-cold cache admits with honestly higher modelled
latency than a hot one of the same occupancy — results are unaffected
(hot rows are exact copies of cold rows).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cluster.stats import StatsCollector
from repro.core.cache import VectorCache
from repro.core.config import CacheAdmission
from repro.core.kselection import KSelector
from repro.core.request import Decision
from repro.core.retrieval import RetrievalPolicy
from repro.diffusion.latent import SyntheticImage
from repro.embedding.text_encoder import PromptLike


class RequestScheduler:
    """Cache-aware request admission for MoDM-style systems."""

    def __init__(
        self,
        cache: VectorCache,
        retrieval: RetrievalPolicy,
        selector: KSelector,
        stats: StatsCollector,
        admission: CacheAdmission = CacheAdmission.ALL,
        large_model_name: Optional[str] = None,
        embed_latency_s: float = 0.01,
    ):
        if embed_latency_s < 0:
            raise ValueError("embed_latency_s must be non-negative")
        if admission is CacheAdmission.LARGE_ONLY and not large_model_name:
            raise ValueError(
                "LARGE_ONLY admission requires large_model_name"
            )
        self._cache = cache
        self._retrieval = retrieval
        self._selector = selector
        self._stats = stats
        self._admission = admission
        self._large_model_name = large_model_name
        self._embed_latency_s = embed_latency_s

    @property
    def cache(self) -> VectorCache:
        return self._cache

    def bind_stats(self, stats: StatsCollector) -> None:
        """Point the scheduler at a fresh run's stats collector."""
        self._stats = stats

    @property
    def selector(self) -> KSelector:
        return self._selector

    @property
    def retrieval(self) -> RetrievalPolicy:
        return self._retrieval

    def decide(
        self,
        prompt: PromptLike,
        now: float,
        keep_candidates: bool = False,
    ) -> Decision:
        """Classify one request as cache hit (with ``k``) or miss.

        With ``keep_candidates`` the nearest cache entry of a miss is
        kept on the decision (``candidate_image``) instead of dropped —
        the SLO degradation cascade re-thresholds it through a more
        permissive selector.  The hit/miss outcome is unaffected.
        """
        query = self._retrieval.query_embedding(prompt)
        latency = self._embed_latency_s + self._cache.retrieval_latency_s()
        entry, similarity = self._cache.retrieve(query)
        return self._finish_decision(
            entry, similarity, latency, now, keep_candidates
        )

    def decide_batch(
        self,
        prompts: Sequence[PromptLike],
        now: float,
        keep_candidates: bool = False,
    ) -> List[Decision]:
        """Classify a batch of same-tick arrivals in one matrix product.

        Embeds every prompt, scores all of them against the cache as a
        single matrix-matrix product, then thresholds each row — the
        batched analogue of calling :meth:`decide` per prompt.  Scheduler
        latency is still charged per request (each request pays its own
        embed + scan).  A singleton batch flows through the cache's exact
        matrix-vector path and is bit-identical to :meth:`decide`; larger
        batches use the matrix-matrix BLAS kernel, whose similarities can
        differ from the sequential ones in the last ulp.
        """
        if not prompts:
            return []
        if len(prompts) == 1:
            # Singleton batches are the common case on real traces; the
            # sequential path is bit-identical and skips the batch-matrix
            # assembly entirely.
            return [self.decide(prompts[0], now, keep_candidates)]
        queries = self._retrieval.query_embeddings(prompts)
        latency = self._embed_latency_s + self._cache.retrieval_latency_s()
        return [
            self._finish_decision(
                entry, similarity, latency, now, keep_candidates
            )
            for entry, similarity in self._cache.retrieve_batch(queries)
        ]

    def _finish_decision(
        self,
        entry,
        similarity: float,
        latency: float,
        now: float,
        keep_candidates: bool = False,
    ) -> Decision:
        """Threshold one retrieval outcome and record its stats."""
        k = (
            self._selector.decide(similarity)
            if entry is not None
            else None
        )
        if entry is not None and k is not None:
            self._cache.record_hit(entry, now)
            self._stats.record_decision(now, hit=True, k=k)
            return Decision(
                hit=True,
                similarity=similarity,
                k_steps=k,
                retrieved_image=entry.payload,
                scheduler_latency_s=latency,
            )
        self._stats.record_decision(now, hit=False)
        if keep_candidates and entry is not None:
            return Decision(
                hit=False,
                similarity=similarity,
                scheduler_latency_s=latency,
                candidate_image=entry.payload,
                candidate_similarity=similarity,
            )
        return Decision(
            hit=False,
            similarity=similarity,
            scheduler_latency_s=latency,
        )

    def admit(
        self,
        prompt: PromptLike,
        image: SyntheticImage,
        now: float,
    ) -> bool:
        """Offer a finished image to the cache; True if inserted."""
        if self._admission is CacheAdmission.NONE:
            return False
        if (
            self._admission is CacheAdmission.LARGE_ONLY
            and image.model_name != self._large_model_name
        ):
            return False
        embedding = self._retrieval.index_embedding(prompt, image)
        self._cache.insert(image, embedding, now)
        return True

    def admit_batch(
        self,
        prompts: Sequence[PromptLike],
        images: Sequence[SyntheticImage],
        now: float,
    ) -> int:
        """:meth:`admit` of every ``(prompt, image)`` pair, in order.

        The admitted images' index embeddings come from one batched call
        (bit-identical to one call per image); the inserts then run in
        order.  Returns how many images were inserted.  One pair is
        :meth:`admit` itself.
        """
        if len(images) == 1:
            return int(self.admit(prompts[0], images[0], now))
        if self._admission is CacheAdmission.NONE:
            return 0
        if self._admission is CacheAdmission.LARGE_ONLY:
            pairs = [
                (prompt, image)
                for prompt, image in zip(prompts, images)
                if image.model_name == self._large_model_name
            ]
            prompts = [prompt for prompt, _ in pairs]
            images = [image for _, image in pairs]
        if not images:
            return 0
        embeddings = self._retrieval.index_embeddings(prompts, images)
        for image, embedding in zip(images, embeddings):
            self._cache.insert(image, embedding, now)
        return len(images)
