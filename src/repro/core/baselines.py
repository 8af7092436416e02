"""Baseline serving systems (§6).

* :class:`VanillaSystem` — every request fully processed by one model
  (SD3.5-Large / FLUX for the vanilla rows; SDXL / SANA / SD3.5L-Turbo for
  the standalone small/distilled baselines).
* :class:`NirvanaSystem` — approximate caching of intermediate latents with
  text-to-text retrieval; cache hits skip ``k`` initial steps on the same
  large model, paying a latent-fetch overhead on the worker.
* :class:`PineconeSystem` — retrieval-only serving: sufficiently similar
  cached images are returned as-is (no refinement, near-zero latency);
  everything else is generated from scratch by the large model.
"""

from __future__ import annotations

import collections
from typing import Deque, Optional, Sequence

import numpy as np

from repro.core.cache import ImageCache, LatentCache
from repro.core.config import ClusterConfig, SLOPolicy
from repro.core.kselection import (
    KSelector,
    nirvana_default_selector,
    scale_k_steps,
)
from repro.core.request import Decision, RequestRecord
from repro.core.retrieval import TextToTextRetrieval
from repro.core.serving import BaseServingSystem, ServingReport, _WorkItem
from repro.core.slo import PathEstimate
from repro.diffusion.latent import CachedLatent, SyntheticImage
from repro.diffusion.registry import get_model
from repro.embedding.space import SemanticSpace
from repro.workloads.prompts import Prompt


class VanillaSystem(BaseServingSystem):
    """Full inference with a single model for every request.

    With an :class:`SLOPolicy` the system runs SLO *admission* (a single
    serving path leaves nothing to degrade to, so doomed sheddable
    requests are shed); without one, behaviour is unchanged.
    """

    def __init__(
        self,
        space: SemanticSpace,
        cluster: ClusterConfig,
        model: str = "sd3.5-large",
        seed: str = "run0",
        store_images: bool = True,
        slo: Optional[SLOPolicy] = None,
    ):
        super().__init__(
            space, cluster, seed=seed, store_images=store_images
        )
        self._spec = get_model(model)
        self.name = f"vanilla-{self._spec.name}"
        if slo is not None:
            self._install_slo_gate(slo, self._spec)
        self._queue: Deque[RequestRecord] = collections.deque()

    def _reset_runtime(self) -> None:
        super()._reset_runtime()
        self._queue = collections.deque()
        if hasattr(self, "_spec"):
            for worker in self.workers:
                worker.target_model = self._spec.name

    def _handle_arrival(self, record: RequestRecord, now: float) -> None:
        record.decision = Decision(hit=False)
        self.stats.record_decision(now, hit=False)
        record.enqueued_s = now
        gate = self._slo_gate
        if gate is not None:
            gate.assign(record)
            service = self._spec.service_time_s(
                self._gpu.name, self._spec.total_steps
            )
            verdict = gate.admit(
                record,
                now,
                PathEstimate(
                    name="full",
                    wait_s=len(self._queue)
                    * service
                    / max(1, len(self.workers)),
                    service_s=service,
                ),
            )
            if not verdict.admitted:
                self._register_shed(record)
                return
        self._queue.append(record)

    def _has_ready_work(self, now: float) -> bool:
        return bool(self._queue)

    def queue_depth(self) -> int:
        return len(self._queue)

    def _default_worker_model(self) -> Optional[str]:
        return self._spec.name

    def _next_work(self, worker, now: float) -> Optional[_WorkItem]:
        if not self._queue:
            return None
        record = self._queue.popleft()
        return _WorkItem(
            record=record,
            model=self.model_sim(self._spec.name),
            steps=self._spec.total_steps,
            skipped_steps=0,
        )


class NirvanaSystem(BaseServingSystem):
    """Latent caching with text-to-text retrieval on one large model.

    Differences from MoDM that the paper calls out (§2.2, §3):
    model-specific latents (single-model serving), text-to-text retrieval,
    conservative skip thresholds, heavier per-entry storage (~2.5 MB), and
    a worker-blocking latent fetch on every hit.
    """

    name = "nirvana"

    def __init__(
        self,
        space: SemanticSpace,
        cluster: ClusterConfig,
        model: str = "sd3.5-large",
        cache_capacity: int = 10_000,
        selector: Optional[KSelector] = None,
        latent_fetch_s: float = 3.0,
        embed_latency_s: float = 0.01,
        seed: str = "run0",
        store_images: bool = True,
        slo: Optional[SLOPolicy] = None,
    ):
        super().__init__(
            space, cluster, seed=seed, store_images=store_images
        )
        if latent_fetch_s < 0:
            raise ValueError("latent_fetch_s must be non-negative")
        self._spec = get_model(model)
        self.name = f"nirvana-{self._spec.name}"
        self._retrieval = TextToTextRetrieval(space)
        self.cache = LatentCache(
            capacity=cache_capacity,
            embed_dim=self._retrieval.embed_dim,
        )
        self._selector = selector or nirvana_default_selector()
        self._latent_fetch_s = latent_fetch_s
        self._embed_latency_s = embed_latency_s
        if slo is not None:
            # Single-model serving: hits shorten service but there is no
            # cheaper model to degrade to, so the gate can only shed.
            self._install_slo_gate(slo, self._spec)
        self._queue: Deque[RequestRecord] = collections.deque()
        # Estimated queued service seconds, maintained incrementally for
        # O(1) admission-time wait estimates (gate active only).
        self._queue_work_s = 0.0

    def _reset_runtime(self) -> None:
        super()._reset_runtime()
        self._queue = collections.deque()
        self._queue_work_s = 0.0
        if hasattr(self, "_spec"):
            for worker in self.workers:
                worker.target_model = self._spec.name

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------
    def warm_cache(
        self, prompts: Sequence[Prompt], seed: str = "warmup"
    ) -> None:
        """Pre-populate the latent cache (§6), one batch per chunk.

        Bit-identical to one prompt at a time, as in
        :meth:`~repro.core.serving.MoDMSystem.warm_cache`.
        """
        sim = self.model_sim(self._spec.name)
        for chunk, images in sim.generate_chunks(prompts, seed=seed):
            embeddings = self._retrieval.index_embeddings(chunk, images)
            for prompt, image, embedding in zip(chunk, images, embeddings):
                self._admit_latent(prompt, image, 0.0, embedding)

    def _admit_latent(
        self,
        prompt: Prompt,
        image: SyntheticImage,
        now: float,
        embedding: np.ndarray,
    ) -> None:
        latent = CachedLatent(
            latent_id=f"latent/{image.image_id}",
            prompt_id=prompt.prompt_id,
            model_name=self._spec.name,
            content=image.content,
            created_at=now,
            size_bytes=self._spec.latent_bytes,
        )
        self.cache.insert(latent, embedding, now)

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def _handle_arrival(self, record: RequestRecord, now: float) -> None:
        self._handle_arrivals([record], now)

    def _handle_arrivals(
        self, records: Sequence[RequestRecord], now: float
    ) -> None:
        # Same-tick arrivals score against the latent cache in one
        # matrix-matrix product (the cache routes singleton batches
        # through its exact matrix-vector path).
        latency = (
            self._embed_latency_s + self.cache.retrieval_latency_s()
        )
        queries = self._retrieval.query_embeddings(
            [record.prompt for record in records]
        )
        results = self.cache.retrieve_batch_for_model(
            queries, self._spec.name
        )
        for record, (entry, similarity) in zip(records, results):
            self._enqueue_decided(record, entry, similarity, latency, now)

    def _enqueue_decided(
        self, record: RequestRecord, entry, similarity, latency, now
    ) -> None:
        """Threshold one retrieval outcome and enqueue the record."""
        k = (
            self._selector.decide(similarity)
            if entry is not None
            else None
        )
        if entry is not None and k is not None:
            self.cache.record_hit(entry, now)
            self.stats.record_decision(now, hit=True, k=k)
            # The cached latent stack re-enters the large model at step k;
            # reuse the image-refinement dynamics with the stored content.
            proxy = SyntheticImage(
                image_id=entry.payload.latent_id,
                prompt_id=entry.payload.prompt_id,
                model_name=entry.payload.model_name,
                content=entry.payload.content,
                created_at=entry.payload.created_at,
            )
            record.decision = Decision(
                hit=True,
                similarity=similarity,
                k_steps=k,
                retrieved_image=proxy,
                scheduler_latency_s=latency,
            )
        else:
            self.stats.record_decision(now, hit=False)
            record.decision = Decision(
                hit=False,
                similarity=similarity,
                scheduler_latency_s=latency,
            )
        record.enqueued_s = now + latency
        gate = self._slo_gate
        if gate is not None:
            gate.assign(record)
            service = self._service_estimate_s(record)
            verdict = gate.admit(
                record,
                now,
                PathEstimate(
                    name="hit" if record.decision.hit else "full",
                    wait_s=self._queue_work_s
                    / max(1, len(self.workers)),
                    service_s=service,
                ),
            )
            if not verdict.admitted:
                self._register_shed(record)
                return
            self._queue_work_s += service
        self._queue.append(record)
        self._schedule_queue_dispatch(record)

    def _service_estimate_s(self, record: RequestRecord) -> float:
        """Service seconds this record will occupy a worker for."""
        decision = record.decision
        if (
            decision is not None
            and decision.hit
            and decision.retrieved_image is not None
        ):
            skipped = scale_k_steps(
                decision.k_steps, self._spec.total_steps
            )
            return (
                self._spec.service_time_s(
                    self._gpu.name, self._spec.total_steps - skipped
                )
                + self._latent_fetch_s
            )
        return self._spec.service_time_s(
            self._gpu.name, self._spec.total_steps
        )

    def _has_ready_work(self, now: float) -> bool:
        # FIFO with head-of-line semantics: ready iff the head is ready.
        return bool(self._queue) and self._queue[0].enqueued_s <= now

    def _next_work(self, worker, now: float) -> Optional[_WorkItem]:
        if not self._queue or self._queue[0].enqueued_s > now:
            return None
        record = self._queue.popleft()
        if self._slo_gate is not None:
            self._queue_work_s = max(
                0.0,
                self._queue_work_s - self._service_estimate_s(record),
            )
        decision = record.decision
        assert decision is not None
        if decision.hit and decision.retrieved_image is not None:
            skipped = scale_k_steps(
                decision.k_steps, self._spec.total_steps
            )
            return _WorkItem(
                record=record,
                model=self.model_sim(self._spec.name),
                steps=self._spec.total_steps - skipped,
                skipped_steps=skipped,
                source_image=decision.retrieved_image,
            )
        return _WorkItem(
            record=record,
            model=self.model_sim(self._spec.name),
            steps=self._spec.total_steps,
            skipped_steps=0,
        )

    def queue_depth(self) -> int:
        return len(self._queue)

    def _default_worker_model(self) -> Optional[str]:
        return self._spec.name

    def _worker_overhead_s(self, item: _WorkItem) -> float:
        # Hits block the worker while the 2.5 MB latent stack loads.
        return self._latent_fetch_s if item.source_image is not None else 0.0

    def _on_complete_image(self, record, image, now: float) -> None:
        self._admit_latent(
            record.prompt,
            image,
            now,
            self._retrieval.index_embedding(record.prompt, image),
        )

    def _build_report(self, trace, energy) -> ServingReport:
        report = super()._build_report(trace, energy)
        report.cache_size = len(self.cache)
        report.cache_storage_bytes = self.cache.storage_bytes()
        return report


class PineconeSystem(BaseServingSystem):
    """Retrieval-only serving: no refinement of retrieved images."""

    name = "pinecone"

    def __init__(
        self,
        space: SemanticSpace,
        cluster: ClusterConfig,
        model: str = "sd3.5-large",
        cache_capacity: int = 10_000,
        serve_threshold: float = 0.87,
        embed_latency_s: float = 0.01,
        seed: str = "run0",
        store_images: bool = True,
    ):
        super().__init__(
            space, cluster, seed=seed, store_images=store_images
        )
        if not 0.0 <= serve_threshold <= 1.0:
            raise ValueError("serve_threshold must be in [0, 1]")
        self._spec = get_model(model)
        self.name = f"pinecone-{self._spec.name}"
        self._retrieval = TextToTextRetrieval(space)
        self.cache = ImageCache(
            capacity=cache_capacity,
            embed_dim=self._retrieval.embed_dim,
        )
        self._serve_threshold = serve_threshold
        self._embed_latency_s = embed_latency_s
        self._queue: Deque[RequestRecord] = collections.deque()

    def _reset_runtime(self) -> None:
        super()._reset_runtime()
        self._queue = collections.deque()
        if hasattr(self, "_spec"):
            for worker in self.workers:
                worker.target_model = self._spec.name

    def warm_cache(
        self, prompts: Sequence[Prompt], seed: str = "warmup"
    ) -> None:
        """Pre-populate the image cache (§6), one batch per chunk.

        Bit-identical to one prompt at a time, as in
        :meth:`~repro.core.serving.MoDMSystem.warm_cache`.
        """
        sim = self.model_sim(self._spec.name)
        for chunk, images in sim.generate_chunks(prompts, seed=seed):
            embeddings = self._retrieval.index_embeddings(chunk, images)
            for image, embedding in zip(images, embeddings):
                self.cache.insert(image, embedding, now=0.0)

    def _handle_arrival(self, record: RequestRecord, now: float) -> None:
        self._handle_arrivals([record], now)

    def _handle_arrivals(
        self, records: Sequence[RequestRecord], now: float
    ) -> None:
        # Same-tick arrivals retrieve as one batched matrix product (the
        # cache routes singleton batches through its matrix-vector path).
        latency = self._embed_latency_s + self.cache.retrieval_latency_s()
        queries = self._retrieval.query_embeddings(
            [record.prompt for record in records]
        )
        results = self.cache.retrieve_batch(queries)
        for record, (entry, similarity) in zip(records, results):
            self._enqueue_decided(record, entry, similarity, latency, now)

    def _enqueue_decided(
        self, record: RequestRecord, entry, similarity, latency, now
    ) -> None:
        """Serve from cache above threshold, else queue for full service."""
        if entry is not None and similarity >= self._serve_threshold:
            self.cache.record_hit(entry, now)
            self.stats.record_decision(now, hit=True, k=0)
            record.decision = Decision(
                hit=True,
                similarity=similarity,
                k_steps=0,
                retrieved_image=entry.payload,
                scheduler_latency_s=latency,
                served_from_cache=True,
            )
            record.enqueued_s = now + latency
            self.loop.schedule(
                now + latency,
                lambda t, rec=record: self._finish_without_gpu(
                    rec, rec.decision.retrieved_image, t
                ),
            )
            return
        self.stats.record_decision(now, hit=False)
        record.decision = Decision(
            hit=False,
            similarity=similarity,
            scheduler_latency_s=latency,
        )
        record.enqueued_s = now + latency
        self._queue.append(record)
        self._schedule_queue_dispatch(record)

    def _has_ready_work(self, now: float) -> bool:
        # FIFO with head-of-line semantics: ready iff the head is ready.
        return bool(self._queue) and self._queue[0].enqueued_s <= now

    def queue_depth(self) -> int:
        return len(self._queue)

    def _default_worker_model(self) -> Optional[str]:
        return self._spec.name

    def _next_work(self, worker, now: float) -> Optional[_WorkItem]:
        if not self._queue or self._queue[0].enqueued_s > now:
            return None
        record = self._queue.popleft()
        return _WorkItem(
            record=record,
            model=self.model_sim(self._spec.name),
            steps=self._spec.total_steps,
            skipped_steps=0,
        )

    def _on_complete_image(self, record, image, now: float) -> None:
        embedding = self._retrieval.index_embedding(record.prompt, image)
        self.cache.insert(image, embedding, now)

    def _build_report(self, trace, energy) -> ServingReport:
        report = super()._build_report(trace, energy)
        report.cache_size = len(self.cache)
        report.cache_storage_bytes = self.cache.storage_bytes()
        return report
