"""Shared experiment infrastructure.

``ExperimentScale`` presets size every experiment consistently (the paper's
runs use 10k warm-up + 10k served requests against a 10k cache; scaled-down
presets keep the ratios).  ``ExperimentContext`` lazily builds the traces,
encoders, metrics, and serving systems the figure/table reproductions
share, so one context can drive many experiments without regenerating
workloads.

``CacheOnlyRun`` replays a trace through the cache/retrieval/k-selection
logic without the timing simulation — hit rates, k distributions, and
generated-image quality do not depend on queueing, so the quality-facing
experiments (Figs. 2, 5, 6, 9, 15, 19, Tables 2-3, §A.6) use this much
faster path, while the serving-facing experiments (Figs. 7-8, 10-14,
16-18) run the full discrete-event systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.baselines import (
    NirvanaSystem,
    PineconeSystem,
    VanillaSystem,
)
from repro.core.cache import ImageCache
from repro.core.cluster_router import (
    ClusterServingSystem,
    modm_cluster,
)
from repro.core.config import (
    CacheAdmission,
    ClusterConfig,
    ClusterRoutingConfig,
    JournalConfig,
    MoDMConfig,
    MonitorMode,
    SLOPolicy,
)
from repro.core.kselection import (
    KSelector,
    modm_default_selector,
    nirvana_default_selector,
    scale_k_steps,
)
from repro.core.retrieval import (
    RetrievalPolicy,
    TextToImageRetrieval,
    TextToTextRetrieval,
)
from repro.core.serving import MoDMSystem
from repro.diffusion.model import DiffusionModelSim
from repro.diffusion.registry import get_model
from repro.embedding.space import SemanticSpace
from repro.metrics import (
    ClipScoreMetric,
    FidMetric,
    InceptionScoreMetric,
    PickScoreMetric,
)
from repro.workloads import (
    DiffusionDBConfig,
    MJHQConfig,
    Prompt,
    diffusiondb_trace,
    mjhq_trace,
)
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing preset for experiment runs."""

    name: str
    warm_prompts: int
    serve_requests: int
    cache_capacity: int
    long_trace_requests: int
    cache_size_sweep: Tuple[int, ...]
    quality_requests: int

    def __post_init__(self) -> None:
        if min(self.warm_prompts, self.serve_requests) < 1:
            raise ValueError("scale sizes must be positive")


SCALES: Dict[str, ExperimentScale] = {
    # Fast enough for CI smoke tests.
    "smoke": ExperimentScale(
        name="smoke",
        warm_prompts=150,
        serve_requests=250,
        cache_capacity=600,
        long_trace_requests=800,
        cache_size_sweep=(100, 400),
        quality_requests=200,
    ),
    # Minutes-scale default used by the benchmark suite.
    "default": ExperimentScale(
        name="default",
        warm_prompts=1500,
        serve_requests=2000,
        cache_capacity=6000,
        long_trace_requests=8000,
        cache_size_sweep=(300, 1500, 6000),
        quality_requests=1500,
    ),
    # The paper's sizes (10k warm + 10k served, 1k/10k/100k sweep).
    "paper": ExperimentScale(
        name="paper",
        warm_prompts=10_000,
        serve_requests=10_000,
        cache_capacity=10_000,
        long_trace_requests=100_000,
        cache_size_sweep=(1_000, 10_000, 100_000),
        quality_requests=10_000,
    ),
}

#: Hardware testbeds of §6.
CLUSTER_A40 = ClusterConfig(gpu_name="A40", n_workers=4)
CLUSTER_MI210 = ClusterConfig(gpu_name="MI210", n_workers=16)


@dataclass
class CacheOnlyRecord:
    """Per-request outcome of a cache-only replay."""

    prompt: Prompt
    hit: bool
    similarity: float
    k_steps: int
    image: object
    retrieved_created_at: Optional[float] = None
    arrival_s: float = 0.0


@dataclass
class CacheOnlyRun:
    """Replay of a prompt stream through cache + retrieval + generation.

    Mirrors the MoDM decision path (or Nirvana's, with the text-to-text
    policy and its selector) without queueing.  ``refine_with`` chooses the
    model applied to cache hits; misses always use ``large``.
    """

    space: SemanticSpace
    retrieval: RetrievalPolicy
    selector: KSelector
    large: DiffusionModelSim
    refine_with: DiffusionModelSim
    cache_capacity: int
    admission: CacheAdmission = CacheAdmission.ALL
    cache_policy: str = "fifo"
    seed: str = "cache-run"

    def __post_init__(self) -> None:
        self.cache = ImageCache(
            capacity=self.cache_capacity,
            embed_dim=self.retrieval.embed_dim,
            policy=self.cache_policy,
        )
        self.records: List[CacheOnlyRecord] = []

    def warm(self, prompts: Sequence[Prompt], seed: str = "warmup") -> None:
        """Fill the cache with large-model generations (§6 warm-up).

        Generated and embedded one chunk at a time, inserted in order:
        bit-identical to admitting one prompt at a time.
        """
        for chunk, images in self.large.generate_chunks(prompts, seed=seed):
            if self.admission is CacheAdmission.NONE:
                continue
            # Warm images are the large model's, so LARGE_ONLY admits
            # them all.
            embeddings = self.retrieval.index_embeddings(chunk, images)
            for image, embedding in zip(images, embeddings):
                self.cache.insert(image, embedding, 0.0)

    def serve(
        self,
        prompts: Sequence[Prompt],
        arrivals: Optional[Sequence[float]] = None,
    ) -> List[CacheOnlyRecord]:
        """Serve prompts in order; returns their outcome records."""
        if arrivals is not None and len(arrivals) != len(prompts):
            raise ValueError("need one arrival per prompt")
        out: List[CacheOnlyRecord] = []
        for i, prompt in enumerate(prompts):
            now = float(arrivals[i]) if arrivals is not None else float(i)
            record = self._serve_one(prompt, now)
            out.append(record)
            self.records.append(record)
        return out

    def _serve_one(self, prompt: Prompt, now: float) -> CacheOnlyRecord:
        query = self.retrieval.query_embedding(prompt)
        entry, similarity = self.cache.retrieve(query)
        k = self.selector.decide(similarity) if entry is not None else None
        if entry is not None and k is not None:
            self.cache.record_hit(entry, now)
            source = entry.payload
            skipped = scale_k_steps(
                k, self.refine_with.spec.total_steps
            )
            image = self.refine_with.refine(
                prompt, source, skipped, seed=self.seed, created_at=now
            ).image
            record = CacheOnlyRecord(
                prompt=prompt,
                hit=True,
                similarity=similarity,
                k_steps=k,
                image=image,
                retrieved_created_at=source.created_at,
                arrival_s=now,
            )
        else:
            image = self.large.generate(
                prompt, seed=self.seed, created_at=now
            ).image
            record = CacheOnlyRecord(
                prompt=prompt,
                hit=False,
                similarity=similarity,
                k_steps=0,
                image=image,
                arrival_s=now,
            )
        self._admit(prompt, image, now)
        return record

    def _admit(self, prompt: Prompt, image, now: float) -> None:
        if self.admission is CacheAdmission.NONE:
            return
        if (
            self.admission is CacheAdmission.LARGE_ONLY
            and image.model_name != self.large.spec.name
        ):
            return
        embedding = self.retrieval.index_embedding(prompt, image)
        self.cache.insert(image, embedding, now)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.hit for r in self.records) / len(self.records)

    def k_rates(self) -> Dict[int, float]:
        hits = [r for r in self.records if r.hit]
        if not hits:
            return {}
        out: Dict[int, float] = {}
        for r in hits:
            out[r.k_steps] = out.get(r.k_steps, 0) + 1
        return {k: v / len(hits) for k, v in sorted(out.items())}

    def images(self) -> List[Tuple[Prompt, object]]:
        return [(r.prompt, r.image) for r in self.records]


class ExperimentContext:
    """Lazily built shared state for the figure/table reproductions."""

    def __init__(
        self,
        scale: str = "default",
        seed: str = "experiments-v1",
    ):
        if scale not in SCALES:
            raise KeyError(
                f"unknown scale {scale!r}; available: {sorted(SCALES)}"
            )
        self.scale = SCALES[scale]
        self.seed = seed
        self.space = SemanticSpace()
        self.retrieval_t2i = TextToImageRetrieval(self.space)
        self.retrieval_t2t = TextToTextRetrieval(self.space)
        self.clip = ClipScoreMetric(
            self.space,
            self.retrieval_t2i.text_encoder,
            self.retrieval_t2i.image_encoder,
        )
        self.inception = InceptionScoreMetric(
            self.space.config.semantic_dim
        )
        self.pick = PickScoreMetric(self.space, self.clip)
        self._models: Dict[str, DiffusionModelSim] = {}
        self._traces: Dict[str, Trace] = {}

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def model(self, name: str) -> DiffusionModelSim:
        sim = self._models.get(name)
        if sim is None:
            sim = DiffusionModelSim(get_model(name), self.space)
            self._models[name] = sim
        return sim

    def diffusiondb(self, n_requests: Optional[int] = None) -> Trace:
        n = n_requests or (
            self.scale.warm_prompts + self.scale.serve_requests
        )
        key = f"diffusiondb/{n}"
        if key not in self._traces:
            self._traces[key] = diffusiondb_trace(
                self.space,
                DiffusionDBConfig(n_requests=n, seed=f"{self.seed}/ddb"),
            )
        return self._traces[key]

    def mjhq(self, n_prompts: Optional[int] = None) -> Trace:
        """MJHQ-like trace of ``warm + serve`` requests.

        Mirrors the paper's setup, which touches 20k of MJHQ's 30k
        prompts: the underlying dataset is generated 3x larger than the
        experiment window, so roughly two thirds of a prompt's family
        mates fall outside the served portion — the reason MJHQ hit rates
        sit well below DiffusionDB's at equal cache size.
        """
        n = n_prompts or (
            self.scale.warm_prompts + self.scale.serve_requests
        )
        key = f"mjhq/{n}"
        if key not in self._traces:
            full = mjhq_trace(
                self.space,
                MJHQConfig(n_prompts=3 * n, seed=f"{self.seed}/mjhq"),
            )
            self._traces[key] = full.slice(0, n)
        return self._traces[key]

    def split(self, trace: Trace) -> Tuple[List[Prompt], Trace]:
        """(warm-up prompts, serve sub-trace) per the paper's §6 setup."""
        warm = [
            r.prompt for r in trace.requests[: self.scale.warm_prompts]
        ]
        serve = trace.slice(self.scale.warm_prompts)
        return warm, serve

    # ------------------------------------------------------------------
    # Serving systems
    # ------------------------------------------------------------------
    def modm(
        self,
        cluster: ClusterConfig = CLUSTER_MI210,
        large: str = "sd3.5-large",
        smalls: Tuple[str, ...] = ("sdxl",),
        cache_capacity: Optional[int] = None,
        admission: CacheAdmission = CacheAdmission.ALL,
        mode: MonitorMode = MonitorMode.THROUGHPUT,
        threshold_shift: float = 0.0,
        cache_policy: str = "fifo",
        use_pid: bool = True,
        slo: Optional[SLOPolicy] = None,
    ) -> MoDMSystem:
        config = MoDMConfig(
            large_model=large,
            small_models=smalls,
            cluster=cluster,
            cache_capacity=cache_capacity or self.scale.cache_capacity,
            cache_admission=admission,
            monitor_mode=mode,
            threshold_shift=threshold_shift,
            cache_policy=cache_policy,
            use_pid=use_pid,
            slo=slo,
        )
        return MoDMSystem(self.space, config)

    def modm_cluster(
        self,
        routing: ClusterRoutingConfig,
        cluster: ClusterConfig = CLUSTER_MI210,
        large: str = "sd3.5-large",
        smalls: Tuple[str, ...] = ("sdxl",),
        cache_capacity: Optional[int] = None,
        mode: MonitorMode = MonitorMode.THROUGHPUT,
        slo: Optional[SLOPolicy] = None,
        journal: Optional[JournalConfig] = None,
    ) -> ClusterServingSystem:
        """MoDM fleet: total workers/cache split across ``routing``'s
        replicas, so replica-count sweeps hold resources constant."""
        config = MoDMConfig(
            large_model=large,
            small_models=smalls,
            cluster=cluster,
            cache_capacity=cache_capacity or self.scale.cache_capacity,
            monitor_mode=mode,
            slo=slo,
            journal=journal,
        )
        return modm_cluster(self.space, config, routing)

    def vanilla(
        self,
        cluster: ClusterConfig = CLUSTER_MI210,
        model: str = "sd3.5-large",
        slo: Optional[SLOPolicy] = None,
    ) -> VanillaSystem:
        return VanillaSystem(self.space, cluster, model=model, slo=slo)

    def nirvana(
        self,
        cluster: ClusterConfig = CLUSTER_MI210,
        model: str = "sd3.5-large",
        cache_capacity: Optional[int] = None,
        slo: Optional[SLOPolicy] = None,
    ) -> NirvanaSystem:
        return NirvanaSystem(
            self.space,
            cluster,
            model=model,
            cache_capacity=cache_capacity or self.scale.cache_capacity,
            slo=slo,
        )

    def pinecone(
        self,
        cluster: ClusterConfig = CLUSTER_MI210,
        model: str = "sd3.5-large",
        cache_capacity: Optional[int] = None,
    ) -> PineconeSystem:
        return PineconeSystem(
            self.space,
            cluster,
            model=model,
            cache_capacity=cache_capacity or self.scale.cache_capacity,
        )

    # ------------------------------------------------------------------
    # Cache-only replays
    # ------------------------------------------------------------------
    def modm_cache_run(
        self,
        large: str = "sd3.5-large",
        small: str = "sdxl",
        cache_capacity: Optional[int] = None,
        admission: CacheAdmission = CacheAdmission.ALL,
        selector: Optional[KSelector] = None,
        cache_policy: str = "fifo",
        seed: str = "modm-run",
    ) -> CacheOnlyRun:
        return CacheOnlyRun(
            space=self.space,
            retrieval=self.retrieval_t2i,
            selector=selector or modm_default_selector(),
            large=self.model(large),
            refine_with=self.model(small),
            cache_capacity=cache_capacity or self.scale.cache_capacity,
            admission=admission,
            cache_policy=cache_policy,
            seed=seed,
        )

    def nirvana_cache_run(
        self,
        model: str = "sd3.5-large",
        cache_capacity: Optional[int] = None,
        seed: str = "nirvana-run",
    ) -> CacheOnlyRun:
        # Nirvana refines with the same large model it caches latents from.
        return CacheOnlyRun(
            space=self.space,
            retrieval=self.retrieval_t2t,
            selector=nirvana_default_selector(),
            large=self.model(model),
            refine_with=self.model(model),
            cache_capacity=cache_capacity or self.scale.cache_capacity,
            admission=CacheAdmission.ALL,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Quality evaluation
    # ------------------------------------------------------------------
    def quality_row(
        self,
        pairs: Sequence[Tuple[Prompt, object]],
        fid_metric: FidMetric,
    ) -> Dict[str, float]:
        images = [img for _, img in pairs]
        return {
            "clip": self.clip.mean_score(list(pairs)),
            "fid": fid_metric.score(images),
            "is": self.inception.score(images),
            "pick": self.pick.mean_score(list(pairs)),
        }

    def ground_truth(
        self,
        prompts: Sequence[Prompt],
        model: str = "sd3.5-large",
        seed: str = "gt-seed",
    ) -> FidMetric:
        sim = self.model(model)
        return FidMetric(
            [result.image for result in sim.generate_batch(prompts, seed)]
        )
