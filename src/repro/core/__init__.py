"""MoDM core: the paper's contribution.

The pieces of Fig. 4, as a library:

* :mod:`repro.core.cache` — the model-agnostic final-image cache (FIFO
  sliding window, utility ablation) plus Nirvana's latent cache: one
  columnar core, :class:`VectorCache`, whose docstring is the cache
  contract every backend keeps;
* :mod:`repro.core.retrieval` — text-to-image vs text-to-text retrieval;
* :mod:`repro.core.ann` — the IVF approximate-retrieval backend for
  sublinear million-entry cache lookups;
* :mod:`repro.core.tiering` — the ten-million-entry tiered cache, a
  :class:`VectorCache` subclass that only decides where rows live:
  fp16-precision scan blocks (decoded at write, stored f32), a
  RAM-resident hot tier, and a ``pread`` cold tier with deterministic
  promotion/demotion;
* :mod:`repro.core.kselection` — similarity-thresholded choice of skipped
  de-noising steps (Fig. 5b) and its quality-constrained calibration;
* :mod:`repro.core.scheduler` — the Request Scheduler (embed, retrieve,
  route to hit/miss queues, maintain the cache);
* :mod:`repro.core.pid` / :mod:`repro.core.monitor` — the PID-stabilized
  Global Monitor (Algorithm 1), in quality- and throughput-optimized modes;
* :mod:`repro.core.serving` — the end-to-end MoDM serving system over the
  cluster simulator;
* :mod:`repro.core.slo` — the opt-in SLO subsystem: per-request deadlines
  and priority classes, admission control, and the degrade/shed cascade;
* :mod:`repro.core.baselines` — Vanilla, Nirvana, Pinecone, and standalone
  small/distilled-model systems.
"""

from repro.core.ann import IVFIndex, IVFParams
from repro.core.baselines import (
    NirvanaSystem,
    PineconeSystem,
    VanillaSystem,
)
from repro.core.cache import (
    CacheEntry,
    ImageCache,
    LatentCache,
    VectorCache,
)
from repro.core.cluster_router import (
    ClusterReport,
    ClusterRouter,
    ClusterServingSystem,
    ReplicaAutoscaler,
    modm_cluster,
)
from repro.core.config import (
    CacheAdmission,
    ClusterConfig,
    ClusterRoutingConfig,
    MoDMConfig,
    MonitorMode,
    SLOClass,
    SLOPolicy,
)
from repro.core.kselection import (
    KSelector,
    derive_thresholds,
    modm_default_selector,
    nirvana_default_selector,
)
from repro.core.monitor import Allocation, GlobalMonitor, MonitorConfig
from repro.core.pid import PIDController
from repro.core.request import Decision, RequestRecord, SLORejection
from repro.core.retrieval import (
    TextToImageRetrieval,
    TextToTextRetrieval,
)
from repro.core.scheduler import RequestScheduler
from repro.core.serving import MoDMSystem, ServingReport
from repro.core.slo import (
    PathEstimate,
    SloGate,
    SloSummary,
    SloVerdict,
    summarize_slo,
)
from repro.core.tiering import (
    ColdExtentError,
    ColdStore,
    ColdWriterError,
    TieredCacheConfig,
    TieredVectorCache,
)

__all__ = [
    "Allocation",
    "CacheAdmission",
    "CacheEntry",
    "ClusterConfig",
    "ClusterReport",
    "ClusterRouter",
    "ClusterRoutingConfig",
    "ClusterServingSystem",
    "ColdExtentError",
    "ColdStore",
    "ColdWriterError",
    "Decision",
    "GlobalMonitor",
    "IVFIndex",
    "IVFParams",
    "ImageCache",
    "KSelector",
    "LatentCache",
    "MoDMConfig",
    "MoDMSystem",
    "MonitorConfig",
    "MonitorMode",
    "NirvanaSystem",
    "PIDController",
    "PathEstimate",
    "PineconeSystem",
    "ReplicaAutoscaler",
    "RequestRecord",
    "RequestScheduler",
    "SLOClass",
    "SLOPolicy",
    "SLORejection",
    "ServingReport",
    "SloGate",
    "SloSummary",
    "SloVerdict",
    "TextToImageRetrieval",
    "TextToTextRetrieval",
    "TieredCacheConfig",
    "TieredVectorCache",
    "VanillaSystem",
    "VectorCache",
    "derive_thresholds",
    "modm_cluster",
    "modm_default_selector",
    "nirvana_default_selector",
    "summarize_slo",
]
