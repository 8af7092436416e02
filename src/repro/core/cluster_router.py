"""Multi-replica cluster serving: routing, autoscaling, aggregation.

The paper's Global Monitor manages one worker pool behind one cache.  At
production scale a deployment runs N serving *replicas* — each with its
own cache shard, scheduler, monitor, and worker pool — fronted by a
router that decides where every request lands.  This module supplies
that layer:

* :class:`ClusterRouter` with pluggable :data:`ROUTING_POLICY_REGISTRY`
  policies — ``round_robin``, ``least_loaded`` (queue-depth weighted),
  and ``cache_affinity`` (nearest cache-centroid sketch, with a
  load-imbalance cap that spills to the least-loaded replica);
* :class:`ReplicaAutoscaler` — extends the Global Monitor's demand
  estimation across replicas: per-replica window stats (hit rate, queue
  depth, SLO pressure) drive a demand-proportional worker split, damped
  by per-replica PID controllers so allocations do not thrash, applied
  by moving *idle* workers between replicas;
* :class:`ClusterServingSystem` — N engines under one shared event
  clock; with ``n_replicas=1`` every decision is bit-for-bit identical
  to running the wrapped engine directly (pinned by the seed golden
  regression);
* :class:`ClusterReport` — per-replica plus fleet-wide hit/latency/SLO
  accounting.

Determinism contract: routing, autoscaling, and dispatch are pure
functions of simulation state — ties break toward the lowest replica
index, worker transfers pick the highest-id idle worker, and all
periodic machinery runs on the shared deterministic event loop.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.cluster.energy import EnergyMeter
from repro.cluster.events import EventLoop
from repro.cluster.stats import StatsCollector
from repro.core.config import (
    ClusterRoutingConfig,
    MIGRATION_POLICIES,
    MoDMConfig,
    ROUTING_POLICIES,
)
from repro.core.journal import (
    ARRIVAL,
    KILL,
    MIGRATE,
    RESTART,
    ROUTE,
    SNAPSHOT,
    TRANSFER,
    EventJournal,
    ReplicaState,
    _copy_store,
    _HEAP_KINDS,
    _journal_prefix,
    _replica_fingerprint,
)
from repro.core.monitor import estimate_workloads
from repro.core.pid import PIDController
from repro.core.request import RequestRecord, RequestStore
from repro.core.retrieval import (
    TextToImageRetrieval,
    TextToTextRetrieval,
)
from repro.core.serving import (
    BaseServingSystem,
    MoDMSystem,
    ServingReport,
    install_arrival_cohorts,
)
from repro.core.tiering import check_cold_extents
from repro.diffusion.model import WARM_CHUNK
from repro.metrics.latency import percentile
from repro.embedding.space import SemanticSpace
from repro.workloads.prompts import Prompt
from repro.workloads.trace import Trace

QueryEmbedder = Callable[[Prompt], np.ndarray]


# ----------------------------------------------------------------------
# Routing policies
# ----------------------------------------------------------------------
class RoutingPolicy:
    """Chooses the replica index for one request.

    ``loads`` is the per-replica load signal (queued + in-service, or
    cache occupancy during warm-up) and ``centroids`` the per-replica
    cache-centroid sketches (``None`` for empty or cache-less replicas;
    a 1-D running-mean centroid, or a 2-D matrix of coarse IVF cell
    centroids scored row-wise).  Implementations must be deterministic:
    equal scores resolve to the lowest replica index.
    """

    name = "base"
    #: Whether :meth:`route` wants the request's query embedding; the
    #: router only embeds (and the convenience constructors only wire an
    #: embedder) for policies that declare it.
    needs_query = False
    #: Whether :meth:`route` reads the per-replica centroid sketches;
    #: the router skips the per-arrival centroid reads otherwise.
    needs_centroids = False

    @classmethod
    def from_config(
        cls, config: ClusterRoutingConfig
    ) -> "RoutingPolicy":
        """Build an instance wired to the config's tunables.

        The base construction takes none; policies with knobs (the
        affinity cap/slack) override this, so registered policies never
        silently drop config parameters.
        """
        return cls()

    def reset(self) -> None:
        """Clear per-run state (round-robin counters)."""

    def snapshot_state(self) -> object:
        """Opaque per-run policy state for fleet snapshots.

        Stateless policies return ``None``; stateful ones (round-robin
        cursors) override both this and :meth:`restore_state`.
        """
        return None

    def restore_state(self, state: object) -> None:
        if state is not None:
            raise ValueError(
                f"policy {self.name!r} is stateless but the snapshot "
                f"carries state {state!r}"
            )

    def route(
        self,
        query: Optional[np.ndarray],
        loads: Sequence[int],
        centroids: Sequence[Optional[np.ndarray]],
    ) -> int:
        raise NotImplementedError


#: Registry of routing policies by name; keys mirror
#: :data:`repro.core.config.ROUTING_POLICIES`.
ROUTING_POLICY_REGISTRY: Dict[str, Type[RoutingPolicy]] = {}


def register_routing_policy(name: str):
    """Class decorator adding a :class:`RoutingPolicy` to the registry."""

    def decorate(cls: Type[RoutingPolicy]) -> Type[RoutingPolicy]:
        cls.name = name
        ROUTING_POLICY_REGISTRY[name] = cls
        return cls

    return decorate


def _least_loaded_index(loads: Sequence[int]) -> int:
    """Lowest-load replica; lowest index breaks ties."""
    return min(range(len(loads)), key=lambda i: (loads[i], i))


@register_routing_policy("round_robin")
class RoundRobinRouting(RoutingPolicy):
    """Arrival order modulo replica count."""

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def snapshot_state(self) -> object:
        return self._next

    def restore_state(self, state: object) -> None:
        self._next = int(state)

    def route(self, query, loads, centroids) -> int:
        idx = self._next % len(loads)
        self._next += 1
        return idx


@register_routing_policy("least_loaded")
class LeastLoadedRouting(RoutingPolicy):
    """Fewest queued + in-service requests wins."""

    def route(self, query, loads, centroids) -> int:
        return _least_loaded_index(loads)


@register_routing_policy("cache_affinity")
class CacheAffinityRouting(RoutingPolicy):
    """Nearest cache-centroid sketch, capped by load imbalance.

    A request's hit probability depends on *which* replica's cache holds
    its semantic neighbors, so the router scores the request embedding
    against every replica's centroid sketch and sends it to the nearest
    one.  A sketch is whatever the replica's cache exposes through
    ``coarse_centroids()``: the single running-mean centroid on the
    exact backend, or the per-cell means of a trained IVF index — the
    same coarse structure the index probes, not a router-private sketch.
    Multi-centroid sketches score as the best row (nearest cell), so an
    IVF-backed replica attracts requests near *any* of its semantic
    clusters.  Equal similarities keep the lowest replica index (strict
    ``>`` comparison), so equidistant replicas tie-break
    deterministically.

    The affinity choice is overridden when it would pile load onto an
    already-hot replica: if the chosen replica's load exceeds
    ``imbalance_cap x min_load + spill_slack`` the request spills to the
    least-loaded replica instead.  Requests without a usable embedding
    or centroids (cold caches, cache-less systems) also fall back to
    least-loaded.
    """

    needs_query = True
    needs_centroids = True

    @classmethod
    def from_config(
        cls, config: ClusterRoutingConfig
    ) -> "CacheAffinityRouting":
        return cls(
            imbalance_cap=config.imbalance_cap,
            spill_slack=config.spill_slack,
        )

    def __init__(
        self, imbalance_cap: float = 2.0, spill_slack: int = 8
    ) -> None:
        if imbalance_cap < 1.0:
            raise ValueError("imbalance_cap must be >= 1.0")
        if spill_slack < 0:
            raise ValueError("spill_slack must be non-negative")
        self.imbalance_cap = imbalance_cap
        self.spill_slack = spill_slack
        # Replica index -> (sketch, its norms).  Caches hand back the
        # same read-only sketch object until their contents change, so
        # the norms are recomputed only when the object does.
        # snap: derived (recomputed from the sketches on first read)
        self._norm_memo: Dict[int, Tuple[np.ndarray, object]] = {}

    def reset(self) -> None:
        self._norm_memo = {}

    def _memo_norms(self, i: int, sketch: np.ndarray) -> object:
        """Replica ``i``'s :meth:`_sketch_norms`, keyed on the sketch
        object's identity."""
        memo = self._norm_memo.get(i)
        if memo is not None and memo[0] is sketch:
            return memo[1]
        norms = self._sketch_norms(sketch)
        self._norm_memo[i] = (sketch, norms)
        return norms

    @staticmethod
    def _sketch_norms(sketch: np.ndarray) -> object:
        """What :meth:`_sketch_similarity` needs of a sketch's norms.

        A 1-row (running-mean) sketch gets its scalar norm; a
        multi-row IVF sketch gets ``(occupied, occupied_norms)``.
        """
        if sketch.ndim == 1 or sketch.shape[0] == 1:
            row = sketch if sketch.ndim == 1 else sketch[0]
            return math.sqrt(float(row.dot(row)))
        norms = np.sqrt(np.einsum("ij,ij->i", sketch, sketch))
        occupied = norms > 0.0
        return occupied, norms[occupied]

    @staticmethod
    def _sketch_similarity(
        query: np.ndarray, qnorm: float, sketch: np.ndarray, norms
    ) -> float:
        """Best cosine between the query and the sketch's centroid rows.

        The 1-row (running-mean) case replays the exact scalar ops of
        the pre-IVF single-centroid scorer, keeping multi-replica
        routing decisions bit-identical on the exact backend.  Multi-row
        IVF sketches score as one matvec — O(nlist·d) BLAS work per
        replica, not nlist python-level dot calls.  ``norms`` comes
        from :meth:`_sketch_norms`.
        """
        if sketch.ndim == 1 or sketch.shape[0] == 1:
            if norms == 0.0:
                return -math.inf
            row = sketch if sketch.ndim == 1 else sketch[0]
            return float(query.dot(row)) / (qnorm * norms)
        occupied, occupied_norms = norms
        if not occupied_norms.size:
            return -math.inf
        sims = (sketch @ query)[occupied] / (qnorm * occupied_norms)
        return float(sims.max())

    def route(self, query, loads, centroids) -> int:
        best = -1
        best_sim = -math.inf
        if query is not None:
            qnorm = math.sqrt(float(query.dot(query)))
            if qnorm > 0.0:
                for i, sketch in enumerate(centroids):
                    if sketch is None:
                        continue
                    sim = self._sketch_similarity(
                        query, qnorm, sketch, self._memo_norms(i, sketch)
                    )
                    if sim > best_sim:
                        best = i
                        best_sim = sim
        least = _least_loaded_index(loads)
        if best < 0:
            return least
        if loads[best] > (
            self.imbalance_cap * loads[least] + self.spill_slack
        ):
            return least
        return best


def make_routing_policy(config: ClusterRoutingConfig) -> RoutingPolicy:
    """Instantiate the configured policy; raises on unknown names."""
    try:
        cls = ROUTING_POLICY_REGISTRY[config.policy]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {config.policy!r}; "
            f"available: {sorted(ROUTING_POLICY_REGISTRY)}"
        ) from None
    return cls.from_config(config)


# ----------------------------------------------------------------------
# Cache migration policies
# ----------------------------------------------------------------------
# A migration policy assigns each entry of a dead replica's last cache
# snapshot to a surviving replica: ``fn(entries, survivors, replicas)``
# -> one fleet index per entry, where ``entries`` is the deterministic
# ``snapshot_entries`` list ((entry_id, payload, embedding,
# inserted_at), ascending id) and ``survivors`` the ascending live
# fleet indices.  Policies must be pure functions of their arguments —
# assignments are journaled and replayed.
MigrationPolicy = Callable[
    [Sequence[tuple], Sequence[int], Sequence[BaseServingSystem]],
    List[int],
]

MIGRATION_POLICY_REGISTRY: Dict[str, MigrationPolicy] = {}


def register_migration_policy(name: str):
    """Decorator adding a migration policy function to the registry."""

    def decorate(fn: MigrationPolicy) -> MigrationPolicy:
        MIGRATION_POLICY_REGISTRY[name] = fn
        return fn

    return decorate


@register_migration_policy("none")
def _migrate_none(entries, survivors, replicas) -> List[int]:
    """Historical default: the dead replica's cache is dropped.

    Registered for registry completeness; the kill path short-circuits
    before extraction when the policy is ``none``, so this only runs if
    called directly.
    """
    return []


@register_migration_policy("round_robin")
def _migrate_round_robin(entries, survivors, replicas) -> List[int]:
    """Deal entries across survivors in turn (ascending fleet index)."""
    return [
        survivors[i % len(survivors)] for i in range(len(entries))
    ]


@register_migration_policy("nearest_centroid")
def _migrate_nearest_centroid(entries, survivors, replicas) -> List[int]:
    """Send each entry to the survivor whose cache sketch is nearest.

    Scores each entry's embedding against the survivors' *pre-kill*
    centroid sketches (read once, before any adoption shifts them) with
    the same scorer affinity routing uses, so migrated entries land
    where future affinity-routed requests will look for them.  Strict
    ``>`` keeps the lowest survivor index on ties; entries with a zero
    embedding or sketchless survivors fall back to round-robin by
    entry position.
    """
    sketches = [
        ClusterRouter._centroid(replicas[idx]) for idx in survivors
    ]
    norms = [
        None if sketch is None else CacheAffinityRouting._sketch_norms(sketch)
        for sketch in sketches
    ]
    assignment: List[int] = []
    for position, (_entry_id, _payload, embedding, _at) in enumerate(
        entries
    ):
        query = np.asarray(embedding, dtype=np.float64)
        qnorm = math.sqrt(float(query.dot(query)))
        best = -1
        best_sim = -math.inf
        if qnorm > 0.0:
            for j, sketch in enumerate(sketches):
                if sketch is None:
                    continue
                sim = CacheAffinityRouting._sketch_similarity(
                    query, qnorm, sketch, norms[j]
                )
                if sim > best_sim:
                    best = j
                    best_sim = sim
        if best < 0:
            best = position % len(survivors)
        assignment.append(survivors[best])
    return assignment


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class ClusterRouter:
    """Routes arrivals (and warm-up prompts) across replicas.

    Within a same-tick arrival batch, loads are advanced as requests are
    assigned so load-aware policies spread a burst instead of dog-piling
    one replica.  Query embeddings are computed through the shared
    process-wide encoder memos, so the router's embed and the replica
    scheduler's embed of the same prompt cost one encoding.
    """

    def __init__(
        self,
        config: ClusterRoutingConfig,
        query_embedder: Optional[QueryEmbedder] = None,
        query_batch_embedder: Optional[
            Callable[[Sequence[Prompt]], np.ndarray]
        ] = None,
    ):
        self.config = config
        self.policy = make_routing_policy(config)
        self._embed = query_embedder
        self._embed_batch = query_batch_embedder

    def reset(self) -> None:
        self.policy.reset()

    def _query(self, prompt: Prompt) -> Optional[np.ndarray]:
        if self._embed is None or not self.policy.needs_query:
            return None
        return self._embed(prompt)

    def _queries(
        self, records: Sequence[RequestRecord]
    ) -> List[Optional[np.ndarray]]:
        """Query embeddings per record (None when the policy skips them).

        Multi-record batches go through the vectorized batch encoder
        when one is wired — the same matrix-level path the replica
        scheduler uses for same-tick arrivals.
        """
        if self._embed is None or not self.policy.needs_query:
            return [None] * len(records)
        if self._embed_batch is not None and len(records) > 1:
            matrix = self._embed_batch(
                [record.prompt for record in records]
            )
            return [matrix[i] for i in range(len(records))]
        return [self._embed(record.prompt) for record in records]

    @staticmethod
    def _centroid(replica: BaseServingSystem) -> Optional[np.ndarray]:
        """The replica cache's semantic sketch.

        Prefers the shared multi-centroid sketch
        (``cache.coarse_centroids()`` — the IVF coarse cells once an
        index trains, the running-mean centroid as a 1-row matrix
        otherwise), so affinity routing and the retrieval index read
        the same trained structure instead of keeping separate ones.
        """
        cache = getattr(replica, "cache", None)
        if cache is None:
            return None
        if hasattr(cache, "coarse_centroids"):
            return cache.coarse_centroids()
        if hasattr(cache, "centroid"):
            return cache.centroid()
        return None

    def _centroids(
        self, replicas: Sequence[BaseServingSystem]
    ) -> List[Optional[np.ndarray]]:
        """Per-replica sketches, skipped for policies that ignore them."""
        if not self.policy.needs_centroids:
            return [None] * len(replicas)
        return [self._centroid(replica) for replica in replicas]

    def route_batch(
        self,
        records: Sequence[RequestRecord],
        replicas: Sequence[BaseServingSystem],
    ) -> List[int]:
        """Replica index per record, with in-batch load accounting."""
        if len(replicas) == 1:
            # Single replica: every policy is the identity; skip the
            # embedding and load reads entirely.
            return [0] * len(records)
        loads = [replica.load() for replica in replicas]
        centroids = self._centroids(replicas)
        out: List[int] = []
        for record, query in zip(records, self._queries(records)):
            idx = self.policy.route(query, loads, centroids)
            loads[idx] += 1
            out.append(idx)
        return out

    def embed_warm(self, prompts: Sequence[Prompt]) -> None:
        """Embed a warm set's queries in batches, ahead of placement.

        The embeddings land in the encoders' memos, where each
        :meth:`route_warm` finds its prompt's; a policy that reads no
        query embeds nothing.  Batches hold at most :data:`WARM_CHUNK`
        prompts, which bounds their temporaries.
        """
        if self._embed_batch is None or not self.policy.needs_query:
            return
        for start in range(0, len(prompts), WARM_CHUNK):
            self._embed_batch(prompts[start:start + WARM_CHUNK])

    def route_warm(
        self,
        prompt: Prompt,
        replicas: Sequence[BaseServingSystem],
    ) -> int:
        """Warm-up placement: cache occupancy is the load signal.

        Under ``cache_affinity`` this performs online semantic
        clustering of the warm set (each placement updates the chosen
        replica's centroid), so shards start coherent instead of
        uniformly mixed.
        """
        if len(replicas) == 1:
            return 0
        loads = [
            len(getattr(replica, "cache", ())) for replica in replicas
        ]
        centroids = self._centroids(replicas)
        return self.policy.route(self._query(prompt), loads, centroids)


# ----------------------------------------------------------------------
# Replica autoscaler
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransferEvent:
    """One worker moved between replicas by the autoscaler."""

    time_s: float
    worker_id: int
    src_replica: int
    dst_replica: int


class ReplicaAutoscaler:
    """PID-damped demand-proportional worker split across replicas.

    Each period the autoscaler reads every replica's window stats and
    derives its demand in full-generation equivalents per minute (the
    Global Monitor's Algorithm-1 estimator, via
    :func:`~repro.core.monitor.estimate_workloads`, with the replica's
    queue depth folded in as backlog and SLO pressure as a multiplier).
    Raw demand shares are damped through one PID controller per replica
    before integerizing, so a one-window blip shifts the split by a
    fraction of a worker instead of slamming it — the anti-thrash
    property the edge-case tests pin.

    Integerization is deterministic: floor + largest fractional
    remainder (lowest index breaking ties), every replica keeping at
    least ``min_workers_per_replica``.
    """

    def __init__(
        self,
        config: ClusterRoutingConfig,
        initial_counts: Sequence[int],
    ):
        if not initial_counts:
            raise ValueError("need at least one replica")
        self._config = config  # snap: derived
        self._total = sum(initial_counts)  # snap: derived
        self._min = config.min_workers_per_replica  # snap: derived
        if self._min * len(initial_counts) > self._total:
            raise ValueError(
                f"min_workers_per_replica={self._min} x "
                f"{len(initial_counts)} replicas exceeds the "
                f"{self._total}-worker fleet"
            )
        self._pids = [
            PIDController(
                kp=config.autoscale_kp,
                ki=config.autoscale_ki,
                kd=config.autoscale_kd,
            )
            for _ in initial_counts
        ]
        self._smooth = [float(c) for c in initial_counts]

    def snapshot_state(self) -> Dict[str, Any]:
        """PID and smoothed-split state for fleet snapshots."""
        return {
            "smooth": list(self._smooth),
            "pids": [pid.snapshot_state() for pid in self._pids],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        if len(state["smooth"]) != len(self._smooth):
            raise ValueError(
                "autoscaler snapshot replica-count mismatch"
            )
        self._smooth = [float(v) for v in state["smooth"]]
        for pid, pid_state in zip(self._pids, state["pids"]):
            pid.restore_state(pid_state)

    def replica_demand(
        self, replica: BaseServingSystem, now: float
    ) -> float:
        """One replica's demand signal, full-generations/min."""
        window = replica.stats.window(
            now, self._config.autoscale_window_s
        )
        miss, hit = estimate_workloads(
            window,
            miss_backlog=replica.queue_depth(),
            period_s=self._config.autoscale_period_s,
        )
        pressure = replica.stats.slo_window(
            now, self._config.autoscale_window_s
        ).pressure
        return (miss + hit) * (1.0 + pressure)

    def desired(
        self, replicas: Sequence[BaseServingSystem], now: float
    ) -> List[int]:
        """Target worker counts for this period (sums to the fleet)."""
        return self.targets(
            [self.replica_demand(r, now) for r in replicas]
        )

    def targets(self, demands: Sequence[float]) -> List[int]:
        """Damped integer split for raw per-replica ``demands``."""
        if len(demands) != len(self._smooth):
            raise ValueError("one demand per replica required")
        total_demand = sum(demands)
        if total_demand <= 0.0:
            # No demand signal anywhere: hold the split steady.
            return self._integerize(self._smooth)
        raw = [d / total_demand * self._total for d in demands]
        for i, pid in enumerate(self._pids):
            self._smooth[i] += pid.compute(raw[i], self._smooth[i])
        return self._integerize(self._smooth)

    def _integerize(self, floats: Sequence[float]) -> List[int]:
        n = len(floats)
        counts = [max(self._min, math.floor(f)) for f in floats]
        while sum(counts) > self._total:
            # Shave the largest count above the floor (highest index
            # first among equals, so low replicas keep workers).
            over = [i for i in range(n) if counts[i] > self._min]
            counts[max(over, key=lambda j: (counts[j], j))] -= 1
        remaining = self._total - sum(counts)
        if remaining > 0:
            order = sorted(
                range(n),
                key=lambda j: (-(floats[j] - math.floor(floats[j])), j),
            )
            for step in range(remaining):
                counts[order[step % n]] += 1
        return counts


# ----------------------------------------------------------------------
# Failure injection
# ----------------------------------------------------------------------
@dataclass
class FailureRecord:
    """One injected replica failure and its measured recovery.

    ``hit_rate_before`` / ``hit_rate_after`` are the replica's cache hit
    rate over the plan's ``recovery_window_s`` ending at the kill and at
    ``restart + window`` respectively — the before/after pair the warm
    vs. cold restart comparison reads.  ``recovery_latency_s`` is the
    time from the kill to the restarted replica's first completion.
    ``n_migrated`` counts cache entries survivors adopted from this
    replica's last snapshot (0 under ``migration_policy="none"``).
    """

    time_s: float
    replica: int
    n_rerouted: int = 0
    hit_rate_before: float = 0.0
    restart_time_s: Optional[float] = None
    warm: bool = False
    hit_rate_after: Optional[float] = None
    recovery_latency_s: Optional[float] = None
    n_migrated: int = 0


# ----------------------------------------------------------------------
# Cluster report
# ----------------------------------------------------------------------
@dataclass
class ClusterReport:
    """Per-replica and fleet-wide accounting of one cluster run."""

    policy: str
    fleet: ServingReport
    replicas: List[ServingReport]
    routed: List[int]
    transfers: List[TransferEvent] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    n_rerouted: int = 0
    n_lost: int = 0

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def hit_rate(self) -> float:
        """Fleet-wide cache hit rate."""
        return self.fleet.hit_rate

    @property
    def n_completed(self) -> int:
        return self.fleet.n_completed

    def latency_percentile_s(self, q: float) -> float:
        """Fleet latency percentile (0-100); 0.0 with no completions."""
        latencies = self.fleet.latencies()
        if latencies.size == 0:
            return 0.0
        return percentile(latencies, q)

    def summary_row(self) -> Dict[str, object]:
        """One table row of headline fleet numbers."""
        fleet = self.fleet
        slo = fleet.slo()
        return {
            "policy": self.policy,
            "replicas": self.n_replicas,
            "hit_rate": self.hit_rate,
            "p50_s": self.latency_percentile_s(50.0),
            "p99_s": self.latency_percentile_s(99.0),
            "throughput_rpm": fleet.throughput_rpm,
            "completed": fleet.n_completed,
            "shed": fleet.n_shed,
            "violation_rate": (
                slo.violation_rate if slo is not None else 0.0
            ),
            "transfers": len(self.transfers),
        }


class _FleetState:
    """Shared run-termination view the replicas consult via ``all_done``."""

    __slots__ = ("expected", "replicas")

    def __init__(
        self, expected: int, replicas: Sequence[BaseServingSystem]
    ):
        self.expected = expected
        self.replicas = replicas

    @property
    def all_done(self) -> bool:
        return (
            sum(r.n_terminal for r in self.replicas) >= self.expected
        )


# ----------------------------------------------------------------------
# Cluster serving system
# ----------------------------------------------------------------------
class ClusterServingSystem:
    """N serving replicas under one event clock, fronted by a router.

    ``replica_factory(i)`` builds replica ``i`` — any
    :class:`BaseServingSystem` subclass works, so Vanilla/Nirvana
    baselines ride the same router as MoDM and comparisons stay
    apples-to-apples.  Worker ids are offset per replica so they are
    fleet-unique (replica 0 keeps ids ``0..k-1``, preserving the
    single-replica golden trace bit for bit).
    """

    def __init__(
        self,
        space: SemanticSpace,
        replica_factory: Callable[[int], BaseServingSystem],
        routing: Optional[ClusterRoutingConfig] = None,
        query_embedder: Optional[QueryEmbedder] = None,
        query_batch_embedder: Optional[
            Callable[[Sequence[Prompt]], np.ndarray]
        ] = None,
        name: Optional[str] = None,
    ):
        self._space = space
        self.routing = routing or ClusterRoutingConfig()
        self.replicas: List[BaseServingSystem] = [
            replica_factory(i) for i in range(self.routing.n_replicas)
        ]
        inner = sorted({r.name for r in self.replicas})
        self.name = name or (
            f"cluster-{'+'.join(inner)}"
            f"-x{len(self.replicas)}-{self.routing.policy}"
        )
        self.router = ClusterRouter(
            self.routing, query_embedder, query_batch_embedder
        )
        self._autoscaler: Optional[ReplicaAutoscaler] = None
        self._make_autoscaler()
        self.loop = EventLoop()
        self.request_store = RequestStore()
        self.records: List[RequestRecord] = []
        self.routed_counts: List[int] = [0] * len(self.replicas)
        self.transfers: List[TransferEvent] = []
        self._fleet_state: Optional[_FleetState] = None
        self._failures: List[FailureRecord] = []
        self.journal: Optional[EventJournal] = None
        self.snapshots: List["ClusterSnapshot"] = []
        #: plan time -> failure-event indices firing at that instant
        self._failure_schedule: Dict[float, List[int]] = {}
        #: probe time -> FailureRecord indices measured at that instant
        self._probe_schedule: Dict[float, List[int]] = {}
        self._next_snapshot_s = -1.0

    def _make_autoscaler(self) -> None:
        """Fresh autoscaler state (PID, smoothed split) for a run."""
        if self.routing.autoscale and len(self.replicas) > 1:
            self._autoscaler = ReplicaAutoscaler(
                self.routing,
                [r._cluster.n_workers for r in self.replicas],
            )
        else:
            self._autoscaler = None

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------
    def warm_cache(
        self, prompts: Sequence[Prompt], seed: str = "warmup"
    ) -> None:
        """Distribute warm-up generations across replica caches.

        Placement runs the routing policy with cache occupancy as the
        load signal; with one replica the whole warm set lands on it in
        one batched warm-up, exactly as in a single-engine run.  With
        several, the warm prompts' query embeddings are computed in
        batches up front (the shared memos then serve each placement's
        embed), but placement and generation stay one prompt at a time:
        under ``cache_affinity`` each choice reads centroids that the
        previous inserts moved, and each image's id comes from the
        chosen replica's model.
        """
        self.router.reset()
        if len(self.replicas) == 1:
            self.replicas[0].warm_cache(prompts, seed=seed)
            return
        self.router.embed_warm(prompts)
        for prompt in prompts:
            idx = self.router.route_warm(prompt, self.replicas)
            self.replicas[idx].warm_cache([prompt], seed=seed)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(
        self, trace: Trace, until: Optional[float] = None
    ) -> ClusterReport:
        """Serve ``trace`` across the fleet; returns the cluster report."""
        loop = EventLoop()
        self.loop = loop
        self.request_store = RequestStore()
        self.records = []
        self.routed_counts = [0] * len(self.replicas)
        self.transfers = []
        self._failures = []
        self.journal = (
            EventJournal()
            if (
                self.routing.failures is not None
                or self.routing.journal
            )
            else None
        )
        self.snapshots = []
        self._failure_schedule = {}
        self._probe_schedule = {}
        self._next_snapshot_s = -1.0
        self.router.reset()
        # Rebuild the autoscaler so a second run starts from the
        # configured split, not the previous run's PID state.
        self._make_autoscaler()
        fleet = _FleetState(len(trace), self.replicas)
        self._fleet_state = fleet
        for replica in self.replicas:
            replica._reset_runtime()
            replica.loop = loop
            replica._fleet = fleet
        self._offset_worker_ids()

        # Same cohorting as BaseServingSystem.run: the fleet's records
        # live in one cluster-owned columnar store (replicas hold view
        # handles), and same-tick arrivals route and decide as one group
        # fired from the loop's timeline lane.
        records = self.request_store.extend(list(trace))
        self.records = records
        self._install_trace_timeline(records)
        for replica in self.replicas:
            replica._on_run_start()
        if self.routing.failures is not None:
            # One heap entry per distinct plan time, carrying a bound
            # method instead of per-event closures — fleet snapshots
            # capture it by kind and re-bind on restore.
            for index, event in enumerate(
                self.routing.failures.events
            ):
                self._failure_schedule.setdefault(
                    event.time_s, []
                ).append(index)
            for time_s in sorted(self._failure_schedule):
                loop.schedule(time_s, self._failure_tick)
        if self._autoscaler is not None:
            loop.schedule_in(
                self.routing.autoscale_period_s, self._autoscale_tick
            )
        if (
            self.journal is not None
            and self.routing.snapshot_period_s > 0.0
        ):
            self._schedule_cluster_snapshot()
        loop.run(until=until)
        return self._build_report(trace)

    def resume(
        self, trace: Trace, until: Optional[float] = None
    ) -> ClusterReport:
        """Finish a restored run (see :class:`ClusterSnapshot`).

        ``trace`` supplies only the report's trace name — the restored
        store already holds every request row, so a
        ``journal._TraceStub`` works as well as the original trace.
        """
        self.loop.run(until=until)
        return self._build_report(trace)

    def _install_trace_timeline(
        self, records: Sequence[RequestRecord]
    ) -> None:
        """Cohort the store's arrivals onto the shared timeline lane.

        ``records`` must be the fleet store's full row list (both
        callers — ``run`` and ``ClusterSnapshot.restore`` — pass it).
        """
        install_arrival_cohorts(
            self.loop, self.request_store, records, self._arrive_cohort
        )

    def _arrive_cohort(
        self, records: Sequence[RequestRecord], now: float
    ) -> None:
        """Deliver one trace arrival cohort, journaling it first.

        ARRIVAL rows make the cluster journal a sufficient record for
        journal-suffix replay (:class:`repro.core.journal
        .JournalReplayer`); orphan re-routes call
        :meth:`_arrive_batch` directly, so replay can tell trace
        cohorts from failure-induced re-routes.
        """
        if self.journal is not None and records:
            self.journal.append(
                now, ARRIVAL, a=records[0].request_id, b=len(records)
            )
        self._arrive_batch(records, now)

    def _arrive_batch(
        self, records: Sequence[RequestRecord], now: float
    ) -> None:
        replicas = self.replicas
        alive = [
            i for i, replica in enumerate(replicas) if not replica._dead
        ]
        if not alive:
            raise RuntimeError(
                "no live replicas to route to; the failure plan killed "
                "the whole fleet"
            )
        if len(alive) == len(replicas):
            indices = self.router.route_batch(records, replicas)
        else:
            # Route over the live sublist, then map back to fleet
            # indices — policies see only live loads/centroids, and the
            # lowest-index tie-break stays deterministic.
            sub = self.router.route_batch(
                records, [replicas[i] for i in alive]
            )
            indices = [alive[j] for j in sub]
        if self.journal is not None and records:
            self.journal.append(
                now, ROUTE, a=records[0].request_id, b=len(records)
            )
        groups: Dict[int, List[RequestRecord]] = {}
        for record, idx in zip(records, indices):
            record.replica_id = idx
            self.routed_counts[idx] += 1
            groups.setdefault(idx, []).append(record)
        for idx in sorted(groups):
            replica = self.replicas[idx]
            group = groups[idx]
            replica._n_expected += len(group)
            replica.records.extend(group)
            replica._handle_arrivals(group, now)
            replica._dispatch(now)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def _failure_tick(self, now: float) -> None:
        """Fire every failure-plan event scheduled for this instant.

        Same-instant events dispatch in plan order, exactly as the
        per-event heap entries they replace did.
        """
        events = self.routing.failures.events
        for index in self._failure_schedule.pop(now, []):
            event = events[index]
            if event.action == "kill":
                self._fail_kill(event.replica, now)
            else:
                self._fail_restart(event, now)

    def _fate_shared(self, idx: int) -> List[int]:
        """``idx`` plus every replica fate-sharing a group with it.

        Deterministic order: the seed replica first, then group members
        lowest index first, breadth-first across transitively linked
        groups (a replica in two racks takes both down).
        """
        plan = self.routing.failures
        doomed: List[int] = []
        frontier = [idx]
        while frontier:
            victim = frontier.pop(0)
            if victim in doomed:
                continue
            doomed.append(victim)
            for group in plan.fate_groups:
                if victim in group:
                    frontier.extend(sorted(group))
        return doomed

    def _fail_kill(self, idx: int, now: float) -> None:
        """Kill replica ``idx`` and everything fate-shared with it.

        Three phases, so correlated kills interact sensibly: every
        doomed replica halts first (orphans keep their original
        ``arrival_s`` — re-routing hides no recovery cost), then each
        dead replica's last cache snapshot migrates to the replicas
        that actually survived the whole group, then all orphans
        re-route in one batch over those survivors.
        """
        doomed = self._fate_shared(idx)
        window = self.routing.failures.recovery_window_s
        killed: List[FailureRecord] = []
        orphans: List[RequestRecord] = []
        for victim in doomed:
            replica = self.replicas[victim]
            if replica._dead:
                continue
            hit_before = replica.stats.window(now, window).hit_rate
            victim_orphans = replica._halt(now)
            record = FailureRecord(
                time_s=now,
                replica=victim,
                n_rerouted=len(victim_orphans),
                hit_rate_before=hit_before,
            )
            self._failures.append(record)
            if self.journal is not None:
                self.journal.append(
                    now, KILL, a=victim, b=len(victim_orphans)
                )
            killed.append(record)
            orphans.extend(victim_orphans)
        if self.routing.migration_policy != "none":
            for record in killed:
                record.n_migrated = self._migrate_cache(
                    record.replica, now
                )
        if orphans:
            self._arrive_batch(orphans, now)

    def _migrate_cache(self, dead_idx: int, now: float) -> int:
        """Survivors adopt the dead replica's last cache snapshot.

        Entries come out of the snapshot in ascending-id order
        (``cache.snapshot_entries``), the configured
        :data:`MIGRATION_POLICY_REGISTRY` policy assigns each one a
        surviving replica, and adoption re-inserts them, passing the
        original ``inserted_at`` as the insert time.  That value is
        only recorded: no eviction policy or staleness check reads
        ``inserted_at``, so each adopted entry is a fresh insert to the
        survivor — under FIFO the adopted entries become its newest, in
        ascending original-id order.  One MIGRATE row per adopting
        survivor journals the transfer.  Returns the number of entries
        migrated.
        """
        replica = self.replicas[dead_idx]
        cache = getattr(replica, "cache", None)
        snaps = getattr(replica, "_cache_snapshots", None)
        if cache is None or not snaps:
            return 0
        entries = cache.snapshot_entries(snaps[-1][1])
        if not entries:
            return 0
        survivors = [
            i
            for i, r in enumerate(self.replicas)
            if not r._dead and getattr(r, "cache", None) is not None
        ]
        if not survivors:
            return 0
        assignment = MIGRATION_POLICY_REGISTRY[
            self.routing.migration_policy
        ](entries, survivors, self.replicas)
        counts = {i: 0 for i in survivors}
        for (_entry_id, payload, embedding, inserted_at), dst in zip(
            entries, assignment
        ):
            self.replicas[dst].cache.insert(
                payload, embedding, inserted_at
            )
            counts[dst] += 1
        migrated = 0
        for dst in survivors:
            if counts[dst]:
                migrated += counts[dst]
                if self.journal is not None:
                    self.journal.append(
                        now,
                        MIGRATE,
                        a=dst,
                        b=counts[dst],
                        x=float(dead_idx),
                    )
        return migrated

    def _fail_restart(self, event, now: float) -> None:
        """Restart replica ``event.replica``, warm when a snapshot exists.

        Warm restarts restore the last pre-kill cache snapshot (replicas
        with ``MoDMConfig.journal`` set capture them periodically); with
        no snapshot available the restart falls back to cold — an empty
        cache that must re-learn its semantic neighborhood.  Tiered
        caches make the warm path cheap at scale: their snapshots are
        block-free and hot-free, and ``cache.restore`` rebuilds both
        tiers by streaming the replica's cold-row file once.
        """
        idx = event.replica
        replica = self.replicas[idx]
        if not replica._dead:
            return
        cache_state = None
        if event.warm:
            snaps = getattr(replica, "_cache_snapshots", None)
            if snaps:
                cache_state = snaps[-1][1]
        replica._restart(now, cache_state)
        rec_index = -1
        for i in range(len(self._failures) - 1, -1, -1):
            rec = self._failures[i]
            if rec.replica == idx and rec.restart_time_s is None:
                rec_index = i
                break
        if rec_index >= 0:
            record = self._failures[rec_index]
            record.restart_time_s = now
            record.warm = cache_state is not None
        if self.journal is not None:
            self.journal.append(
                now,
                RESTART,
                a=idx,
                b=1 if cache_state is not None else 0,
            )
        if rec_index >= 0:
            # Measure the recovered hit rate one window out, through a
            # bound method keyed by fire time so pending probes survive
            # a fleet snapshot/restore.
            when = now + self.routing.failures.recovery_window_s
            bucket = self._probe_schedule.get(when)
            if bucket is None:
                self._probe_schedule[when] = bucket = []
                self.loop.schedule(when, self._probe_tick)
            bucket.append(rec_index)
        replica._dispatch(now)

    def _probe_tick(self, now: float) -> None:
        """Record post-restart hit rates scheduled for this instant."""
        window = self.routing.failures.recovery_window_s
        for index in self._probe_schedule.pop(now, []):
            rec = self._failures[index]
            rec.hit_rate_after = self.replicas[
                rec.replica
            ].stats.window(now, window).hit_rate

    # ------------------------------------------------------------------
    # Fleet snapshots
    # ------------------------------------------------------------------
    def _schedule_cluster_snapshot(self) -> None:
        when = self.loop.now + self.routing.snapshot_period_s
        self._next_snapshot_s = when
        self.loop.schedule(when, self._cluster_snapshot_tick)

    def _cluster_snapshot_tick(self, now: float) -> None:
        if now != self._next_snapshot_s:
            return  # superseded by a restore since scheduling
        if self.journal is None or (
            self._fleet_state is not None
            and self._fleet_state.all_done
        ):
            return
        # Journal the marker and schedule the successor *before* the
        # capture so the snapshot itself carries both — a restored
        # fleet keeps snapshotting on the same cadence.
        self.journal.append(
            now,
            SNAPSHOT,
            a=sum(r._n_completed for r in self.replicas),
            b=sum(r._n_shed for r in self.replicas),
        )
        self._schedule_cluster_snapshot()
        self.snapshots.append(ClusterSnapshot.capture(self))

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------
    def _autoscale_tick(self, now: float) -> None:
        assert self._autoscaler is not None
        if self._fleet_state is not None and self._fleet_state.all_done:
            return
        targets = self._autoscaler.desired(self.replicas, now)
        self._apply_targets(targets, now)
        self.loop.schedule_in(
            self.routing.autoscale_period_s, self._autoscale_tick
        )

    def _apply_targets(
        self, targets: Sequence[int], now: float
    ) -> None:
        """Move idle workers from over- to under-allocated replicas.

        Busy workers never move: a donor short on idle workers
        contributes what it can and the remainder carries to the next
        period (the PID state keeps pulling toward the target).
        """
        counts = [len(r.workers) for r in self.replicas]
        deficits = [
            i
            for i in range(len(self.replicas))
            if targets[i] > counts[i]
        ]
        touched: set = set()
        for dst in deficits:
            needed = targets[dst] - counts[dst]
            for src in range(len(self.replicas)):
                if needed <= 0:
                    break
                surplus = counts[src] - targets[src]
                if surplus <= 0:
                    continue
                # Highest-id idle workers move; low ids stay home.
                idle = self.replicas[src].idle_worker_ids()
                movable = idle[::-1][:min(surplus, needed)]
                for worker_id in movable:
                    worker = self.replicas[src].release_worker(
                        worker_id
                    )
                    self.replicas[dst].adopt_worker(worker, now)
                    counts[src] -= 1
                    counts[dst] += 1
                    needed -= 1
                    self.transfers.append(
                        TransferEvent(
                            time_s=now,
                            worker_id=worker_id,
                            src_replica=src,
                            dst_replica=dst,
                        )
                    )
                    if self.journal is not None:
                        self.journal.append(
                            now,
                            TRANSFER,
                            a=worker_id,
                            b=dst,
                            x=float(src),
                        )
                if movable:
                    touched.add(dst)
        for dst in sorted(touched):
            self.replicas[dst]._dispatch(now)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _offset_worker_ids(self) -> None:
        offset = 0
        for replica in self.replicas:
            if offset:
                for worker in replica.workers:
                    worker.worker_id += offset
                replica._workers_by_id = {
                    w.worker_id: w for w in replica.workers
                }
                replica._idle_workers = set(replica._workers_by_id)
            offset += len(replica.workers)

    def _build_report(self, trace: Trace) -> ClusterReport:
        """Assemble per-replica and fleet reports.

        Per-replica energy attributes each worker's whole-run energy to
        the replica holding it at the end of the run — after autoscaler
        transfers a moved worker's history moves with it, so per-replica
        energy splits are approximate whenever ``transfers`` is
        non-empty.  The fleet energy total is exact regardless.
        """
        comp = self.request_store.column("completion_s")
        finished = comp[comp == comp]
        makespan = (
            float(finished.max()) if finished.size else self.loop.now
        )
        meter = EnergyMeter()
        per_replica: List[ServingReport] = []
        for replica in self.replicas:
            report = replica._build_report(
                trace, meter.measure(replica.workers, makespan)
            )
            per_replica.append(report)
        all_workers = [w for r in self.replicas for w in r.workers]
        fleet = ServingReport(
            system=self.name,
            trace_name=trace.name,
            records=self.records,
            energy=meter.measure(all_workers, makespan),
            workers=all_workers,
            stats=StatsCollector.merged(
                [r.stats for r in self.replicas]
            ),
            # Each replica's log is already time-ordered, so the stable
            # sort of their concatenation merges those runs and keeps
            # ties in replica order.
            allocations=sorted(
                [e for report in per_replica for e in report.allocations],
                key=attrgetter("time_s"),
            ),
            cache_size=sum(r.cache_size for r in per_replica),
            cache_storage_bytes=sum(
                r.cache_storage_bytes for r in per_replica
            ),
        )
        n_lost = 0
        n_rerouted = 0
        if self._failures:
            shed = self.request_store.column("shed")
            n_lost = (
                len(self.records)
                - int(np.count_nonzero(comp == comp))
                - int(np.count_nonzero(shed))
            )
            n_rerouted = sum(rec.n_rerouted for rec in self._failures)
            replica_col = self.request_store.column("replica_id")
            for rec in self._failures:
                if rec.restart_time_s is None:
                    continue
                mask = (
                    (replica_col == rec.replica)
                    & (comp == comp)
                    & (comp >= rec.restart_time_s)
                )
                if mask.any():
                    rec.recovery_latency_s = (
                        float(comp[mask].min()) - rec.time_s
                    )
        return ClusterReport(
            policy=self.routing.policy,
            fleet=fleet,
            replicas=per_replica,
            routed=list(self.routed_counts),
            transfers=list(self.transfers),
            failures=list(self._failures),
            n_rerouted=n_rerouted,
            n_lost=n_lost,
        )


# ----------------------------------------------------------------------
# Fleet snapshots
# ----------------------------------------------------------------------
# Cluster-owned pending heap events by bound-method name, mirroring
# journal._HEAP_KINDS for the replica-owned ones: snapshots store
# (time, owner, kind) and restore re-binds against the fresh fleet.
_CLUSTER_HEAP_KINDS: Dict[str, str] = {
    "_autoscale_tick": "autoscale",
    "_failure_tick": "failure",
    "_probe_tick": "probe",
    "_cluster_snapshot_tick": "snapshot",
}


def _cluster_fingerprint(cluster: "ClusterServingSystem") -> str:
    """Configuration identity a fleet snapshot refuses to cross.

    The frozen routing config's repr pins every cluster knob (policy,
    failure plan, migration policy, snapshot cadence) and each replica
    contributes its own configured fingerprint, so a snapshot only
    restores into a fleet built exactly like the one that captured it.
    """
    parts = [
        type(cluster).__name__,
        cluster.name,
        repr(cluster.routing),
    ]
    parts.extend(
        _replica_fingerprint(replica) for replica in cluster.replicas
    )
    return "|".join(parts)


def _classify_cluster_heap(
    cluster: "ClusterServingSystem",
) -> List[Tuple[float, int, str]]:
    """Pending heap events as ``(time, owner, kind)`` rows.

    ``owner`` is the fleet index of the replica whose bound method is
    pending, or ``-1`` for cluster-owned machinery.  Owners resolve by
    identity scan over the replica list, and rows keep the heap's
    firing order — re-pushing them in sequence with fresh sequence
    numbers reproduces it exactly.
    """
    entries: List[Tuple[float, int, str]] = []
    for time, _seq, callback in cluster.loop.heap_entries():
        func = getattr(callback, "__func__", None)
        owner = getattr(callback, "__self__", None)
        name = getattr(func, "__name__", "")
        if owner is cluster and name in _CLUSTER_HEAP_KINDS:
            entries.append((time, -1, _CLUSTER_HEAP_KINDS[name]))
            continue
        kind = _HEAP_KINDS.get(name)
        owner_idx = -1
        if kind is not None:
            for i, replica in enumerate(cluster.replicas):
                if owner is replica:
                    owner_idx = i
                    break
        if kind is None or owner_idx < 0:
            raise ValueError(
                "cannot snapshot fleet: pending event "
                f"{callback!r} at t={time:.6f} is not a recognised "
                "cluster or replica event"
            )
        entries.append((time, owner_idx, kind))
    return entries


@dataclass
class ClusterSnapshot:
    """Full state of a running fleet at one instant.

    The cluster-level analogue of :class:`repro.core.journal.Snapshot`:
    captures the shared clock/timeline cursor and heap, the fleet
    store, router policy state, autoscaler PID state, the failure and
    probe schedules, the cluster journal, and a
    :class:`~repro.core.journal.ReplicaState` per replica.  ``restore``
    rebuilds a freshly constructed, identically configured fleet into
    this exact state so ``resume()`` continues bit-identically; with
    ``install_timeline=False`` the remaining arrivals are left out and
    a :class:`~repro.core.journal.JournalReplayer` drives the run
    forward from the journal suffix instead.
    """

    time_s: float
    fingerprint: str
    tl_idx: int
    has_timeline: bool
    heap: List[Tuple[float, int, str]]
    store: RequestStore
    expected: int
    routed_counts: List[int]
    transfers: List[TransferEvent]
    failures: List[FailureRecord]
    failure_schedule: Dict[float, List[int]]
    probe_schedule: Dict[float, List[int]]
    policy_state: object
    autoscaler_state: Optional[Dict[str, Any]]
    journal: EventJournal
    next_snapshot_s: float
    replica_states: List[ReplicaState]

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls, cluster: "ClusterServingSystem"
    ) -> "ClusterSnapshot":
        loop = cluster.loop
        return cls(
            time_s=loop.now,
            fingerprint=_cluster_fingerprint(cluster),
            tl_idx=loop.timeline_index,
            has_timeline=loop._tl_times is not None,
            heap=_classify_cluster_heap(cluster),
            store=_copy_store(cluster.request_store),
            expected=(
                cluster._fleet_state.expected
                if cluster._fleet_state is not None
                else 0
            ),
            routed_counts=list(cluster.routed_counts),
            transfers=list(cluster.transfers),
            failures=[replace(rec) for rec in cluster._failures],
            failure_schedule={
                t: list(v)
                for t, v in sorted(cluster._failure_schedule.items())
            },
            probe_schedule={
                t: list(v)
                for t, v in sorted(cluster._probe_schedule.items())
            },
            policy_state=cluster.router.policy.snapshot_state(),
            autoscaler_state=(
                cluster._autoscaler.snapshot_state()
                if cluster._autoscaler is not None
                else None
            ),
            journal=_journal_prefix(cluster.journal),
            next_snapshot_s=cluster._next_snapshot_s,
            replica_states=[
                ReplicaState.capture(replica)
                for replica in cluster.replicas
            ],
        )

    @property
    def journal_digest(self) -> str:
        """sha256 of the captured fleet journal rows."""
        return self.journal.digest()

    # ------------------------------------------------------------------
    def restore(
        self,
        cluster: "ClusterServingSystem",
        install_timeline: bool = True,
    ) -> None:
        """Rebuild ``cluster`` into this snapshot's state.

        ``cluster`` must be freshly constructed with the same
        configuration (enforced via the fingerprint).  With
        ``install_timeline=False`` the clock jumps to the snapshot
        instant with no future arrivals scheduled — journal-suffix
        replay then re-injects them from ARRIVAL rows.

        Raises :class:`~repro.core.tiering.ColdExtentError`, before any
        state is installed, when a replica's tiered cache state (live
        or kept for a warm restart) needs more cold rows than that
        replica's cold file holds — e.g. a fresh fleet with
        ``cold_dir=None``.
        """
        fp = _cluster_fingerprint(cluster)
        if fp != self.fingerprint:
            raise ValueError(
                "fleet snapshot/configuration mismatch:\n"
                f"  snapshot: {self.fingerprint}\n"
                f"  cluster:  {fp}"
            )
        for replica, state in zip(cluster.replicas, self.replica_states):
            check_cold_extents(
                getattr(replica, "cache", None),
                [state.cache_state]
                + [snap for _, snap in state.cache_snapshots],
            )
        loop = EventLoop()
        cluster.loop = loop
        store = _copy_store(self.store)
        cluster.request_store = store
        cluster.records = [
            RequestRecord._view(store, i) for i in range(len(store))
        ]
        cluster.routed_counts = list(self.routed_counts)
        cluster.transfers = list(self.transfers)
        cluster._failures = [replace(rec) for rec in self.failures]
        cluster._failure_schedule = {
            t: list(v) for t, v in self.failure_schedule.items()
        }
        cluster._probe_schedule = {
            t: list(v) for t, v in self.probe_schedule.items()
        }
        cluster.router.reset()
        cluster.router.policy.restore_state(self.policy_state)
        cluster._make_autoscaler()
        if self.autoscaler_state is not None:
            if cluster._autoscaler is None:
                raise ValueError(
                    "snapshot carries autoscaler state but the fleet "
                    "has no autoscaler"
                )
            cluster._autoscaler.restore_state(self.autoscaler_state)
        cluster.journal = (
            self.journal.prefix()
            if (
                cluster.routing.failures is not None
                or cluster.routing.journal
            )
            else None
        )
        cluster._next_snapshot_s = self.next_snapshot_s
        cluster.snapshots = []
        fleet = _FleetState(self.expected, cluster.replicas)
        cluster._fleet_state = fleet
        # Replica worker ids come back from the state tuples already
        # fleet-offset (and possibly autoscaler-moved), so restore never
        # calls _offset_worker_ids.
        for replica, state in zip(
            cluster.replicas, self.replica_states
        ):
            replica._reset_runtime()
            replica.loop = loop
            replica._fleet = fleet
            state.restore(replica, store)
        # Reinstall the arrival timeline while the fresh clock is still
        # at zero, then jump clock and cursor to the snapshot instant.
        if install_timeline and self.has_timeline and cluster.records:
            cluster._install_trace_timeline(cluster.records)
            loop.restore_clock(self.time_s, self.tl_idx)
        else:
            loop.restore_clock(self.time_s, 0)
        replica_handlers = {
            kind: name for name, kind in _HEAP_KINDS.items()
        }
        cluster_handlers = {
            kind: name for name, kind in _CLUSTER_HEAP_KINDS.items()
        }
        for time, owner_idx, kind in self.heap:
            if owner_idx < 0:
                handler = getattr(cluster, cluster_handlers[kind])
            else:
                handler = getattr(
                    cluster.replicas[owner_idx],
                    replica_handlers[kind],
                )
            loop.schedule(time, handler)


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def split_evenly(total: int, n: int) -> List[int]:
    """Partition ``total`` into ``n`` near-equal parts, largest first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base, extra = divmod(total, n)
    return [base + (1 if i < extra else 0) for i in range(n)]


def modm_cluster(
    space: SemanticSpace,
    config: MoDMConfig,
    routing: ClusterRoutingConfig,
    name: Optional[str] = None,
) -> ClusterServingSystem:
    """MoDM fleet at fixed total resources.

    The base config's worker pool and cache capacity are split evenly
    across replicas, so policy and replica-count comparisons hold total
    hardware and cache budget constant.  With ``n_replicas=1`` the
    replica config equals ``config`` and behavior is bit-for-bit the
    single engine's.
    """
    n = routing.n_replicas
    workers = split_evenly(config.cluster.n_workers, n)
    capacities = split_evenly(config.cache_capacity, n)
    if workers[-1] < 1:
        raise ValueError(
            f"{config.cluster.n_workers} workers cannot cover "
            f"{n} replicas"
        )
    if capacities[-1] < 1:
        raise ValueError(
            f"cache_capacity={config.cache_capacity} cannot cover "
            f"{n} replicas"
        )

    def factory(i: int) -> MoDMSystem:
        tiering = config.cache_tiering
        if tiering is not None and tiering.cold_dir is not None:
            # Each replica owns a private cold-row file: siblings
            # sharing one directory would interleave appends and
            # corrupt each other's block-free snapshots.
            tiering = replace(
                tiering,
                cold_dir=os.path.join(
                    tiering.cold_dir, f"replica-{i}"
                ),
            )
        return MoDMSystem(
            space,
            replace(
                config,
                cluster=replace(
                    config.cluster, n_workers=workers[i]
                ),
                cache_capacity=capacities[i],
                cache_tiering=tiering,
            ),
        )

    embedder: Optional[QueryEmbedder] = None
    batch_embedder = None
    if ROUTING_POLICY_REGISTRY[routing.policy].needs_query:
        retrieval = (
            TextToImageRetrieval(space)
            if config.retrieval == "text-to-image"
            else TextToTextRetrieval(space)
        )
        embedder = retrieval.query_embedding
        batch_embedder = retrieval.query_embeddings
    return ClusterServingSystem(
        space,
        factory,
        routing,
        query_embedder=embedder,
        query_batch_embedder=batch_embedder,
        name=name,
    )


# The config-side name list and the registry must agree; checked at
# import so a policy added to one place cannot silently miss the other.
assert set(ROUTING_POLICY_REGISTRY) == set(ROUTING_POLICIES), (
    "routing policy registry out of sync with config.ROUTING_POLICIES"
)
