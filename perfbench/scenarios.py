"""The benchmark's workloads, built only from the public ``repro`` API.

Every workload serves a DiffusionDB-like trace (``diffusiondb_trace``):
the first ``n_warm`` prompts warm the cache, the next ``n_serve``
requests are served as an open loop in simulated time, replayed offline
by one thread.  16 MI210 workers, cache capacity 2,000 and the small
model ``sdxl`` are shared by all three:

* ``engine-exact`` -- one ``MoDMSystem``, exact retrieval, every image
  admitted, the trace's native 10 req/min;
* ``fleet-affinity-faults`` -- a 4-replica ``cache_affinity`` fleet
  with autoscaling, journal and periodic fleet snapshots, large-model-
  only admission, a fate-grouped kill of replicas 1 and 2 at 0.35 of
  the span with ``nearest_centroid`` migration and cold restarts at
  0.5, under Poisson arrivals at ``FLEET_RATE_RPM``;
* ``engine-tiered`` -- ``engine-exact`` with the IVF backend and the
  default tiered cache.

The serving phase runs in slices fixed in simulated time
(:func:`slice_bounds`) through the public ``run(trace, until=)`` /
``resume(trace, until=)``; ``guard.py`` checks that slicing changes no
outcome.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.cluster.arrivals import poisson_arrivals
from repro.core.cluster_router import ClusterReport, modm_cluster
from repro.core.config import (
    CacheAdmission,
    ClusterConfig,
    ClusterRoutingConfig,
    FailureEvent,
    FailurePlan,
    JournalConfig,
    MoDMConfig,
)
from repro.core.serving import MoDMSystem, ServingReport
from repro.core.tiering import TieredCacheConfig
from repro.diffusion.registry import get_model
from repro.embedding.space import SemanticSpace
from repro.metrics.clipscore import ClipScoreMetric
from repro.workloads import DiffusionDBConfig, diffusiondb_trace
from repro.workloads.trace import Trace

#: Poisson rate of the fleet workload: high enough that some requests
#: miss the 2x SLO (attainment ~0.998), low enough that the fleet drains
#: without a growing backlog.  At 20 req/min the p99.9 latency already
#: swung by a quarter between seeds; at 14 p99.5 repeats within ~5%.
FLEET_RATE_RPM = 14.0

#: The SLO limit is this multiple of the large model's solo service time.
SLO_MULTIPLIER = 2.0


@dataclass(frozen=True)
class Sizes:
    """How much one run serves, and in how many slices."""

    n_warm: int = 2_000
    n_serve: int = 10_000
    n_slices: int = 100


FULL = Sizes()


def make_trace(
    space: SemanticSpace, workload: str, seed: int, sizes: Sizes = FULL
) -> Tuple[List, Trace]:
    """``(warm prompts, serve trace)`` for ``workload`` and ``seed``."""
    trace = diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=sizes.n_warm + sizes.n_serve,
            seed=f"perfbench-{seed}",
        ),
    )
    warm = [r.prompt for r in trace.requests[: sizes.n_warm]]
    serve = trace.slice(sizes.n_warm, sizes.n_warm + sizes.n_serve).rebase()
    if workload == "fleet-affinity-faults":
        serve = serve.with_arrivals(
            poisson_arrivals(
                FLEET_RATE_RPM, len(serve), seed=f"perfbench-fleet-{seed}"
            )
        )
    return warm, serve


def _span(trace: Trace) -> float:
    return trace.requests[-1].arrival_s - trace.requests[0].arrival_s


def make_system(space: SemanticSpace, workload: str, serve: Trace):
    """A freshly built serving system for ``workload``."""
    base = MoDMConfig(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=16),
        cache_capacity=2_000,
        small_models=("sdxl",),
    )
    if workload == "engine-exact":
        return MoDMSystem(space, base)
    if workload == "engine-tiered":
        return MoDMSystem(
            space,
            replace(
                base,
                retrieval_backend="ivf",
                cache_tiering=TieredCacheConfig(),
            ),
        )
    if workload == "fleet-affinity-faults":
        span = _span(serve)
        kill_t, restart_t = 0.35 * span, 0.5 * span
        plan = FailurePlan(
            events=(
                FailureEvent(time_s=kill_t, replica=1, action="kill"),
                FailureEvent(
                    time_s=restart_t, replica=1, action="restart", warm=False
                ),
                FailureEvent(
                    time_s=restart_t, replica=2, action="restart", warm=False
                ),
            ),
            recovery_window_s=max(60.0, 0.1 * span),
            fate_groups=((1, 2),),
        )
        routing = ClusterRoutingConfig(
            n_replicas=4,
            policy="cache_affinity",
            autoscale=True,
            failures=plan,
            migration_policy="nearest_centroid",
            journal=True,
            snapshot_period_s=span / 8,
        )
        config = replace(
            base,
            cache_admission=CacheAdmission.LARGE_ONLY,
            journal=JournalConfig(snapshot_period_s=span / 8),
        )
        return modm_cluster(space, config, routing)
    raise ValueError(f"unknown workload {workload!r}")


def slice_bounds(serve: Trace, n_slices: int) -> List[float]:
    """Simulated-time horizons of the first ``n_slices - 1`` slices.

    Fixed fractions of the trace span, so every commit slices a given
    trace identically; the last slice drains the run to completion.
    """
    span = _span(serve)
    start = serve.requests[0].arrival_s
    return [start + span * i / n_slices for i in range(1, n_slices)]


def serve_sliced(
    system,
    serve: Trace,
    n_slices: int,
    measure: Callable[[Callable], object],
):
    """Serve ``serve`` in slices; ``measure(call)`` runs each slice.

    Returns the final report.  ``measure`` receives a zero-argument
    callable and must return its result (the calibrated meter wraps it).
    """
    bounds = slice_bounds(serve, n_slices)
    measure(lambda: system.run(serve, until=bounds[0]))
    for bound in bounds[1:]:
        measure(lambda bound=bound: system.resume(serve, until=bound))
    return measure(lambda: system.resume(serve))


def caches(system) -> list:
    """The cache object(s) of a single engine or of every replica."""
    if isinstance(system, MoDMSystem):
        return [system.cache]
    return [replica.cache for replica in system.replicas]


def fleet_report(report) -> ServingReport:
    return report.fleet if isinstance(report, ClusterReport) else report


def signature(report) -> List[tuple]:
    """Per-request outcome: everything slicing or tracing must not move."""
    out = []
    for r in fleet_report(report).records:
        d = r.decision
        out.append(
            (
                r.request_id,
                None if d is None else d.hit,
                None if d is None else d.k_steps,
                None if d is None else d.similarity,
                r.completion_s,
                r.replica_id,
            )
        )
    return out


def behaviour_digest(system, report) -> str:
    """sha256 over :func:`signature` and the fleet journal digest."""
    h = hashlib.sha256(repr(signature(report)).encode())
    h.update(journal_digest(system).encode())
    return h.hexdigest()


def quantile(values: np.ndarray, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of the order statistics.
    Simulated latencies sit on a few discrete service-time levels, so a
    plain order statistic jumps by a whole level when the seed moves the
    CDF slightly; this estimate moves smoothly while ``q`` falls inside
    one level's mass.  It cannot bridge two far-apart levels whose
    shares meet near ``q``, which is why the benchmark reports no median
    latency (see ``README.md``).  Weights use the midpoint rule on each
    rank interval, which is exact enough at n = 10,000.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    mid = (np.arange(n) + 0.5) / n
    log_w = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    w = np.exp(log_w - log_w.max())
    return float(w @ x / w.sum())


def slo_limit_s() -> float:
    """2x the large model's solo full-generation time on an MI210."""
    large = get_model("sd3.5-large")
    return SLO_MULTIPLIER * large.service_time_s("MI210", large.total_steps)


def outcome(
    space: SemanticSpace, report, n_attempted: int
) -> Tuple[dict, dict]:
    """``(end-to-end simulated metrics, conservation counts)``.

    Raises ``ValueError`` when a request was lost or the counts do not
    add up, so a broken run never reports metrics.
    """
    fleet = fleet_report(report)
    completed = fleet.n_completed
    shed = fleet.n_shed
    lost = (
        report.n_lost
        if isinstance(report, ClusterReport)
        else n_attempted - completed - shed
    )
    if lost != 0 or completed + shed != n_attempted:
        raise ValueError(
            f"conservation broken: attempted={n_attempted} "
            f"completed={completed} shed={shed} lost={lost}"
        )
    lat = fleet.latencies()
    served_hits = sum(
        1
        for r in fleet.records
        if r.completed
        and r.decision is not None
        and r.decision.hit
    )
    metrics = {
        "sim_latency_mean_s": float(lat.mean()),
        "sim_latency_p99_s": quantile(lat, 0.99),
        "sim_latency_p995_s": quantile(lat, 0.995),
        "slo2x_attainment": float(
            np.count_nonzero(lat <= slo_limit_s()) / n_attempted
        ),
        "hit_rate": served_hits / n_attempted,
        "clip_score": ClipScoreMetric(space).mean_score(fleet.images()),
        "completion_rate": completed / n_attempted,
    }
    counts = {"attempted": n_attempted, "completed": completed, "shed": shed}
    return metrics, counts


def monitor_view(report) -> dict:
    """Queueing figures of the simulated run (per-layer, deterministic)."""
    records = fleet_report(report).records
    waits = np.array(
        [r.service_start_s - r.enqueued_s for r in records
         if r.service_start_s is not None and r.enqueued_s is not None]
    )
    sched = np.array(
        [r.enqueued_s - r.arrival_s for r in records
         if r.enqueued_s is not None]
    )
    workers = fleet_report(report).workers
    return {
        "queue_wait_p50_s": quantile(waits, 0.5),
        "queue_wait_p99_s": quantile(waits, 0.99),
        "sched_latency_p50_s": quantile(sched, 0.5),
        "model_switches": int(sum(w.switches for w in workers)),
    }


def fleet_view(system, report) -> dict:
    """Router, journal and failure figures (zeros on a single engine)."""
    if not isinstance(report, ClusterReport):
        return {
            "journal_rows": 0,
            "routed_imbalance": 1.0,
            "rerouted": 0,
            "migrated": 0,
            "transfers": 0,
        }
    journals: Sequence = [system.journal] + [
        getattr(r, "_journal", None) for r in system.replicas
    ]
    routed = report.routed
    return {
        "journal_rows": sum(len(j) for j in journals if j is not None),
        "routed_imbalance": max(routed) / max(1, min(routed)),
        "rerouted": report.n_rerouted,
        "migrated": sum(f.n_migrated for f in report.failures),
        "transfers": len(report.transfers),
    }


def journal_digest(system) -> str:
    """Digest of the fleet journal ('' on a single engine)."""
    journal = getattr(system, "journal", None)
    return journal.digest() if journal is not None else ""
