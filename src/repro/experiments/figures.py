"""Reproductions of every figure in the paper's evaluation.

Each function takes an :class:`ExperimentContext` and returns an
:class:`ExperimentResult` whose rows are the figure's plotted series (or
bar heights).  Benchmarks print ``result.render()``; EXPERIMENTS.md records
paper-vs-measured values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.arrivals import (
    RateSchedule,
    poisson_arrivals,
    schedule_arrivals,
)
from repro.core.config import (
    CacheAdmission,
    ClusterConfig,
    ClusterRoutingConfig,
    FailureEvent,
    FailurePlan,
    JournalConfig,
    ROUTING_POLICIES,
    SLOClass,
    SLOPolicy,
)
from repro.core.kselection import (
    DEFAULT_K_SET,
    derive_thresholds,
    modm_default_selector,
)
from repro.core.serving import ServingReport
from repro.diffusion.registry import get_model
from repro.experiments.harness import (
    CLUSTER_A40,
    CLUSTER_MI210,
    CacheOnlyRun,
    ExperimentContext,
)
from repro.experiments.reporting import ExperimentResult
from repro.metrics import slo_violation_rate
from repro.metrics.latency import offered_vs_served, percentile
from repro.workloads.prompts import Prompt
from repro.workloads.trace import Trace


def _scale_note(ctx: ExperimentContext) -> str:
    return (
        f"scale={ctx.scale.name}: warm={ctx.scale.warm_prompts}, "
        f"serve={ctx.scale.serve_requests}, "
        f"cache={ctx.scale.cache_capacity}"
    )


# ----------------------------------------------------------------------
# Fig. 2 — retrieval-quality distributions, text-to-text vs text-to-image
# ----------------------------------------------------------------------
def fig2_retrieval_distributions(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 2: CLIP/Pick distributions of retrievals under each policy."""
    result = ExperimentResult(
        experiment_id="fig2",
        title="CLIP/Pick distributions of retrieved images by policy",
        paper_reference=(
            "Fig. 2: text-to-image retrieval mean CLIP ~0.28 vs "
            "text-to-text ~0.22; Pick 20.33 vs 19.52"
        ),
    )
    result.add_note(_scale_note(ctx))
    warm, serve = ctx.split(ctx.diffusiondb())
    serve_prompts = [r.prompt for r in serve]

    large = ctx.model("sd3.5-large")
    caches = {}
    for name, retrieval in (
        ("text-to-image", ctx.retrieval_t2i),
        ("text-to-text", ctx.retrieval_t2t),
    ):
        run = CacheOnlyRun(
            space=ctx.space,
            retrieval=retrieval,
            selector=modm_default_selector(),
            large=large,
            refine_with=large,
            cache_capacity=ctx.scale.cache_capacity,
        )
        run.warm(warm)
        caches[name] = run

    for name, run in caches.items():
        clips: List[float] = []
        picks: List[float] = []
        for prompt in serve_prompts:
            query = run.retrieval.query_embedding(prompt)
            entry, _ = run.cache.retrieve(query)
            if entry is None:
                continue
            clips.append(ctx.clip.raw(prompt, entry.payload))
            picks.append(ctx.pick.score(prompt, entry.payload))
        result.add_row(
            policy=name,
            mean_clip=float(np.mean(clips)),
            p10_clip=float(np.percentile(clips, 10)),
            p90_clip=float(np.percentile(clips, 90)),
            mean_pick=float(np.mean(picks)),
        )
    return result


# ----------------------------------------------------------------------
# Fig. 3 — qualitative retrieval mismatches
# ----------------------------------------------------------------------
def fig3_retrieval_examples(
    ctx: ExperimentContext, n_examples: int = 4
) -> ExperimentResult:
    """Fig. 3: prompts where wording overlap misleads text retrieval."""
    result = ExperimentResult(
        experiment_id="fig3",
        title="Cases where text-to-text retrieval mismatches visual intent",
        paper_reference="Fig. 3: wording overlap != visual alignment",
    )
    result.add_note(_scale_note(ctx))
    warm, serve = ctx.split(ctx.diffusiondb())
    serve_prompts = [r.prompt for r in serve]

    large = ctx.model("sd3.5-large")
    t2i = CacheOnlyRun(
        space=ctx.space,
        retrieval=ctx.retrieval_t2i,
        selector=modm_default_selector(),
        large=large,
        refine_with=large,
        cache_capacity=ctx.scale.cache_capacity,
    )
    t2i.warm(warm)
    t2t = CacheOnlyRun(
        space=ctx.space,
        retrieval=ctx.retrieval_t2t,
        selector=modm_default_selector(),
        large=large,
        refine_with=large,
        cache_capacity=ctx.scale.cache_capacity,
    )
    t2t.warm(warm)

    gaps: List[Tuple[float, Prompt, object, object]] = []
    for prompt in serve_prompts:
        entry_i, _ = t2i.cache.retrieve(
            t2i.retrieval.query_embedding(prompt)
        )
        entry_t, _ = t2t.cache.retrieve(
            t2t.retrieval.query_embedding(prompt)
        )
        if entry_i is None or entry_t is None:
            continue
        clip_i = ctx.clip.raw(prompt, entry_i.payload)
        clip_t = ctx.clip.raw(prompt, entry_t.payload)
        gaps.append((clip_i - clip_t, prompt, entry_i, entry_t))
    gaps.sort(key=lambda item: -item[0])
    for gap, prompt, entry_i, entry_t in gaps[:n_examples]:
        result.add_row(
            prompt=prompt.text,
            t2i_clip=ctx.clip.raw(prompt, entry_i.payload),
            t2t_clip=ctx.clip.raw(prompt, entry_t.payload),
            clip_gap=gap,
        )
    return result


# ----------------------------------------------------------------------
# Fig. 5 — quality factor vs similarity and the k-decision table
# ----------------------------------------------------------------------
def fig5_quality_vs_similarity(
    ctx: ExperimentContext,
    alpha: float = 0.95,
    small: str = "sdxl",
) -> ExperimentResult:
    """Fig. 5: quality factor vs similarity and the derived thresholds."""
    result = ExperimentResult(
        experiment_id="fig5",
        title="Quality factor vs text-image similarity; derived thresholds",
        paper_reference=(
            "Fig. 5: thresholds {5:0.25, 10:0.27, 15:0.28, 25:0.29, "
            "30:0.30} at alpha=0.95"
        ),
    )
    result.add_note(_scale_note(ctx))
    warm, serve = ctx.split(ctx.diffusiondb())
    serve_prompts = [r.prompt for r in serve][: ctx.scale.quality_requests]

    large = ctx.model("sd3.5-large")
    refiner = ctx.model(small)
    run = CacheOnlyRun(
        space=ctx.space,
        retrieval=ctx.retrieval_t2i,
        selector=modm_default_selector(),
        large=large,
        refine_with=refiner,
        cache_capacity=ctx.scale.cache_capacity,
    )
    run.warm(warm)

    base_prompts = serve_prompts[:200]
    base = large.generate_batch(base_prompts, "fig5-base")
    vanilla_clip = float(
        np.mean(
            [
                ctx.clip.score(p, result.image)
                for p, result in zip(base_prompts, base)
            ]
        )
    )
    samples: List[Tuple[float, Dict[int, float]]] = []
    for prompt in serve_prompts:
        query = run.retrieval.query_embedding(prompt)
        entry, sim = run.cache.retrieve(query)
        if entry is None:
            continue
        factors = {}
        for k in DEFAULT_K_SET:
            skipped = refiner.schedule.scaled_skip(k / 50.0)
            refined = refiner.refine(
                prompt, entry.payload, skipped, seed="fig5-run"
            ).image
            factors[k] = ctx.clip.score(prompt, refined) / vanilla_clip
        samples.append((sim, factors))

    # Binned curves (the Fig. 5a scatter summarized).
    sims = np.array([s for s, _ in samples])
    edges = np.percentile(sims, [5, 25, 50, 75, 95])
    for k in DEFAULT_K_SET:
        row: Dict[str, object] = {"k": k}
        for lo, hi, label in zip(
            edges[:-1], edges[1:], ("q1", "q2", "q3", "q4")
        ):
            vals = [f[k] for s, f in samples if lo <= s < hi]
            row[f"factor_{label}"] = (
                float(np.mean(vals)) if vals else float("nan")
            )
        result.add_row(**row)

    thresholds = derive_thresholds(samples, alpha=alpha)
    result.add_row(
        k="derived-thresholds",
        **{f"factor_q{i+1}": float("nan") for i in range(4)},
    )
    for k, tau in sorted(thresholds.items()):
        result.add_row(k=f"tau(k={k})", factor_q1=tau)
    result.add_note(
        "derived thresholds: "
        + ", ".join(f"k={k}: {t:.3f}" for k, t in sorted(thresholds.items()))
    )
    return result


# ----------------------------------------------------------------------
# Fig. 6 — hit rate over the trace for two cache sizes
# ----------------------------------------------------------------------
def fig6_hit_rate_over_trace(
    ctx: ExperimentContext, checkpoints: int = 10
) -> ExperimentResult:
    """Fig. 6: cumulative hit rate over the trace at two cache sizes."""
    result = ExperimentResult(
        experiment_id="fig6",
        title="Cumulative hit rate over the DiffusionDB trace",
        paper_reference=(
            "Fig. 6: hit rate stable across 10k and 100k cache sizes over "
            "2M requests"
        ),
    )
    trace = ctx.diffusiondb(ctx.scale.long_trace_requests)
    result.add_note(
        f"scale={ctx.scale.name}: trace={len(trace)} requests, cache "
        f"sizes {ctx.scale.cache_size_sweep[:2]} (paper: 2M requests, "
        "10k/100k)"
    )
    prompts = [r.prompt for r in trace]
    arrivals = [r.arrival_s for r in trace]
    sizes = (
        ctx.scale.cache_size_sweep[1],
        ctx.scale.cache_size_sweep[-1],
    )
    step = max(1, len(prompts) // checkpoints)
    series: Dict[int, List[Tuple[int, float]]] = {}
    for size in sizes:
        run = ctx.modm_cache_run(cache_capacity=size)
        hits = 0
        curve: List[Tuple[int, float]] = []
        for i, prompt in enumerate(prompts):
            record = run._serve_one(prompt, arrivals[i])
            run.records.append(record)
            hits += record.hit
            if (i + 1) % step == 0 or i == len(prompts) - 1:
                curve.append((i + 1, hits / (i + 1)))
        series[size] = curve
    for i in range(len(series[sizes[0]])):
        row: Dict[str, object] = {
            "requests": series[sizes[0]][i][0],
        }
        for size in sizes:
            row[f"hit_rate_cache_{size}"] = series[size][i][1]
        result.add_row(**row)
    return result


# ----------------------------------------------------------------------
# Figs. 7 and 8 — normalized max throughput
# ----------------------------------------------------------------------
def _throughput_comparison(
    ctx: ExperimentContext,
    trace: Trace,
    large: str,
    cluster: ClusterConfig,
) -> List[Dict[str, object]]:
    warm_prompts = [
        r.prompt for r in trace.requests[: ctx.scale.warm_prompts]
    ]
    serve = trace.slice(ctx.scale.warm_prompts).ignore_timestamps()

    rows: List[Dict[str, object]] = []
    vanilla = ctx.vanilla(cluster, model=large)
    base = vanilla.run(serve)
    rows.append(
        {
            "system": f"Vanilla ({large})",
            "throughput_rpm": base.throughput_rpm,
            "normalized": 1.0,
            "hit_rate": 0.0,
        }
    )

    systems = [
        ("Nirvana", ctx.nirvana(cluster, model=large)),
        ("Pinecone", ctx.pinecone(cluster, model=large)),
        (
            "MoDM-SDXL",
            ctx.modm(cluster, large=large, smalls=("sdxl",)),
        ),
        (
            "MoDM-SANA",
            ctx.modm(cluster, large=large, smalls=("sana-1.6b",)),
        ),
    ]
    for name, system in systems:
        system.warm_cache(warm_prompts)
        report = system.run(serve)
        rows.append(
            {
                "system": name,
                "throughput_rpm": report.throughput_rpm,
                "normalized": report.throughput_rpm / base.throughput_rpm,
                "hit_rate": report.hit_rate,
            }
        )
    return rows


def fig7_throughput(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 7: max throughput vs Vanilla (SD3.5-Large), both datasets."""
    result = ExperimentResult(
        experiment_id="fig7",
        title="Throughput normalized to Vanilla (SD3.5-Large)",
        paper_reference=(
            "Fig. 7: DiffusionDB 1.0/1.2/1.8/2.5/3.2; MJHQ 1.0/1.1/1.4/"
            "2.1/2.4"
        ),
    )
    result.add_note(_scale_note(ctx))
    for dataset, trace in (
        ("diffusiondb", ctx.diffusiondb()),
        ("mjhq", ctx.mjhq()),
    ):
        for row in _throughput_comparison(
            ctx, trace, "sd3.5-large", CLUSTER_MI210
        ):
            result.add_row(dataset=dataset, **row)
    return result


def fig8_throughput_flux(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 8: max throughput vs Vanilla (FLUX) on DiffusionDB."""
    result = ExperimentResult(
        experiment_id="fig8",
        title="Throughput normalized to Vanilla (FLUX), DiffusionDB",
        paper_reference="Fig. 8: 1.0/1.2/2.0/2.4/2.9",
    )
    result.add_note(_scale_note(ctx))
    for row in _throughput_comparison(
        ctx, ctx.diffusiondb(), "flux.1-dev", CLUSTER_MI210
    ):
        result.add_row(dataset="diffusiondb", **row)
    return result


# ----------------------------------------------------------------------
# Fig. 9 / Fig. 19 — hit rates and k distributions by cache size
# ----------------------------------------------------------------------
def _hit_rate_rows(
    ctx: ExperimentContext,
    trace: Trace,
    cache_sizes: Sequence[int],
) -> List[Dict[str, object]]:
    warm = [r.prompt for r in trace.requests[: ctx.scale.warm_prompts]]
    serve_prompts = [
        r.prompt for r in trace.requests[ctx.scale.warm_prompts :]
    ]
    arrivals = [
        r.arrival_s for r in trace.requests[ctx.scale.warm_prompts :]
    ]
    rows = []
    for size in cache_sizes:
        variants = [
            ("nirvana", ctx.nirvana_cache_run(cache_capacity=size)),
            (
                "modm-cache-large",
                ctx.modm_cache_run(
                    cache_capacity=size,
                    admission=CacheAdmission.LARGE_ONLY,
                ),
            ),
            (
                "modm-cache-all",
                ctx.modm_cache_run(
                    cache_capacity=size, admission=CacheAdmission.ALL
                ),
            ),
        ]
        for name, run in variants:
            run.warm(warm[: min(len(warm), size)])
            run.serve(serve_prompts, arrivals)
            k_rates = run.k_rates()
            rows.append(
                {
                    "cache_size": size,
                    "system": name,
                    "hit_rate": run.hit_rate(),
                    **{
                        f"k{k}": k_rates.get(k, 0.0)
                        for k in DEFAULT_K_SET
                    },
                }
            )
    return rows


def fig9_cache_hit_rates(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 9: hit rate and skipped-step mix vs cache size (DiffusionDB)."""
    result = ExperimentResult(
        experiment_id="fig9",
        title="Hit rate and skipped-step mix (DiffusionDB)",
        paper_reference=(
            "Fig. 9: MoDM > Nirvana; cache-all > cache-large; 92.8% at "
            "100k cache"
        ),
    )
    result.add_note(_scale_note(ctx))
    for row in _hit_rate_rows(
        ctx, ctx.diffusiondb(), ctx.scale.cache_size_sweep
    ):
        result.add_row(**row)
    return result


def fig19_mjhq_hit_rates(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 19: hit rate and skipped-step mix vs cache size (MJHQ)."""
    result = ExperimentResult(
        experiment_id="fig19",
        title="Hit rate and skipped-step mix (MJHQ)",
        paper_reference=(
            "Fig. 19: lower hit rates; cache-large ~ cache-all without "
            "temporal locality"
        ),
    )
    result.add_note(_scale_note(ctx))
    sizes = ctx.scale.cache_size_sweep[:2]
    for row in _hit_rate_rows(ctx, ctx.mjhq(), sizes):
        result.add_row(**row)
    return result


# ----------------------------------------------------------------------
# Fig. 10 / Fig. 17 — throughput under ramping / fluctuating demand
# ----------------------------------------------------------------------
def _timeline_rows(
    ctx: ExperimentContext,
    schedule: RateSchedule,
    bucket_s: float,
    cluster: ClusterConfig = CLUSTER_MI210,
) -> List[Dict[str, object]]:
    trace_full = ctx.diffusiondb(
        ctx.scale.warm_prompts + int(schedule.expected_requests()) + 64
    )
    warm = [
        r.prompt for r in trace_full.requests[: ctx.scale.warm_prompts]
    ]
    serve_base = trace_full.slice(ctx.scale.warm_prompts)
    n = min(len(serve_base), int(schedule.expected_requests()))
    serve_base = serve_base.slice(0, n)
    arrivals = schedule_arrivals(schedule, n, seed="timeline")
    serve = serve_base.with_arrivals(arrivals)

    systems = [
        ("vanilla", ctx.vanilla(cluster)),
        ("nirvana", ctx.nirvana(cluster)),
        (
            "modm",
            ctx.modm(cluster, smalls=("sdxl", "sana-1.6b")),
        ),
    ]
    horizon = schedule.total_duration_s
    timelines: Dict[str, np.ndarray] = {}
    centers = None
    offered = None
    for name, system in systems:
        if hasattr(system, "warm_cache"):
            system.warm_cache(warm)
        report = system.run(serve, until=horizon)
        # Offered demand is the whole trace: a report cut at the horizon
        # holds only the requests that arrived by then.
        centers, offered, served = offered_vs_served(
            [request.arrival_s for request in serve],
            report.completion_times(),
            bucket_s=bucket_s,
        )
        timelines[name] = served
    rows = []
    n_buckets = min(len(v) for v in timelines.values())
    for i in range(n_buckets):
        rows.append(
            {
                "t_min": float(centers[i] / 60.0),
                "demand_rpm": float(offered[i]),
                **{name: float(v[i]) for name, v in timelines.items()},
            }
        )
    return rows


def fig10_increasing_load(
    ctx: ExperimentContext,
    start_rate: float = 6.0,
    end_rate: float = 26.0,
    steps: int = 6,
    step_duration_s: float = 600.0,
) -> ExperimentResult:
    """Fig. 10: throughput under ramping demand with model switching."""
    result = ExperimentResult(
        experiment_id="fig10",
        title="Throughput under increasing request rate (16x MI210)",
        paper_reference=(
            "Fig. 10: Vanilla caps ~10/min; MoDM follows demand, "
            "switching SDXL->SANA above ~22/min"
        ),
    )
    result.add_note(_scale_note(ctx))
    schedule = RateSchedule.ramp(start_rate, end_rate, steps, step_duration_s)
    for row in _timeline_rows(ctx, schedule, bucket_s=step_duration_s):
        result.add_row(**row)
    return result


def fig17_fluctuating(
    ctx: ExperimentContext,
    rates: Sequence[float] = (6, 14, 22, 10, 18, 26, 12, 8),
    step_duration_s: float = 600.0,
) -> ExperimentResult:
    """Fig. 17: throughput under a fluctuating demand schedule."""
    result = ExperimentResult(
        experiment_id="fig17",
        title="Throughput under fluctuating request rates",
        paper_reference=(
            "Fig. 17: MoDM tracks demand; baselines lag during peaks and "
            "drain during troughs"
        ),
    )
    result.add_note(_scale_note(ctx))
    schedule = RateSchedule.fluctuating(list(rates), step_duration_s)
    for row in _timeline_rows(ctx, schedule, bucket_s=step_duration_s):
        result.add_row(**row)
    return result


# ----------------------------------------------------------------------
# Fig. 11 — scalability with GPU count
# ----------------------------------------------------------------------
def fig11_scalability(
    ctx: ExperimentContext,
    gpu_counts: Optional[Sequence[int]] = None,
    demand_rpm: float = 60.0,
) -> ExperimentResult:
    """Fig. 11: MoDM throughput scaling (super-linear) with GPU count.

    Scaling is only measurable while every cluster stays *overloaded*
    (span dominated by queue drain).  On the short smoke trace the big
    end of the paper's 4..32 sweep becomes arrival-limited — its linear
    capacity meets the offered 60 rpm — and the fixed final-request
    service tail eats a visible share of the short serving span, so the
    smoke preset sweeps 2..8 GPUs where the offered load strictly
    exceeds capacity at every point.  Larger scales use the paper's
    sweep unchanged.
    """
    if gpu_counts is None:
        gpu_counts = (
            (2, 4, 6, 8)
            if ctx.scale.name == "smoke"
            else (4, 8, 12, 16, 20, 24, 28, 32)
        )
    result = ExperimentResult(
        experiment_id="fig11",
        title="MoDM throughput scaling with #MI210 GPUs",
        paper_reference=(
            "Fig. 11: super-linear (1.0/2.3/3.3/4.2/5.7/7.2/8.1/9.3 at "
            "4..32 GPUs) — faster clusters fill the cache faster"
        ),
    )
    result.add_note(_scale_note(ctx))
    result.add_note(
        f"gpu sweep {tuple(gpu_counts)} at {demand_rpm:g} rpm offered"
    )
    trace = ctx.diffusiondb()
    warm, serve_base = ctx.split(trace)
    # Arrivals at a fixed high rate: slower clusters fall behind while the
    # cache is still developing, which is the super-linearity mechanism.
    arrivals = poisson_arrivals(
        demand_rpm, len(serve_base), seed="fig11"
    )
    serve = serve_base.with_arrivals(arrivals)
    base_thr: Optional[float] = None
    for n in gpu_counts:
        cluster = ClusterConfig(gpu_name="MI210", n_workers=n)
        system = ctx.modm(cluster, smalls=("sdxl",))
        system.warm_cache(warm)
        report = system.run(serve)
        thr = report.throughput_rpm
        if base_thr is None:
            base_thr = thr
        result.add_row(
            gpus=n,
            throughput_rpm=thr,
            normalized=thr / base_thr,
            linear_reference=n / gpu_counts[0],
            hit_rate=report.hit_rate,
        )
    return result


# ----------------------------------------------------------------------
# Extension — multi-replica cluster serving (cache-aware routing)
# ----------------------------------------------------------------------
def cluster_routing(
    ctx: ExperimentContext,
    replica_counts: Sequence[int] = (2, 4, 8),
    demand_rpm: float = 60.0,
) -> ExperimentResult:
    """Routing-policy comparison across serving replicas at equal load.

    N MoDM replicas (each one cache shard + worker pool carved from the
    same 16-GPU / one-cache budget) serve the same Poisson trace under
    the three router policies, autoscaler on.  The single-engine row is
    the one-replica reference: sharding always costs hit rate, and the
    question is which policy loses the least.  ``cache_affinity`` routes
    each request to the replica whose cache-centroid sketch is nearest,
    so semantic families concentrate per shard — it should dominate
    ``round_robin`` on fleet hit rate and p99 latency at every width.
    """
    result = ExperimentResult(
        experiment_id="cluster_routing",
        title="Cluster routing policies: fleet hit rate and latency",
        paper_reference=(
            "Extension beyond the paper's single pool (cf. DiffServe / "
            "LegoDiffusion instance scaling): MoDM's twist is that "
            "routing is cache-affinity-sensitive"
        ),
    )
    result.add_note(_scale_note(ctx))
    result.add_note(
        f"{demand_rpm:g} rpm offered; total workers/cache split evenly "
        "across replicas; autoscaler on"
    )
    trace = ctx.diffusiondb()
    warm, serve_base = ctx.split(trace)
    arrivals = poisson_arrivals(
        demand_rpm, len(serve_base), seed="cluster-routing"
    )
    serve = serve_base.with_arrivals(arrivals)

    # The one-replica cluster is bit-for-bit the single engine (pinned
    # by the golden regression), so the reference row reuses the same
    # report shape as every fleet row.
    engine = ctx.modm_cluster(
        ClusterRoutingConfig(n_replicas=1),
        cluster=CLUSTER_MI210,
        smalls=("sdxl",),
    )
    engine.warm_cache(warm)
    reference = engine.run(serve).summary_row()
    reference["policy"] = "single-engine"
    result.add_row(**reference)
    for n_replicas in replica_counts:
        for policy in ROUTING_POLICIES:
            system = ctx.modm_cluster(
                ClusterRoutingConfig(
                    n_replicas=n_replicas,
                    policy=policy,
                    autoscale=True,
                ),
                cluster=CLUSTER_MI210,
                smalls=("sdxl",),
            )
            system.warm_cache(warm)
            result.add_row(**system.run(serve).summary_row())
    return result


# ----------------------------------------------------------------------
# Extension — deterministic fault tolerance (kill/restart + recovery)
# ----------------------------------------------------------------------
def fault_tolerance(
    ctx: ExperimentContext,
    n_replicas: int = 4,
    demand_rpm: float = 14.0,
) -> ExperimentResult:
    """Replica-failure injection: cold vs warm (snapshot) recovery.

    One replica of a ``cache_affinity`` fleet is killed mid-trace and
    restarted later, under three recovery modes: no failure (the
    healthy reference), cold restart (empty cache), and warm restart
    (cache restored from the replica's last periodic snapshot).  All
    three runs journal with the same snapshot period, so simulation
    behaviour is identical until the kill fires — the cold and warm rows
    share their ``hit_rate_before`` bit for bit.

    The invariants this records: no request is ever lost (orphans are
    re-routed across the survivors, ``n_lost == 0`` in every row), and
    warm restore recovers most of the pre-kill hit rate while a cold
    replica restarts from nothing.
    """
    result = ExperimentResult(
        experiment_id="fault_tolerance",
        title="Replica failure injection: cold vs warm recovery",
        paper_reference=(
            "Extension beyond the paper: deterministic kill/restart "
            "with journaled snapshots; warm restore should recover "
            "most of the pre-kill cache hit rate"
        ),
    )
    result.add_note(_scale_note(ctx))
    trace = ctx.diffusiondb()
    warm, serve_base = ctx.split(trace)
    arrivals = poisson_arrivals(
        demand_rpm, len(serve_base), seed="fault-tolerance"
    )
    serve = serve_base.with_arrivals(arrivals)
    span = float(arrivals[-1])
    kill_t = 0.35 * span
    restart_t = kill_t + 0.15 * span
    recovery_window = max(60.0, 0.3 * span)
    journal = JournalConfig(snapshot_period_s=max(30.0, kill_t / 4.0))
    result.add_note(
        f"{demand_rpm:g} rpm offered; kill replica 1 at t={kill_t:.0f}s, "
        f"restart at t={restart_t:.0f}s; recovery window "
        f"{recovery_window:.0f}s"
    )

    def plan(warm_restore: bool) -> FailurePlan:
        return FailurePlan(
            events=(
                FailureEvent(time_s=kill_t, replica=1, action="kill"),
                FailureEvent(
                    time_s=restart_t,
                    replica=1,
                    action="restart",
                    warm=warm_restore,
                ),
            ),
            recovery_window_s=recovery_window,
        )

    modes = (
        ("none", None),
        ("cold", plan(False)),
        ("warm", plan(True)),
    )
    for mode, failures in modes:
        system = ctx.modm_cluster(
            ClusterRoutingConfig(
                n_replicas=n_replicas,
                policy="cache_affinity",
                autoscale=True,
                failures=failures,
            ),
            cluster=CLUSTER_MI210,
            smalls=("sdxl",),
            journal=journal,
        )
        system.warm_cache(warm)
        report = system.run(serve)
        row: Dict[str, object] = {"mode": mode}
        row.update(report.summary_row())
        row["n_lost"] = report.n_lost
        row["n_rerouted"] = report.n_rerouted
        failure = report.failures[0] if report.failures else None
        row["kill_time_s"] = failure.time_s if failure else None
        row["restart_time_s"] = (
            failure.restart_time_s if failure else None
        )
        row["hit_rate_before"] = (
            failure.hit_rate_before if failure else None
        )
        row["hit_rate_after"] = (
            failure.hit_rate_after if failure else None
        )
        row["recovery_latency_s"] = (
            failure.recovery_latency_s if failure else None
        )
        result.add_row(**row)

    # Correlated failure: replicas 1 and 2 fate-share a rack and die
    # together at the kill instant; both restart cold, so the only
    # difference between the two cascade modes is whether survivors
    # adopted the dead caches (``nearest_centroid``) or dropped them
    # (``none``).  ``hit_rate_migrated`` is the fleet hit rate over the
    # recovery window that ends one window after the kill — the period
    # where adopted entries either serve re-routed neighbors or don't.
    result.add_note(
        "cascade rows: replicas 1+2 fate-share; both restart cold at "
        f"t={restart_t:.0f}s; migrated vs dropped caches"
    )

    def cascade_plan() -> FailurePlan:
        return FailurePlan(
            events=(
                FailureEvent(time_s=kill_t, replica=1, action="kill"),
                FailureEvent(
                    time_s=restart_t, replica=1, action="restart"
                ),
                FailureEvent(
                    time_s=restart_t, replica=2, action="restart"
                ),
            ),
            recovery_window_s=recovery_window,
            fate_groups=((1, 2),),
        )

    for mode, migration in (
        ("cascade-drop", "none"),
        ("cascade-migrate", "nearest_centroid"),
    ):
        system = ctx.modm_cluster(
            ClusterRoutingConfig(
                n_replicas=n_replicas,
                policy="cache_affinity",
                autoscale=True,
                failures=cascade_plan(),
                migration_policy=migration,
            ),
            cluster=CLUSTER_MI210,
            smalls=("sdxl",),
            journal=journal,
        )
        system.warm_cache(warm)
        report = system.run(serve)
        row = {"mode": mode}
        row.update(report.summary_row())
        row["n_lost"] = report.n_lost
        row["n_rerouted"] = report.n_rerouted
        row["n_killed"] = len(report.failures)
        row["n_migrated"] = sum(
            rec.n_migrated for rec in report.failures
        )
        row["kill_time_s"] = kill_t
        row["restart_time_s"] = restart_t
        row["hit_rate_migrated"] = report.fleet.stats.window(
            kill_t + recovery_window, recovery_window
        ).hit_rate
        result.add_row(**row)
    return result


# ----------------------------------------------------------------------
# Figs. 12, 13, 16 — SLO violation rates and tail latency
# ----------------------------------------------------------------------
def _latency_sweep(
    ctx: ExperimentContext,
    cluster: ClusterConfig,
    rates: Sequence[float],
    serve_fraction: float = 1.0,
) -> List[Dict[str, object]]:
    from repro.diffusion.registry import get_model

    large = get_model("sd3.5-large")
    solo_latency = large.service_time_s(
        cluster.gpu_name, large.total_steps
    )
    trace = ctx.diffusiondb()
    warm, serve_base = ctx.split(trace)
    n = max(50, int(len(serve_base) * serve_fraction))
    serve_base = serve_base.slice(0, n)

    rows = []
    for rate in rates:
        arrivals = poisson_arrivals(
            rate, len(serve_base), seed=f"slo-{cluster.gpu_name}-{rate}"
        )
        serve = serve_base.with_arrivals(arrivals)
        for name, system in (
            ("vanilla", ctx.vanilla(cluster)),
            ("nirvana", ctx.nirvana(cluster)),
            ("modm", ctx.modm(cluster, smalls=("sdxl", "sana-1.6b"))),
        ):
            if hasattr(system, "warm_cache"):
                system.warm_cache(warm)
            report = system.run(serve)
            latencies = report.latencies()
            rows.append(
                {
                    "gpu": cluster.gpu_name,
                    "n_gpus": cluster.n_workers,
                    "rate_rpm": rate,
                    "system": name,
                    "violation_2x": slo_violation_rate(
                        latencies, 2 * solo_latency
                    ).violation_rate,
                    "violation_4x": slo_violation_rate(
                        latencies, 4 * solo_latency
                    ).violation_rate,
                    "p99_s": percentile(latencies, 99),
                }
            )
    return rows


def fig12_slo_2x(
    ctx: ExperimentContext,
    a40_rates: Sequence[float] = (4, 6, 8, 10),
    mi210_rates: Sequence[float] = (6, 10, 14, 18, 22, 26),
) -> ExperimentResult:
    """Fig. 12: SLO violation rate at 2x the large model's latency."""
    result = ExperimentResult(
        experiment_id="fig12",
        title="SLO violation rate at 2x large-model latency",
        paper_reference=(
            "Fig. 12: baselines violate beyond ~5/min (A40) / ~14/min "
            "(MI210); MoDM holds to ~10 / ~22"
        ),
    )
    result.add_note(_scale_note(ctx))
    for row in _latency_sweep(ctx, CLUSTER_A40, a40_rates, 0.5):
        result.add_row(**{k: v for k, v in row.items() if k != "violation_4x"})
    for row in _latency_sweep(ctx, CLUSTER_MI210, mi210_rates, 0.5):
        result.add_row(**{k: v for k, v in row.items() if k != "violation_4x"})
    return result


def fig13_slo_4x(
    ctx: ExperimentContext,
    a40_rates: Sequence[float] = (4, 6, 8, 10),
    mi210_rates: Sequence[float] = (6, 10, 14, 18, 22, 26),
) -> ExperimentResult:
    """Fig. 13: SLO violation rate at 4x the large model's latency."""
    result = ExperimentResult(
        experiment_id="fig13",
        title="SLO violation rate at 4x large-model latency",
        paper_reference="Fig. 13: MoDM holds to ~26/min on 16x MI210",
    )
    result.add_note(_scale_note(ctx))
    for row in _latency_sweep(ctx, CLUSTER_A40, a40_rates, 0.5):
        result.add_row(**{k: v for k, v in row.items() if k != "violation_2x"})
    for row in _latency_sweep(ctx, CLUSTER_MI210, mi210_rates, 0.5):
        result.add_row(**{k: v for k, v in row.items() if k != "violation_2x"})
    return result


def slo_admission(
    ctx: ExperimentContext,
    cluster: ClusterConfig = CLUSTER_A40,
    overload_factors: Sequence[float] = (2.0, 4.0),
    slo_multiplier: float = 2.0,
) -> ExperimentResult:
    """In-engine SLO admission under overload (extension experiment).

    Unlike Figs. 12-13, which measure violations *after the fact* from
    latency logs, every system here runs with the same in-engine
    :class:`SLOPolicy` (deadline = ``slo_multiplier`` x the large model's
    solo latency).  MoDM gets the full subsystem — deadline-aware EDF
    dispatch, admission control, DiffServe-style degradation to its
    small-model path — while Vanilla/Nirvana run admission-only (their
    single serving path leaves nothing to reorder or degrade to, so the
    gate can only shed doomed requests).  The offered rate is
    ``overload_factor`` x the cluster's Vanilla large-model capacity, the
    paper's §7.2 spike scenario; MoDM re-routes doomed work instead of
    shedding it and so sheds strictly less while violating less.
    """
    result = ExperimentResult(
        experiment_id="slo_admission",
        title="In-engine SLO admission & degradation under overload",
        paper_reference=(
            "Extension of Figs. 12-13 (post-hoc SLO measurement) to "
            "in-engine enforcement; cascade per DiffServe"
        ),
    )
    result.add_note(_scale_note(ctx))
    large = get_model("sd3.5-large")
    capacity_rpm = cluster.n_workers * large.throughput_rpm(
        cluster.gpu_name, large.total_steps
    )
    policy = SLOPolicy(
        classes=(SLOClass(name="standard", multiplier=slo_multiplier),),
    )
    trace = ctx.diffusiondb()
    warm, serve_base = ctx.split(trace)
    n = max(50, len(serve_base) // 2)
    serve_base = serve_base.slice(0, n)

    for factor in overload_factors:
        rate = factor * capacity_rpm
        arrivals = poisson_arrivals(
            rate, len(serve_base), seed=f"slo-admission-{factor}"
        )
        serve = serve_base.with_arrivals(arrivals)
        for name, system in (
            ("vanilla", ctx.vanilla(cluster, slo=policy)),
            ("nirvana", ctx.nirvana(cluster, slo=policy)),
            (
                "modm",
                ctx.modm(
                    cluster, smalls=("sdxl", "sana-1.6b"), slo=policy
                ),
            ),
        ):
            if hasattr(system, "warm_cache"):
                system.warm_cache(warm)
            report = system.run(serve)
            summary = report.slo()
            result.add_row(
                overload=factor,
                rate_rpm=rate,
                system=name,
                total=summary.total,
                in_time=summary.completed_in_time,
                late=summary.completed_late,
                shed=summary.shed,
                degraded=summary.degraded,
                violation_rate=summary.violation_rate,
                shed_rate=summary.shed_rate,
            )
    return result


def fig16_tail_latency(
    ctx: ExperimentContext,
    a40_rates: Sequence[float] = (4, 6, 8, 10),
    mi210_rates: Sequence[float] = (6, 10, 14, 18, 22, 26),
) -> ExperimentResult:
    """Fig. 16: P99 tail latency across request rates and clusters."""
    result = ExperimentResult(
        experiment_id="fig16",
        title="P99 tail latency vs request rate",
        paper_reference=(
            "Fig. 16: baseline P99 blows past 1000 s beyond the knee; "
            "MoDM stays low to far higher rates"
        ),
    )
    result.add_note(_scale_note(ctx))
    for cluster, rates in (
        (CLUSTER_A40, a40_rates),
        (CLUSTER_MI210, mi210_rates),
    ):
        for row in _latency_sweep(ctx, cluster, rates, 0.5):
            result.add_row(
                gpu=row["gpu"],
                n_gpus=row["n_gpus"],
                rate_rpm=row["rate_rpm"],
                system=row["system"],
                p99_s=row["p99_s"],
            )
    return result


# ----------------------------------------------------------------------
# Fig. 14 — quality-performance trade-off space (FLUX)
# ----------------------------------------------------------------------
def fig14_tradeoff(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 14: FID vs 1/throughput trade-off space with FLUX."""
    result = ExperimentResult(
        experiment_id="fig14",
        title="FID vs 1/throughput trade-off space (FLUX large model)",
        paper_reference=(
            "Fig. 14: MoDM configurations populate the Pareto frontier"
        ),
    )
    result.add_note(_scale_note(ctx))
    trace = ctx.diffusiondb()
    warm, serve_trace = ctx.split(trace)
    serve_prompts = [r.prompt for r in serve_trace][
        : ctx.scale.quality_requests
    ]
    serve_fast = serve_trace.ignore_timestamps()
    gt = ctx.ground_truth(serve_prompts, model="flux.1-dev")
    cluster = CLUSTER_MI210

    def serving_throughput(system) -> float:
        if hasattr(system, "warm_cache"):
            system.warm_cache(warm)
        return system.run(serve_fast).throughput_rpm

    def cache_quality(run: CacheOnlyRun) -> float:
        run.warm(warm)
        run.serve(serve_prompts)
        return gt.score([img for _, img in run.images()])

    def modm_point(
        label: str,
        small: str,
        admission: CacheAdmission,
        cache_capacity: Optional[int] = None,
        threshold_shift: float = 0.0,
    ) -> None:
        selector = modm_default_selector()
        if threshold_shift:
            selector = selector.shifted(threshold_shift)
        quality_run = CacheOnlyRun(
            space=ctx.space,
            retrieval=ctx.retrieval_t2i,
            selector=selector,
            large=ctx.model("flux.1-dev"),
            refine_with=ctx.model(small),
            cache_capacity=cache_capacity or ctx.scale.cache_capacity,
            admission=admission,
        )
        fid_score = cache_quality(quality_run)
        system = ctx.modm(
            cluster,
            large="flux.1-dev",
            smalls=(small,),
            admission=admission,
            cache_capacity=cache_capacity,
            threshold_shift=threshold_shift,
        )
        thr = serving_throughput(system)
        result.add_row(
            config=label,
            throughput_rpm=thr,
            inv_throughput=1.0 / thr,
            fid=fid_score,
        )

    # Standalone models.
    for label, model in (
        ("FLUX", "flux.1-dev"),
        ("SDXL", "sdxl"),
        ("SD3.5L-Turbo", "sd3.5-large-turbo"),
    ):
        imgs = [
            result.image
            for result in ctx.model(model).generate_batch(
                serve_prompts, "fig14-solo"
            )
        ]
        thr = serving_throughput(ctx.vanilla(cluster, model=model))
        result.add_row(
            config=label,
            throughput_rpm=thr,
            inv_throughput=1.0 / thr,
            fid=gt.score(imgs),
        )

    # Nirvana and Pinecone on FLUX.
    nirvana_quality = ctx.nirvana_cache_run(model="flux.1-dev")
    fid_n = cache_quality(nirvana_quality)
    thr_n = serving_throughput(ctx.nirvana(cluster, model="flux.1-dev"))
    result.add_row(
        config="Nirvana",
        throughput_rpm=thr_n,
        inv_throughput=1.0 / thr_n,
        fid=fid_n,
    )

    # MoDM variants of Fig. 14.
    modm_point("MoDM-SDXL-cachelarge", "sdxl", CacheAdmission.LARGE_ONLY)
    modm_point(
        "MoDM-SANA-cachelarge", "sana-1.6b", CacheAdmission.LARGE_ONLY
    )
    modm_point(
        "MoDM-Turbo-cachelarge",
        "sd3.5-large-turbo",
        CacheAdmission.LARGE_ONLY,
    )
    modm_point(
        "MoDM-Turbo-cacheall", "sd3.5-large-turbo", CacheAdmission.ALL
    )
    modm_point(
        "MoDM-Turbo-cachelarge-5k",
        "sd3.5-large-turbo",
        CacheAdmission.LARGE_ONLY,
        cache_capacity=max(2, ctx.scale.cache_capacity // 2),
    )
    modm_point(
        "MoDM-Turbo-cachelarge-thr+0.01",
        "sd3.5-large-turbo",
        CacheAdmission.LARGE_ONLY,
        threshold_shift=0.01,
    )
    return result


# ----------------------------------------------------------------------
# Fig. 15 — temporal locality of cache hits
# ----------------------------------------------------------------------
def fig15_temporal_locality(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 15: age distribution of retrieved cache entries."""
    result = ExperimentResult(
        experiment_id="fig15",
        title="Time between a request and its retrieved cache entry",
        paper_reference=(
            "Fig. 15: >90% of hits retrieve images generated within 4 h"
        ),
    )
    trace = ctx.diffusiondb(ctx.scale.long_trace_requests)
    result.add_note(
        f"scale={ctx.scale.name}: trace={len(trace)} requests"
    )
    run = ctx.modm_cache_run(
        cache_capacity=ctx.scale.cache_size_sweep[-1]
    )
    prompts = [r.prompt for r in trace]
    arrivals = [r.arrival_s for r in trace]
    run.serve(prompts, arrivals)
    gaps_h = [
        (r.arrival_s - r.retrieved_created_at) / 3600.0
        for r in run.records
        if r.hit and r.retrieved_created_at is not None
    ]
    gaps = np.array(gaps_h)
    edges = np.arange(0, 11)
    counts, _ = np.histogram(np.clip(gaps, 0, 10), bins=edges)
    frac = counts / max(1, len(gaps))
    for lo, f in zip(edges[:-1], frac):
        result.add_row(hours=f"{lo}-{lo+1}", fraction=float(f))
    within4 = float((gaps <= 4.0).mean()) if gaps.size else 0.0
    result.add_note(f"fraction of hits within 4 h: {within4:.3f}")
    result.add_row(hours="<=4h", fraction=within4)
    return result


# ----------------------------------------------------------------------
# Fig. 18 — energy savings
# ----------------------------------------------------------------------
def fig18_energy(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 18: per-request energy and savings vs Vanilla."""
    result = ExperimentResult(
        experiment_id="fig18",
        title="Energy savings vs Vanilla (SD3.5-Large), DiffusionDB",
        paper_reference=(
            "Fig. 18: Nirvana 23.9%, MoDM-SDXL 46.7%, MoDM-SANA 66.3%"
        ),
    )
    result.add_note(_scale_note(ctx))
    trace = ctx.diffusiondb()
    warm, serve_trace = ctx.split(trace)
    serve = serve_trace.ignore_timestamps()
    cluster = CLUSTER_MI210

    def energy_per_request(system) -> Tuple[float, ServingReport]:
        if hasattr(system, "warm_cache"):
            system.warm_cache(warm)
        report = system.run(serve)
        return report.energy.total_joules / report.n_completed, report

    base_epr, _ = energy_per_request(ctx.vanilla(cluster))
    result.add_row(
        system="vanilla",
        energy_kj_per_request=base_epr / 1000.0,
        savings_pct=0.0,
    )
    for name, system in (
        ("nirvana", ctx.nirvana(cluster)),
        ("modm-sdxl", ctx.modm(cluster, smalls=("sdxl",))),
        ("modm-sana", ctx.modm(cluster, smalls=("sana-1.6b",))),
    ):
        epr, _ = energy_per_request(system)
        result.add_row(
            system=name,
            energy_kj_per_request=epr / 1000.0,
            savings_pct=100.0 * (1.0 - epr / base_epr),
        )
    return result
