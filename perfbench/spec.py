"""What the benchmark measures: workloads, metric names, units, seeds.

Kept free of heavy imports so the orchestrator (``run.py``) can read it
without loading numpy or the program under test.  ``BENCHMARK.json`` at
the repository root lists the same names; ``guard.py`` checks that the
two agree.
"""

from __future__ import annotations

WORKLOADS = ("engine-exact", "fleet-affinity-faults", "engine-tiered")

#: Seed the benchmark runs when none is given, and a second seed kept
#: out of tuning so a later claim can be checked on inputs it never saw.
DEFAULT_SEED = 1
HELDOUT_SEED = 1729

#: End-to-end metrics: (name, unit).  Each workload reports all of them.
END_TO_END = (
    ("req_per_ref_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_latency_mean_s", "s"),
    ("sim_latency_p99_s", "s"),
    ("sim_latency_p995_s", "s"),
    ("slo2x_attainment", "ratio"),
    ("hit_rate", "ratio"),
    ("clip_score", "score"),
    ("completion_rate", "ratio"),
)

#: End-to-end metrics that are pure functions of (workload, seed): every
#: run of one seed must report them bit-identically.
DETERMINISTIC = (
    "sim_latency_mean_s",
    "sim_latency_p99_s",
    "sim_latency_p995_s",
    "slo2x_attainment",
    "hit_rate",
    "clip_score",
    "completion_rate",
)

#: Per-layer metrics of the traced run: (name, unit).  ``*_self_ref_s``
#: are span self times of the serving phase in calibrated reference
#: seconds, ``*_self_share`` the same as a share of serving CPU; counts
#: cover the serving phase unless named ``setup_*``.
PER_LAYER = (
    ("trace.req_per_ref_s", "req/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.layer_sum_share", "ratio"),
    ("diffusion.model.generate_calls", "count"),
    ("diffusion.model.refine_calls", "count"),
    ("diffusion.model.self_ref_s", "s"),
    ("diffusion.model.self_share", "ratio"),
    ("diffusion.model.setup_self_ref_s", "s"),
    ("embedding.text_rows", "count"),
    ("embedding.image_rows", "count"),
    ("embedding.memo_hit_ratio", "ratio"),
    ("embedding.self_ref_s", "s"),
    ("embedding.self_share", "ratio"),
    ("embedding.setup_self_ref_s", "s"),
    ("rng.seed_for_calls", "count"),
    ("rng.unit_rows", "count"),
    ("rng.units_rows", "count"),
    ("rng.setup_seed_for_calls", "count"),
    ("workloads.diffusiondb_trace_self_ref_s", "s"),
    ("core.scheduler.decide_batch_calls", "count"),
    ("core.scheduler.prompts_per_call", "count"),
    ("core.scheduler.hit_ratio", "ratio"),
    ("core.scheduler.self_ref_s", "s"),
    ("core.scheduler.self_share", "ratio"),
    ("core.cache.retrieve_calls", "count"),
    ("core.cache.insert_calls", "count"),
    ("core.cache.record_hit_calls", "count"),
    ("core.cache.lookups", "count"),
    ("core.cache.insertions", "count"),
    ("core.cache.evictions", "count"),
    ("core.cache.scan_entries", "count"),
    ("core.cache.self_ref_s", "s"),
    ("core.cache.self_share", "ratio"),
    ("core.tiering.read_rows_calls", "count"),
    ("core.tiering.read_rows_rows", "count"),
    ("core.tiering.read_row_calls", "count"),
    ("core.tiering.promotions", "count"),
    ("core.tiering.demotions", "count"),
    ("core.tiering.self_ref_s", "s"),
    ("core.tiering.self_share", "ratio"),
    ("core.ann.search_calls", "count"),
    ("core.ann.self_ref_s", "s"),
    ("core.ann.self_share", "ratio"),
    ("cluster.events.processed", "count"),
    ("cluster.events.self_ref_s", "s"),
    ("cluster.events.self_share", "ratio"),
    ("cluster.stats.record_decision_calls", "count"),
    ("cluster.stats.window_calls", "count"),
    ("cluster.stats.self_ref_s", "s"),
    ("cluster.stats.self_share", "ratio"),
    ("core.monitor.allocate_calls", "count"),
    ("core.monitor.self_ref_s", "s"),
    ("core.monitor.self_share", "ratio"),
    ("core.monitor.queue_wait_p50_s", "s"),
    ("core.monitor.queue_wait_p99_s", "s"),
    ("core.monitor.sched_latency_p50_s", "s"),
    ("core.monitor.model_switches", "count"),
    ("core.journal.rows", "count"),
    ("core.journal.snapshot_captures", "count"),
    ("core.journal.self_ref_s", "s"),
    ("core.journal.self_share", "ratio"),
    ("core.cluster_router.route_batch_calls", "count"),
    ("core.cluster_router.route_batch_rows", "count"),
    ("core.cluster_router.routed_imbalance", "ratio"),
    ("core.cluster_router.rerouted", "count"),
    ("core.cluster_router.migrated", "count"),
    ("core.cluster_router.transfers", "count"),
    ("core.cluster_router.self_ref_s", "s"),
    ("core.cluster_router.self_share", "ratio"),
    ("core.serving.self_ref_s", "s"),
    ("core.serving.self_share", "ratio"),
)

#: The traced run's layer self times must add up to its serving CPU
#: within this share, or spans are missing or double-counted.
LAYER_SUM_TOLERANCE = 0.10
