"""One measured run of one workload, in a fresh single-threaded process.

``run.py`` starts this script once per measurement so process-wide memos
start cold and ``ru_maxrss`` belongs to one run.  It prints one JSON
object on stdout: the end-to-end metrics, the per-request outcome
digest, calibration diagnostics and, with ``--traced``, the per-layer
metrics.  Any failed check raises, so a broken run prints nothing.

    python3 perfbench/child.py --workload engine-exact --seed 1 [--traced]
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported:
# the run must use one core of the host, driven by one thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "src")
)

import refkernel  # noqa: E402
import scenarios  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
from repro.embedding.space import SemanticSpace  # noqa: E402

#: Layers whose serving-phase self time the traced run reports.
_SELF_LAYERS = tuple(
    name[: -len(".self_ref_s")]
    for name, _ in spec.PER_LAYER
    if name.endswith(".self_ref_s")
)

_CACHE_COUNTERS = ("lookups", "insertions", "evictions", "promotions",
                   "demotions")


def _cache_counters(system) -> dict:
    return {
        name: sum(getattr(c, name, 0) for c in scenarios.caches(system))
        for name in _CACHE_COUNTERS
    }


def run(
    workload: str,
    seed: int,
    traced: bool = False,
    sizes: scenarios.Sizes = scenarios.FULL,
) -> dict:
    """Set up, serve in calibrated slices, check, and report one run."""
    wall0 = time.perf_counter()
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    meter = refkernel.CalibratedMeter()
    scales, phases = [], []
    cpu = {"setup": 0.0, "serve": 0.0}
    ref = {"setup": 0.0, "serve": 0.0}

    def measured(phase, name, layer, fn):
        call = fn
        if tracer is not None:
            tracer.segment, tracer.phase = len(scales), phase
            call = lambda: tracer.call(name, layer, fn)  # noqa: E731
        result, cpu_s, ref_s = meter.measure(call)
        scales.append(meter.last_scale)
        phases.append(phase)
        cpu[phase] += cpu_s
        ref[phase] += ref_s
        return result

    def synthesize():
        space = SemanticSpace()
        return (space,) + scenarios.make_trace(space, workload, seed, sizes)

    space, warm, serve = measured(
        "setup", "workloads.diffusiondb_trace", "workloads", synthesize
    )
    system = measured(
        "setup", "core.serving.construct", "core.serving",
        lambda: scenarios.make_system(space, workload, serve),
    )
    # One whole warm_cache call: the fleet resets its router per call,
    # so splitting it would change where prompts are placed.
    measured(
        "setup", "core.serving.warm_cache", "core.serving",
        lambda: system.warm_cache(warm),
    )
    before = _cache_counters(system)
    report = scenarios.serve_sliced(
        system,
        serve,
        sizes.n_slices,
        lambda fn: measured("serve", "core.serving.run", "core.serving", fn),
    )
    if tracer is not None:
        tracer.uninstall()  # the checks below are not part of the run
    after = _cache_counters(system)
    n = len(serve)
    sim, counts = scenarios.outcome(space, report, n)
    metrics = {
        "req_per_ref_s": n / ref["serve"],
        "setup_s": ref["setup"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **sim,
    }
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        **counts,
        "metrics": metrics,
        "digest": scenarios.behaviour_digest(system, report),
        "diagnostics": {
            "kernel": meter.kernel_summary(),
            "raw_req_per_cpu_s": n / cpu["serve"],
            "serve_cpu_s": cpu["serve"],
            "setup_cpu_s": cpu["setup"],
            "wall_s": time.perf_counter() - wall0,
        },
    }
    if tracer is not None:
        result["per_layer"] = _layer_metrics(
            tracer, scales, phases, system, report, ref["serve"], n,
            {k: after[k] - before[k] for k in after},
        )
    return result


def _layer_metrics(
    tracer, scales, phases, system, report, serve_ref_s, n, cache_delta
) -> dict:
    selfs = tracer.self_times(scales, phases)
    spans = tracer.span_counts(phases)

    def calls(*names):
        return sum(spans.get((name, "serve"), 0) for name in names)

    def counter(key, phase="serve"):
        return tracer.counters.get((key, phase), 0)

    prompts = counter("core.scheduler.prompts")
    decide_calls = calls("core.scheduler.decide_batch")
    emb_rows = counter("embedding.text_rows") + counter("embedding.image_rows")
    layer_sum = sum(v for (_, ph), v in selfs.items() if ph == "serve")
    monitor = scenarios.monitor_view(report)
    fleet = scenarios.fleet_view(system, report)
    out = {
        "trace.req_per_ref_s": n / serve_ref_s,
        "trace.layer_sum_share": layer_sum / serve_ref_s,
        "diffusion.model.generate_calls": calls("diffusion.model.generate"),
        "diffusion.model.refine_calls": calls("diffusion.model.refine"),
        "diffusion.model.setup_self_ref_s": selfs.get(
            ("diffusion.model", "setup"), 0.0
        ),
        "embedding.text_rows": counter("embedding.text_rows"),
        "embedding.image_rows": counter("embedding.image_rows"),
        "embedding.memo_hit_ratio": (
            1.0 - counter("embedding.fresh_rows") / emb_rows
            if emb_rows else 0.0
        ),
        "embedding.setup_self_ref_s": selfs.get(("embedding", "setup"), 0.0),
        "rng.seed_for_calls": counter("rng.seed_for_calls"),
        "rng.unit_rows": counter("rng.unit_rows"),
        "rng.units_rows": counter("rng.units_rows"),
        "rng.setup_seed_for_calls": counter("rng.seed_for_calls", "setup"),
        "workloads.diffusiondb_trace_self_ref_s": selfs.get(
            ("workloads", "setup"), 0.0
        ),
        "core.scheduler.decide_batch_calls": decide_calls,
        "core.scheduler.prompts_per_call": (
            prompts / decide_calls if decide_calls else 0.0
        ),
        "core.scheduler.hit_ratio": (
            counter("core.scheduler.hits") / prompts if prompts else 0.0
        ),
        "core.cache.retrieve_calls": calls(
            "core.cache.retrieve", "core.cache.retrieve_batch",
            "core.tiering.retrieve", "core.tiering.retrieve_batch",
        ),
        "core.cache.insert_calls": calls(
            "core.cache.insert", "core.tiering.insert"
        ),
        "core.cache.record_hit_calls": calls(
            "core.cache.record_hit", "core.tiering.record_hit"
        ),
        "core.cache.lookups": cache_delta["lookups"],
        "core.cache.insertions": cache_delta["insertions"],
        "core.cache.evictions": cache_delta["evictions"],
        "core.cache.scan_entries": counter("core.cache.scan_entries"),
        "core.tiering.read_rows_calls": calls("core.tiering.read_rows"),
        "core.tiering.read_rows_rows": counter("core.tiering.read_rows_rows"),
        "core.tiering.read_row_calls": calls("core.tiering.read_row"),
        "core.tiering.promotions": cache_delta["promotions"],
        "core.tiering.demotions": cache_delta["demotions"],
        "core.ann.search_calls": calls(
            "core.ann.search", "core.ann.search_topk"
        ),
        "cluster.events.processed": system.loop.processed,
        "cluster.stats.record_decision_calls": calls(
            "cluster.stats.record_decision"
        ),
        "cluster.stats.window_calls": calls(
            "cluster.stats.window", "cluster.stats.slo_window"
        ),
        "core.monitor.allocate_calls": calls("core.monitor.allocate"),
        **{f"core.monitor.{k}": v for k, v in monitor.items()},
        "core.journal.rows": fleet["journal_rows"],
        "core.journal.snapshot_captures": calls("core.journal.capture"),
        "core.cluster_router.route_batch_calls": calls(
            "core.cluster_router.route_batch"
        ),
        "core.cluster_router.route_batch_rows": counter(
            "core.cluster_router.route_batch_rows"
        ),
        **{
            f"core.cluster_router.{k}": fleet[k]
            for k in ("routed_imbalance", "rerouted", "migrated", "transfers")
        },
    }
    for layer in _SELF_LAYERS:
        value = selfs.get((layer, "serve"), 0.0)
        out[f"{layer}.self_ref_s"] = value
        out[f"{layer}.self_share"] = value / serve_ref_s
    share = out["trace.layer_sum_share"]
    if abs(share - 1.0) > spec.LAYER_SUM_TOLERANCE:
        raise ValueError(
            f"layer self times sum to {share:.3f} of serving CPU"
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
