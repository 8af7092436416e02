"""Reproductions of the paper's quality tables (Tables 2-3, §A.6).

Methodology follows §6: warm the cache with large-model generations, serve
the next batch of requests in throughput-optimized mode (worst-case
quality — every hit refined by the small model), and score CLIP / FID /
IS / Pick against a ground-truth set generated by the large model with a
different seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.config import CacheAdmission
from repro.core.kselection import modm_default_selector
from repro.experiments.harness import CacheOnlyRun, ExperimentContext
from repro.experiments.reporting import ExperimentResult
from repro.workloads.prompts import Prompt
from repro.workloads.trace import Trace

#: Pinecone's retrieval-only serve threshold on the text-semantic scale.
PINECONE_SERVE_THRESHOLD = 0.87


def _scale_note(ctx: ExperimentContext) -> str:
    return (
        f"scale={ctx.scale.name}: warm={ctx.scale.warm_prompts}, "
        f"quality_requests={ctx.scale.quality_requests}, "
        f"cache={ctx.scale.cache_capacity}"
    )


def _standalone_images(
    ctx: ExperimentContext,
    model: str,
    prompts: Sequence[Prompt],
    seed: str,
) -> List[Tuple[Prompt, object]]:
    results = ctx.model(model).generate_batch(prompts, seed)
    return [(p, result.image) for p, result in zip(prompts, results)]


def _pinecone_images(
    ctx: ExperimentContext,
    large: str,
    warm: Sequence[Prompt],
    prompts: Sequence[Prompt],
    seed: str,
) -> List[Tuple[Prompt, object]]:
    """Retrieval-only serving: cached image as-is, or full generation."""
    retrieval = ctx.retrieval_t2t
    large_sim = ctx.model(large)
    from repro.core.cache import ImageCache

    cache = ImageCache(
        capacity=ctx.scale.cache_capacity, embed_dim=retrieval.embed_dim
    )
    for chunk, images in large_sim.generate_chunks(warm, seed="warmup"):
        embeddings = retrieval.index_embeddings(chunk, images)
        for img, embedding in zip(images, embeddings):
            cache.insert(img, embedding, 0.0)
    out: List[Tuple[Prompt, object]] = []
    for p in prompts:
        entry, sim = cache.retrieve(retrieval.query_embedding(p))
        if entry is not None and sim >= PINECONE_SERVE_THRESHOLD:
            out.append((p, entry.payload))
        else:
            img = large_sim.generate(p, seed=seed).image
            cache.insert(img, retrieval.index_embedding(p, img), 0.0)
            out.append((p, img))
    return out


def _modm_images(
    ctx: ExperimentContext,
    large: str,
    small: str,
    warm: Sequence[Prompt],
    prompts: Sequence[Prompt],
    seed: str,
) -> Tuple[List[Tuple[Prompt, object]], float]:
    run = CacheOnlyRun(
        space=ctx.space,
        retrieval=ctx.retrieval_t2i,
        selector=modm_default_selector(),
        large=ctx.model(large),
        refine_with=ctx.model(small),
        cache_capacity=ctx.scale.cache_capacity,
        admission=CacheAdmission.ALL,
        seed=seed,
    )
    run.warm(warm)
    run.serve(list(prompts))
    return run.images(), run.hit_rate()


def _nirvana_images(
    ctx: ExperimentContext,
    large: str,
    warm: Sequence[Prompt],
    prompts: Sequence[Prompt],
    seed: str,
) -> List[Tuple[Prompt, object]]:
    run = ctx.nirvana_cache_run(model=large)
    run.seed = seed
    run.warm(warm)
    run.serve(list(prompts))
    return run.images()


def _quality_table(
    ctx: ExperimentContext,
    trace: Trace,
    dataset: str,
    large: str,
    result: ExperimentResult,
) -> None:
    warm = [r.prompt for r in trace.requests[: ctx.scale.warm_prompts]]
    prompts = [
        r.prompt for r in trace.requests[ctx.scale.warm_prompts :]
    ][: ctx.scale.quality_requests]
    gt = ctx.ground_truth(prompts, model=large)

    def add(system: str, pairs, hit_rate: Optional[float] = None) -> None:
        row = ctx.quality_row(pairs, gt)
        result.add_row(
            dataset=dataset,
            system=system,
            **row,
            **({"hit_rate": hit_rate} if hit_rate is not None else {}),
        )

    add(
        f"Vanilla ({large})",
        _standalone_images(ctx, large, prompts, "vanilla-run"),
    )
    for model, label in (
        ("sdxl", "SDXL"),
        ("sd3.5-large-turbo", "SD3.5L-Turbo"),
        ("sana-1.6b", "SANA"),
    ):
        add(label, _standalone_images(ctx, model, prompts, "small-run"))
    add(
        "Nirvana",
        _nirvana_images(ctx, large, warm, prompts, "nirvana-run"),
    )
    add(
        "Pinecone",
        _pinecone_images(ctx, large, warm, prompts, "pinecone-run"),
    )
    for small, label in (("sdxl", "MoDM-SDXL"), ("sana-1.6b", "MoDM-SANA")):
        pairs, hit_rate = _modm_images(
            ctx, large, small, warm, prompts, "modm-run"
        )
        add(label, pairs, hit_rate)


def table2_image_quality(ctx: ExperimentContext) -> ExperimentResult:
    """Table 2: quality on DiffusionDB and MJHQ, Vanilla = SD3.5-Large."""
    result = ExperimentResult(
        experiment_id="table2",
        title="Image quality (Vanilla: SD3.5-Large)",
        paper_reference=(
            "Table 2 (DiffusionDB): Vanilla 28.55/6.29/15.52/21.44; "
            "SDXL 29.30/16.29; SANA 28.08/19.96; Nirvana 28.02/9.01; "
            "Pinecone 25.98/14.18; MoDM-SDXL 28.70/11.85; "
            "MoDM-SANA 28.01/16.96"
        ),
    )
    result.add_note(
        f"scale={ctx.scale.name}: {ctx.scale.quality_requests} scored "
        f"requests after {ctx.scale.warm_prompts} warm-up generations"
    )
    _quality_table(ctx, ctx.diffusiondb(), "diffusiondb", "sd3.5-large", result)
    _quality_table(ctx, ctx.mjhq(), "mjhq", "sd3.5-large", result)
    return result


def table3_image_quality_flux(ctx: ExperimentContext) -> ExperimentResult:
    """Table 3: quality on DiffusionDB, Vanilla = FLUX."""
    result = ExperimentResult(
        experiment_id="table3",
        title="Image quality (Vanilla: FLUX), DiffusionDB",
        paper_reference=(
            "Table 3: Vanilla 26.82/6.02/16.69/21.29; Nirvana 26.01/9.07; "
            "Pinecone 24.37/19.41; MoDM-SDXL 28.41/10.74; "
            "MoDM-SANA 27.59/16.84"
        ),
    )
    result.add_note(
        f"scale={ctx.scale.name}: {ctx.scale.quality_requests} scored "
        "requests"
    )
    _quality_table(ctx, ctx.diffusiondb(), "diffusiondb", "flux.1-dev", result)
    return result


def a6_small_model_cache_quality(ctx: ExperimentContext) -> ExperimentResult:
    """§A.6: does caching small-model refinements degrade future quality?

    Three cache populations are built from the same second batch of
    requests — full SD3.5L regenerations, SD3.5L refinements, and SDXL
    refinements — and each then serves a third batch with SDXL refinement.
    The paper measures final CLIP 29.63 / 28.58 / 28.32: a minimal drop,
    justifying MoDM's cache-all policy.
    """
    result = ExperimentResult(
        experiment_id="a6",
        title="Effect of caching small-model refinements (3-stage chain)",
        paper_reference="§A.6: CLIP 29.63 / 28.58 / 28.32",
    )
    result.add_note(_scale_note(ctx))
    trace = ctx.diffusiondb(3 * ctx.scale.warm_prompts)
    third = len(trace) // 3
    batch1 = [r.prompt for r in trace.requests[:third]]
    batch2 = [r.prompt for r in trace.requests[third : 2 * third]]
    batch3 = [r.prompt for r in trace.requests[2 * third :]]

    large = ctx.model("sd3.5-large")
    sdxl = ctx.model("sdxl")
    selector = modm_default_selector()

    def warmed_run(refiner) -> CacheOnlyRun:
        run = CacheOnlyRun(
            space=ctx.space,
            retrieval=ctx.retrieval_t2i,
            selector=selector,
            large=large,
            refine_with=refiner,
            cache_capacity=ctx.scale.cache_capacity,
            admission=CacheAdmission.ALL,
            seed="a6-stage2",
        )
        run.warm(batch1)
        return run

    strategies = (
        ("full-SD3.5L", large, False),
        ("refine-SD3.5L", large, True),
        ("refine-SDXL", sdxl, True),
    )
    for label, stage2_model, refine in strategies:
        run = warmed_run(stage2_model)
        if refine:
            run.serve(batch2)
        else:
            # Stage 2 fully regenerates every request with the large
            # model and admits it (a warm-up under another seed).
            run.warm(batch2, seed="a6-full")
        # Stage 3: serve a fresh batch with SDXL refinement against the
        # stage-2 cache; score only the cache hits (the paper evaluates
        # the reused generations).
        run.refine_with = sdxl
        records = run.serve(batch3)
        hit_pairs = [
            (r.prompt, r.image) for r in records if r.hit
        ]
        clip = (
            ctx.clip.mean_score(hit_pairs) if hit_pairs else float("nan")
        )
        result.add_row(
            stage2_cache=label,
            stage3_hits=len(hit_pairs),
            stage3_hit_clip=clip,
        )
    return result
