"""De-noising simulator.

Implements the two generation paths MoDM's workers execute:

* **Full generation** (cache miss): ``T`` de-noising steps from pure noise,
  converging to the model's rendering of the prompt — the prompt mixture
  scaled by the model's ``alignment``, plus a realism residual whose
  composition drives FID.
* **Refinement** (cache hit, §5.1): the retrieved image is re-noised to
  timestep ``t_k`` per Eq. 2 and de-noised for the remaining ``T - k``
  steps.  The result stays *anchored* to the cached image in proportion to
  the Eq. 2 structure retention ``1 - sigma_k`` (early steps set structure;
  skipping them keeps the cached structure), drifts toward the refining
  model's own rendering for the remainder, and pays a small under-refinement
  penalty that grows with the skip fraction ``k / T`` — together producing
  the Fig. 5a family of quality-vs-similarity curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro._memo import VariantMemo, variant_get, variant_put
from repro._rng import (
    Draw,
    DrawItem,
    SeedPrefix,
    directions,
    normalize,
    normalize_rows,
    seed_for,
)
from repro.core.journal import SnapCounter
from repro.diffusion.latent import SyntheticImage
from repro.diffusion.registry import ModelSpec
from repro.diffusion.schedule import NoiseSchedule
from repro.embedding.space import SemanticSpace
from repro.embedding.text_encoder import (
    PromptLike,
    prompt_mixture,
    prompt_mixtures,
)

#: Stream names for the deterministic noise sources.
_NAT_STREAM = "residual-natural"
_MODEL_STREAM = "residual-model"
_FINGERPRINT_STREAM = "model-fingerprint"
_SET_STREAM = "set-shift"
_IMAGE_STREAM = "image-noise"
_GENERIC_STREAM = "generic-direction"
_JITTER_STREAM = "alignment-jitter"

_MEMO_MAX = 150_000

#: Prompts per :meth:`DiffusionModelSim.generate_chunks` batch: large
#: enough that per-call costs amortize, small enough that a batch's row
#: stacks and parked encoder noise stay a few hundred KiB.
WARM_CHUNK = 256

#: Memoized target/artifact directions and finished image contents,
#: shared process-wide.  All are pure functions of their keys: the key
#: prefix pins the full spec parametrization (via its digest) and the
#: space geometry; prompt ids pin prompt content by the workload contract
#: (a prompt id identifies one immutable prompt).  The caches survive
#: across system instances — the regime where they pay off: experiment
#: suites drive the same trace through several serving systems and
#: replays, and every system re-renders the same prompts.
#:
#: The two generation paths keep their contents in two memos, each under
#: its own size bound, so a run that refines heavily does not wipe the
#: generated contents (and vice versa).  A generated content
#: (``_CONTENT_CACHE``) is keyed ``prefix + (image_id,)``.  A refined
#: content (``_REFINE_CACHE``) also depends on its source image's
#: content, which the source id does not pin (a refined image's id does
#: not encode the skip depth that produced it, so the same source id can
#: carry different content under different serving configs): it is a
#: :mod:`repro._memo` variant entry, keyed ``prefix + (image_id, skip,
#: variant)`` and holding ``(source content, content)``.
_TARGET_CACHE: Dict[Tuple, np.ndarray] = {}
_ARTIFACT_CACHE: Dict[Tuple, np.ndarray] = {}
_CONTENT_CACHE: Dict[Tuple, np.ndarray] = {}
_REFINE_CACHE: VariantMemo = {}


def clear_model_memos() -> None:
    """Drop every process-wide model memo (targets, artifacts, contents).

    Benchmarks call this to measure cold-start behaviour; correctness
    never depends on it (all memoized values are pure).
    """
    _TARGET_CACHE.clear()
    _ARTIFACT_CACHE.clear()
    _CONTENT_CACHE.clear()
    _REFINE_CACHE.clear()


_first = itemgetter(0)


def _column(values: Sequence[float]) -> np.ndarray:
    """Per-row scalars as an ``(n, 1)`` column: each element of
    ``column * stack`` is the IEEE product ``value * vector`` of its row."""
    return np.array(values)[:, None]


def _row_ops(n: int) -> Tuple[Callable, Callable, Callable]:
    """``(stack, unit, column)`` for assembling ``n`` rows at once.

    One row is assembled on its vector and Python-float scalars
    (``stack`` and ``column`` take the single element, ``unit`` is
    :func:`normalize`); several on 2-D row stacks and ``(n, 1)`` scalar
    columns, normalized by :func:`normalize_rows`.  The same expressions
    then give every row the same IEEE operations either way.
    """
    if n == 1:
        return _first, normalize, _first
    return np.array, normalize_rows, _column


def _split(vecs: np.ndarray) -> List[np.ndarray]:
    """The vectors of a :func:`_row_ops` result, in order, made read-only.

    They become shared memo values, and a row of a stack is only as
    read-only as the stack itself.
    """
    vecs.flags.writeable = False
    return [vecs] if vecs.ndim == 1 else list(vecs)


def _memo_store(cache: Dict[Tuple, np.ndarray], key: Tuple, value: np.ndarray) -> None:
    """Memoize ``value``, read-only already (see :func:`_split`)."""
    if len(cache) >= _MEMO_MAX:
        cache.clear()
    cache[key] = value


@dataclass(frozen=True)
class GenerationResult:
    """Output of one generation: the image plus compute accounting."""

    image: SyntheticImage
    steps_run: int
    skipped_steps: int

    @property
    def total_steps_equivalent(self) -> int:
        return self.steps_run + self.skipped_steps


class DiffusionModelSim:
    """Simulated diffusion model bound to a semantic space.

    One instance per model per process; the instance is stateless apart from
    an id counter, so a single instance can serve many simulated workers.
    """

    def __init__(
        self,
        spec: ModelSpec,
        space: SemanticSpace,
        image_id_len_cap: Optional[int] = None,
    ):
        self._spec = spec
        self._space = space
        self._schedule = spec.schedule()
        # SnapCounter, not itertools.count: image ids seed content noise
        # draws, so a restored replica must continue the stream exactly.
        self._counter = SnapCounter()
        self._id_len_cap = image_id_len_cap
        # Disambiguates image ids across differently-parametrized specs of
        # the same model (image ids key encoder caches, so two images with
        # the same id must have identical content).
        self._spec_digest = f"{seed_for(repr(spec)):016x}"[:8]
        semantic_dim = space.config.semantic_dim
        fingerprint = directions.unit(
            semantic_dim, _FINGERPRINT_STREAM, spec.family, spec.name
        )
        self._fingerprint_part = spec.fingerprint * fingerprint
        self._generic_direction = directions.unit(
            semantic_dim, _GENERIC_STREAM, space.config.seed
        )
        # Spec-fixed scalars of the target construction, hoisted off the
        # per-generation path (bit-identical: np.sqrt and math.sqrt are
        # both correctly rounded).
        self._artifact_scale = math.sqrt(
            max(0.0, 1.0 - spec.alignment**2)
        )
        self._idiosyncratic_weight = math.sqrt(
            max(0.0, 1.0 - spec.fingerprint**2)
        )
        # Memoized pure results (keys recur across systems and suites).
        # The key prefix pins the full spec parametrization and the space
        # geometry, so differently-configured sims never collide.  Both
        # pins are interned strings: their hashes are cached, keeping the
        # per-lookup cost flat.
        self._memo_prefix = (
            self._spec_digest,
            f"{seed_for(repr(space.config)):016x}",
        )
        # Per skip depth: (anchor weight, refine alignment, refine realism).
        self._skip_cache: Dict[int, Tuple[float, float, float]] = {}
        # Seeds of the keyed streams, each with its fixed key prefix
        # hashed once: per prompt (+ seed) and per image id.
        self._jitter_seeds = SeedPrefix(_JITTER_STREAM, spec.name)
        self._natural_seeds = SeedPrefix(_NAT_STREAM, space.config.seed)
        self._artifact_seeds = SeedPrefix(_MODEL_STREAM, spec.name)
        self._set_seeds = SeedPrefix(_SET_STREAM, spec.name)
        self._generic_seeds = SeedPrefix(_GENERIC_STREAM, spec.name)
        self._noise_seeds = SeedPrefix(_IMAGE_STREAM, spec.name)

    @property
    def spec(self) -> ModelSpec:
        return self._spec

    @property
    def schedule(self) -> NoiseSchedule:
        return self._schedule

    @property
    def space(self) -> SemanticSpace:
        return self._space

    # ------------------------------------------------------------------
    # Target construction
    # ------------------------------------------------------------------
    def target_content(
        self,
        prompt: PromptLike,
        seed: str,
        alignment: Optional[float] = None,
        realism: Optional[float] = None,
    ) -> np.ndarray:
        """The model's rendering of ``prompt`` — where de-noising converges.

        ``alignment`` of the mass goes to the prompt mixture; the rest is a
        realism residual mixing the shared natural-image direction (weight
        ``realism``) with the model's own artifact direction, itself partly
        a consistent fingerprint (weight ``fingerprint``).  ``seed`` tags
        the generation run and adds the set-level drift that produces the
        FID floor between independent runs.

        ``alignment`` overrides the spec's value (refinement discounts it);
        the alignment *deficit* relative to the standalone value is routed
        to the shared natural direction, not to model artifacts — an
        under-aligned refinement looks generic, it does not grow extra
        artifacts — so FID stays governed by ``realism``.
        """
        items, assemble = self._target_plan(
            (prompt,), seed, alignment, realism
        )
        return assemble([directions.draw_batch(items[0])])

    def _target_plan(
        self,
        prompts: Sequence[PromptLike],
        seed: str,
        alignment: Optional[float],
        realism: Optional[float],
    ) -> Tuple[
        List[List[DrawItem]], Callable[[Sequence[Sequence[Draw]]], np.ndarray]
    ]:
        """The keyed draws a stack of targets needs, and its assembly.

        Returns ``(items, assemble)``: ``items[r]`` are the
        :meth:`DirectionCache.draw_batch` items of row ``r``'s target —
        empty on a target-memo hit and for a repeat of an earlier row's
        target, which is built once, as the sequential memo hit would —
        and ``assemble(drawn)``, where ``drawn[r]`` starts with the draws
        of ``items[r]`` in order, builds, memoizes and returns the
        targets: a vector for one prompt, a ``(len(prompts), dim)`` stack
        for several.  Callers append their own per-image draws to each
        row, so one batch seeds every image.

        The assembly is shape-generic: the same element-wise expressions
        run on vectors (one row) or row stacks (several), per-row scalars
        stay Python floats (an ``(n, 1)`` column for a stack), and stacks
        are normalized by :func:`normalize_rows`, so every row is
        bit-identical to building its target alone.
        """
        spec = self._spec
        prefix = self._memo_prefix
        dim = self._space.config.semantic_dim
        jittered = spec.alignment_jitter > 0.0
        set_item = None
        items: List[List[DrawItem]] = []
        #: Rows built here: (row, target key, artifact key, memoized
        #: artifact or None).
        build: List[Tuple[int, Tuple, Tuple, Optional[np.ndarray]]] = []
        hits: Dict[int, np.ndarray] = {}
        #: Repeated row -> position in ``build`` of the row it repeats.
        repeats: Dict[int, int] = {}
        first: Dict[Tuple, int] = {}
        for r, prompt in enumerate(prompts):
            pid = prompt.prompt_id
            cache_key = prefix + (pid, seed, alignment, realism)
            cached = _TARGET_CACHE.get(cache_key)
            if cached is not None:
                hits[r] = cached
                items.append([])
                continue
            k = first.get(cache_key)
            if k is not None:
                repeats[r] = k
                items.append([])
                continue
            first[cache_key] = len(build)
            row: List[DrawItem] = []
            if jittered:
                row.append((None, True, self._jitter_seeds(pid, seed)))
            row.append((dim, True, self._natural_seeds(pid)))
            # The artifact direction is pure in (model, prompt); it recurs
            # when the same prompt is rendered again (ground-truth sets,
            # baseline comparisons over one trace, repeated experiment
            # runs).  Only its normalized form is memoized: every caller
            # reads that first, so a memo of the raw draw would never be
            # read.
            artifact_key = prefix + (pid,)
            artifact = _ARTIFACT_CACHE.get(artifact_key)
            if artifact is None:
                row.append((dim, False, self._artifact_seeds(pid)))
            if set_item is None:
                set_item = (dim, True, self._set_seeds(seed))
            row.append(set_item)
            items.append(row)
            build.append((r, cache_key, artifact_key, artifact))

        def assemble(drawn: Sequence[Sequence[Draw]]) -> np.ndarray:
            if not build:
                return _row_ops(len(prompts))[0](
                    [hits[r] for r in range(len(prompts))]
                )
            stack, unit, column = _row_ops(len(build))
            aligned = spec.alignment if alignment is None else alignment
            real = spec.realism if realism is None else realism
            # The model's intrinsic artifact budget is fixed by its
            # standalone alignment; any further alignment loss becomes
            # generic content.
            artifact_scale = self._artifact_scale
            # Draw positions in a row: [jitter], natural, [artifact], set.
            nat = 1 if jittered else 0
            aligns = []
            deficits = []
            naturals = []
            artifacts = []
            raws = []
            raw_draws = []
            for r, _, _, artifact in build:
                draws = drawn[r]
                a = aligned
                if jittered:
                    shifted = aligned + spec.alignment_jitter * draws[0]
                    # Same clamp as np.clip(shifted, 0.05, 0.98).
                    a = min(max(shifted, 0.05), 0.98)
                aligns.append(a)
                deficits.append(
                    math.sqrt(max(0.0, 1.0 - a**2 - artifact_scale**2))
                )
                naturals.append(draws[nat])
                if artifact is None:
                    raws.append(len(artifacts))
                    raw_draws.append(draws[nat + 1])
                artifacts.append(artifact)
            if raws:
                stack_raws, unit_raws, _ = _row_ops(len(raws))
                fresh = unit_raws(
                    self._fingerprint_part
                    + self._idiosyncratic_weight * stack_raws(raw_draws)
                )
                for k, vec in zip(raws, _split(fresh)):
                    artifacts[k] = vec
                    _memo_store(_ARTIFACT_CACHE, build[k][2], vec)
            natural = stack(naturals)
            residual = unit(real * natural + (1.0 - real) * stack(artifacts))
            # Every row drew the same set-drift direction, last of its
            # own items.
            r, _, _, artifact = build[0]
            set_drift = drawn[r][nat + 1 + (artifact is None)]
            if len(build) == 1:
                mixture = prompt_mixture(self._space, prompts[r])
            else:
                mixture = prompt_mixtures(
                    self._space, [prompts[b[0]] for b in build]
                )
            targets = unit(
                column(aligns) * mixture
                + artifact_scale * residual
                + column(deficits) * natural
                + spec.set_shift * set_drift
            )
            built = _split(targets)
            for (_, cache_key, _, _), target in zip(build, built):
                _memo_store(_TARGET_CACHE, cache_key, target)
            if not hits and not repeats:
                return targets
            out = np.empty((len(prompts), dim))
            for (r, _, _, _), target in zip(build, built):
                out[r] = target
            for r, target in hits.items():
                out[r] = target
            for r, k in repeats.items():
                out[r] = built[k]
            return out

        return items, assemble

    def _refine_terms(self, structure_retention: float) -> Tuple[float, float]:
        """``(alignment, realism)`` of the refinement target."""
        spec = self._spec
        floor = spec.refine_discount_floor
        scale = floor + (1.0 - floor) * structure_retention
        discounted = spec.alignment * (
            1.0 - spec.refine_alignment_discount * scale
        )
        # Refinement inherits the retained structure's realism: artifacts
        # the refiner would have introduced from scratch are attenuated in
        # proportion to how much of the original image survives (this is
        # why MoDM's FID lands between the large and small models' in
        # Tables 2-3).
        recovered_realism = (
            spec.realism + (1.0 - spec.realism) * structure_retention
        )
        return discounted, recovered_realism

    def refinement_target(
        self,
        prompt: PromptLike,
        seed: str,
        structure_retention: float = 1.0,
    ) -> np.ndarray:
        """Where de-noising converges when refining an existing image.

        The de-noiser must stay consistent with the re-noised structure, so
        prompt alignment is discounted relative to from-scratch generation
        (``refine_alignment_discount``) — the reason Fig. 5a's quality
        factor can dip below 1.0 even at small ``k``.  The discount grows
        with the Eq. 2 structure retention ``1 - sigma_k``: the more of the
        original image survives re-noising, the less freedom the de-noiser
        has to chase the prompt.
        """
        if not 0.0 <= structure_retention <= 1.0:
            raise ValueError("structure_retention must be in [0, 1]")
        alignment, realism = self._refine_terms(structure_retention)
        return self.target_content(
            prompt, seed, alignment=alignment, realism=realism
        )

    # ------------------------------------------------------------------
    # Generation paths
    # ------------------------------------------------------------------
    def generate(
        self,
        prompt: PromptLike,
        seed: str = "default",
        created_at: float = 0.0,
    ) -> GenerationResult:
        """Full ``T``-step generation from pure noise (cache-miss path).

        The one-prompt case of :meth:`generate_batch`.
        """
        return self.generate_batch((prompt,), seed, created_at)[0]

    def generate_batch(
        self,
        prompts: Sequence[PromptLike],
        seed: str = "default",
        created_at: float = 0.0,
    ) -> List[GenerationResult]:
        """:meth:`generate` of every prompt, in order, as one batch.

        The contract is bit-for-bit equality with sequential
        :meth:`generate` calls: the same image ids (the id counter
        advances in prompt order), the same content bytes and the same
        memo entries.  Each image's content depends only on its own keyed
        draws, so the images are independent and are built together:
        every draw of every fresh image is seeded in one
        :meth:`DirectionCache.draw_batch` (packed replays, eight seeds a
        call), targets come from one :meth:`_target_plan`, and contents
        are finished as one row stack.  The image encoder's noise rows
        are parked as one batch for
        :meth:`~repro.embedding.image_encoder.ClipLikeImageEncoder.encode_batch`.
        """
        spec = self._spec
        prefix = self._memo_prefix
        images: List[Tuple[PromptLike, str, Tuple, Optional[np.ndarray]]] = []
        fresh: List[int] = []
        for prompt in prompts:
            image_id = self._next_image_id(prompt.prompt_id, seed)
            # A finished content is pure in (spec, space, prompt, seed,
            # image id) — the id pins prompt and seed, plus the per-sim
            # sequence position that keys the sampling noise.
            key = prefix + (image_id,)
            content = _CONTENT_CACHE.get(key)
            if content is None:
                fresh.append(len(images))
            images.append((prompt, image_id, key, content))
        if fresh:
            items, assemble = self._target_plan(
                [images[i][0] for i in fresh], seed, None, None
            )
            fresh_ids = []
            for row, i in zip(items, fresh):
                image_id = images[i][1]
                row.append(self._noise_item(image_id))
                fresh_ids.append(image_id)
            drawn = self._draw_images(items, fresh_ids)
            stack, unit, _ = _row_ops(len(fresh))
            finished = unit(
                assemble(drawn)
                + spec.image_noise * stack([d[-1] for d in drawn])
            )
            for i, content in zip(fresh, _split(finished)):
                prompt, image_id, key, _ = images[i]
                images[i] = (prompt, image_id, key, content)
                _memo_store(_CONTENT_CACHE, key, content)
        total = spec.total_steps
        return [
            GenerationResult(
                image=SyntheticImage(
                    image_id=image_id,
                    prompt_id=prompt.prompt_id,
                    model_name=spec.name,
                    content=content,
                    created_at=created_at,
                    steps_run=total,
                    skipped_steps=0,
                    source_image_id=None,
                    seed=seed,
                    size_bytes=spec.image_bytes,
                ),
                steps_run=total,
                skipped_steps=0,
            )
            for prompt, image_id, _, content in images
        ]

    def generate_chunks(
        self,
        prompts: Sequence[PromptLike],
        seed: str = "default",
        created_at: float = 0.0,
    ) -> Iterator[Tuple[Sequence[PromptLike], List[SyntheticImage]]]:
        """:meth:`generate_batch` over consecutive chunks of ``prompts``.

        Yields ``(chunk, images)`` per chunk of at most
        :data:`WARM_CHUNK` prompts, generating each chunk only when it is
        asked for.  A bulk caller that embeds a chunk's images before
        taking the next one finds their encoder noise still parked, and
        its temporaries stay bounded by the chunk size.
        """
        for start in range(0, len(prompts), WARM_CHUNK):
            chunk = prompts[start:start + WARM_CHUNK]
            results = self.generate_batch(chunk, seed, created_at)
            yield chunk, [result.image for result in results]

    def refine(
        self,
        prompt: PromptLike,
        source: SyntheticImage,
        skipped_steps: int,
        seed: str = "default",
        created_at: float = 0.0,
    ) -> GenerationResult:
        """Refine a cached image with ``T - k`` steps (cache-hit path).

        ``skipped_steps`` is ``k`` in the paper's notation and must respect
        this model's schedule (use :meth:`NoiseSchedule.scaled_skip` to map
        the paper's ``K`` fractions onto distilled models).
        """
        total = self._spec.total_steps
        if not 0 <= skipped_steps <= total:
            raise ValueError(
                f"skipped_steps must be in [0, {total}], got {skipped_steps}"
            )
        image_id = self._next_image_id(
            prompt.prompt_id, seed, source_id=source.image_id
        )
        # Pure in (spec, space, prompt+seed+sequence via image id, skip
        # depth, source content); the source content is matched bitwise
        # by the variant memo, not pinned by its id.
        content_key = self._memo_prefix + (image_id, skipped_steps)
        content, variant = variant_get(
            _REFINE_CACHE, content_key, source.content
        )
        if content is None:
            terms = self._skip_cache.get(skipped_steps)
            if terms is None:
                retention = self._schedule.structure_retention(
                    skipped_steps
                )
                terms = self._skip_cache[skipped_steps] = (
                    self._anchor_weight(retention),
                    *self._refine_terms(retention),
                )
            anchor, alignment, realism = terms
            items, assemble = self._target_plan(
                (prompt,), seed, alignment, realism
            )
            row = items[0]
            # Under-refinement: with few remaining steps, residual noise
            # from the Eq. 2 re-noising survives into the output.  The
            # residue is image-specific (it is leftover sampling noise),
            # so it attenuates prompt alignment without shifting the
            # population mean.  Never memoized: the image-id key is
            # unique per run, and replays short-circuit on the content
            # memo above, so a DirectionCache entry would be write-only
            # pollution.
            drift = self._spec.skip_penalty * (skipped_steps / total)
            if drift > 0.0:
                row.append(
                    (
                        self._space.config.semantic_dim,
                        False,
                        self._generic_seeds(image_id),
                    )
                )
            row.append(self._noise_item(image_id))
            drawn = self._draw_images(items, (image_id,))
            draws = drawn[0]
            blend = normalize(
                anchor * normalize(source.content)
                + (1.0 - anchor) * assemble(drawn)
            )
            if drift > 0.0:
                blend = normalize((1.0 - drift) * blend + drift * draws[-2])
            # Per-image sampling noise, as generate_batch finishes a row.
            content = normalize(blend + self._spec.image_noise * draws[-1])
            variant_put(
                _REFINE_CACHE, content_key, variant, source.content,
                content, _MEMO_MAX,
            )
        steps_run = total - skipped_steps
        image = SyntheticImage(
            image_id=image_id,
            prompt_id=prompt.prompt_id,
            model_name=self._spec.name,
            content=content,
            created_at=created_at,
            steps_run=steps_run,
            skipped_steps=skipped_steps,
            source_image_id=source.image_id,
            seed=seed,
            size_bytes=self._spec.image_bytes,
        )
        return GenerationResult(
            image=image,
            steps_run=steps_run,
            skipped_steps=skipped_steps,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _anchor_weight(self, structure_retention: float) -> float:
        """How much of the final image the cached structure determines."""
        weight = (
            self._spec.anchor_intercept
            + self._spec.anchor_slope * structure_retention
        )
        # Same clamp as np.clip(weight, 0.0, 0.97).
        return min(max(weight, 0.0), 0.97)

    def _noise_item(self, image_id: str) -> DrawItem:
        """The per-image sampling-noise draw.

        Deliberately *not* memoized: image-id keys are unique within a
        run, and replays hit the finished-content memo before ever
        drawing it, so caching the draw would only fill the
        DirectionCache with write-only entries.
        """
        return (
            self._space.config.semantic_dim,
            False,
            self._noise_seeds(image_id),
        )

    def _draw_images(
        self, items: List[List[DrawItem]], image_ids: Sequence[str]
    ) -> List[List[Draw]]:
        """Draw every image's items, plus its image-encoder noise.

        ``items[r]`` are image ``image_ids[r]``'s draws.  Every finished
        image is embedded by the image encoder, whose per-image noise
        stream is keyed by the image id.  Those draws join the batch, so
        one :meth:`~repro._rng.DirectionCache.draw_batch` seeds all of
        the images' streams, and are parked in :data:`directions` for
        the encoder (:meth:`~repro._rng.DirectionCache.park_rows`).
        Returns the draws of each ``items[r]`` alone, in order.
        """
        space = self._space
        noisy = space.config.image_encoder_noise > 0.0
        dim = space.config.semantic_dim
        if len(items) == 1:  # one image: no row bookkeeping
            if not noisy:
                return [directions.draw_batch(items[0])]
            seed = space.image_noise_seed(image_ids[0])
            drawn = directions.draw_batch(items[0] + [(dim, False, seed)])
            directions.park(dim, seed, drawn.pop())
            return [drawn]
        flat: List[DrawItem] = []
        seeds: List[int] = []
        for row, image_id in zip(items, image_ids):
            flat.extend(row)
            if noisy:
                seed = space.image_noise_seed(image_id)
                seeds.append(seed)
                flat.append((dim, False, seed))
        drawn = directions.draw_batch(flat)
        out: List[List[Draw]] = []
        noise: List[np.ndarray] = []
        pos = 0
        for row in items:
            end = pos + len(row)
            out.append(drawn[pos:end])
            if noisy:
                noise.append(drawn[end])  # type: ignore[arg-type]
                end += 1
            pos = end
        if noisy:
            directions.park_rows(dim, seeds, noise)
        return out

    def _next_image_id(
        self, prompt_id: str, seed: str, source_id: str = "scratch"
    ) -> str:
        cap = self._id_len_cap
        if cap is not None and len(source_id) > cap:
            # Lineage compression (``MoDMConfig.image_id_len_cap``): a
            # refined image's id embeds its source's full id, so chains
            # of re-admitted refinements grow ids linearly with depth.
            # Replacing an over-cap source component with its digest
            # keeps every id O(cap) bytes; the trailing per-sim counter
            # keeps ids unique regardless of digest collisions.
            source_id = f"~{seed_for(source_id):016x}"
        return (
            f"{self._spec.name}/{self._spec_digest}/{seed}/{prompt_id}/"
            f"{source_id}/{next(self._counter)}"
        )
